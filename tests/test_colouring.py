import hashlib
import json
import random
import re
from collections import Counter
from itertools import chain, combinations, filterfalse, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import (
    EdgeColouring,
    balance_classes,
    build_graph,
    decompose,
    gen_instance,
    koenig_colour,
    label_case_i3,
    label_main,
    order_classes_for_vertex,
    vizing_colour,
)
from antimagic.colouring import (
    _exact_class,
    _Rows,
    _donor_path,
    pack_matchings,
    split_classes,
)
from antimagic.errors import (
    AntimagicError,
    DegreeExceedsColours,
    InfeasibleBalance,
    NotBipartite,
    NotEnoughClasses,
    ProofViolation,
)
from antimagic.graph import Graph
from conftest import brute_proper, random_graph


def test_koenig_even_cycle_two_classes():
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    col = koenig_colour(g, range(6), 2, {1, 3, 5})
    assert sorted(len(c) for c in col.classes) == [3, 3]
    assert brute_proper(g, col.classes)


def test_koenig_matching_single_class():
    g = build_graph(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    col = koenig_colour(g, range(4), 1, {1, 3, 5, 7})
    assert len(col.classes) == 1
    assert len(col.classes[0]) == 4


def test_koenig_rejects_odd_cycle():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotBipartite):
        koenig_colour(g, range(3), 3, {1})


def test_koenig_rejects_a_side_that_does_not_split_the_subset():
    # The path 1-2-3 is bipartite, but only {2} or {1, 3} splits it.
    g = build_graph(3, [(1, 2), (2, 3)])
    for side in ({2}, {1, 3}):
        assert koenig_colour(g, range(2), 2, side).classes == ((0,), (1,))
    with pytest.raises(NotBipartite, match=r"edge 1-2 does not join "
                       r"side \[1, 2\] to the rest"):
        koenig_colour(g, range(2), 2, {1, 2})
    with pytest.raises(NotBipartite, match="edge 2-3 does not join"):
        koenig_colour(g, range(2), 2, {1})


def test_koenig_rejects_high_degree():
    g = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(DegreeExceedsColours):
        koenig_colour(g, range(3), 2, {1})


def test_rows_first_free_raises_on_a_full_row():
    # Both colourings size their rows so this cannot happen (see
    # _Rows.first_free); a direct call on a full row reaches the raise.
    g = build_graph(3, [(1, 2), (2, 3)])
    rows = _Rows(g, Counter({1: 1, 2: 2, 3: 1}), 2)
    rows.at[2][:] = [1, 2]
    assert rows.first_free(1) == 0
    with pytest.raises(DegreeExceedsColours,
                       match="no free colour at vertex 2"):
        rows.first_free(2)


def test_koenig_on_main_instance_u_subgraph():
    # The bipartite u-H subgraph with d'(u3) edges per u: every class
    # must contain exactly one edge of each of u1, u2, u3.
    g = gen_instance(21, "main", seed=8)
    d = decompose(g)
    t = d.d_prime[2]
    picked = []
    for u in d.u:
        he = sorted((g.other_end(e, u), e) for e in g.incident[u]
                    if g.other_end(e, u) in d.h_set)
        picked.extend(e for _, e in he[:t])
    col = koenig_colour(g, picked, t, d.u)
    assert len(col.classes) == t
    for cls in col.classes:
        assert len(cls) == 3
        endpoints = [a if a in d.u else b for e in cls
                     for a, b in [g.edges[e]]]
        assert sorted(endpoints) == sorted(d.u)
    assert brute_proper(g, col.classes)


def test_vizing_triangle_needs_three():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    col = vizing_colour(g, range(3))
    assert len(col.classes) == 3
    assert brute_proper(g, col.classes)


def test_vizing_path():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    col = vizing_colour(g, range(3))
    assert len(col.classes) <= 3
    assert brute_proper(g, col.classes)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.2, 1.0),
       st.integers(0, 10_000))
def test_koenig_proper_on_random_bipartite(left, right, p, seed):
    rng = random.Random(seed)
    edges = [(u, left + v) for u in range(1, left + 1)
             for v in range(1, right + 1) if rng.random() < p]
    if not edges:
        return
    g = build_graph(left + right, edges)
    k = g.max_degree()
    col = koenig_colour(g, range(g.m), k, range(1, left + 1))
    assert len(col.classes) <= k
    assert sum(col.sizes()) == g.m
    assert brute_proper(g, col.classes)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.floats(0.1, 0.9), st.integers(0, 10_000))
def test_vizing_proper_and_within_bound(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    if g.m == 0:
        return
    col = vizing_colour(g, range(g.m))
    assert sum(col.sizes()) == g.m
    assert len(col.classes) <= g.max_degree() + 1
    assert brute_proper(g, col.classes)


def test_balance_matching_classes():
    # Six disjoint edges two-coloured as [1, 5]; the swaps must reach
    # [3, 3] while staying proper.
    g = build_graph(12, [(2 * i - 1, 2 * i) for i in range(1, 7)])
    col = EdgeColouring(g, ((0,), (1, 2, 3, 4, 5)))
    out = balance_classes(col, 3)
    assert sorted(out.sizes()) == [3, 3]
    assert brute_proper(g, out.classes)


def test_balance_already_balanced_is_fixpoint():
    g = build_graph(12, [(2 * i - 1, 2 * i) for i in range(1, 7)])
    col = EdgeColouring(g, ((0, 1, 2), (3, 4, 5)))
    out = balance_classes(col, 3)
    assert out.classes == col.classes


def test_balance_infeasible():
    g = build_graph(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    col = EdgeColouring(g, ((0, 1), (2, 3)))
    with pytest.raises(InfeasibleBalance):
        balance_classes(col, 3)


def test_balance_on_main_g2():
    g = gen_instance(20, "main", seed=12)
    d = decompose(g)
    t = d.d_prime[2]
    picked = set()
    for u in d.u:
        he = sorted((g.other_end(e, u), e) for e in g.incident[u]
                    if g.other_end(e, u) in d.h_set)
        picked.update(e for _, e in he[:t])
    g2 = [e for e in d.non_root_edges(g.m) if e not in picked
          and not set(g.edges[e]) <= set(d.u)]
    # Padded with empty classes only, so balancing runs its rounds.
    vizing = vizing_colour(g, g2).classes
    col = EdgeColouring(g, vizing + ((),) * (g.n - 4 - len(vizing)))
    out = balance_classes(col, 3)
    assert min(out.sizes()) >= 3
    assert brute_proper(g, out.classes)
    assert sorted(e for c in out.classes for e in c) == sorted(g2)


def test_split_classes_peels_the_largest_class_first():
    g = build_graph(30, [(2 * i - 1, 2 * i) for i in range(1, 16)])
    col = EdgeColouring(g, ((5, 3, 1, 4, 2, 0), tuple(range(6, 15))))
    # Class 1 (9 edges) first; then classes 0 and 1 hold 6 each and the
    # lower index goes first; then class 1 again.  Each peel takes the
    # lowest ids; a class of 3, below 2 * 3, is never peeled.
    assert split_classes(col, 10, 3).classes == (
        (3, 4, 5), (12, 13, 14), (6, 7, 8), (0, 1, 2), (9, 10, 11),
        (), (), (), (), ())
    # It stops at ``total`` classes, even where a class still holds six.
    assert split_classes(col, 4, 3).classes == (
        (3, 4, 5), (9, 10, 11, 12, 13, 14), (6, 7, 8), (0, 1, 2))
    # Below 2 * size nothing is peeled, and nothing is ever truncated.
    assert split_classes(col, 4, 5).classes == (
        (0, 1, 2, 3, 4, 5), tuple(range(6, 15)), (), ())
    assert split_classes(col, 1, 1).classes == (
        (0, 1, 2, 3, 4, 5), tuple(range(6, 15)))
    assert split_classes(EdgeColouring(g, ()), 2, 3).classes == ((), ())


def test_order_classes_moves_holders_first():
    g = build_graph(13, [(1, 2), (1, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
    # Vertex 1 appears in classes 2 and 4 of six.
    col = EdgeColouring(g, ((2,), (3,), (0,), (4,), (1,), (5,)))
    out = order_classes_for_vertex(col, 1, 2)
    assert out.classes[0] == (0,)
    assert out.classes[1] == (1,)
    assert sorted(out.classes) == sorted(col.classes)


def test_order_classes_k_zero_is_identity():
    g = build_graph(4, [(1, 2), (3, 4)])
    col = EdgeColouring(g, ((0,), (1,)))
    assert order_classes_for_vertex(col, 1, 0).classes == col.classes


def test_order_classes_not_enough():
    g = build_graph(4, [(1, 2), (3, 4)])
    col = EdgeColouring(g, ((0,), (1,)))
    with pytest.raises(NotEnoughClasses):
        order_classes_for_vertex(col, 1, 2)


def test_order_classes_on_main_instance_u1_front():
    g = gen_instance(20, "main", seed=13)
    d = decompose(g)
    u1 = d.u[0]
    t = d.d_prime[2]
    picked = set()
    for u in d.u:
        he = sorted((g.other_end(e, u), e) for e in g.incident[u]
                    if g.other_end(e, u) in d.h_set)
        picked.update(e for _, e in he[:t])
    g2 = [e for e in d.non_root_edges(g.m) if e not in picked
          and not set(g.edges[e]) <= set(d.u)]
    a1 = d.d_prime[0] - t
    col = balance_classes(split_classes(vizing_colour(g, g2), g.n - 4, 3), 3)
    out = order_classes_for_vertex(col, u1, a1)
    for i in range(a1):
        assert any(u1 in g.edges[e] for e in out.classes[i])


def _stage1_colourings(monkeypatch, n, target, seed):
    """What stage 1 packs or balances on one generator graph, captured at
    the constructor's own call sites: [count, size, classes] per packing
    and [split, min_size, balanced] per balancing."""
    from antimagic import construction
    seen = []

    def capture_pack(g, seeds, pool, count, size):
        out = pack_matchings(g, seeds, pool, count, size)
        seen.append([count, size, out.classes])
        return out

    def capture_balance(col, min_size):
        out = balance_classes(col, min_size)
        seen.append([col.classes, min_size, out.classes])
        return out

    monkeypatch.setattr(construction, "pack_matchings", capture_pack)
    monkeypatch.setattr(construction, "balance_classes", capture_balance)
    g = gen_instance(n, target, seed=seed)
    d = decompose(g)
    (label_main if target == "main" else label_case_i3)(g, d)
    return g, seen


@pytest.mark.parametrize("n, target, seed, digest", [
    (100, "main", 1,
     "d9d35631f31ebab78b27dfcc17b77c0c887d0048a9f448ce4079c301ebb4c6c7"),
    (80, "degen_i3", 1,
     "59cd1f36320cf38bd23a224b98cc73e4c514b03b374041886a88e219fdd36015"),
])
def test_stage1_colouring_pinned_at_scale(monkeypatch, n, target, seed, digest):
    # The golden corpus stops at n = 37; this pins MAIN's packed classes,
    # and i = 3's split Vizing colouring and its balancing, byte for byte
    # where the benchmark runs them.
    g, seen = _stage1_colourings(monkeypatch, n, target, seed)
    assert len(seen) == 1
    if target == "main":
        # One class of three disjoint edges per interval I_{t+1} .. I_{n-5}.
        count, size, classes = seen[0]
        t = decompose(g).d_prime[2]
        assert (count, size) == (n - 5 - t, 3)
        assert [len(c) for c in classes] == [3] * count
        assert len({e for c in classes for e in c}) == 3 * count
        assert brute_proper(g, classes)
    else:
        # Stage 1 colours only the min_size * (n - 4) H-H edges the
        # intervals can use, never the whole of H-H.
        split, min_size, balanced = seen[0]
        assert sum(map(len, split)) == min_size * (n - 4)
        assert min(len(c) for c in balanced) >= min_size
        assert brute_proper(g, balanced)
    text = json.dumps(seen, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [19, 40, 80])
@pytest.mark.parametrize("target", ["degen_i3", "disc_u3_isolated"])
def test_stage1_balancing_rounds_stay_few(monkeypatch, n, target):
    # Splitting leaves i = 3's balancing a handful of rounds, one
    # _donor_path call each (0-1 on these graphs), which is what lets
    # balance_classes rebuild its two classes every round.  MAIN
    # balances nothing (see test_main_stage1_runs_no_colouring).
    from antimagic import colouring, label
    calls = 0
    donor_path = colouring._donor_path

    def counted(*args):
        nonlocal calls
        calls += 1
        return donor_path(*args)

    monkeypatch.setattr(colouring, "_donor_path", counted)
    out = label(gen_instance(n, target, seed=1), seed=1)
    assert out.stage.regime.value == "DEGEN_I3"
    assert calls <= 5


@pytest.mark.parametrize("n, target", [
    (100, "main"), (100, "main_triple"), (19, "main"), (19, "main_triple")])
def test_main_stage1_runs_no_colouring(monkeypatch, n, target):
    # MAIN packs its intervals' classes directly: no Vizing colouring,
    # no splitting and no balancing, so its balancing rounds are 0.
    from antimagic import colouring, construction, label, verify_antimagic

    def refuse(*args):
        raise AssertionError("MAIN's stage 1 coloured, split or balanced")

    for module in (colouring, construction):
        for name in ("vizing_colour", "split_classes", "balance_classes"):
            monkeypatch.setattr(module, name, refuse)
    g = gen_instance(n, target, seed=1)
    out = label(g, seed=1)
    assert out.status == "constructed" and out.stage.regime.value == "MAIN"
    assert verify_antimagic(g, out.labelling).ok


@pytest.mark.parametrize("n", [19, 80])
@pytest.mark.parametrize("target", ["degen_i3", "disc_u3_isolated"])
def test_i3_stage1_runs_no_koenig_colouring(monkeypatch, n, target):
    # i = 3 pairs its u-edges by a cyclic shift; only MAIN's G1 is
    # Koenig-coloured.
    from antimagic import colouring, construction, label, verify_antimagic

    def refuse(*args):
        raise AssertionError("i = 3's stage 1 Koenig-coloured")

    for module in (colouring, construction):
        monkeypatch.setattr(module, "koenig_colour", refuse)
    g = gen_instance(n, target, seed=1)
    out = label(g, seed=1)
    assert out.status == "constructed"
    assert out.stage.regime.value == "DEGEN_I3"
    assert verify_antimagic(g, out.labelling).ok


def test_donor_path_skips_cycles_and_recv_ends():
    # Edges 0-3: an alternating 4-cycle; 4-5: a path ending in a recv
    # edge; 6-8: the donor-ended path, the only one that qualifies even
    # though both other components hold smaller edge ids.
    g = build_graph(13, [(1, 2), (2, 3), (3, 4), (4, 1),
                         (5, 6), (6, 7),
                         (8, 9), (9, 10), (10, 11)])
    recv = [0, 2, 5, 7]
    donor = [1, 3, 4, 6, 8]
    assert sorted(_donor_path(g, recv, donor)) == [6, 7, 8]


def test_donor_path_takes_smallest_qualifying_component():
    g = build_graph(10, [(1, 2), (3, 4), (4, 5), (5, 6), (7, 8)])
    assert sorted(_donor_path(g, [2], [4, 1, 3, 0])) == [0]
    assert sorted(_donor_path(g, [0, 2], [4, 1, 3])) == [1, 2, 3]


def test_donor_path_raises_without_a_donor_ended_path():
    # balance_classes only asks when the donor is the larger class, where
    # such a path exists; only a direct call reaches the raise.
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ProofViolation,
                       match="no alternating path with donor-coloured ends"):
        _donor_path(g, [0, 2], [1])


def test_balance_no_classes_is_unchanged():
    g = build_graph(4, [(1, 2), (3, 4)])
    col = EdgeColouring(g, ())
    assert balance_classes(col, 3) is col


# -- the balancer against the one it replaced ----------------------------
#
# ``ref_balance_classes`` and ``ref_donor_path`` are the per-round
# rebuilding implementations, kept verbatim as the reference (only the
# removed ``EdgeColouring.with_classes`` is inlined).  On proper
# colourings the rewrite must give identical classes, or raise the same
# exception class with the same message.

def ref_balance_classes(c: EdgeColouring, min_size: int) -> EdgeColouring:
    """Grow undersized classes to >= min_size edges.

    Each round takes the smallest class as receiver and the largest as
    donor (lowest index on ties), forms the two-colour subgraph, and
    swaps colours along an alternating path whose first and last edges
    belong to the donor (deterministically, the qualifying path
    containing the smallest edge id).  Every swap reduces the total
    deficit by one, so the loop terminates.
    """
    g = c.graph
    classes = [list(cls) for cls in c.classes]
    sizes = [len(cl) for cl in classes]
    if sum(sizes) < min_size * len(classes):
        raise InfeasibleBalance(
            f"{sum(sizes)} edges cannot fill "
            f"{len(classes)} classes of {min_size}")

    def short(i: int) -> int:
        return max(0, min_size - sizes[i])

    guard = sum(map(short, range(len(sizes))))
    while True:
        small = sizes.index(min(sizes))
        if sizes[small] >= min_size:
            break
        big = sizes.index(max(sizes))
        if sizes[big] <= sizes[small]:
            raise ProofViolation("class balancing found no larger donor")
        path = ref_donor_path(g, classes[small], classes[big])
        before = short(small) + short(big)
        path_set = set(path)
        small_set, big_set = set(classes[small]), set(classes[big])
        classes[small] = [e for e in small_set - path_set] + \
            [e for e in path if e in big_set]
        classes[big] = [e for e in big_set - path_set] + \
            [e for e in path if e in small_set]
        sizes[small], sizes[big] = len(classes[small]), len(classes[big])
        new_deficit = guard - before + short(small) + short(big)
        if new_deficit >= guard:
            raise ProofViolation("class balancing failed to make progress")
        guard = new_deficit
    # c.with_classes(classes), inlined: the method is gone.
    return EdgeColouring(c.graph, tuple(tuple(sorted(cl)) for cl in classes))


def ref_donor_path(g: Graph, recv: list[int], donor: list[int]) -> list[int]:
    """Edges of an alternating path in the recv/donor two-colour subgraph
    whose first and last edges are donor edges (a single donor edge
    qualifies).  Exists whenever |donor| > |recv|.

    Components are disjoint paths and cycles; visiting edges in ascending
    id, the first qualifying path met is the one holding the smallest
    edge id among all qualifying paths.
    """
    # The recv edge and the donor edge at each vertex, indexed by "is a
    # donor edge": from a donor edge the walk goes on along at[False].
    at = ({v: e for e in recv for v in g.edges[e]},
          {v: e for e in donor for v in g.edges[e]})
    donor_set = set(donor)
    seen: set[int] = set()
    for first in sorted(recv + donor):
        if first in seen:
            continue
        # Walk the component both ways from ``first``; a cycle closes
        # back onto ``first`` in the first walk.
        comp, closed = [first], False
        for cur in g.edges[first]:
            on_donor = first in donor_set
            while not closed:
                e = at[not on_donor].get(cur)
                if e is None:
                    break
                closed, on_donor = e == first, not on_donor
                comp.append(e)
                cur = g.other_end(e, cur)
            comp.reverse()
        seen.update(comp)
        if not closed and comp[0] in donor_set and comp[-1] in donor_set:
            return comp
    raise ProofViolation("no alternating path with donor-coloured ends")


def _outcome(colour, *args):
    try:
        return "classes", colour(*args).classes
    except AntimagicError as exc:
        return "raised", type(exc), str(exc)


@st.composite
def vizing_cases(draw):
    """(colouring, min_size): a Vizing colouring of a random edge subset
    of a random graph, padded with empty classes (within what min_size
    can fill, half of the time), classes shuffled and each class in
    shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(draw(st.integers(2, 14)), draw(st.floats(0.1, 0.9)),
                     rng)
    keep = draw(st.floats(0.2, 1.0))
    subset = [e for e in range(g.m) if rng.random() < keep]
    classes = [list(cls) for cls in vizing_colour(g, subset).classes]
    min_size = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 10))
    if draw(st.booleans()):  # no more padding than min_size can fill
        pad = min(pad, max(0, len(subset) // min_size - len(classes)))
    classes += [[] for _ in range(pad)]
    rng.shuffle(classes)
    for cls in classes:
        rng.shuffle(cls)
    return EdgeColouring(g, tuple(map(tuple, classes))), min_size


@st.composite
def two_colour_cases(draw):
    """(colouring, min_size) whose first two classes form chosen
    two-colour components: even alternating cycles, paths ending in
    either colour and lone edges, on disjoint vertices, with edge ids
    scattered at random."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = draw(st.lists(st.sampled_from(["cycle", "path"]),
                           min_size=1, max_size=6))
    edges, colour = [], []
    v = 1
    for shape in shapes:
        if shape == "cycle":
            k = 2 * rng.randint(2, 4)
            ring = list(range(v, v + k))
            edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        else:
            k = rng.randint(1, 7)
            edges += [(v + i, v + i + 1) for i in range(k)]
        first = rng.randrange(2)
        colour += [(first + i) % 2 for i in range(k)]
        v += k + 1
    order = list(range(len(edges)))
    rng.shuffle(order)
    g = Graph(v, tuple(edges[i] for i in order))
    classes = [[], []]
    for eid, i in enumerate(order):
        classes[colour[i]].append(eid)
    classes += [[] for _ in range(draw(st.integers(0, 3)))]
    col = EdgeColouring(g, tuple(map(tuple, classes)))
    return col, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(vizing_cases(), two_colour_cases()))
def test_balance_matches_reference(case):
    col, min_size = case
    if not col.classes:  # the reference fails here with a bare ValueError
        assert balance_classes(col, min_size) is col
        return
    out = _outcome(balance_classes, col, min_size)
    assert out == _outcome(ref_balance_classes, col, min_size)
    if out[0] == "classes":
        assert brute_proper(col.graph, out[1])


@settings(max_examples=100, deadline=None)
@given(two_colour_cases())
def test_donor_path_matches_reference(case):
    col, _ = case
    g, (a, b) = col.graph, col.classes[:2]
    for recv, donor in ((a, b), (b, a)):
        if len(donor) > len(recv):
            path = _donor_path(g, list(recv), list(donor))
            assert sorted(path) == sorted(
                ref_donor_path(g, list(recv), list(donor)))
            # Walk order from a donor end: donor edges at even places.
            assert set(path[0::2]) <= set(donor)
            assert set(path[1::2]) <= set(recv)


@settings(max_examples=200, deadline=None)
@given(vizing_cases(), st.integers(0, 40))
def test_split_classes_keeps_a_proper_partition(case, total):
    col, size = case
    out = split_classes(col, total, size)
    assert brute_proper(col.graph, out.classes)
    assert sorted(e for cls in out.classes for e in cls) == sorted(
        e for cls in col.classes for e in cls)
    assert len(out.classes) == max(total, len(col.classes))


# -- the packer --------------------------------------------------------------

def test_pack_matchings_first_fit_reads_the_pool_lazily():
    # A star's edges seed: class j opens with the j-th of them.  Class 2
    # passes over edge 4, which meets its seed, and class 3 takes it.
    # Edges 6 and 7 are never read.
    g = build_graph(9, [(1, 2), (1, 3), (1, 4), (5, 6), (3, 8), (5, 7),
                        (6, 8), (2, 9)])
    pool = iter(range(3, 8))
    out = pack_matchings(g, [0, 1, 2], pool, 3, 2)
    assert out.classes == ((0, 3), (1, 5), (2, 4))
    assert list(pool) == [6, 7]
    assert pack_matchings(g, [], [], 0, 3).classes == ()


def test_pack_matchings_repairs_a_stalled_class():
    # First fit gives class 1 edges 0 and 1, then finds nothing disjoint
    # from both; the exact search keeps edge 0 and finds 2 and 3.
    g = build_graph(6, [(1, 2), (3, 4), (3, 5), (4, 6)])
    assert pack_matchings(g, [], range(4), 1, 3).classes == ((0, 2, 3),)
    # Class 2 stalls the same way, on the edges class 1 left, and edge
    # 4, which its exact search leaves, is all class 3 would get.
    g = build_graph(6, [(1, 2), (3, 4), (5, 6), (1, 3), (2, 4), (2, 5),
                        (4, 6)])
    assert pack_matchings(g, [], range(7), 2, 3).classes == (
        (0, 1, 2), (3, 5, 6))
    with pytest.raises(ProofViolation, match="for class 3 of 3"):
        pack_matchings(g, [], range(7), 3, 3)
    # A class opened by a seed (0 and 1 share vertex 1): its exact
    # search keeps edge 0 and finds 3 and 4, and class 2, opened by edge
    # 1, has only edge 2 left.
    g = build_graph(7, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 7)])
    assert pack_matchings(g, [0, 1], range(2, 5), 1, 3).classes == (
        (0, 3, 4),)
    with pytest.raises(ProofViolation, match="for class 2 of 2"):
        pack_matchings(g, [0, 1], range(2, 5), 2, 3)


def test_pack_matchings_raises_when_no_class_exists():
    # A star holds no two disjoint edges.
    g = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    for seeds, pool in (([], range(3)), ([0, 1, 2], [])):
        with pytest.raises(ProofViolation,
                           match="no 2 pairwise disjoint unused pool edges "
                                 "for class 1 of 1"):
            pack_matchings(g, seeds, pool, 1, 2)
    with pytest.raises(ProofViolation, match="for class 1 of 1"):
        pack_matchings(g, [], [], 1, 1)


def reference_pack(g: Graph, pool, count: int, size: int) -> EdgeColouring:
    """``pack_matchings`` as it was before each edge's ends were unpacked
    once, a class that passed over nothing stopped refiltering the unused
    list and the caller passed the seeds apart from the pool, kept
    verbatim as its reference: it takes the seeds at the head of the
    pool and finds them by their shared vertex."""
    edges = g.edges
    fresh = iter(pool)
    lead, unused = list(islice(fresh, 2)), []
    shared = (set(edges[lead[0]]).intersection(edges[lead[1]])
              if len(lead) == 2 else None)
    if shared:
        (centre,) = shared
        for e in fresh:
            if centre not in edges[e]:
                unused.append(e)
                break
            lead.append(e)
    else:
        lead, unused = [], lead
    classes = []
    for j in range(1, count + 1):
        opener = lead[j - 1:j]
        cls: list[int] = []
        held: set[int] = set()
        read: list[int] = []
        for e in chain(opener, unused, fresh):
            read.append(e)
            ends = edges[e]
            if held.isdisjoint(ends):
                cls.append(e)
                held.update(ends)
                if len(cls) == size:
                    break
        if len(cls) < size:
            # The pool is read to its end, so ``read`` is the class's
            # first edge, then every unused edge that can join it, in
            # pool order (the rest of the lead meets the first edge).
            cls = _exact_class(edges, read, size)
            if cls is None:
                raise ProofViolation(
                    f"no {size} pairwise disjoint unused pool edges "
                    f"for class {j} of {count}")
        unused = (list(filterfalse(set(cls).__contains__, read))
                  + unused[len(read) - len(opener):])
        classes.append(tuple(cls))
    return EdgeColouring(g, tuple(classes))


def ref_first_fit(g: Graph, pool: list[int], count: int, size: int):
    """First fit, the slow obvious way: each class scans what is left of
    the whole pool in order.  None if a class does not fill."""
    left, classes = list(pool), []
    for _ in range(count):
        cls, held = [], set()
        for e in left:
            if len(cls) < size and not held & set(g.edges[e]):
                cls.append(e)
                held |= set(g.edges[e])
        if len(cls) < size:
            return None
        left = [e for e in left if e not in cls]
        classes.append(tuple(cls))
    return tuple(classes)


@st.composite
def packing_cases(draw):
    """(graph, star, rest, count, size): the star is some of one
    vertex's edges, the seeds; the rest is a random part of the others
    in random order, the pool."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(draw(st.integers(2, 12)), draw(st.floats(0.1, 0.9)),
                     rng)
    v = rng.randint(1, g.n)
    star = list(g.incident[v])
    rng.shuffle(star)
    star = star[:draw(st.integers(0, len(star)))]
    keep = draw(st.floats(0.2, 1.0))
    rest = [e for e in range(g.m) if v not in g.edges[e] and rng.random() < keep]
    rng.shuffle(rest)
    return g, star, rest, draw(st.integers(0, 6)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(packing_cases())
def test_pack_matchings_packs_disjoint_matchings(case):
    g, star, rest, count, size = case
    pool = star + rest
    ref = ref_first_fit(g, pool, count, size)
    try:
        out = pack_matchings(g, star, iter(rest), count, size).classes
    except ProofViolation as exc:
        assert ref is None
        j = int(re.search(r"for class (\d+) of", str(exc)).group(1))
        assert 1 <= j <= count
        if j == 1 and pool:  # no size-matching holds the first edge
            first = set(g.edges[pool[0]])
            assert not any(
                brute_proper(g, [c]) and not first & {
                    v for e in c for v in g.edges[e]}
                for c in combinations(pool[1:], size - 1))
        return
    if ref is not None:  # first fit never stalled
        assert out == ref
    assert [len(c) for c in out] == [size] * count
    assert brute_proper(g, out)
    used = [e for c in out for e in c]
    assert len(set(used)) == len(used) and set(used) <= set(pool)
    for cls, seed in zip(out, star):
        assert cls[0] == seed


def _pack_outcome(packer, g, pool, count, size, *seeds):
    """The classes or the raise's message, then what is left of the
    pool's iterator."""
    fresh = iter(pool)
    try:
        out = packer(g, *seeds, fresh, count, size).classes
    except ProofViolation as exc:
        out = str(exc)
    return out, list(fresh)


# The deterministic packer tests' graphs: a seed star with a passed-over
# edge, taken with fewer classes than seeds too, a stalled class, a
# class stalled after a passed-over one, a stall on a class that a seed
# opens, and one seed whose far end the first pool edges share (the
# reference finds its seeds by the shared vertex, so it takes those
# pool edges for seeds too).
_STAR = build_graph(9, [(1, 2), (1, 3), (1, 4), (5, 6), (3, 8), (5, 7),
                        (6, 8), (2, 9)])
_STALL = build_graph(6, [(1, 2), (3, 4), (3, 5), (4, 6)])
_STALL2 = build_graph(6, [(1, 2), (3, 4), (5, 6), (1, 3), (2, 4), (2, 5),
                          (4, 6)])
_SEED_STALL = build_graph(7, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 7)])
_FAR_END = build_graph(7, [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7),
                           (3, 6)])


@settings(max_examples=300, deadline=None)
@given(packing_cases())
@example((_STAR, [0, 1, 2], list(range(3, 8)), 3, 2))
@example((_STAR, [0, 1, 2], list(range(3, 8)), 2, 2))
@example((_STALL, [], list(range(4)), 1, 3))
@example((_STALL2, [], list(range(7)), 3, 3))
@example((_SEED_STALL, [0, 1], list(range(2, 5)), 2, 3))
@example((_FAR_END, [0], list(range(1, 7)), 3, 2))
def test_pack_matchings_matches_the_reference(case):
    # Against the packer as it was, which took the seeds at the head of
    # its pool: the same classes or the same raise, and the seeded
    # packer leaves unread at least the pool edges the reference left.
    g, star, rest, count, size = case
    out, left = _pack_outcome(pack_matchings, g, rest, count, size, star)
    ref, ref_left = _pack_outcome(reference_pack, g, star + rest, count,
                                  size)
    assert out == ref
    assert len(left) >= len(ref_left)
    assert left[len(left) - len(ref_left):] == ref_left


# -- the colourings against the ones they replaced ------------------------
#
# ``RefPalette``, ``ref_koenig_colour``, ``ref_vizing_colour`` and
# ``ref_mg_colour_edge`` are the dict-based implementations the colour
# rows replaced, kept verbatim as the reference with their degree helper
# ``ref_subset_degrees`` and the graph-search bipartiteness check
# ``ref_check_bipartite`` that ``koenig_colour``'s one-pass side check
# replaced.  ``ref_mg_colour_edge`` has since taken the same change of
# algorithm as ``_mg_colour_edge``: an edge whose ends share x's first
# free colour takes it with no fan.  On any edge subset the rows must
# give identical classes, or raise the same exception class with the
# same message; an odd cycle raises ``NotBipartite`` in both, each with
# its own message.

def ref_check_bipartite(g: Graph, edge_ids) -> dict[int, int]:
    """The subset's 2-colouring by graph search: vertex -> 0/1."""
    side: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        a, b = g.edges[e]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    raise NotBipartite(f"odd cycle through vertex {y}")
    return side


def ref_subset_degrees(g: Graph, edge_ids) -> dict[int, int]:
    deg: dict[int, int] = {}
    for e in edge_ids:
        for v in g.edges[e]:
            deg[v] = deg.get(v, 0) + 1
    return deg


class RefPalette:
    """Mutable colour bookkeeping shared by the two colouring algorithms."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.at: dict[int, dict[int, int]] = {}  # vertex -> colour -> edge
        self.colour_of: dict[int, int] = {}

    def is_free(self, v: int, c: int) -> bool:
        return c not in self.at.get(v, {})

    def first_free(self, v: int) -> int:
        c = next(filterfalse(self.at.get(v, {}).__contains__,
                             range(self.k)), None)
        if c is None:
            raise DegreeExceedsColours(f"no free colour at vertex {v}")
        return c

    def assign(self, e: int, c: int) -> None:
        for v in self.g.edges[e]:
            self.at.setdefault(v, {})[c] = e
        self.colour_of[e] = c

    def unassign(self, e: int) -> None:
        c = self.colour_of.pop(e)
        for v in self.g.edges[e]:
            del self.at[v][c]

    def flip_path(self, start: int, first: int, second: int) -> int:
        """Swap colours first/second along the maximal alternating path
        from ``start`` beginning with a ``first``-coloured edge.  Returns
        the far endpoint of the path."""
        path: list[int] = []
        cur, col = start, first
        while not self.is_free(cur, col):
            e = self.at[cur][col]
            path.append(e)
            cur = self.g.other_end(e, cur)
            col = second if col == first else first
        flipped = {e: (second if self.colour_of[e] == first else first)
                   for e in path}
        for e in path:
            self.unassign(e)
        for e, c in flipped.items():
            self.assign(e, c)
        return cur

    def to_classes(self) -> tuple[tuple[int, ...], ...]:
        """The non-empty colour classes, each sorted, in colour order."""
        buckets: list[list[int]] = [[] for _ in range(self.k)]
        for e, c in self.colour_of.items():
            buckets[c].append(e)
        return tuple(tuple(sorted(b)) for b in buckets if b)


def ref_koenig_colour(g: Graph, edge_ids, k: int) -> EdgeColouring:
    """Proper k-colouring of a bipartite edge subset with max degree <= k.

    Incremental insertion: colour each edge with a colour free at both
    ends, recolouring one alternating path when no common free colour
    exists.  In a bipartite graph the path never returns to the other
    endpoint, so the recolouring always frees a shared colour.
    """
    edge_ids = sorted(edge_ids)
    deg = ref_subset_degrees(g, edge_ids)
    if any(d > k for d in deg.values()):
        worst = max(deg, key=lambda v: deg[v])
        raise DegreeExceedsColours(
            f"vertex {worst} has degree {deg[worst]} > {k} colours")
    ref_check_bipartite(g, edge_ids)

    pal = RefPalette(g, k)
    for e in edge_ids:
        u, v = g.edges[e]
        used_u = pal.at.get(u, {})
        used_v = pal.at.get(v, {})
        common = next((c for c in range(k)
                       if c not in used_u and c not in used_v), None)
        if common is not None:
            pal.assign(e, common)
            continue
        alpha = pal.first_free(u)
        beta = pal.first_free(v)
        pal.flip_path(v, alpha, beta)
        if not (pal.is_free(u, alpha) and pal.is_free(v, alpha)):
            raise ProofViolation(f"Koenig path flip left edge {e} no colour")
        pal.assign(e, alpha)
    return EdgeColouring(g, pal.to_classes())


def ref_vizing_colour(g: Graph, edge_ids) -> EdgeColouring:
    """Proper colouring of any simple edge subset with <= Delta + 1 colours
    (Misra-Gries fan rotation scheme)."""
    edge_ids = sorted(edge_ids)
    if not edge_ids:
        return EdgeColouring(g, ())
    deg = ref_subset_degrees(g, edge_ids)
    k = max(deg.values()) + 1
    pal = RefPalette(g, k)
    for eid in edge_ids:
        a, b = g.edges[eid]
        x, f = (a, b) if a < b else (b, a)
        ref_mg_colour_edge(g, pal, x, f, eid)
    return EdgeColouring(g, pal.to_classes())


def ref_mg_colour_edge(g: Graph, pal: RefPalette, x: int, f: int,
                    eid: int) -> None:
    c = pal.first_free(x)
    if pal.is_free(f, c):  # x's first free colour is free at f too: no fan
        pal.assign(eid, c)
        return

    # Maximal fan of x starting at f: each next fan edge is the smallest
    # coloured edge at x, not yet in the fan, whose colour is free at the
    # previous fan vertex.  The graph is simple, so the far ends differ.
    at_x = pal.at.get(x, {})
    cands = sorted(at_x, key=at_x.__getitem__)  # colours, by edge id
    fan_v = [f]
    fan_e = [eid]
    while True:
        c2 = next(filterfalse(pal.at.get(fan_v[-1], {}).__contains__, cands),
                  None)
        if c2 is None:
            break
        cands.remove(c2)
        fan_e.append(at_x[c2])
        fan_v.append(g.other_end(at_x[c2], x))

    d = pal.first_free(fan_v[-1])
    if not pal.is_free(x, d):
        pal.flip_path(x, d, c)
        if not pal.is_free(x, d):
            raise ProofViolation(f"Misra-Gries path flip left colour {d} "
                                 f"used at vertex {x}")

    # First fan prefix whose tip has d free; the Misra-Gries lemma
    # guarantees one survives the path inversion.
    j = None
    for idx, w in enumerate(fan_v):
        if idx > 0:
            col = pal.colour_of.get(fan_e[idx])
            if col is None or not pal.is_free(fan_v[idx - 1], col):
                break
        if pal.is_free(w, d):
            j = idx
            break
    if j is None:
        raise ProofViolation("Misra-Gries fan rotation found no valid prefix")

    shifted = [pal.colour_of[fan_e[i]] for i in range(1, j + 1)]
    for i in range(1, j + 1):
        pal.unassign(fan_e[i])
    for i in range(j):
        pal.assign(fan_e[i], shifted[i])
    pal.assign(fan_e[j], d)


@st.composite
def vizing_subsets(draw):
    """(graph, edge ids): a random edge subset, in shuffled order, of a
    random graph on at most 14 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(draw(st.integers(1, 14)), draw(st.floats(0.1, 1.0)),
                     rng)
    keep = draw(st.floats(0.1, 1.0))
    subset = [e for e in range(g.m) if rng.random() < keep]
    rng.shuffle(subset)
    return g, subset


@st.composite
def koenig_subsets(draw):
    """(graph, edge ids, k) on at most 14 vertices: a bipartite subset
    (edges across a random split), a subset holding an odd cycle, or a
    subset of any graph; k is the subset's maximum degree, one or two
    below it (so some vertex has too many edges) or one above."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(3, 14))
    p, keep = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    shape = draw(st.sampled_from(["bipartite", "odd_cycle", "any"]))
    if shape == "bipartite":
        side = [rng.randrange(2) for _ in range(n + 1)]
        pairs = [(a, b) for a, b in pairs if side[a] != side[b]]
    kept = [ab for ab in pairs if rng.random() < p]
    cycle = []
    if shape == "odd_cycle":
        ring = rng.sample(range(1, n + 1), 2 * rng.randint(1, (n - 1) // 2)
                          + 1)
        cycle = [tuple(sorted((ring[i], ring[i - 1])))
                 for i in range(len(ring))]
        kept = [ab for ab in kept if ab not in cycle]
    g = build_graph(n, cycle + kept)
    subset = list(range(len(cycle))) + [
        e for e in range(len(cycle), g.m) if rng.random() < keep]
    rng.shuffle(subset)
    degree = max((sum(v in g.edges[e] for e in subset)
                  for v in range(1, n + 1)), default=0)
    return g, subset, max(0, degree + draw(st.integers(-2, 1)))


@settings(max_examples=300, deadline=None)
@given(vizing_subsets())
def test_vizing_matches_reference(case):
    g, subset = case
    out = _outcome(vizing_colour, g, subset)
    assert out == _outcome(ref_vizing_colour, g, subset)
    assert out[0] == "classes" and brute_proper(g, out[1])


@settings(max_examples=300, deadline=None)
@given(koenig_subsets())
def test_koenig_matches_reference(case):
    g, subset, k = case
    ref = _outcome(ref_koenig_colour, g, subset, k)
    try:
        side = [v for v, s in ref_check_bipartite(g, subset).items() if s]
    except NotBipartite:
        side = []  # no side splits an odd cycle
    out = _outcome(koenig_colour, g, subset, k, side)
    if ref[:2] == ("raised", NotBipartite):
        assert out[:2] == ref[:2]
    else:
        assert out == ref
    if out[0] == "classes":
        assert len(out[1]) <= k and brute_proper(g, out[1])
