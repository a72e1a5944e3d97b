import random
from collections import Counter
from itertools import combinations, compress, filterfalse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    Regime,
    build_graph,
    decompose,
    gen_instance,
    label,
    label_case_i1,
    label_case_i2,
    label_case_i3,
    label_delta_n1,
    label_disconnected,
    label_main,
    verify_antimagic,
    verify_stage_properties,
)
import antimagic.construction as construction
from antimagic.construction import clash_free_shift
from antimagic.errors import (
    HypothesisViolated,
    NotAntimagicShape,
    NotUniversalVertex,
    ProofViolation,
    check,
)
from antimagic.graph import STEP, degenerate_index, stage_regime
from antimagic.resolution import y_end
from antimagic.verification import recompute_sums, verify_bijection
from conftest import random_universal_graph


def u_labels(g, lab, u, h_set):
    return sorted(lab.label_of[e] for e in g.incident[u]
                  if g.other_end(e, u) in h_set)


# -- universal vertex (max degree n - 1) ---------------------------------

def test_delta_n1_triangle_sums():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    lab = label_delta_n1(g, 1)
    sums = recompute_sums(g, lab)
    assert sorted(sums[1:]) == [3, 4, 5]


def test_delta_n1_star():
    g = build_graph(5, [(1, v) for v in range(2, 6)])
    lab = label_delta_n1(g, 1)
    sums = recompute_sums(g, lab)
    assert sorted(sums[2:]) == [1, 2, 3, 4]
    assert sums[1] == 10


def test_delta_n1_requires_universal_vertex():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotUniversalVertex):
        label_delta_n1(g, 1)


def test_delta_n1_rejects_single_edge():
    with pytest.raises(NotAntimagicShape):
        label_delta_n1(build_graph(2, [(1, 2)]), 1)


def test_delta_n1_random_instances_verified():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 7)
        g = random_universal_graph(n, rng)
        lab = label_delta_n1(g, 1)
        assert verify_antimagic(g, lab).ok


# -- triple-edge pre-labelling -------------------------------------------

def test_triple_edges_clique_order():
    g = gen_instance(21, "main_triple", seed=6)
    d = decompose(g)
    u1, u2, u3 = d.u
    assert d.triple_edges == ((u1, u2), (u1, u3), (u2, u3))
    label_of, given = construction._begin(g, d, stage_regime(d))
    assert given == [1, 2, 3]
    def lbl(a, b):
        eid = next(e for e in g.incident[a] if g.other_end(e, a) == b)
        return label_of[eid]
    assert lbl(u2, u3) == 1
    assert lbl(u1, u3) == 2
    assert lbl(u1, u2) == 3


def test_triple_edges_independent_noop():
    g = gen_instance(20, "main", seed=3)
    d = decompose(g)
    label_of, given = construction._begin(g, d, stage_regime(d))
    assert given == [] and not any(label_of)


def test_triple_edges_single_pair():
    g = gen_instance(21, "main_triple", seed=1)
    d = decompose(g)
    u1, u2 = d.u[0], d.u[1]
    assert d.triple_edges == ((u1, u2),)
    label_of, given = construction._begin(g, d, stage_regime(d))
    assert given == [1] and sum(label_of) == 1
    eid = next(e for e in g.incident[u1] if g.other_end(e, u1) == u2)
    assert label_of[eid] == 1


# -- main regime -----------------------------------------------------------

MAIN_STAGES = [("main", 19, 21), ("main", 24, 31), ("main_triple", 20, 41),
               ("main_triple", 26, 55)]
CONSTRUCTORS = {"main": label_main, "main_triple": label_main,
                "degen_i1": label_case_i1, "degen_i2": label_case_i2,
                "degen_i3": label_case_i3}


@pytest.fixture(scope="module", params=MAIN_STAGES)
def main_stage(request):
    target, n, seed = request.param
    g = gen_instance(n, target, seed=seed)
    d = decompose(g)
    return g, d, CONSTRUCTORS[target](g, d)


@pytest.mark.parametrize("main_stage", MAIN_STAGES + [
    ("degen_i1", 20, 1), ("degen_i2", 20, 1), ("degen_i3", 19, 1)],
    indirect=True)
def test_main_is_bijection_with_reserved_block(main_stage):
    g, d, stage = main_stage
    lab = stage.labelling
    n, m, step = g.n, g.m, STEP[stage.regime]
    assert sorted(lab.label_of) == list(range(1, m + 1))
    # The root labels open the blocks k = 0 .. n - 5 (in i = 2 they sit
    # one below), and no interval label sits on a root edge.
    shift = 1 if stage.regime == Regime.DEGEN_I2 else 0
    assert sorted(lab.label_of[e] for e in g.incident[d.r]) == [
        m - step * k - shift for k in range(n - 5, -1, -1)]
    if stage.regime in (Regime.MAIN, Regime.DEGEN_I3):
        for lbl in range(m - step * (n - 5) + 1, m):
            if (m - lbl) % step:
                assert d.r not in g.edges[lab.label_of.index(lbl)]


def test_main_stage_properties(main_stage):
    g, d, stage = main_stage
    rep = verify_stage_properties(stage.labelling, stage.regime, d)
    assert rep.ok, rep.failures
    sums = recompute_sums(g, stage.labelling)
    u1, u2, u3 = d.u
    assert sums[u3] + 4 <= sums[u2]
    assert sums[u2] + 4 <= sums[u1]
    assert all(sums[d.r] >= sums[x] + 4
               for x in range(1, g.n + 1) if x != d.r)


def test_main_interval_discipline_recomputed(main_stage):
    g, d, stage = main_stage
    m, n = g.m, g.n
    lab = stage.labelling
    for j in range(1, n - 4):
        block = {m - 4 * (j - 1) - k for k in (1, 2, 3)}
        for v in range(1, n + 1):
            if v == d.r:
                continue
            hits = sum(1 for e in g.incident[v] if lab.label_of[e] in block)
            assert hits <= 1


def test_main_h_sums_spaced_by_four(main_stage):
    g, d, stage = main_stage
    sums = recompute_sums(g, stage.labelling)
    ordered = sorted(sums[v] for v in d.h_vertices)
    assert all(b - a >= 4 for a, b in zip(ordered, ordered[1:]))


def test_main_offset_maps(main_stage):
    g, d, stage = main_stage
    # The y vertices lie in H, and those of one interval are distinct.
    lab = stage.labelling
    assert {y_end(lab, d, i) for i in range(g.m)} - {None} <= d.h_set
    for j in range(1, d.d_prime[2] + 1):
        ys = {y_end(lab, d, 4 * (j - 1) + k) for k in (1, 2, 3)}
        assert len(ys) == 3 and None not in ys


def test_main_u1_on_all_of_h_leaves_one_surplus_edge_small():
    # d'(u1) = n - 4 (the generator stops at n - 6): u1 has one surplus
    # edge more than there are intervals I_{t+1} .. I_{n-5}.  Each
    # interval takes one of them at its top, and the last takes a small
    # label.
    n, r, (u1, u2, u3) = 24, 1, (2, 3, 4)
    h = list(range(5, n + 1))
    pairs = ([(r, v) for v in h] + [(u1, v) for v in h]
             + [(u2, v) for v in h[:8]] + [(u3, v) for v in h[8:16]])
    degree = Counter(v for pair in pairs for v in pair)
    for a, b in combinations(h, 2):
        if len(pairs) < 7 * n and degree[a] < n - 4 and degree[b] < n - 4:
            pairs.append((a, b))
            degree.update((a, b))
    g = build_graph(n, pairs)
    d = decompose(g)
    assert (d.r, d.u, d.d_prime) == (r, (u1, u2, u3), (n - 4, 8, 8))
    stage = label_main(g, d)
    assert verify_stage_properties(stage.labelling, stage.regime, d).ok
    m, t = g.m, d.d_prime[2]
    lab = stage.labelling
    tops = [m - 4 * (j - 1) - 1 for j in range(t + 1, n - 4)]
    assert all(u1 in g.edges[lab.label_of.index(top)] for top in tops)
    u1_labels = sorted(lab.label_of[e] for e in g.incident[u1])
    assert u1_labels[0] < m - 4 * (n - 5)


# Each constructor with a generator target outside its regime.
GATED = {
    "label_main": (label_main, "degen_i2"),
    "label_case_i1": (label_case_i1, "main"),
    "label_case_i2": (label_case_i2, "main"),
    "label_case_i3": (label_case_i3, "main"),
    # Both disconnected families go through label_disconnected; each is
    # gated on a connected main-regime instance of its own shape.
    "label_disconnected_u3": (label_disconnected, "main"),
    "label_disconnected_triple": (label_disconnected, "main_triple"),
}


@pytest.mark.parametrize("graph", ["wrong_regime", "below_7n"])
@pytest.mark.parametrize("name", list(GATED))
def test_constructors_gate_hypotheses(name, graph):
    build, wrong = GATED[name]
    if graph == "wrong_regime":
        g = gen_instance(20, wrong, seed=2)
    else:
        # r = 1 has degree n - 4 and u1, u2, u3 = 2, 3, 4 are isolated.
        g = build_graph(8, [(1, 5), (1, 6), (1, 7), (1, 8),
                            (5, 6), (5, 7), (5, 8)])
        assert g.m < 7 * g.n
    d = decompose(g)
    with pytest.raises(HypothesisViolated):
        build(g, d)


@pytest.mark.parametrize("excess", [-1, 0])
def test_main_gate_admits_m_from_exactly_7n(excess):
    # gen_instance(24, "main", seed=1) has m = 208 > 7n = 168.  Dropping
    # its last H-H edges keeps r, the u-triple and d', and so the regime,
    # and leaves m = 7n - 1, one short of the bound, or m = 7n.
    g = gen_instance(24, "main", seed=1)
    d = decompose(g)
    n = g.n
    hh = [e for e in range(g.m) if d.h_set.issuperset(g.edges[e])]
    drop = set(hh[len(hh) - (g.m - 7 * n - excess):])
    g = build_graph(n, [ab for e, ab in enumerate(g.edges) if e not in drop])
    trimmed = decompose(g)
    assert g.m == 7 * n + excess
    assert (trimmed.r, trimmed.u, trimmed.d_prime) == (d.r, d.u, d.d_prime)
    if excess < 0:
        with pytest.raises(HypothesisViolated) as info:
            label_main(g, trimmed)
        assert str(info.value) == f"m = {7 * n - 1} < 7n = {7 * n}"
    else:
        stage = label_main(g, trimmed)
        assert verify_stage_properties(stage.labelling, stage.regime,
                                       trimmed).ok


# -- degenerate case i = 1 --------------------------------------------------

def test_i1_figure_label_sets():
    # Clique triple with d' = (3, 3, 2): after labels 1..3 on the triple,
    # u3's H-edges take 4..5, u2's 6..8, u1's 9..11.
    g = gen_instance(20, "degen_i1", seed=517)
    d = decompose(g)
    u1, u2, u3 = d.u
    assert d.d_prime == (3, 3, 2)
    assert d.triple_edges == ((u1, u2), (u1, u3), (u2, u3))
    stage = label_case_i1(g, d)
    lab = stage.labelling
    assert u_labels(g, lab, u3, d.h_set) == [4, 5]
    assert u_labels(g, lab, u2, d.h_set) == [6, 7, 8]
    assert u_labels(g, lab, u1, d.h_set) == [9, 10, 11]


def test_i1_paper_bounds_and_antimagic():
    for seed in (1, 2, 3, 4, 5):
        g = gen_instance(20 + seed % 3, "degen_i1", seed=seed)
        d = decompose(g)
        stage = label_case_i1(g, d)
        sums = recompute_sums(g, stage.labelling)
        assert sums[d.u[0]] <= 38
        assert min(sums[v] for v in d.h_vertices) >= 101
        assert verify_antimagic(g, stage.labelling).ok


# -- degenerate case i = 2 --------------------------------------------------

def test_i2_reserved_sets_disjoint_and_large():
    g = gen_instance(21, "degen_i2", seed=4)
    d = decompose(g)
    stage = label_case_i2(g, d)
    g_, lab = g, stage.labelling
    n, m = g.n, g.m
    r_labels = {lab.label_of[e] for e in d.e1}
    u1_labels = set(u_labels(g, lab, d.u[0], d.h_set))
    assert len(r_labels) == n - 4
    assert len(u1_labels) == d.d_prime[0]
    assert not r_labels & u1_labels
    small = set(range(1, m - 2 * (n - 5) - 2))
    assert not (r_labels | u1_labels) & small


def test_i2_paper_bounds():
    for seed in (1, 2, 3, 4, 5, 6):
        g = gen_instance(20 + seed % 4, "degen_i2", seed=seed)
        d = decompose(g)
        stage = label_case_i2(g, d)
        sums = recompute_sums(g, stage.labelling)
        n, m = g.n, g.m
        min_h = min(sums[v] for v in d.h_vertices)
        assert min_h >= m - 2 * (n - 5) - 1 >= 5 * n + 9 >= 89
        assert sums[d.u[2]] < sums[d.u[1]] < 30
        assert sums[d.u[0]] >= sums[d.u[1]] + 4
        h_sums = sorted(sums[v] for v in d.h_vertices)
        assert all(b - a >= 2 for a, b in zip(h_sums, h_sums[1:]))


# -- degenerate case i = 3 --------------------------------------------------

def test_i3_root_label_arithmetic():
    g = gen_instance(20, "degen_i3", seed=6)
    d = decompose(g)
    stage = label_case_i3(g, d)
    lab = stage.labelling
    m = g.m
    for k in range(4):
        assert d.r in g.edges[lab.label_of.index(m - 3 * k)]
        assert d.u[0] in g.edges[lab.label_of.index(m - 1 - 3 * k)]
        assert d.u[1] in g.edges[lab.label_of.index(m - 2 - 3 * k)]


def test_i3_paper_bounds():
    for seed in (1, 2, 3, 4, 5, 6):
        g = gen_instance(19 + seed % 5, "degen_i3", seed=seed)
        d = decompose(g)
        stage = label_case_i3(g, d)
        sums = recompute_sums(g, stage.labelling)
        assert sums[d.u[2]] <= 18
        assert sums[d.r] >= sums[d.u[0]] + 4 >= sums[d.u[1]] + 8
        h_sums = sorted(sums[v] for v in d.h_vertices)
        assert all(b - a >= 3 for a, b in zip(h_sums, h_sums[1:]))


def test_i3_two_label_interval_discipline():
    g = gen_instance(22, "degen_i3", seed=9)
    d = decompose(g)
    stage = label_case_i3(g, d)
    lab = stage.labelling
    m, n = g.m, g.n
    for k in range(n - 5):
        block = {m - 3 * k - 1, m - 3 * k - 2}
        for v in range(1, n + 1):
            if v == d.r:
                continue
            hits = sum(1 for e in g.incident[v] if lab.label_of[e] in block)
            assert hits <= 1


def _clashes(a, b, s):
    return any(a[(k + s) % len(a)] == x for k, x in enumerate(b))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clash_free_shift_is_the_smallest_allowed(data):
    # u1's and u2's H ends: d'(u1) >= 4 sorted distinct vertices and at
    # most as many for u2, drawn from few vertices so that most overlap.
    d1 = data.draw(st.integers(4, 9), label="d1")
    ends = st.integers(1, d1 + 3)
    a = sorted(data.draw(st.sets(ends, min_size=d1, max_size=d1), label="a"))
    d2 = data.draw(st.integers(0, d1), label="d2")
    b = sorted(data.draw(st.sets(ends, min_size=d2, max_size=d2), label="b"))
    s = clash_free_shift(a, b)
    assert 0 <= s < d1 and not _clashes(a, b, s)
    assert all(_clashes(a, b, t) for t in range(s))


def test_clash_free_shift_pins():
    # a = b: every common end forbids shift 0 only.
    assert clash_free_shift([3, 5, 8, 9], [3, 5, 8, 9]) == 1
    # Ends 1, 3, 5, 2 forbid shifts 0, 1, 2, 3: only the last is left.
    assert clash_free_shift([1, 2, 3, 4, 5], [1, 3, 5, 2]) == 4
    # No common end: nothing is forbidden.
    assert clash_free_shift([1, 2, 3, 4], [5, 6, 7, 8]) == 0


def test_i3_pairs_u_edges_by_the_shift():
    # d' = (11, 10, 3); u1's and u2's first H ends are both 5, so shift
    # 0 is forbidden and the shift is 3.  Interval k pairs u1's end
    # a[(k + 3) % 11] with u2's end b[k].
    g = gen_instance(19, "degen_i3", seed=1)
    d = decompose(g)
    lab = label_case_i3(g, d).labelling
    u1, u2 = d.u[:2]
    a = sorted(g.adjacency[u1].keys() & d.h_set)
    b = sorted(g.adjacency[u2].keys() & d.h_set)
    assert (len(a), len(b), clash_free_shift(a, b)) == (11, 10, 3)
    m = g.m
    for k in range(len(a)):
        assert lab.label_of.index(m - 1 - 3 * k) == \
            g.adjacency[u1][a[(k + 3) % 11]]
    for k in range(len(b)):
        assert lab.label_of.index(m - 2 - 3 * k) == g.adjacency[u2][b[k]]


# -- disconnected families ---------------------------------------------------

def test_disconnected_rejects_two_isolated_vertices():
    g = build_graph(8, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    # Vertices 5..8 are isolated, and no decomposition is needed to see
    # the shape is hopeless: the guard fires before any labelling.
    with pytest.raises(NotAntimagicShape):
        label(g)


def test_disc_triple_k3_sums_below_everything():
    g = gen_instance(22, "disc_triple", seed=7)
    d = decompose(g)
    assert len(d.triple_edges) == 3
    stage = label_disconnected(g, d)
    sums = recompute_sums(g, stage.labelling)
    triple_sums = sorted(sums[u] for u in d.u)
    assert triple_sums == [3, 4, 5]
    rest = [sums[v] for v in d.h_vertices] + [sums[d.r]]
    assert min(rest) > 5
    assert verify_antimagic(g, stage.labelling).ok


def test_disc_triple_p3_sums():
    g = gen_instance(21, "disc_triple", seed=1)
    d = decompose(g)
    assert len(d.triple_edges) == 2
    stage = label_disconnected(g, d)
    sums = recompute_sums(g, stage.labelling)
    assert sorted(sums[u] for u in d.u) == [1, 2, 3]
    assert verify_antimagic(g, stage.labelling).ok


def test_disc_u3_isolated_runs_degenerate_machinery():
    g = gen_instance(20, "disc_u3_isolated", seed=4)
    d = decompose(g)
    assert g.degree(d.u[2]) == 0
    stage = label_disconnected(g, d)
    assert stage.regime == Regime.DEGEN_I3
    sums = recompute_sums(g, stage.labelling)
    assert sums[d.u[2]] == 0


@pytest.mark.parametrize("target", ["disc_triple", "disc_u3_isolated"])
def test_disconnected_stage_is_its_degenerate_regime(target):
    # Both families are labelled by the degenerate constructor for their
    # index, so the stage carries that regime and is checked against its
    # bounds; the outcome keeps the family's own name.
    from antimagic.generator import TARGETS, min_feasible_n
    for seed in range(1, 6):
        g = gen_instance(min_feasible_n(target) + seed % 3, target, seed=seed)
        out = label(g, seed=seed)
        i = degenerate_index(out.decomposition)
        assert out.regime == TARGETS[target]
        assert out.stage.regime == Regime(f"DEGEN_I{i}")


def test_write_takes_a_batch_and_refuses_a_labelled_edge():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    label_of, given = [0] * g.m, []
    construction._write(label_of, given, [0], [4])
    construction._write(label_of, given, [1, 3, 2], range(1, 4))
    construction._write(label_of, given, [], [])
    assert label_of == [4, 1, 3, 2] and given == [4, 1, 2, 3]
    # With edge 0 holding label 1: that edge again, alone or after
    # another, an edge twice in one batch, and lists of unequal length.
    # Labels are not checked here but in the fill (``FILL_GUARDS``).
    bad = (([0], [2], "edge 0 already labelled"),
           ([1, 0], [2, 3], "edge 0 already labelled"),
           ([1, 1], [2, 3], "edge 1 already labelled"),
           ([1, 2], [2], "2 edges against 1 labels"),
           ([1], [2, 3], "1 edges against 2 labels"))
    for eids, labels, message in bad:
        label_of, given = [1, 0, 0, 0], [1]
        with pytest.raises(ProofViolation, match=message):
            construction._write(label_of, given, eids, labels)


# -- the shared fill -------------------------------------------------------

def reference_fill(g, label_of, r, root_labels):
    """The set-based fill every stage 1 used to end with, kept as the
    reference for ``_fill_rest_and_root``: it finishes the per-edge list
    ``label_of`` in place, each edge taking the label the old batch and
    single writes gave it."""
    roots = set(root_labels)
    root_edge = g.adjacency[r]
    at_root = set(g.incident[r])
    # Ascending: the edges neither at r nor labelled, and the labels
    # neither in root_labels nor given out.
    labelled = compress(range(g.m), label_of)
    rest = list(filterfalse(at_root.union(labelled).__contains__,
                            range(g.m)))
    free = list(filterfalse(roots.union(label_of).__contains__,
                            range(1, g.m + 1)))
    check(len(free) == len(rest) and len(roots) == len(root_edge),
          "label accounting is off", free=len(free), rest=len(rest),
          root_labels=len(roots), root_edges=len(root_edge))
    for e, x in zip(rest, free):
        label_of[e] = x
    sums = recompute_sums(g, label_of)
    order = sorted(root_edge, key=lambda v: (sums[v], v))
    for v, lbl in zip(order, sorted(roots)):
        label_of[root_edge[v]] = lbl


# Two n per generator family that ends in the fill, the first its least.
FILL_CASES = [(t, n) for t, ns in (
    ("main", (19, 23)), ("main_triple", (19, 24)), ("degen_i1", (20, 25)),
    ("degen_i2", (20, 24)), ("degen_i3", (19, 23)),
    ("disc_u3_isolated", (19, 22)), ("disc_triple", (21, 25)),
    ("universal", (6, 13))) for n in ns]


@pytest.mark.parametrize("target,n", FILL_CASES)
def test_fill_matches_the_set_based_reference(monkeypatch, target, n):
    # The labels each constructor hands the fill, finished by both: the
    # same labels, all of 1..m.
    finished = []
    fill = construction._fill_rest_and_root

    def both(g, label_of, given, r, root_labels):
        ref = list(label_of)
        reference_fill(g, ref, r, list(root_labels))
        lab = fill(g, label_of, given, r, root_labels)
        finished.append((lab, ref))
        return lab

    monkeypatch.setattr(construction, "_fill_rest_and_root", both)
    if target == "universal":
        label_delta_n1(random_universal_graph(n, random.Random(n)), 1)
    else:
        g = gen_instance(n, target, seed=n)
        d = decompose(g)
        build = CONSTRUCTORS.get(target, label_disconnected)
        assert build(g, d).labelling is finished[0][0]
    [(lab, ref)] = finished
    assert lab.label_of == ref
    assert sorted(ref) == list(range(1, lab.graph.m + 1))


def _fill_input():
    """A universal vertex r = 1 with four root edges and two edges away
    from r, (2, 3) and (3, 4): the graph, its per-edge labels and the
    labels given, nothing labelled yet, and the two edges' ids."""
    g = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4)])
    return g, [0] * g.m, [], g.adjacency[2][3], g.adjacency[3][4]


def test_fill_gives_small_labels_below_sorted_root_labels():
    g, label_of, given, e23, e34 = _fill_input()
    lab = construction._fill_rest_and_root(g, label_of, given, 1,
                                           [6, 3, 5, 4])
    assert (lab.label_of[e23], lab.label_of[e34]) == (1, 2)
    # Partial sums 0, 1, 3, 2 for 5, 2, 3, 4: labels 3, 4, 6, 5.
    assert [lab.label_of[g.adjacency[1][v]] for v in (2, 3, 4, 5)] == [
        4, 6, 5, 3]
    assert [lab.label_of.index(x) for x in range(1, g.m + 1)] == [
        e23, e34] + [g.adjacency[1][v] for v in (5, 2, 4, 3)]
    # Free labels above the root labels go out after those below them.
    g, label_of, given, e23, e34 = _fill_input()
    lab = construction._fill_rest_and_root(g, label_of, given, 1,
                                           [2, 3, 4, 5])
    assert (lab.label_of[e23], lab.label_of[e34]) == (1, 6)


def test_fill_accepts_labels_one_to_m_only():
    # Label m given to an edge away from r and label 1 as a root label
    # are taken; 0 and m + 1 are refused as either (``FILL_GUARDS``).
    g, label_of, given, e23, e34 = _fill_input()
    construction._write(label_of, given, [e23], [g.m])
    lab = construction._fill_rest_and_root(g, label_of, given, 1,
                                           [1, 2, 3, 4])
    assert (lab.label_of[e23], lab.label_of[e34]) == (g.m, 5)
    assert sorted(lab.label_of) == list(range(1, g.m + 1))


def _give(*pairs):
    """What a constructor writes before the fill, on ``_fill_input``:
    each (edge, label) pair in turn, through the writer."""
    def prepare(g, label_of, given, e23, e34):
        edges = {"e23": e23, "e34": e34, "r4": g.adjacency[1][4]}
        for e, x in pairs:
            construction._write(label_of, given, [edges[e]], [x])
    return prepare


# Every guard of the writer and of the fill, on ``_fill_input``: what
# is written first, the root labels, and the refusal expected.  The
# first seven keep their test ids from before the writer existed.
FILL_GUARDS = [
    # A root edge already labelled.
    (lambda g, label_of, given, e23, e34: construction._write(
        label_of, given, [g.adjacency[1][4]], [1]),
     [3, 4, 5, 6], "root edge 2 is already labelled"),
    # A root label out of range, at either end.
    (None, [0, 4, 5, 6], "root label 0 out of range"),
    (None, [3, 4, 5, 7], "root label 7 out of range"),
    # A root label already given out, by an edge or by the list itself.
    (lambda g, label_of, given, e23, e34: construction._write(
        label_of, given, [e34], [5]),
     [3, 4, 5, 6], "root label 5 out of range or taken"),
    (None, [3, 3, 5, 6], "root label 3 out of range or taken"),
    # Root labels against root edges: one too few, one too many.
    (None, [4, 5, 6], "label accounting is off"),
    (None, [2, 3, 4, 5, 6], "label accounting is off"),
    # An edge labelled twice, refused by the writer.
    (_give(("e23", 1), ("e23", 2)), [3, 4, 5, 6],
     "^edge 4 already labelled$"),
    # A label given to an edge away from r out of range, at either end.
    (_give(("e23", 0)), [3, 4, 5, 6],
     "^reserved or root label 0 out of range or taken$"),
    (_give(("e23", 7)), [2, 3, 4, 5],
     "^reserved or root label 7 out of range or taken$"),
    # One label given to two edges.
    (_give(("e23", 2), ("e34", 2)), [3, 4, 5, 6],
     "^reserved or root label 2 out of range or taken$"),
    # A root label also given to an edge away from r, at the top.
    (_give(("e23", 6)), [3, 4, 5, 6],
     "^reserved or root label 6 out of range or taken$"),
    # A label given to a root edge, refused even when it is no root label.
    (_give(("r4", 2)), [3, 4, 5, 6], "^root edge 2 is already labelled$"),
]


@pytest.mark.parametrize("prepare, root_labels, message", FILL_GUARDS)
def test_fill_guards(prepare, root_labels, message):
    g, label_of, given, e23, e34 = _fill_input()
    with pytest.raises(ProofViolation, match=message):
        if prepare:
            prepare(g, label_of, given, e23, e34)
        construction._fill_rest_and_root(g, label_of, given, 1, root_labels)


def test_fill_refuses_a_label_used_twice():
    # Labels written past the writer: (2, 3) and (3, 4) both hold label
    # 1, given only once.  The batch the fill checks holds no repeat and
    # no edge is left for its one free label, 2, so the fill finishes;
    # the bijection check, run on the finished list, refuses it.
    g, label_of, given, e23, e34 = _fill_input()
    construction._write(label_of, given, [e23], [1])
    label_of[e34] = 1
    lab = construction._fill_rest_and_root(g, label_of, given, 1,
                                           [3, 4, 5, 6])
    assert sorted(lab.label_of) == [1, 1, 3, 4, 5, 6]
    rep = verify_bijection(g, lab)
    assert (rep.ok, rep.duplicated, rep.missing) == (False, (1,), (2,))


def _repeat_before_fill(monkeypatch):
    """Hand the fill labels with the same fault, written past the
    writer: two unlabelled edges away from r both take the smallest
    free label x, and the labels given gain x and the next free label."""
    fill = construction._fill_rest_and_root

    def corrupt(g, label_of, given, r, root_labels):
        e1, e2 = [e for e, x in enumerate(label_of)
                  if not x and r not in g.edges[e]][:2]
        x, y = sorted(set(range(1, g.m + 1)).difference(
            given, root_labels))[:2]
        label_of[e1] = label_of[e2] = x
        given += (x, y)
        return fill(g, label_of, given, r, root_labels)

    monkeypatch.setattr(construction, "_fill_rest_and_root", corrupt)


def test_stage_one_refuses_a_label_used_twice(monkeypatch):
    # The same repeat inside a stage 1 and inside Delta = n - 1: each
    # checks its labels as a bijection before anything else.
    _repeat_before_fill(monkeypatch)
    g = gen_instance(20, "main", seed=1)
    with pytest.raises(ProofViolation,
                       match="stage-1 labelling is not a bijection"):
        label_main(g, decompose(g))
    with pytest.raises(ProofViolation, match="universal-vertex labelling "
                       "is not a bijection"):
        label_delta_n1(random_universal_graph(9, random.Random(9)), 1)
