import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    Labelling,
    Regime,
    build_graph,
    decompose,
    gen_instance,
    label_case_i1,
    label_case_i2,
    label_case_i3,
    label_delta_n1,
    label_disconnected,
    label_main,
    label_triple_edges,
    verify_antimagic,
    verify_stage_properties,
)
from antimagic.construction import clash_free_shift
from antimagic.errors import (
    HypothesisViolated,
    NotAntimagicShape,
    NotUniversalVertex,
    ProofViolation,
)
from antimagic.graph import STEP, degenerate_index
from antimagic.resolution import y_end
from antimagic.verification import recompute_sums
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
    g = gen_instance(21, "main_triple", seed=3,
                     triple=((2, 3), (2, 4), (3, 4)))
    d = decompose(g)
    lab = label_triple_edges(d, Labelling(g))
    u1, u2, u3 = d.u
    def lbl(a, b):
        eid = next(e for e in g.incident[a] if g.other_end(e, a) == b)
        return lab.label_of[eid]
    assert lbl(u2, u3) == 1
    assert lbl(u1, u3) == 2
    assert lbl(u1, u2) == 3


def test_triple_edges_independent_noop():
    g = gen_instance(20, "main", seed=3)
    d = decompose(g)
    lab = label_triple_edges(d, Labelling(g))
    assert lab.assigned == 0


def test_triple_edges_single_pair():
    g = gen_instance(21, "main_triple", seed=5, triple=((2, 3),))
    d = decompose(g)
    lab = label_triple_edges(d, Labelling(g))
    assert lab.assigned == 1
    u1, u2 = d.u[0], d.u[1]
    eid = next(e for e in g.incident[u1] if g.other_end(e, u1) == u2)
    assert lab.label_of[eid] == 1


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
                assert d.r not in g.edges[lab.edge_with[lbl]]


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
    assert all(u1 in g.edges[lab.edge_with[top]] for top in tops)
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


# -- degenerate case i = 1 --------------------------------------------------

def test_i1_figure_label_sets():
    # Clique triple with d' = (3, 3, 2): after labels 1..3 on the triple,
    # u3's H-edges take 4..5, u2's 6..8, u1's 9..11.
    g = gen_instance(20, "degen_i1", seed=1, d_prime=(3, 3, 2),
                     triple=((2, 3), (2, 4), (3, 4)))
    d = decompose(g)
    stage = label_case_i1(g, d)
    lab = stage.labelling
    u1, u2, u3 = d.u
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
        assert d.r in g.edges[lab.edge_with[m - 3 * k]]
        assert d.u[0] in g.edges[lab.edge_with[m - 1 - 3 * k]]
        assert d.u[1] in g.edges[lab.edge_with[m - 2 - 3 * k]]


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
        assert lab.edge_with[m - 1 - 3 * k] == g.adjacency[u1][a[(k + 3) % 11]]
    for k in range(len(b)):
        assert lab.edge_with[m - 2 - 3 * k] == g.adjacency[u2][b[k]]


# -- disconnected families ---------------------------------------------------

def test_disconnected_rejects_two_isolated_vertices():
    g = build_graph(8, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    # Vertices 5..8 are isolated, and no decomposition is needed to see
    # the shape is hopeless: the guard fires before any labelling.
    with pytest.raises(NotAntimagicShape):
        from antimagic import label
        label(g)


def test_disc_triple_k3_sums_below_everything():
    g = gen_instance(22, "disc_triple", seed=2,
                     triple=((2, 3), (2, 4), (3, 4)))
    d = decompose(g)
    stage = label_disconnected(g, d)
    sums = recompute_sums(g, stage.labelling)
    triple_sums = sorted(sums[u] for u in d.u)
    assert triple_sums == [3, 4, 5]
    rest = [sums[v] for v in d.h_vertices] + [sums[d.r]]
    assert min(rest) > 5
    assert verify_antimagic(g, stage.labelling).ok


def test_disc_triple_p3_sums():
    g = gen_instance(21, "disc_triple", seed=3, triple=((2, 3), (3, 4)))
    d = decompose(g)
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
    from antimagic import label
    from antimagic.generator import TARGETS, min_feasible_n
    for seed in range(1, 6):
        g = gen_instance(min_feasible_n(target) + seed % 3, target, seed=seed)
        out = label(g, seed=seed)
        i = degenerate_index(out.decomposition)
        assert out.regime == TARGETS[target]
        assert out.stage.regime == Regime(f"DEGEN_I{i}")


def test_assign_all_writes_a_batch_and_refuses_reuse():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    lab = Labelling(g)
    lab.assign(0, 4)
    lab.assign_all([1, 3, 2], [1, 2, 3])
    assert lab.label_of == [4, 1, 3, 2]
    assert lab.edge_with == [-1, 1, 3, 2, 0]
    assert lab.assigned == 4
    lab.assign_all([], [])
    assert lab.assigned == 4
    # With edge 0 holding label 1: a used label, a labelled edge, a
    # repeated label, a repeated edge, labels out of range, a short list.
    # A label out of range is named before anything is written, label 0
    # included (not left to the count check).
    bad = (([1], [1], "already used"), ([0], [2], "already used"),
           ([1, 2], [2, 2], "already used"), ([1, 1], [2, 3], "already used"),
           ([1], [0], "batch label 0 out of range"),
           ([1, 2], [3, 0], "batch label 0 out of range"),
           ([1], [5], "batch label 5 out of range"),
           ([1, 2], [2], "2 batch edges against 1 labels"))
    for eids, labels, message in bad:
        lab = Labelling(g)
        lab.assign(0, 1)
        with pytest.raises(ProofViolation, match=message):
            lab.assign_all(eids, labels)


def test_assign_accepts_labels_one_to_m_only():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    lab = Labelling(g)
    lab.assign(2, g.m)
    assert lab.label_of[2] == g.m and lab.edge_with[g.m] == 2
    for value in (g.m + 1, 0):
        with pytest.raises(ProofViolation,
                           match=f"label {value} out of range"):
            lab.assign(0, value)
    assert lab.assigned == 1 and lab.label_of[0] == 0
