import functools
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import (
    Labelling,
    build_graph,
    decompose,
    gen_instance,
    label_case_i3,
    label_main,
    outcome_trace,
    verify_antimagic,
    verify_bijection,
    verify_stage_properties,
)
from antimagic.generator import min_feasible_n
from antimagic.graph import STEP, Regime, stage_regime
from antimagic.verification import BijectionReport, margins
from conftest import assigned, brute_sums


def _raw(g, labels):
    """A Labelling holding ``labels`` exactly as given, faults included.
    The checks read only the graph and the raw labels."""
    return Labelling(g, list(labels))


def test_bijection_ok():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert verify_bijection(g, assigned(g, [2, 3, 1])).ok


def test_bijection_duplicate_reported():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    rep = verify_bijection(g, [5, 5, 1])
    assert not rep.ok
    assert rep.out_of_range == (5, 5) or rep.duplicated == (5,)


def test_bijection_out_of_range_zero():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    rep = verify_bijection(g, [0, 2, 3])
    assert not rep.ok
    assert 0 in rep.out_of_range
    assert 1 in rep.missing


def test_bijection_needs_one_label_per_edge():
    # Every label in 1..m is not enough: the list must hold one label
    # per edge, and the report names what is missing or repeated.
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert verify_bijection(g, []) == BijectionReport(False, missing=(1, 2, 3))
    assert verify_bijection(g, [1, 2, 3, 2]) == BijectionReport(
        False, duplicated=(2,))
    assert verify_bijection(build_graph(1, []), []).ok


def test_duplicate_inside_range():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    rep = verify_bijection(g, [2, 2, 1])
    assert rep.duplicated == (2,)
    assert rep.missing == (3,)


def test_antimagic_k3_any_labelling():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert verify_antimagic(g, assigned(g, [1, 2, 3])).ok


def test_antimagic_k2_conflict():
    g = build_graph(2, [(1, 2)])
    rep = verify_antimagic(g, assigned(g, [1]))
    assert not rep.ok
    assert rep.conflicts == ((1, 2, 1),)


def test_antimagic_hand_built_conflict_pair():
    # Path 1-2-3-4 labelled 1,2,3: vertices 2 and 4 both sum to 3.
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    lab = assigned(g, [1, 2, 3])
    sums = brute_sums(g, [1, 2, 3])
    assert sums[2] == sums[4] == 3
    rep = verify_antimagic(g, lab)
    assert not rep.ok
    assert (2, 4, 3) in rep.conflicts


def test_antimagic_counts_isolated_vertices_as_zero():
    g = build_graph(4, [(1, 2), (1, 3)])
    lab = assigned(g, [1, 2])
    rep = verify_antimagic(g, lab)
    assert rep.ok  # sums 3, 1, 2, 0 are distinct


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_swaps_on_a_copy_leave_the_source_and_keep_the_bijection(seed):
    rng = random.Random(seed)
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                        (2, 5)])
    labels = list(range(1, g.m + 1))
    rng.shuffle(labels)
    lab = assigned(g, labels)
    for _ in range(5):
        twin, kept = lab.copy(), list(lab.label_of)
        for each in (twin, lab):
            assert lab.label_of == kept  # a copy's swap leaves it alone
            x, y = rng.sample(range(1, g.m + 1), 2)
            ex, ey = each.label_of.index(x), each.label_of.index(y)
            each.swap_labels(x, y)
            assert (each.label_of[ex], each.label_of[ey]) == (y, x)
            assert verify_bijection(g, each).ok


def test_stage_properties_pass_then_fail_after_mutation():
    g = gen_instance(20, "main", seed=5)
    d = decompose(g)
    stage = label_main(g, d)
    assert verify_stage_properties(stage.labelling, stage.regime, d).ok

    # Swapping u1's label of the first interval with u2's of the fourth
    # gives both u1 and u2 a second label inside one interval, which the
    # discipline check must catch.
    tampered = stage.labelling.copy()
    tampered.swap_labels(g.m - 1, g.m - 14)
    rep = verify_stage_properties(tampered, stage.regime, d)
    assert not rep.ok
    assert g.m == 142 and d.u == (2, 3, 4)
    assert rep.failures == (
        "vertex 2 carries 2 labels of interval (129, 128, 127)",
        "vertex 3 carries 2 labels of interval (141, 140, 139)",
    )


def test_stage_properties_report_in_vertex_then_interval_order():
    # u1 gets two labels in each of the first and fourth intervals and
    # u2 in the second and fifth.  Failures come by vertex, then by
    # interval; interval by interval they would alternate 2, 3, 2, 3.
    # Two labels of the third interval move onto root edges: the root
    # may carry any number of labels of one interval.
    g = gen_instance(20, "main", seed=5)
    d = decompose(g)
    stage = label_main(g, d)
    m = g.m
    tampered = stage.labelling.copy()
    for x, y in ((5, 2), (17, 14), (9, 8), (10, 12)):
        tampered.swap_labels(m - x, m - y)
    assert {tampered.label_of[e] for e in g.incident[d.r]} >= {m - 9, m - 10}
    rep = verify_stage_properties(tampered, stage.regime, d)
    assert d.r == 1 and d.u == (2, 3, 4)
    assert rep.failures == (
        "vertex 2 carries 2 labels of interval (141, 140, 139)",
        "vertex 2 carries 2 labels of interval (129, 128, 127)",
        "vertex 3 carries 2 labels of interval (137, 136, 135)",
        "vertex 3 carries 2 labels of interval (125, 124, 123)",
    )


def test_stage_properties_catch_i3_two_label_interval():
    # In i = 3 the intervals hold two labels: u1 takes m - 1 - 3k and u2
    # m - 2 - 3k.  Swapping m - 2 with m - 4 gives u1 both labels of the
    # first interval and u2 both of the second.
    g = gen_instance(19, "degen_i3", seed=1)
    d = decompose(g)
    stage = label_case_i3(g, d)
    assert verify_stage_properties(stage.labelling, stage.regime, d).ok
    tampered = stage.labelling.copy()
    tampered.swap_labels(g.m - 2, g.m - 4)
    rep = verify_stage_properties(tampered, stage.regime, d)
    assert g.m == 133 and d.u == (2, 3, 4)
    assert rep.failures == (
        "vertex 2 carries 2 labels of interval (132, 131)",
        "vertex 3 carries 2 labels of interval (129, 128)",
    )


@pytest.mark.parametrize("target,n,swap,zero,failures", [
    # u1 = 2 holds labels 2, 5, 6 and u2 = 3 labels 1, 2, 4.
    ("degen_i1", 20, (6, 40), None, ("u1=47 + 0 > 38",)),
    ("degen_i1", 20, (1, 6), None, ("u2=12 + 1 > u1=8",)),
    ("degen_i1", 20, None, 5, ("125 + 0 > min_h=0",)),
    # u2 = 3 holds labels 1, 3, 4.
    ("degen_i2", 20, (4, 30), None, ("u2=34 + 1 > 30",)),
    ("degen_i2", 20, None, 2, ("u2=8 + 4 > u1=0",)),
    ("degen_i2", 20, None, 6, ("113 + 0 > min_h=0",)),
    ("degen_i2", 20, None, 1, ("max_h=1233 + 4 > r=0", "0 + 2 > h_gap=1")),
    # u3 = 4 holds labels 1..4.
    ("degen_i3", 19, (4, 22), None, ("u3=28 + 0 > 18",)),
    ("degen_i3", 19, None, 2, ("u2=1176 + 4 > u1=0",)),
    ("degen_i3", 19, None, 3, ("u3=9 + 4 > u2=0",)),
    # The triple is a P3 on labels 1, 2 with centre u1 = 2, labelled by
    # the i = 1 constructor and checked against its bounds; 1 <-> 17
    # lifts u3 above u2 and gives H vertices 8 and 11 one sum.
    ("disc_triple", 21, (1, 17), None, (
        "u3=17 + 1 > u2=2",
        "0 + 1 > h_gap=0",
        "DEGEN_I1 stage 1 is not antimagic: vertices 8 and 11 share sum "
        "1082")),
    # Labels 6 and 7 sit on the H-H edges 9-19 and 7-10: exchanging them
    # leaves two H sums 2 apart, one short of i = 3's spacing.
    ("degen_i3", 19, (6, 7), None, ("0 + 3 > h_gap=2",)),
])
def test_stage_properties_name_the_regime_bounds(target, n, swap, zero,
                                                 failures):
    # A stage-1 output with two labels swapped, or with every label at
    # vertex ``zero`` set to 0, fails exactly the pinned checks.
    from antimagic import label
    g = gen_instance(n, target, seed=1)
    out = label(g, seed=1)
    d, stage = out.decomposition, out.stage
    assert d.u == (2, 3, 4)
    assert verify_stage_properties(stage.labelling, stage.regime, d).ok
    labels = list(stage.labelling.label_of)
    if swap:
        i, j = (labels.index(x) for x in swap)
        labels[i], labels[j] = labels[j], labels[i]
    if zero is not None:
        for e in g.incident[zero]:
            labels[e] = 0
    rep = verify_stage_properties(_raw(g, labels), stage.regime, d)
    assert rep.failures == failures


def _with_sums(monkeypatch, stage, d, edit, gap):
    """verify_stage_properties on ``stage`` with its recomputed sums
    passed through ``edit(sums, d, gap)`` first."""
    import antimagic.verification as verification
    sums = list(stage.sums)
    edit(sums, d, gap)
    monkeypatch.setattr(verification, "recompute_sums", lambda g, l: sums)
    return verify_stage_properties(stage.labelling, stage.regime, d)


def _root_above_rest(s, d, gap):
    s[d.r] = max(s[v] for v in range(1, len(s)) if v != d.r) + gap


@pytest.mark.parametrize("target", ["main", "degen_i1", "degen_i2",
                                    "degen_i3"])
def test_root_tie_fails_unique_maximum_outside_i2(monkeypatch, target):
    # A root tied with another sum fails the root's row over every other
    # sum, once: by 4 in MAIN, by 1 in i = 1 and i = 3.  i = 2 has none.
    g, d, stage = _stage(target, 1)
    rep = _with_sums(monkeypatch, stage, d, _root_above_rest, 0)
    top = rep.sums[d.r]
    gap = {"main": 4, "degen_i1": 1, "degen_i3": 1}.get(target)
    assert [f for f in rep.failures if f.startswith("other=")] == (
        [f"other={top} + {gap} > r={top}"] if gap else [])
    if target == "main":
        assert rep.failures == (f"other={top} + 4 > r={top}",)


# Each seed-1 stage's (u1, u2, u3) and its sums as (r, u1, u2, u3,
# min H, max H); the bounds below rest on them.
_STAGE_SUMS = {
    "main": ((2, 3, 4), (1840, 1260, 812, 670, 678, 1301)),
    "degen_i1": ((4, 2, 3), (2448, 8, 6, 4, 850, 1535)),
    "degen_i2": ((2, 3, 4), (2397, 1188, 13, 3, 930, 1521)),
    "degen_i3": ((2, 3, 4), (1928, 809, 549, 13, 784, 1522)),
}


def _set_sum(who):
    """An edit setting the sum of ``who`` (r, u1, u2, u3, or min_h: the H
    vertex of least sum) to its ``gap`` argument; for h_gap, the top H
    sum to the next H sum plus ``gap``."""
    def edit(s, d, gap):
        if who == "h_gap":
            *_, below, top = sorted(d.h_vertices, key=s.__getitem__)
            s[top] = s[below] + gap
            return
        if who == "r":
            v = d.r
        elif who == "min_h":
            v = min(d.h_vertices, key=s.__getitem__)
        else:
            v = d.u[int(who[1]) - 1]
        s[v] = gap
    return edit


_BOUNDS = [
    # MAIN, n = 20, m = 145: u3 + 4 <= u2, u2 + 4 <= u1, and the root 4
    # above every other sum (the top H sum, 1301); H sums 4 apart.
    ("main", "u3", 808, 809, ("u3=809 + 4 > u2=812",)),
    ("main", "u1", 816, 815, ("u2=812 + 4 > u1=815",)),
    ("main", "r", 1305, 1304, ("other=1301 + 4 > r=1304",)),
    ("main", "h_gap", 4, 3, ("0 + 4 > h_gap=3",)),
    # i = 1, n = 21, m = 152: u1 <= 38, u3 < u2 < u1 (equal sums also
    # break antimagic), min_h >= max(m - (n - 5), 101) = 136.
    ("degen_i1", "u1", 38, 39, ("u1=39 + 0 > 38",)),
    ("degen_i1", "u2", 7, 8, (
        "u2=8 + 1 > u1=8",
        "DEGEN_I1 stage 1 is not antimagic: vertices 2 and 4 share sum 8")),
    ("degen_i1", "u3", 5, 6, (
        "u3=6 + 1 > u2=6",
        "DEGEN_I1 stage 1 is not antimagic: vertices 2 and 3 share sum 6")),
    ("degen_i1", "min_h", 136, 135, ("136 + 0 > min_h=135",)),
    # i = 1 has no root margin of its own: one above the top H sum (of
    # vertex 20) is a unique maximum.
    ("degen_i1", "r", 1536, 1535, (
        "other=1535 + 1 > r=1535",
        "DEGEN_I1 stage 1 is not antimagic: vertices 1 and 20 share sum "
        "1535")),
    # H sums 1 apart; the top two, of vertices 20 and 10, equal.
    ("degen_i1", "h_gap", 1, 0, (
        "0 + 1 > h_gap=0",
        "DEGEN_I1 stage 1 is not antimagic: vertices 10 and 20 share sum "
        "1459")),
    # i = 2, n = 21, m = 158: u3 < u2 < 30, u2 + 4 <= u1, min_h >=
    # max(m - 2(n - 5) - 1, 89) = 125, the root dominates H by 4, and H
    # sums 2 apart.
    ("degen_i2", "u2", 29, 30, ("u2=30 + 1 > 30",)),
    ("degen_i2", "u3", 12, 13, ("u3=13 + 1 > u2=13",)),
    ("degen_i2", "u1", 17, 16, ("u2=13 + 4 > u1=16",)),
    ("degen_i2", "min_h", 125, 124, ("125 + 0 > min_h=124",)),
    ("degen_i2", "r", 1525, 1524, ("max_h=1521 + 4 > r=1524",)),
    ("degen_i2", "h_gap", 2, 1, ("0 + 2 > h_gap=1",)),
    # i = 3: u3 <= 18, u1 + 4 <= r, u2 + 4 <= u1, u3 + 4 <= u2 and
    # min_h, the root dominates H by 4, and H sums 3 apart.
    ("degen_i3", "u3", 18, 19, ("u3=19 + 0 > 18",)),
    ("degen_i3", "u1", 1924, 1925, ("u1=1925 + 4 > r=1928",)),
    ("degen_i3", "u2", 805, 806, ("u2=806 + 4 > u1=809",)),
    ("degen_i3", "u2", 17, 16, ("u3=13 + 4 > u2=16",)),
    ("degen_i3", "min_h", 17, 16, ("u3=13 + 4 > min_h=16",)),
    ("degen_i3", "r", 1526, 1525, ("max_h=1522 + 4 > r=1525",)),
    ("degen_i3", "h_gap", 3, 2, ("0 + 3 > h_gap=2",)),
]


# Named by (target, who, side): "upper" where one past the bound is one
# more, "lower" where it is one less.  The bound's value stays out of the
# id, so a stage-1 change that moves a bound keeps the ids.
_BOUND_IDS = [f"{t}-{who}-{'upper' if past > at else 'lower'}"
              for t, who, at, past, _ in _BOUNDS]


def test_stage_bound_ids_are_unique():
    assert len(set(_BOUND_IDS)) == len(_BOUNDS)


@pytest.mark.parametrize("target,who,at,past,failures", _BOUNDS,
                         ids=_BOUND_IDS)
def test_stage_bounds_hold_at_the_bound_fail_one_past(monkeypatch, target,
                                                      who, at, past,
                                                      failures):
    g, d, stage = _stage(target, 1)
    s = stage.sums
    h = [s[v] for v in d.h_vertices]
    assert (d.u, (s[d.r], *(s[u] for u in d.u), min(h), max(h))) \
        == _STAGE_SUMS[target]
    assert _with_sums(monkeypatch, stage, d, _set_sum(who), at).ok
    rep = _with_sums(monkeypatch, stage, d, _set_sum(who), past)
    assert rep.failures == failures


def test_i3_unique_maximum_fails_only_beside_the_u1_row(monkeypatch):
    # In i = 3 the root's rows over u1 and over H, with u2 and u3 below
    # u1, already make it the unique maximum, so that row fails only
    # beside another: u1 one below the root fails u1's row alone, u1 at
    # the root the unique maximum's as well.
    g, d, stage = _stage("degen_i3", 1)
    rep = _with_sums(monkeypatch, stage, d, _set_sum("u1"), 1927)
    assert rep.failures == ("u1=1927 + 4 > r=1928",)
    rep = _with_sums(monkeypatch, stage, d, _set_sum("u1"), 1928)
    assert rep.failures == ("u1=1928 + 4 > r=1928",
                            "other=1928 + 1 > r=1928")


def test_i1_names_its_lowest_equal_pair(monkeypatch):
    # Two pairs of H sums made equal, at 850 and at 1459: the failure
    # names the pair of the lower sum.
    g, d, stage = _stage("degen_i1", 1)

    def two_pairs(s, d, gap):
        assert (s[7], s[19], s[10], s[20]) == (850, 877, 1459, 1535)
        s[19], s[20] = s[7], s[10]

    rep = _with_sums(monkeypatch, stage, d, two_pairs, None)
    assert rep.failures == (
        "0 + 1 > h_gap=0",
        "DEGEN_I1 stage 1 is not antimagic: vertices 7 and 19 share sum 850")


@pytest.mark.parametrize("regime,u1_h_edges,floor", [
    (Regime.DEGEN_I1, 3, 101), (Regime.DEGEN_I2, 4, 89)],
    ids=["degen_i1", "degen_i2"])
def test_min_h_floor_binds_below_7n(monkeypatch, regime, u1_h_edges,
                                    floor):
    # From the feasible n on, m - (n - 5) >= 125 for i = 1 and
    # m - 2(n - 5) - 1 >= 109 for i = 2, so the floors 101 and 89 bind
    # only below 7n, where no constructor runs.  A hand-built n = 10
    # graph: root 1 on H = 5..10, the path 5..10 in H, and u1 = 2, u2 = 3,
    # u3 = 4 on the first u1_h_edges, 2 and 1 H vertices.  Its sums are
    # set to meet every other row, the H sums STEP apart from min_h up.
    import antimagic.verification as verification
    g = build_graph(10, [(1, v) for v in range(5, 11)]
                    + [(2, v) for v in range(5, 5 + u1_h_edges)]
                    + [(3, 5), (3, 6), (4, 5)]
                    + [(v, v + 1) for v in range(5, 10)])
    d = decompose(g)
    assert (d.r, d.u, stage_regime(d)) == (1, (2, 3, 4), regime)
    assert g.m < 7 * g.n and max(g.m - (g.n - 5),
                                 g.m - 2 * (g.n - 5) - 1) < floor
    past = (f"{floor} + 0 > min_h={floor - 1}",)
    for min_h, failures in ((floor, ()), (floor - 1, past)):
        sums = [0, 1000, 30, 20, 10] + [min_h + STEP[regime] * k
                                        for k in range(6)]
        monkeypatch.setattr(verification, "recompute_sums",
                            lambda g, l: sums)
        rep = verify_stage_properties(_raw(g, [1] * g.m), regime, d)
        assert rep.failures == failures


# -- the interval check at its edges ---------------------------------------
#
# Every edge takes label 1 except the two placed at one H vertex, and the
# stage's own sums stand in for the recomputed ones, so only the interval
# check can fail.  Interval k holds the STEP - 1 labels under the block
# opener m - STEP * k, for k = 0 .. n - 6.

def _intervals_only(monkeypatch, target, placed):
    """verify_stage_properties on ``target``'s seed-1 stage with labels
    ``placed(m, n, step)`` on two edges at one H vertex, and that
    vertex."""
    import antimagic.verification as verification
    g, d, stage = _stage(target, 1)
    h = d.h_vertices[0]
    at_h = [e for e in g.incident[h] if d.r not in g.edges[e]][:2]
    labels = [1] * g.m
    for e, lbl in zip(at_h, placed(g.m, g.n, STEP[stage.regime])):
        labels[e] = lbl
    monkeypatch.setattr(verification, "recompute_sums",
                        lambda g, l: list(stage.sums))
    return verify_stage_properties(_raw(g, labels), stage.regime, d), h


@pytest.mark.parametrize("target", ["main", "degen_i3"])
def test_two_labels_of_the_last_interval_fail(monkeypatch, target):
    rep, h = _intervals_only(monkeypatch, target, lambda m, n, step: (
        m - step * (n - 6) - 1, m - step * (n - 6) - 2))
    g, _, stage = _stage(target, 1)
    step = STEP[stage.regime]
    top = g.m - step * (g.n - 6)
    interval = tuple(range(top - 1, top - step, -1))
    assert rep.failures == (
        f"vertex {h} carries 2 labels of interval {interval}",)


@pytest.mark.parametrize("target", ["main", "degen_i3"])
@pytest.mark.parametrize("placed", [
    # interval n - 6 and the opener of block n - 5, in no interval
    lambda m, n, step: (m - step * (n - 6) - 1, m - step * (n - 5)),
    # two labels under block n - 5, past the last interval
    lambda m, n, step: (m - step * (n - 5) - 1, m - step * (n - 5) - 2),
    # the last label of interval k and the first of interval k + 1
    lambda m, n, step: (m - step * 0 - (step - 1), m - step * 1 - 1),
    lambda m, n, step: (m - step * (n - 7) - (step - 1),
                        m - step * (n - 6) - 1),
    # raw labels above m, in no interval
    lambda m, n, step: (m + 1, m + 2),
], ids=["opener", "below_last", "k_k1_first", "k_k1_last", "above_m"])
def test_labels_in_distinct_or_no_intervals_pass(monkeypatch, target,
                                                 placed):
    rep, _ = _intervals_only(monkeypatch, target, placed)
    assert rep.ok, rep.failures


# Naive references for the verifiers: one loop over the edges, the way
# the checks read before they shared a pass.  The rewritten verifiers
# must agree with them exactly, faults included.

def _naive_sums(g, labels):
    sums = [0] * (g.n + 1)
    for eid, (a, b) in enumerate(g.edges):
        sums[a] += labels[eid]
        sums[b] += labels[eid]
    return sums


def _naive_bijection(g, labels):
    counts = {}
    out_of_range = []
    for lbl in labels:
        if not 1 <= lbl <= g.m:
            out_of_range.append(lbl)
        else:
            counts[lbl] = counts.get(lbl, 0) + 1
    duplicated = sorted(lbl for lbl, c in counts.items() if c > 1)
    missing = sorted(set(range(1, g.m + 1)) - set(counts))
    return (not (duplicated or missing or out_of_range), tuple(missing),
            tuple(duplicated), tuple(sorted(out_of_range)))


def reference_margins(g, d, sums):
    """``margins`` as it was before it took the root margin from the
    largest other sum and the H gap by ``map``, kept verbatim."""
    u1, u2, u3 = d.u
    h_sums = sorted(sums[v] for v in d.h_vertices)
    return {
        "u3_u2": sums[u2] - sums[u3],
        "u2_u1": sums[u1] - sums[u2],
        "root_margin": min(sums[d.r] - sums[x]
                           for x in range(1, g.n + 1) if x != d.r),
        "h_min_gap": min((b - a for a, b in zip(h_sums, h_sums[1:])),
                         default=0),
    }


def _margin_case(r, u, h, sums):
    return SimpleNamespace(n=len(sums) - 1), \
        SimpleNamespace(r=r, u=u, h_vertices=h), [0] + sums


@st.composite
def margin_cases(draw):
    """(graph, decomposition, sums) as ``margins`` reads them: n in 4..8,
    any root, u and H from the other vertices, sums from a small range
    so that ties are common."""
    n = draw(st.integers(4, 8))
    order = draw(st.permutations(range(1, n + 1)))
    sums = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return _margin_case(order[0], tuple(order[1:4]),
                        tuple(sorted(order[4:])), sums)


@settings(max_examples=300, deadline=None)
@given(margin_cases())
# n = 8: the root, as vertex 1 and as vertex 8, tied with other sums,
# and H sums tied; the root alone on top and every H sum tied; n = 4,
# no H vertex.
@example(_margin_case(1, (2, 3, 4), (5, 6, 7, 8), [9, 3, 5, 9, 6, 6, 2, 9]))
@example(_margin_case(8, (2, 3, 4), (1, 5, 6, 7), [9, 3, 5, 1, 6, 6, 2, 9]))
@example(_margin_case(5, (1, 2, 3), (4, 6, 7, 8), [1, 2, 3, 4, 9, 4, 4, 4]))
@example(_margin_case(2, (1, 3, 4), (), [5, 2, 7, 0]))
def test_margins_match_the_reference(case):
    g, d, sums = case
    assert margins(g, d, sums) == reference_margins(g, d, sums)


def _naive_stage_properties(lab, regime, d):
    from antimagic import Regime

    g = lab.graph
    labels = lab.label_of
    sums = _naive_sums(g, labels)
    u1, u2, u3 = d.u
    gaps = margins(g, d, sums)
    failures = []
    h = [sums[v] for v in range(1, g.n + 1) if v in d.h_set]
    m, n, r = g.m, g.n, d.r
    # Each failure names both sides with their values, and the gap.
    s1, s2, s3, sr = (f"{name}={sums[v]}" for name, v in
                      (("u1", u1), ("u2", u2), ("u3", u3), ("r", r)))
    other = f"other={sums[r] - gaps['root_margin']}"
    h_gap = {Regime.MAIN: 4, Regime.DEGEN_I2: 2,
             Regime.DEGEN_I3: 3}.get(regime, 1)
    if regime == Regime.MAIN:
        if gaps["u3_u2"] < 4:
            failures.append(f"{s3} + 4 > {s2}")
        if gaps["u2_u1"] < 4:
            failures.append(f"{s2} + 4 > {s1}")
        if gaps["root_margin"] < 4:
            failures.append(f"{other} + 4 > {sr}")
    if regime == Regime.DEGEN_I1:
        if sums[u1] > 38:
            failures.append(f"{s1} + 0 > 38")
        if not sums[u3] < sums[u2]:
            failures.append(f"{s3} + 1 > {s2}")
        if not sums[u2] < sums[u1]:
            failures.append(f"{s2} + 1 > {s1}")
        bound = max(m - n + 5, 101)
        if min(h) < bound:
            failures.append(f"{bound} + 0 > min_h={min(h)}")
        if gaps["root_margin"] < 1:
            failures.append(f"{other} + 1 > {sr}")
    if regime == Regime.DEGEN_I2:
        if not sums[u3] < sums[u2]:
            failures.append(f"{s3} + 1 > {s2}")
        if not sums[u2] < 30:
            failures.append(f"{s2} + 1 > 30")
        if sums[u1] - sums[u2] < 4:
            failures.append(f"{s2} + 4 > {s1}")
        bound = max(m - 2 * n + 9, 89)
        if min(h) < bound:
            failures.append(f"{bound} + 0 > min_h={min(h)}")
    if regime == Regime.DEGEN_I3:
        if sums[u3] > 18:
            failures.append(f"{s3} + 0 > 18")
        if sums[r] - sums[u1] < 4:
            failures.append(f"{s1} + 4 > {sr}")
        if sums[u1] - sums[u2] < 4:
            failures.append(f"{s2} + 4 > {s1}")
        if sums[u2] - sums[u3] < 4:
            failures.append(f"{s3} + 4 > {s2}")
        if min(h) - sums[u3] < 4:
            failures.append(f"{s3} + 4 > min_h={min(h)}")
    if regime in (Regime.DEGEN_I2, Regime.DEGEN_I3):
        if any(sums[r] - x < 4 for x in h):
            failures.append(f"max_h={max(h)} + 4 > {sr}")
    if regime == Regime.DEGEN_I3 and gaps["root_margin"] < 1:
        failures.append(f"{other} + 1 > {sr}")
    if gaps["h_min_gap"] < h_gap:
        failures.append(f"0 + {h_gap} > h_gap={gaps['h_min_gap']}")
    # The reserved intervals as the constructors lay them out.
    if regime == Regime.MAIN:
        intervals = [(m - 4 * j - 1, m - 4 * j - 2, m - 4 * j - 3)
                     for j in range(n - 5)]
    elif regime == Regime.DEGEN_I3:
        intervals = [(m - 3 * j - 1, m - 3 * j - 2) for j in range(n - 5)]
    else:
        intervals = []
    hits = {}
    for eid, lbl in enumerate(labels):
        for i, block in enumerate(intervals):
            if lbl in block:
                for v in g.edges[eid]:
                    if v != d.r:
                        hits[v, i] = hits.get((v, i), 0) + 1
    for (v, i), count in sorted(hits.items()):
        if count > 1:
            failures.append(f"vertex {v} carries {count} labels of "
                            f"interval {intervals[i]}")
    if regime == Regime.DEGEN_I1:
        conflicts = sorted((sums[a], a, b) for a in range(1, g.n + 1)
                           for b in range(a + 1, g.n + 1)
                           if sums[a] == sums[b])
        if conflicts:
            s, a, b = conflicts[0]
            failures.append(f"{regime.value} stage 1 is not antimagic: "
                            f"vertices {a} and {b} share sum {s}")
    return tuple(failures), gaps


_STAGE_TARGETS = ("main", "main_triple", "degen_i1", "degen_i2",
                  "degen_i3", "disc_u3_isolated", "disc_triple")


@functools.lru_cache(maxsize=None)
def _stage(target, seed):
    from antimagic import label
    g = gen_instance(min_feasible_n(target) + seed % 3, target, seed=seed)
    out = label(g, seed=seed)
    return g, out.decomposition, out.stage


def _tamper(rng, labels, m):
    """A copy of ``labels`` with a few swaps, zeros, repeats and labels
    outside 1..m, any of them possibly absent."""
    out = list(labels)
    for _ in range(rng.randrange(4)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    for _ in range(rng.randrange(3)):
        out[rng.randrange(len(out))] = rng.choice(
            (0, -rng.randrange(1, 5), m + rng.randrange(1, 5),
             out[rng.randrange(len(out))]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_sums_and_bijection_match_naive_on_any_labels(seed, shape):
    # Random graphs (isolated vertices included) with complete, partial
    # or tampered label lists.
    rng = random.Random(seed)
    n = rng.randrange(1, 10)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             if rng.random() < 0.4]
    g = build_graph(n, pairs)
    labels = list(range(1, g.m + 1))
    rng.shuffle(labels)
    if shape == 1 and labels:     # partial: some edges still unlabelled
        for eid in rng.sample(range(g.m), rng.randrange(1, g.m + 1)):
            labels[eid] = 0
    elif shape >= 2 and labels:
        labels = _tamper(rng, labels, g.m)
    lab = _raw(g, labels)
    from antimagic.verification import recompute_sums
    naive = _naive_bijection(g, labels)
    # A Labelling and its bare label list, as the verify command reads it.
    for given_labels in (lab, labels):
        assert recompute_sums(g, given_labels) == _naive_sums(g, labels)
        rep = verify_bijection(g, given_labels)
        assert (rep.ok, rep.missing, rep.duplicated,
                rep.out_of_range) == naive


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_STAGE_TARGETS), st.integers(1, 4),
       st.integers(0, 10_000), st.booleans())
def test_stage_properties_match_naive(target, seed, tamper_seed, tamper):
    # Genuine stage-1 outputs, as built and tampered, over every regime
    # with reserved intervals or spacing (u3 isolated included).
    g, d, stage = _stage(target, seed)
    labels = stage.labelling.label_of
    if tamper:
        rng = random.Random(tamper_seed)
        labels = _tamper(rng, labels, g.m)
        # Swaps at the root and the triple reach the regimes' own bounds.
        for _ in range(rng.randrange(3)):
            edges = g.incident[rng.choice((d.r, *d.u))]
            if edges:
                i, j = rng.choice(edges), rng.randrange(g.m)
                labels[i], labels[j] = labels[j], labels[i]
    probe = _raw(g, labels)
    rep = verify_stage_properties(probe, stage.regime, d)
    failures, gaps = _naive_stage_properties(probe, stage.regime, d)
    assert rep.failures == failures
    assert rep.gaps == gaps
    assert rep.ok == (not failures)


def test_reports_carry_the_sums_they_checked():
    from antimagic.verification import recompute_sums
    g, d, stage = _stage("main", 1)
    sums = recompute_sums(g, stage.labelling)
    assert verify_stage_properties(stage.labelling, stage.regime,
                                   d).sums == sums
    assert verify_antimagic(g, stage.labelling).sums == sums


def _count_sums_passes(monkeypatch) -> list:
    """Record the per-edge label list every vertex-sums pass sums,
    through every module binding of ``recompute_sums``: a stage's
    partial-sums pass reads the list that its labelling is then made
    of."""
    import antimagic.construction as construction
    import antimagic.oracle as oracle
    import antimagic.verification as verification
    calls = []
    original = verification.recompute_sums

    def counting(g, l):
        calls.append(l if isinstance(l, list) else l.label_of)
        return original(g, l)

    for module in (verification, construction, oracle):
        monkeypatch.setattr(module, "recompute_sums", counting)
    return calls


@pytest.mark.parametrize("target,n", [
    ("degen_i1", 20), ("disc_triple", 21), ("degen_i2", 20), ("main", 19),
    ("main_triple", 19), ("degen_i3", 19), ("disc_u3_isolated", 19)])
def test_label_recomputes_stage_sums_once(monkeypatch, target, n):
    # An unconflicted run makes two passes over its stage labelling: the
    # partial sums that order the root labels and the stage check.  The
    # conflict search reads the stage check's sums, and the unchanged
    # stage labelling is not checked again.
    from antimagic import label
    calls = _count_sums_passes(monkeypatch)
    out = label(gen_instance(n, target, seed=1), seed=1)
    assert out.resolution.case == "none"
    assert out.labelling is out.stage.labelling
    assert [id(l) for l in calls] == [id(out.labelling.label_of)] * 2
    outcome_trace(out)  # reads the stage check's sums
    assert len(calls) == 2


def test_label_sums_passes_without_a_stage(monkeypatch):
    # The universal-vertex construction: its partial sums and its own
    # antimagic check.  The fallback search: its start, which reads the
    # shuffled label list it then searches in place, and its final
    # check, which reads that same list, now the result's.  This yilma
    # search steps, so its final check recomputes the sums from the raw
    # labels; a search that never swapped would reuse its start's pass.
    # The trace reads the final check's sums instead of a new pass.
    from antimagic import label
    calls = _count_sums_passes(monkeypatch)
    n = 9
    g = build_graph(n, [(1, v) for v in range(2, n + 1)]
                    + [(v, v + 1) for v in range(2, n)])
    out = label(g, seed=1)
    assert out.stage is None
    assert [id(l) for l in calls] == [id(out.labelling.label_of)] * 2
    calls.clear()
    out = label(gen_instance(min_feasible_n("yilma"), "yilma", seed=1),
                seed=1)
    assert out.stage is None
    start, final = calls
    assert final is out.labelling.label_of
    assert start is final
    doc = outcome_trace(out)
    assert len(calls) == 2
    assert doc["final"]["u_sums"] == [
        _naive_sums(out.labelling.graph, out.labelling.label_of)[u]
        for u in out.decomposition.u]


def test_conflicted_label_checks_each_plan_and_the_result(monkeypatch):
    from antimagic import label
    from test_resolution import CONFLICTED
    target, n, seed, case, *_ = next(c for c in CONFLICTED if c[3] == "4a")
    calls = _count_sums_passes(monkeypatch)
    out = label(gen_instance(n, target, seed=seed), seed=seed)
    tried = out.resolution.plans_tried
    assert out.resolution.case == case and tried > 1
    assert out.labelling is not out.stage.labelling
    assert len(calls) == 2 + tried + 1
    assert [id(l) for l in calls[:2]] == [
        id(out.stage.labelling.label_of)] * 2
    assert calls[-1] is out.labelling.label_of
    # The trace reads the final check's sums instead of a new pass.
    doc = outcome_trace(out)
    assert len(calls) == 2 + tried + 1
    assert doc["final"]["u_sums"] == [
        _naive_sums(out.labelling.graph, out.labelling.label_of)[u]
        for u in out.decomposition.u]


def test_resolve_reads_the_carried_sums(monkeypatch):
    # An i = 1 stage, a triple component's included, goes through the
    # same conflict search on its carried sums as any other.
    from antimagic import resolve
    calls = _count_sums_passes(monkeypatch)
    for target in ("main", "degen_i1", "disc_triple"):
        g, d, stage = _stage(target, 1)
        calls.clear()
        resolve(stage, d)
        assert calls == []


@pytest.mark.parametrize("target", _STAGE_TARGETS)
@pytest.mark.parametrize("seed", [1, 2, 44])
def test_unchanged_stage_carries_its_naive_sums(target, seed):
    # The final labelling is the stage's own unless resolution exchanged
    # labels (main seed 44 needs case 7.1), and then it is a new one: the
    # stage keeps its labelling and the sums of it either way.
    from antimagic import label
    g = gen_instance(min_feasible_n(target), target, seed=seed)
    out = label(g, seed=seed)
    resolved = out.resolution is not None and bool(out.resolution.applied)
    assert (out.labelling is out.stage.labelling) is not resolved
    assert out.stage.sums == _naive_sums(g, out.stage.labelling.label_of)


@pytest.mark.parametrize("n,pairs,labels", [
    (1, [], []),
    (2, [(1, 2)], [1]),
    (4, [(1, 2), (2, 3), (1, 3)], [2, 3, 1]),
], ids=["k1_no_edges", "single_edge", "isolated_last_vertex"])
def test_sums_match_naive_named_cases(n, pairs, labels):
    from antimagic.verification import recompute_sums
    g = build_graph(n, pairs)
    naive = _naive_sums(g, labels)
    assert recompute_sums(g, assigned(g, labels)) == naive
    assert recompute_sums(g, labels) == naive
