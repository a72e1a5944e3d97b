import random

from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    Labelling,
    StageOneResult,
    build_graph,
    decompose,
    gen_instance,
    label_case_i3,
    label_main,
    verify_antimagic,
    verify_bijection,
    verify_stage_properties,
)
from conftest import brute_sums


def test_bijection_ok():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert verify_bijection(g, Labelling.from_labels(g, [2, 3, 1])).ok


def test_bijection_duplicate_reported():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    lab = Labelling.from_labels(g, [5, 5, 1], strict=False)
    rep = verify_bijection(g, lab)
    assert not rep.ok
    assert rep.out_of_range == (5, 5) or rep.duplicated == (5,)


def test_bijection_out_of_range_zero():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    lab = Labelling.from_labels(g, [0, 2, 3], strict=False)
    rep = verify_bijection(g, lab)
    assert not rep.ok
    assert 0 in rep.out_of_range
    assert 1 in rep.missing


def test_duplicate_inside_range():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    lab = Labelling.from_labels(g, [2, 2, 1], strict=False)
    rep = verify_bijection(g, lab)
    assert rep.duplicated == (2,)
    assert rep.missing == (3,)


def test_antimagic_k3_any_labelling():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert verify_antimagic(g, Labelling.from_labels(g, [1, 2, 3])).ok


def test_antimagic_k2_conflict():
    g = build_graph(2, [(1, 2)])
    rep = verify_antimagic(g, Labelling.from_labels(g, [1]))
    assert not rep.ok
    assert rep.conflicts == ((1, 2, 1),)


def test_antimagic_hand_built_conflict_pair():
    # Path 1-2-3-4 labelled 1,2,3: vertices 2 and 4 both sum to 3.
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    lab = Labelling.from_labels(g, [1, 2, 3])
    sums = brute_sums(g, [1, 2, 3])
    assert sums[2] == sums[4] == 3
    rep = verify_antimagic(g, lab)
    assert not rep.ok
    assert (2, 4, 3) in rep.conflicts


def test_antimagic_counts_isolated_vertices_as_zero():
    g = build_graph(4, [(1, 2), (1, 3)])
    lab = Labelling.from_labels(g, [1, 2])
    rep = verify_antimagic(g, lab)
    assert rep.ok  # sums 3, 1, 2, 0 are distinct


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_cached_sums_match_recomputation_after_swaps(seed):
    from antimagic.verification import recompute_sums
    rng = random.Random(seed)
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                        (2, 5)])
    labels = list(range(1, g.m + 1))
    rng.shuffle(labels)
    lab = Labelling.from_labels(g, labels)
    for _ in range(10):
        x, y = rng.sample(range(1, g.m + 1), 2)
        lab.swap_labels(x, y)
        assert lab.sums == recompute_sums(g, lab)


def test_stage_properties_pass_then_fail_after_mutation():
    g = gen_instance(20, "main", seed=5)
    d = decompose(g)
    stage = label_main(g, d)
    assert verify_stage_properties(stage, d).ok

    # Swapping u1's label of the first interval with u2's of the fourth
    # gives both u1 and u2 a second label inside one interval, which the
    # discipline check must catch.
    tampered = stage.labelling.copy()
    tampered.swap_labels(g.m - 1, g.m - 14)
    bad = StageOneResult(tampered, stage.regime, stage.intervals,
                         stage.h_sorted, stage.y_map, stage.w_map)
    rep = verify_stage_properties(bad, d)
    assert not rep.ok
    assert g.m == 142 and d.u == (2, 3, 4)
    assert rep.failures == (
        "H spacing 1 < 4",
        "vertex 2 carries 2 labels of interval (129, 128, 127)",
        "vertex 3 carries 2 labels of interval (141, 140, 139)",
    )


def test_stage_properties_report_in_vertex_then_interval_order():
    # u1 gets two labels in each of the first and fourth intervals and
    # u2 in the second and fifth.  The intervals are handed over
    # reversed, so each vertex's failures follow the stage's interval
    # order, not label order; the root may carry any number of labels of
    # the extra root-label interval.
    g = gen_instance(20, "main", seed=5)
    d = decompose(g)
    stage = label_main(g, d)
    m = g.m
    tampered = stage.labelling.copy()
    tampered.swap_labels(m - 5, m - 2)
    tampered.swap_labels(m - 17, m - 14)
    intervals = tuple(reversed(stage.intervals)) + ((m, m - 4, m - 8),)
    bad = StageOneResult(tampered, stage.regime, intervals,
                         stage.h_sorted, stage.y_map, stage.w_map)
    rep = verify_stage_properties(bad, d)
    assert d.r == 1 and d.u == (2, 3, 4)
    assert rep.failures == (
        "H spacing 2 < 4",
        "vertex 2 carries 2 labels of interval (129, 128, 127)",
        "vertex 2 carries 2 labels of interval (141, 140, 139)",
        "vertex 3 carries 2 labels of interval (125, 124, 123)",
        "vertex 3 carries 2 labels of interval (137, 136, 135)",
    )


def test_stage_properties_catch_i3_two_label_interval():
    # In i = 3 the intervals hold two labels: u1 takes m - 1 - 3k and u2
    # m - 2 - 3k.  Swapping m - 2 with m - 4 gives u1 both labels of the
    # first interval and u2 both of the second.
    g = gen_instance(19, "degen_i3", seed=1)
    d = decompose(g)
    stage = label_case_i3(g, d)
    assert verify_stage_properties(stage, d).ok
    tampered = stage.labelling.copy()
    tampered.swap_labels(g.m - 2, g.m - 4)
    bad = StageOneResult(tampered, stage.regime, stage.intervals,
                         stage.h_sorted, stage.y_map, stage.w_map)
    rep = verify_stage_properties(bad, d)
    assert g.m == 133 and d.u == (2, 3, 4)
    assert rep.failures == (
        "vertex 2 carries 2 labels of interval (132, 131)",
        "vertex 3 carries 2 labels of interval (129, 128)",
    )
