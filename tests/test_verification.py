import functools
import random

import pytest
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
from antimagic.generator import min_feasible_n
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
def test_swaps_keep_the_inverse_and_the_bijection(seed):
    rng = random.Random(seed)
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                        (2, 5)])
    labels = list(range(1, g.m + 1))
    rng.shuffle(labels)
    lab = Labelling.from_labels(g, labels)
    for _ in range(5):
        twin, kept = lab.copy(), list(lab.label_of)
        for each in (twin, lab):
            assert lab.label_of == kept  # a copy's swap leaves it alone
            x, y = rng.sample(range(1, g.m + 1), 2)
            each.swap_labels(x, y)
            assert all(each.label_of[each.edge_with[v]] == v
                       for v in range(1, g.m + 1))
            assert verify_bijection(g, each).ok


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


def _naive_stage_properties(stage, d):
    from antimagic import Regime
    from antimagic.verification import margins

    g = stage.labelling.graph
    labels = stage.labelling.label_of
    sums = _naive_sums(g, labels)
    u1, u2, u3 = d.u
    gaps = margins(g, d, sums)
    failures = []
    regime = stage.regime
    h_gap = {Regime.MAIN: 4, Regime.DEGEN_I2: 2,
             Regime.DEGEN_I3: 3}.get(regime, 1)
    if regime == Regime.MAIN:
        if gaps["u3_u2"] < 4:
            failures.append(
                f"u-gap: sum(u3)={sums[u3]} + 4 > sum(u2)={sums[u2]}")
        if gaps["u2_u1"] < 4:
            failures.append(
                f"u-gap: sum(u2)={sums[u2]} + 4 > sum(u1)={sums[u1]}")
        if gaps["root_margin"] < 4:
            failures.append(f"root margin {gaps['root_margin']} < 4")
    if gaps["h_min_gap"] < h_gap:
        failures.append(f"H spacing {gaps['h_min_gap']} < {h_gap}")
    hits = {}
    for eid, lbl in enumerate(labels):
        for i, block in enumerate(stage.intervals):
            if lbl in block:
                for v in g.edges[eid]:
                    if v != d.r:
                        hits[v, i] = hits.get((v, i), 0) + 1
    for (v, i), count in sorted(hits.items()):
        if count > 1:
            failures.append(f"vertex {v} carries {count} labels of "
                            f"interval {stage.intervals[i]}")
    if regime != Regime.DEGEN_I2 and gaps["root_margin"] < 1:
        top = sums[d.r] - gaps["root_margin"]
        failures.append(
            f"root sum {sums[d.r]} not the unique maximum (top other {top})")
    return tuple(failures), gaps


_STAGE_TARGETS = ("main", "main_triple", "degen_i2", "degen_i3",
                  "disc_u3_isolated")


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
    lab = Labelling.from_labels(g, labels, strict=False)
    from antimagic.verification import recompute_sums
    assert recompute_sums(g, lab) == _naive_sums(g, labels)
    rep = verify_bijection(g, lab)
    assert (rep.ok, rep.missing, rep.duplicated,
            rep.out_of_range) == _naive_bijection(g, labels)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_STAGE_TARGETS), st.integers(1, 4),
       st.integers(0, 10_000), st.booleans())
def test_stage_properties_match_naive(target, seed, tamper_seed, tamper):
    # Genuine stage-1 outputs, as built and tampered, over every regime
    # with reserved intervals or spacing (u3 isolated included).
    g, d, stage = _stage(target, seed)
    labels = stage.labelling.label_of
    if tamper:
        labels = _tamper(random.Random(tamper_seed), labels, g.m)
    lab = Labelling.from_labels(g, labels, strict=False)
    probe = StageOneResult(lab, stage.regime, stage.intervals,
                           stage.h_sorted, stage.y_map, stage.w_map)
    rep = verify_stage_properties(probe, d)
    failures, gaps = _naive_stage_properties(probe, d)
    assert rep.failures == failures
    assert rep.gaps == gaps
    assert rep.ok == (not failures)


def test_reports_carry_the_sums_they_checked():
    from antimagic.verification import recompute_sums
    g, d, stage = _stage("main", 1)
    sums = recompute_sums(g, stage.labelling)
    assert verify_stage_properties(stage, d).sums == sums
    assert verify_antimagic(g, stage.labelling).sums == sums


@pytest.mark.parametrize("target,n", [
    ("degen_i1", 20), ("disc_triple", 21), ("degen_i2", 20), ("main", 19)])
def test_label_recomputes_stage_sums_once(monkeypatch, target, n):
    # Stage 1's checks share the recompute the property report carries;
    # the resolver makes one for its conflicts, except in the regimes
    # stage 1 checks antimagic outright; label()'s final check makes its
    # own.
    import antimagic.verification as verification
    from antimagic import label
    from antimagic.construction import ANTIMAGIC_OUTRIGHT
    calls = []
    original = verification.recompute_sums

    def counting(g, l):
        calls.append(l)
        return original(g, l)

    monkeypatch.setattr(verification, "recompute_sums", counting)
    out = label(gen_instance(n, target, seed=1), seed=1)
    assert out.resolution.case == "none"
    stage_passes = 1 if out.regime in ANTIMAGIC_OUTRIGHT else 2
    expected = [out.stage.labelling] * stage_passes + [out.labelling]
    assert [id(l) for l in calls] == [id(l) for l in expected]
