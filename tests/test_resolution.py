import dataclasses
import json
from pathlib import Path

import pytest

import antimagic.pipeline as pipeline
import antimagic.resolution as resolution
from antimagic import (
    Labelling,
    Regime,
    StageOneResult,
    build_graph,
    candidate_plans,
    decompose,
    find_conflicts,
    gen_instance,
    label,
    label_disconnected,
    label_main,
    outcome_trace,
    resolve,
    verify_antimagic,
)
from antimagic.errors import LabelMissing, ProofGapWarning, ProofViolation
from antimagic.fileio import emit_graph
from antimagic.resolution import (
    FAMILIES,
    ConflictSet,
    _assert_conflict_shape,
    y_end,
)
from antimagic.verification import recompute_sums, verify_stage_properties
from conftest import assigned

# Instances whose stage-1 labelling has a conflict, with the case the
# resolver must name, the exchanges it applies and the plans it tries to
# get there: the first instance of each case per target, found by
# ``tools/scan_conflicts.py`` (n = 19-29; seeds 1-6,000 for main and
# main_triple, 1-4,000 for degen_i3).  The generator is deterministic,
# so these stay valid until stage-1 output changes on purpose.
CONFLICTED = [
    ("main", 22, 5398, "2", ["lambda_1"], 1),
    ("main", 19, 2343, "3", ["gamma_2"], 1),
    ("main", 22, 890, "4a", ["lambda_13"], 4),  # the last lambda single
    ("main", 19, 1396, "5", ["mu_0"], 1),
    ("main", 19, 41, "6", ["rho_3"], 1),
    ("main", 19, 44, "7.1", ["lambda_1"], 1),
    ("main", 20, 1016, "7.2", ["lambda_1"], 1),
    ("main", 19, 1194, "7.3", ["gamma_2"], 1),
    ("main_triple", 19, 2835, "2", ["lambda_1"], 1),
    ("main_triple", 19, 496, "3", ["gamma_2"], 1),
    ("main_triple", 25, 2039, "4a", ["lambda_1", "rho_3"], 5),  # a pair
    ("main_triple", 27, 275, "4b", ["mu_12"], 8),
    ("main_triple", 19, 110, "5", ["mu_4"], 2),
    ("main_triple", 19, 20, "6", ["rho_3"], 1),
    ("main_triple", 19, 32, "7.1", ["lambda_1"], 1),
    ("main_triple", 19, 23, "7.2", ["lambda_1"], 1),
    ("main_triple", 19, 2054, "7.3", ["gamma_6"], 2),
    ("degen_i2", 28, 58, "i2", ["named_0"], 1),       # top named exchange
    ("degen_i2", 27, 1708, "i2", ["named_45"], 2),    # low named exchange
    ("degen_i3", 19, 4, "i3:u2", ["rho_2"], 1),
    ("degen_i3", 20, 42, "i3:u1", ["mu_0"], 1),
    ("degen_i3", 20, 1275, "i3:both", ["lambda_1"], 1),
]

# Conflicted stage-1 labellings recorded from earlier stage-1 colourings:
# the first eleven while stage 1 still coloured all of G2 (or H-H for
# i = 3), the next fourteen while it still balanced padded Vizing
# classes instead of splitting them, the next ten while MAIN still
# coloured, split and balanced instead of packing, and the last three
# while i = 3 still Koenig-coloured its u-edges instead of pairing them
# by a shift.  Their seeds no longer give these conflicts live, but they
# are genuine stage-1 outputs, so the resolver must still settle each
# one with the same case and the same exchanges.
RECORDED = json.loads(
    (Path(__file__).parent / "data" / "recorded_conflicts.json").read_text())

RESOLVED = ([row + (None,) for row in CONFLICTED]
            + [(r["target"], r["n"], r["seed"], r["case"], r["applied"],
                None, r) for r in RECORDED])


def _recorded_stage(g, rec) -> StageOneResult:
    lab = assigned(g, rec["labels"])
    return StageOneResult(lab, Regime(rec["regime"]), recompute_sums(g, lab))


@pytest.fixture(scope="module")
def main_stage():
    g = gen_instance(20, "main", seed=1)
    d = decompose(g)
    return g, d, label_main(g, d)


def test_offset_tables_match_families():
    # Family order is plan and safety-net order.  An exchange is its
    # family and offset: it swaps m - offset and m - offset - 1 (the
    # published i=3 table's last rho row is a typo; the pattern forces
    # m-11 <-> m-12).
    offsets = {regime: [(f, tuple(e.offset for e in row))
                        for f, row in families.items()]
               for regime, families in FAMILIES.items()}
    assert offsets[Regime.MAIN] == [
        ("lambda", (1, 5, 9, 13)), ("gamma", (2, 6, 10, 14)),
        ("mu", (0, 4, 8, 12)), ("rho", (3, 7, 11, 15))]
    assert offsets[Regime.DEGEN_I3] == [
        ("lambda", (1, 4, 7, 10)), ("mu", (0, 3, 6, 9)),
        ("rho", (2, 5, 8, 11))]
    assert list(FAMILIES) == [Regime.MAIN, Regime.DEGEN_I3]
    for families in FAMILIES.values():
        for family, row in families.items():
            assert {e.family for e in row} == {family}


def test_lambda1_sum_deltas(main_stage):
    g, d, stage = main_stage
    m = g.m
    before = recompute_sums(g, stage.labelling)
    out = stage.labelling.copy()
    out.swap_labels(m - 1, m - 2)
    after = recompute_sums(g, out)
    u1, u2, _ = d.u
    y1, y2 = y_end(stage.labelling, d, 1), y_end(stage.labelling, d, 2)
    assert after[u1] == before[u1] - 1
    assert after[u2] == before[u2] + 1
    assert after[y1] == before[y1] - 1
    assert after[y2] == before[y2] + 1
    untouched = set(range(1, g.n + 1)) - {u1, u2, y1, y2}
    assert all(after[v] == before[v] for v in untouched)


def test_mu0_sum_deltas(main_stage):
    g, d, stage = main_stage
    m = g.m
    before = recompute_sums(g, stage.labelling)
    out = stage.labelling.copy()
    out.swap_labels(m, m - 1)
    after = recompute_sums(g, out)
    u1 = d.u[0]
    y1 = y_end(stage.labelling, d, 1)
    w0 = g.other_end(stage.labelling.label_of.index(m), d.r)
    assert after[u1] == before[u1] + 1
    assert after[y1] == before[y1] + 1
    assert after[w0] == before[w0] - 1
    assert after[d.r] == before[d.r] - 1


def test_rho3_sum_deltas(main_stage):
    g, d, stage = main_stage
    m = g.m
    before = recompute_sums(g, stage.labelling)
    out = stage.labelling.copy()
    out.swap_labels(m - 3, m - 4)
    after = recompute_sums(g, out)
    u3 = d.u[2]
    y3 = y_end(stage.labelling, d, 3)
    w4 = g.other_end(stage.labelling.label_of.index(m - 4), d.r)
    assert after[u3] == before[u3] - 1
    assert after[y3] == before[y3] - 1
    assert after[w4] == before[w4] + 1
    assert after[d.r] == before[d.r] + 1


def test_exchange_is_involution(main_stage):
    g, _, stage = main_stage
    twice = stage.labelling.copy()
    for _ in range(2):
        twice.swap_labels(g.m - 5, g.m - 6)
    assert twice.label_of == stage.labelling.label_of


def test_exchange_missing_label():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    lab = assigned(g, [1, 2, 3])
    with pytest.raises(LabelMissing, match="label 4 unassigned"):
        lab.copy().swap_labels(3, 4)
    # The first label is checked too: out of range, or in range but free.
    with pytest.raises(LabelMissing, match="label 4 unassigned"):
        lab.copy().swap_labels(4, 3)
    # Both labels outside 1..m on a complete labelling: the first is
    # named.
    with pytest.raises(LabelMissing, match="label 4 unassigned"):
        lab.copy().swap_labels(4, 5)
    with pytest.raises(LabelMissing, match="label 0 unassigned"):
        lab.copy().swap_labels(0, 4)
    partial = assigned(g, [1, 0, 3])
    with pytest.raises(LabelMissing, match="label 2 unassigned"):
        partial.swap_labels(2, 3)
    with pytest.raises(LabelMissing, match="label 2 unassigned"):
        partial.swap_labels(3, 2)
    # Label 0 marks an unlabelled edge, never a label, though an edge of
    # a partial labelling holds it.
    with pytest.raises(LabelMissing, match="label 0 unassigned"):
        partial.swap_labels(0, 1)
    with pytest.raises(LabelMissing, match="label 0 unassigned"):
        partial.swap_labels(1, 0)
    assert partial.label_of == [1, 0, 3]
    # x == y exchanges an edge's label with itself: nothing changes, and
    # a free label is still refused.
    same = lab.copy()
    same.swap_labels(2, 2)
    assert same.label_of == lab.label_of == [1, 2, 3]
    with pytest.raises(LabelMissing, match="label 2 unassigned"):
        partial.swap_labels(2, 2)


def test_find_conflicts_empty_on_stage(main_stage):
    g, d, stage = main_stage
    sums = recompute_sums(g, stage.labelling)
    c = find_conflicts(stage.labelling, d, sums)
    assert c.pairs == ()
    assert c.u_ranks == ()
    # Rivals are defined regardless: nearest H sum, ties to smaller id.
    for k, u in enumerate(d.u, start=1):
        expect = min(d.h_vertices,
                     key=lambda v: (abs(sums[v] - sums[u]), v))
        assert c.rivals[k] == expect


def _synthetic_conflicts(stage, d, ranks, rivals, gaps=()):
    """A conflict set naming u_k for k in ``ranks``, with the stage's
    sums but for sums[rivals[k]] = sums[u_k] + gap per (k, gap) in
    ``gaps``."""
    pairs = tuple((d.u[k - 1], rivals[k]) for k in ranks)
    lab = stage.labelling
    sums = recompute_sums(lab.graph, lab)
    for k, gap in gaps:
        sums[rivals[k]] = sums[d.u[k - 1]] + gap
    return ConflictSet(pairs, tuple(sorted(ranks)), rivals, sums)


def test_candidate_plans_empty():
    g = gen_instance(19, "main", seed=2)
    d = decompose(g)
    stage = label_main(g, d)
    c = ConflictSet((), (), {1: d.h_vertices[0], 2: d.h_vertices[0],
                             3: d.h_vertices[0]},
                    recompute_sums(g, stage.labelling))
    # resolve returns before the picker when no sums are equal, so the
    # picker has no row for an empty conflict set.
    with pytest.raises(ProofViolation,
                       match=r"MAIN conflict ranks \[\] fit no case"):
        candidate_plans(c, stage, d)


def test_candidate_plans_case6_is_four_rho_singles(main_stage):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {3}, rivals), stage, d)
    assert case == "6"
    assert [[e.describe() for e in p] for p in plans] == [
        ["rho_3"], ["rho_7"], ["rho_11"], ["rho_15"]]


def test_candidate_plans_case2_is_four_lambda_singles(main_stage):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {1, 2}, rivals), stage, d)
    assert case == "2"
    assert [[e.describe() for e in p] for p in plans] == [
        ["lambda_1"], ["lambda_5"], ["lambda_9"], ["lambda_13"]]


def test_candidate_plans_case1_filters_and_pairs(main_stage):
    g, d, stage = main_stage
    # Make lambda_1 inadmissible by naming y_1 as u1's rival.
    rivals = {1: y_end(stage.labelling, d, 1), 2: d.h_vertices[0],
              3: d.h_vertices[1]}
    if rivals[2] == rivals[1]:
        rivals[2] = d.h_vertices[2]
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {1, 2, 3}, rivals), stage, d)
    assert case == "1"
    singles = [p for p in plans if len(p) == 1]
    pairs = [p for p in plans if len(p) == 2]
    used = {p[0].offset for p in singles}
    assert 1 not in used and used <= {5, 9, 13}
    assert len(pairs) == len(singles) * 4
    for p in pairs:
        assert p[0].family == "lambda" and p[1].family == "rho"


def test_candidate_plans_case7_subcases(main_stage):
    g, d, stage = main_stage
    sums = recompute_sums(g, stage.labelling)
    u1, u3 = d.u[0], d.u[2]
    # Rivals far from u1 and u3 force sub-case 7.1 (gamma never fires).
    far = max(d.h_vertices, key=lambda v: abs(sums[v] - sums[u1]))
    rivals = {1: far, 2: d.h_vertices[0], 3: far}
    if abs(sums[far] - sums[u1]) >= 2:
        case, plans = candidate_plans(
            _synthetic_conflicts(stage, d, {2}, rivals), stage, d)
        assert case == "7.1"
        assert all(p[0].family == "lambda" for p in plans)


def test_candidate_plans_case1_needs_two_admissible_lambdas(
        main_stage, monkeypatch):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    # Every lambda edge ending at u1's rival leaves no admissible lambda.
    monkeypatch.setattr(resolution, "y_end", lambda l, d, i: rivals[1])
    with pytest.raises(ProofViolation, match="case 1 admissible lambda"):
        candidate_plans(_synthetic_conflicts(stage, d, {1, 2, 3}, rivals),
                        stage, d)


_THRESHOLDS = [
    # 4a needs |sums[v2] - sums[u2]| >= 2.
    ({1, 3}, {2: 2}, "4a"), ({1, 3}, {2: -2}, "4a"),
    ({1, 3}, {2: 1}, "4b"), ({1, 3}, {2: -1}, "4b"),
    # 7.1 needs |d1| >= 2 and 7.2 d1 = 1, for d1 = sums[v1] - sums[u1].
    ({2}, {1: 2}, "7.1"), ({2}, {1: -2}, "7.1"), ({2}, {1: 1}, "7.2"),
    # d1 = -1 passes to d3 = sums[v3] - sums[u3]: 7.3 needs |d3| >= 2,
    # 7.4 d3 = -1, and d3 = 1 leaves 7.5.
    ({2}, {1: -1, 3: 2}, "7.3"), ({2}, {1: -1, 3: -2}, "7.3"),
    ({2}, {1: -1, 3: -1}, "7.4"), ({2}, {1: -1, 3: 1}, "7.5"),
]


@pytest.mark.parametrize(
    "ranks, gaps, case", _THRESHOLDS,
    ids=[case + "-" + ",".join(f"v{k}{gap:+d}" for k, gap in gaps.items())
         for _, gaps, case in _THRESHOLDS])
def test_candidate_plans_thresholds(main_stage, ranks, gaps, case):
    # Each rival's sum sits exactly on a threshold of the case analysis.
    g, d, stage = main_stage
    rivals = dict(zip((1, 2, 3), d.h_vertices))
    got, plans = candidate_plans(
        _synthetic_conflicts(stage, d, ranks, rivals, gaps.items()),
        stage, d)
    assert got == case and plans


def test_candidate_plans_case1_refuses_a_single_admissible_lambda(
        main_stage, monkeypatch):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    # lambda_1's and lambda_9's u1 edges (labels m - 1, m - 9) end at
    # u1's rival and lambda_5's u2 edge (label m - 6) at u2's: only
    # lambda_13 is left, one short of the two case 1 guarantees.
    ends = {1: rivals[1], 6: rivals[2], 9: rivals[1]}
    monkeypatch.setattr(resolution, "y_end", lambda l, d, i: ends.get(i))
    with pytest.raises(ProofViolation,
                       match="case 1 admissible lambda count 1 < 2"):
        candidate_plans(_synthetic_conflicts(stage, d, {1, 2, 3}, rivals),
                        stage, d)


def test_candidate_plans_case1_takes_exactly_two_admissible_lambdas(
        main_stage, monkeypatch):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    # lambda_1's u1 edge (label m - 1) ends at u1's rival and lambda_5's
    # u2 edge (label m - 6) at u2's: lambda_9 and lambda_13 are left.
    ends = {1: rivals[1], 6: rivals[2]}
    monkeypatch.setattr(resolution, "y_end", lambda l, d, i: ends.get(i))
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {1, 2, 3}, rivals), stage, d)
    assert case == "1"
    assert [p[0].offset for p in plans if len(p) == 1] == [9, 13]


def test_candidate_plans_case4a_drops_lambdas_ending_at_v1_or_v2(
        main_stage, monkeypatch):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    # lambda_1's u1 edge (label m - 1) ends at u1's rival and lambda_5's
    # (label m - 5) at u2's: lambda_9 and lambda_13 are left, each alone
    # and then with every rho.
    ends = {1: rivals[1], 5: rivals[2]}
    monkeypatch.setattr(resolution, "y_end", lambda l, d, i: ends.get(i))
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {1, 3}, rivals, [(2, 2)]), stage, d)
    assert case == "4a"
    rho = ["rho_3", "rho_7", "rho_11", "rho_15"]
    assert [[e.describe() for e in p] for p in plans] == (
        [["lambda_9"], ["lambda_13"]]
        + [["lambda_9", k] for k in rho] + [["lambda_13", k] for k in rho])


def test_candidate_plans_case75_order_and_pairs(main_stage, monkeypatch):
    g, d, stage = main_stage
    rivals = {1: d.h_vertices[0], 2: d.h_vertices[1], 3: d.h_vertices[2]}
    # mu_8's u1 edge (label m - 9) ends at u3's rival, so mu_8 comes
    # first.  No mu_j is paired with lambda_(j+1), which shares its
    # label m - j - 1.
    ends = {9: rivals[3]}
    monkeypatch.setattr(resolution, "y_end", lambda l, d, i: ends.get(i))
    case, plans = candidate_plans(
        _synthetic_conflicts(stage, d, {2}, rivals, [(1, -1), (3, 1)]),
        stage, d)
    assert case == "7.5"
    partners = {8: (1, 5, 13), 0: (5, 9, 13), 4: (1, 9, 13), 12: (1, 5, 9)}
    assert [[e.describe() for e in p] for p in plans] == (
        [[f"mu_{j}"] for j in partners]
        + [[f"mu_{j}", f"lambda_{i}"] for j, row in partners.items()
           for i in row])


def test_conflicts_without_a_u_fit_no_case(main_stage):
    g, d, stage = main_stage
    h1, h2 = d.h_vertices[:2]
    c = ConflictSet(((h1, h2),), (), {1: h1, 2: h1, 3: h1},
                    recompute_sums(g, stage.labelling))
    with pytest.raises(ProofViolation,
                       match=r"MAIN conflict ranks \[\] fit no case"):
        candidate_plans(c, stage, d)
    i3 = dataclasses.replace(stage, regime=Regime.DEGEN_I3)
    with pytest.raises(ProofViolation,
                       match=r"DEGEN_I3 conflict ranks \[\] fit no case"):
        candidate_plans(c, i3, d)
    # i = 3 never leaves u3 in conflict.
    c3 = _synthetic_conflicts(stage, d, {3}, c.rivals)
    with pytest.raises(ProofViolation,
                       match=r"DEGEN_I3 conflict ranks \[3\] fit no case"):
        candidate_plans(c3, i3, d)


def _first_conflicted():
    """The pinned main instance of case 3 and its seed."""
    target, n, seed = next(c[:3] for c in CONFLICTED
                           if c[0] == "main" and c[3] == "3")
    return gen_instance(n, target, seed=seed), seed


def test_safety_net_resolves_an_empty_menu(monkeypatch):
    g, seed = _first_conflicted()
    monkeypatch.setattr(resolution, "candidate_plans",
                        lambda c, s, d: ("2", []))
    with pytest.warns(ProofGapWarning, match="case 2 menu failed"):
        out = label(g, seed=seed)
    doc = outcome_trace(out, seed)["resolution"]
    assert doc["gap_warning"] is True and doc["paper_directed"] is False
    assert doc["case"] == "2" and 1 <= len(doc["applied"]) <= 2
    assert verify_antimagic(g, out.labelling).ok


def test_safety_net_exhausted_raises_with_reproducer(monkeypatch):
    g, seed = _first_conflicted()
    monkeypatch.setattr(Labelling, "swap_labels", lambda self, x, y: None)
    with pytest.raises(ProofViolation,
                       match="no exchange plan resolved case 3") as info:
        label(g, seed=seed)
    assert info.value.reproducer


def _one_and_m(lab, r):
    """Labels 1 and m: the sums they touch move by m - 1."""
    return 1, lab.graph.m


def _root_label_and_two_below(lab, r):
    """A root label L and a non-root L - 2: every sum moves by at most
    2, and the root's drops by 2."""
    g, at = lab.graph, lab.label_of.index
    top = next(k for k in range(g.m, 2, -1)
               if r in g.edges[at(k)] and r not in g.edges[at(k - 2)])
    return top, top - 2


def _top_and_three_below(lab, r):
    """Labels m and m - 3: the sums they touch move by exactly 3."""
    return lab.graph.m, lab.graph.m - 3


@pytest.mark.parametrize("pick,message", [
    (_one_and_m, "a vertex sum moved by more than 2"),
    (_top_and_three_below, "a vertex sum moved by more than 2"),
    (_root_label_and_two_below, "root sum dropped by more than 1"),
], ids=["sum-moved-3+", "sum-moved-3", "root-dropped-2"])
def test_unsound_plan_raises(pick, message, monkeypatch):
    g, seed = _first_conflicted()
    r = decompose(g).r
    swap = Labelling.swap_labels
    monkeypatch.setattr(Labelling, "swap_labels",
                        lambda self, x, y: swap(self, *pick(self, r)))
    with pytest.raises(ProofViolation, match=message) as exc:
        label(g, seed=seed)
    assert exc.value.reproducer == emit_graph(g)


def test_resolve_fixpoint_when_conflict_free(main_stage):
    g, d, stage = main_stage
    final, trace = resolve(stage, d)
    assert trace.case == "none"
    assert trace.applied == () and trace.plans_tried == 0
    assert final.label_of == stage.labelling.label_of


@pytest.mark.parametrize("target,n,seed,case,applied,tried,recorded",
                         RESOLVED, ids=[f"{r[0]}-{r[1]}-{r[2]}"
                                        for r in RESOLVED])
def test_resolve_conflicted_instances(target, n, seed, case, applied, tried,
                                      recorded):
    g = gen_instance(n, target, seed=seed)
    d = decompose(g)
    if recorded is None:
        out = label(g, seed=seed)
        stage, final, tr = out.stage, out.labelling, out.resolution
        regime = out.regime
    else:
        stage = _recorded_stage(g, recorded)
        assert verify_stage_properties(stage.labelling, stage.regime, d).ok
        final, tr = resolve(stage, d)
        regime = stage.regime
    assert tr is not None and tr.case not in (None, "none"), \
        "seed no longer produces a conflict; rescan"
    assert tr.case == case
    assert [e.describe() for e in tr.applied] == applied
    assert tried is None or tr.plans_tried == tried
    assert 1 <= len(tr.applied) <= 2
    assert not tr.gap_warning
    assert verify_antimagic(g, final).ok
    # Exchange effects stay local: every sum moves by at most 2, and in
    # the regimes that promise it the root keeps the strict maximum.
    if stage is not None:
        before = recompute_sums(g, stage.labelling)
        after = recompute_sums(g, final)
        assert max(abs(a - b) for a, b in zip(before, after)) <= 2
        assert after[d.r] >= before[d.r] - 1
    if regime in (Regime.MAIN, Regime.DEGEN_I3):
        sums = recompute_sums(g, final)
        assert all(sums[d.r] > sums[v]
                   for v in range(1, g.n + 1) if v != d.r)


@pytest.mark.parametrize("row", CONFLICTED, ids=[f"{r[0]}-{r[1]}-{r[2]}"
                                                 for r in CONFLICTED])
def test_resolve_leaves_the_stage_labelling_alone(row):
    # Every plan exchanges labels on a copy: the labelling returned is
    # not the stage's, and the stage's labels are as stage 1 left them.
    target, n, seed = row[:3]
    g = gen_instance(n, target, seed=seed)
    d = decompose(g)
    build_stage = label_main if target.startswith("main") else \
        label_disconnected
    stage = build_stage(g, d)
    kept = list(stage.labelling.label_of)
    final, tr = resolve(stage, d)
    assert tr.plans_tried >= 1 and final is not stage.labelling
    assert stage.labelling.label_of == kept


def _h_only_conflict(g, d, labels):
    """``labels`` with the labels of two H-H edges exchanged so that the
    only equal sums are between H vertices: the first such exchange in
    edge-id order.  Exchanging two H-H edges moves only H sums."""
    sums = recompute_sums(g, assigned(g, labels))
    hh = [eid for eid, (a, b) in enumerate(g.edges)
          if a in d.h_set and b in d.h_set]
    for i, e in enumerate(hh):
        for f in hh[i + 1:]:
            delta = labels[f] - labels[e]
            new = list(sums)
            for v in g.edges[e]:
                new[v] += delta
            for v in g.edges[f]:
                new[v] -= delta
            by_sum = {}
            for v in range(1, g.n + 1):
                by_sum.setdefault(new[v], []).append(v)
            clashes = [vs for vs in by_sum.values() if len(vs) > 1]
            if clashes and all(v in d.h_set for vs in clashes for v in vs):
                out = list(labels)
                out[e], out[f] = out[f], out[e]
                return out
    raise AssertionError("no exchange of two H-H labels meets two H sums")


def test_resolve_rejects_illegal_conflict_shape(main_stage, monkeypatch):
    g, d, stage = main_stage
    # Stage 1 never leaves two H vertices with equal sums; a stage that
    # does must trip the shape guard before any plan is tried.
    labels = _h_only_conflict(g, d, stage.labelling.label_of)
    lab = assigned(g, labels)
    fake = StageOneResult(lab, Regime.MAIN, recompute_sums(g, lab))
    pairs = find_conflicts(lab, d, fake.sums).pairs
    assert pairs and all(a in d.h_set and b in d.h_set for a, b in pairs)
    with pytest.raises(ProofViolation,
                       match="outside the regime's possible set"):
        resolve(fake, d)
    # Through label() the same guard's violation carries the graph.
    monkeypatch.setattr(pipeline, "label_main", lambda g, d: fake)
    with pytest.raises(ProofViolation,
                       match="outside the regime's possible set") as info:
        label(g)
    assert info.value.reproducer == emit_graph(g)


def _conflict_set(*pairs):
    return ConflictSet(pairs, (), {}, [])


def test_conflict_shape_guard_refuses_what_stage_one_rules_out(main_stage):
    _, d, _ = main_stage
    (u1, u2, _), r = d.u, d.r
    with pytest.raises(ProofViolation, match=f"conflict \\({u1},{u2}\\)"):
        _assert_conflict_shape(_conflict_set((u1, u2)), d, Regime.MAIN)
    # i=2 leaves u1 free to meet the root, and no other u.
    _assert_conflict_shape(_conflict_set((u1, r)), d, Regime.DEGEN_I2)
    with pytest.raises(ProofViolation, match=f"conflict \\({u2},{r}\\)"):
        _assert_conflict_shape(_conflict_set((u2, r)), d, Regime.DEGEN_I2)
