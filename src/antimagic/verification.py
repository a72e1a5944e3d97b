"""Independent checking of labellings.

Everything here recomputes from the graph and the raw label assignment;
the label -> edge inverse inside Labelling is never trusted, and the
bijection and antimagic checks take either a Labelling or its bare
per-edge label list, as read from a file.  ``recompute_sums`` is the one
computation of vertex sums.  Each check that needs them recomputes them
and returns them in its report, so a caller that needs them again for
the same, unchanged labelling reads them from there instead of making
another pass.  Reports carry full witness data so a failure is
actionable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .graph import STEP, Graph, InstanceDecomposition, Regime
from .labelling import Labelling


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    missing: tuple[int, ...] = ()
    duplicated: tuple[int, ...] = ()
    out_of_range: tuple[int, ...] = ()


@dataclass(frozen=True)
class AntimagicReport:
    ok: bool
    conflicts: tuple[tuple[int, int, int], ...] = ()  # (vertex, vertex, sum)
    sums: list[int] = field(default_factory=list, repr=False)  # recomputed


@dataclass(frozen=True)
class StagePropertyReport:
    ok: bool
    failures: tuple[str, ...] = ()
    gaps: dict = field(default_factory=dict)
    sums: list[int] = field(default_factory=list, repr=False)  # recomputed


def _labels(l: Labelling | list[int]) -> list[int]:
    return l if isinstance(l, list) else l.label_of


def recompute_sums(g: Graph, l: Labelling | list[int]) -> list[int]:
    """Vertex sums from scratch; isolated vertices get 0."""
    # One C-level gather of the labels in incidence order, then one sum
    # per vertex slice.  Against a Python loop over the edges (best of
    # 25, 2-core VM, Python 3.11.7): 0.18 ms against 0.34-0.37 ms at
    # m = 3,980, 3.2 against 6.2 ms at m = 31,960, 20-38 against
    # 50-66 ms at m = 211,647.
    if g._gather is None:
        return [0] * (g.n + 1)
    return list(map(sum, map(g._gather(_labels(l)).__getitem__, g._spans)))


def verify_bijection(g: Graph, l: Labelling | list[int]) -> BijectionReport:
    """Labels must be exactly {1..m} with no repeats.  The detailed report
    is built only when the labels are not."""
    labels, m = _labels(l), g.m
    if not labels or (0 < min(labels) and max(labels) <= m
                      and len(set(labels)) == m):
        return BijectionReport(True)
    counts: dict[int, int] = {}
    out_of_range = []
    for lbl in labels:
        if not 1 <= lbl <= m:
            out_of_range.append(lbl)
            continue
        counts[lbl] = counts.get(lbl, 0) + 1
    duplicated = sorted(lbl for lbl, c in counts.items() if c > 1)
    missing = sorted(set(range(1, m + 1)) - set(counts))
    return BijectionReport(False, tuple(missing), tuple(duplicated),
                           tuple(sorted(out_of_range)))


def verify_antimagic(g: Graph, l: Labelling | list[int]) -> AntimagicReport:
    """All vertex sums pairwise distinct (bijection assumed verified)."""
    return antimagic_from_sums(g, recompute_sums(g, l))


def antimagic_from_sums(g: Graph, sums: list[int]) -> AntimagicReport:
    """verify_antimagic's verdict on sums a report recomputed from the raw
    labels.  The buckets naming the conflicts are built only when two
    sums are equal."""
    if len(set(sums[1:])) == g.n:
        return AntimagicReport(True, (), sums)
    by_sum: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        by_sum.setdefault(sums[v], []).append(v)
    conflicts = []
    for s, vs in sorted(by_sum.items()):
        if len(vs) > 1:
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    conflicts.append((vs[i], vs[j], s))
    return AntimagicReport(not conflicts, tuple(conflicts), sums)


def margins(g: Graph, d: InstanceDecomposition, sums: list[int]) -> dict:
    """The gap margins of a sum vector: u3 to u2, u2 to u1, the root over
    every other vertex, and the smallest gap between consecutive H sums."""
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


def i1_bounds(n: int, m: int) -> tuple[int, int]:
    """The i = 1 stage's bounds: the largest sum(u1) and the smallest H
    sum."""
    return 38, max(m - (n - 5), 101)


def verify_stage_properties(lab: Labelling, regime: Regime,
                            d: InstanceDecomposition) -> StagePropertyReport:
    """Every property the proof guarantees of a stage-1 labelling, checked
    for its stage regime from the raw labels.  That regime is MAIN or
    DEGEN_I1/I2/I3: both disconnected families are labelled by a
    degenerate constructor.

    * MAIN: the u-sums are separated by >= 4 (u3 < u2 < u1), the root sum
      dominates every other sum by >= 4, and consecutive sums over H
      differ by >= 4.
    * DEGEN_I1: sum(u1) <= 38, sum(u3) < sum(u2) < sum(u1), min sum
      over H >= max(m - (n - 5), 101) (both from ``i1_bounds``), and
      stage 1 is antimagic outright: all vertex sums are distinct.
    * DEGEN_I2: sum(u3) < sum(u2) < 30, sum(u1) >= sum(u2) + 4,
      min sum over H >= max(m - 2(n - 5) - 1, 89), the root sum
      dominates H by >= 4 and H sums are spaced by >= 2.  The root need
      not dominate u1 before conflict resolution.
    * DEGEN_I3: sum(u3) <= 18, the root sum dominates u1 and H by >= 4,
      sum(u1) >= sum(u2) + 4, sum(u2) and min sum over H are both
      >= sum(u3) + 4, and H sums are spaced by >= 3.
    * Every regime but DEGEN_I2: the root sum is the unique maximum.
    * Regimes with reserved intervals (MAIN, DEGEN_I3): no vertex other
      than the root carries two labels of one interval.

    The H spacing and the intervals come from ``STEP``: interval k holds
    the STEP - 1 labels under m - STEP * k, for k = 0 .. n - 6.
    """
    g = lab.graph
    sums = recompute_sums(g, lab)
    n, m, r = g.n, g.m, d.r
    u1, u2, u3 = d.u
    s1, s2, s3 = sums[u1], sums[u2], sums[u3]
    min_h = min(sums[v] for v in d.h_vertices)
    max_h = max(sums[v] for v in d.h_vertices)
    failures: list[str] = []
    gaps = margins(g, d, sums)

    step = STEP[regime]

    if regime == Regime.MAIN:
        if gaps["u3_u2"] < 4:
            failures.append(f"u-gap: sum(u3)={s3} + 4 > sum(u2)={s2}")
        if gaps["u2_u1"] < 4:
            failures.append(f"u-gap: sum(u2)={s2} + 4 > sum(u1)={s1}")
        if gaps["root_margin"] < 4:
            failures.append(f"root margin {gaps['root_margin']} < 4")
    elif regime == Regime.DEGEN_I1:
        u1_max, h_min = i1_bounds(n, m)
        if s1 > u1_max:
            failures.append(f"sum(u1) = {s1} > {u1_max}")
        if not s3 < s2 < s1:
            failures.append(f"u sums not increasing: {s3}, {s2}, {s1}")
        if min_h < h_min:
            failures.append(f"min H sum {min_h} < {h_min}")
    elif regime == Regime.DEGEN_I2:
        if not s3 < s2 < 30:
            failures.append(f"u2/u3 sums out of bounds: {s3}, {s2}")
        if s1 < s2 + 4:
            failures.append(f"sum(u1) = {s1} < sum(u2) + 4 = {s2 + 4}")
        if min_h < max(m - 2 * (n - 5) - 1, 89):
            failures.append(
                f"min H sum {min_h} < {max(m - 2 * (n - 5) - 1, 89)}")
    elif regime == Regime.DEGEN_I3:
        if s3 > 18:
            failures.append(f"sum(u3) = {s3} > 18")
        if not (sums[r] >= s1 + 4 and s1 >= s2 + 4):
            failures.append(
                f"top sums out of order: r={sums[r]} u1={s1} u2={s2}")
        if s3 + 4 > min(s2, min_h):
            failures.append(f"sum(u3) = {s3} within 4 of sum(u2) = {s2} "
                            f"or min H sum {min_h}")
    if regime in (Regime.DEGEN_I2, Regime.DEGEN_I3) and sums[r] < max_h + 4:
        failures.append(f"root sum {sums[r]} does not dominate H by 4 "
                        f"(max H sum {max_h})")

    if gaps["h_min_gap"] < step:
        failures.append(f"H spacing {gaps['h_min_gap']} < {step}")

    if regime in (Regime.MAIN, Regime.DEGEN_I3):
        # One int k * (n + 1) + v per non-root end v of an edge labelled
        # in interval k.  Only edges labelled above the last interval can
        # be; of these, block openers (pos = 0) and labels above m are in
        # none.  The counts naming a failure are decoded from the keys
        # only when two of them are equal.
        label_of, edges = lab.label_of, g.edges
        floor = m - step * (n - 5)
        keys = [(m - lbl) // step * (n + 1) + v
                for e, lbl in enumerate(label_of)
                if floor < lbl <= m and (m - lbl) % step
                for v in edges[e] if v != r]
        if len(set(keys)) != len(keys):
            repeated = []
            for key, count in Counter(keys).items():
                if count > 1:
                    k, v = divmod(key, n + 1)
                    repeated.append((v, k, count))
            for v, k, count in sorted(repeated):
                top = m - step * k
                interval = tuple(range(top - 1, top - step, -1))
                failures.append(f"vertex {v} carries {count} labels "
                                f"of interval {interval}")

    if regime != Regime.DEGEN_I2 and gaps["root_margin"] < 1:
        top = sums[d.r] - gaps["root_margin"]
        failures.append(
            f"root sum {sums[d.r]} not the unique maximum (top other {top})")

    if regime == Regime.DEGEN_I1:
        conflicts = antimagic_from_sums(g, sums).conflicts
        if conflicts:
            a, b, s = conflicts[0]
            failures.append(f"{regime.value} stage 1 is not antimagic: "
                            f"vertices {a} and {b} share sum {s}")

    return StagePropertyReport(not failures, tuple(failures), gaps, sums)
