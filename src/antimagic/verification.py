"""Independent checking of labellings.

Everything here recomputes from the graph and the raw label assignment,
the per-edge label list that is all a Labelling holds; the bijection and
antimagic checks take either a Labelling or that bare list, as read from
a file.  ``verify_bijection`` is the one bijection check: every stage 1,
Delta = n - 1 and both searches run it on their labels.
``recompute_sums`` is the one computation of vertex sums.  Each check
that needs them recomputes them and returns them in its report, so a
caller that needs them again for the same, unchanged labelling reads
them from there instead of making another pass.  Reports carry full
witness data so a failure is actionable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import sub

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
    """Labels must be exactly {1..m} with no repeats, one per edge.  The
    detailed report is built only when the labels are not."""
    labels, m = _labels(l), g.m
    if len(labels) == m and (not labels or (
            0 < min(labels) and max(labels) <= m and len(set(labels)) == m)):
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
    r = d.r
    h_sums = sorted(map(sums.__getitem__, d.h_vertices))
    return {
        "u3_u2": sums[u2] - sums[u3],
        "u2_u1": sums[u1] - sums[u2],
        "root_margin": sums[r] - max(sums[1:r] + sums[r + 1:g.n + 1]),
        "h_min_gap": min(map(sub, h_sums[1:], h_sums), default=0),
    }


def i1_bounds(n: int, m: int) -> tuple[int, int]:
    """The i = 1 stage's bounds: the largest sum(u1) and the smallest H
    sum."""
    return 38, max(m - (n - 5), 101)


def stage_bounds(regime: Regime, n: int, m: int) -> list[tuple]:
    """The bounds stage 1 promises the sums of ``regime``, as rows
    (low, high, gap), each promising high - low >= gap.  A side is a
    number or a role: r, u1, u2, u3 (their sums), min_h and max_h (the
    least and greatest sum over H), other (the largest sum but the
    root's) or h_gap (the least gap between consecutive H sums).  The
    rows are the paper's closing list for each stage-1 case:

    * MAIN, the main case (d'(u3) >= 4):
      - u3 + 4 <= u2 and u2 + 4 <= u1: the gaps of 4 between the u-sums;
      - other + 4 <= r: the root sum tops every other sum by 4.
    * DEGEN_I1, case i = 1 (d'(u1) <= 3), also the triple component:
      - u1 <= 38: u1's edges, into the triple and at most three into H,
        are among the smallest labels;
      - min_h >= max(m - (n - 5), 101): each H vertex holds a root label;
      - u3 + 1 <= u2 and u2 + 1 <= u1: the u-edges are labelled u3's
        first, then u2's, then u1's;
      - other + 1 <= r: the root sum is the unique maximum.
    * DEGEN_I2, case i = 2 (d'(u2) <= 3 < d'(u1)):
      - u3 + 1 <= u2 and u2 + 1 <= 30: u3's and u2's edges take the
        smallest labels, u3's first;
      - u2 + 4 <= u1: u1 holds every second label from the top;
      - min_h >= max(m - 2(n - 5) - 1, 89): each H vertex holds a root
        label;
      - max_h + 4 <= r: the root dominates H, though not yet u1.
    * DEGEN_I3, case i = 3 (d'(u3) <= 3 < d'(u2)):
      - u3 <= 18: u3's edges, into the triple and at most three into H,
        take the smallest labels;
      - u1 + 4 <= r and u2 + 4 <= u1: the root and the two interval
        vertices in order, 4 apart;
      - u3 + 4 <= u2 and u3 + 4 <= min_h: u3 lies 4 below the rest;
      - max_h + 4 <= r: the root dominates H by 4;
      - other + 1 <= r: the root sum is the unique maximum.
    * Every regime: h_gap >= STEP[regime], the spacing of the H sums
      that the root's labels, STEP apart, give them.

    The i = 1 pair comes from ``i1_bounds``, which ``explain`` prints.
    """
    if regime == Regime.MAIN:
        rows = [("u3", "u2", 4), ("u2", "u1", 4), ("other", "r", 4)]
    elif regime == Regime.DEGEN_I1:
        u1_max, h_min = i1_bounds(n, m)
        rows = [("u1", u1_max, 0), ("u3", "u2", 1), ("u2", "u1", 1),
                (h_min, "min_h", 0), ("other", "r", 1)]
    elif regime == Regime.DEGEN_I2:
        rows = [("u3", "u2", 1), ("u2", 30, 1), ("u2", "u1", 4),
                (max(m - 2 * (n - 5) - 1, 89), "min_h", 0),
                ("max_h", "r", 4)]
    else:
        rows = [("u3", 18, 0), ("u1", "r", 4), ("u2", "u1", 4),
                ("u3", "u2", 4), ("u3", "min_h", 4), ("max_h", "r", 4),
                ("other", "r", 1)]
    rows.append((0, "h_gap", STEP[regime]))
    return rows


def verify_stage_properties(lab: Labelling, regime: Regime,
                            d: InstanceDecomposition) -> StagePropertyReport:
    """Every property the proof guarantees of a stage-1 labelling, checked
    for its stage regime from the raw labels.  That regime is MAIN or
    DEGEN_I1/I2/I3: both disconnected families are labelled by a
    degenerate constructor.

    * Every row of ``stage_bounds``; a failed row names both sides with
      their values, and the gap.
    * Regimes with reserved intervals (MAIN, DEGEN_I3): no vertex other
      than the root carries two labels of one interval.  Interval k
      holds the STEP - 1 labels under m - STEP * k, for k = 0 .. n - 6.
    * DEGEN_I1: stage 1 is antimagic outright: all vertex sums are
      distinct.
    """
    g = lab.graph
    sums = recompute_sums(g, lab)
    n, m, r = g.n, g.m, d.r
    u1, u2, u3 = d.u
    gaps = margins(g, d, sums)
    h_sums = [sums[v] for v in d.h_vertices]
    value = {"r": sums[r], "u1": sums[u1], "u2": sums[u2], "u3": sums[u3],
             "min_h": min(h_sums), "max_h": max(h_sums),
             "other": sums[r] - gaps["root_margin"],
             "h_gap": gaps["h_min_gap"]}
    failures: list[str] = []
    for low, high, gap in stage_bounds(regime, n, m):
        if value.get(high, high) - value.get(low, low) < gap:
            lo, hi = (f"{x}={value[x]}" if x in value else x
                      for x in (low, high))
            failures.append(f"{lo} + {gap} > {hi}")

    if regime in (Regime.MAIN, Regime.DEGEN_I3):
        # One int k * (n + 1) + v per end v of an edge labelled in
        # interval k, both ends' keys in one step.  Only edges labelled
        # above the last interval can be; of these, block openers
        # (pos = 0) and labels above m are in none.  The counts naming a
        # failure are decoded from the keys only when two of them are
        # equal, and the root's are dropped then.
        label_of, edges, step = lab.label_of, g.edges, STEP[regime]
        floor = m - step * (n - 5)
        keys: list[int] = []
        for e, lbl in enumerate(label_of):
            if floor < lbl <= m and (m - lbl) % step:
                a, b = edges[e]
                k = (m - lbl) // step * (n + 1)
                keys += (k + a, k + b)
        if len(set(keys)) != len(keys):
            repeated = []
            for key, count in Counter(keys).items():
                k, v = divmod(key, n + 1)
                if count > 1 and v != r:
                    repeated.append((v, k, count))
            for v, k, count in sorted(repeated):
                top = m - step * k
                interval = tuple(range(top - 1, top - step, -1))
                failures.append(f"vertex {v} carries {count} labels "
                                f"of interval {interval}")

    if regime == Regime.DEGEN_I1:
        conflicts = antimagic_from_sums(g, sums).conflicts
        if conflicts:
            a, b, s = conflicts[0]
            failures.append(f"{regime.value} stage 1 is not antimagic: "
                            f"vertices {a} and {b} share sum {s}")

    return StagePropertyReport(not failures, tuple(failures), gaps, sums)
