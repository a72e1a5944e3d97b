"""Independent checking of labellings.

Everything here recomputes from the graph and the raw label assignment;
the cached sums inside Labelling are never trusted.  Reports carry full
witness data so a failure is actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, InstanceDecomposition
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


@dataclass(frozen=True)
class StagePropertyReport:
    ok: bool
    failures: tuple[str, ...] = ()
    gaps: dict = field(default_factory=dict)


def recompute_sums(g: Graph, l: Labelling) -> list[int]:
    """Vertex sums from scratch; isolated vertices get 0."""
    sums = [0] * (g.n + 1)
    for eid, (a, b) in enumerate(g.edges):
        lbl = l.label_of[eid]
        sums[a] += lbl
        sums[b] += lbl
    return sums


def verify_bijection(g: Graph, l: Labelling) -> BijectionReport:
    """Labels must be exactly {1..m} with no repeats."""
    m = g.m
    counts: dict[int, int] = {}
    out_of_range = []
    for eid in range(m):
        lbl = l.label_of[eid]
        if not 1 <= lbl <= m:
            out_of_range.append(lbl)
            continue
        counts[lbl] = counts.get(lbl, 0) + 1
    duplicated = sorted(lbl for lbl, c in counts.items() if c > 1)
    missing = sorted(set(range(1, m + 1)) - set(counts))
    ok = not duplicated and not missing and not out_of_range
    return BijectionReport(ok, tuple(missing), tuple(duplicated),
                           tuple(sorted(out_of_range)))


def verify_antimagic(g: Graph, l: Labelling) -> AntimagicReport:
    """All vertex sums pairwise distinct (bijection assumed verified)."""
    sums = recompute_sums(g, l)
    by_sum: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        by_sum.setdefault(sums[v], []).append(v)
    conflicts = []
    for s, vs in sorted(by_sum.items()):
        if len(vs) > 1:
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    conflicts.append((vs[i], vs[j], s))
    return AntimagicReport(not conflicts, tuple(conflicts))


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


def verify_stage_properties(stage, d: InstanceDecomposition) -> StagePropertyReport:
    """Gap properties of a stage-1 result.

    For the main regime: the u-sums are separated by >= 4, the root sum
    dominates every other sum by >= 4, consecutive sums over H differ by
    >= 4, no vertex other than the root carries two labels of one
    reserved interval, and the root sum is the unique maximum.  The
    degenerate regimes check their own spacing (2 for i=2, 3 for i=3);
    i=2 does not promise root maximality before conflict resolution.
    """
    from .graph import Regime

    g = stage.labelling.graph
    sums = recompute_sums(g, stage.labelling)
    u1, u2, u3 = d.u
    failures: list[str] = []
    gaps = margins(g, d, sums)

    regime = stage.regime
    h_gap = {Regime.MAIN: 4, Regime.DEGEN_I2: 2, Regime.DEGEN_I3: 3}.get(regime, 1)

    if regime == Regime.MAIN:
        if gaps["u3_u2"] < 4:
            failures.append(f"u-gap: sum(u3)={sums[u3]} + 4 > sum(u2)={sums[u2]}")
        if gaps["u2_u1"] < 4:
            failures.append(f"u-gap: sum(u2)={sums[u2]} + 4 > sum(u1)={sums[u1]}")
        if gaps["root_margin"] < 4:
            failures.append(f"root margin {gaps['root_margin']} < 4")

    if gaps["h_min_gap"] < h_gap:
        failures.append(f"H spacing {gaps['h_min_gap']} < {h_gap}")

    for v in range(1, g.n + 1):
        if v == d.r:
            continue
        for labels in stage.intervals:
            hits = sum(1 for e in g.incident[v]
                       if stage.labelling.label_of[e] in labels)
            if hits > 1:
                failures.append(
                    f"vertex {v} carries {hits} labels of interval {labels}")

    if regime != Regime.DEGEN_I2 and gaps["root_margin"] < 1:
        top = sums[d.r] - gaps["root_margin"]
        failures.append(
            f"root sum {sums[d.r]} not the unique maximum (top other {top})")

    return StagePropertyReport(not failures, tuple(failures), gaps)
