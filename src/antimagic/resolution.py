"""Conflict resolution by label exchanges.

After stage 1 the only possible conflicts pair one of u1, u2, u3 with a
vertex of H (for the main regime; the degenerate regimes have their own
short lists).  Each exchange swaps two labels differing by one, chosen
from a fixed table of positions, so every vertex sum moves by at most 1
per exchange.  The resolver enumerates the case analysis's menu of
plans, applies each to a copy, and accepts the first fully verified
antimagic outcome.  An exhaustive safety net over all tabled exchanges
backs the paper-directed menu; needing it is reported as a
ProofGapWarning, never silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

from .errors import ProofGapWarning, ProofViolation, check
from .graph import STEP, InstanceDecomposition, Regime
from .labelling import Labelling
from .verification import antimagic_from_sums, verify_antimagic

# The exchange table: per regime, each family's offsets, in the order
# plans and the safety net try them.  A family swaps the labels at one
# position in each of the first four blocks of ``STEP``: position p of
# block k is offset p + STEP * k.  The published i=3 table's last rho
# row reads m-15 <-> m-12; the family pattern forces m-11 <-> m-12,
# which is what we implement.
_POSITIONS = {Regime.MAIN: {"lambda": 1, "gamma": 2, "mu": 0, "rho": 3},
              Regime.DEGEN_I3: {"lambda": 1, "mu": 0, "rho": 2}}
FAMILIES = {regime: {family: tuple(p + STEP[regime] * k for k in range(4))
                     for family, p in row.items()}
            for regime, row in _POSITIONS.items()}


@dataclass(frozen=True)
class Exchange:
    """Swap of the labels m - offset and m - offset - 1."""

    family: str  # "lambda" | "gamma" | "mu" | "rho" | "named"
    offset: int

    def describe(self) -> str:
        return f"{self.family}_{self.offset}"


@dataclass(frozen=True)
class ConflictSet:
    pairs: tuple[tuple[int, int], ...]
    u_ranks: tuple[int, ...]          # which of u1,u2,u3 are in conflict
    rivals: dict[int, int]            # u rank -> H vertex with closest sum
    sums: list[int] = field(repr=False)  # recomputed from the raw labels


@dataclass
class ResolutionTrace:
    case: str | None
    plans_tried: int
    applied: tuple[Exchange, ...]
    paper_directed: bool
    gap_warning: bool = False
    rejections: tuple[str, ...] = field(default=())


def find_conflicts(l: Labelling, d: InstanceDecomposition,
                   sums: list[int]) -> ConflictSet:
    """Equal-sum pairs plus, for each u_k, its rival: the H vertex whose
    sum is closest (ties by smallest id).  ``sums`` are ``l``'s sums as a
    check already recomputed them from the raw labels (a finished
    stage's ``sums``); they are carried along for the caller to read."""
    report = antimagic_from_sums(l.graph, sums)
    pairs = [(a, b) for a, b, _ in report.conflicts]
    ranks = tuple(k for k, u in enumerate(d.u, start=1)
                  if any(u in p for p in pairs))
    rivals = {}
    for k, u in enumerate(d.u, start=1):
        rivals[k] = min(d.h_vertices,
                        key=lambda v: (abs(sums[v] - sums[u]), v))
    return ConflictSet(tuple(pairs), ranks, rivals, sums)


def y_end(l: Labelling, d: InstanceDecomposition, i: int) -> int | None:
    """y(i): the H end of the u-edge labelled m - i, or None when that
    edge is not a u-edge.  No u is adjacent to r, so a u-edge that
    leaves the triple ends in H."""
    a, b = l.graph.edges[l.edge_with[l.graph.m - i]]
    if (a in d.u) == (b in d.u):
        return None
    return b if a in d.u else a


def exchanges(regime: Regime) -> dict[str, dict[int, Exchange]]:
    """The regime's tabled exchanges: family -> offset -> the swap of
    m - offset and m - offset - 1, in table order."""
    return {family: {i: Exchange(family, i) for i in offsets}
            for family, offsets in FAMILIES[regime].items()}


def candidate_plans(c: ConflictSet, s, d: InstanceDecomposition
                    ) -> tuple[str, list[list[Exchange]]]:
    """The paper-directed plan menu for a main-regime conflict set.

    The admissibility pre-filters follow the case analysis; each plan is
    still fully verified before acceptance, so the filters only shape
    the order and the paper-vs-safety-net accounting.
    """
    if not c.pairs:
        return "none", []
    sums = c.sums
    y = partial(y_end, s.labelling, d)
    u1, u2, u3 = d.u
    v1, v2, v3 = c.rivals[1], c.rivals[2], c.rivals[3]
    ex = exchanges(Regime.MAIN)
    lam, gam, mu, rho = ex["lambda"], ex["gamma"], ex["mu"], ex["rho"]
    ranks = set(c.u_ranks)

    if ranks == {1, 2, 3}:
        ok = [i for i in lam if y(i) != v1 and y(i + 1) != v2]
        check(len(ok) >= 2, f"case 1 admissible lambda count {len(ok)} < 2")
        plans = [[lam[i]] for i in ok]
        plans += [[lam[i], rho[k]] for i in ok for k in rho]
        return "1", plans
    if ranks == {1, 2}:
        return "2", [[e] for e in lam.values()]
    if ranks == {2, 3}:
        return "3", [[e] for e in gam.values()]
    if ranks == {1, 3}:
        if abs(sums[v2] - sums[u2]) >= 2:
            ok = [i for i in lam if y(i) not in (v1, v2)]
            plans = [[lam[i]] for i in ok]
            plans += [[lam[i], rho[k]] for i in ok for k in rho]
            return "4a", plans
        plans = [[e] for e in rho.values()]
        plans += [[e] for e in mu.values()]
        plans += [[mu[i], rho[j]] for i in mu for j in rho]
        return "4b", plans
    if ranks == {1}:
        return "5", [[e] for e in mu.values()]
    if ranks == {3}:
        return "6", [[e] for e in rho.values()]
    check(ranks == {2}, f"conflict ranks {sorted(ranks)} fit no case")
    d1 = sums[v1] - sums[u1]
    d3 = sums[v3] - sums[u3]
    if abs(d1) >= 2 or d1 == 1:
        case = "7.1" if abs(d1) >= 2 else "7.2"
        return case, [[e] for e in lam.values()]
    if abs(d3) >= 2 or d3 == -1:
        case = "7.3" if abs(d3) >= 2 else "7.4"
        return case, [[e] for e in gam.values()]
    # 7.5: sums[v1] = sums[u1] - 1 and sums[v3] = sums[u3] + 1.
    pref = [j for j in mu if y(j + 1) == v3]
    rest = [j for j in mu if j not in pref]
    order = pref + rest
    plans = [[mu[j]] for j in order]
    plans += [[mu[j], lam[i]] for j in order for i in lam
              if i != j + 1]
    return "7.5", plans


def _degen_menu(regime: Regime, c: ConflictSet, n: int
                ) -> tuple[str, list[list[Exchange]]]:
    if regime == Regime.DEGEN_I2:
        return "i2", [[Exchange("named", 0)],
                      [Exchange("named", STEP[regime] * (n - 5) + 1)]]
    ranks = set(c.u_ranks)
    check(regime == Regime.DEGEN_I3 and 0 < len(ranks) and 3 not in ranks,
          f"{regime.value} conflict ranks {sorted(ranks)} fit no case")
    case, family = {(1, 2): ("i3:both", "lambda"), (1,): ("i3:u1", "mu"),
                    (2,): ("i3:u2", "rho")}[tuple(sorted(ranks))]
    return case, [[e] for e in exchanges(Regime.DEGEN_I3)[family].values()]


def _plan_is_sound(before: list[int], after: list[int], r: int,
                   regime: Regime) -> None:
    check(max(abs(a - b) for a, b in zip(before, after)) <= 2,
          "a vertex sum moved by more than 2")
    check(regime not in (Regime.MAIN, Regime.DEGEN_I3)
          or after[r] >= before[r] - 1, "root sum dropped by more than 1")


def _assert_conflict_shape(c: ConflictSet, d: InstanceDecomposition,
                           regime: Regime) -> None:
    """Stage-1 properties confine where conflicts can sit; anything else
    means the construction itself is broken."""
    u_set = set(d.u)
    for a, b in c.pairs:
        if regime == Regime.MAIN or regime == Regime.DEGEN_I3:
            u_side = a in u_set or b in u_set
            h_side = a in d.h_set or b in d.h_set
            legal = u_side and h_side
            if regime == Regime.DEGEN_I3:
                legal = legal and d.u[2] not in (a, b)
        else:  # DEGEN_I2: u1 against H or the root
            legal = (d.u[0] in (a, b) and
                     all(x in d.h_set or x == d.r or x == d.u[0]
                         for x in (a, b)))
        if not legal:
            raise ProofViolation(
                f"conflict ({a},{b}) outside the regime's possible set")


def resolve(s, d: InstanceDecomposition) -> tuple[Labelling, ResolutionTrace]:
    """Try the regime's exchange plans in order, then the safety net of
    every single and paired tabled exchange; accept the first plan whose
    outcome verifies antimagic.

    A stage's conflicts are read from the sums its property check
    recomputed from the raw labels, so a returned labelling that is the
    stage's own has had its antimagic verdict from them; any other has
    not.  An i=1 stage (a triple component's among them) passed its
    check only if antimagic outright, so it has no conflict.  A stage
    with no equal sums returns at once, before ``find_conflicts`` looks
    for the u's rivals.
    """
    g = s.labelling.graph
    regime = s.regime
    if antimagic_from_sums(g, s.sums).ok:
        return s.labelling, ResolutionTrace("none", 0, (), True)
    conflicts = find_conflicts(s.labelling, d, s.sums)

    _assert_conflict_shape(conflicts, d, regime)
    if regime == Regime.MAIN:
        case, plans = candidate_plans(conflicts, s, d)
    else:
        case, plans = _degen_menu(regime, conflicts, g.n)

    before = conflicts.sums
    rejections: list[str] = []

    def try_plans(plan_list):
        tried = 0
        for plan in plan_list:
            tried += 1
            cand = s.labelling.copy()
            for ex in plan:
                cand.swap_labels(g.m - ex.offset, g.m - ex.offset - 1)
            report = verify_antimagic(g, cand)
            _plan_is_sound(before, report.sums, d.r, regime)
            if report.ok:
                return cand, tuple(plan), tried
            if len(rejections) < 64:
                names = "+".join(ex.describe() for ex in plan)
                rejections.append(f"{names}: conflicts remain "
                                  f"{report.conflicts[:2]}")
        return None, None, tried

    found, applied, tried = try_plans(plans)
    if found is not None:
        return found, ResolutionTrace(case, tried, applied, True,
                                      rejections=tuple(rejections))

    menu = ([e for family in exchanges(regime).values()
             for e in family.values()] if regime in FAMILIES
            else [p[0] for p in plans])
    net: list[list[Exchange]] = [[e] for e in menu]
    net += [[e1, e2] for e1 in menu for e2 in menu if e1 != e2]
    found, applied, tried2 = try_plans(net)
    if found is not None:
        warnings.warn(ProofGapWarning(
            f"paper-directed case {case} menu failed; safety net "
            f"applied {[e.describe() for e in applied]}"))
        return found, ResolutionTrace(case, tried + tried2, applied,
                                      False, gap_warning=True,
                                      rejections=tuple(rejections))
    tried += tried2

    raise ProofViolation(
        f"no exchange plan resolved case {case} after {tried} candidates",
        details={"case": case, "conflicts": conflicts.pairs})
