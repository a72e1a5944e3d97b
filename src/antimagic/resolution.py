"""Conflict resolution by label exchanges.

After stage 1 the only possible conflicts pair one of u1, u2, u3 with a
vertex of H (for the main regime; the degenerate regimes have their own
short lists).  Each exchange swaps two labels differing by one, chosen
from a fixed table of positions, so every vertex sum moves by at most 1
per exchange.  The resolver picks the case analysis's row in ``CASES``,
applies each plan of its menu to a copy, and accepts the first fully
verified antimagic outcome.  An exhaustive safety net over all tabled
exchanges backs that menu; needing it is reported as a ProofGapWarning,
never silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

from .errors import ProofGapWarning, ProofViolation, check
from .graph import STEP, InstanceDecomposition, Regime
from .labelling import Labelling
from .verification import antimagic_from_sums, verify_antimagic


@dataclass(frozen=True)
class Exchange:
    """Swap of the labels m - offset and m - offset - 1."""

    family: str  # "lambda" | "gamma" | "mu" | "rho" | "named"
    offset: int

    def describe(self) -> str:
        return f"{self.family}_{self.offset}"


# The exchange table: per regime, each family's exchanges, in the order
# plans and the safety net try them.  A family swaps the labels at one
# position in each of the first four blocks of ``STEP``: position p of
# block k is offset p + STEP * k.  The published i=3 table's last rho
# row reads m-15 <-> m-12; the family pattern forces m-11 <-> m-12,
# which is what we implement.
_POSITIONS = {Regime.MAIN: {"lambda": 1, "gamma": 2, "mu": 0, "rho": 3},
              Regime.DEGEN_I3: {"lambda": 1, "mu": 0, "rho": 2}}
FAMILIES = {regime: {family: tuple(Exchange(family, p + STEP[regime] * k)
                                   for k in range(4))
                     for family, p in row.items()}
            for regime, row in _POSITIONS.items()}
_MAIN = FAMILIES[Regime.MAIN]


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
    a, b = l.graph.edges[l.label_of.index(l.graph.m - i)]
    if (a in d.u) == (b in d.u):
        return None
    return b if a in d.u else a


def _case1(y, v, n):
    ok = [e for e in _MAIN["lambda"]
          if y(e.offset) != v[1] and y(e.offset + 1) != v[2]]
    check(len(ok) >= 2, f"case 1 admissible lambda count {len(ok)} < 2")
    return [[e] for e in ok] + [[e, k] for e in ok for k in _MAIN["rho"]]


def _case4a(y, v, n):
    ok = [e for e in _MAIN["lambda"] if y(e.offset) not in (v[1], v[2])]
    return [[e] for e in ok] + [[e, k] for e in ok for k in _MAIN["rho"]]


def _case4b(y, v, n):
    mu, rho = _MAIN["mu"], _MAIN["rho"]
    return [[e] for e in rho + mu] + [[e, k] for e in mu for k in rho]


def _case75(y, v, n):
    """d1 = -1 and d3 = 1: each mu alone, those whose u1 edge ends at v3
    first, then each mu with every lambda but the one just below it."""
    order = sorted(_MAIN["mu"], key=lambda e: y(e.offset + 1) != v[3])
    return [[e] for e in order] + [[e, k] for e in order
                                   for k in _MAIN["lambda"]
                                   if k.offset != e.offset + 1]


def _i2(y, v, n):
    return [[Exchange("named", 0)],
            [Exchange("named", STEP[Regime.DEGEN_I2] * (n - 5) + 1)]]


# The case analysis: per regime, rows (case, conflicted u ranks,
# condition, plans), tried in order.  A condition is None or (quantity,
# comparison, threshold) on d_k = sums[v_k] - sums[u_k], v_k being u_k's
# rival.  The plans are a family (its four single exchanges) or a builder
# above, called with y(i) = y_end(.., i), the rivals v and n.
CASES = {
    Regime.MAIN: (
        ("1", {1, 2, 3}, None, _case1),
        ("2", {1, 2}, None, "lambda"),
        ("3", {2, 3}, None, "gamma"),
        ("4a", {1, 3}, ("|d2|", ">=", 2), _case4a),
        ("4b", {1, 3}, None, _case4b),
        ("5", {1}, None, "mu"),
        ("6", {3}, None, "rho"),
        ("7.1", {2}, ("|d1|", ">=", 2), "lambda"),
        ("7.2", {2}, ("d1", "==", 1), "lambda"),
        ("7.3", {2}, ("|d3|", ">=", 2), "gamma"),
        ("7.4", {2}, ("d3", "==", -1), "gamma"),
        ("7.5", {2}, None, _case75)),
    Regime.DEGEN_I2: (("i2", {1}, None, _i2),),
    Regime.DEGEN_I3: (
        ("i3:both", {1, 2}, None, "lambda"),
        ("i3:u1", {1}, None, "mu"),
        ("i3:u2", {2}, None, "rho")),
}


def candidate_plans(c: ConflictSet, s, d: InstanceDecomposition
                    ) -> tuple[str, list[list[Exchange]]]:
    """The first ``CASES`` row of the stage's regime that fits the
    conflict set: its case and its plan menu.  Each plan is still fully
    verified before acceptance, so a row's filters only shape the order
    and the paper-vs-safety-net accounting."""
    ranks = set(c.u_ranks)

    def holds(quantity: str, op: str, bound: int) -> bool:
        k = int(quantity.strip("|d"))
        gap = c.sums[c.rivals[k]] - c.sums[d.u[k - 1]]
        value = abs(gap) if quantity.startswith("|") else gap
        return value >= bound if op == ">=" else value == bound

    for case, row_ranks, cond, plans in CASES.get(s.regime, ()):
        if row_ranks == ranks and (cond is None or holds(*cond)):
            if isinstance(plans, str):
                return case, [[e] for e in FAMILIES[s.regime][plans]]
            return case, plans(partial(y_end, s.labelling, d), c.rivals,
                               s.labelling.graph.n)
    raise ProofViolation(
        f"{s.regime.value} conflict ranks {sorted(ranks)} fit no case")


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
        return s.labelling, ResolutionTrace("none", 0, ())
    conflicts = find_conflicts(s.labelling, d, s.sums)
    _assert_conflict_shape(conflicts, d, regime)
    case, plans = candidate_plans(conflicts, s, d)

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
        return found, ResolutionTrace(case, tried, applied,
                                      rejections=tuple(rejections))

    menu = ([e for family in FAMILIES[regime].values() for e in family]
            if regime in FAMILIES else [p[0] for p in plans])
    net: list[list[Exchange]] = [[e] for e in menu]
    net += [[e1, e2] for e1 in menu for e2 in menu if e1 != e2]
    found, applied, tried2 = try_plans(net)
    if found is not None:
        warnings.warn(ProofGapWarning(
            f"paper-directed case {case} menu failed; safety net "
            f"applied {[e.describe() for e in applied]}"))
        return found, ResolutionTrace(case, tried + tried2, applied,
                                      gap_warning=True,
                                      rejections=tuple(rejections))
    tried += tried2

    raise ProofViolation(
        f"no exchange plan resolved case {case} after {tried} candidates",
        details={"case": case, "conflicts": conflicts.pairs})
