"""Top-level dispatch: classify an input graph and label it.

Routes the graph to the regime-specific construction plus conflict
resolution, to the universal-vertex construction when the maximum degree
is n - 1, and to randomized search for inputs the constructive proof
does not cover (a common neighbour of all three u's, or m < 7n, or an
unexpected maximum degree).  Shapes that provably admit no antimagic
labelling are rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import (
    StageOneResult,
    _check,
    label_case_i1,
    label_case_i2,
    label_case_i3,
    label_delta_n1,
    label_disconnected,
    label_main,
)
from .errors import (
    NotAntimagicShape,
    NotUniversalVertex,
    TooSmall,
    WrongMaxDegree,
)
from .graph import (
    Graph,
    InstanceDecomposition,
    Regime,
    classify_regime,
    decompose,
    has_isolated_edge,
    isolated_vertices,
)
from .labelling import Labelling
from .oracle import randomized_search
from .resolution import ResolutionTrace, resolve
from .verification import margins, recompute_sums, verify_antimagic

STATUS_CONSTRUCTED = "constructed"
STATUS_SEARCHED = "searched_fallback"


@dataclass
class LabelOutcome:
    labelling: Labelling
    status: str
    regime: Regime
    decomposition: InstanceDecomposition | None = None
    stage: StageOneResult | None = None
    resolution: ResolutionTrace | None = None


def label(g: Graph, *, seed: int = 0, fallback_iters: int = 1_000_000,
          force_regime: Regime | None = None) -> LabelOutcome:
    """Antimagic-label a graph.

    Status ``constructed`` means the theorem's construction produced and
    verified the labelling; ``searched_fallback`` means randomized
    search did (and the result was verified the same way).  Raises
    NotAntimagicShape for graphs with an isolated edge or two isolated
    vertices, SearchFailed when the fallback budget runs out, and
    ProofViolation if a guaranteed property fails.
    """
    if has_isolated_edge(g) or len(isolated_vertices(g)) >= 2:
        raise NotAntimagicShape(
            "isolated edge or two isolated vertices: provably not antimagic")

    n = g.n
    if (force_regime == Regime.DELTA_N1
            or (force_regime is None and g.max_degree() == n - 1)):
        universal = [v for v in range(1, n + 1) if g.degree(v) == n - 1]
        if not universal:
            raise NotUniversalVertex("no vertex of degree n - 1")
        lab = label_delta_n1(g, universal[0])
        return LabelOutcome(lab, STATUS_CONSTRUCTED, Regime.DELTA_N1)

    d: InstanceDecomposition | None = None
    try:
        d = decompose(g)
        regime = classify_regime(g, d)
    except (WrongMaxDegree, TooSmall):
        regime = Regime.UNSUPPORTED
    if force_regime is not None:
        regime = force_regime
        if d is None and regime not in (Regime.YILMA_FALLBACK,
                                        Regime.UNSUPPORTED):
            raise WrongMaxDegree(
                f"cannot force {regime.value}: the graph has no "
                f"max-degree-(n-4) decomposition")

    if regime in (Regime.YILMA_FALLBACK, Regime.UNSUPPORTED):
        lab = randomized_search(g, budget=fallback_iters, seed=seed)
        return LabelOutcome(lab, STATUS_SEARCHED, regime, d)

    assert d is not None
    if regime == Regime.MAIN:
        stage = label_main(g, d)
    elif regime == Regime.DEGEN_I1:
        stage = label_case_i1(g, d)
    elif regime == Regime.DEGEN_I2:
        stage = label_case_i2(g, d)
    elif regime == Regime.DEGEN_I3:
        stage = label_case_i3(g, d)
    elif regime in (Regime.DISC_U3_ISOLATED, Regime.DISC_TRIPLE_COMPONENT):
        stage = label_disconnected(g, d, regime)
    else:
        raise WrongMaxDegree(f"regime {regime} has no constructor")

    final, trace = resolve(stage, d)
    report = verify_antimagic(g, final)
    _check(report.ok, "resolution returned a labelling that is not antimagic",
           g, conflicts=report.conflicts)
    return LabelOutcome(final, STATUS_CONSTRUCTED, regime, d, stage, trace)


def outcome_trace(outcome: LabelOutcome, seed: int | None = None) -> dict:
    """JSON-ready trace of one labelling run."""
    g = outcome.labelling.graph
    doc: dict = {
        "status": outcome.status,
        "regime": outcome.regime.value,
        "n": g.n,
        "m": g.m,
        "decomposition": None,
        "stage_sums": None,
        "properties": None,
        "resolution": None,
    }
    if seed is not None:
        doc["seed"] = seed
    d = outcome.decomposition
    if d is not None:
        doc["decomposition"] = {
            "r": d.r, "u": list(d.u), "d_prime": list(d.d_prime)}
    if outcome.stage is not None and d is not None:
        sums = recompute_sums(g, outcome.stage.labelling)
        doc["stage_sums"] = [[v, sums[v]] for v in range(1, g.n + 1)]
        doc["properties"] = {"gaps": margins(g, d, sums)}
    tr = outcome.resolution
    if tr is not None:
        doc["resolution"] = {
            "case": tr.case,
            "plans_tried": tr.plans_tried,
            "applied": [{"family": e.family, "offset": e.offset}
                        for e in tr.applied],
            "paper_directed": tr.paper_directed,
            "gap_warning": tr.gap_warning,
        }
    return doc
