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
    label_case_i1,
    label_case_i2,
    label_case_i3,
    label_delta_n1,
    label_disconnected,
    label_main,
)
from .errors import (
    NotAntimagicShape,
    ProofViolation,
    TooSmall,
    WrongMaxDegree,
    check,
)
from .fileio import emit_graph
from .graph import (
    Graph,
    InstanceDecomposition,
    Regime,
    classify_regime,
    decompose,
    degenerate_index,
    has_isolated_edge,
    isolated_vertices,
)
from .labelling import Labelling
from .oracle import randomized_search
from .resolution import ResolutionTrace, resolve
from .verification import margins, verify_antimagic

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
    # Final vertex sums from the check that last read the raw labels (the
    # stage's, a resolved labelling's, the fallback's); None if Δ = n - 1.
    sums: list[int] | None = None


def label(g: Graph, *, seed: int = 0,
          force_regime: Regime | None = None) -> LabelOutcome:
    """Antimagic-label a graph.

    Status ``constructed`` means the theorem's construction produced and
    verified the labelling; ``searched_fallback`` means randomized
    search did, in its default budget, and was verified the same way.
    Raises NotAntimagicShape for graphs with an isolated edge or two
    isolated vertices, SearchFailed when the fallback budget runs out,
    and ProofViolation, its reproducer set here, if a guaranteed
    property fails.  ``force_regime`` may only be ``Regime.YILMA_FALLBACK``,
    which sends any graph to randomized search; another value raises
    ValueError.
    """
    if force_regime not in (None, Regime.YILMA_FALLBACK):
        raise ValueError(f"force_regime must be None or YILMA_FALLBACK, "
                         f"not {force_regime}")
    if has_isolated_edge(g) or len(isolated_vertices(g)) >= 2:
        raise NotAntimagicShape(
            "isolated edge or two isolated vertices: provably not antimagic")

    n = g.n
    try:
        if force_regime is None and g.max_degree() == n - 1:
            r = next(v for v in range(1, n + 1) if g.degree(v) == n - 1)
            return LabelOutcome(label_delta_n1(g, r), STATUS_CONSTRUCTED,
                                Regime.DELTA_N1)

        d: InstanceDecomposition | None = None
        try:
            d = decompose(g)
            regime = classify_regime(g, d)
        except (WrongMaxDegree, TooSmall):
            regime = Regime.UNSUPPORTED
        if force_regime is not None:
            regime = force_regime

        # Built per call, so perfbench's span wrappers on these names fire.
        construct = {
            Regime.MAIN: label_main,
            Regime.DEGEN_I1: label_case_i1,
            Regime.DEGEN_I2: label_case_i2,
            Regime.DEGEN_I3: label_case_i3,
            Regime.DISC_U3_ISOLATED: label_disconnected,
            Regime.DISC_TRIPLE_COMPONENT: label_disconnected,
        }.get(regime)
        if construct is None:  # YILMA_FALLBACK or UNSUPPORTED
            lab, sums = randomized_search(g, seed=seed)
            return LabelOutcome(lab, STATUS_SEARCHED, regime, d, sums=sums)
        stage = construct(g, d)

        final, trace = resolve(stage, d)
        # An unchanged stage labelling already has its verdict from its
        # raw-label sums: the stage check's outright test, or the conflict
        # search on those sums.  Only a labelling resolution changed is
        # checked again.
        sums = stage.sums
        if final is not stage.labelling:
            report = verify_antimagic(g, final)
            check(report.ok,
                  "resolution returned a labelling that is not antimagic",
                  conflicts=report.conflicts)
            sums = report.sums
    except ProofViolation as exc:
        exc.reproducer = emit_graph(g)
        raise
    return LabelOutcome(final, STATUS_CONSTRUCTED, regime, d, stage, trace,
                        sums)


def outcome_trace(outcome: LabelOutcome, seed: int | None = None) -> dict:
    """JSON-ready trace of one labelling run.

    Every number that describes the run is derived here once; ``explain``
    prints from this dict.  ``final`` (the final sums of r, the u's and
    the smallest H sum, and their gap margins) is present only when the
    graph has a decomposition.
    """
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
            "r": d.r, "u": list(d.u), "d_prime": list(d.d_prime),
            "triple_edges": [list(e) for e in d.triple_edges],
            "degenerate_index": degenerate_index(d)}
        stage = outcome.stage
        if stage is not None:
            doc["stage_sums"] = [[v, stage.sums[v]] for v in range(1, g.n + 1)]
            doc["properties"] = {"gaps": margins(g, d, stage.sums)}
        sums = outcome.sums
        doc["final"] = {
            "r_sum": sums[d.r], "u_sums": [sums[u] for u in d.u],
            "min_h_sum": min(sums[v] for v in d.h_vertices),
            "gaps": margins(g, d, sums)}
    tr = outcome.resolution
    if tr is not None:
        doc["resolution"] = {
            "case": tr.case,
            "plans_tried": tr.plans_tried,
            "applied": [{"family": e.family, "offset": e.offset}
                        for e in tr.applied],
            "paper_directed": not tr.gap_warning,
            "gap_warning": tr.gap_warning,
            "rejections": list(tr.rejections),
        }
    return doc
