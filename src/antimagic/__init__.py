"""Provably antimagic edge labellings for graphs with maximum degree
n - 4 and at least 7n edges, with brute-force oracles and a randomized
fallback for inputs outside the construction's hypotheses."""

from .graph import (
    Graph,
    InstanceDecomposition,
    Regime,
    build_graph,
    classify_regime,
    decompose,
)
from .labelling import Labelling
from .construction import (
    StageOneResult,
    label_case_i1,
    label_case_i2,
    label_case_i3,
    label_delta_n1,
    label_disconnected,
    label_main,
)
from .resolution import (
    ConflictSet,
    Exchange,
    ResolutionTrace,
    candidate_plans,
    find_conflicts,
    resolve,
)
from .colouring import (
    EdgeColouring,
    balance_classes,
    koenig_colour,
    order_classes_for_vertex,
    vizing_colour,
)
from .verification import (
    verify_antimagic,
    verify_bijection,
    verify_stage_properties,
)
from .oracle import exhaustive_search, randomized_search
from .generator import gen_instance, min_feasible_n
from .pipeline import LabelOutcome, label, outcome_trace

__all__ = [
    "Graph", "InstanceDecomposition", "Regime", "build_graph",
    "classify_regime", "decompose", "Labelling", "StageOneResult",
    "label_case_i1", "label_case_i2", "label_case_i3", "label_delta_n1",
    "label_disconnected", "label_main",
    "ConflictSet", "Exchange", "ResolutionTrace", "candidate_plans",
    "find_conflicts", "resolve", "EdgeColouring", "balance_classes",
    "koenig_colour", "order_classes_for_vertex", "vizing_colour",
    "verify_antimagic", "verify_bijection", "verify_stage_properties",
    "exhaustive_search", "randomized_search", "gen_instance",
    "min_feasible_n", "LabelOutcome", "label", "outcome_trace",
]
