"""Golden check: stage-1 output, traces and ``explain`` text stay byte-identical.

One SHA-256 over three renderings of a fixed corpus pins the observable
behaviour of the whole pipeline, so a refactor that claims "same
behaviour" can prove it.  The corpus is every generator target at five
seeds (n <= 40), five maximum-degree n - 1 graphs and three runs forced
onto the randomized fallback.  A change that alters any output on
purpose must say so and re-pin the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from antimagic import Regime, gen_instance, label, outcome_trace
from antimagic.cli import main
from antimagic.fileio import emit_graph, emit_labelling
from antimagic.generator import TARGETS, min_feasible_n
from conftest import random_universal_graph
from test_resolution import CONFLICTED

GOLDEN_SHA256 = (
    "75500f629e29c52fe350152912668e6d65ffbe394705b83b3deaabb942ec0573")


def _explain_stdout(g, tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.graph"
    path.write_text(emit_graph(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["explain", str(path), "--seed", "1"])
    return f"exit {code}\n{out.getvalue()}"


def _corpus():
    """(name, graph, seed, forced regime) for every golden instance."""
    for target in TARGETS:
        lo = min_feasible_n(target)
        for k in range(5):
            yield (f"{target}_{k}",
                   gen_instance(lo + 4 * k, target, seed=k + 1), k + 1, None)
    rng = random.Random(20240901)
    for n in (5, 8, 11, 14, 17):
        yield f"universal_{n}", random_universal_graph(n, rng), 1, None
    for target, n, seed in CONFLICTED:
        yield (f"conflicted_{target}_{n}_{seed}",
               gen_instance(n, target, seed=seed), seed, None)
    for n, seed in ((19, 2), (20, 3), (21, 4)):
        yield (f"forced_{n}", gen_instance(n, "main", seed=seed), seed,
               Regime.YILMA_FALLBACK)


def golden_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for name, g, seed, force in _corpus():
        outcome = label(g, seed=seed, force_regime=force)
        h.update(f"== {name}\n".encode())
        h.update(emit_labelling(outcome.labelling).encode())
        h.update(json.dumps(outcome_trace(outcome, seed),
                            sort_keys=True).encode())
        if force is None:
            h.update(_explain_stdout(g, tmp_path, name).encode())
    return h.hexdigest()


def test_golden_outputs_unchanged(tmp_path):
    assert golden_digest(tmp_path) == GOLDEN_SHA256
