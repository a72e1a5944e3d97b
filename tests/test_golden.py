"""Golden check: stage-1 output, traces and ``explain`` text stay byte-identical.

One SHA-256 per corpus group over three renderings pins the observable
behaviour of the whole pipeline, so a refactor that claims "same
behaviour" can prove it.  The groups are each generator target at five
seeds (n <= 40), five maximum-degree n - 1 graphs (``universal``), the
pinned conflicted seeds (``conflicted``) and three runs forced onto the
randomized fallback (``forced``).  A change that alters output on
purpose must say so and re-pin exactly the groups it moves; the others
prove that nothing else changed.
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

GOLDEN_SHA256 = {
    "main":
        "867f8e7b9b73619e8a5ed49655b037aa1599dac4a90a9866c91b3b43a00dac8b",
    "main_triple":
        "1195a12b7d1210127ba2edefcd65ca5a1df1ac39926d2bb00ded109dbbdb2fe2",
    "degen_i1":
        "9bcb28f60ae2205fb983503f01f0321cba8df4e724e8e6c52c6b1ae9eaafc9fa",
    "degen_i2":
        "9a3d1c730298043014e4440b6528f1853a6a7355d51dcf4d168aefebbfe0c2eb",
    "degen_i3":
        "903e729176fe04a899aa499f21bd41c555918ace615cc79f385dece4431a4885",
    "disc_u3_isolated":
        "06788ef84f32449fd88f3b78b945d2671b092e6fea57adb98fa63f1053c2b863",
    "disc_triple":
        "f4b202c4d0889ad8e7c13ae23d8db9dbb65cc9d8aa01f3f044acddcbfd87c766",
    "yilma":
        "2b95f6269aa31c8659923f54dc6b3dcaf31b7fd67a2bee2add5e7d59adea5cc0",
    "universal":
        "21c1c517afe8b91f5389b6a93ff2b867fc6b56cb57c79edf626ce43e6e91a799",
    "conflicted":
        "fd4b5ec0ad0e0072651021cd67195664cd45463e467ec216ad9358c9c7436e83",
    "forced":
        "fa4d2332c961333822a1a53f2115d916e42a30fae8eb93f4c98482a3a0a378ef",
}


def _explain_stdout(g, tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.graph"
    path.write_text(emit_graph(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["explain", str(path), "--seed", "1"])
    return f"exit {code}\n{out.getvalue()}"


def _corpus():
    """(group, name, graph, seed, forced regime) for every golden instance."""
    for target in TARGETS:
        lo = min_feasible_n(target)
        for k in range(5):
            yield (target, f"{target}_{k}",
                   gen_instance(lo + 4 * k, target, seed=k + 1), k + 1, None)
    rng = random.Random(20240901)
    for n in (5, 8, 11, 14, 17):
        yield ("universal", f"universal_{n}", random_universal_graph(n, rng),
               1, None)
    for target, n, seed, _ in CONFLICTED:
        yield ("conflicted", f"conflicted_{target}_{n}_{seed}",
               gen_instance(n, target, seed=seed), seed, None)
    for n, seed in ((19, 2), (20, 3), (21, 4)):
        yield ("forced", f"forced_{n}", gen_instance(n, "main", seed=seed),
               seed, Regime.YILMA_FALLBACK)


def golden_digests(tmp_path) -> dict[str, str]:
    hashes = {}
    for group, name, g, seed, force in _corpus():
        h = hashes.setdefault(group, hashlib.sha256())
        outcome = label(g, seed=seed, force_regime=force)
        h.update(f"== {name}\n".encode())
        h.update(emit_labelling(outcome.labelling).encode())
        h.update(json.dumps(outcome_trace(outcome, seed),
                            sort_keys=True).encode())
        if force is None:
            h.update(_explain_stdout(g, tmp_path, name).encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def test_golden_outputs_unchanged(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN_SHA256
