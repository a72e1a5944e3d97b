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
        "11857ec68d439aa83e1ffa5e58ad27fb788aa7f4bca85021a408a7f181bfebdf",
    "main_triple":
        "b62bd4ba4ee67c77e9dfc0af5de6a3e1851f99c0c6e4aa636bbd9d1fd0716dce",
    "degen_i1":
        "becdcfe2e6fc141b8010682483370f0ff4f35e0f7e83e597930ff2684b80ea73",
    "degen_i2":
        "95cde74abdaa877501fcf417abd29bcfed01d07fa7bdb5cce59dcd76213d2ed0",
    "degen_i3":
        "00e9bdc3f0758c98da90b736eaa80b1a68c460b9612ebc9828886ff21a144d8a",
    "disc_u3_isolated":
        "2f55dbbf155620cf01aca2b52937948841264762758a49181587f7b0b7068dd7",
    "disc_triple":
        "0e416547a3eedea1fc7868254edfb48cbd9be0011686aa2dd1c51abc3f293314",
    "yilma":
        "cbafaeadcdf618bdff6addc21a3632edc168c545fbabe7e2d6c0ebfbc22b6147",
    "universal":
        "21c1c517afe8b91f5389b6a93ff2b867fc6b56cb57c79edf626ce43e6e91a799",
    "conflicted":
        "a2c48c4154a2798118938dc51084da2dc6733bec34e82daeef0cfe9d03e52e90",
    "forced":
        "f863d4b00e29a313d101c77c572b8cba0f2a45cbedd845379ce7cb2a843f5dc7",
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
    for target, n, seed, *_ in CONFLICTED:
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
