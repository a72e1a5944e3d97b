import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import antimagic
from antimagic import (
    Regime,
    build_graph,
    gen_instance,
    label,
    outcome_trace,
    verify_antimagic,
)
from antimagic.errors import NotAntimagicShape, WrongMaxDegree


def test_shape_guard_isolated_edge():
    with pytest.raises(NotAntimagicShape):
        label(build_graph(2, [(1, 2)]))


def test_shape_guard_two_isolated_vertices():
    g = build_graph(5, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotAntimagicShape):
        label(g)


def test_universal_vertex_routing():
    g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    out = label(g)
    assert out.regime == Regime.DELTA_N1
    assert out.status == "constructed"
    assert verify_antimagic(g, out.labelling).ok


def test_unsupported_falls_back_to_search():
    # Max degree n - 4 but m < 7n: outside the construction, the seeded
    # search must still deliver a verified labelling.
    g = build_graph(8, [(1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (3, 6),
                        (4, 7), (5, 6), (6, 7), (7, 8)])
    assert g.max_degree() == g.n - 4
    out = label(g, seed=3)
    assert out.status == "searched_fallback"
    assert out.regime == Regime.UNSUPPORTED
    assert verify_antimagic(g, out.labelling).ok


def test_other_max_degree_falls_back():
    # Delta = n - 2: covered by neither construction.
    g = build_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5)])
    assert g.max_degree() == g.n - 2
    out = label(g, seed=1)
    assert out.status == "searched_fallback"
    assert verify_antimagic(g, out.labelling).ok


def test_yilma_falls_back_with_status():
    g = gen_instance(20, "yilma", seed=5)
    out = label(g, seed=5)
    assert out.regime == Regime.YILMA_FALLBACK
    assert out.status == "searched_fallback"
    assert verify_antimagic(g, out.labelling).ok


def test_constructed_statuses_per_regime():
    for target, machinery in [
        ("main", Regime.MAIN),
        ("degen_i1", Regime.DEGEN_I1),
        ("degen_i2", Regime.DEGEN_I2),
        ("degen_i3", Regime.DEGEN_I3),
        ("disc_u3_isolated", Regime.DISC_U3_ISOLATED),
        ("disc_triple", Regime.DISC_TRIPLE_COMPONENT),
    ]:
        g = gen_instance(max(21, 19), target, seed=2)
        out = label(g, seed=2)
        assert out.status == "constructed"
        assert out.regime == machinery
        assert verify_antimagic(g, out.labelling).ok


def test_force_regime_requires_decomposition():
    g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    with pytest.raises(WrongMaxDegree):
        label(g, force_regime=Regime.MAIN)


def test_trace_shape():
    g = gen_instance(20, "main", seed=4)
    out = label(g, seed=4)
    doc = outcome_trace(out, seed=4)
    assert doc["status"] == "constructed"
    assert doc["regime"] == "MAIN"
    assert set(doc["decomposition"]) == {"r", "u", "d_prime"}
    assert len(doc["stage_sums"]) == g.n
    assert set(doc["properties"]["gaps"]) == {
        "u3_u2", "u2_u1", "root_margin", "h_min_gap"}
    res = doc["resolution"]
    assert {"case", "plans_tried", "applied", "paper_directed",
            "gap_warning"} <= set(res)


# Run under ``python -O``, where a bare assert would vanish: resolve is
# patched to hand back a labelling with an equal-sum pair, and the final
# check must still refuse it, in the library and at the command line.
_UNVERIFIED_RESOLUTION = textwrap.dedent("""
    import sys
    from pathlib import Path

    import antimagic.pipeline as pipeline
    from antimagic import gen_instance, label, verify_antimagic
    from antimagic.cli import main
    from antimagic.errors import ProofViolation
    from antimagic.fileio import emit_graph

    assert sys.flags.optimize, "run me under python -O"
    g = gen_instance(20, "main", seed=7)
    real_resolve = pipeline.resolve

    def conflicting_resolve(stage, d):
        good, trace = real_resolve(stage, d)
        for x in range(1, g.m + 1):
            for y in range(x + 1, g.m + 1):
                bad = good.copy()
                bad.swap_labels(x, y)
                if not verify_antimagic(g, bad).ok:
                    return bad, trace
        raise SystemExit("no label swap makes a conflict")

    pipeline.resolve = conflicting_resolve
    try:
        label(g, seed=7)
    except ProofViolation as exc:
        assert exc.reproducer and exc.details["conflicts"]
    else:
        raise SystemExit("label() returned a labelling that is not antimagic")
    path = Path(sys.argv[1]) / "g.graph"
    path.write_text(emit_graph(g))
    print("exit", main(["label", str(path), "--seed", "7"]))
""")


def test_unverified_resolution_rejected_under_optimize(tmp_path):
    src = str(Path(antimagic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNVERIFIED_RESOLUTION, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "exit 4"
    assert "proof violation" in proc.stderr
    assert "reproducer:" in proc.stderr
