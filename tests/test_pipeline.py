import dataclasses
import os
import re
import subprocess
import sys
import textwrap
from itertools import islice
from pathlib import Path

import pytest

import antimagic
import antimagic.colouring as colouring
import antimagic.construction as construction
import antimagic.oracle as oracle
import antimagic.resolution as resolution
from antimagic import (
    EdgeColouring,
    Regime,
    build_graph,
    gen_instance,
    label,
    outcome_trace,
    verify_antimagic,
)
from antimagic.cli import main
from antimagic.errors import NotAntimagicShape, ProofViolation
from antimagic.fileio import emit_graph
from antimagic.graph import InstanceDecomposition


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


def test_only_stage_one_reads_the_non_root_edges(monkeypatch):
    # The fallback routes, forced or natural, and the generator's own
    # decomposition never ask for the edge ids away from r.
    def unread(d, m):
        raise RuntimeError("non-root edge ids read")
    monkeypatch.setattr(InstanceDecomposition, "non_root_edges", unread)
    for target, n, seed, force in (("main", 24, 1, Regime.YILMA_FALLBACK),
                                   ("yilma", 20, 5, None)):
        g = gen_instance(n, target, seed=seed)
        out = label(g, seed=seed, force_regime=force)
        assert out.status == "searched_fallback"
        assert verify_antimagic(g, out.labelling).ok
    # Stage 1 does read them, so the patch is live.
    with pytest.raises(RuntimeError, match="non-root edge ids read"):
        label(gen_instance(24, "main", seed=1), seed=1)


def test_force_regime_accepts_only_the_fallback():
    # Rejected before any work: this graph has an isolated edge, which
    # would otherwise raise NotAntimagicShape.
    g = build_graph(2, [(1, 2)])
    for regime in Regime:
        if regime != Regime.YILMA_FALLBACK:
            with pytest.raises(ValueError, match="force_regime"):
                label(g, force_regime=regime)


# Faults injected below label(), one per module with guards.  Each
# patches the library and returns the instance it breaks and the
# message its guard raises.

def _no_donor_path(monkeypatch):
    # i = 3 still balances its H-H classes (once on this graph); MAIN
    # packs its classes and balances nothing.
    monkeypatch.setattr(colouring, "_donor_path", lambda g, recv, donor: [])
    return ("degen_i3", 19, 3), "class balancing failed to make progress"


# MAIN on gen_instance(20, "main", 1): d' = (10, 8, 5), so t = 5, and the
# ten classes feed intervals 6 .. 15, the first a1 = 5 of them opening
# with u1's surplus edges.

def _u1_edge_lost(monkeypatch):
    # The order check is bypassed and the classes come back reversed:
    # interval 6 gets the last class, which holds no u1 edge.
    monkeypatch.setattr(
        construction, "order_classes_for_vertex",
        lambda c, v, count: EdgeColouring(c.graph, c.classes[::-1]))
    return ("main", 20, 1), "class for interval 6 lost its u1 edge"


def _class_too_small(monkeypatch):
    pack = construction.pack_matchings

    def short(g, seeds, pool, count, size):
        col = pack(g, seeds, pool, count, size)
        return EdgeColouring(g, tuple(cls[:-1] for cls in col.classes))
    monkeypatch.setattr(construction, "pack_matchings", short)
    return ("main", 20, 1), "class for interval 6 too small"


def _pool_ran_dry(monkeypatch):
    # One edge short of ten classes of three, the five seeds among them:
    # the last class cannot fill.
    pack = construction.pack_matchings
    monkeypatch.setattr(
        construction, "pack_matchings",
        lambda g, seeds, pool, count, size: pack(
            g, seeds, islice(pool, count * size - 1 - len(seeds)), count,
            size))
    return ("main", 20, 1), ("no 3 pairwise disjoint unused pool edges for "
                             "class 10 of 10")


def _repeated_u_edge(monkeypatch):
    h_edges = construction._h_edges
    monkeypatch.setattr(construction, "_h_edges",
                        lambda g, d, u: h_edges(g, d, u)[:1] * 2)
    return ("degen_i1", 20, 1), r"edge \d+ already labelled"


def _conflict_without_u_rank(monkeypatch):
    # resolve asks find_conflicts only about a stage with equal sums, so
    # this runs on a conflicted MAIN stage (case 6 in CONFLICTED).
    find = resolution.find_conflicts

    def no_rank(lab, d, sums):
        return dataclasses.replace(find(lab, d, sums), u_ranks=(),
                                   pairs=((d.u[0], d.h_vertices[0]),))
    monkeypatch.setattr(resolution, "find_conflicts", no_rank)
    return ("main", 19, 41), r"conflict ranks \[\] fit no case"


def _koenig_class_lost(monkeypatch):
    koenig = construction.koenig_colour

    def short(g, edge_ids, k, side):
        col = koenig(g, edge_ids, k, side)
        return dataclasses.replace(col, classes=col.classes[1:])
    monkeypatch.setattr(construction, "koenig_colour", short)
    return ("main", 20, 1), "Koenig colouring of G1 used"


def _hh_class_ran_dry(monkeypatch):
    # i = 3's H-H classes come back empty, so interval 10, the first
    # pending one (d' = (11, 10, 3)), finds no edge for its single slot.
    monkeypatch.setattr(
        construction, "balance_classes",
        lambda c, min_size: EdgeColouring(c.graph, ((),) * len(c.classes)))
    return ("degen_i3", 19, 1), (r"H-H class for interval 10 has no edge "
                                 r"avoiding u1's neighbour \d+")


def _u_pair_clash(monkeypatch):
    # On this graph u1's and u2's first H ends are both vertex 5, so
    # shift 0 pairs them in interval 0.
    monkeypatch.setattr(construction, "clash_free_shift", lambda a, b: 0)
    return ("degen_i3", 19, 1), "u-edge pair for interval 0 shares its H end 5"


def _repeated_search_label(monkeypatch):
    # Every shuffle of the fallback's labels copies one label over
    # another, so the search ends on a labelling that is no bijection.
    shuffle = oracle.shuffle

    def repeat(rng, labels):
        shuffle(rng, labels)
        labels[0] = labels[1]
    monkeypatch.setattr(oracle, "shuffle", repeat)
    return ("yilma", 20, 5), ("randomized search returned labels that "
                              "are not a bijection")


FAULTS = [_no_donor_path, _u1_edge_lost, _class_too_small, _pool_ran_dry,
          _repeated_u_edge, _conflict_without_u_rank, _koenig_class_lost,
          _hh_class_ran_dry, _u_pair_clash, _repeated_search_label]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__[1:])
def test_label_attaches_the_graph_to_every_proof_violation(fault,
                                                           monkeypatch):
    (target, n, seed), message = fault(monkeypatch)
    g = gen_instance(n, target, seed=seed)
    with pytest.raises(ProofViolation, match=message) as info:
        label(g, seed=seed)
    assert info.value.reproducer == emit_graph(g)


def test_cli_prints_the_reproducer_on_exit_4(monkeypatch, tmp_path, capsys):
    (target, n, seed), _ = _no_donor_path(monkeypatch)
    g = gen_instance(n, target, seed=seed)
    path = tmp_path / "g.graph"
    path.write_text(emit_graph(g))
    assert main(["label", str(path), "--seed", str(seed)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("proof violation: class balancing failed")
    assert "\nreproducer:\n" + emit_graph(g) in err


def test_trace_shape():
    g = gen_instance(20, "main", seed=4)
    out = label(g, seed=4)
    doc = outcome_trace(out, seed=4)
    assert doc["status"] == "constructed"
    assert doc["regime"] == "MAIN"
    assert set(doc["decomposition"]) == {
        "r", "u", "d_prime", "triple_edges", "degenerate_index"}
    assert len(doc["stage_sums"]) == g.n
    assert set(doc["properties"]["gaps"]) == {
        "u3_u2", "u2_u1", "root_margin", "h_min_gap"}
    final = doc["final"]
    assert set(final) == {"r_sum", "u_sums", "min_h_sum", "gaps"}
    assert set(final["gaps"]) == set(doc["properties"]["gaps"])
    res = doc["resolution"]
    assert {"case", "plans_tried", "applied", "paper_directed",
            "gap_warning", "rejections"} <= set(res)


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


# Under ``python -O`` as well: every guard of the stage-1 writer and of
# the fill must refuse its corrupted batch (``FILL_GUARDS``), each with
# its own message.
_BAD_BATCHES = textwrap.dedent("""
    import sys

    import antimagic.construction as construction
    from antimagic.errors import ProofViolation
    from test_construction import FILL_GUARDS, _fill_input

    if not sys.flags.optimize:
        raise SystemExit("run me under python -O")
    for prepare, root_labels, message in FILL_GUARDS:
        g, label_of, given, e23, e34 = _fill_input()
        try:
            if prepare:
                prepare(g, label_of, given, e23, e34)
            construction._fill_rest_and_root(g, label_of, given, 1,
                                             root_labels)
        except ProofViolation as exc:
            print(exc)
        else:
            raise SystemExit(f"{message!r} was not raised")
""")


def test_bad_assignment_rejected_under_optimize():
    from test_construction import FILL_GUARDS
    src = str(Path(antimagic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (src, str(Path(__file__).parent))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_BATCHES],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(FILL_GUARDS)
    for line, (_, _, message) in zip(lines, FILL_GUARDS):
        assert re.search(message, line), (message, line)
