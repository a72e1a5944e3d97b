import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antimagic.cli as cli
from antimagic import build_graph, gen_instance
from antimagic.cli import main
from antimagic.fileio import (
    emit_graph,
    emit_labelling,
    parse_graph,
    parse_labelling,
)
from antimagic.pipeline import label
from antimagic.labelling import Labelling
from antimagic.errors import NotAntimagicShape, ParseError
from antimagic.generator import TARGETS, min_feasible_n


@pytest.fixture()
def main_graph_file(tmp_path):
    g = gen_instance(20, "main", seed=7)
    path = tmp_path / "g.graph"
    path.write_text(emit_graph(g))
    return g, path


def test_graph_round_trip():
    g = gen_instance(19, "main", seed=2)
    assert parse_graph(emit_graph(g)).edges == g.edges


def test_labelling_round_trip():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    lab = Labelling.from_labels(g, [3, 1, 2])
    assert parse_labelling(emit_labelling(lab), g) == lab.label_of


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError):
        parse_graph("q 3 2\ne 1 2\ne 2 3\n")


def test_hostile_header_rejected_before_allocating():
    # n > 2m + 1 means two isolated vertices; the header alone decides,
    # so the graph's n + 1 build maps are never allocated.
    text = "p 100000 3\ne 1 2\ne 2 3\ne 3 4\n"
    tracemalloc.start()
    try:
        with pytest.raises(NotAntimagicShape):
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_label_verify_round_trip(main_graph_file, tmp_path):
    _, path = main_graph_file
    out = tmp_path / "labels.txt"
    trace = tmp_path / "trace.json"
    assert main(["label", str(path), "--out", str(out),
                 "--trace", str(trace), "--seed", "7"]) == 0
    assert main(["verify", str(path), str(out)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["status"] == "constructed"
    assert doc["regime"] == "MAIN"
    assert doc["decomposition"]["r"] == 1


def test_malformed_header_exit_2(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("frobnicate\n")
    assert main(["label", str(bad)]) == 2


def test_undecodable_bytes_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"p 3 2\ne 1 2\ne 2 \xff3\n")
    assert main(["label", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error: cannot read")


def test_k2_exit_3(tmp_path):
    f = tmp_path / "k2.graph"
    f.write_text("p 2 1\ne 1 2\n")
    assert main(["label", str(f)]) == 3


def test_force_regime_delta_n1_exit_2(tmp_path, capsys):
    # Only the fallback can be forced; the universal-vertex route is
    # taken from the graph alone.
    f = tmp_path / "c5.graph"
    f.write_text("p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["label", str(f), "--force-regime", "DELTA_N1"])
    assert exc.value.code == 2
    assert "invalid choice: 'DELTA_N1'" in capsys.readouterr().err


def test_k1_label_verify(tmp_path, capsys):
    f = tmp_path / "k1.graph"
    f.write_text("p 1 0\n")
    out = tmp_path / "k1.lab"
    assert main(["label", str(f), "--out", str(out)]) == 0
    assert "status Constructed" in capsys.readouterr().err
    assert main(["verify", str(f), str(out)]) == 0


def test_verify_conflicting_labelling_exit_1(main_graph_file, tmp_path):
    g, path = main_graph_file
    lines = [f"{u} {v} {eid + 1}" for eid, (u, v) in enumerate(g.edges)]
    # Duplicate a label: verification (not parsing) must flag it.
    lines[1] = lines[1].rsplit(" ", 1)[0] + " 1"
    lab = tmp_path / "bad_labels.txt"
    lab.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path), str(lab)]) == 1


def test_verify_equal_sums_exit_1(tmp_path, capsys):
    # A bijection whose vertex sums collide: P4 labelled 2, 1, 3 gives
    # sums 2, 3, 4, 3.
    graph = tmp_path / "p4.graph"
    graph.write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    lab = tmp_path / "p4.lab"
    lab.write_text("1 2 2\n2 3 1\n3 4 3\n")
    assert main(["verify", str(graph), str(lab)]) == 1
    assert capsys.readouterr().out == \
        "antimagic FAILED: conflicting pairs (2,4) sum 3\n"


def test_verify_wrong_edge_count_exit_2(main_graph_file, tmp_path):
    _, path = main_graph_file
    lab = tmp_path / "short.txt"
    lab.write_text("1 5 1\n")
    assert main(["verify", str(path), str(lab)]) == 2


def test_generate_infeasible_n_exit_3(tmp_path):
    assert main(["generate", "--n", "15", "--regimes", "main",
                 "--out-dir", str(tmp_path)]) == 3


def test_generate_infeasible_later_regime_writes_nothing(tmp_path):
    # disc_triple needs n >= 21: the whole schedule is checked before
    # main_n19_s1.graph could be written.
    out = tmp_path / "out"
    assert main(["generate", "--n", "19", "--count", "2",
                 "--regimes", "main,disc_triple", "--out-dir", str(out)]) == 3
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv,bad", [
    (["generate", "--n", "20", "--count", "-2"], "--count -2"),
    (["stress", "--count", "-1"], "--count -1"),
    (["stress", "--n-min", "30", "--n-max", "20"], "--n-min 30"),
], ids=["generate-count", "stress-count", "stress-range"])
def test_negative_count_and_inverted_range_exit_2(argv, bad, tmp_path,
                                                   capsys):
    # A usage error: one line naming the bad value, nothing written.
    out = tmp_path / "out"
    if argv[0] == "generate":
        argv = argv + ["--out-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1 and bad in captured.err


def test_generate_writes_parseable_files(tmp_path, capsys):
    assert main(["generate", "--n", "20", "--count", "2",
                 "--regimes", "main,degen_i3", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    names = ["main_n20_s5.graph", "degen_i3_n20_s6.graph"]
    assert capsys.readouterr().out.split() == names
    files = sorted(tmp_path.glob("*.graph"))
    assert sorted(f.name for f in files) == sorted(names)
    for f in files:
        g = parse_graph(f.read_text())
        assert g.m >= 7 * g.n


def test_label_out_unwritable_exit_2(main_graph_file, tmp_path, capsys):
    _, path = main_graph_file
    out = tmp_path / "missing" / "x.lab"
    assert main(["label", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("write error:") and str(out) in err
    assert "Traceback" not in err


def test_label_trace_unwritable_exit_2(main_graph_file, tmp_path, capsys):
    _, path = main_graph_file
    trace = tmp_path / "missing" / "trace.json"
    assert main(["label", str(path), "--out", str(tmp_path / "x.lab"),
                 "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("write error:") and str(trace) in err


def test_generate_out_dir_uncreatable_exit_2(tmp_path, capsys):
    # A directory cannot be made below a regular file.
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "corpus"
    assert main(["generate", "--n", "20", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("write error:") and str(out) in err


def test_bad_seed_env_fails_only_commands_with_seed(main_graph_file,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    g, path = main_graph_file
    lab = tmp_path / "x.lab"
    lab.write_text(emit_labelling(label(g).labelling))
    monkeypatch.setenv("ANTIMAGIC_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["label", str(path), "--out", str(lab)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["verify", str(path), str(lab)]) == 0
    assert main(["label", str(path), "--out", str(lab), "--seed", "3"]) == 0


def _fresh_run(argv, out_dir):
    """A command's exit code, stdout and the files it writes to
    ``out_dir``, from a process of its own."""
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "antimagic.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, _files(out_dir)


def _files(out_dir):
    return {f.name: f.read_bytes() for f in sorted(out_dir.glob("*"))}


def test_one_parser_serves_alternating_commands(main_graph_file, tmp_path,
                                                capsys):
    g, path = main_graph_file
    lab = tmp_path / "g.lab"
    lab.write_text(emit_labelling(label(g).labelling))
    out_dir = tmp_path / "gen"
    calls = [["label", str(path), "--seed", "3"],
             ["verify", str(path), str(lab)],
             ["generate", "--n", "20", "--count", "2", "--regimes",
              "degen_i3", "--seed", "4", "--out-dir", str(out_dir)]]
    fresh = [_fresh_run(argv, out_dir) for argv in calls]
    cli._parser.cache_clear()
    for argv, want in zip(calls * 2, fresh * 2):
        shutil.rmtree(out_dir, ignore_errors=True)
        code = main(argv)
        assert (code, capsys.readouterr().out, _files(out_dir)) == want
    assert cli._parser.cache_info().misses == 1


def test_determinism_byte_identical(main_graph_file, tmp_path):
    _, path = main_graph_file
    outs, traces = [], []
    for run in (1, 2):
        out = tmp_path / f"l{run}.txt"
        tr = tmp_path / f"t{run}.json"
        assert main(["label", str(path), "--out", str(out),
                     "--trace", str(tr), "--seed", "3"]) == 0
        outs.append(out.read_bytes())
        traces.append(tr.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_explain_prints_regime_and_margins(main_graph_file, capsys):
    _, path = main_graph_file
    assert main(["explain", str(path)]) == 0
    text = capsys.readouterr().out
    assert "regime = MAIN" in text
    assert "margins:" in text


def test_explain_degen_i1_mentions_bound(tmp_path, capsys):
    g = gen_instance(20, "degen_i1", seed=2)
    path = tmp_path / "i1.graph"
    path.write_text(emit_graph(g))
    assert main(["explain", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "degenerate index i = 1" in lines
    # n = 20, m = 140: the H bound is max(m - (n - 5), 101) = 125.
    assert ("i=1 bounds: sum(u1) = 22 <= 38, min H sum = 884 >= 125"
            in lines)


def test_explain_i1_bounds_follow_the_stage(tmp_path, capsys):
    # A triple component is labelled by the i = 1 constructor and
    # checked against the same bounds (n = 24, m = 193).
    path = tmp_path / "triple.graph"
    path.write_text(emit_graph(gen_instance(24, "disc_triple", seed=1)))
    assert main(["explain", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "regime = DISC_TRIPLE_COMPONENT" in lines
    assert ("i=1 bounds: sum(u1) = 5 <= 38, min H sum = 1353 >= 174"
            in lines)
    # d' = (1, 1, 1) but m < 7n: randomized search labels it, no i = 1
    # stage is checked, and no bounds are printed.
    g = build_graph(8, [(1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (3, 6),
                        (4, 7), (5, 6)])
    path.write_text(emit_graph(g))
    assert main(["explain", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "regime = UNSUPPORTED" in lines
    assert "degenerate index i = 1" in lines
    assert not any(line.startswith("i=1 bounds") for line in lines)


def test_explain_prints_from_the_trace(main_graph_file, monkeypatch, capsys):
    # explain labels once, takes one trace and prints its numbers from
    # it: altered numbers in the trace show up altered in the output.
    _, path = main_graph_file
    real_label, real_trace = cli.label, cli.outcome_trace
    calls = []

    def counted_label(*args, **kwargs):
        calls.append("label")
        return real_label(*args, **kwargs)

    def altered_trace(*args, **kwargs):
        calls.append("outcome_trace")
        doc = real_trace(*args, **kwargs)
        doc["regime"] = "DEGEN_I1"
        doc["decomposition"]["degenerate_index"] = 1
        doc["final"].update(r_sum=-101, u_sums=[-1, -2, -3], min_h_sum=-11)
        doc["final"]["gaps"].update(u3_u2=-7, u2_u1=-8, root_margin=-9,
                                    h_min_gap=-10)
        doc["resolution"]["plans_tried"] = 77
        return doc

    monkeypatch.setattr(cli, "label", counted_label)
    monkeypatch.setattr(cli, "outcome_trace", altered_trace)
    assert main(["explain", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert calls == ["label", "outcome_trace"]
    assert "regime = DEGEN_I1" in lines
    assert "degenerate index i = 1" in lines
    assert "sums: r = -101, u1 = -1, u2 = -2, u3 = -3" in lines
    assert "margins: u3->u2 -7, u2->u1 -8, root -9, H spacing -10" in lines
    # The bounds are the graph's own: n = 20, m = 147.
    assert "i=1 bounds: sum(u1) = -1 <= 38, min H sum = -11 >= 132" in lines
    assert any(line.startswith("resolution: case none, plans tried 77,")
               for line in lines)
    for name in ("recompute_sums", "margins", "degenerate_index"):
        assert not hasattr(cli, name)


@st.composite
def connected_graphs(draw):
    """(n, edges): a random spanning tree on 1..n plus random extra edges,
    in a random order."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return n, draw(st.permutations(sorted(edges)))


@settings(max_examples=120, deadline=None)
@given(connected_graphs())
def test_label_and_explain_agree_on_exit_code(graph):
    n, edges = graph
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        path.write_text(emit_graph(build_graph(n, edges)))
        codes = []
        for command in ("label", "explain"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main([command, str(path)]))
    assert codes[0] == codes[1]


@pytest.mark.parametrize("name,n,edges", [
    ("triangle", 3, [(1, 2), (2, 3), (1, 3)]),
    ("universal", 6, [(1, v) for v in range(2, 7)]
     + [(2, 3), (3, 4), (4, 5), (5, 6)]),
])
def test_explain_handles_delta_n1(tmp_path, capsys, name, n, edges):
    # Delta = n - 1 graphs have no max-degree-(n-4) decomposition;
    # explain must still exit 0 wherever label does.
    path = tmp_path / f"{name}.graph"
    path.write_text(emit_graph(build_graph(n, edges)))
    assert main(["label", str(path)]) == 0
    capsys.readouterr()
    assert main(["explain", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "regime = DELTA_N1" in lines
    assert "status = constructed" in lines
    assert not any(line.startswith("root r =") for line in lines)


def test_stress_smoke(capsys):
    assert main(["stress", "--count", "8", "--n-min", "16", "--n-max", "24",
                 "--regimes", "main,degen_i3", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert "exchanges applied histogram" in text
    assert text.splitlines()[0].split() == ["regime", "ok", "bad",
                                            "conflicted"]
    cases = next(line for line in text.splitlines()
                 if line.startswith("resolution cases: "))
    counts = [int(x.split(": ")[1])
              for x in cases.removeprefix("resolution cases: ").split(", ")]
    assert sum(counts) == 8


STRESS_CONFLICTED = ["stress", "--count", "1", "--n-min", "19", "--n-max",
                     "19", "--regimes", "main", "--seed", "44"]


def test_stress_counts_a_conflicted_run(capsys):
    # Seed 44 at n = 19 is a main graph whose stage 1 needs case 7.1.
    assert main(STRESS_CONFLICTED) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["main", "1", "0", "1"]
    assert "resolution cases: 7.1: 1" in lines


def test_stress_reports_failures_exit_1(monkeypatch, capsys):
    fail = cli.verify_antimagic(build_graph(2, [(1, 2)]), [1])
    assert not fail.ok
    monkeypatch.setattr(cli, "verify_antimagic", lambda g, lab: fail)
    assert main(STRESS_CONFLICTED) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["main", "0", "1", "1"]
    assert lines[-1] == "failures: [('main', 19, 44)]"


def test_stress_checks_the_bijection_first(monkeypatch, capsys):
    # verify_antimagic assumes a bijection, so a failed bijection check
    # alone must count the run as bad.
    fail = cli.verify_bijection(build_graph(2, [(1, 2)]), [2])
    assert not fail.ok
    monkeypatch.setattr(cli, "verify_bijection", lambda g, lab: fail)
    assert main(STRESS_CONFLICTED) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["main", "0", "1", "1"]
    assert lines[-1] == "failures: [('main', 19, 44)]"


def test_force_regime_hook(main_graph_file, tmp_path, capsys):
    _, path = main_graph_file
    # A constructor cannot be forced: argparse rejects the choice.
    with pytest.raises(SystemExit) as exc:
        main(["label", str(path), "--force-regime", "DEGEN_I1"])
    assert exc.value.code == 2
    capsys.readouterr()
    # The fallback can: a main-regime graph is labelled by search.
    out = tmp_path / "forced.lab"
    assert main(["label", str(path), "--out", str(out),
                 "--force-regime", "YILMA_FALLBACK"]) == 0
    assert capsys.readouterr().err == \
        "status SearchedFallback regime YILMA_FALLBACK\n"
    assert main(["verify", str(path), str(out)]) == 0


def test_fallback_status_for_yilma(tmp_path, capsys):
    g = gen_instance(20, "yilma", seed=1)
    path = tmp_path / "y.graph"
    path.write_text(emit_graph(g))
    out = tmp_path / "y_labels.txt"
    assert main(["label", str(path), "--out", str(out), "--seed", "1"]) == 0
    assert "SearchedFallback" in capsys.readouterr().err
    assert main(["verify", str(path), str(out)]) == 0


# -- fuzzing the trust boundary ------------------------------------------
#
# Graph and labelling files from three small graphs (a constructed main
# graph, a fallback graph and the triangle), each broken in one way, go
# through label, verify and explain.  Every input class must get its
# documented exit code, and no exception may escape main().  Headers
# with n > 2m + 1 keep n small, so that a regression in their early
# rejection cannot allocate much.

_BAD_TOKENS = ["x", "1.5", "", "9" * 5000]


@functools.lru_cache(maxsize=None)
def _fuzz_bases():
    graphs = [gen_instance(19, "main", seed=1),
              gen_instance(19, "yilma", seed=1),
              build_graph(3, [(1, 2), (2, 3), (1, 3)])]
    return [(g, emit_labelling(label(g, seed=1).labelling)) for g in graphs]


def _break_line(draw, line, bad_tokens):
    parts = line.split()
    if draw(st.booleans()):
        return " ".join(parts[:-1])                    # truncated
    k = draw(st.integers(1 if parts[0] == "e" else 0, len(parts) - 1))
    parts[k] = draw(st.sampled_from(bad_tokens))
    return " ".join(parts)                             # malformed


@st.composite
def graph_files(draw, g):
    """(bytes, exit code of label and explain) for a broken graph file."""
    lines = emit_graph(g).splitlines()
    n, m = g.n, g.m
    i = draw(st.integers(1, m))
    fault = draw(st.sampled_from(
        ["none", "drop", "break", "header", "count", "isolated",
         "duplicate", "self_loop", "out_of_range", "bytes"]))
    code = 2
    if fault == "none":
        code = 0
    elif fault == "drop":
        del lines[i]
    elif fault == "break":
        lines[i] = _break_line(draw, lines[i], _BAD_TOKENS + ["-1", "0"])
    elif fault == "header":
        lines[0] = draw(st.sampled_from(
            [f"q {n} {m}", f"p {n}", f"p x {m}", f"p {n} {m} 1", "e 1 2"]))
    elif fault == "count":
        lines[0] = f"p {n} {m + draw(st.sampled_from([-1, 1]))}"
    elif fault == "isolated":
        lines[0], code = f"p {2 * m + draw(st.integers(2, 999))} {m}", 3
    elif fault != "bytes":
        u, v = g.edges[i - 1]
        lines[0] = f"p {n} {m + 1}"
        lines.append({"duplicate": f"e {v} {u}", "self_loop": f"e {u} {u}",
                      "out_of_range": f"e {u} {n + 1}"}[fault])
    data = ("\n".join(lines) + "\n").encode()
    if fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, code


@st.composite
def labelling_files(draw, g, text):
    """(bytes, exit code of verify on a good graph) for a broken
    labelling file."""
    lines = [line.split() for line in text.splitlines()]
    if draw(st.booleans()):                            # still legal
        lines = [[v, u, lbl] for u, v, lbl in draw(st.permutations(lines))]
    j, k = draw(st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2,
                         unique=True))
    fault = draw(st.sampled_from(
        ["none", "repeat", "range", "drop", "break", "not_in_graph",
         "twice", "bytes"]))
    code = {"none": 0, "repeat": 1, "range": 1}.get(fault, 2)
    if fault == "repeat":
        lines[j][2] = lines[k][2]
    elif fault == "range":
        lines[j][2] = str(draw(st.sampled_from([0, g.m + 1, -3])))
    elif fault == "drop":
        del lines[j]
    elif fault == "not_in_graph":
        lines[j][:2] = ["1", str(g.n + 1)]
    elif fault == "twice":
        lines[j][:2] = lines[k][:2]
    rows = [" ".join(line) for line in lines]
    if fault == "break":
        rows[j] = _break_line(draw, rows[j], _BAD_TOKENS)
    data = ("\n".join(rows) + "\n").encode()
    if fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, code


@st.composite
def cli_cases(draw):
    g, text = draw(st.sampled_from(_fuzz_bases()))
    return draw(graph_files(g)), draw(labelling_files(g, text))


@settings(max_examples=150, deadline=None)
@given(cli_cases())
def test_fuzzed_files_get_documented_exit_codes(case):
    (graph_bytes, graph_code), (lab_bytes, lab_code) = case
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, lab_path = Path(tmp) / "g.graph", Path(tmp) / "l.lab"
        graph_path.write_bytes(graph_bytes)
        lab_path.write_bytes(lab_bytes)
        codes = {}
        for argv in (["label", str(graph_path), "--seed", "1"],
                     ["verify", str(graph_path), str(lab_path)],
                     ["explain", str(graph_path)]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[argv[0]] = main(argv)
    assert codes == {"label": graph_code, "explain": graph_code,
                     "verify": graph_code or lab_code}


# -- fuzzing every small graph shape -------------------------------------
#
# Any simple graph on at most 12 vertices, connected or not: label must
# exit 0 (and its file must verify) or 3 (not antimagic-shaped, or the
# search gave up); any other exception escapes main() and fails here.

@st.composite
def small_graphs(draw):
    """(n, edges): any simple graph on 1..12 vertices, edges in a random
    order and orientation."""
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    k = draw(st.integers(0, len(pairs)))
    edges = draw(st.permutations(pairs))[:k]
    return n, [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
@example((1, []))                                        # K1
@example((5, []))                                        # edgeless
@example((4, [(1, 2), (2, 3), (1, 3)]))                  # isolated vertex
@example((6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
@example((7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]))  # two paths
def test_label_any_small_graph(graph):
    n, edges = graph
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "g.graph", Path(tmp) / "g.lab"
        path.write_text(emit_graph(build_graph(n, edges)))
        code = _quiet_main(["label", str(path), "--out", str(out),
                            "--seed", "1"])
        assert code in (0, 3)
        if code == 0:
            assert _quiet_main(["verify", str(path), str(out)]) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-1, 0, 1, 17, 18, 19, 20, 21, 22]),
       st.integers(-1, 3),
       st.lists(st.sampled_from(sorted(TARGETS) + ["", "nope", "MAIN"]),
                min_size=1, max_size=4))
def test_generate_exit_codes(n, count, regimes):
    # Unknown names and a negative count are parse errors before
    # anything else; a regime the schedule reaches below its smallest
    # feasible n is exit 3.  Either way no file is written.
    if any(t not in TARGETS for t in regimes) or count < 0:
        want = 2
    elif any(min_feasible_n(t) > n for t in regimes[:count]):
        want = 3
    else:
        want = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert _quiet_main(["generate", "--n", str(n), "--count", str(count),
                            "--regimes", ",".join(regimes),
                            "--out-dir", str(out)]) == want
        files = list(out.iterdir()) if out.exists() else []
        assert len(files) == (0 if want else count)
    # stress reads --regimes the same way, and prints one row per target.
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["stress", "--n-min", str(n), "--n-max", str(n),
                     "--count", str(count), "--regimes", ",".join(regimes),
                     "--seed", "1"]) == want
    if want == 0:
        rows = stdout.getvalue().splitlines()[1:]
        assert [row.split()[0] for row in rows[:len(set(regimes))]] == list(
            dict.fromkeys(regimes))
        assert rows[len(set(regimes))].startswith("exchanges applied")
