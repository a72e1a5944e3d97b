import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimagic.cli as cli
from antimagic import build_graph, gen_instance
from antimagic.cli import main
from antimagic.fileio import emit_graph, parse_graph, parse_labelling
from antimagic.labelling import Labelling
from antimagic.errors import NotAntimagicShape, ParseError


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
    from antimagic.fileio import emit_labelling
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    lab = Labelling.from_labels(g, [3, 1, 2])
    parsed = parse_labelling(emit_labelling(lab), g)
    assert parsed.label_of == lab.label_of


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError):
        parse_graph("q 3 2\ne 1 2\ne 2 3\n")


def test_hostile_header_rejected_before_allocating():
    # n > 2m + 1 means two isolated vertices; the header alone decides,
    # so the n + 1 adjacency sets are never allocated.
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


def test_k2_exit_3(tmp_path):
    f = tmp_path / "k2.graph"
    f.write_text("p 2 1\ne 1 2\n")
    assert main(["label", str(f)]) == 3


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


def test_verify_wrong_edge_count_exit_2(main_graph_file, tmp_path):
    _, path = main_graph_file
    lab = tmp_path / "short.txt"
    lab.write_text("1 5 1\n")
    assert main(["verify", str(path), str(lab)]) == 2


def test_generate_infeasible_n_exit_3(tmp_path):
    assert main(["generate", "--n", "15", "--regimes", "main",
                 "--out-dir", str(tmp_path)]) == 3


def test_generate_writes_parseable_files(tmp_path):
    assert main(["generate", "--n", "20", "--count", "2",
                 "--regimes", "main,degen_i3", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.graph"))
    assert len(files) == 2
    for f in files:
        g = parse_graph(f.read_text())
        assert g.m >= 7 * g.n


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
    text = capsys.readouterr().out
    assert "degenerate index i = 1" in text
    assert "<= 38" in text


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
        doc["decomposition"]["degenerate_index"] = 9
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
    assert "degenerate index i = 9" in lines
    assert "sums: r = -101, u1 = -1, u2 = -2, u3 = -3" in lines
    assert "margins: u3->u2 -7, u2->u1 -8, root -9, H spacing -10" in lines
    assert "i=1 bounds: sum(u1) = -1 <= 38, min H sum = -11 >= 101" in lines
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


def test_force_regime_hook(main_graph_file):
    _, path = main_graph_file
    # Forcing a degenerate pipeline onto a main-regime instance violates
    # that pipeline's hypotheses: hypothesis exit code.
    assert main(["label", str(path), "--force-regime", "DEGEN_I1"]) == 3


def test_fallback_status_for_yilma(tmp_path, capsys):
    g = gen_instance(20, "yilma", seed=1)
    path = tmp_path / "y.graph"
    path.write_text(emit_graph(g))
    out = tmp_path / "y_labels.txt"
    assert main(["label", str(path), "--out", str(out), "--seed", "1"]) == 0
    assert "SearchedFallback" in capsys.readouterr().err
    assert main(["verify", str(path), str(out)]) == 0
