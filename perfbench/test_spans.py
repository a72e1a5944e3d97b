"""The span wrappers fire where their layer runs.

If a refactor moves an import binding, a wrapper in spans.BINDINGS stops
firing and its layer would read 0 s; these tests fail instead.  Run from
the root of the repository:

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import antimagic.cli as cli  # noqa: E402
import antimagic.pipeline as pipeline  # noqa: E402
from antimagic.fileio import emit_graph  # noqa: E402
from antimagic.generator import TARGETS, gen_instance, min_feasible_n  # noqa: E402
from antimagic.graph import build_graph  # noqa: E402

from spans import BINDINGS, Tracer, self_times  # noqa: E402
from workloads import LINEAR_TARGETS  # noqa: E402

# label_disconnected reaches these bindings only for a u3-isolated graph
# whose degenerate index is 1 or 2; the generator's u3-isolated graphs
# have d'(u1), d'(u2) >= 4, so the index is always 3.
UNREACHED = {("construction", "label_case_i1"),
             ("construction", "label_case_i2")}


def _small(target: str, seed: int = 1):
    return gen_instance(min_feasible_n(target), target, seed=seed)


def _conflicted_main():
    """The first n = 19 main graph whose stage 1 needs an exchange."""
    for seed in range(2000):
        g = gen_instance(19, "main", seed=seed)
        if pipeline.label(g, seed=seed).resolution.case != "none":
            return g
    raise AssertionError("no conflicted main graph among 2000 seeds")


def _universal_vertex_graph():
    n = 8
    return build_graph(n, [(1, v) for v in range(2, n + 1)]
                       + [(v, v + 1) for v in range(2, n)])


def _run_cli(tmp_path: Path, g, name: str) -> None:
    graph_file = tmp_path / f"{name}.graph"
    lab_file = tmp_path / f"{name}.lab"
    graph_file.write_text(emit_graph(g))
    assert cli.main(["label", str(graph_file), "--out", str(lab_file)]) == 0
    assert cli.main(["verify", str(graph_file), str(lab_file)]) == 0


def test_every_binding_fires(tmp_path, capsys):
    graphs = [_small(t) for t in TARGETS]
    graphs += [_conflicted_main(), _universal_vertex_graph()]
    tracer = Tracer()
    with tracer.installed():
        for g in graphs:
            pipeline.label(g, seed=1)
        _run_cli(tmp_path, _small("degen_i2"), "cli")
    fired = {(s.site, s.name.split(".")[-1]) for s in tracer.spans}
    wanted = {(module.removeprefix("antimagic."), name)
              for module, names in BINDINGS.items() for name in names}
    assert wanted - UNREACHED - fired == set()
    # The originals are back once the tracer is uninstalled.
    assert not hasattr(pipeline.label, "__wrapped__")


def test_no_colouring_on_cli_linear_targets(tmp_path, capsys):
    tracer = Tracer()
    with tracer.installed():
        for t in LINEAR_TARGETS:
            _run_cli(tmp_path, _small(t), t)
    names = {s.name for s in tracer.spans}
    assert "cli.main" in names and "pipeline.label" in names
    assert [n for n in names if n.startswith("colouring.")] == []


def test_nested_constructor_self_time():
    tracer = Tracer()
    with tracer.installed():
        pipeline.label(_small("disc_u3_isolated"), seed=1)
    spans = tracer.spans
    outer = next(i for i, s in enumerate(spans)
                 if s.name == "construction.label_disconnected")
    inner = next(i for i, s in enumerate(spans)
                 if s.name == "construction.label_case_i3")
    assert spans[inner].parent == outer
    children = [s for s in spans if s.parent == outer]
    own = self_times(spans)
    expected = (spans[outer].end - spans[outer].start
                - sum(s.end - s.start for s in children))
    assert abs(own[outer] - expected) < 1e-12
    assert 0 <= own[outer] < spans[outer].end - spans[outer].start
    vizing = [s.extra for s in spans if s.name == "colouring.vizing_colour"]
    assert vizing and all(x["edges"] > 0 and x["classes"] > 0
                          for x in vizing)
