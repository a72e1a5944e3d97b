"""The benchmark body: set-up, passes over the workload's jobs, output
checks and metrics.  run.py puts the checkout's src/ on the path and
calls ``run``.

A run generates the workload's graphs from the seed (set-up, repeated
SETUP_REPEATS times), then labels every graph in whole passes for the
given seconds, give or take half a pass.  Every output
is checked by checks.py and must repeat byte for byte on every pass.
Times are reported in reference seconds (reference.py): the CPU time of
each call, or of each set-up, scaled by the speed of a fixed reference
run between the calls.
Untraced runs give the end-to-end metrics.  Traced runs alternate
untraced and traced passes: spans recorded around the library's public
functions (spans.py) give per-layer self times and counters per pass,
and the difference between the two kinds of pass is the tracing
overhead.  Manifests, results, per-instance records, spans and the
reproducers of failed runs go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import antimagic.cli as cli
import antimagic.pipeline as pipeline
import antimagic.verification as verification
from antimagic.errors import ProofGapWarning
from antimagic.fileio import emit_graph, emit_labelling
from antimagic.generator import gen_instance
from antimagic.graph import Regime

from checks import antimagic_failure, labels_from_text
from reference import Reference
from spans import CONSTRUCTORS, Tracer, self_times
from workloads import Instance, make_instances

# ``pipeline``, ``verification`` and ``cli`` are called through their
# modules, so that the calls reach the wrappers spans.py installs.
# ``emit_graph`` and ``emit_labelling`` are bound here before any
# wrapping, so the benchmark's own digests record no spans.

OUT = Path(__file__).resolve().parent / "out"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Times are the process's CPU time, scaled to reference seconds.  The
# benchmark is single threaded and bound by the CPU, so on an idle
# machine CPU time equals wall time; on a shared virtual machine it
# leaves out the time the host takes the CPU away (the steal column of
# /proc/stat), which moved wall times between identical runs by tens of
# percent.
clock = time.process_time
SETUP_REPEATS = 3
# Fallback runs per colouring_large graph (forced) and per cli_linear
# yilma graph, each with its own search seed: one search's time depends
# on its luck.
FALLBACK_SEARCHES = 4

# Per-layer metric -> span whose self time (seconds per pass) it reports.
SELF_TIME_METRICS = {
    "graph.decompose_s": "graph.decompose",
    "graph.classify_regime_s": "graph.classify_regime",
    "fileio.parse_graph_s": "fileio.parse_graph",
    "fileio.emit_labelling_s": "fileio.emit_labelling",
    "fileio.parse_labelling_s": "fileio.parse_labelling",
    "cli.main_self_s": "cli.main",
    "colouring.koenig_colour_s": "colouring.koenig_colour",
    "colouring.vizing_colour_s": "colouring.vizing_colour",
    "colouring.balance_classes_s": "colouring.balance_classes",
    "colouring.order_classes_s": "colouring.order_classes_for_vertex",
    "verification.stage_properties_s": "verification.verify_stage_properties",
    "verification.bijection_s": "verification.verify_bijection",
    "verification.antimagic_s": "verification.verify_antimagic",
    "resolution.resolve_s": "resolution.resolve",
    "resolution.find_conflicts_s": "resolution.find_conflicts",
    "oracle.randomized_search_s": "oracle.randomized_search",
    "pipeline.label_self_s": "pipeline.label",
}
@dataclass(frozen=True)
class Job:
    instance: object          # workloads.Instance
    # k: a fallback search with labelling seed + k, forced unless the
    # graph's regime is the fallback
    search: int | None = None

    @property
    def forced(self) -> bool:
        return (self.search is not None
                and self.instance.expected_status == "constructed")

    @property
    def seed(self) -> int:
        return self.instance.seed + (self.search or 0)

    @property
    def key(self) -> str:
        i = self.instance
        kind = "fallback" if self.forced else "search"
        return (f"{i.idx:03d}_{i.target}_n{i.n}_s{i.seed}"
                + (f"_{kind}{self.search}" if self.search is not None
                   else ""))

    @property
    def expected_status(self) -> str:
        return "searched_fallback" if self.forced else self.instance.expected_status


@dataclass
class Outcome:
    label_s: float
    verify_s: float
    status: str
    labels: list
    text: str             # the labelling as emit_labelling writes it
    gap_warnings: int
    summary: str | None   # why the program itself reported failure


class Bench:
    def __init__(self, workload: str, seed: int, import_s: float):
        self.workload = workload
        self.seed = seed
        self.import_s = import_s
        self.via_cli = workload == "cli_linear"
        self.out = OUT / workload
        self.inputs = self.out / "inputs"
        self.jobs: list[Job] = []
        self.attempted = 0
        self.failed = 0
        self.failed_keys: set[str] = set()
        self.ref = Reference()
        self.setup_s: list[float] = []       # reference seconds
        self.setup_cpu_s: list[float] = []   # CPU seconds
        self.setup_scale: list[float] = []
        self.gen_s: list[float] = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPEATS):
            self.ref.start()
            t0 = clock()
            instances, gen_s = make_instances(self.workload, self.seed,
                                              self.ref.tick)
            if self.via_cli:
                self.inputs.mkdir(parents=True, exist_ok=True)
                for inst in instances:
                    self._graph_path(inst).write_text(emit_graph(inst.graph))
                    self.ref.tick()
            self._warm_up()
            self.ref.tick()
            cpu_s = clock() - t0
            scale, ref_s = self.ref.take()
            self.setup_cpu_s.append(cpu_s - ref_s)
            self.setup_s.append((cpu_s - ref_s) * scale)
            self.setup_scale.append(scale)
            self.gen_s.append(gen_s * scale)
        # Collections during the passes then skip the inputs, whatever
        # their size.
        gc.collect()
        gc.freeze()
        # A graph's fallback searches run next to it, so that they meet
        # the host's changes of speed through the whole pass.
        self.jobs = []
        for inst in instances:
            self.jobs.append(Job(inst))
            if self.workload == "colouring_large":
                searches = range(FALLBACK_SEARCHES)
            elif (self.workload == "cli_linear"
                  and inst.expected_status == "searched_fallback"):
                searches = range(1, FALLBACK_SEARCHES)
            else:
                searches = ()
            self.jobs += [Job(inst, k) for k in searches]
        # Per job, one time per pass: reference seconds, and CPU seconds.
        self.label_times = [[] for _ in self.jobs]
        self.verify_times = [[] for _ in self.jobs]
        self.label_cpu = [[] for _ in self.jobs]
        self.verify_cpu = [[] for _ in self.jobs]
        self.status = [None] * len(self.jobs)
        self.digests = [None] * len(self.jobs)
        self.gap_warnings = [0] * len(self.jobs)   # in the latest pass

    def _warm_up(self) -> None:
        """Run the workload's call path once on a small graph, so that
        imports done at call time happen before anything is timed."""
        g = gen_instance(19, "main", seed=0)
        warm = Instance(-1, "main", 19, 0, g.m, g, "")
        if self.via_cli:
            self._graph_path(warm).write_text(emit_graph(g))
        outcome = self._run(Job(warm))
        if outcome.summary or outcome.status != "constructed":
            raise RuntimeError(f"warm-up labelling failed: {outcome.summary}")

    def _graph_path(self, inst) -> Path:
        return self.inputs / f"{inst.idx:03d}_{inst.target}_n{inst.n}.graph"

    # -- one labelling ----------------------------------------------------

    def _run(self, job: Job) -> Outcome:
        return self._run_cli(job) if self.via_cli else self._run_api(job)

    def _run_api(self, job: Job) -> Outcome:
        inst = job.instance
        g = inst.graph
        force = Regime.YILMA_FALLBACK if job.forced else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            outcome = pipeline.label(g, seed=job.seed, force_regime=force)
            label_s = clock() - t0
        lab = outcome.labelling
        t0 = clock()
        ok = (verification.verify_bijection(g, lab).ok
              and verification.verify_antimagic(g, lab).ok)
        verify_s = clock() - t0
        return Outcome(label_s, verify_s, outcome.status, list(lab.label_of),
                       emit_labelling(lab), _gap_warnings(caught),
                       None if ok else "the library's verifier rejects it")

    def _run_cli(self, job: Job) -> Outcome:
        inst = job.instance
        graph_path = self._graph_path(inst)
        lab_path = graph_path.with_suffix(".lab")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            rc_label = cli.main(["label", str(graph_path), "--out",
                                 str(lab_path), "--seed", str(job.seed)])
            label_s = clock() - t0
            t0 = clock()
            rc_verify = cli.main(["verify", str(graph_path), str(lab_path)])
            verify_s = clock() - t0
        words = err.getvalue().split()
        status = {"Constructed": "constructed",
                  "SearchedFallback": "searched_fallback"}.get(
            words[words.index("status") + 1] if "status" in words else "")
        text = lab_path.read_text() if lab_path.exists() else ""
        labels = labels_from_text(text, inst.graph.edges)
        summary = None
        if rc_label or rc_verify:
            summary = (f"label exit {rc_label}, verify exit {rc_verify}: "
                       f"{err.getvalue().strip()[-400:]}")
        elif isinstance(labels, str):
            summary = f"output file: {labels}"
        return Outcome(label_s, verify_s, status,
                       [] if isinstance(labels, str) else labels, text,
                       _gap_warnings(caught), summary)

    def attempt(self, j: int, tracer=None) -> Outcome | None:
        """Run job j once and check its output.  Returns None when the run
        failed."""
        job = self.jobs[j]
        inst = job.instance
        self.attempted += 1
        if tracer is not None:
            tracer.instance = j
        try:
            outcome = self._run(job)
        except Exception:
            self._fail(job, traceback.format_exc())
            return None
        finally:
            if tracer is not None:
                tracer.instance = None
        reason = outcome.summary
        if reason is None and outcome.status != job.expected_status:
            reason = (f"status {outcome.status}, expected "
                      f"{job.expected_status}")
        if reason is None:
            reason = antimagic_failure(inst.n, inst.graph.edges,
                                       outcome.labels)
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        if reason is None and self.digests[j] not in (None, digest):
            reason = "output differs from the first pass"
        if reason is not None:
            self._fail(job, reason)
            return None
        self.digests[j] = digest
        self.status[j] = outcome.status
        self.gap_warnings[j] = outcome.gap_warnings
        return outcome

    def _fail(self, job: Job, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {job.key}: {reason.strip().splitlines()[-1]}",
              file=sys.stderr)
        if job.key in self.failed_keys:
            return
        self.failed_keys.add(job.key)
        inst = job.instance
        failures = self.out / "failures"
        failures.mkdir(parents=True, exist_ok=True)
        (failures / f"{job.key}.graph").write_text(emit_graph(inst.graph))
        (failures / f"{job.key}.txt").write_text(
            f"workload {self.workload} seed {self.seed}\n"
            f"target {inst.target} n {inst.n} m {inst.graph.m} "
            f"generator seed {inst.seed} labelling seed {job.seed} "
            f"forced fallback {job.forced}\n"
            f"{reason}\n")

    def run_pass(self, tracer=None) -> tuple[float, int, float]:
        """Every job once, recording the timings of the runs that passed;
        (reference seconds inside timed program calls, gap warnings, the
        pass's mean reference scale).

        As timeit does, the cyclic garbage collector is off while a call
        is timed; it runs between calls instead, so that a collection
        of one call's garbage is not charged to whichever call follows.
        The reference runs between calls too."""
        timed = []
        gaps = 0
        self.ref.start()
        gc.disable()
        try:
            for j in range(len(self.jobs)):
                start = clock()
                outcome = self.attempt(j, tracer)
                end = clock()
                gc.collect()
                self.ref.tick()
                if outcome is not None:
                    timed.append((j, start, end, outcome))
                    gaps += outcome.gap_warnings
        finally:
            gc.enable()
        busy = 0.0
        for j, start, end, outcome in timed:
            scale = self.ref.scale(start, end)
            self.label_times[j].append(outcome.label_s * scale)
            self.verify_times[j].append(outcome.verify_s * scale)
            self.label_cpu[j].append(outcome.label_s)
            self.verify_cpu[j].append(outcome.verify_s)
            busy += (outcome.label_s + outcome.verify_s) * scale
        return busy, gaps, self.ref.take()[0]

    # -- results ----------------------------------------------------------

    def _median(self, times: list) -> float:
        return statistics.median(times) if times else 0.0

    def end_to_end(self, cpu: bool = False) -> dict:
        """The end-to-end metrics in reference seconds, or with ``cpu`` in
        CPU seconds."""
        jobs = range(len(self.jobs))
        m = [job.instance.graph.m for job in self.jobs]
        label_times = self.label_cpu if cpu else self.label_times
        verify_times = self.verify_cpu if cpu else self.verify_times
        label = [self._median(t) for t in label_times]
        verify = [self._median(t) for t in verify_times]

        def rate(selected):
            busy = sum(label[j] for j in selected)
            return sum(m[j] for j in selected) / busy if busy else 0.0

        constructed = [j for j in jobs if self.status[j] == "constructed"]
        fallback = [j for j in jobs if self.status[j] == "searched_fallback"]
        # A graph's latency: its label time, over its natural fallback
        # searches the median.
        runs = {}
        for j in jobs:
            if self.label_times[j] and not self.jobs[j].forced:
                runs.setdefault(self.jobs[j].instance.idx, []).append(label[j])
        latency = sorted(statistics.median(t) for t in runs.values())
        checked = [j for j in jobs if self.verify_times[j]]
        verify_busy = sum(verify[j] for j in checked)
        setup = self.setup_cpu_s if cpu else self.setup_s
        import_scale = 1.0 if cpu else statistics.median(self.setup_scale)
        return {
            "setup_s": (self.import_s * import_scale
                        + statistics.median(setup)),
            "label_edges_per_s": rate(constructed),
            "label_s_p50": statistics.median(latency) if latency else 0.0,
            "label_s_p90": (statistics.quantiles(latency, n=10)[8]
                            if len(latency) > 1 else 0.0),
            "fallback_edges_per_s": rate(fallback),
            "verify_edges_per_s": (sum(m[j] for j in checked) / verify_busy
                                   if verify_busy else 0.0),
            "ok_share": 1.0 - self.failed / max(self.attempted, 1),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def construct_over_fallback(self) -> dict:
        """Certified labelling time over forced-fallback time (the mean
        over the searches of a graph), on the graphs where every run
        succeeded."""
        by_idx = {}
        for j, job in enumerate(self.jobs):
            times = by_idx.setdefault(job.instance.idx, {})
            times.setdefault(job.search is not None, []).append(
                self._median(self.label_times[j])
                if self.label_times[j] else None)
        pairs = [v for v in by_idx.values()
                 if len(v) == 2 and None not in v[False] + v[True]]
        construct_s = sum(v[False][0] for v in pairs)
        fallback_s = sum(statistics.mean(v[True]) for v in pairs)
        return {"construct_s": construct_s, "fallback_s": fallback_s,
                "graphs": len(pairs),
                "ratio": construct_s / fallback_s if fallback_s else None}

    def manifest(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "instances": [job.instance.manifest() for job in self.jobs
                          if job.search is None],
            "outputs": [{"job": job.key, "labelling_sha256": d}
                        for job, d in zip(self.jobs, self.digests)],
        }


def _gap_warnings(caught) -> int:
    return sum(1 for w in caught if issubclass(w.category, ProofGapWarning))


def layer_values(bench: Bench, spans: list, first: int, gaps: int,
                 scale: float) -> dict:
    """Per-layer metrics of one traced pass, from spans[first:]; times
    in reference seconds at the pass's scale."""
    own = self_times(spans, first)
    self_s = Counter()
    for i, t in own.items():
        self_s[spans[i].name] += t * scale
    values = {metric: self_s[name]
              for metric, name in SELF_TIME_METRICS.items()}
    ctor = [i for i in own if spans[i].name in CONSTRUCTORS]
    values["construction.stage1_s"] = scale * sum(
        spans[i].end - spans[i].start for i in ctor
        if spans[i].parent is None
        or spans[spans[i].parent].name not in CONSTRUCTORS)
    values["construction.stage1_self_s"] = scale * sum(own[i] for i in ctor)
    vizing = [spans[i].extra for i in own
              if spans[i].name == "colouring.vizing_colour"]
    values["colouring.vizing_edges"] = sum(x["edges"] for x in vizing)
    values["colouring.vizing_classes"] = sum(x["classes"] for x in vizing)
    values["verification.antimagic_calls"] = sum(
        1 for i in own if spans[i].name == "verification.verify_antimagic")
    labels = [spans[i].extra for i in own if spans[i].name == "pipeline.label"]
    resolved = [x for x in labels if x["case"] is not None]
    plans = sum(x["plans_tried"] for x in resolved)
    values["resolution.conflicted_share"] = (
        sum(1 for x in resolved if x["case"] != "none") / len(resolved)
        if resolved else 0.0)
    values["resolution.plans_tried"] = plans
    values["resolution.plan_accept_ratio"] = (
        sum(1 for x in resolved if x["applied"]) / plans if plans else 0.0)
    values["resolution.gap_warnings"] = gaps
    values["generator.gen_instance_s"] = statistics.median(bench.gen_s)
    return values


def instance_records(bench: Bench, spans: list, first: int) -> list[dict]:
    """One record per job from the traced pass starting at spans[first]."""
    own = self_times(spans, first)
    records = {}
    for j, job in enumerate(bench.jobs):
        inst = job.instance
        records[j] = {"job": job.key, "target": inst.target, "n": inst.n,
                      "m": inst.graph.m, "seed": inst.seed,
                      "label_seed": job.seed, "forced": job.forced,
                      "gap_warnings": bench.gap_warnings[j],
                      "self_s": Counter()}
    for i, t in own.items():
        s = spans[i]
        if s.instance is None:
            continue
        rec = records[s.instance]
        rec["self_s"][s.name] += t
        if s.name == "pipeline.label":
            rec.update(s.extra)
    return list(records.values())


def traced_measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    records = None
    start = time.perf_counter()
    while True:
        # Alternate which kind of pass goes first: the first pass of a
        # run tends to be the slowest.
        traced_first = len(traced) % 2 == 0
        if not traced_first:
            untraced.append(bench.run_pass()[0])
        first = len(tracer.spans)
        with tracer.installed():
            busy, gaps, scale = bench.run_pass(tracer)
        traced.append(busy)
        per_pass.append(layer_values(bench, tracer.spans, first, gaps, scale))
        if records is None:
            records = instance_records(bench, tracer.spans, first)
        if traced_first:
            untraced.append(bench.run_pass()[0])
        if len(traced) >= 2 and _done(start, len(traced), seconds):
            break
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    base = statistics.median(untraced)
    metrics["tracing.overhead_s"] = statistics.median(traced) - base
    metrics["tracing.overhead_share"] = (
        metrics["tracing.overhead_s"] / base if base else 0.0)
    with open(bench.out / "records.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(bench.out / "spans.jsonl", "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps(s.as_json(i)) + "\n")
    info = {"passes": len(traced), "untraced_pass_s": untraced,
            "traced_pass_s": traced, "spans": len(tracer.spans)}
    return metrics, info


def _done(start: float, rounds: int, seconds: float) -> bool:
    """True when one more round would end further from ``seconds`` after
    ``start`` than half a round, so a run measures seconds +- half a round."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds >= seconds


def untraced_measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    passes = 0
    scales = []
    start = time.perf_counter()
    while True:
        scales.append(bench.run_pass()[2])
        passes += 1
        # Two passes at least, so that every output is seen to repeat.
        if passes >= 2 and _done(start, passes, seconds):
            break
    metrics = bench.end_to_end()
    info = {"passes": passes, "pass_scales": scales,
            "gap_warnings": sum(bench.gap_warnings),
            "cpu_metrics": bench.end_to_end(cpu=True)}
    if bench.workload == "colouring_large":
        info["construct_over_fallback"] = bench.construct_over_fallback()
    return metrics, info


def run(args, import_s: float) -> int:
    bench = Bench(args.workload, args.seed, import_s)
    bench.setup()
    if args.trace:
        metrics, info = traced_measure(bench, args.seconds)
    else:
        metrics, info = untraced_measure(bench, args.seconds)

    manifest = bench.manifest()
    blob = json.dumps(manifest, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()
    (bench.out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "instances": len(manifest["instances"]), "jobs": len(bench.jobs),
        "setup_repeats": SETUP_REPEATS, "setup_runs_s": bench.setup_s,
        "setup_runs_cpu_s": bench.setup_cpu_s,
        "setup_scales": bench.setup_scale,
        "import_cpu_s": import_s, "digest": digest,
    }
    spec = json.loads(SPEC.read_text())
    units = {x["name"]: x["unit"]
             for x in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from those "
                           f"{SPEC.name} declares: {sorted(units)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    (bench.out / f"result_trace{args.trace}.json").write_text(
        json.dumps({"env": env, "info": info, "result": result}, indent=1)
        + "\n")
    print(f"digest {args.workload} seed {args.seed} {digest}")
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0
