"""Command-line surface.

Subcommands: ``label`` (construct and write a labelling), ``verify``
(check a labelling file against a graph file), ``generate`` (write a
corpus of instances), ``stress`` (generate-label-verify loop with a
per-regime table), ``explain`` (print decomposition, regime, and the
gap margins of the final sums).

Exit codes: 0 success; 1 verification failure; 2 parse or consistency
error; 3 hypothesis unmet with no fallback success; 4 proof violation.
The default seed comes from ANTIMAGIC_SEED when set.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from pathlib import Path

from .errors import (
    AntimagicError,
    InfeasibleRegime,
    NotAntimagicShape,
    ParseError,
    ProofViolation,
    SearchFailed,
)
from .fileio import emit_graph, emit_labelling, parse_graph, parse_labelling
from .generator import TARGETS, gen_instance, min_feasible_n
from .graph import Regime, decompose, degenerate_index
from .pipeline import label, outcome_trace
from .verification import (
    margins,
    recompute_sums,
    verify_antimagic,
    verify_bijection,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_PROOF_VIOLATION = 4


def _default_seed() -> int:
    return int(os.environ.get("ANTIMAGIC_SEED", "1"))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_label(args) -> int:
    g = parse_graph(_read(args.graph))
    force = Regime(args.force_regime) if args.force_regime else None
    outcome = label(g, seed=args.seed, fallback_iters=args.fallback_iters,
                    force_regime=force)
    status = ("Constructed" if outcome.status == "constructed"
              else "SearchedFallback")
    text = emit_labelling(outcome.labelling)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.trace:
        _write_text(args.trace, _json_dump(outcome_trace(outcome, args.seed)))
    print(f"status {status} regime {outcome.regime.value}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    lab = parse_labelling(_read(args.labelling), g)
    bij = verify_bijection(g, lab)
    if not bij.ok:
        print(f"bijection FAILED: missing={bij.missing} "
              f"duplicated={bij.duplicated} out_of_range={bij.out_of_range}")
        return EXIT_VERIFY_FAILED
    rep = verify_antimagic(g, lab)
    if not rep.ok:
        print("antimagic FAILED: conflicting pairs "
              + ", ".join(f"({a},{b}) sum {s}" for a, b, s in rep.conflicts))
        return EXIT_VERIFY_FAILED
    print(f"OK: bijection and antimagic hold (n={g.n}, m={g.m})")
    return EXIT_OK


def cmd_generate(args) -> int:
    targets = args.regimes.split(",")
    for t in targets:
        if t not in TARGETS:
            raise ParseError(f"unknown regime {t!r}; choose from "
                             + ",".join(sorted(TARGETS)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for idx in range(args.count):
        t = targets[idx % len(targets)]
        g = gen_instance(args.n, t, seed=args.seed + idx)
        name = f"{t}_n{args.n}_s{args.seed + idx}.graph"
        _write_text(str(out_dir / name), emit_graph(g))
        written.append(name)
    print("\n".join(written))
    return EXIT_OK


def cmd_stress(args) -> int:
    targets = args.regimes.split(",")
    stats = collections.Counter()
    exchange_hist = collections.Counter()
    failures = []
    for idx in range(args.count):
        t = targets[idx % len(targets)]
        lo = max(args.n_min, min_feasible_n(t))
        if lo > args.n_max:
            raise InfeasibleRegime(
                f"{t} needs n >= {min_feasible_n(t)} > {args.n_max}")
        n = lo + (idx // len(targets)) % (args.n_max - lo + 1)
        seed = args.seed + idx
        g = gen_instance(n, t, seed=seed)
        outcome = label(g, seed=seed)
        ok = verify_antimagic(g, outcome.labelling).ok
        stats[(t, "ok" if ok else "bad")] += 1
        if outcome.resolution is not None:
            exchange_hist[len(outcome.resolution.applied)] += 1
        if not ok:
            failures.append((t, n, seed))
    print(f"{'regime':<18} {'ok':>5} {'bad':>5}")
    for t in targets:
        print(f"{t:<18} {stats[(t, 'ok')]:>5} {stats[(t, 'bad')]:>5}")
    print("exchanges applied histogram: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(exchange_hist.items())))
    if failures:
        print(f"failures: {failures}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_explain(args) -> int:
    g = parse_graph(_read(args.graph))
    print(f"n = {g.n}, m = {g.m}, max degree = {g.max_degree()}, "
          f"7n = {7 * g.n}")
    d = decompose(g)
    print(f"root r = {d.r}; u-triple = {d.u}; d' = {d.d_prime}; "
          f"triple edges = {d.triple_edges or 'none'}")
    outcome = label(g, seed=args.seed)
    print(f"regime = {outcome.regime.value}")
    i = degenerate_index(d)
    if i is not None:
        print(f"degenerate index i = {i}")
    sums = recompute_sums(g, outcome.labelling)
    gaps = margins(g, d, sums)
    u1, u2, u3 = d.u
    print(f"status = {outcome.status}")
    print(f"sums: r = {sums[d.r]}, u1 = {sums[u1]}, u2 = {sums[u2]}, "
          f"u3 = {sums[u3]}")
    print(f"margins: u3->u2 {gaps['u3_u2']}, u2->u1 {gaps['u2_u1']}, "
          f"root {gaps['root_margin']}, H spacing {gaps['h_min_gap']}")
    if outcome.regime == Regime.DEGEN_I1:
        print(f"i=1 bounds: sum(u1) = {sums[u1]} <= 38, "
              f"min H sum = {min(sums[v] for v in d.h_vertices)} >= 101")
    if outcome.resolution is not None:
        tr = outcome.resolution
        print(f"resolution: case {tr.case}, plans tried {tr.plans_tried}, "
              f"applied {[e.describe() for e in tr.applied]}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="antimagic",
        description="Constructive antimagic edge labellings for graphs "
                    "with maximum degree n - 4 and m >= 7n.")
    sub = p.add_subparsers(dest="command", required=True)
    seed_kw = dict(type=int, default=_default_seed(),
                   help="random seed (default: ANTIMAGIC_SEED or 1)")

    lp = sub.add_parser("label", help="construct an antimagic labelling")
    lp.add_argument("graph")
    lp.add_argument("--out", help="write the labelling here (default stdout)")
    lp.add_argument("--trace", help="write a JSON trace here")
    lp.add_argument("--seed", **seed_kw)
    lp.add_argument("--fallback-iters", type=int, default=1_000_000)
    lp.add_argument("--force-regime", choices=[r.value for r in Regime],
                    help="testing hook: bypass classification")
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProofViolation as exc:
        print(f"proof violation: {exc}", file=sys.stderr)
        if exc.reproducer:
            print("reproducer:", file=sys.stderr)
            print(exc.reproducer, file=sys.stderr)
        return EXIT_PROOF_VIOLATION
    except (NotAntimagicShape, SearchFailed, InfeasibleRegime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except AntimagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
