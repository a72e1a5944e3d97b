"""Find generator instances whose stage 1 leaves a conflict to resolve.

    PYTHONPATH=src python3 tools/scan_conflicts.py --targets main,main_triple \
        --n-min 19 --n-max 29 --seeds 6000

For each target, in turn, it labels ``gen_instance(n, target, seed)`` for
n = n-min .. n-max and, at each n, seeds 1 .. --seeds, and prints the
first instance of each resolution case it meets, in the order met, as a
``tests/test_resolution.py`` ``CONFLICTED`` row, with the exchanges the
resolver applies and the plans it tried:

    ("main", 19, 2343, "3", ["gamma_2"], 1),

A change that alters stage-1 output on purpose re-derives ``CONFLICTED``
with this scan.  An old row whose seed stops conflicting is kept as a
recorded input: run the scan with the parent commit's library on the
path and ``--record target:n:seed`` to print the entry for
``tests/data/recorded_conflicts.json`` (its stage-1 labels, case and
exchanges).

Standard library only; it imports the library from the path it is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from antimagic import gen_instance, label


def scan(target: str, n_min: int, n_max: int, seeds: int):
    """Yield (target, n, seed, case, applied, plans tried) for the first
    instance of each case."""
    seen: set[str] = set()
    for n in range(n_min, n_max + 1):
        for seed in range(1, seeds + 1):
            tr = label(gen_instance(n, target, seed=seed), seed=seed).resolution
            if tr is not None and tr.case not in (None, "none") \
                    and tr.case not in seen:
                seen.add(tr.case)
                yield (target, n, seed, tr.case,
                       [e.describe() for e in tr.applied], tr.plans_tried)


def record(target: str, n: int, seed: int) -> dict:
    """The recorded-input entry for one instance's stage 1."""
    out = label(gen_instance(n, target, seed=seed), seed=seed)
    tr = out.resolution
    return {"target": target, "n": n, "seed": seed, "case": tr.case,
            "applied": [e.describe() for e in tr.applied],
            "regime": out.stage.regime.value,
            "labels": out.stage.labelling.label_of}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--targets", default="main,main_triple")
    ap.add_argument("--n-min", type=int, default=19)
    ap.add_argument("--n-max", type=int, default=29)
    ap.add_argument("--seeds", type=int, default=6000)
    ap.add_argument("--record", action="append", default=[],
                    metavar="TARGET:N:SEED",
                    help="print this instance's recorded-input entry "
                         "instead of scanning (repeatable)")
    args = ap.parse_args(argv)
    if args.record:
        for spec in args.record:
            target, n, seed = spec.split(":")
            print(json.dumps(record(target, int(n), int(seed)),
                             separators=(",", ":")))
        return 0
    for target in args.targets.split(","):
        for row in scan(target, args.n_min, args.n_max, args.seeds):
            print(f"    {row!r},".replace("'", '"'), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
