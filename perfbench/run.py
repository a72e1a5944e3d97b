"""Labelling benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload corpus_small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the library is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("colouring_large", "corpus_small", "cli_linear"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "antimagic" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'antimagic'} not found; run from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import antimagic.cli  # noqa: F401  (timed: import is part of set-up)
    import_s = time.process_time() - t0

    import bench
    return bench.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
