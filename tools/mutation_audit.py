"""Flip one comparison or move one integer constant at a time, and report
the mutants the given tests let through.

    PYTHONPATH=src python3 tools/mutation_audit.py src/antimagic/colouring.py \
        --function balance_classes \
        tests/test_colouring.py tests/test_acceptance.py tests/test_pipeline.py

The mutants of a module (or of one function in it, with --function) are:

* each comparison operator flipped: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``in`` and ``not in`` swap;
* each integer constant moved by +1 and by -1 (booleans are left alone).

Each mutant is written into a temporary copy of the source tree that
holds the module (the directory above its top package), never into the
working tree, and the pytest targets run against it with that copy first
on PYTHONPATH.  A mutant is killed when pytest fails, outlasts five
times the unmutated run (at least 10 s: a mutant can loop for ever), or
outgrows a 2 GiB address space.  The mutated module is rewritten with
``ast.unparse``; the unmutated round trip must pass the targets first,
or the audit stops with exit 2.

Each survivor is printed with its line, then a last line
``survivors k of n``.  The exit code is 0 whatever k is: a survivor is
either a missing test or an equivalent mutant, and only a reader can
tell which.

Standard library only; pytest must be importable by this interpreter.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in"}
# Each pytest run's address-space cap, so that a mutant which grows a
# list for ever fails instead of taking the machine's memory.
MEMORY_CAP = 2 ** 31


def sites(tree: ast.Module, function: str | None) -> list:
    """Every mutation site, in source order: (comparison, operator
    index) and (integer constant, step), one per mutant."""
    if function is None:
        roots = [tree]
    else:
        roots = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == function]
    found = []
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                found += [(node, i) for i, op in enumerate(node.ops)
                          if type(op) in FLIPS]
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found += [(node, 1), (node, -1)]
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset))
    return found


def mutants(tree: ast.Module, found: list):
    """Yield (line, description, mutated module source) per site; the
    tree is restored after each."""
    for node, what in found:
        if isinstance(node, ast.Compare):
            old = node.ops[what]
            node.ops[what] = FLIPS[type(old)]()
            # The line the operator follows its left operand on.
            left = node.comparators[what - 1] if what else node.left
            yield (left.end_lineno,
                   f"`{SYMBOL[type(old)]}` -> "
                   f"`{SYMBOL[type(node.ops[what])]}`",
                   ast.unparse(tree))
            node.ops[what] = old
        else:
            node.value += what
            yield (node.lineno, f"{node.value - what} -> {node.value}",
                   ast.unparse(tree))
            node.value -= what


def package_root(module: Path) -> Path:
    """The directory above the module's top package."""
    root = module.parent
    while (root / "__init__.py").exists():
        root = root.parent
    return root


def run_tests(src_copy: Path, targets: list[str],
              timeout: float | None) -> bool:
    """Whether the targets pass against ``src_copy``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_copy), os.environ.get("PYTHONPATH")]))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *targets],
            cwd=src_copy.parent, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return False
    if done.returncode in (4, 5):  # usage error, or no tests collected
        print(f"pytest exited {done.returncode} on {targets}",
              file=sys.stderr)
        raise SystemExit(2)
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module", type=Path)
    ap.add_argument("targets", nargs="+", help="pytest targets")
    ap.add_argument("--function", help="mutate only this function's body")
    args = ap.parse_args(argv)

    module = args.module.resolve()
    source = module.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    found = sites(tree, args.function)
    if args.function is not None and not found:
        print(f"no mutants in {args.function!r} of {args.module}",
              file=sys.stderr)
        return 2
    targets = [str(Path(t).resolve()) for t in args.targets]
    root = package_root(module)

    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        src_copy = Path(tmp) / root.name
        shutil.copytree(root, src_copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target_file = src_copy / module.relative_to(root)

        target_file.write_text(ast.unparse(tree))
        start = time.monotonic()
        if not run_tests(src_copy, targets, None):
            print("the unmutated module fails the targets", file=sys.stderr)
            return 2
        timeout = max(10.0, 5 * (time.monotonic() - start))

        survivors = 0
        for lineno, desc, mutant in mutants(tree, found):
            target_file.write_text(mutant)
            if run_tests(src_copy, targets, timeout):
                survivors += 1
                print(f"{args.module}:{lineno}: {desc}    "
                      f"{lines[lineno - 1].strip()}")
    print(f"survivors {survivors} of {len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
