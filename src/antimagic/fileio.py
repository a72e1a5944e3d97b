"""Text formats for graphs and labellings.

Graph files are DIMACS-flavoured: a header line ``p <n> <m>`` followed
by m lines ``e <u> <v>`` with 1-based vertex ids.  Labelling files have
one line ``<u> <v> <label>`` per edge.  Lines starting with '#' and
blank lines are ignored in both.  The emitters' layout (ASCII digits,
single spaces, ``\n`` endings, nothing else, labelling lines in edge-id
order) is decoded in bulk; other layouts and every fault go through a
line walk, which names the first fault by its line.

A bulk decode is one ``json.loads`` call.  Once a layout regex has
matched the whole text, every field is a run of ASCII digits and every
separator is one space, one newline or (in a graph) the newline and
``e `` before an edge.  Turning those separators into commas thus makes
the text a JSON array of non-negative integers, which the C decoder
reads in one pass.  What it refuses (a leading zero, a field past
``int()``'s digit limit) goes to the line walk, as does a count that
disagrees with the header or the graph.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from itertools import chain

from .errors import NotAntimagicShape, ParseError
from .graph import Graph, build_graph
from .labelling import Labelling

_GRAPH_LAYOUT = re.compile(r"p [0-9]+ [0-9]+\n(?:e [0-9]+ [0-9]+\n)*")
_LABELLING_LAYOUT = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def parse_graph(text: str) -> Graph:
    pairs = None
    if _GRAPH_LAYOUT.fullmatch(text):
        # "p n m\ne u v\n..." -> "[n,m,u,v,...]"
        with suppress(ValueError):  # a leading zero or a huge field
            nums = json.loads(
                "[" + text[2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
            it = iter(nums)
            n, m = next(it), next(it)
            if len(nums) == 2 * m + 2 and n <= 2 * m + 1:
                pairs = list(zip(it, it))
    if pairs is None:
        n, pairs = _walk_graph(text)
    try:
        return build_graph(n, pairs)
    except Exception as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


def _walk_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "p":
        raise ParseError(f"line {no}: expected 'p <n> <m>', got {header!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"line {no}: non-integer header field") from exc
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header promises {m} edges, file has {len(body)}")
    # Two isolated vertices: not antimagic, and rejected before a hostile
    # header can allocate memory in proportion to n.
    if n > 2 * m + 1:
        raise NotAntimagicShape(
            f"n = {n} > 2m + 1 = {2 * m + 1}: two isolated vertices")
    pairs = []
    for no, line in body:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(f"line {no}: expected 'e <u> <v>', got {line!r}")
        try:
            pairs.append((int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ParseError(f"line {no}: non-integer vertex id") from exc
    return n, pairs


def emit_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_labelling(text: str, g: Graph) -> list[int]:
    """The per-edge labels of a labelling file, in edge-id order.  The
    checks in ``verification`` read this list as they read a Labelling's
    ``label_of``."""
    labels = None
    if _LABELLING_LAYOUT.fullmatch(text):
        # "u v l\nu v l\n" -> "[u,v,l,u,v,l]"
        with suppress(ValueError):  # a leading zero or a huge field
            nums = json.loads(
                "[" + text[:-1].replace("\n", ",").replace(" ", ",") + "]")
            ends = list(chain.from_iterable(g.edges))
            if nums[0::3] == ends[0::2] and nums[1::3] == ends[1::2]:
                labels = nums[2::3]
    if labels is None:  # another line order, reversed pairs, or a fault
        labels = _walk_labelling(text, g)
    # Bad labels (duplicates, out of range) are kept for the verifier to
    # report; only structural problems are parse errors.
    return labels


def _walk_labelling(text: str, g: Graph) -> list[int]:
    lines = _content_lines(text)
    if len(lines) != g.m:
        raise ParseError(f"labelling has {len(lines)} lines for m = {g.m}")
    pair_to_eid = {}
    for eid, (u, v) in enumerate(g.edges):
        pair_to_eid[(u, v)] = eid
        pair_to_eid[(v, u)] = eid
    labels = [0] * g.m
    seen = set()
    for no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {no}: expected '<u> <v> <label>'")
        try:
            u, v, lbl = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {no}: non-integer field") from exc
        eid = pair_to_eid.get((u, v))
        if eid is None:
            raise ParseError(f"line {no}: edge ({u},{v}) not in the graph")
        if eid in seen:
            raise ParseError(f"line {no}: edge ({u},{v}) labelled twice")
        seen.add(eid)
        labels[eid] = lbl
    return labels


def emit_labelling(l: Labelling) -> str:
    """One line ``u v label`` per edge, in edge-id order, from a single
    format call over the ends and labels interleaved."""
    g = l.graph
    if not g.m:
        return "\n"
    flat = [0] * (3 * g.m)
    flat[0::3], flat[1::3] = zip(*g.edges)
    flat[2::3] = l.label_of
    return ("%d %d %d\n" * g.m) % tuple(flat)
