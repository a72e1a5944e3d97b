"""The bulk decoders against the line-by-line parsers they replaced.

``ref_parse_graph``, ``ref_parse_labelling`` and ``ref_build_graph`` are
the per-line implementations kept verbatim as the reference.  Every
generated file, canonical or not, faulty or not, must give equal edges,
labels, or the same exception class with the same message.
"""

from __future__ import annotations

from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import fileio
from antimagic.errors import (
    AntimagicError,
    DuplicateEdge,
    NotAntimagicShape,
    ParseError,
    SelfLoop,
    VertexOutOfRange,
)
from antimagic.fileio import parse_graph, parse_labelling
from antimagic.graph import Graph, build_graph


# -- the reference: the line walk as it was ------------------------------

def ref_build_graph(n, edge_pairs):
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    seen = set()
    edges = []
    for u, v in edge_pairs:
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({u},{v})")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def _ref_content_lines(text):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def ref_parse_graph(text):
    lines = _ref_content_lines(text)
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
    try:
        return ref_build_graph(n, pairs)
    except Exception as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


def ref_parse_labelling(text, g):
    lines = _ref_content_lines(text)
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


# -- comparing outcomes --------------------------------------------------

def _outcome(fn, *args):
    """What a call returns, reduced to comparable values, or the class
    and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, Graph):
        return out.n, out.edges, out.adjacency, out.incident
    return out


def _same(new, ref, *args):
    assert _outcome(new, *args) == _outcome(ref, *args)


# -- generated files -----------------------------------------------------

_HUGE = "7" * 4301  # [0-9]+ matches it, int() refuses it
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flip = draw(st.lists(st.booleans(), min_size=len(chosen),
                         max_size=len(chosen)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flip)]


def _token(draw):
    return draw(st.sampled_from(["x", "1.5", "-1", "+2", "0", "1_0", _HUGE]))


@st.composite
def faulty_lines(draw, lines, header=False):
    """``lines`` (lists of tokens) with at most one fault of each kind;
    with ``header``, the first line is a graph header."""
    lines = [list(line) for line in lines]
    first = 1 if header else 0
    faults = draw(st.sets(st.sampled_from(
        ["drop", "repeat", "swap", "token", "unicode", "width", "tag",
         "header"])))
    if "drop" in faults and len(lines) > first:
        del lines[draw(st.integers(first, len(lines) - 1))]
    if "repeat" in faults and len(lines) > first:
        lines.append(list(lines[draw(st.integers(first, len(lines) - 1))]))
    if "swap" in faults and len(lines) > first + 1:
        lines[first:] = draw(st.permutations(lines[first:]))
    if "token" in faults and lines:
        line = draw(st.sampled_from(lines))
        k = draw(st.integers(0, len(line) - 1))
        line[k] = _token(draw)
    if "unicode" in faults and lines:
        line = draw(st.sampled_from(lines))
        line[-1] = line[-1].translate(_FULLWIDTH)
    if "width" in faults and lines:
        line = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            line.pop()
        else:
            line.append("3")
    if "tag" in faults and header and len(lines) > 1:
        line = lines[draw(st.integers(1, len(lines) - 1))]
        line[0] = draw(st.sampled_from(["f", "p"]))
    if "header" in faults and header and lines:
        lines[0][0] = draw(st.sampled_from(["q", "e"]))
    return lines


@st.composite
def layouts(draw, lines):
    """The text of ``lines``: canonical, or with comments, blank lines,
    tabs, CRLF, extra spaces or no final newline."""
    if draw(st.booleans()):
        return "".join(" ".join(line) + "\n" for line in lines)
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = []
    for line in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["# note", "", "   ", "#"])))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        out.append(pad + sep.join(line) + pad)
    text = end.join(out)
    return text + end if draw(st.booleans()) else text


@st.composite
def graph_texts(draw):
    n, pairs = draw(graphs())
    m = len(pairs)
    extra = draw(st.sampled_from([None, "self", "dup", "range", "zero"]))
    if extra == "self":
        pairs.append((n, n))
    elif extra == "dup" and pairs:
        u, v = draw(st.sampled_from(pairs))
        pairs.append(draw(st.sampled_from([(u, v), (v, u)])))
    elif extra in ("range", "zero"):
        pairs.append((1, n + 1) if extra == "range" else (0, 1))
    if extra and draw(st.booleans()):
        m = len(pairs)  # a header that agrees with the faulty body
    hn = draw(st.sampled_from([n, n, n, 0, 2 * m + 2, 2 * m + 60]))
    lines = [["p", str(hn), str(m)]]
    lines += [["e", str(u), str(v)] for u, v in pairs]
    if draw(st.booleans()):
        lines = draw(faulty_lines(lines, header=True))
    return draw(layouts(lines))


@settings(max_examples=200, deadline=None)
@given(graph_texts())
def test_parse_graph_matches_line_walk(text):
    _same(parse_graph, ref_parse_graph, text)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 7), st.lists(st.tuples(st.integers(-1, 8),
                                              st.integers(-1, 8))))
def test_build_graph_matches_reference(n, pairs):
    _same(build_graph, ref_build_graph, n, pairs)


@st.composite
def labelling_cases(draw):
    n, pairs = draw(graphs())
    g = build_graph(n, pairs)
    m = g.m
    labels = draw(st.permutations(range(1, m + 1)))
    if draw(st.booleans()):  # repeated, zero or out-of-range labels
        labels = draw(st.lists(st.integers(0, m + 2), min_size=m, max_size=m))
    lines = [[str(u), str(v), str(lbl)]
             for (u, v), lbl in zip(g.edges, labels)]
    if draw(st.booleans()):
        lines = [[v, u, lbl] if draw(st.booleans()) else [u, v, lbl]
                 for u, v, lbl in lines]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines = draw(faulty_lines(lines))
    if draw(st.booleans()) and m:
        lines.append([str(n), str(n + 1), "1"])  # a pair not in the graph
    return g, draw(layouts(lines))


@settings(max_examples=200, deadline=None)
@given(labelling_cases())
def test_parse_labelling_matches_line_walk(case):
    g, text = case
    _same(parse_labelling, ref_parse_labelling, text, g)


GRAPH_CASES = {
    "empty": "",
    "blank": "\n",
    "no_final_newline": "p 3 2\ne 1 2\ne 2 3",
    "crlf": "p 3 2\r\ne 1 2\r\ne 2 3\r\n",
    "comment_and_blank": "# c\np 3 2\ne 1 2\n\ne 2 3\n",
    "tab_and_double_space": "p\t3 2\ne  1 2\ne 2 3\n",
    "unicode_digit": "p 3 2\ne 1 2\ne 2 \uff13\n",
    "huge_vertex_id": f"p 3 2\ne 1 2\ne 2 {_HUGE}\n",
    "huge_header": f"p {_HUGE} 2\ne 1 2\ne 2 3\n",
    "self_loop": "p 3 2\ne 1 2\ne 2 2\n",
    "duplicate": "p 3 2\ne 1 2\ne 2 1\n",
    "above_n": "p 3 2\ne 1 2\ne 2 4\n",
    "vertex_zero": "p 3 2\ne 1 2\ne 0 3\n",
    "n_zero": "p 0 0\n",
    "k1": "p 1 0\n",
    "two_isolated": "p 9 2\ne 1 2\ne 2 3\n",
    "count_before_isolated": "p 9 3\ne 1 2\ne 2 3\n",
    "line_over": "p 3 2\ne 1 2\ne 2 3\ne 1 3\n",
    "leading_zeros": "p 3 02\ne 01 2\ne 2 3\n",
    "one_edge": "p 2 1\ne 1 2\n",
}

LABELLING_CASES = {
    "canonical": "1 2 1\n2 3 2\n1 3 3\n",
    "reversed_pairs": "2 1 1\n3 2 2\n3 1 3\n",
    "another_order": "1 3 3\n1 2 1\n2 3 2\n",
    "no_final_newline": "1 2 1\n2 3 2\n1 3 3",
    "line_short": "1 2 1\n2 3 2\n",
    "line_over": "1 2 1\n2 3 2\n1 3 3\n1 3 3\n",
    "edge_twice": "1 2 1\n2 1 2\n1 3 3\n",
    "not_in_graph": "1 2 1\n2 3 2\n1 4 3\n",
    "bad_labels_left_to_verifier": "1 2 1\n2 3 1\n1 3 9\n",
    "huge_label": f"1 2 1\n2 3 2\n1 3 {_HUGE}\n",
    "unicode_digit": "1 2 1\n2 3 2\n1 3 \uff13\n",
    "leading_zero": "1 2 1\n2 3 2\n1 3 03\n",
    "two_fields": "1 2 1\n2 3\n1 3 3\n",
}


@pytest.mark.parametrize("text", GRAPH_CASES.values(), ids=GRAPH_CASES)
def test_parse_graph_named_cases(text):
    _same(parse_graph, ref_parse_graph, text)


@pytest.mark.parametrize("text", LABELLING_CASES.values(),
                         ids=LABELLING_CASES)
def test_parse_labelling_named_cases(text):
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    _same(parse_labelling, ref_parse_labelling, text, g)


@pytest.mark.parametrize("n,pairs,text", [
    (1, [], ""),
    (1, [], "1 2 1\n"),
    (2, [(1, 2)], "1 2 1\n"),
    (2, [(1, 2)], "2 1 1\n"),
], ids=["edgeless_empty", "edgeless_line_over", "one_edge", "one_edge_reversed"])
def test_parse_labelling_small_graphs(n, pairs, text):
    g = build_graph(n, pairs)
    _same(parse_labelling, ref_parse_labelling, text, g)


# Per case: does the bulk decoder hand the text to the line walk?
HAND_OFFS = {
    "graph_canonical": ("graph", "p 3 2\ne 1 2\ne 2 3\n", False),
    "graph_one_edge": ("graph", GRAPH_CASES["one_edge"], False),
    "graph_k1": ("graph", GRAPH_CASES["k1"], False),
    "graph_leading_zeros": ("graph", GRAPH_CASES["leading_zeros"], True),
    "graph_huge_vertex_id": ("graph", GRAPH_CASES["huge_vertex_id"], True),
    "graph_line_over": ("graph", GRAPH_CASES["line_over"], True),
    "graph_two_isolated": ("graph", GRAPH_CASES["two_isolated"], True),
    "graph_crlf": ("graph", GRAPH_CASES["crlf"], True),
    "labelling_canonical": ("labelling", LABELLING_CASES["canonical"], False),
    "labelling_bad_labels": (
        "labelling", LABELLING_CASES["bad_labels_left_to_verifier"], False),
    "labelling_leading_zero": (
        "labelling", LABELLING_CASES["leading_zero"], True),
    "labelling_huge_label": ("labelling", LABELLING_CASES["huge_label"], True),
    "labelling_two_fields": ("labelling", LABELLING_CASES["two_fields"], True),
    "labelling_reversed_pairs": (
        "labelling", LABELLING_CASES["reversed_pairs"], True),
    "labelling_line_short": ("labelling", LABELLING_CASES["line_short"], True),
    "labelling_line_over": ("labelling", LABELLING_CASES["line_over"], True),
    "labelling_edgeless_empty": ("edgeless", "", False),
}


@pytest.mark.parametrize("kind,text,walks", HAND_OFFS.values(),
                         ids=HAND_OFFS)
def test_bulk_decoders_hand_off(kind, text, walks, monkeypatch):
    # Canonical files decode in bulk; a leading zero, a huge field, a
    # count that disagrees or any other layout goes to the line walk.
    walked = []
    for name in ("_walk_graph", "_walk_labelling"):
        real = getattr(fileio, name)
        monkeypatch.setattr(fileio, name, lambda *a, real=real:
                            walked.append(a) or real(*a))
    triangle = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    with suppress(AntimagicError):
        if kind == "graph":
            parse_graph(text)
        else:
            parse_labelling(text, build_graph(1, []) if kind == "edgeless"
                            else triangle)
    assert bool(walked) == walks
