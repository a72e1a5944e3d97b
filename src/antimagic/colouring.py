"""Constructive proper edge colourings.

Three classical subroutines the labelling pipeline delegates to:

* Koenig colouring: a bipartite edge subset of maximum degree <= k gets a
  proper colouring with k colours, by incremental insertion with
  alternating-path recolouring.
* Vizing colouring: any simple edge subset gets a proper colouring with
  at most Delta + 1 colours, by the Misra-Gries fan/rotation scheme.
* Class rebalancing: move edges between two colour classes along
  alternating paths until every class reaches a minimum size.

All operations are pure; they return new EdgeColouring values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeExceedsColours,
    InfeasibleBalance,
    NotBipartite,
    NotEnoughClasses,
    ProofViolation,
)
from .graph import Graph


@dataclass(frozen=True)
class EdgeColouring:
    """Partition of an edge subset into proper colour classes.

    ``classes[i]`` holds the edge ids of colour i.  Classes may be empty
    (padding keeps index arithmetic simple for interval assignment).
    """

    graph: Graph
    classes: tuple[tuple[int, ...], ...]

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def edge_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def with_classes(self, classes: list[list[int]]) -> "EdgeColouring":
        return EdgeColouring(self.graph, tuple(tuple(sorted(c)) for c in classes))


def properness_violations(g: Graph, classes) -> list[tuple[int, int, int]]:
    """All (class, edge, edge) pairs sharing an endpoint; empty iff proper.

    Deliberately a dumb pairwise scan so it stays independent of the
    colouring algorithms it checks.
    """
    bad = []
    for ci, cls in enumerate(classes):
        cls = list(cls)
        for i in range(len(cls)):
            a1, b1 = g.edges[cls[i]]
            for j in range(i + 1, len(cls)):
                a2, b2 = g.edges[cls[j]]
                if {a1, b1} & {a2, b2}:
                    bad.append((ci, cls[i], cls[j]))
    return bad


def _subset_degrees(g: Graph, edge_ids) -> dict[int, int]:
    deg: dict[int, int] = {}
    for e in edge_ids:
        for v in g.edges[e]:
            deg[v] = deg.get(v, 0) + 1
    return deg


def _check_bipartite(g: Graph, edge_ids) -> None:
    side: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        a, b = g.edges[e]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    raise NotBipartite(f"odd cycle through vertex {y}")


class _Palette:
    """Mutable colour bookkeeping shared by the two colouring algorithms."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.at: dict[int, dict[int, int]] = {}  # vertex -> colour -> edge
        self.colour_of: dict[int, int] = {}

    def is_free(self, v: int, c: int) -> bool:
        return c not in self.at.get(v, {})

    def first_free(self, v: int) -> int:
        used = self.at.get(v, {})
        for c in range(self.k):
            if c not in used:
                return c
        raise DegreeExceedsColours(f"no free colour at vertex {v}")

    def assign(self, e: int, c: int) -> None:
        for v in self.g.edges[e]:
            self.at.setdefault(v, {})[c] = e
        self.colour_of[e] = c

    def unassign(self, e: int) -> None:
        c = self.colour_of.pop(e)
        for v in self.g.edges[e]:
            del self.at[v][c]

    def flip_path(self, start: int, first: int, second: int) -> int:
        """Swap colours first/second along the maximal alternating path
        from ``start`` beginning with a ``first``-coloured edge.  Returns
        the far endpoint of the path."""
        path: list[int] = []
        cur, col = start, first
        while not self.is_free(cur, col):
            e = self.at[cur][col]
            path.append(e)
            cur = self.g.other_end(e, cur)
            col = second if col == first else first
        flipped = {e: (second if self.colour_of[e] == first else first)
                   for e in path}
        for e in path:
            self.unassign(e)
        for e, c in flipped.items():
            self.assign(e, c)
        return cur

    def to_classes(self) -> tuple[tuple[int, ...], ...]:
        """The non-empty colour classes, each sorted, in colour order."""
        buckets: list[list[int]] = [[] for _ in range(self.k)]
        for e, c in self.colour_of.items():
            buckets[c].append(e)
        return tuple(tuple(sorted(b)) for b in buckets if b)


def koenig_colour(g: Graph, edge_ids, k: int) -> EdgeColouring:
    """Proper k-colouring of a bipartite edge subset with max degree <= k.

    Incremental insertion: colour each edge with a colour free at both
    ends, recolouring one alternating path when no common free colour
    exists.  In a bipartite graph the path never returns to the other
    endpoint, so the recolouring always frees a shared colour.
    """
    edge_ids = sorted(edge_ids)
    deg = _subset_degrees(g, edge_ids)
    if any(d > k for d in deg.values()):
        worst = max(deg, key=lambda v: deg[v])
        raise DegreeExceedsColours(
            f"vertex {worst} has degree {deg[worst]} > {k} colours")
    _check_bipartite(g, edge_ids)

    pal = _Palette(g, k)
    for e in edge_ids:
        u, v = g.edges[e]
        used_u = pal.at.get(u, {})
        used_v = pal.at.get(v, {})
        common = next((c for c in range(k)
                       if c not in used_u and c not in used_v), None)
        if common is not None:
            pal.assign(e, common)
            continue
        alpha = pal.first_free(u)
        beta = pal.first_free(v)
        pal.flip_path(v, alpha, beta)
        assert pal.is_free(u, alpha) and pal.is_free(v, alpha)
        pal.assign(e, alpha)
    return EdgeColouring(g, pal.to_classes())


def vizing_colour(g: Graph, edge_ids) -> EdgeColouring:
    """Proper colouring of any simple edge subset with <= Delta + 1 colours
    (Misra-Gries fan rotation scheme)."""
    edge_ids = sorted(edge_ids)
    if not edge_ids:
        return EdgeColouring(g, ())
    deg = _subset_degrees(g, edge_ids)
    k = max(deg.values()) + 1
    pal = _Palette(g, k)
    incident: dict[int, list[int]] = {}
    for e in edge_ids:
        for v in g.edges[e]:
            incident.setdefault(v, []).append(e)

    for eid in edge_ids:
        a, b = g.edges[eid]
        x, f = (a, b) if a < b else (b, a)
        _mg_colour_edge(g, pal, incident, x, f, eid)
    return EdgeColouring(g, pal.to_classes())


def _mg_colour_edge(g: Graph, pal: _Palette, incident, x: int, f: int,
                    eid: int) -> None:
    # Maximal fan of x starting at f: each next fan edge's colour is free
    # at the previous fan vertex.
    fan_v = [f]
    fan_e = [eid]
    in_fan = {f}
    while True:
        last = fan_v[-1]
        ext = None
        for e2 in incident[x]:
            c2 = pal.colour_of.get(e2)
            if c2 is None:
                continue
            z = g.other_end(e2, x)
            if z in in_fan:
                continue
            if pal.is_free(last, c2):
                ext = (e2, z)
                break
        if ext is None:
            break
        fan_e.append(ext[0])
        fan_v.append(ext[1])
        in_fan.add(ext[1])

    c = pal.first_free(x)
    d = pal.first_free(fan_v[-1])
    if not pal.is_free(x, d):
        pal.flip_path(x, d, c)
        assert pal.is_free(x, d)

    # First fan prefix whose tip has d free; the Misra-Gries lemma
    # guarantees one survives the path inversion.
    j = None
    for idx, w in enumerate(fan_v):
        if idx > 0:
            col = pal.colour_of.get(fan_e[idx])
            if col is None or not pal.is_free(fan_v[idx - 1], col):
                break
        if pal.is_free(w, d):
            j = idx
            break
    if j is None:
        raise ProofViolation("Misra-Gries fan rotation found no valid prefix")

    shifted = [pal.colour_of[fan_e[i]] for i in range(1, j + 1)]
    for i in range(1, j + 1):
        pal.unassign(fan_e[i])
    for i in range(j):
        pal.assign(fan_e[i], shifted[i])
    pal.assign(fan_e[j], d)


def balance_classes(c: EdgeColouring, min_size: int) -> EdgeColouring:
    """Grow undersized classes to >= min_size edges.

    Each round takes the smallest class as receiver and the largest as
    donor, forms the two-colour subgraph, and swaps colours along an
    alternating path whose first and last edges belong to the donor
    (deterministically, the qualifying path containing the smallest edge
    id).  Every swap reduces the total deficit by one, so the loop
    terminates.
    """
    g = c.graph
    classes = [list(cls) for cls in c.classes]
    if sum(len(cl) for cl in classes) < min_size * len(classes):
        raise InfeasibleBalance(
            f"{sum(len(cl) for cl in classes)} edges cannot fill "
            f"{len(classes)} classes of {min_size}")

    def deficit() -> int:
        return sum(max(0, min_size - len(cl)) for cl in classes)

    guard = deficit()
    while True:
        sizes = [len(cl) for cl in classes]
        small = min(range(len(classes)), key=lambda i: (sizes[i], i))
        if sizes[small] >= min_size:
            break
        big = min(range(len(classes)), key=lambda i: (-sizes[i], i))
        assert sizes[big] > sizes[small]
        path = _donor_path(g, classes[small], classes[big])
        path_set = set(path)
        small_set, big_set = set(classes[small]), set(classes[big])
        classes[small] = [e for e in small_set - path_set] + \
            [e for e in path if e in big_set]
        classes[big] = [e for e in big_set - path_set] + \
            [e for e in path if e in small_set]
        new_deficit = deficit()
        if new_deficit >= guard:
            raise ProofViolation("class balancing failed to make progress")
        guard = new_deficit
    return c.with_classes(classes)


def _donor_path(g: Graph, recv: list[int], donor: list[int]) -> list[int]:
    """Edges of an alternating path in the recv/donor two-colour subgraph
    whose first and last edges are donor edges (a single donor edge
    qualifies).  Exists whenever |donor| > |recv|."""
    colour = {e: 0 for e in recv}
    colour.update({e: 1 for e in donor})
    adj: dict[int, list[int]] = {}
    for e in colour:
        for v in g.edges[e]:
            adj.setdefault(v, []).append(e)

    seen: set[int] = set()
    best: list[int] | None = None
    endpoints = [v for v, es in adj.items() if len(es) == 1]
    for v in sorted(endpoints):
        e = adj[v][0]
        if e in seen:
            continue
        comp = _walk_path(g, adj, v)
        seen.update(comp)
        if colour[comp[0]] == 1 and colour[comp[-1]] == 1:
            if best is None or min(comp) < min(best):
                best = comp
    if best is None:
        raise ProofViolation("no alternating path with donor-coloured ends")
    return best


def _walk_path(g: Graph, adj, start_v: int) -> list[int]:
    comp: list[int] = []
    prev_e = None
    cur = start_v
    while True:
        nxt = [e for e in adj[cur] if e != prev_e]
        if not nxt:
            return comp
        e = nxt[0]
        comp.append(e)
        cur = g.other_end(e, cur)
        prev_e = e


def order_classes_for_vertex(c: EdgeColouring, v: int, count: int) -> EdgeColouring:
    """Permute classes so the ``count`` classes holding v's edges come
    first; contents are untouched."""
    holding = [i for i, cls in enumerate(c.classes)
               if any(v in c.graph.edges[e] for e in cls)]
    if len(holding) < count:
        raise NotEnoughClasses(
            f"vertex {v} appears in {len(holding)} classes < {count}")
    front = holding[:count]
    front_set = set(front)
    order = front + [i for i in range(len(c.classes)) if i not in front_set]
    return EdgeColouring(c.graph, tuple(c.classes[i] for i in order))


def pad_classes(c: EdgeColouring, total: int) -> EdgeColouring:
    """Extend with empty classes up to ``total`` (never truncates)."""
    if len(c.classes) >= total:
        return c
    return EdgeColouring(
        c.graph, c.classes + tuple(() for _ in range(total - len(c.classes))))
