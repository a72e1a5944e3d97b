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

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import filterfalse

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
        c = next(filterfalse(self.at.get(v, {}).__contains__,
                             range(self.k)), None)
        if c is None:
            raise DegreeExceedsColours(f"no free colour at vertex {v}")
        return c

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
        if not (pal.is_free(u, alpha) and pal.is_free(v, alpha)):
            raise ProofViolation(f"Koenig path flip left edge {e} no colour")
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
    for eid in edge_ids:
        a, b = g.edges[eid]
        x, f = (a, b) if a < b else (b, a)
        _mg_colour_edge(g, pal, x, f, eid)
    return EdgeColouring(g, pal.to_classes())


def _mg_colour_edge(g: Graph, pal: _Palette, x: int, f: int,
                    eid: int) -> None:
    # Maximal fan of x starting at f: each next fan edge is the smallest
    # coloured edge at x, not yet in the fan, whose colour is free at the
    # previous fan vertex.  The graph is simple, so the far ends differ.
    at_x = pal.at.get(x, {})
    cands = sorted(at_x, key=at_x.__getitem__)  # colours, by edge id
    fan_v = [f]
    fan_e = [eid]
    while True:
        c2 = next(filterfalse(pal.at.get(fan_v[-1], {}).__contains__, cands),
                  None)
        if c2 is None:
            break
        cands.remove(c2)
        fan_e.append(at_x[c2])
        fan_v.append(g.other_end(at_x[c2], x))

    c = pal.first_free(x)
    d = pal.first_free(fan_v[-1])
    if not pal.is_free(x, d):
        pal.flip_path(x, d, c)
        if not pal.is_free(x, d):
            raise ProofViolation(f"Misra-Gries path flip left colour {d} "
                                 f"used at vertex {x}")

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


class _ColourClass:
    """One colour class during balancing: its edges as a sorted list and
    its vertex -> edge map, both updated in place along each swapped
    path rather than rebuilt every round."""

    __slots__ = ("g", "edges", "at")

    def __init__(self, g: Graph, edge_ids):
        self.g = g
        self.edges = sorted(edge_ids)
        self.at = {v: e for e in self.edges for v in g.edges[e]}

    def remove(self, e: int) -> None:
        del self.edges[bisect_left(self.edges, e)]
        for v in self.g.edges[e]:
            del self.at[v]

    def add(self, e: int) -> None:
        insort(self.edges, e)
        for v in self.g.edges[e]:
            self.at[v] = e


def balance_classes(c: EdgeColouring, min_size: int) -> EdgeColouring:
    """Grow undersized classes to >= min_size edges.

    Each round takes the smallest class as receiver and the largest as
    donor (lowest index on ties), forms the two-colour subgraph, and
    swaps colours along an alternating path whose first and last edges
    belong to the donor (deterministically, the qualifying path
    containing the smallest edge id).  Every swap reduces the total
    deficit by one, so the loop terminates.

    A round costs O(|path| + |receiver|) plus two C-level scans of the
    size list: the classes keep their sorted edges and vertex maps
    across rounds, and a size -> count array tracks the smallest and
    largest size (the smallest only rises, the largest only falls).
    """
    g = c.graph
    if not c.classes:
        return c
    sizes = c.sizes()
    if sum(sizes) < min_size * len(sizes):
        raise InfeasibleBalance(
            f"{sum(sizes)} edges cannot fill "
            f"{len(sizes)} classes of {min_size}")
    classes = [_ColourClass(g, cls) for cls in c.classes]

    def short(size: int) -> int:
        return max(0, min_size - size)

    count = [0] * (max(sizes) + 1)
    for s in sizes:
        count[s] += 1
    lo, hi = min(sizes), max(sizes)
    while lo < min_size:
        if hi <= lo:
            raise ProofViolation("class balancing found no larger donor")
        small, big = sizes.index(lo), sizes.index(hi)
        recv, donor = classes[small], classes[big]
        path = _donor_path(g, recv, donor)
        # The path alternates donor, recv, ..., donor.  Every edge
        # leaves its class before any arrives, so no vertex map entry
        # is overwritten and then deleted.
        gained, lost = path[0::2], path[1::2]
        for e in lost:
            recv.remove(e)
        for e in gained:
            donor.remove(e)
        for e in gained:
            recv.add(e)
        for e in lost:
            donor.add(e)
        sizes[small], sizes[big] = len(recv.edges), len(donor.edges)
        if (short(sizes[small]) + short(sizes[big])
                >= short(lo) + short(hi)):
            raise ProofViolation("class balancing failed to make progress")
        count[lo] -= 1
        count[hi] -= 1
        count[sizes[small]] += 1
        count[sizes[big]] += 1
        while not count[lo]:
            lo += 1
        while not count[hi]:
            hi -= 1
    return EdgeColouring(g, tuple(tuple(cls.edges) for cls in classes))


def _donor_path(g: Graph, recv: _ColourClass,
                donor: _ColourClass) -> list[int]:
    """Edges of an alternating path in the recv/donor two-colour subgraph
    whose first and last edges are donor edges (a single donor edge
    qualifies), in walk order from a donor end.  Exists whenever
    |donor| > |recv|.  Of all qualifying paths, returns the one holding
    the smallest edge id.

    Components are disjoint paths and cycles.  Only those holding a
    receiver edge need a walk: the donor class is a matching, so a
    component without a receiver edge is a single donor edge, and the
    lowest of these is the first donor edge, in ascending order, with
    neither endpoint in the receiver's vertex map.  Each donor edge
    skipped on the way touches a receiver edge, so the scan stops within
    2|recv| + 1 steps, and the walks cover O(|recv|) edges in all.
    """
    # The recv edge and the donor edge at each vertex, indexed by "is a
    # donor edge": from a donor edge the walk goes on along at[False].
    at = (recv.at, donor.at)
    best, low = None, None
    for e in donor.edges:
        a, b = g.edges[e]
        if a not in recv.at and b not in recv.at:
            best, low = [e], e
            break
    seen: set[int] = set()
    for first in recv.edges:
        if first in seen:
            continue
        # Walk away from ``first`` at each endpoint; a cycle closes back
        # onto ``first`` in the first walk.
        ends, closed = [], False
        for cur in g.edges[first]:
            side, on_donor = [], False
            while not closed:
                e = at[not on_donor].get(cur)
                if e is None:
                    break
                closed, on_donor = e == first, not on_donor
                side.append(e)
                cur = g.other_end(e, cur)
            ends.append(side)
        if closed:
            seen.update(ends[0])
            continue
        comp = ends[0][::-1] + [first] + ends[1]
        seen.update(comp)
        # Both ends are donor edges iff each side has odd length.
        if len(ends[0]) % 2 and len(ends[1]) % 2:
            top = min(comp)
            if low is None or top < low:
                best, low = comp, top
    if best is None:
        raise ProofViolation("no alternating path with donor-coloured ends")
    return best


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
