"""Graph representation and instance decomposition.

The decomposition identifies, for a graph with maximum degree n - 4, the
root r (a vertex of maximum degree), the three non-neighbours u1, u2, u3
of r, and the subgraph H induced by the n - 4 neighbours of r.  The
regime classification decides which labelling pipeline applies.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import itemgetter, not_

from .errors import (
    DuplicateEdge,
    SelfLoop,
    TooSmall,
    VertexOutOfRange,
    WrongMaxDegree,
)


class Graph:
    """Immutable simple undirected graph with stable edge indices.

    Vertices are 1-based ids 1..n; edge ids are 0-based positions in the
    input edge list.  Instances are never mutated after construction.

    Stored: ``edges``; the degrees; one flat tuple of the edge ids at
    vertices 0..n laid end to end, each vertex's in ascending id, held
    as the items of ``_gather``, the itemgetter that picks those entries
    from a per-edge list (None when m = 0); and ``_spans[v]``, vertex
    v's slice of that order, so a sums pass runs in C.  Derived on demand:
    ``incident[v]``, v's slice of the flat tuple, and ``adjacency[v]``,
    a map from each neighbour of v to the id of the edge joining them,
    in ascending edge id, built on v's first request and then kept.
    Only r and the u-triple ask for a map.
    """

    __slots__ = ("n", "edges", "adjacency", "incident", "_degrees",
                 "_gather", "_spans")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.edges = edges
        # Neighbour -> edge-id maps for the build only.  A self-loop or a
        # repeated pair overwrites a key, so it adds less than 2 to the
        # degree sum, which ``build_graph`` checks.
        maps: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for eid, (u, v) in enumerate(edges):
            maps[u][v] = eid
            maps[v][u] = eid
        self._degrees = list(map(len, maps))
        flat = tuple(chain.from_iterable(map(dict.values, maps)))
        del maps
        ends = list(accumulate(self._degrees))
        self._spans = list(map(slice, [0] + ends[:-1], ends))
        # Every edge sits twice in flat, so m >= 1 gives itemgetter at
        # least two items and it returns a tuple.  An exact tuple passed
        # with * is kept as itemgetter's items, not copied.
        self._gather = itemgetter(*flat) if edges else None
        self.incident = _Incidence(flat, self._spans)
        self.adjacency = _Adjacency(edges, self.incident)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def max_degree(self) -> int:
        return max(self._degrees[1:]) if self.n >= 1 else 0

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        return b if a == v else a

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _Incidence:
    """``incident[v]``: the ids of v's edges, ascending, as a tuple sliced
    from the flat incidence on each access."""

    __slots__ = ("_flat", "_spans")

    def __init__(self, flat: tuple[int, ...], spans: list[slice]):
        self._flat, self._spans = flat, spans

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self._flat[self._spans[v]]


class _Adjacency:
    """``adjacency[v]``: neighbour -> edge id at v, in ascending edge id,
    built from ``incident[v]`` on v's first request and then kept.  It
    holds the edges and the incidence, not the Graph, so a Graph is
    freed by reference counting alone."""

    __slots__ = ("_edges", "_incident", "_maps")

    def __init__(self, edges: tuple[tuple[int, int], ...],
                 incident: _Incidence):
        self._edges, self._incident = edges, incident
        self._maps: dict[int, dict[int, int]] = {}

    def __getitem__(self, v: int) -> dict[int, int]:
        amap = self._maps.get(v)
        if amap is None:
            inc = self._incident[v]
            ends = map(self._edges.__getitem__, inc)
            amap = self._maps[v] = dict(zip([a + b - v for a, b in ends],
                                            inc))
        return amap


def build_graph(n: int, edge_pairs: list[tuple[int, int]]) -> Graph:
    """Validate and build a Graph; edge ids follow input order.

    Raises SelfLoop, DuplicateEdge or VertexOutOfRange at the first bad edge.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    edges = tuple(map(tuple, edge_pairs))
    if set(chain.from_iterable(edges)).issubset(range(1, n + 1)):
        g = Graph(n, edges)
        # A self-loop or a repeated pair overwrites a key of a build
        # map, so it adds less than 2 to the degree sum.
        if sum(g._degrees) == 2 * len(edges):
            return g
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({u},{v})")
        seen.add(key)
    return Graph(n, edges)


class Regime(enum.Enum):
    """Which labelling pipeline an instance is routed to."""

    MAIN = "MAIN"
    DEGEN_I1 = "DEGEN_I1"
    DEGEN_I2 = "DEGEN_I2"
    DEGEN_I3 = "DEGEN_I3"
    DISC_U3_ISOLATED = "DISC_U3_ISOLATED"
    DISC_TRIPLE_COMPONENT = "DISC_TRIPLE_COMPONENT"
    YILMA_FALLBACK = "YILMA_FALLBACK"
    DELTA_N1 = "DELTA_N1"
    UNSUPPORTED = "UNSUPPORTED"


# Stage 1 gives out the top labels in blocks k = 0 .. n - 5; block k
# opens at m - STEP * k.  In MAIN, i = 1 and i = 3 the root takes that
# label, and in MAIN and i = 3 blocks 0 .. n - 6 hold an interval of the
# STEP - 1 labels under it.  In i = 2 the root label sits one below the
# opener, which u1 holds while its edges last.  STEP is also the H
# spacing stage 1 promises.
STEP = {Regime.MAIN: 4, Regime.DEGEN_I1: 1, Regime.DEGEN_I2: 2,
        Regime.DEGEN_I3: 3}


@dataclass(frozen=True)
class InstanceDecomposition:
    """Identification of r, the u-triple, H and r's edges.

    The triple is ordered by decreasing degree, ties broken by decreasing
    d' (edges into H), final ties by smallest id.  This order forces
    d'(u1) >= d'(u2) >= d'(u3) (see ``decompose``).

    Only r's edge ids are stored; ``non_root_edges`` reads the others
    lazily, so a route that never asks for them never pays for them.
    """

    r: int
    u: tuple[int, int, int]
    h_vertices: tuple[int, ...]
    d_prime: tuple[int, int, int]
    triple_edges: tuple[tuple[int, int], ...]  # present edges among the u's
    e1: tuple[int, ...]  # edge ids incident to r, ascending
    h_set: frozenset[int] = field(repr=False)

    def non_root_edges(self, m: int) -> Iterator[int]:
        """The ids of the m-edge graph's edges away from r, ascending, read
        lazily: the runs of ids between r's, which ``e1`` holds in order."""
        e1 = self.e1
        return chain.from_iterable(map(
            range, chain((0,), map((1).__add__, e1)), chain(e1, (m,))))


def decompose(g: Graph) -> InstanceDecomposition:
    """Decompose a graph with maximum degree n - 4, in O(n): no pass
    runs over the edges away from r and the u's.

    The root is the smallest-id vertex of maximum degree; the proof is
    valid for any choice, smallest id keeps runs reproducible.
    """
    n = g.n
    delta = g.max_degree()
    if delta != n - 4:
        raise WrongMaxDegree(f"max degree {delta} != n - 4 = {n - 4}")
    if n < 8:
        raise TooSmall(f"n = {n} < 8: no room for the u-triple and H")
    r = g._degrees.index(delta, 1)
    h_set = frozenset(g.adjacency[r])
    # r has n - 4 neighbours in a simple graph: exactly three others,
    # put in order by the sort below.
    us = list(set(range(1, n + 1)).difference(h_set, (r,)))

    d_prime_of = {v: len(g.adjacency[v].keys() & h_set) for v in us}
    # d' comes out non-increasing.  A u's degree is its d' plus its 0-2
    # triple edges, and degree ties go to the larger d'; so a u ahead of
    # one with a larger d' would have 2 triple edges against 0, yet one
    # of its 2 joins it to that other u.
    us.sort(key=lambda v: (-g.degree(v), -d_prime_of[v], v))
    u = (us[0], us[1], us[2])
    d_prime = (d_prime_of[u[0]], d_prime_of[u[1]], d_prime_of[u[2]])

    triple = tuple(
        (a, b)
        for a, b in ((u[0], u[1]), (u[0], u[2]), (u[1], u[2]))
        if b in g.adjacency[a]
    )
    return InstanceDecomposition(
        r=r, u=u, h_vertices=tuple(sorted(h_set)), d_prime=d_prime,
        triple_edges=triple, e1=g.incident[r], h_set=h_set,
    )


def degenerate_index(d: InstanceDecomposition) -> int | None:
    """min { j : d'(u_j) <= 3 }, or None when the triple is non-degenerate."""
    return next((j for j, dp in enumerate(d.d_prime, start=1) if dp <= 3),
                None)


def stage_regime(d: InstanceDecomposition) -> Regime:
    """The stage-1 construction d' calls for: DEGEN_I{i} for degenerate
    index i, MAIN for a non-degenerate triple."""
    i = degenerate_index(d)
    return Regime.MAIN if i is None else Regime(f"DEGEN_I{i}")


def classify_regime(g: Graph, d: InstanceDecomposition) -> Regime:
    """Route a decomposition to its labelling pipeline.

    Total over valid decompositions; m < 7n yields UNSUPPORTED so the
    caller can still fall back to randomized search.
    """
    u1, u2, u3 = d.u
    adj = g.adjacency
    common = adj[u1].keys() & adj[u2].keys() & adj[u3].keys() & d.h_set
    if common:
        return Regime.YILMA_FALLBACK
    if g.m < 7 * g.n:
        return Regime.UNSUPPORTED
    # From here 7n <= m <= n(n - 4)/2 (degrees <= n - 4), so n >= 18.
    if d.d_prime == (0, 0, 0) and len(d.triple_edges) >= 2:
        return Regime.DISC_TRIPLE_COMPONENT
    if g.degree(u3) == 0 and d.d_prime[0] > 0:
        return Regime.DISC_U3_ISOLATED
    return stage_regime(d)


def isolated_vertices(g: Graph) -> list[int]:
    return list(compress(range(1, g.n + 1), map(not_, g._degrees[1:])))


def has_isolated_edge(g: Graph) -> bool:
    """An isolated edge (a component that is a single edge) forces equal
    sums at its two endpoints, so the graph cannot be antimagic.  Only
    the degree-1 vertices, picked out in C, are looked at one by one."""
    degrees = g._degrees
    leaves = compress(range(g.n + 1), map((1).__eq__, degrees))
    return any(degrees[g.other_end(g.incident[v][0], v)] == 1
               for v in leaves)
