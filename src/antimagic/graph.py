"""Graph representation and instance decomposition.

The decomposition identifies, for a graph with maximum degree n - 4, the
root r (a vertex of maximum degree), the three non-neighbours u1, u2, u3
of r, and the subgraph H induced by the n - 4 neighbours of r.  The
regime classification decides which labelling pipeline applies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (
    DuplicateEdge,
    ProofViolation,
    SelfLoop,
    TooSmall,
    VertexOutOfRange,
    WrongMaxDegree,
)


class Graph:
    """Immutable simple undirected graph with stable edge indices.

    Vertices are 1-based ids 1..n; edge ids are 0-based positions in the
    input edge list.  Instances are never mutated after construction.
    """

    __slots__ = ("n", "edges", "adjacency", "incident", "_degrees")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.edges = edges
        adjacency: list[set[int]] = [set() for _ in range(n + 1)]
        incident: list[list[int]] = [[] for _ in range(n + 1)]
        for eid, (u, v) in enumerate(edges):
            adjacency[u].add(v)
            adjacency[v].add(u)
            incident[u].append(eid)
            incident[v].append(eid)
        self.adjacency = adjacency
        self.incident = incident
        self._degrees = [len(adjacency[v]) for v in range(n + 1)]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def max_degree(self) -> int:
        return max(self._degrees[1:]) if self.n >= 1 else 0

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        return b if a == v else a

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_pairs: list[tuple[int, int]]) -> Graph:
    """Validate and build a Graph; edge ids follow input order.

    Raises SelfLoop, DuplicateEdge or VertexOutOfRange on bad input.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count {n} must be positive")
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
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


@dataclass(frozen=True)
class InstanceDecomposition:
    """Identification of r, the u-triple, H and the edge split.

    The triple is ordered by decreasing degree, ties broken by decreasing
    d' (edges into H), final ties by smallest id.  This order forces
    d'(u1) >= d'(u2) >= d'(u3), which is asserted.
    """

    r: int
    u: tuple[int, int, int]
    h_vertices: tuple[int, ...]
    d_prime: tuple[int, int, int]
    triple_edges: tuple[tuple[int, int], ...]  # present edges among the u's
    e1: tuple[int, ...]  # edge ids incident to r
    e2: tuple[int, ...]  # all other edge ids
    n_h: int
    m_h: int
    h_set: frozenset[int] = field(repr=False)


def decompose(g: Graph) -> InstanceDecomposition:
    """Decompose a graph with maximum degree n - 4.

    The root is the smallest-id vertex of maximum degree; the proof is
    valid for any choice, smallest id keeps runs reproducible.
    """
    n = g.n
    delta = g.max_degree()
    if delta != n - 4:
        raise WrongMaxDegree(f"max degree {delta} != n - 4 = {n - 4}")
    if n < 8:
        raise TooSmall(f"n = {n} < 8: no room for the u-triple and H")
    r = min(v for v in range(1, n + 1) if g.degree(v) == delta)
    h_set = frozenset(g.adjacency[r])
    us = [v for v in range(1, n + 1) if v != r and v not in h_set]
    assert len(us) == 3, "non-neighbour count must be exactly 3"

    d_prime_of = {v: sum(1 for w in g.adjacency[v] if w in h_set) for v in us}
    us.sort(key=lambda v: (-g.degree(v), -d_prime_of[v], v))
    u = (us[0], us[1], us[2])
    d_prime = (d_prime_of[u[0]], d_prime_of[u[1]], d_prime_of[u[2]])
    if not (d_prime[0] >= d_prime[1] >= d_prime[2]):
        raise ProofViolation(
            f"degree order does not give non-increasing d' {d_prime}")

    triple = tuple(
        (a, b)
        for a, b in ((u[0], u[1]), (u[0], u[2]), (u[1], u[2]))
        if g.has_edge(a, b)
    )
    e1 = tuple(g.incident[r])
    e1_set = set(e1)
    e2 = tuple(e for e in range(g.m) if e not in e1_set)
    m_h = sum(
        1 for a, b in g.edges if a in h_set and b in h_set
    )
    return InstanceDecomposition(
        r=r, u=u, h_vertices=tuple(sorted(h_set)), d_prime=d_prime,
        triple_edges=triple, e1=e1, e2=e2, n_h=len(h_set), m_h=m_h,
        h_set=h_set,
    )


def degenerate_index(d: InstanceDecomposition) -> int | None:
    """min { j : d'(u_j) <= 3 }, or None when the triple is non-degenerate."""
    return next((j for j, dp in enumerate(d.d_prime, start=1) if dp <= 3),
                None)


def classify_regime(g: Graph, d: InstanceDecomposition) -> Regime:
    """Route a decomposition to its labelling pipeline.

    Total over valid decompositions; m < 7n yields UNSUPPORTED so the
    caller can still fall back to randomized search.
    """
    u1, u2, u3 = d.u
    common = g.adjacency[u1] & g.adjacency[u2] & g.adjacency[u3] & d.h_set
    if common:
        return Regime.YILMA_FALLBACK
    if g.m < 7 * g.n:
        return Regime.UNSUPPORTED
    if d.d_prime == (0, 0, 0) and len(d.triple_edges) >= 2:
        return Regime.DISC_TRIPLE_COMPONENT
    if g.degree(u3) == 0 and d.d_prime[0] > 0:
        return Regime.DISC_U3_ISOLATED
    i = degenerate_index(d)
    if i is not None:
        return Regime(f"DEGEN_I{i}")
    # m >= 7n forces n >= 16 (the feasibility bound); check it holds.
    assert g.n >= 16, f"MAIN instance with n = {g.n} < 16 should not exist"
    return Regime.MAIN


def isolated_vertices(g: Graph) -> list[int]:
    return [v for v in range(1, g.n + 1) if g.degree(v) == 0]


def has_isolated_edge(g: Graph) -> bool:
    """An isolated edge (a component that is a single edge) forces equal
    sums at its two endpoints, so the graph cannot be antimagic."""
    return any(g.degree(a) == 1 and g.degree(b) == 1 for a, b in g.edges)
