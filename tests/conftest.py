"""Shared test helpers: independent oracles the suite checks against.

These deliberately re-derive everything from raw edge lists so they
cannot inherit a bug from the code under test.
"""

from __future__ import annotations

import random

import pytest

from antimagic import Graph, Labelling, build_graph
from antimagic.errors import ProofViolation


def brute_sums(g: Graph, labels: list[int]) -> dict[int, int]:
    """Vertex sums from a per-edge label list, the slow obvious way."""
    sums = {v: 0 for v in range(1, g.n + 1)}
    for eid, (a, b) in enumerate(g.edges):
        sums[a] += labels[eid]
        sums[b] += labels[eid]
    return sums


def assigned(g: Graph, labels: list[int]) -> Labelling:
    """A labelling holding a per-edge label list, padded with 0
    (unlabelled) to m edges.  A repeated label, or one outside 1..m,
    raises ProofViolation."""
    given = [x for x in labels if x]
    for x in given:
        if not 1 <= x <= g.m:
            raise ProofViolation(f"label {x} out of range")
    if len(set(given)) != len(given):
        raise ProofViolation("a label is used twice")
    return Labelling(g, list(labels) + [0] * (g.m - len(labels)))


def brute_is_antimagic_labelling(g: Graph, labels: list[int]) -> bool:
    """The definition, verbatim: bijection onto 1..m, sums all distinct."""
    if sorted(labels) != list(range(1, g.m + 1)):
        return False
    sums = brute_sums(g, labels)
    return len(set(sums.values())) == g.n


def brute_proper(g: Graph, classes) -> bool:
    """Pairwise endpoint scan over every class."""
    for cls in classes:
        cls = list(cls)
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                a1, b1 = g.edges[cls[i]]
                a2, b2 = g.edges[cls[j]]
                if {a1, b1} & {a2, b2}:
                    return False
    return True


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return build_graph(n, edges)


def random_universal_graph(n: int, rng: random.Random) -> Graph:
    """Vertex 1 adjacent to everything, so the max degree is n - 1."""
    edges = [(1, v) for v in range(2, n + 1)]
    edges += [(u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1)
              if rng.random() < 0.5]
    return build_graph(n, edges)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240901)
