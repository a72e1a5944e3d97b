"""Independent ground truth and fallback search.

The exhaustive search settles tiny instances (m <= 9) by enumerating all
bijections, giving proof-by-enumeration when no antimagic labelling
exists.  The randomized search is the fallback for inputs outside the
construction's hypotheses: seeded hill climbing on the conflict count
over label transpositions, restarting on plateaus.  Anything either
search returns has passed the independent antimagic check.
"""

from __future__ import annotations

import random
from itertools import permutations

from .construction import _check
from .errors import SearchFailed, TooLarge
from .graph import Graph
from .labelling import Labelling
from .verification import verify_antimagic

EXHAUSTIVE_EDGE_LIMIT = 9


def exhaustive_search(g: Graph) -> Labelling | None:
    """First antimagic labelling in lexicographic order, or None when
    enumeration proves none exists."""
    m = g.m
    if m > EXHAUSTIVE_EDGE_LIMIT:
        raise TooLarge(f"m = {m} > {EXHAUSTIVE_EDGE_LIMIT}")
    n = g.n
    ends = g.edges
    for perm in permutations(range(1, m + 1)):
        sums = [0] * (n + 1)
        for eid, lbl in enumerate(perm):
            a, b = ends[eid]
            sums[a] += lbl
            sums[b] += lbl
        seen = set()
        ok = True
        for v in range(1, n + 1):
            if sums[v] in seen:
                ok = False
                break
            seen.add(sums[v])
        if ok:
            lab = Labelling.from_labels(g, list(perm))
            _check(verify_antimagic(g, lab).ok,
                   "exhaustive search returned a labelling that is not "
                   "antimagic", g)
            return lab
    return None


class _ConflictState:
    """Sums plus a bucket counter so the conflict-pair count updates in
    O(1) per label transposition."""

    def __init__(self, g: Graph, labels: list[int]):
        self.g = g
        self.labels = labels
        self.sums = [0] * (g.n + 1)
        for eid, lbl in enumerate(labels):
            a, b = g.edges[eid]
            self.sums[a] += lbl
            self.sums[b] += lbl
        self.buckets: dict[int, int] = {}
        self.conflicts = 0
        for v in range(1, g.n + 1):
            c = self.buckets.get(self.sums[v], 0)
            self.conflicts += c
            self.buckets[self.sums[v]] = c + 1

    def swap(self, i: int, j: int) -> None:
        g = self.g
        li, lj = self.labels[i], self.labels[j]
        touched = set(g.edges[i]) | set(g.edges[j])
        for v in touched:
            c = self.buckets[self.sums[v]] - 1
            self.buckets[self.sums[v]] = c
            self.conflicts -= c
        delta = lj - li
        for v in g.edges[i]:
            self.sums[v] += delta
        for v in g.edges[j]:
            self.sums[v] -= delta
        self.labels[i], self.labels[j] = lj, li
        for v in touched:
            c = self.buckets.get(self.sums[v], 0)
            self.conflicts += c
            self.buckets[self.sums[v]] = c + 1


def randomized_search(g: Graph, budget: int = 1_000_000,
                      seed: int = 0) -> Labelling:
    """Hill-climb the conflict count; raises SearchFailed when the budget
    runs out.  Identical (input, seed) pairs give identical output."""
    rng = random.Random(seed * 1_000_003 + g.n * 10_007 + g.m)
    m = g.m
    if m == 0:
        raise SearchFailed("no edges to label")
    if m == 1:
        # A single edge always puts the same sum on both endpoints.
        raise SearchFailed("a one-edge graph cannot be antimagic")

    labels = list(range(1, m + 1))
    rng.shuffle(labels)
    state = _ConflictState(g, labels)
    plateau = 0
    restart_after = max(2000, 20 * m)
    for _ in range(budget):
        if state.conflicts == 0:
            lab = Labelling.from_labels(g, state.labels)
            _check(verify_antimagic(g, lab).ok,
                   "randomized search returned a labelling that is not "
                   "antimagic", g)
            return lab
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        old = state.conflicts
        state.swap(i, j)
        if state.conflicts > old or (state.conflicts == old
                                     and rng.random() >= 0.25):
            state.swap(i, j)  # undo
            plateau += 1
        elif state.conflicts < old:
            plateau = 0
        else:
            plateau += 1
        if plateau > restart_after:
            rng.shuffle(state.labels)
            state = _ConflictState(g, state.labels)
            plateau = 0
    raise SearchFailed(f"budget {budget} exhausted with "
                       f"{state.conflicts} conflicts left")
