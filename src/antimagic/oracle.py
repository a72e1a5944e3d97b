"""Independent ground truth and fallback search.

The exhaustive search settles tiny instances (m <= 9) by enumerating all
bijections, giving proof-by-enumeration when no antimagic labelling
exists.  The randomized search is the fallback for inputs outside the
construction's hypotheses: seeded hill climbing on the conflict count
over label transpositions, restarting on plateaus.  Anything either
search returns has passed the independent bijection and antimagic
checks.  The fallback judges a state no step swapped (its start, or the
one after a restart) on the sums that state was built from, one pass
over the very labels it returns; a state that swapped is checked from
its raw labels again.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations

from .draw import below, shuffle
from .errors import SearchFailed, TooLarge, check
from .graph import Graph
from .labelling import Labelling
from .verification import (antimagic_from_sums, recompute_sums,
                           verify_antimagic, verify_bijection)

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
            lab = Labelling(g, list(perm))
            check(verify_bijection(g, lab).ok,
                  "exhaustive search returned labels that are not a "
                  "bijection")
            check(verify_antimagic(g, lab).ok,
                  "exhaustive search returned a labelling that is not "
                  "antimagic")
            return lab
    return None


class _ConflictState:
    """Sums plus a bucket counter so the conflict-pair count updates in
    O(1) per label transposition.  ``fresh`` holds until the first swap:
    until then ``sums`` is the pass over ``labels`` it was built from."""

    def __init__(self, g: Graph, labels: list[int]):
        self.g = g
        self.labels = labels
        self.sums = recompute_sums(g, labels)
        self.buckets = Counter(self.sums[1:])
        self.conflicts = sum(c * (c - 1) // 2 for c in self.buckets.values())
        self.fresh = True

    def swap(self, i: int, j: int) -> None:
        self.fresh = False
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
                      seed: int = 0) -> tuple[Labelling, list[int]]:
    """Hill-climb the conflict count for at most ``budget`` steps; raises
    SearchFailed when the state after the last one still has conflicts.
    Returns the labelling and the vertex sums its antimagic verdict was
    taken from.  Identical (input, seed) pairs give identical output.

    The result holds the searched label list itself, uncopied: the
    search state is dropped on return.  ``verify_bijection`` checks it
    first and raises ProofViolation unless the labels are a bijection
    onto 1..m.  A state no step swapped is judged by
    ``antimagic_from_sums`` on the sums its start or restart recomputed
    from that same list: ``verify_antimagic``'s verdict, without a second
    pass.  A state that swapped, even back, is checked by
    ``verify_antimagic`` from the raw labels, so a fault in the swaps'
    incremental sums cannot pass.

    The start and every restart shuffle the labels with
    ``draw.shuffle`` and each step draws its pair i != j with
    ``draw.below``: the values ``random.shuffle`` and ``randrange``
    would give, without their per-item Python calls."""
    rng = random.Random(seed * 1_000_003 + g.n * 10_007 + g.m)
    m = g.m
    if m == 0:
        raise SearchFailed("no edges to label")
    if m == 1:
        # A single edge always puts the same sum on both endpoints.
        raise SearchFailed("a one-edge graph cannot be antimagic")

    labels = list(range(1, m + 1))
    shuffle(rng, labels)
    state = _ConflictState(g, labels)
    plateau = 0
    restart_after = max(2000, 20 * m)
    for _ in range(budget):
        if state.conflicts == 0:
            break
        i = below(rng, m)
        j = below(rng, m - 1)
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
            shuffle(rng, state.labels)
            state = _ConflictState(g, state.labels)
            plateau = 0
    if state.conflicts:
        raise SearchFailed(f"budget {budget} exhausted with "
                           f"{state.conflicts} conflicts left")
    lab = Labelling(g, state.labels)
    check(verify_bijection(g, lab).ok, "randomized search returned "
          "labels that are not a bijection")
    report = (antimagic_from_sums(g, state.sums) if state.fresh
              else verify_antimagic(g, lab))
    check(report.ok, "randomized search returned a labelling "
          "that is not antimagic")
    return lab, report.sums
