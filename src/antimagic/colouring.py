"""Constructive proper edge colourings, and packings of small matchings.

The subroutines the labelling pipeline delegates to:

* Koenig colouring: a bipartite edge subset of maximum degree <= k, given
  one side of its bipartition, gets a proper colouring with k colours, by
  incremental insertion with alternating-path recolouring.  Stage 1
  uses it for MAIN's G1 only; i = 3 pairs its u-edges by a shift
  (``construction.clash_free_shift``).
* Vizing colouring: any simple edge subset gets a proper colouring with
  at most Delta + 1 colours, by the Misra-Gries fan/rotation scheme.
* Class splitting: peel fixed-size blocks off the largest classes into
  new classes (a subset of a matching is a matching), so the classes
  are already near the size the intervals take.
* Class rebalancing: move edges between two colour classes along
  alternating paths until every class reaches a minimum size.  Each
  round rebuilds what it needs from the two classes: only i = 3's split
  H-H classes are balanced, in at most a few rounds per graph.
* Matching packing: a fixed number of disjoint classes of a fixed
  number of pairwise disjoint edges, taken from an ordered pool by first
  fit, with an exact search where first fit stalls.  MAIN's stage 1
  packs its intervals this way; i = 3 still colours, splits and
  balances its H-H edges.

The two colourings share one layout, per-vertex colour rows (``_Rows``),
so a first free colour is one C-level ``row.index(0)`` and a fan step
one C-level scan of the candidate colours against the tip's row.

All operations are pure, but for ``pack_matchings`` reading its pool as
far as it needs; they return new EdgeColouring values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress, filterfalse, islice
from operator import not_, or_

from .errors import (
    DegreeExceedsColours,
    InfeasibleBalance,
    NotBipartite,
    NotEnoughClasses,
    ProofViolation,
    check,
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


class _Rows:
    """Colour rows: ``at[v]`` is None for a vertex the subset does not
    touch, else k ints whose entry c is 1 + the id of v's colour-c edge,
    or 0 when c is free at v.  ``colour[e]`` is edge e's colour."""

    __slots__ = ("g", "k", "at", "colour")

    def __init__(self, g: Graph, vertices: Counter, k: int):
        self.g, self.k = g, k
        self.at = [[0] * k if v in vertices else None
                   for v in range(g.n + 1)]
        self.colour: list[int | None] = [None] * g.m

    def first_free(self, v: int) -> int:
        # Neither colouring lets a row fill up: Koenig refuses a degree
        # above k before it starts, Vizing takes Delta + 1 colours, and
        # a vertex asked for a free colour has at most degree - 1
        # coloured edges.  Only a direct call reaches the raise.
        try:
            return self.at[v].index(0)
        except ValueError:
            raise DegreeExceedsColours(
                f"no free colour at vertex {v}") from None

    def flip_path(self, start: int, first: int, second: int) -> None:
        """Swap colours first/second along the maximal alternating path
        from ``start`` beginning with a ``first``-coloured edge.  As
        ``second`` is free at ``start``, the path is simple and at each
        of its vertices both colours are path edges or free, so the flip
        swaps the two row entries of every path vertex."""
        at, colour = self.at, self.colour
        cur, col = start, first
        path = [cur]
        while at[cur][col]:
            e = at[cur][col] - 1
            col = second if col == first else first
            colour[e] = col
            cur = self.g.other_end(e, cur)
            path.append(cur)
        for v in path:
            row = at[v]
            row[first], row[second] = row[second], row[first]

    def classes(self, edge_ids: list[int]) -> tuple[tuple[int, ...], ...]:
        """The non-empty classes in colour order, each sorted because
        ``edge_ids`` is."""
        buckets: list[list[int]] = [[] for _ in range(self.k)]
        for e in edge_ids:
            buckets[self.colour[e]].append(e)
        return tuple(tuple(b) for b in buckets if b)


def koenig_colour(g: Graph, edge_ids, k: int, side) -> EdgeColouring:
    """Proper k-colouring of a bipartite edge subset with max degree <= k,
    each of whose edges has exactly one end in the vertex set ``side``.

    Incremental insertion: colour each edge with a colour free at both
    ends, recolouring one alternating path when no common free colour
    exists.  In a bipartite graph the path never returns to the other
    endpoint, so the recolouring always frees a shared colour.
    """
    edge_ids = sorted(edge_ids)
    ends = list(map(g.edges.__getitem__, edge_ids))
    deg = Counter(chain.from_iterable(ends))
    if any(d > k for d in deg.values()):
        worst = max(deg, key=lambda v: deg[v])
        raise DegreeExceedsColours(
            f"vertex {worst} has degree {deg[worst]} > {k} colours")
    # One pass: an edge with both ends or neither end in ``side``.
    inside = set(side).__contains__
    bad = next((ab for ab in ends if inside(ab[0]) == inside(ab[1])), None)
    if bad is not None:
        raise NotBipartite(f"edge {bad[0]}-{bad[1]} does not join side "
                           f"{sorted(side)} to the rest")

    rows = _Rows(g, deg, k)
    at, colour = rows.at, rows.colour
    for e in edge_ids:
        u, v = g.edges[e]
        ru, rv = at[u], at[v]
        alpha, beta = rows.first_free(u), rows.first_free(v)
        # The first colour free at both ends is at least lo; both ends
        # are free where the bitwise or of their entries is 0.
        lo = max(alpha, beta)
        common = lo if not (ru[lo] or rv[lo]) else next(
            compress(range(lo, k), map(not_, map(or_, ru[lo:], rv[lo:]))),
            None)
        if common is None:
            # alpha is free at u and beta at v.  The flipped path leaves
            # v on an alpha edge, so it sits on u's side after each alpha
            # edge; it cannot end at u, where alpha is free, and so
            # leaves alpha free at u and frees it at v.  The raise below
            # cannot fire in a bipartite subset.
            rows.flip_path(v, alpha, beta)
            if ru[alpha] or rv[alpha]:
                raise ProofViolation(
                    f"Koenig path flip left edge {e} no colour")
            common = alpha
        colour[e] = common
        ru[common] = rv[common] = e + 1
    return EdgeColouring(g, rows.classes(edge_ids))


def vizing_colour(g: Graph, edge_ids) -> EdgeColouring:
    """Proper colouring of any simple edge subset with <= Delta + 1 colours
    (Misra-Gries fan rotation scheme).

    Edges are coloured in ascending id and stay coloured, so x's
    coloured edges are its subset edges met before, in id order
    (``seen[x]``).  An edge whose ends share x's first free colour takes
    it without a fan.  Otherwise the fan is maximal even where a prefix
    would do: the colour d rotated in is read at its tip, so a shorter
    fan would change the classes.
    """
    edge_ids = sorted(edge_ids)
    if not edge_ids:
        return EdgeColouring(g, ())
    deg = Counter(chain.from_iterable(map(g.edges.__getitem__, edge_ids)))
    rows = _Rows(g, deg, max(deg.values()) + 1)
    seen: list[list[int]] = [[] for _ in range(g.n + 1)]
    for eid in edge_ids:
        a, b = g.edges[eid]
        x, f = (a, b) if a < b else (b, a)
        _mg_colour_edge(g, rows, seen[x], x, f, eid)
        seen[x].append(eid)
        seen[f].append(eid)
    return EdgeColouring(g, rows.classes(edge_ids))


def _mg_colour_edge(g: Graph, rows: _Rows, x_edges: list[int], x: int,
                    f: int, eid: int) -> None:
    at, colour, edges = rows.at, rows.colour, g.edges
    x_row = at[x]
    c = rows.first_free(x)
    if not at[f][c]:  # x's first free colour is free at f too: no fan
        colour[eid] = c
        x_row[c] = at[f][c] = eid + 1
        return

    # Maximal fan of x starting at f: each next fan edge is the smallest
    # coloured edge at x, not yet in the fan, whose colour is free at the
    # previous fan vertex.  The graph is simple, so the far ends differ.
    cands = [colour[e] for e in x_edges]  # colours, by edge id
    fan_v, fan_e = [f], [eid]
    tip_row = at[f]
    while cands:
        c2 = next(filterfalse(tip_row.__getitem__, cands), None)
        if c2 is None:
            break
        cands.remove(c2)
        e = x_row[c2] - 1
        a, b = edges[e]
        w = b if a == x else a
        fan_e.append(e)
        fan_v.append(w)
        tip_row = at[w]

    d = rows.first_free(fan_v[-1])
    if x_row[d]:
        # c is free at x, so x ends the cd-path and the flip swaps its
        # two row entries: d is free at x afterwards, and the raise
        # below cannot fire.
        rows.flip_path(x, d, c)
        if x_row[d]:
            raise ProofViolation(f"Misra-Gries path flip left colour {d} "
                                 f"used at vertex {x}")
    if not at[f][d]:  # j = 0: d is free at both ends of the new edge
        colour[eid] = d
        x_row[d] = at[f][d] = eid + 1
        return

    # First fan prefix whose tip has d free; the Misra-Gries lemma
    # guarantees one survives the path inversion, so the raise below
    # cannot fire.  d was free at the tip.  If d was free at x, nothing
    # was flipped and the whole fan qualifies.  Otherwise, the fan being
    # maximal, d coloured a fan edge x-w', so d was free at the fan
    # vertex w before w', and the flipped path opened with x-w'.  No
    # other fan edge is coloured c or d, so no other fan condition
    # moved.  If the path does not end at w, d is still free there and
    # the prefix up to w qualifies.  If it does, it entered w on a c
    # edge, now d, so c is free at w and the whole fan is still a fan;
    # the path's ends are x and w, so d is still free at the tip.
    j = None
    for idx in range(1, len(fan_v)):
        if at[fan_v[idx - 1]][colour[fan_e[idx]]]:
            break
        if not at[fan_v[idx]][d]:
            j = idx
            break
    if j is None:
        raise ProofViolation("Misra-Gries fan rotation found no valid prefix")

    # Rotate: fan edge i < j takes fan edge i + 1's colour (free at fan
    # vertex i), fan edge j takes d.
    shifted = [colour[e] for e in fan_e[1:j + 1]] + [d]
    for i, col in enumerate(shifted):
        e, w = fan_e[i], fan_v[i]
        if i:
            at[w][colour[e]] = 0
        colour[e] = col
        x_row[col] = at[w][col] = e + 1


def balance_classes(c: EdgeColouring, min_size: int) -> EdgeColouring:
    """Grow undersized classes to >= min_size edges.

    Each round takes the smallest class as receiver and the largest as
    donor (lowest index on ties) and swaps the two colours along an
    alternating path whose first and last edges belong to the donor
    (``_donor_path``).  The swap moves one edge net from donor to
    receiver, so the loop ends after as many rounds as the classes are
    short of min_size.  The classes come back sorted.

    A round costs a scan of the sizes for each end, plus O(s log s) for
    the two classes' s edges: sorting them, building their vertex maps
    and walking their two-colour subgraph.  Nothing is kept between
    rounds, and that is enough: only i = 3's H-H classes are balanced,
    after ``split_classes`` has cut them to interval size, and at seed 1
    they take 11 rounds over colouring_large's 24 graphs and 152 over
    corpus_small's 768, at most 5 on one graph.
    """
    if not c.classes:
        return c
    sizes = c.sizes()
    if sum(sizes) < min_size * len(sizes):
        raise InfeasibleBalance(
            f"{sum(sizes)} edges cannot fill "
            f"{len(sizes)} classes of {min_size}")
    classes = [sorted(cls) for cls in c.classes]
    while (lo := min(sizes)) < min_size:
        hi = max(sizes)
        # The largest class holds at least the mean, which the check
        # above keeps at min_size or more, so this cannot fire.
        check(hi > lo, "class balancing found no larger donor")
        small, big = sizes.index(lo), sizes.index(hi)
        path = set(_donor_path(c.graph, classes[small], classes[big]))
        # Swapping the colours along the path is a symmetric difference.
        classes[small] = sorted(path.symmetric_difference(classes[small]))
        classes[big] = sorted(path.symmetric_difference(classes[big]))
        sizes[small], sizes[big] = len(classes[small]), len(classes[big])
        # A path of odd length moves exactly one edge net.
        check(sizes[small] == lo + 1 and sizes[big] == hi - 1,
              "class balancing failed to make progress")
    return EdgeColouring(c.graph, tuple(map(tuple, classes)))


def _donor_path(g: Graph, recv: list[int], donor: list[int]) -> list[int]:
    """Edges of an alternating path in the recv/donor two-colour subgraph
    whose first and last edges are donor edges (a single donor edge
    qualifies), in walk order.  Exists whenever |donor| > |recv|.

    Components are disjoint paths and cycles; visiting edges in ascending
    id, the first qualifying path met is the one holding the smallest
    edge id among all qualifying paths.
    """
    # The recv edge and the donor edge at each vertex, indexed by "is a
    # donor edge": from a donor edge the walk goes on along at[False].
    at = ({v: e for e in recv for v in g.edges[e]},
          {v: e for e in donor for v in g.edges[e]})
    donor_set = set(donor)
    seen: set[int] = set()
    for first in sorted(recv + donor):
        if first in seen:
            continue
        # Walk the component both ways from ``first``; a cycle closes
        # back onto ``first`` in the first walk.
        comp, closed = [first], False
        for cur in g.edges[first]:
            on_donor = first in donor_set
            while not closed:
                e = at[not on_donor].get(cur)
                if e is None:
                    break
                closed, on_donor = e == first, not on_donor
                comp.append(e)
                cur = g.other_end(e, cur)
            comp.reverse()
        seen.update(comp)
        if not closed and comp[0] in donor_set and comp[-1] in donor_set:
            return comp
    raise ProofViolation("no alternating path with donor-coloured ends")


def order_classes_for_vertex(c: EdgeColouring, v: int, count: int) -> EdgeColouring:
    """Permute classes so the ``count`` classes holding v's edges come
    first; contents are untouched."""
    at_v = set(c.graph.incident[v])
    holding = [i for i, cls in enumerate(c.classes)
               if not at_v.isdisjoint(cls)]
    if len(holding) < count:
        raise NotEnoughClasses(
            f"vertex {v} appears in {len(holding)} classes < {count}")
    front = holding[:count]
    front_set = set(front)
    order = front + [i for i in range(len(c.classes)) if i not in front_set]
    return EdgeColouring(c.graph, tuple(c.classes[i] for i in order))


def split_classes(c: EdgeColouring, total: int, size: int) -> EdgeColouring:
    """Peel ``size``-edge blocks off the largest classes, then pad with
    empty classes up to ``total`` (never truncates).

    Each step takes the largest class (lowest index on ties) and moves
    its ``size`` lowest edges into a new last class; it stops at
    ``total`` classes or when no class holds 2 * ``size`` edges.  Every
    class is a subset of an input class, so the classes stay proper and
    the balancing that follows only tidies what is left.
    """
    classes = [sorted(cls) for cls in c.classes]
    # Only a class of >= 2 * size edges is peeled; a peeled block, of
    # size edges, never is.  Classes only shrink when popped, so each
    # heap entry holds its class's current size.
    heap = [(-len(cls), i) for i, cls in enumerate(classes)
            if len(cls) >= 2 * size]
    heapify(heap)
    while heap and len(classes) < total:
        i = heappop(heap)[1]
        cls = classes[i]
        classes.append(cls[:size])
        del cls[:size]
        if len(cls) >= 2 * size:
            heappush(heap, (-len(cls), i))
    classes += [[] for _ in range(total - len(classes))]
    return EdgeColouring(c.graph, tuple(map(tuple, classes)))


def pack_matchings(g: Graph, pool, count: int, size: int) -> EdgeColouring:
    """``count`` disjoint classes of ``size`` pairwise vertex-disjoint
    edges from ``pool`` (distinct edge ids), each class in the order its
    edges were picked.

    First fit: class j takes the earliest unused pool edges disjoint from
    what it already holds.  The pool is read lazily, and the edges a
    class passes over are kept, in pool order, for the classes after it.
    So a class opens with the earliest edge no earlier class took.  The
    pool's leading edges that share one vertex (u1's surplus edges in
    MAIN) therefore open classes 1, 2, ... in turn, and every other
    class would pass over all of them: they are kept apart, so that no
    class scans them.

    First fit stalls on a class only once the pool is read to its end.
    Then an exact search over every unused pool edge keeps the class's
    first edge and looks for ``size - 1`` more; only if none exist is
    ProofViolation raised, naming the class.

    Why MAIN's stage 1 never gets there: it packs n - 5 - t classes of 3
    from G2 less the triple edges and the 3t G1 edges, with m >= 7n and
    maximum degree n - 4.  Whichever class is being filled, the others
    hold at most 3(n - 6 - t) edges, so at least
    7n - (n - 4) - 3 - 3t - 3(n - 6 - t) = 3n + 19 G2 edges are unused,
    more than ex(n, 3K2) = max(10, 2n - 3) (Erdos-Gallai 1959): a class
    exists.  The class's first edge has two ends of degree <= n - 4,
    which meet at most 2n - 9 edges, so at least n + 28 unused edges
    avoid both.  A graph with no two disjoint edges is a star or a
    triangle, which hold at most n - 4 and 3 of them, so two disjoint
    ones complete the class and the exact search cannot fail.
    """
    edges = g.edges
    fresh = iter(pool)
    lead, unused = list(islice(fresh, 2)), []
    shared = (set(edges[lead[0]]).intersection(edges[lead[1]])
              if len(lead) == 2 else None)
    if shared:
        (centre,) = shared
        for e in fresh:
            if centre not in edges[e]:
                unused.append(e)
                break
            lead.append(e)
    else:
        lead, unused = [], lead
    classes = []
    for j in range(1, count + 1):
        opener = lead[j - 1:j]
        cls: list[int] = []
        held: set[int] = set()
        read: list[int] = []
        for e in chain(opener, unused, fresh):
            read.append(e)
            ends = edges[e]
            if held.isdisjoint(ends):
                cls.append(e)
                held.update(ends)
                if len(cls) == size:
                    break
        if len(cls) < size:
            # The pool is read to its end, so ``read`` is the class's
            # first edge, then every unused edge that can join it, in
            # pool order (the rest of the lead meets the first edge).
            cls = _exact_class(edges, read, size)
            if cls is None:
                raise ProofViolation(
                    f"no {size} pairwise disjoint unused pool edges "
                    f"for class {j} of {count}")
        unused = (list(filterfalse(set(cls).__contains__, read))
                  + unused[len(read) - len(opener):])
        classes.append(tuple(cls))
    return EdgeColouring(g, tuple(classes))


def _exact_class(edges, candidates: list[int],
                 size: int) -> list[int] | None:
    """``candidates[0]`` and the earliest ``size - 1`` later candidates
    that make a matching with it (lexicographic by position), or None
    when there are none: a depth-first search over all of them."""

    def extend(cls: list[int], held: set[int], start: int):
        if len(cls) == size:
            return cls
        for i in range(start, len(candidates)):
            ends = edges[candidates[i]]
            if held.isdisjoint(ends):
                found = extend(cls + [candidates[i]], held.union(ends),
                               i + 1)
                if found is not None:
                    return found
        return None

    return (extend(candidates[:1], set(edges[candidates[0]]), 1)
            if candidates else None)
