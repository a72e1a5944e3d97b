"""Stage-1 labellings for every regime.

Each constructor produces a complete labelling, its regime and the
vertex sums its check recomputed.  The constructors place the reserved
labels by the paper's formulas; the check and the resolver read where
they sit from ``graph.STEP``, so a constructor that strays from that
layout fails its check.  Every regime follows one skeleton: ``_begin``
checks the hypotheses and returns a plain per-edge label list with the
triple edges labelled, the constructor writes its reserved labels into
it through ``_write``, ``_fill_rest_and_root`` checks those labels as
one batch, gives out the small and the root labels and makes the list a
complete ``Labelling``, and ``_finish`` has
``verification.verify_stage_properties`` check every property the
underlying proof guarantees at this stage; a failure raises
ProofViolation, which carries a reproducer only once it has passed
through ``pipeline.label``.  The constructors themselves check no
vertex sum.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, filterfalse, islice
from operator import eq

from .colouring import (
    balance_classes,
    koenig_colour,
    order_classes_for_vertex,
    pack_matchings,
    split_classes,
    vizing_colour,
)
from .errors import (
    HypothesisViolated,
    NotAntimagicShape,
    NotUniversalVertex,
    ProofViolation,
    check,
)
from .graph import STEP, Graph, InstanceDecomposition, Regime, stage_regime
from .labelling import Labelling
from .verification import recompute_sums


@dataclass(frozen=True)
class StageOneResult:
    """A completed stage-1 labelling, its regime, and the vertex sums the
    stage-property check recomputed from the raw labels."""

    labelling: Labelling
    regime: Regime
    sums: list[int] = field(repr=False)


def _h_ends(g: Graph, d: InstanceDecomposition, u: int) -> list[int]:
    """u's neighbours in H, ascending."""
    return sorted(g.adjacency[u].keys() & d.h_set)


def _h_edges(g: Graph, d: InstanceDecomposition, u: int) -> list[int]:
    """The ids of u's edges into H, by ascending H-endpoint."""
    return list(map(g.adjacency[u].__getitem__, _h_ends(g, d, u)))


def _write(label_of: list[int], given: list[int], eids: list[int],
           labels: Sequence[int]) -> None:
    """Give edge ``eids[k]`` label ``labels[k]`` in the per-edge list, 0
    meaning no label yet, and add the labels to ``given``, which
    ``_fill_rest_and_root`` checks as one batch.  An edge that already
    has a label, or a batch whose two lists differ in length, raises
    ProofViolation."""
    if len(eids) != len(labels):
        raise ProofViolation(f"{len(eids)} edges against {len(labels)} labels")
    for e, x in zip(eids, labels):
        if label_of[e]:
            raise ProofViolation(f"edge {e} already labelled")
        label_of[e] = x
    given += labels


def _begin(g: Graph, d: InstanceDecomposition,
           regime: Regime) -> tuple[list[int], list[int]]:
    """Open every stage 1: raise HypothesisViolated unless m >= 7n and
    d' calls for the constructor's ``regime``, then give the edges among
    the u-triple the smallest labels.  Returns the per-edge labels and
    the labels given so far, the two lists ``_write`` extends.

    Present triple edges are sorted by inverted lexicographic order, so
    a full triangle gets u2u3 -> 1, u1u3 -> 2, u1u2 -> 3; absent edges
    shift the later labels down.
    """
    if g.m < 7 * g.n:
        raise HypothesisViolated(f"m = {g.m} < 7n = {7 * g.n}")
    wanted = stage_regime(d)
    if wanted != regime:
        raise HypothesisViolated(
            f"d' = {d.d_prime} calls for {wanted.value}, not {regime.value}")
    label_of, given = [0] * g.m, []
    # d.triple_edges lists the present ones as u1u2, u1u3, u2u3.
    triple = [g.adjacency[a][b] for a, b in reversed(d.triple_edges)]
    _write(label_of, given, triple, range(1, len(triple) + 1))
    return label_of, given


def _fill_rest_and_root(g: Graph, label_of: list[int], given: list[int],
                        r: int, root_labels) -> Labelling:
    """Finish the per-edge labels the way every stage 1 ends, and make
    them a labelling.

    Every still-unlabelled edge away from r takes the free labels, those
    neither ``given`` nor in ``root_labels``, in increasing order, the
    edges in ascending id.  Then r's neighbours are sorted by (partial
    sum, id) and their edges to r take ``root_labels`` in increasing
    order, so the neighbours' final sums keep that order, spaced at
    least as far apart as the root labels.

    The given and the root labels, at most 4n, are checked as one sorted
    batch: each in 1..m, none repeated, and one root label per root
    edge.  With the writer's refusal of a labelled edge, that makes the
    free labels exactly as many as the unlabelled edges.  The free labels
    are read lazily: the gaps below and between the batch's labels, then
    the labels above it, as many as the edges ask for.  r marks its
    edges in ``label_of`` (adding r to every neighbour's partial sum
    alike), one comprehension gives each edge still at 0 the next free
    label, and the root labels overwrite the marks.  A failed guard
    raises ProofViolation; labels written past ``_write`` are caught by
    the bijection check every caller makes next.
    """
    m, at_r, root_edge = g.m, g.incident[r], g.adjacency[r]
    roots = sorted(root_labels)
    for e in at_r:
        if label_of[e]:
            raise ProofViolation(f"root edge {e} is already labelled")
        label_of[e] = r
    taken = sorted(given + roots)
    if taken:
        bad = taken[0] if taken[0] < 1 else taken[-1] if taken[-1] > m \
            else next(compress(taken, map(eq, taken, taken[1:])), None)
        if bad is not None:
            raise ProofViolation(
                f"reserved or root label {bad} out of range or taken")
    if len(roots) != len(at_r):
        raise ProofViolation(
            f"label accounting is off: {len(roots)} root labels for "
            f"{len(at_r)} root edges")
    below = [0, *taken]
    take = chain(chain.from_iterable(map(range, map((1).__add__, below),
                                         taken)),
                 count(below[-1] + 1)).__next__
    label_of = [x or take() for x in label_of]
    sums = recompute_sums(g, label_of)
    for v, x in zip(sorted(sorted(root_edge), key=sums.__getitem__), roots):
        label_of[root_edge[v]] = x
    return Labelling(g, label_of)


def _finish(g: Graph, d: InstanceDecomposition, lab: Labelling,
            regime: Regime) -> StageOneResult:
    """Close every stage 1: check from the raw labels the bijection and
    every stage property, and carry the sums that check recomputed."""
    # Imported here so the span wrappers on these bindings see the calls.
    from .verification import verify_bijection, verify_stage_properties
    rep = verify_bijection(g, lab)
    if not rep.ok:
        raise ProofViolation(f"stage-1 labelling is not a bijection: {rep}")
    props = verify_stage_properties(lab, regime, d)
    if not props.ok:
        raise ProofViolation(
            "stage-1 property failure: " + "; ".join(props.failures),
            details={"gaps": props.gaps})
    return StageOneResult(lab, regime, props.sums)


def label_main(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Main-regime stage 1 (d'(u3) >= 4, m >= 7n; triple edges allowed).

    Reserved labels, counting down from m: root edges take every fourth
    label; between consecutive root labels sits a three-label interval.
    The first d'(u3) intervals carry one edge of each u_i (a Koenig
    colouring of the bipartite u-H subgraph supplies the grouping); each
    remaining interval takes one class of three pairwise vertex-disjoint
    G2 edges, with u1's surplus edges pinned to the interval tops.

    The classes are packed directly, by first fit (``pack_matchings``):
    u1's a1 = d'(u1) - t surplus edges are the seeds, so class j <= a1
    opens with u1's j-th surplus edge and u1's surplus edges sit in
    distinct intervals; the pool is the rest of G2, without u1's edges,
    by ascending id.  The pool reads G2 lazily from ``non_root_edges``,
    so packing stops after the prefix it needs.  The edges no class
    takes get small labels.  A hand-built graph can have d'(u1) = n - 4,
    one more surplus edge than intervals; that edge takes a small label.
    """
    t = d.d_prime[2]
    label_of, given = _begin(g, d, Regime.MAIN)
    n, m = g.n, g.m
    u1, u2, u3 = d.u

    # The bipartite graph of t chosen H-edges per u_i, Koenig-coloured
    # with t colours: every class holds exactly one edge of each u_i.
    g1_edges: list[int] = []
    for u in (u1, u2, u3):
        g1_edges.extend(_h_edges(g, d, u)[:t])
    col1 = koenig_colour(g, g1_edges, t, d.u)
    if len(col1.classes) != t:
        raise ProofViolation(
            f"Koenig colouring of G1 used {len(col1.classes)} != {t} classes")
    # Class j feeds interval I_j: u1's, u2's and u3's edge, top down.
    g1: list[int] = []
    for j, cls in enumerate(col1.classes, start=1):
        by_u = {}
        for e in cls:
            a, b = g.edges[e]
            by_u[a if a in (u1, u2, u3) else b] = e
        if len(cls) != 3 or set(by_u) != {u1, u2, u3}:
            raise ProofViolation(
                f"G1 class {j} does not hit u1, u2, u3 exactly once")
        g1 += by_u[u1], by_u[u2], by_u[u3]
    _write(label_of, given, g1,
           [m - 4 * k - i for k in range(t) for i in (1, 2, 3)])

    # u1's surplus edges seed the first classes; the rest of G2 fills
    # them, by ascending id.
    labelled = label_of.__getitem__
    at_u1 = set(g.incident[u1])
    seeds = list(filterfalse(labelled, g.incident[u1]))
    pool = filterfalse(at_u1.__contains__,
                       filterfalse(labelled, d.non_root_edges(m)))
    intervals = n - 5 - t  # I_{t+1} .. I_{n-5}, one class each
    col2 = pack_matchings(g, seeds, pool, intervals, STEP[Regime.MAIN] - 1)
    # Packing already puts u1's surplus edges in the first classes; this
    # checks that they sit in distinct ones (NotEnoughClasses otherwise).
    a1 = len(seeds)
    col2 = order_classes_for_vertex(col2, u1, min(a1, intervals))

    # Class k feeds interval I_{t+1+k}.  Each class holds u1's edge, if
    # any, first and the rest by ascending id, the packer's pick order:
    # that edge takes the interval top.
    eids: list[int] = []
    for j, cls in enumerate(col2.classes, start=t + 1):
        if j - t <= a1 and not (cls and cls[0] in at_u1):
            raise ProofViolation(f"class for interval {j} lost its u1 edge")
        if len(cls) < 3:
            raise ProofViolation(f"class for interval {j} too small")
        eids += cls[:3]
    _write(label_of, given, eids,
           [m - 4 * k - i for k in range(t, n - 5) for i in (1, 2, 3)])

    lab = _fill_rest_and_root(g, label_of, given, d.r,
                              [m - 4 * k for k in range(n - 4)])
    return _finish(g, d, lab, Regime.MAIN)


def label_case_i1(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u1) <= 3: all u-edges take the smallest labels
    (u3's first, then u2's, then u1's), the root edges the n-4 largest.
    The outcome is antimagic outright."""
    label_of, given = _begin(g, d, Regime.DEGEN_I1)
    n, m = g.n, g.m
    low = [e for u in reversed(d.u) for e in _h_edges(g, d, u)]
    start = len(given) + 1
    _write(label_of, given, low, range(start, start + len(low)))
    lab = _fill_rest_and_root(g, label_of, given, d.r,
                              range(m - (n - 4) + 1, m + 1))
    return _finish(g, d, lab, Regime.DEGEN_I1)


def label_case_i2(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u1) >= 4 > 3 >= d'(u2): u1 takes every second
    label from the top, the root edges the interleaved odd offsets, so H
    sums are spaced by 2.  The only conflict left for resolution involves
    u1 (the root sum need not dominate u1 here)."""
    d1 = d.d_prime[0]
    label_of, given = _begin(g, d, Regime.DEGEN_I2)
    n, m = g.n, g.m
    u1, u2, u3 = d.u
    low = [e for u in (u3, u2) for e in _h_edges(g, d, u)]
    start = len(given) + 1
    _write(label_of, given, low + _h_edges(g, d, u1),
           [*range(start, start + len(low)),
            *(m - 2 * k for k in range(d1 - 1)), m - 2 * (n - 5) - 2])

    lab = _fill_rest_and_root(g, label_of, given, d.r,
                              [m - 2 * k - 1 for k in range(n - 4)])
    return _finish(g, d, lab, Regime.DEGEN_I2)


def clash_free_shift(a: list[int], b: list[int]) -> int:
    """The smallest s such that a[(k + s) % len(a)] != b[k] for every
    k < len(b): the shift that pairs u1's and u2's H ends in i = 3.

    ``a`` and ``b`` each list distinct vertices, and len(b) <= len(a).
    A vertex x in both forbids exactly one shift,
    (pos_a(x) - pos_b(x)) mod len(a).  Why a shift is always left: if
    all len(a) shifts were forbidden, then |a & b| >= len(a) >= len(b),
    so a and b hold the same vertices; sorted, as stage 1 passes them,
    they are the same list, every common vertex forbids only shift 0,
    and len(a) >= 4 leaves shift 1 free.
    """
    pos = {x: i for i, x in enumerate(a)}
    d1 = len(a)
    forbidden = {(pos[x] - k) % d1 for k, x in enumerate(b) if x in pos}
    return next(s for s in range(d1) if s not in forbidden)


def label_case_i3(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u2) >= 4 > 3 >= d'(u3): root labels step by 3;
    the two labels between consecutive root labels pair one u1-edge with
    one u2-edge while they last, then H-H edges fill the remaining
    two-label intervals.

    The pairing is a cyclic shift (``clash_free_shift``): interval
    I_k = {m - 3k - 1, m - 3k - 2}, k = 0 .. d'(u1) - 1, takes u1's edge
    to the ((k + s) mod d'(u1))-th of u1's H ends on top and, for
    k < d'(u2), u2's edge to the k-th of u2's H ends below, the two ends
    distinct by the choice of s.  No colouring is needed: an interval
    asks for a pair, not a colour class.

    Only the 2(n - 4) lowest-id H-H edges are coloured, the first
    unlabelled ids ``non_root_edges`` yields, read no further: their
    maximum degree is at most that of H-H, so there are at most n - 4
    classes and enough edges to balance each to two; the rest take
    small labels.
    The classes are split into blocks of two, one per pending interval,
    before the balancing.
    """
    label_of, given = _begin(g, d, Regime.DEGEN_I3)
    n, m = g.n, g.m
    u1, u2, u3 = d.u

    a, b = _h_ends(g, d, u1), _h_ends(g, d, u2)
    d1, d2 = len(a), len(b)
    s = clash_free_shift(a, b)
    a = a[s:] + a[:s]  # a[k]: u1's H end in interval k
    clash = next(compress(range(d2), map(eq, a, b)), None)
    if clash is not None:
        raise ProofViolation(f"u-edge pair for interval {clash} shares "
                             f"its H end {a[clash]}")
    # u3's H-edges take the labels after the triple's; then the pairs.
    u3_edges = _h_edges(g, d, u3)
    low = len(given) + 1
    _write(label_of, given,
           u3_edges + list(map(g.adjacency[u1].__getitem__, a))
           + list(map(g.adjacency[u2].__getitem__, b)),
           [*range(low, low + len(u3_edges)),
            *range(m - 1, m - 1 - 3 * d1, -3),
            *range(m - 2, m - 2 - 3 * d2, -3)])

    pending = range(d2, n - 5)  # intervals still needing H-H edges
    if pending:
        hh = list(islice(filterfalse(label_of.__getitem__,
                                     d.non_root_edges(m)), 2 * (n - 4)))
        colh = vizing_colour(g, hh)
        colh = split_classes(colh, max(len(colh.classes), len(pending)), 2)
        colh = balance_classes(colh, 2)
        # Balanced classes come back sorted, so each interval takes its
        # class's lowest eligible edges.
        eids: list[int] = []
        labels: list[int] = []
        for k, cls in zip(pending, colh.classes):
            if k < d1:
                # Single slot: the interval already holds a u1-edge; the
                # H-H edge must avoid its endpoint.
                y_k = a[k]
                e = next((e for e in cls if y_k not in g.edges[e]), None)
                if e is None:
                    raise ProofViolation(
                        f"H-H class for interval {k} has no edge avoiding "
                        f"u1's neighbour {y_k}")
                eids.append(e)
                labels.append(m - 2 - 3 * k)
            else:
                eids += cls[:2]
                labels += (m - 1 - 3 * k, m - 2 - 3 * k)
        _write(label_of, given, eids, labels)

    lab = _fill_rest_and_root(g, label_of, given, d.r,
                              [m - 3 * k for k in range(n - 4)])
    return _finish(g, d, lab, Regime.DEGEN_I3)


def label_disconnected(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Both disconnected families: the degenerate construction for
    i = min{j : d'(u_j) <= 3}, as it stands (the paper's, for u3 isolated).

    A triple that is its own component (K3 or P3) has d' = (0, 0, 0), so
    i = 1, and the i = 1 bounds hold: its edges take labels <= 3 and no
    u has an H-edge, so u3 < u2 < u1 (sums 3, 4, 5 for K3; 1, 2, 3 for a
    P3, whose centre is u1).  The graph has at most C(n - 3, 2) + 3
    edges, so m >= 7n forces n >= 21, and every H vertex holds a root
    label >= m - (n - 5) >= 131.  The caller rejects unlabellable shapes.
    """
    regime = stage_regime(d)
    if regime == Regime.MAIN:
        raise HypothesisViolated(f"d' = {d.d_prime} has no degenerate index")
    # Built per call, so the span wrappers on these names see the call.
    return {Regime.DEGEN_I1: label_case_i1, Regime.DEGEN_I2: label_case_i2,
            Regime.DEGEN_I3: label_case_i3}[regime](g, d)


def label_delta_n1(g: Graph, r: int) -> Labelling:
    """Universal-vertex construction: non-star edges take the small labels
    in edge-id order, then the star edges take the top labels following
    the partial-sum sort, which separates every pair of sums.  As every
    stage 1 is in ``_finish``, the result is checked from its raw labels:
    a bijection, then antimagic with the root sum on top."""
    n, m = g.n, g.m
    if g.degree(r) != n - 1:
        raise NotUniversalVertex(f"degree(r) = {g.degree(r)} != n - 1")
    if n == 2:
        raise NotAntimagicShape("a single edge has equal endpoint sums")

    lab = _fill_rest_and_root(g, [0] * m, [], r,
                              range(m - (n - 1) + 1, m + 1))

    from .verification import verify_antimagic, verify_bijection
    rep = verify_bijection(g, lab)
    if not rep.ok:
        raise ProofViolation(
            f"universal-vertex labelling is not a bijection: {rep}")
    rep = verify_antimagic(g, lab)
    if not rep.ok:
        raise ProofViolation(
            f"universal-vertex labelling has conflicts {rep.conflicts}")
    check(all(rep.sums[r] > rep.sums[v] for v in range(1, n + 1) if v != r),
          "root sum is not maximal")
    return lab
