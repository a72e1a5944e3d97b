"""Stage-1 labellings for every regime.

Each constructor produces a complete labelling plus the bookkeeping the
conflict-resolution stage needs (reserved intervals, the sigma'-sorted
order of H, and the maps from label offsets to the H-endpoints of u-edges
and root edges).  Every property the underlying proof guarantees at this
stage is asserted before returning; a failure raises ProofViolation with
a reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import (
    balance_classes,
    koenig_colour,
    order_classes_for_vertex,
    pad_classes,
    vizing_colour,
)
from .errors import (
    HypothesisViolated,
    NotAntimagicShape,
    NotUniversalVertex,
    ProofViolation,
)
from .graph import Graph, InstanceDecomposition, Regime, degenerate_index
from .labelling import Labelling


@dataclass(frozen=True)
class StageOneResult:
    """A completed stage-1 labelling with its resolution bookkeeping.

    ``y_map[i]`` is the H-endpoint of the u-edge labelled m - i;
    ``w_map[i]`` the H-endpoint of the root edge labelled m - i.
    ``intervals`` lists the reserved label blocks subject to the
    one-label-per-vertex discipline (empty for regimes without one).
    """

    labelling: Labelling
    regime: Regime
    intervals: tuple[tuple[int, ...], ...]
    h_sorted: tuple[int, ...]
    y_map: dict[int, int]
    w_map: dict[int, int]


def _reproducer(g: Graph) -> str:
    from .fileio import emit_graph
    return emit_graph(g)


def _h_edges(g: Graph, d: InstanceDecomposition, u: int) -> list[tuple[int, int]]:
    """(H-endpoint, edge id) pairs for u's edges into H, ascending endpoint."""
    out = []
    for e in g.incident[u]:
        w = g.other_end(e, u)
        if w in d.h_set:
            out.append((w, e))
    out.sort()
    return out


def _build_offset_maps(g: Graph, d: InstanceDecomposition, lab: Labelling):
    m = g.m
    u_set = set(d.u)
    y_map: dict[int, int] = {}
    w_map: dict[int, int] = {}
    for eid, (a, b) in enumerate(g.edges):
        off = m - lab.label_of[eid]
        if a == d.r or b == d.r:
            w_map[off] = b if a == d.r else a
        elif (a in u_set) != (b in u_set):
            y_map[off] = b if a in u_set else a
    return y_map, w_map


def label_triple_edges(d: InstanceDecomposition, lab: Labelling) -> Labelling:
    """Give the edges among the u-triple the smallest labels.

    Present edges are sorted by inverted lexicographic order, so a full
    triangle gets u2u3 -> 1, u1u3 -> 2, u1u2 -> 3; absent edges shift the
    later labels down.
    """
    assert lab.assigned == 0, "triple edges must be labelled first"
    g = lab.graph
    u1, u2, u3 = d.u
    nxt = 1
    for a, b in ((u2, u3), (u1, u3), (u1, u2)):
        if g.has_edge(a, b):
            eid = next(e for e in g.incident[a] if g.other_end(e, a) == b)
            lab.assign(eid, nxt)
            nxt += 1
    return lab


def _check(condition: bool, message: str, g: Graph, **details) -> None:
    if not condition:
        raise ProofViolation(message, reproducer=_reproducer(g), details=details)


def _fill_rest_and_root(g: Graph, lab: Labelling, r: int, root_labels,
                        rng=None) -> list[int]:
    """Finish a partial labelling the way every stage 1 ends.

    Every still-unlabelled edge away from r takes the free labels outside
    ``root_labels`` in increasing order, the edges in ascending id (or
    shuffled by ``rng``).  Then r's neighbours are sorted by (partial
    sum, id) and their edges to r take ``root_labels`` in increasing
    order, so the neighbours' final sums keep that order, spaced at least
    as far apart as the root labels.  Returns the sorted neighbours.
    """
    roots = set(root_labels)
    root_edge = {g.other_end(e, r): e for e in g.incident[r]}
    at_root = set(g.incident[r])
    rest = [e for e, lbl in enumerate(lab.label_of)
            if lbl == 0 and e not in at_root]
    if rng is not None:
        rng.shuffle(rest)
    free = [lbl for lbl, e in enumerate(lab.edge_with)
            if e == -1 and lbl != 0 and lbl not in roots]
    _check(len(free) == len(rest) and len(roots) == len(root_edge),
           "label accounting is off", g, free=len(free), rest=len(rest),
           root_labels=len(roots), root_edges=len(root_edge))
    for e, lbl in zip(rest, free):
        lab.assign(e, lbl)
    order = sorted(root_edge, key=lambda v: (lab.sums[v], v))
    for v, lbl in zip(order, sorted(roots)):
        lab.assign(root_edge[v], lbl)
    return order


def _stage_checks(g: Graph, d: InstanceDecomposition, stage: StageOneResult) -> None:
    from .verification import verify_bijection, verify_stage_properties
    rep = verify_bijection(g, stage.labelling)
    _check(rep.ok, f"stage-1 labelling is not a bijection: {rep}", g)
    props = verify_stage_properties(stage, d)
    _check(props.ok, "stage-1 property failure: " + "; ".join(props.failures),
           g, gaps=props.gaps)


def label_main(g: Graph, d: InstanceDecomposition,
               arbitrary_rng=None) -> StageOneResult:
    """Main-regime stage 1 (d'(u3) >= 4, m >= 7n; triple edges allowed).

    Reserved labels, counting down from m: root edges take every fourth
    label; between consecutive root labels sits a three-label interval.
    The first d'(u3) intervals carry one edge of each u_i (a Koenig
    colouring of the bipartite u-H subgraph supplies the grouping); the
    remaining intervals each take three edges of one Vizing colour class
    of the rest, with u1's surplus edges pinned to the interval tops.
    """
    n, m = g.n, g.m
    if m < 7 * n:
        raise HypothesisViolated(f"m = {m} < 7n = {7 * n}")
    t = d.d_prime[2]
    if t < 4:
        raise HypothesisViolated(f"d'(u3) = {t} < 4 is not the main regime")
    u1, u2, u3 = d.u

    lab = Labelling(g)
    label_triple_edges(d, lab)

    # The bipartite graph of t chosen H-edges per u_i, Koenig-coloured
    # with t colours: every class holds exactly one edge of each u_i.
    g1_edges: list[int] = []
    for u in (u1, u2, u3):
        g1_edges.extend(e for _, e in _h_edges(g, d, u)[:t])
    col1 = koenig_colour(g, g1_edges, t)
    _check(len(col1.classes) == t,
           f"Koenig colouring of G1 used {len(col1.classes)} != {t} classes", g)
    for j, cls in enumerate(col1.classes, start=1):
        base = m - 4 * (j - 1)
        by_u = {}
        for e in cls:
            a, b = g.edges[e]
            by_u[a if a in (u1, u2, u3) else b] = e
        _check(len(cls) == 3 and set(by_u) == {u1, u2, u3},
               f"G1 class {j} does not hit u1, u2, u3 exactly once", g)
        lab.assign(by_u[u1], base - 1)
        lab.assign(by_u[u2], base - 2)
        lab.assign(by_u[u3], base - 3)

    # Everything else not incident to r, Vizing-coloured and balanced.
    g2_edges = [e for e in d.e2 if lab.label_of[e] == 0]
    col2 = vizing_colour(g, g2_edges)
    assert len(col2.classes) <= n - 4, "Vizing exceeded Delta(G2) + 1 classes"
    col2 = pad_classes(col2, n - 4)
    col2 = balance_classes(col2, 3)
    a1 = d.d_prime[0] - t
    col2 = order_classes_for_vertex(col2, u1, a1)

    for j in range(t + 1, n - 4):  # intervals I_{t+1} .. I_{n-5}
        cls = col2.classes[j - t - 1]
        base = m - 4 * (j - 1)
        u1_edge = next((e for e in cls if u1 in g.edges[e]), None)
        if j - t <= a1:
            _check(u1_edge is not None,
                   f"class for interval {j} lost its u1 edge", g)
        if u1_edge is not None:
            rest = sorted(e for e in cls if e != u1_edge)[:2]
            _check(len(rest) == 2, f"class for interval {j} too small", g)
            lab.assign(u1_edge, base - 1)
            lab.assign(rest[0], base - 2)
            lab.assign(rest[1], base - 3)
        else:
            _check(len(cls) >= 3, f"class for interval {j} too small", g)
            for k, e in enumerate(sorted(cls)[:3], start=1):
                lab.assign(e, base - k)

    # The remaining (small) labels go to the remaining non-root edges.
    h_sorted = _fill_rest_and_root(
        g, lab, d.r, [m - 4 * k for k in range(n - 4)], arbitrary_rng)

    intervals = tuple(
        tuple(m - 4 * (j - 1) - k for k in (1, 2, 3)) for j in range(1, n - 4))
    y_map, w_map = _build_offset_maps(g, d, lab)
    _check(set(w_map.values()) == set(d.h_vertices),
           "root edges do not cover H", g)
    _check(set(y_map.values()) <= set(d.h_vertices), "Y is not inside H", g)

    stage = StageOneResult(lab, Regime.MAIN, intervals, tuple(h_sorted),
                           y_map, w_map)
    _stage_checks(g, d, stage)
    return stage


def label_case_i1(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u1) <= 3: all u-edges take the smallest labels
    (u3's first, then u2's, then u1's), the root edges the n-4 largest.
    The outcome is antimagic outright."""
    n, m = g.n, g.m
    if m < 7 * n:
        raise HypothesisViolated(f"m = {m} < 7n = {7 * n}")
    if d.d_prime[0] > 3:
        raise HypothesisViolated(f"d'(u1) = {d.d_prime[0]} > 3 is not case i=1")
    u1, u2, u3 = d.u

    lab = Labelling(g)
    label_triple_edges(d, lab)
    nxt = lab.assigned + 1
    for u in (u3, u2, u1):
        for _, e in _h_edges(g, d, u):
            lab.assign(e, nxt)
            nxt += 1
    h_sorted = _fill_rest_and_root(g, lab, d.r, range(m - (n - 4) + 1, m + 1))

    sums = lab.sums
    _check(sums[u1] <= 38, f"sum(u1) = {sums[u1]} > 38", g)
    _check(sums[u3] < sums[u2] < sums[u1],
           f"u sums not increasing: {sums[u3]}, {sums[u2]}, {sums[u1]}", g)
    min_h = min(sums[v] for v in d.h_vertices)
    _check(min_h >= m - (n - 5) and min_h >= 101,
           f"min H sum {min_h} below bound", g)

    y_map, w_map = _build_offset_maps(g, d, lab)
    stage = StageOneResult(lab, Regime.DEGEN_I1, (), tuple(h_sorted),
                           y_map, w_map)
    _stage_checks(g, d, stage)
    from .verification import verify_antimagic
    _check(verify_antimagic(g, lab).ok, "i=1 labelling is not antimagic", g)
    return stage


def label_case_i2(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u1) >= 4 > 3 >= d'(u2): u1 takes every second
    label from the top, the root edges the interleaved odd offsets, so H
    sums are spaced by 2.  The only conflict left for resolution involves
    u1 (the root sum need not dominate u1 here)."""
    n, m = g.n, g.m
    if m < 7 * n:
        raise HypothesisViolated(f"m = {m} < 7n = {7 * n}")
    d1 = d.d_prime[0]
    if d1 < 4 or d.d_prime[1] > 3:
        raise HypothesisViolated(f"d' = {d.d_prime} is not case i=2")
    u1, u2, u3 = d.u

    lab = Labelling(g)
    label_triple_edges(d, lab)
    nxt = lab.assigned + 1
    for u in (u3, u2):
        for _, e in _h_edges(g, d, u):
            lab.assign(e, nxt)
            nxt += 1

    u1_labels = [m - 2 * k for k in range(d1 - 1)] + [m - 2 * (n - 5) - 2]
    for (_, e), lbl in zip(_h_edges(g, d, u1), u1_labels):
        lab.assign(e, lbl)

    r_labels = [m - (2 * k + 1) for k in range(n - 5)] + [m - 2 * (n - 5) - 1]
    h_sorted = _fill_rest_and_root(g, lab, d.r, r_labels)

    sums = lab.sums
    _check(sums[u3] < sums[u2] < 30,
           f"u2/u3 sums out of bounds: {sums[u3]}, {sums[u2]}", g)
    _check(sums[u1] >= sums[u2] + 4,
           f"sum(u1) = {sums[u1]} < sum(u2) + 4 = {sums[u2] + 4}", g)
    min_h = min(sums[v] for v in d.h_vertices)
    _check(min_h >= m - 2 * (n - 5) - 1 and min_h >= 89,
           f"min H sum {min_h} below bound", g)
    _check(all(sums[d.r] >= sums[v] + 4 for v in d.h_vertices),
           "root does not dominate H by 4", g)

    y_map, w_map = _build_offset_maps(g, d, lab)
    stage = StageOneResult(lab, Regime.DEGEN_I2, (), tuple(h_sorted),
                           y_map, w_map)
    _stage_checks(g, d, stage)
    return stage


def label_case_i3(g: Graph, d: InstanceDecomposition) -> StageOneResult:
    """Degenerate case d'(u2) >= 4 > 3 >= d'(u3): root labels step by 3;
    the two labels between consecutive root labels pair one u1-edge with
    one u2-edge (Koenig classes of the bipartite u-H subgraph) while
    they last, then H-H edges fill the remaining two-label intervals."""
    n, m = g.n, g.m
    if m < 7 * n:
        raise HypothesisViolated(f"m = {m} < 7n = {7 * n}")
    d1, d2, d3 = d.d_prime
    if d2 < 4 or d3 > 3:
        raise HypothesisViolated(f"d' = {d.d_prime} is not case i=3")
    u1, u2, u3 = d.u

    lab = Labelling(g)
    label_triple_edges(d, lab)
    nxt = lab.assigned + 1
    for _, e in _h_edges(g, d, u3):
        lab.assign(e, nxt)
        nxt += 1

    # Koenig classes over u1's and u2's H-edges: one u1-edge per class,
    # the d'(u2) classes holding a u2-edge first.  Class k feeds interval
    # I_k = {m - 3k - 1, m - 3k - 2}.
    ue = [e for u in (u1, u2) for _, e in _h_edges(g, d, u)]
    colu = koenig_colour(g, ue, d1)
    _check(len(colu.classes) == d1,
           f"u-edge Koenig colouring used {len(colu.classes)} != {d1} classes", g)

    def class_key(cls):
        has_u2 = any(u2 in g.edges[e] for e in cls)
        return (0 if has_u2 else 1, min(cls))

    ordered = sorted(colu.classes, key=class_key)
    for k, cls in enumerate(ordered):
        u1_edge = next((e for e in cls if u1 in g.edges[e]), None)
        u2_edge = next((e for e in cls if u2 in g.edges[e]), None)
        _check(u1_edge is not None, f"u-edge class {k} has no u1 edge", g)
        _check(len(cls) <= 2, f"u-edge class {k} has {len(cls)} edges", g)
        lab.assign(u1_edge, m - 1 - 3 * k)
        if u2_edge is not None:
            _check(k < d2, "u2 edge escaped the first d'(u2) classes", g)
            lab.assign(u2_edge, m - 2 - 3 * k)

    # H-H edges for the remaining interval slots.
    pending = list(range(d2, n - 5))  # interval indices needing H-H edges
    if pending:
        hh = [e for e in d.e2 if lab.label_of[e] == 0]
        colh = vizing_colour(g, hh)
        colh = pad_classes(colh, max(len(colh.classes), len(pending)))
        colh = balance_classes(colh, 2)
        for idx, k in enumerate(pending):
            cls = sorted(colh.classes[idx])
            if k < d1:
                # Single slot: the interval already holds a u1-edge; the
                # H-H edge must avoid its endpoint.
                y_k = g.other_end(lab.edge_with[m - 1 - 3 * k], u1)
                e = next(e for e in cls if y_k not in g.edges[e])
                lab.assign(e, m - 2 - 3 * k)
            else:
                lab.assign(cls[0], m - 1 - 3 * k)
                lab.assign(cls[1], m - 2 - 3 * k)

    h_sorted = _fill_rest_and_root(g, lab, d.r,
                                   [m - 3 * k for k in range(n - 4)])

    sums = lab.sums
    _check(sums[u3] <= 18, f"sum(u3) = {sums[u3]} > 18", g)
    _check(sums[d.r] >= sums[u1] + 4 and sums[u1] >= sums[u2] + 4,
           f"top sums out of order: r={sums[d.r]} u1={sums[u1]} u2={sums[u2]}", g)
    _check(sums[u3] + 4 <= sums[u2], "u3 too close to u2", g)
    _check(all(sums[d.r] >= sums[v] + 4 for v in d.h_vertices),
           "root does not dominate H by 4", g)
    min_h = min(sums[v] for v in d.h_vertices)
    _check(sums[u3] + 4 <= min_h, "u3 too close to H", g)

    intervals = tuple((m - 3 * k - 1, m - 3 * k - 2) for k in range(n - 5))
    y_map, w_map = _build_offset_maps(g, d, lab)
    stage = StageOneResult(lab, Regime.DEGEN_I3, intervals, tuple(h_sorted),
                           y_map, w_map)
    _stage_checks(g, d, stage)
    return stage


def label_disconnected(g: Graph, d: InstanceDecomposition,
                       regime: Regime) -> StageOneResult:
    """The two disconnected families.

    With u3 isolated, the degenerate construction for i = min{j : d'(u_j)
    <= 3} applies verbatim.  When the triple is its own component (K3 or
    P3), it takes the smallest labels and the universal-vertex
    construction labels H plus the root with the rest.  The caller has
    already rejected the shapes that cannot be antimagic.
    """
    if regime == Regime.DISC_U3_ISOLATED:
        i = degenerate_index(d)
        if i is None:
            raise HypothesisViolated(
                f"d' = {d.d_prime} has no degenerate index")
        builder = {1: label_case_i1, 2: label_case_i2, 3: label_case_i3}[i]
        return builder(g, d)

    assert regime == Regime.DISC_TRIPLE_COMPONENT
    n, m = g.n, g.m
    if m < 7 * n:
        raise HypothesisViolated(f"m = {m} < 7n = {7 * n}")
    lab = Labelling(g)
    label_triple_edges(d, lab)
    h_sorted = _fill_rest_and_root(g, lab, d.r, range(m - (n - 4) + 1, m + 1))

    y_map, w_map = _build_offset_maps(g, d, lab)
    stage = StageOneResult(lab, Regime.DISC_TRIPLE_COMPONENT, (),
                           tuple(h_sorted), y_map, w_map)
    _stage_checks(g, d, stage)
    from .verification import verify_antimagic
    _check(verify_antimagic(g, lab).ok,
           "triple-component labelling is not antimagic", g)
    return stage


def label_delta_n1(g: Graph, r: int) -> Labelling:
    """Universal-vertex construction: non-star edges take the small labels
    in edge-id order, then the star edges take the top labels following
    the partial-sum sort, which separates every pair of sums."""
    n, m = g.n, g.m
    if g.degree(r) != n - 1:
        raise NotUniversalVertex(f"degree(r) = {g.degree(r)} != n - 1")
    if n == 2:
        raise NotAntimagicShape("a single edge has equal endpoint sums")

    lab = Labelling(g)
    _fill_rest_and_root(g, lab, r, range(m - (n - 1) + 1, m + 1))

    from .verification import verify_antimagic
    rep = verify_antimagic(g, lab)
    _check(rep.ok, f"universal-vertex labelling has conflicts {rep.conflicts}", g)
    top = max(lab.sums[v] for v in range(1, n + 1) if v != r)
    _check(lab.sums[r] > top, "root sum is not maximal", g)
    return lab
