import gc
import tracemalloc

import pytest

from antimagic import (
    Regime,
    build_graph,
    classify_regime,
    decompose,
    gen_instance,
    label,
)
from antimagic.errors import (
    DuplicateEdge,
    SelfLoop,
    TooSmall,
    VertexOutOfRange,
    WrongMaxDegree,
)
from antimagic.generator import TARGETS, min_feasible_n
from antimagic.graph import Graph, has_isolated_edge, isolated_vertices


def test_build_triangle():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert g.m == 3
    assert g.degree(1) == g.degree(2) == g.degree(3) == 2


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(1, 1)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph(4, [(1, 2), (1, 2)])
    with pytest.raises(DuplicateEdge):
        build_graph(4, [(1, 2), (2, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(1, 4)])


def test_edge_ids_follow_input_order():
    g = build_graph(4, [(3, 4), (1, 2)])
    assert g.edges[0] == (3, 4)
    assert g.edges[1] == (1, 2)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_adjacency_maps_each_neighbour_to_its_edge(target):
    g = gen_instance(min_feasible_n(target), target, seed=1)
    for eid, (u, v) in enumerate(g.edges):
        assert g.adjacency[u][v] == g.adjacency[v][u] == eid
    for v in range(g.n + 1):
        inc = g.incident[v]
        assert all(a < b for a, b in zip(inc, inc[1:]))
        assert g._degrees[v] == len(inc) == len(g.adjacency[v])


def test_graph_footprint():
    # The neighbour -> edge-id maps live only during the build: a peak
    # of about 45 KB and 16 KB kept on CPython 3.10-3.13, against a
    # peak of 58 KB, all of it kept, when every vertex kept its map.
    edges = gen_instance(40, "main", seed=1).edges
    tracemalloc.start()
    try:
        g = Graph(40, edges)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == len(edges)
    assert peak < 80_000
    assert kept < 30_000


def test_only_the_asking_vertices_get_a_map():
    g = gen_instance(24, "main", seed=1)
    d = decompose(g)
    assert not has_isolated_edge(g)
    label(g)
    assert set(g.adjacency._maps) == {d.r, *d.u}
    assert g.adjacency[d.r] is g.adjacency[d.r]


def test_graph_is_freed_without_the_cycle_collector():
    edges = gen_instance(40, "main", seed=1).edges
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        g = Graph(40, edges)
        d = decompose(g)
        assert g.adjacency[d.r] and g.adjacency[d.u[0]]
        del g, d
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_decompose_orders_u_triple_by_degree():
    g = gen_instance(21, "main", seed=1)
    d = decompose(g)
    degs = [g.degree(u) for u in d.u]
    assert degs[0] >= degs[1] >= degs[2]
    # Recompute d' from adjacency and confirm the claimed ordering.
    for u, dp in zip(d.u, d.d_prime):
        assert sum(1 for w in g.adjacency[u] if w in d.h_set) == dp
    assert d.d_prime[0] >= d.d_prime[1] >= d.d_prime[2]


def test_decompose_partitions_vertices():
    g = gen_instance(20, "degen_i3", seed=3)
    d = decompose(g)
    everything = {d.r, *d.u, *d.h_vertices}
    assert everything == set(range(1, g.n + 1))
    assert len(d.e1) == g.n - 4
    e2 = list(d.non_root_edges(g.m))
    assert set(d.e1) | set(e2) == set(range(g.m))
    assert not set(d.e1) & set(e2)


def test_decompose_root_tie_break_smallest_id():
    # Vertices 2 and 5 both reach the maximum degree 4 = n - 4.
    g = build_graph(8, [(2, 5), (2, 6), (2, 7), (2, 8),
                        (5, 6), (5, 7), (5, 8), (1, 6)])
    assert g.degree(2) == g.degree(5) == 4 == g.n - 4
    assert decompose(g).r == 2


def test_non_root_edges_fill_the_gaps_between_the_root_edges():
    # r = 2 holds edge ids 0, 2, 5 and 7: the first, the last and two
    # between, so the runs between them are empty, one id and two ids.
    g = build_graph(8, [(2, 5), (5, 6), (2, 6), (6, 7), (7, 8), (2, 7),
                        (1, 5), (2, 8)])
    d = decompose(g)
    assert (d.r, d.e1) == (2, (0, 2, 5, 7))
    assert list(d.non_root_edges(g.m)) == [1, 3, 4, 6]
    # Lazy: the first id comes out before the rest are read.
    assert next(d.non_root_edges(g.m)) == 1


def test_decompose_rejects_wrong_max_degree():
    star = build_graph(6, [(1, v) for v in range(2, 7)])  # Delta = n - 1
    with pytest.raises(WrongMaxDegree):
        decompose(star)


def test_decompose_rejects_tiny():
    g = build_graph(7, [(1, v) for v in range(2, 5)])
    with pytest.raises(TooSmall):
        decompose(g)


def test_decompose_deterministic():
    g = gen_instance(22, "main", seed=9)
    assert decompose(g) == decompose(g)


def test_classify_main():
    g = gen_instance(22, "main", seed=81)
    d = decompose(g)
    assert d.d_prime == (9, 7, 5)
    assert classify_regime(g, d) == Regime.MAIN
    assert g.n >= 16


def test_classify_degen_i3_from_dprime():
    g = gen_instance(21, "degen_i3", seed=484)
    d = decompose(g)
    assert d.d_prime == (6, 5, 2)
    assert d.triple_edges == ()
    assert classify_regime(g, d) == Regime.DEGEN_I3


def test_classify_disc_triple_p3():
    g = gen_instance(22, "disc_triple", seed=1)
    d = decompose(g)
    assert d.d_prime == (0, 0, 0)
    assert len(d.triple_edges) == 2
    assert classify_regime(g, d) == Regime.DISC_TRIPLE_COMPONENT


def test_classify_yilma_on_common_neighbour():
    g = gen_instance(20, "yilma", seed=2)
    d = decompose(g)
    u1, u2, u3 = d.u
    adj = g.adjacency
    common = adj[u1].keys() & adj[u2].keys() & adj[u3].keys() & d.h_set
    assert common
    assert classify_regime(g, d) == Regime.YILMA_FALLBACK


def test_classify_unsupported_below_7n():
    g = build_graph(8, [(1, 5), (1, 6), (1, 7), (1, 8),
                        (5, 6), (5, 7), (5, 8)])
    d = decompose(g)
    assert g.m < 7 * g.n
    assert classify_regime(g, d) == Regime.UNSUPPORTED


def test_no_common_neighbour_outside_yilma():
    for target in ("main", "main_triple", "degen_i2", "disc_u3_isolated"):
        g = gen_instance(22, target, seed=11)
        d = decompose(g)
        u1, u2, u3 = d.u
        adj = g.adjacency
        assert not (adj[u1].keys() & adj[u2].keys()
                    & adj[u3].keys() & d.h_set)


def test_shape_helpers():
    g = build_graph(5, [(1, 2), (3, 4)])
    assert has_isolated_edge(g)
    assert isolated_vertices(g) == [5]


@pytest.mark.parametrize("target", ["main", "main_triple", "degen_i1",
                                    "degen_i2", "degen_i3",
                                    "disc_u3_isolated", "disc_triple",
                                    "yilma"])
def test_decompose_m_h_counts_h_edges(target):
    # Off the root, the edges without a u-endpoint are exactly H's edges.
    for seed in (1, 2, 3):
        g = gen_instance(24, target, seed=seed)
        d = decompose(g)
        e2 = list(d.non_root_edges(g.m))
        assert [e for e in e2 if not set(g.edges[e]) & set(d.u)] == [
            e for e in range(g.m) if set(g.edges[e]) <= d.h_set]
        assert e2 == [e for e in range(g.m) if e not in d.e1]


def test_has_isolated_edge_matches_edge_scan(rng):
    from conftest import random_graph
    for _ in range(300):
        g = random_graph(rng.randrange(2, 9), rng.choice((0.1, 0.2, 0.4)),
                         rng)
        expect = any(g.degree(a) == 1 and g.degree(b) == 1
                     for a, b in g.edges)
        assert has_isolated_edge(g) == expect
