import random
from itertools import combinations

import pytest

import antimagic.oracle as oracle
from antimagic import (
    build_graph,
    exhaustive_search,
    gen_instance,
    randomized_search,
    verify_antimagic,
)
from antimagic.errors import ProofViolation, SearchFailed, TooLarge
from conftest import brute_is_antimagic_labelling


def test_k2_proven_not_antimagic():
    g = build_graph(2, [(1, 2)])
    assert exhaustive_search(g) is None


def test_p3_found():
    g = build_graph(3, [(1, 2), (2, 3)])
    lab = exhaustive_search(g)
    assert lab is not None
    assert verify_antimagic(g, lab).ok


def test_k3_and_k4_found():
    k3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert exhaustive_search(k3) is not None
    k4 = build_graph(4, list(combinations(range(1, 5), 2)))
    assert exhaustive_search(k4) is not None


@pytest.mark.parametrize("labels", [(1, 1, 3), (0, 2, 3), (1, 2, 4)],
                         ids=["repeated", "zero", "above-m"])
def test_exhaustive_search_refuses_labels_that_are_no_bijection(labels,
                                                                monkeypatch):
    # On the path 1-2-3-4 each of these gives distinct sums, so only the
    # bijection check stands between it and the caller.
    monkeypatch.setattr(oracle, "permutations", lambda _: iter([labels]))
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ProofViolation, match="exhaustive search returned "
                       "labels that are not a bijection"):
        exhaustive_search(g)


def test_too_large():
    g = build_graph(5, list(combinations(range(1, 6), 2)))  # m = 10
    with pytest.raises(TooLarge):
        exhaustive_search(g)


def test_exhaustive_agrees_with_brute_definition():
    # Every labelling the search would accept must satisfy the raw
    # definition, and the first found one does.
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(3, 5)
        edges = [(u, v) for u, v in combinations(range(1, n + 1), 2)
                 if rng.random() < 0.6]
        if not 2 <= len(edges) <= 7:
            continue
        g = build_graph(n, edges)
        lab = exhaustive_search(g)
        if lab is not None:
            assert brute_is_antimagic_labelling(g, lab.label_of)


def test_randomized_search_deterministic():
    g = gen_instance(20, "yilma", seed=3)
    a, a_sums = randomized_search(g, budget=200_000, seed=11)
    b, b_sums = randomized_search(g, budget=200_000, seed=11)
    assert a.label_of == b.label_of and a_sums == b_sums
    assert verify_antimagic(g, a).sums == a_sums


def test_randomized_search_k2_fails():
    g = build_graph(2, [(1, 2)])
    with pytest.raises(SearchFailed):
        randomized_search(g, budget=500, seed=1)


def test_randomized_search_edgeless_fails():
    with pytest.raises(SearchFailed, match="no edges to label"):
        randomized_search(build_graph(3, []), budget=500, seed=1)


def test_randomized_search_exhausts_its_budget():
    # Two disjoint edges: each puts one sum on both its ends, so every
    # labelling has 2 conflicts; 5000 steps include two restarts.
    g = build_graph(4, [(1, 2), (3, 4)])
    with pytest.raises(SearchFailed,
                       match="budget 5000 exhausted with 2 conflicts left"):
        randomized_search(g, budget=5000, seed=1)


def test_randomized_search_solves_main_instance():
    g = gen_instance(19, "main", seed=5)
    lab, sums = randomized_search(g, budget=1_000_000, seed=1)
    rep = verify_antimagic(g, lab)
    assert rep.ok and rep.sums == sums
