import inspect
import random
from itertools import combinations
from types import SimpleNamespace

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
from antimagic.verification import recompute_sums
from conftest import brute_is_antimagic_labelling
from test_verification import _count_sums_passes


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


def test_randomized_search_checks_the_state_after_its_last_step():
    # The third step solves this graph, so a budget of 3 steps is enough
    # and 2 is not; an antimagic start needs no step at all.
    g = gen_instance(100, "main", seed=1)
    lab, sums = randomized_search(g, budget=3, seed=1)
    assert verify_antimagic(g, lab).sums == sums
    with pytest.raises(SearchFailed,
                       match="budget 2 exhausted with 1 conflicts left"):
        randomized_search(g, budget=2, seed=1)
    g = gen_instance(200, "main", seed=1)
    lab, sums = randomized_search(g, budget=0, seed=1)
    assert verify_antimagic(g, lab).sums == sums


@pytest.mark.parametrize("n,passes", [(200, 1), (100, 2)],
                         ids=["unswapped", "swapped"])
def test_search_sums_passes(monkeypatch, n, passes):
    # At n = 200 the start is already antimagic: its one sums pass, over
    # the list the result holds, gives the verdict and the returned sums.
    # At n = 100 three steps swap it, so the final check makes a second
    # pass from the raw labels.
    calls = _count_sums_passes(monkeypatch)
    g = gen_instance(n, "main", seed=1)
    lab, sums = randomized_search(g, seed=1)
    assert [id(l) for l in calls] == [id(lab.label_of)] * passes
    assert sums == recompute_sums(g, lab.label_of)


def test_swap_bookkeeping_cannot_pass_a_conflicted_labelling(monkeypatch):
    # A swap whose incremental sums claim distinct values and no conflict
    # is caught by the final check from the raw labels.
    swap = oracle._ConflictState.swap

    def lying_swap(state, i, j):
        swap(state, i, j)
        state.sums = list(range(len(state.sums)))
        state.conflicts = 0

    monkeypatch.setattr(oracle._ConflictState, "swap", lying_swap)
    with pytest.raises(ProofViolation, match="randomized search returned "
                       "a labelling that is not antimagic"):
        randomized_search(gen_instance(100, "main", seed=1), seed=1)


def _disjoint_edges(m):
    # Each edge puts one sum on both its ends, so every labelling has
    # exactly m conflicts and no step ever changes the count.
    return build_graph(2 * m, [(2 * k + 1, 2 * k + 2) for k in range(m)])


@pytest.mark.parametrize("m,threshold", [(2, 2000), (101, 2020)],
                         ids=["floor", "20m"])
def test_randomized_search_restarts_past_its_plateau_threshold(
        monkeypatch, m, threshold):
    # Every step lengthens the plateau by one, so the search restarts
    # (shuffles again) on step threshold + 1 and again on step
    # 2 * (threshold + 1); the start is the first shuffle.
    shuffles = []
    shuffle = oracle.shuffle
    monkeypatch.setattr(oracle, "shuffle",
                        lambda rng, x: shuffles.append(1) or shuffle(rng, x))
    g = _disjoint_edges(m)
    for budget, count in [(threshold, 1), (threshold + 1, 2),
                          (2 * threshold + 1, 2), (2 * threshold + 2, 3)]:
        shuffles.clear()
        with pytest.raises(SearchFailed, match=f"budget {budget} exhausted "
                           f"with {m} conflicts left"):
            randomized_search(g, budget=budget, seed=1)
        assert len(shuffles) == count, budget


def test_randomized_search_restarts_a_plateau_after_its_last_gain(
        monkeypatch):
    # Path 1-2-3 plus three disjoint edges, labelled in edge order (the
    # shuffles leave the list alone).  Step 1 swaps edges 0 and 4, which
    # takes the path's middle sum 3 off edge 2's and drops the conflicts
    # from 5 to 3; every later step swaps two disjoint edges, which
    # leaves 3.  The plateau then restarts the search on step
    # 1 + 2000 + 1.
    g = build_graph(9, [(1, 2), (2, 3), (4, 5), (6, 7), (8, 9)])
    shuffles = []
    monkeypatch.setattr(oracle, "shuffle", lambda rng, x: shuffles.append(1))
    draws = []

    def scripted_below(rng, n):
        draws.append(n)
        step, second = divmod(len(draws) - 1, 2)
        if step == 0:
            return 3 if second else 0  # edges 0 and 4
        return 2 if second else 3      # edges 3 and 2, never i == j

    monkeypatch.setattr(oracle, "below", scripted_below)
    for budget, count in [(2001, 1), (2002, 2)]:
        shuffles.clear()
        draws.clear()
        with pytest.raises(SearchFailed, match=f"budget {budget} exhausted "
                           "with 3 conflicts left"):
            randomized_search(g, budget=budget, seed=1)
        assert len(shuffles) == count, budget
        assert draws == [5, 4] * budget


def test_randomized_search_draws_two_distinct_edges(monkeypatch):
    # A draw of j equal to i moves j one up, to the next edge.
    draws, swaps = [], []
    monkeypatch.setattr(oracle, "below",
                        lambda rng, n: draws.append(n) or 0)
    swap = oracle._ConflictState.swap
    monkeypatch.setattr(oracle._ConflictState, "swap",
                        lambda state, i, j: swaps.append((i, j))
                        or swap(state, i, j))
    with pytest.raises(SearchFailed):
        randomized_search(_disjoint_edges(3), budget=4, seed=1)
    assert draws == [3, 2] * 4
    assert swaps and set(swaps) == {(0, 1)}


@pytest.mark.parametrize("draw,undone", [(0.25, True), (0.2499, False)])
def test_randomized_search_keeps_a_sideways_step_below_a_quarter(
        monkeypatch, draw, undone):
    # A step that leaves the conflict count alone is undone unless the
    # uniform draw falls below 0.25.
    class FixedDraw(random.Random):
        def random(self):
            return draw

    monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=FixedDraw))
    swaps = []
    swap = oracle._ConflictState.swap
    monkeypatch.setattr(oracle._ConflictState, "swap",
                        lambda state, i, j: swaps.append((i, j))
                        or swap(state, i, j))
    with pytest.raises(SearchFailed):
        randomized_search(_disjoint_edges(3), budget=10, seed=1)
    assert len(swaps) == (20 if undone else 10)


def test_randomized_search_defaults():
    params = inspect.signature(randomized_search).parameters
    assert params["budget"].default == 1_000_000
    assert params["seed"].default == 0
