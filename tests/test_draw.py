import random

import pytest

from antimagic import (
    Regime,
    build_graph,
    classify_regime,
    decompose,
    gen_instance,
    randomized_search,
)
from antimagic.draw import below, shuffle
from antimagic.errors import SearchFailed

SEEDS = (0, 1, 29, 2**40 + 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_matches_random_shuffle(seed):
    # 3980 and 31960 are the edge counts of the benchmark's largest
    # graphs; the short lengths cross every bit-length boundary up to 64.
    for length in (*range(71), 3980, 31960):
        ours, stock = random.Random(seed), random.Random(seed)
        x, y = list(range(length)), list(range(length))
        shuffle(ours, x)
        stock.shuffle(y)
        assert x == y, length
        assert ours.getrandbits(32) == stock.getrandbits(32), length


@pytest.mark.parametrize("seed", SEEDS)
def test_below_matches_randrange(seed):
    ours, stock = random.Random(seed), random.Random(seed)
    for n in (*range(1, 300), 2**31 - 1, 2**31, 2**31 + 1, 10**30):
        assert below(ours, n) == stock.randrange(n)
    assert ours.getrandbits(32) == stock.getrandbits(32)


def test_below_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty range below 0"):
        below(random.Random(0), 0)


def test_library_draws_only_through_getrandbits(monkeypatch):
    # random.shuffle, randrange, randint, choice and sample all go through
    # _randbelow; with both made to raise, the generator and the search
    # still run, so neither calls them.
    def refuse(*args, **kwargs):
        raise AssertionError("a per-item random.Random method ran")
    monkeypatch.setattr(random.Random, "shuffle", refuse)
    monkeypatch.setattr(random.Random, "_randbelow", refuse)
    with pytest.raises(AssertionError):
        random.Random(0).randrange(5)
    # yilma takes every kind of draw: a triple, d', a witness, m_h and
    # the three shuffles.
    g = gen_instance(20, "yilma", 3)
    assert classify_regime(g, decompose(g)) == Regime.YILMA_FALLBACK
    # Two disjoint edges are never antimagic, so the search takes all
    # 5000 steps and restarts twice.
    with pytest.raises(SearchFailed, match="budget 5000 exhausted"):
        randomized_search(build_graph(4, [(1, 2), (3, 4)]), budget=5000)
