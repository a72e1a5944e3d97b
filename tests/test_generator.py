import collections

import pytest

from antimagic import (
    Regime,
    classify_regime,
    decompose,
    gen_corpus,
    gen_instance,
    min_feasible_n,
)
from antimagic.errors import InfeasibleRegime
from antimagic.generator import TARGETS

ALL_TARGETS = sorted(TARGETS)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_regime_fidelity(target):
    lo = min_feasible_n(target)
    for seed in range(1, 6):
        n = lo + seed % 5
        g = gen_instance(n, target, seed=seed)
        d = decompose(g)
        assert classify_regime(g, d) == TARGETS[target]


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_instance_invariants(target):
    n = min_feasible_n(target) + 2
    g = gen_instance(n, target, seed=9)
    assert g.m >= 7 * g.n
    assert g.max_degree() == g.n - 4
    assert all(g.degree(v) <= g.n - 4 for v in range(1, g.n + 1))


def test_deterministic_per_seed():
    a = gen_instance(21, "main", seed=42)
    b = gen_instance(21, "main", seed=42)
    assert a.edges == b.edges
    c = gen_instance(21, "main", seed=43)
    assert c.edges != a.edges


@pytest.mark.parametrize("regime", [Regime.DELTA_N1, Regime.UNSUPPORTED])
def test_regime_without_a_target_is_infeasible(regime):
    with pytest.raises(InfeasibleRegime):
        gen_instance(20, regime, 1)
    with pytest.raises(InfeasibleRegime):
        min_feasible_n(regime)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_rejects_small_n(target):
    # m >= 7n cannot hold below n = 18 at this maximum degree, so every
    # in-hypothesis regime must reject n <= 15 (and more).
    for n in (12, 15, 16):
        with pytest.raises(InfeasibleRegime):
            gen_instance(n, target, seed=1)


def test_min_feasible_matches_sharper_counting():
    assert min_feasible_n("main") == 19
    assert min_feasible_n("degen_i3") == 19
    assert min_feasible_n("degen_i2") == 20
    assert min_feasible_n("degen_i1") == 20
    assert min_feasible_n("disc_triple") == 21


def test_dprime_override():
    g = gen_instance(22, "main", seed=5, d_prime=(8, 6, 5))
    assert decompose(g).d_prime == (8, 6, 5)


def test_corpus_round_robin_and_determinism():
    regimes = ALL_TARGETS[:7]
    corpus = gen_corpus(70, (16, 48), regimes, seed=1)
    assert len(corpus) == 70
    counts = collections.Counter()
    for idx, g in enumerate(corpus):
        target = regimes[idx % len(regimes)]
        counts[target] += 1
        assert classify_regime(g, decompose(g)) == TARGETS[target]
        assert 16 <= g.n <= 48
        assert g.m >= 7 * g.n
    assert all(v == 10 for v in counts.values())
    again = gen_corpus(70, (16, 48), regimes, seed=1)
    assert [g.edges for g in again] == [g.edges for g in corpus]
