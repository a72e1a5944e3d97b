import collections
import hashlib
import itertools
import random

import pytest

from antimagic import (
    Regime,
    classify_regime,
    decompose,
    gen_instance,
    min_feasible_n,
)
from antimagic import generator
from antimagic.errors import GenerationFailed, InfeasibleRegime
from antimagic.fileio import emit_graph
from antimagic.generator import TARGETS, corpus_schedule

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
def test_rejects_small_n(no_attempts, target):
    # m >= 7n cannot hold below n = 18 at this maximum degree, so every
    # in-hypothesis regime must reject n <= 15 (and more), before any
    # generation attempt.
    for n in (12, 15, 16):
        with pytest.raises(InfeasibleRegime):
            gen_instance(n, target, seed=1)


def test_min_feasible_matches_sharper_counting():
    assert {t: min_feasible_n(t) for t in TARGETS} == {
        "main": 19, "main_triple": 19, "degen_i1": 20, "degen_i2": 20,
        "degen_i3": 19, "disc_u3_isolated": 19, "disc_triple": 21,
        "yilma": 19}


# -- the reference: the split search as it was -----------------------------

def ref_feasible_split(target, n, a, b, c, triple_idx):
    s = a + b + c
    cap = 2 * (n - 4) + (1 if target == "yilma" else 0)
    if s > cap:
        return None
    t_cnt = len(triple_idx)
    # Degree caps at the u's themselves.
    tdeg = [sum(1 for i in triple_idx
                for x in generator._TRIPLE_PAIRS[i] if x == u)
            for u in (2, 3, 4)]
    if any(dp + td > n - 4 for dp, td in zip((a, b, c), tdeg)):
        return None
    m_h_max = ((n - 4) * (n - 5) - s) // 2
    m_h_min = 7 * n - (n - 4) - s - t_cnt
    if m_h_min > m_h_max:
        return None
    return max(0, m_h_min), m_h_max


def ref_any_split(target, n, bounds):
    for triple_idx in generator._TRIPLE_OPTIONS[target]:
        for a in range(bounds[0][0], bounds[0][1] + 1):
            for b in range(bounds[1][0], min(bounds[1][1], a) + 1):
                for c in range(bounds[2][0], min(bounds[2][1], b) + 1):
                    if ref_feasible_split(target, n, a, b, c, triple_idx):
                        return True
    return False


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_any_split_matches_the_triple_loop(target):
    # Every n from where the d' ranges are empty to well past every
    # threshold.
    for n in range(-2, 91):
        bounds = generator._dprime_bounds(target, n)
        assert (generator._any_split(target, n, bounds)
                == ref_any_split(target, n, bounds)), n


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_any_split_matches_the_triple_loop_on_other_bounds(target):
    # Bounds the targets never ask for, where a u's degree cap, the order
    # c <= b <= a or the capacity empties or trims the splits.
    for n in (8, 9, 19, 20, 21, 24):
        ranges = [(0, 0), (1, 3), (3, 1), (4, n - 6), (n - 6, n - 3),
                  (n - 4, n - 4), (n - 5, n - 4)]
        for bounds in itertools.product(ranges, repeat=3):
            assert (generator._any_split(target, n, bounds)
                    == ref_any_split(target, n, bounds)), (n, bounds)


# SHA-256 of emit_graph(gen_instance(n, target, 1)).  At these sizes H
# has thousands of pairs, so the need loop, the shuffled top-up and the
# kept-edge pass all run at scale; the golden groups stop at n = 40.
LARGE_DIGESTS = {
    (100, "degen_i1"): "978157819a53e135408029ff082ee79aa0d7b087693927fbdb0a1a21e523cbd2",
    (100, "degen_i2"): "c73164492bf4717f386899a5484265fa89195d6d2174d5e8259b7794bb214da5",
    (100, "degen_i3"): "419fc7014dbd0ab10430ea32ba854249b3b1b8234f11e8c4f3179c19fe1ea524",
    (100, "disc_triple"): "453e61dfbc2e3bd349443ff0e13c109037bf0b1921c1808b05ec115c7984fb7b",
    (100, "disc_u3_isolated"): "dbe2ef91614184b0fd9ba45a35ad3cf485edf9a53ae70302ab3fbcaebbfbfd8e",
    (100, "main"): "a7018c6d932ef647a9b3f147f07295db22855f9e80efbcb18b660c5fc1b11cea",
    (100, "main_triple"): "4159fb2dac4cf1cb2d81ee51e196c88d53f37e7c89348611a161de677d95d3df",
    (100, "yilma"): "41658ee406e72d2f6eb07e96f4cf89a604cc0506ba8e996e6e3147ecd7606559",
    (200, "degen_i1"): "c8e7bad33022ef13e6b2f578dc543dad9aeb027764053252e90a1493c040cabc",
    (200, "degen_i2"): "76c07ffcc60492b047d3e94bd3e3f8b3d7412d6625366fa6778c757c91bbfb2f",
    (200, "degen_i3"): "5bf8b633243cf1d4b65e6b0a413f916f1d5ac8f7ec72f545401329a7e8c9d718",
    (200, "disc_triple"): "19671c4c28b7fb0aa752ffe122935a76f91c641e7f389cdc18547ae7bbb3e2db",
    (200, "disc_u3_isolated"): "e5d4f02a3f33ae10302d4ed4495af6a66d36e7853565760b16697f0f4731697d",
    (200, "main"): "f58cfb3dd1c6c5629754b27dc75e48417ff413fe10c8cf71aa3296904f21e0b1",
    (200, "main_triple"): "321afc7c87760819c7a9baf630c5b2954956103e37aab2d6d72d678cd4db698b",
    (200, "yilma"): "dd3cac7accc44fe24e9d3b4dd70cca83c9fd4648bb4922100d897a982a130834",
}


def _graph_digest(g) -> str:
    return hashlib.sha256(emit_graph(g).encode()).hexdigest()


@pytest.mark.parametrize("n,target", sorted(LARGE_DIGESTS))
def test_large_instances_are_byte_identical(n, target):
    assert _graph_digest(gen_instance(n, target, 1)) == LARGE_DIGESTS[n, target]


# SHA-256 of emit_graph(gen_instance(n, target, seed)) at small n, each
# where _try_generate meets one of its limits: disc_u3_isolated's first
# attempt misses with all 200 d' draws; main's last u fills a host pool of
# exactly its demand (a + b + c at the cap 2(n - 4)); vertex 5 leads
# degen_i3's need loop; degen_i1's need loop alone deletes the target
# count, so no pair is topped up.
SMALL_DIGESTS = {
    (19, "disc_u3_isolated", 17): "820496dcce539ef223001b3b2c2f706973ed1bcbda0772e6efe0c6523a121b8b",
    (19, "main", 3): "27c3db3269d455d8c5883ac2b32f086121c228149024a2a063e2242b59b6f14e",
    (19, "degen_i3", 7): "05e0a5a812049db710b6de70b691c4c31c1b913b80e533f0d4f59305bd19b95b",
    (20, "degen_i1", 1): "93418ecc6c504a2649b362158da51bdbc443b116175b4e2aa79b1e4ac249d774",
}


@pytest.mark.parametrize("n,target,seed", sorted(SMALL_DIGESTS))
def test_small_instances_are_byte_identical(n, target, seed):
    assert (_graph_digest(gen_instance(n, target, seed))
            == SMALL_DIGESTS[n, target, seed])


@pytest.fixture
def no_attempts(monkeypatch):
    """Fail the test if gen_instance makes a generation attempt."""
    def attempt(*args):
        raise AssertionError("an attempt ran")
    monkeypatch.setattr(generator, "_try_generate", attempt)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_every_attempt_keeps_the_hosts_rule(target):
    # gen_instance retries an attempt whose regime comes out wrong, so an
    # attempt in which a vertex hosts all three u's would show only as a
    # retry: check each attempt's graph.  Only yilma's witness hosts all
    # three.
    n = min_feasible_n(target)
    attempts = (generator._try_generate(target, n, random.Random(seed))
                for seed in range(1, 61))
    graphs = [g for g in attempts if g is not None]
    assert graphs
    for g in graphs:
        adj = g.adjacency
        common = [v for v in range(5, n + 1)
                  if all(v in adj[u] for u in (2, 3, 4))]
        assert len(common) == (target == "yilma")


def test_min_feasible_n_gives_up_at_its_search_bound(monkeypatch):
    # main first exists at n = 19.
    monkeypatch.setattr(generator, "_N_LIMIT", 18)
    with pytest.raises(InfeasibleRegime, match="main infeasible up to n = 18"):
        min_feasible_n("main")


def test_exhausted_retries_are_bad_luck_not_infeasibility(monkeypatch):
    monkeypatch.setattr(generator, "_try_generate", lambda *args: None)
    with pytest.raises(GenerationFailed,
                       match="retry budget exhausted for main, n = 30"):
        gen_instance(30, "main", 1)


def _corpus(count, n_range, regimes, seed):
    return [gen_instance(n, t, s)
            for t, n, s in corpus_schedule(count, n_range, regimes, seed)]


def test_corpus_round_robin_and_determinism():
    regimes = ALL_TARGETS[:7]
    corpus = _corpus(70, (16, 48), regimes, seed=1)
    assert len(corpus) == 70
    counts = collections.Counter()
    for idx, g in enumerate(corpus):
        target = regimes[idx % len(regimes)]
        counts[target] += 1
        assert classify_regime(g, decompose(g)) == TARGETS[target]
        assert 16 <= g.n <= 48
        assert g.m >= 7 * g.n
    assert all(v == 10 for v in counts.values())
    again = _corpus(70, (16, 48), regimes, seed=1)
    assert [g.edges for g in again] == [g.edges for g in corpus]


@pytest.mark.parametrize("build", [corpus_schedule], ids=["corpus_schedule"])
@pytest.mark.parametrize("count,n_range,regimes,bad", [
    (-1, (19, 24), ["main"], "count -1"),
    (3, (30, 20), ["main"], "30..20"),
    (0, (30, 20), ["main"], "30..20"),
    (2, (19, 24), [], "count 2"),
], ids=["negative-count", "inverted-range", "inverted-range-empty",
        "no-regimes"])
def test_corpus_rejects_bad_arguments_at_the_call(build, count, n_range,
                                                  regimes, bad):
    # A ValueError naming the value, raised by the call itself, before
    # a schedule is iterated or an instance generated.
    with pytest.raises(ValueError, match=bad):
        build(count, n_range, regimes, 1)


def test_corpus_schedule_round_robin_and_n_cycle():
    # Each target cycles n from its own feasible low end; instance idx
    # gets seed + idx.
    assert list(corpus_schedule(6, (19, 21), ["main", "degen_i1"], 7)) == [
        ("main", 19, 7), ("degen_i1", 20, 8),
        ("main", 20, 9), ("degen_i1", 21, 10),
        ("main", 21, 11), ("degen_i1", 20, 12),
    ]
    assert list(corpus_schedule(0, (19, 19), ["main"], 1)) == []
    assert list(corpus_schedule(0, (19, 19), [], 1)) == []


def test_corpus_schedule_checks_a_regime_when_reached():
    # disc_triple needs n >= 21: the schedule yields main's instance
    # first and raises only when it reaches disc_triple.
    schedule = corpus_schedule(2, (19, 20), ["main", "disc_triple"], 1)
    assert next(schedule) == ("main", 19, 1)
    with pytest.raises(InfeasibleRegime, match="disc_triple needs n >= 21"):
        next(schedule)
    with pytest.raises(InfeasibleRegime, match="unknown generation target"):
        next(corpus_schedule(1, (19, 24), ["nope"], 1))
