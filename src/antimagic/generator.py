"""Seeded random generation of instances for every regime.

Instances have a root of degree exactly n - 4 (vertex 1), the u-triple
at vertices 2, 3, 4, and H at 5..n.  H starts from the complete graph
and loses a deletion set that both frees the capacity the u-edges need
(every H vertex already spends one slot on the root edge) and hits a
sampled edge-count target of at least 7n.

Degree counting makes small n infeasible: no graph with max degree
n - 4 and m >= 7n exists at all below n = 18, and each regime has its
own threshold (main and i=3 need 19, i=1 and i=2 need 20, the separate
triple component needs 21).  ``min_feasible_n`` exposes the thresholds;
``gen_instance`` raises InfeasibleRegime below them.
"""

from __future__ import annotations

import random
import zlib
from itertools import combinations

from .errors import GenerationFailed, InfeasibleRegime
from .graph import Graph, Regime, build_graph, classify_regime, decompose

TARGETS = {
    "main": Regime.MAIN,
    "main_triple": Regime.MAIN,
    "degen_i1": Regime.DEGEN_I1,
    "degen_i2": Regime.DEGEN_I2,
    "degen_i3": Regime.DEGEN_I3,
    "disc_u3_isolated": Regime.DISC_U3_ISOLATED,
    "disc_triple": Regime.DISC_TRIPLE_COMPONENT,
    "yilma": Regime.YILMA_FALLBACK,
}

_U_IDS = (2, 3, 4)
_TRIPLE_PAIRS = ((2, 3), (2, 4), (3, 4))  # u1u2, u1u3, u2u3


def _as_target(regime) -> str:
    """The target's name, checked: anything that is not a ``TARGETS``
    key, a Regime included, is infeasible."""
    if regime in TARGETS:
        return regime
    raise InfeasibleRegime(f"unknown generation target {regime!r}")


# Per target, the range of d'(u1), d'(u2), d'(u3); None stands for n - 6.
_DPRIME_RANGES = {
    "main": ((4, None), (4, None), (4, None)),
    "main_triple": ((4, None), (4, None), (4, None)),
    "yilma": ((4, None), (4, None), (4, None)),
    "degen_i3": ((4, None), (4, None), (1, 3)),
    "degen_i2": ((4, None), (1, 3), (1, 3)),
    "degen_i1": ((1, 3), (1, 3), (1, 3)),
    "disc_u3_isolated": ((4, None), (4, None), (0, 0)),
    "disc_triple": ((0, 0), (0, 0), (0, 0)),
}

_ALL_TRIPLES = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
# Per target, the index sets into _TRIPLE_PAIRS it may use.
_TRIPLE_OPTIONS = {
    "main": ((),),
    "main_triple": _ALL_TRIPLES[1:],
    "degen_i1": _ALL_TRIPLES,
    "degen_i2": _ALL_TRIPLES,
    "degen_i3": _ALL_TRIPLES,
    "yilma": _ALL_TRIPLES,
    "disc_u3_isolated": ((), (0,)),  # only u1u2 keeps u3 isolated
    "disc_triple": ((0, 1, 2), (0, 1), (0, 2), (1, 2)),  # K3 or a P3
}


def _dprime_bounds(target: str, n: int) -> tuple[tuple[int, int], ...]:
    return tuple((lo, n - 6 if hi is None else hi)
                 for lo, hi in _DPRIME_RANGES[target])


def _witnesses(target: str) -> int:
    return 1 if target == "yilma" else 0


def _feasible_split(target: str, n: int, a: int, b: int, c: int,
                    triple_idx: tuple[int, ...]) -> tuple[int, int] | None:
    """(m_h_min, m_h_max) for this d' split, or None."""
    s = a + b + c
    cap = 2 * (n - 4) + _witnesses(target)
    if s > cap:
        return None
    t_cnt = len(triple_idx)
    # Degree caps at the u's themselves.
    tdeg = [sum(1 for i in triple_idx for x in _TRIPLE_PAIRS[i] if x == u)
            for u in _U_IDS]
    if any(dp + td > n - 4 for dp, td in zip((a, b, c), tdeg)):
        return None
    m_h_max = ((n - 4) * (n - 5) - s) // 2
    m_h_min = 7 * n - (n - 4) - s - t_cnt
    if m_h_min > m_h_max:
        return None
    return max(0, m_h_min), m_h_max


def _any_split(target: str, n: int, bounds) -> bool:
    for triple_idx in _TRIPLE_OPTIONS[target]:
        for a in range(bounds[0][0], bounds[0][1] + 1):
            for b in range(bounds[1][0], min(bounds[1][1], a) + 1):
                for c in range(bounds[2][0], min(bounds[2][1], b) + 1):
                    if _feasible_split(target, n, a, b, c, triple_idx):
                        return True
    return False


_N_LIMIT = 64  # min_feasible_n's search bound; every target is feasible by 21


def min_feasible_n(regime) -> int:
    """Smallest vertex count at which the regime has any instance."""
    target = _as_target(regime)
    for n in range(16, _N_LIMIT + 1):
        bounds = _dprime_bounds(target, n)
        if bounds[0][1] < bounds[0][0] and bounds[0][0] > 0:
            continue
        if _any_split(target, n, bounds):
            return n
    raise InfeasibleRegime(f"{target} infeasible up to n = {_N_LIMIT}")


def gen_instance(n: int, regime, seed: int, *,
                 d_prime: tuple[int, int, int] | None = None,
                 triple: tuple[tuple[int, int], ...] | None = None) -> Graph:
    """One instance with max degree exactly n - 4, m >= 7n, classified as
    the requested regime.  Deterministic in (n, regime, seed)."""
    target = _as_target(regime)
    expected = TARGETS[target]
    mix = zlib.crc32(target.encode())
    rng = random.Random(seed * 2_654_435_761 + n * 40_503 + mix)
    for _attempt in range(60):
        g = _try_generate(target, n, rng, d_prime, triple)
        if g is None:
            continue
        got = classify_regime(g, decompose(g))
        if got == expected:
            return g
    # Distinguish "never possible" from "bad luck".
    if not _any_split(target, n, _dprime_bounds(target, n)):
        raise InfeasibleRegime(
            f"no {target} instance exists at n = {n} "
            f"(smallest feasible is {min_feasible_n(target)})")
    raise GenerationFailed(f"retry budget exhausted for {target}, n = {n}")


def _try_generate(target: str, n: int, rng: random.Random,
                  d_fixed, triple_fixed) -> Graph | None:
    h = list(range(5, n + 1))
    bounds = _dprime_bounds(target, n)
    if bounds[0][0] > bounds[0][1]:
        return None

    if triple_fixed is not None:
        triple = tuple(tuple(sorted(p)) for p in triple_fixed)
        triple_idx = tuple(i for i, p in enumerate(_TRIPLE_PAIRS) if p in triple)
    else:
        triple_idx = rng.choice(_TRIPLE_OPTIONS[target])
    triple_pairs = [_TRIPLE_PAIRS[i] for i in triple_idx]

    if d_fixed is not None:
        split = _feasible_split(target, n, *d_fixed, triple_idx)
        if split is None:
            return None
        a, b, c = d_fixed
    else:
        split = None
        for _ in range(200):
            a = rng.randint(*bounds[0])
            b = rng.randint(bounds[1][0], min(bounds[1][1], a))
            c = rng.randint(bounds[2][0], min(bounds[2][1], b))
            split = _feasible_split(target, n, a, b, c, triple_idx)
            if split is not None:
                break
        if split is None:
            return None
    m_h_min, m_h_max = split

    # Hosts: which H vertices receive each u's edges.  Nobody hosts all
    # three u's except designated witnesses for the yilma target.
    loads = {v: 0 for v in h}
    hosts: dict[int, set[int]] = {u: set() for u in _U_IDS}
    demand = dict(zip(_U_IDS, (a, b, c)))
    witnesses = []
    if _witnesses(target):
        witnesses = rng.sample(h, _witnesses(target))
        for w in witnesses:
            for u in _U_IDS:
                hosts[u].add(w)
                demand[u] -= 1
            loads[w] = 3
    order = sorted(_U_IDS, key=lambda u: -demand[u])
    shuffled = list(h)
    rng.shuffle(shuffled)
    for u in order:
        other = [x for x in _U_IDS if x != u]
        pool = [v for v in shuffled
                if v not in hosts[u] and loads[v] < 2
                and not (v in hosts[other[0]] and v in hosts[other[1]])]
        pool.sort(key=lambda v: loads[v])
        if len(pool) < demand[u]:
            return None
        for v in pool[:demand[u]]:
            hosts[u].add(v)
            loads[v] += 1

    # Deletion set inside H: vertex v must lose at least loads[v] edges
    # from the complete graph to stay within max degree n - 4.
    m_h = rng.randint(m_h_min, m_h_max)
    want = (n - 4) * (n - 5) // 2 - m_h
    need = dict(loads)
    deleted: set[tuple[int, int]] = set()
    guard = 0
    while any(x > 0 for x in need.values()):
        guard += 1
        if guard > 10 * n * n:
            return None
        v = max(h, key=lambda x: (need[x], -x))
        partner = None
        for w in sorted(h, key=lambda x: (-need[x], x)):
            if w != v and _key(v, w) not in deleted:
                partner = w
                break
        if partner is None:
            return None
        deleted.add(_key(v, partner))
        need[v] -= 1
        need[partner] -= 1
    if len(deleted) > want:
        return None  # target m_h unreachable with these loads; retry
    all_pairs = [(x, y) for x, y in combinations(h, 2)]
    rng.shuffle(all_pairs)
    for x, y in all_pairs:
        if len(deleted) >= want:
            break
        deleted.add(_key(x, y))
    if len(deleted) != want:
        return None

    edges: list[tuple[int, int]] = [(1, v) for v in h]
    edges += triple_pairs
    for u in _U_IDS:
        edges += [(u, v) for v in sorted(hosts[u])]
    edges += [(x, y) for x, y in combinations(h, 2)
              if _key(x, y) not in deleted]
    rng.shuffle(edges)
    return build_graph(n, edges)


def _key(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def corpus_schedule(count: int, n_range: tuple[int, int], regimes, seed: int):
    """An iterator of (target, n, seed) for each corpus instance, in order.

    Round robin through the regimes; each regime cycles n through the
    feasible part of the range, and instance idx gets seed + idx.  A
    negative count, an inverted n range or an empty regime list raises
    ValueError here, at the call; a regime is checked only when the
    schedule first reaches it."""
    targets = list(regimes)
    n_lo, n_hi = n_range
    if count < 0:
        raise ValueError(f"count {count} is negative")
    if n_lo > n_hi:
        raise ValueError(f"n range {n_lo}..{n_hi} is inverted")
    if count and not targets:
        raise ValueError(f"count {count} needs at least one regime")
    return _schedule(count, n_lo, n_hi, targets, seed)


def _schedule(count: int, n_lo: int, n_hi: int, targets: list, seed: int):
    lows: dict[str, int] = {}
    for idx in range(count):
        t = _as_target(targets[idx % len(targets)])
        if t not in lows:
            lows[t] = max(n_lo, min_feasible_n(t))
            if lows[t] > n_hi:
                raise InfeasibleRegime(
                    f"{t} needs n >= {min_feasible_n(t)} > {n_hi}")
        lo = lows[t]
        yield t, lo + (idx // len(targets)) % (n_hi - lo + 1), seed + idx


def gen_corpus(count: int, n_range: tuple[int, int], regimes, seed: int
               ) -> list[Graph]:
    """Deterministic corpus over ``corpus_schedule``."""
    return [gen_instance(n, t, s)
            for t, n, s in corpus_schedule(count, n_range, regimes, seed)]
