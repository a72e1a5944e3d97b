"""Seeded random generation of instances for every regime.

Instances have a root of degree exactly n - 4 (vertex 1), the u-triple
at vertices 2, 3, 4, and H at 5..n.  H starts from the complete graph
and loses a deletion set that both frees the capacity the u-edges need
(every H vertex already spends one slot on the root edge) and hits a
sampled edge-count target of at least 7n.

The deletion set holds each H pair x < y as the integer key
x * (n + 1) + y.  A need loop first deletes the pairs the u-edges'
hosts must give up; the rest is the shortest prefix of the shuffled
list of all pair keys (built in ``combinations`` order) that brings the
set to its target size.  The kept pairs are then read off in
``combinations`` order, and the whole edge list is shuffled.  Every
pass over the pairs runs at C level (``set.update``, ``compress``,
``map``).  The shuffles and the other draws go through ``draw``, which
takes ``random.shuffle``'s and ``randrange``'s exact values from
``getrandbits`` without a Python call per item; a permutation depends
on the list's length and the generator state alone, so the output is
byte-identical per (n, target, seed), and it is the same on Python 3.10
to 3.13.

Degree counting makes small n infeasible: no graph with max degree
n - 4 and m >= 7n exists at all below n = 18, and each regime has its
own threshold (main and i=3 need 19, i=1 and i=2 need 20, the separate
triple component needs 21).  ``min_feasible_n`` exposes the thresholds;
``gen_instance`` raises InfeasibleRegime below them.
"""

from __future__ import annotations

import random
import zlib
from itertools import chain, combinations, compress, islice
from operator import not_

from .draw import below, shuffle
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
        if _any_split(target, n, _dprime_bounds(target, n)):
            return n
    raise InfeasibleRegime(f"{target} infeasible up to n = {_N_LIMIT}")


def gen_instance(n: int, regime, seed: int) -> Graph:
    """One instance with max degree exactly n - 4, m >= 7n, classified as
    the requested regime.  Deterministic in (n, regime, seed); an n at
    which the target has no instance raises InfeasibleRegime before any
    attempt."""
    target = _as_target(regime)
    expected = TARGETS[target]
    if not _any_split(target, n, _dprime_bounds(target, n)):
        raise InfeasibleRegime(
            f"no {target} instance exists at n = {n} "
            f"(smallest feasible is {min_feasible_n(target)})")
    mix = zlib.crc32(target.encode())
    rng = random.Random(seed * 2_654_435_761 + n * 40_503 + mix)
    for _attempt in range(60):
        g = _try_generate(target, n, rng)
        if g is None:
            continue
        got = classify_regime(g, decompose(g))
        if got == expected:
            return g
    raise GenerationFailed(f"retry budget exhausted for {target}, n = {n}")


def _try_generate(target: str, n: int, rng: random.Random) -> Graph | None:
    h = list(range(5, n + 1))
    bounds = _dprime_bounds(target, n)

    options = _TRIPLE_OPTIONS[target]
    triple_idx = options[below(rng, len(options))]
    triple_pairs = [_TRIPLE_PAIRS[i] for i in triple_idx]

    for _ in range(200):
        a = _randint(rng, *bounds[0])
        b = _randint(rng, bounds[1][0], min(bounds[1][1], a))
        c = _randint(rng, bounds[2][0], min(bounds[2][1], b))
        split = _feasible_split(target, n, a, b, c, triple_idx)
        if split is not None:
            break
    else:
        return None
    m_h_min, m_h_max = split

    # Hosts: which H vertices receive each u's edges.  Nobody hosts all
    # three u's except the yilma target's one designated witness (load
    # 3).  Each u, largest demand first, takes the lowest-load vertices
    # of load below 2: none hosts this u yet or hosts both others.
    # Greedy never needs a load-2 vertex: every d' <= n - 6 < |H|, and
    # a + b + c <= 2(n - 4), plus 1 for the witness, so the first two
    # u's leave the last the room it needs.
    loads = [0] * (n + 1)  # indexed by vertex; 0 off H
    hosts: dict[int, set[int]] = {u: set() for u in _U_IDS}
    demand = dict(zip(_U_IDS, (a, b, c)))
    if _witnesses(target):
        w = h[below(rng, len(h))]  # rng.sample(h, 1)[0]
        for u in _U_IDS:
            hosts[u].add(w)
            demand[u] -= 1
        loads[w] = 3
    order = sorted(_U_IDS, key=lambda u: -demand[u])
    shuffled = list(h)
    shuffle(rng, shuffled)
    for u in order:
        pool = [v for v in shuffled if loads[v] < 2]
        pool.sort(key=loads.__getitem__)
        if len(pool) < demand[u]:
            return None
        for v in pool[:demand[u]]:
            hosts[u].add(v)
            loads[v] += 1

    # Deletion set inside H, as pair keys x * (n + 1) + y for x < y:
    # vertex v must lose at least loads[v] edges from the complete graph
    # to stay within max degree n - 4.  Each step pairs the neediest
    # vertex v (lowest id on ties) with the first vertex, by need
    # descending then id ascending, that it is not yet paired with.  v
    # has lost fewer than loads[v] <= 3 < n - 5 pairs, so one exists, and
    # each step lowers a positive need, so the loop ends.
    m_h = _randint(rng, m_h_min, m_h_max)
    want = (n - 4) * (n - 5) // 2 - m_h
    need = loads.copy()
    deleted: set[int] = set()
    while (top := max(need)) > 0:
        v = need.index(top, 5)
        partner = _partner(v, need, deleted, top, n)
        deleted.add(min(v, partner) * (n + 1) + max(v, partner))
        need[v] -= 1
        need[partner] -= 1
    if len(deleted) > want:
        return None  # target m_h unreachable with these loads; retry
    # Top up with a prefix of the shuffled pairs.  Each slice adds at
    # most the shortfall, so the set grows as a pair-by-pair walk would.
    keys = list(_pair_keys(n))
    shuffle(rng, keys)
    pos = 0
    while len(deleted) < want and pos < len(keys):
        short = want - len(deleted)
        deleted.update(keys[pos:pos + short])
        pos += short
    if len(deleted) != want:
        return None

    edges: list[tuple[int, int]] = [(1, v) for v in h]
    edges += triple_pairs
    for u in _U_IDS:
        edges += [(u, v) for v in sorted(hosts[u])]
    edges += compress(combinations(h, 2),
                      map(not_, map(deleted.__contains__, _pair_keys(n))))
    shuffle(rng, edges)
    return build_graph(n, edges)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``."""
    return lo + below(rng, hi - lo + 1)


def _pair_keys(n: int):
    """The keys x * (n + 1) + y of the H pairs, in ``combinations`` order."""
    return chain.from_iterable(range(x * (n + 1) + x + 1, (x + 1) * (n + 1))
                               for x in range(5, n + 1))


def _partner(v: int, need: list[int], deleted: set[int], top: int,
             n: int) -> int:
    """The first H vertex w != v, by need descending then id ascending,
    whose pair with v is not yet deleted."""
    bottom = min(islice(need, 5, None))
    return next(w for level in range(top, bottom - 1, -1)
                for w in compress(range(5, n + 1),
                                  map(level.__eq__, islice(need, 5, None)))
                if w != v and min(v, w) * (n + 1) + max(v, w) not in deleted)


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
