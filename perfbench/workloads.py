"""The graphs each workload labels, made from the workload seed alone.

colouring_large  regimes whose stage 1 Vizing-colours most of the graph,
                 at n = 100 and 200; each graph is also labelled with the
                 randomized fallback forced, as the baseline.
corpus_small     round robin over all generator targets at n <= 48, the
                 traffic of the acceptance tests.
cli_linear       regimes whose stage 1 colours nothing, at n = 400 and
                 800, labelled and verified through the command line.

At fixed n the generator draws the edge count almost uniformly between
7n and about n^2 / 2, and colouring time grows faster than m.  So the
large workloads take the first generated graph with at least the
workload's edge count and delete random edges inside H (the vertices
other than the root and the u-triple) down to exactly that count.  Seeds
then change a graph's structure but not its size.  Deleting H-H edges
keeps the root degree, the d' triple, the triple edges and any common
neighbour of the u's, so the regime stays the same; that is checked.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from antimagic.fileio import emit_graph
from antimagic.generator import TARGETS, gen_instance, min_feasible_n
from antimagic.graph import (
    Graph,
    Regime,
    build_graph,
    classify_regime,
    decompose,
)

COLOURING_TARGETS = ("main", "main_triple", "degen_i3", "disc_u3_isolated")
LINEAR_TARGETS = ("degen_i1", "degen_i2", "disc_triple", "yilma")
WORKLOADS = ("colouring_large", "corpus_small", "cli_linear")

# colouring_large: (n, edge count, graphs per target); m is 30% of the
# pairs at n = 100 and 20% at n = 200, where a graph labels in about
# half a second.  Below 20% at n = 200, balance_classes takes longer
# than vizing_colour (0.59 s against 0.44 s over four graphs at 15%;
# 0.60 s against 0.85 s at 20%).  At equal n and m, stage-1 time still
# differs by up to two times between graphs, so most graphs are at
# n = 200: the median graph is one of them, and the median and p90 over
# 20 of them move less with the seed than over 12.
COLOURING_SIZES = ((100, 1485, 1), (200, 3980, 5))
# cli_linear: (n, edge count, graphs per target); m is 10% of the pairs.
LINEAR_SIZES = ((400, 7980, 1), (800, 31960, 1))
# corpus_small: 768 graphs; p90 over 512 of them still moved by 0.13 of
# its median from seed to seed.
CORPUS_PER_TARGET = 96
CORPUS_N_MAX = 48


@dataclass(frozen=True)
class Instance:
    idx: int
    target: str
    n: int
    seed: int             # generator seed, also the labelling seed
    m_generated: int      # edge count before trimming
    graph: Graph
    graph_sha256: str

    @property
    def expected_status(self) -> str:
        return ("searched_fallback" if TARGETS[self.target]
                == Regime.YILMA_FALLBACK else "constructed")

    def manifest(self) -> dict:
        return {"idx": self.idx, "target": self.target, "n": self.n,
                "seed": self.seed, "m": self.graph.m,
                "m_generated": self.m_generated,
                "graph_sha256": self.graph_sha256}


def _sized(target: str, n: int, m: int, seed: int, tick):
    """(generator seed, m before trimming, graph with exactly m edges,
    seconds inside gen_instance)."""
    gen_s = 0.0
    for s in range(seed, seed + 100):
        t0 = time.process_time()
        g = gen_instance(n, target, seed=s)
        gen_s += time.process_time() - t0
        tick()
        if g.m >= m:
            break
    else:
        raise RuntimeError(f"no {target} graph with n = {n}, m >= {m} "
                           f"among seeds {seed}..{seed + 99}")
    d = decompose(g)
    hh = [e for e, (a, b) in enumerate(g.edges)
          if a in d.h_set and b in d.h_set]
    drop = set(random.Random(s).sample(hh, g.m - m))
    trimmed = build_graph(n, [uv for e, uv in enumerate(g.edges)
                              if e not in drop])
    if classify_regime(trimmed, decompose(trimmed)) != TARGETS[target]:
        raise RuntimeError(f"trimming {target} n = {n} seed {s} to m = {m} "
                           f"changed its regime")
    return s, g.m, trimmed, gen_s


def _specs(workload: str, seed: int):
    """(target, n, edge count or None, generator seed) per instance."""
    if workload == "corpus_small":
        targets = list(TARGETS)
        lo = {t: min_feasible_n(t) for t in targets}
        for idx in range(CORPUS_PER_TARGET * len(targets)):
            t = targets[idx % len(targets)]
            n = lo[t] + (idx // len(targets)) % (CORPUS_N_MAX - lo[t] + 1)
            yield t, n, None, seed * 100_000 + idx
        return
    if workload == "colouring_large":
        targets, sizes = COLOURING_TARGETS, COLOURING_SIZES
    elif workload == "cli_linear":
        targets, sizes = LINEAR_TARGETS, LINEAR_SIZES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for n, m, per_target in sizes:
        for t in targets:
            for k in range(per_target):
                yield t, n, m, (seed * 100 + k) * 1_000


def make_instances(workload: str, seed: int,
                   tick=lambda: None) -> tuple[list[Instance], float]:
    """The workload's instances and the seconds spent inside gen_instance
    (including graphs rejected for having too few edges).  ``tick`` is
    called after each generated graph."""
    out = []
    gen_s = 0.0
    for idx, (t, n, m, s) in enumerate(_specs(workload, seed)):
        if m is None:
            t0 = time.process_time()
            g = gen_instance(n, t, seed=s)
            gen_s += time.process_time() - t0
            tick()
            m_generated = g.m
        else:
            s, m_generated, g, spent = _sized(t, n, m, s, tick)
            gen_s += spent
        sha = hashlib.sha256(emit_graph(g).encode()).hexdigest()
        out.append(Instance(idx, t, n, s, m_generated, g, sha))
    return out, gen_s
