"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The per-regime corpus is built once and shared by criteria 1-4.
"""

import random
import time
from itertools import combinations

import pytest

from antimagic import (
    EdgeColouring,
    Regime,
    build_graph,
    decompose,
    gen_instance,
    koenig_colour,
    label,
    min_feasible_n,
    exhaustive_search,
    verify_antimagic,
    verify_bijection,
    verify_stage_properties,
    vizing_colour,
)
from antimagic.cli import main as cli_main
from antimagic.colouring import balance_classes
from antimagic.errors import InfeasibleRegime
from antimagic.verification import recompute_sums
from conftest import assigned, brute_proper, random_universal_graph

CORPUS_REGIMES = ("main", "main_triple", "degen_i1", "degen_i2", "degen_i3",
                  "disc_u3_isolated", "disc_triple")
PER_REGIME = 500
N_MIN, N_MAX = 16, 48


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus_results():
    records = []
    for target in CORPUS_REGIMES:
        lo = max(N_MIN, min_feasible_n(target))
        span = N_MAX - lo + 1
        for seed in range(1, PER_REGIME + 1):
            n = lo + (seed % span)
            t0 = time.perf_counter()
            g = gen_instance(n, target, seed=seed)
            d = decompose(g)
            outcome = label(g, seed=seed)
            elapsed = time.perf_counter() - t0
            rec = {
                "target": target,
                "n": n,
                "seed": seed,
                "elapsed": elapsed,
                "status": outcome.status,
                "verified": (verify_bijection(g, outcome.labelling).ok
                             and verify_antimagic(g, outcome.labelling).ok),
            }
            stage = outcome.stage
            tr = outcome.resolution
            rec["machinery"] = stage.regime.value if stage else None
            rec["exchanges"] = len(tr.applied) if tr else 0
            rec["gap_warning"] = bool(tr and tr.gap_warning)
            rec["paper_directed"] = bool(tr and not tr.gap_warning)
            if stage is not None:
                props = verify_stage_properties(stage.labelling,
                                                stage.regime, d)
                rec["stage_ok"] = props.ok
                before = recompute_sums(g, stage.labelling)
                after = recompute_sums(g, outcome.labelling)
                rec["max_delta"] = max(abs(a - b)
                                       for a, b in zip(before, after))
                rec["root_strict_max"] = all(
                    after[d.r] > after[v]
                    for v in range(1, g.n + 1) if v != d.r)
                sums = before
                u1, u2, u3 = d.u
                min_h = min(sums[v] for v in d.h_vertices)
                rec["bounds"] = {
                    "u1": sums[u1], "u2": sums[u2], "u3": sums[u3],
                    "min_h": min_h, "m": g.m, "n": g.n,
                }
            records.append(rec)
    return records


def test_criterion_1_end_to_end(corpus_results):
    bad = [r for r in corpus_results
           if r["status"] != "constructed" or not r["verified"]
           or r["gap_warning"]]
    slow = [r for r in corpus_results if r["elapsed"] > 1.0]
    total = sum(r["elapsed"] for r in corpus_results)
    ok = not bad and not slow and total < 1800
    _report(1, ok,
            f"{len(corpus_results)} instances over {len(CORPUS_REGIMES)} "
            f"regimes, 100% constructed+verified, 0 proof-gap warnings, "
            f"{total:.0f}s total, max {max(r['elapsed'] for r in corpus_results):.2f}s/instance")
    assert not bad, bad[:3]
    assert not slow and total < 1800


def test_criterion_2_stage_properties(corpus_results):
    staged = [r for r in corpus_results if r["machinery"] is not None]
    bad = [r for r in staged if not r["stage_ok"]]
    _report(2, not bad,
            f"gap properties and interval discipline hold on all "
            f"{len(staged)} stage-1 results (exact integer inequalities)")
    assert not bad, bad[:3]


def test_criterion_3_exchange_budget(corpus_results):
    mains = [r for r in corpus_results if r["target"].startswith("main")]
    bad = [r for r in mains
           if r["exchanges"] > 2 or r["max_delta"] > 2
           or not r["root_strict_max"] or not r["paper_directed"]]
    _report(3, not bad,
            f"{len(mains)} main-regime instances: <= 2 exchanges, "
            f"per-vertex delta <= 2, root sum strictly maximal")
    assert not bad, bad[:3]


def test_criterion_4_paper_bounds(corpus_results):
    bad = []
    for r in corpus_results:
        b = r.get("bounds")
        if b is None:
            continue
        mach = r["machinery"]
        if mach == "DEGEN_I1":
            if b["u1"] > 38 or b["min_h"] < 101:
                bad.append(r)
        elif mach == "DEGEN_I2":
            if b["u2"] >= 30 or b["min_h"] < 89:
                bad.append(r)
        elif mach == "DEGEN_I3":
            if b["u3"] > 18:
                bad.append(r)
    rejected = 0
    for target in CORPUS_REGIMES:
        for n in (14, 15):
            try:
                gen_instance(n, target, seed=1)
            except InfeasibleRegime:
                rejected += 1
    ok = not bad and rejected == 2 * len(CORPUS_REGIMES)
    _report(4, ok,
            "sum(u1) <= 38 & min H >= 101 (i=1); sum(u2) < 30 & "
            "min H >= 89 (i=2); sum(u3) <= 18 (i=3); n <= 15 rejected")
    assert not bad, bad[:3]
    assert rejected == 2 * len(CORPUS_REGIMES)


def _connected_spanning(n: int, edges) -> bool:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = set()
    for u, v in edges:
        seen.update((u, v))
        parent[find(u)] = find(v)
    if len(seen) != n:
        return False
    roots = {find(v) for v in range(1, n + 1)}
    return len(roots) == 1


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5)
    checks = 0
    disagreements = 0
    for n in range(3, 7):
        all_pairs = list(combinations(range(1, n + 1), 2))
        for m in range(max(2, n - 1), min(7, len(all_pairs)) + 1):
            for subset in combinations(all_pairs, m):
                if not _connected_spanning(n, subset):
                    continue
                g = build_graph(n, list(subset))
                for _ in range(2):
                    labels = list(range(1, m + 1))
                    rng.shuffle(labels)
                    # The definition, recomputed from scratch.
                    sums = {}
                    for eid, (a, b) in enumerate(g.edges):
                        sums[a] = sums.get(a, 0) + labels[eid]
                        sums[b] = sums.get(b, 0) + labels[eid]
                    brute = len(set(sums.values())) == n
                    got = verify_antimagic(
                        g, assigned(g, labels)).ok
                    checks += 1
                    if brute != got:
                        disagreements += 1
    k2 = exhaustive_search(build_graph(2, [(1, 2)]))
    p3 = exhaustive_search(build_graph(3, [(1, 2), (2, 3)]))
    k3 = exhaustive_search(build_graph(3, [(1, 2), (2, 3), (1, 3)]))
    k4 = exhaustive_search(build_graph(4, list(combinations(range(1, 5), 2))))
    searches_ok = (k2 is None and p3 is not None and k3 is not None
                   and k4 is not None)
    ok = checks >= 10_000 and disagreements == 0 and searches_ok
    _report(5, ok,
            f"{checks} labellings checked against the raw definition, "
            f"{disagreements} disagreements; K2 proven non-antimagic, "
            f"P3/K3/K4 labelled by exhaustive search")
    assert ok


def test_criterion_6_universal_vertex():
    rng = random.Random(6)
    count = 0
    for n in range(3, 10):
        for _ in range(50):
            g = random_universal_graph(n, rng)
            outcome = label(g)
            assert outcome.regime == Regime.DELTA_N1
            assert outcome.status == "constructed"
            assert verify_antimagic(g, outcome.labelling).ok
            count += 1
    _report(6, True, f"{count} graphs with max degree n-1 (n in 3..9), "
                     f"100% verified antimagic")


def test_criterion_7_edge_colouring_suite():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 40)
        p = rng.uniform(0.05, 0.6)
        edges = [(u, v) for u, v in combinations(range(1, n + 1), 2)
                 if rng.random() < p]
        if not edges:
            continue
        g = build_graph(n, edges)
        col = vizing_colour(g, range(g.m))
        assert len(col.classes) <= g.max_degree() + 1
        assert sum(col.sizes()) == g.m
        assert brute_proper(g, col.classes)

    koenig_checked = balance_checked = 0
    for seed in range(1, 21):
        g = gen_instance(19 + seed % 10, "main", seed=seed)
        d = decompose(g)
        t = d.d_prime[2]
        picked = []
        for u in d.u:
            he = sorted((g.other_end(e, u), e) for e in g.incident[u]
                        if g.other_end(e, u) in d.h_set)
            picked.extend(e for _, e in he[:t])
        col = koenig_colour(g, picked, t, d.u)
        assert len(col.classes) == t
        assert all(len(c) == 3 for c in col.classes)
        koenig_checked += 1
        g2 = [e for e in d.non_root_edges(g.m) if e not in set(picked)
              and not set(g.edges[e]) <= set(d.u)]
        assert len(g2) >= 3 * (g.n - 4)  # the counting precondition
        # Padded with empty classes only, so balancing runs its rounds.
        vizing = vizing_colour(g, g2).classes
        padded = vizing + ((),) * (g.n - 4 - len(vizing))
        balanced = balance_classes(EdgeColouring(g, padded), 3)
        assert min(balanced.sizes()) >= 3
        assert brute_proper(g, balanced.classes)
        balance_checked += 1
    _report(7, True,
            f"200 random graphs Vizing-proper within Delta+1; Koenig "
            f"3-per-class on {koenig_checked} main instances; balancing "
            f"reached >= 3 on {balance_checked} colourings")


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in (1, 2):
        run_dir = tmp_path / f"run{run}"
        run_dir.mkdir()
        assert cli_main(["generate", "--n", "21", "--count", "3",
                         "--regimes", "main,degen_i3,disc_triple",
                         "--seed", "11", "--out-dir", str(run_dir)]) == 0
        blobs = []
        for f in sorted(run_dir.glob("*.graph")):
            out = run_dir / (f.stem + ".labels")
            trace = run_dir / (f.stem + ".trace.json")
            assert cli_main(["label", str(f), "--out", str(out),
                             "--trace", str(trace), "--seed", "11"]) == 0
            blobs.append((f.name, f.read_bytes(), out.read_bytes(),
                          trace.read_bytes()))
        outputs.append(blobs)
    ok = outputs[0] == outputs[1]
    _report(8, ok, "two identical runs produced byte-identical graph, "
                   "labelling, and trace files")
    assert ok
