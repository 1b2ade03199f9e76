"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single summary line so a
verbose run reads as a checklist.  Budgets (instance counts, tolerances,
wall-clock ceilings) are asserted, not aspirational.
"""
import itertools
import random
import time
from fractions import Fraction

import pytest

from dynds.cli import BENCHES, TRACE_SUITES, run_bench, trace_suite
from dynds.core_geom import Box, orthant_union_decompose
from dynds.geom_dyn import klee_union_volume
from dynds.reductions import (REDUCTIONS, crosscheck_suite, oumv_answers,
                              random_oumv)
from batched_oumv import BatchedOuMv, OuMvBrute
from inclusion_exclusion import klee_union_volume_ie
from overlap import boxes_intersect
from recording import erickson_maxima, skyline_counts

SEED = 20260823


def _line(tag: str, text: str) -> None:
    print(f"[{tag}] {text} -> pass")


# ---------------- 1: reductions vs brute force ----------------

def test_criterion_1_reductions_match_bruteforce():
    t0 = time.time()
    total = 0
    for rid in sorted(REDUCTIONS):
        cfg = REDUCTIONS[rid]
        for adapter in sorted(cfg.adapters):
            rep = crosscheck_suite(SEED, cfg.sizes, rid, adapter, count=200)
            assert rep.mismatches == [], rep.render()
            total += 200
    elapsed = time.time() - t0
    assert elapsed < 300
    _line("criterion 1", f"{len(REDUCTIONS)} reductions, {total} instances, "
                         f"0 mismatches in {elapsed:.0f}s")


# ---------------- 2: structures vs scan oracles ----------------

def test_criterion_2_trace_suites_exact():
    t0 = time.time()
    for problem, sid in TRACE_SUITES:
        rep = trace_suite(problem, sid, seed=SEED, cases=1000)
        assert rep.mismatches == [], rep.render()
    elapsed = time.time() - t0
    assert elapsed < 300
    _line("criterion 2", f"{len(TRACE_SUITES)} structures x 1000 traces, "
                         f"exact equality in {elapsed:.0f}s")


# ---------------- 3: counter exponent fits ----------------

@pytest.mark.parametrize("structure,target", [
    ("sequence-mode", 2 / 3),
    ("sequence-mode-churn", 2 / 3),
    ("range-mode-dyn-2d", 0.8),
    ("langerman-d1", 0.5),
    ("langerman-d2", 4 / 3),
    ("skyline3d", 0.5),
    ("halfspace-d2", 0.5),
    ("halfspace-d3", 2 / 3),
    ("hyperclique-counting", 1.0),
    ("erickson-eager", 2 / 3),
])
def test_criterion_3_exponent_fit(structure, target):
    plan = BENCHES[structure]
    assert plan.target == pytest.approx(target)
    assert len(plan.default_sizes) >= 5
    t0 = time.time()
    rep = run_bench(structure, (), seed=11, tol=0.20)
    elapsed = time.time() - t0
    assert elapsed < 120
    assert abs(rep.fit_exponent - target) <= 0.20, rep.render()
    _line("criterion 3", f"{structure}: fit {rep.fit_exponent:.3f} vs "
                         f"target {target:.3f} in {elapsed:.0f}s")


# ---------------- 4: geometric exactness ----------------

def _orthant_samples(rng, corners, count):
    vals = sorted({c[ax] for c in corners for ax in range(3)})
    lo, hi = vals[0] - 1, vals[-1] + 1
    pts = [tuple(Fraction(rng.randint(2 * lo, 2 * hi), 2) for _ in range(3))
           for _ in range(count // 2)]
    pts += [tuple(rng.randint(lo, hi) for _ in range(3))
            for _ in range(count - len(pts))]
    return pts


def test_criterion_4_orthant_decompose_invariants():
    rng = random.Random(SEED)
    for _ in range(500):
        m = rng.randint(1, 12)
        corners = [tuple(rng.randint(0, 8) for _ in range(3))
                   for _ in range(m)]
        boxes = orthant_union_decompose(corners)
        assert len(boxes) <= 4 * m + 1
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert not boxes_intersect(boxes[i], boxes[j])
        for p in _orthant_samples(rng, corners, 24):
            inside = any(all(pi <= ci for pi, ci in zip(p, c))
                         for c in corners)
            hits = sum(1 for b in boxes if b.contains(p))
            assert hits == (1 if inside else 0), (corners, p)
    _line("criterion 4a", "orthant decomposition: 500 inputs, disjoint, "
                          "covering, <= 4m+1 boxes")


def test_criterion_4_klee_vs_inclusion_exclusion():
    rng = random.Random(SEED + 1)
    for _ in range(80):
        d = rng.choice((2, 3))
        m = rng.randint(1, 8)
        corners = [tuple(Fraction(rng.randint(2, 12), 2) for _ in range(d))
                   for _ in range(m)]
        got = klee_union_volume(corners, 1)
        want = klee_union_volume_ie(corners, 1)
        assert got == want, (corners, got, want)
        assert isinstance(got, Fraction)
    _line("criterion 4b", "unit-cube union volume == inclusion-exclusion "
                          "on 80 instances, exact")


# ---------------- 5: batched self-reduction ----------------

def test_criterion_5_batched_oumv_all_splits():
    rng = random.Random(SEED + 2)
    checked = 0
    for i in range(100):
        k = 2 if i % 3 else 3
        n = rng.randint(2, 5 if k == 2 else 3)
        inst = random_oumv(rng, k, n, num_queries=4)
        want = oumv_answers(inst)
        for sub in range(1, n + 1):
            phase = rng.choice((None, 1, 2))
            drv = BatchedOuMv(inst.tuples, n, k, sub,
                              lambda M, nn, kk: OuMvBrute(M, nn, kk),
                              phase_size=phase)
            got = [drv.query([set(u) for u in us]) for us in inst.queries]
            assert got == want, (inst, sub, phase)
        checked += 1
    assert checked == 100
    _line("criterion 5", "batched driver == brute force on 100 instances, "
                         "all splits")


# ---------------- 6: closed-form spot checks ----------------

def test_criterion_6_skyline_counts_closed_form():
    rng = random.Random(SEED + 3)
    cfg = REDUCTIONS["red_oumvk_skyline_k2"]
    cfg3 = REDUCTIONS["red_oumvk_skyline_k3"]
    phases = 0
    for i in range(25):
        c = cfg if i % 2 else cfg3
        inst = c.gen(rng, c.sizes[i % len(c.sizes)])
        _, rec = skyline_counts(inst, c.adapters["oracle"](inst))
        assert len(rec) == len(inst.queries)
        k, N = inst.k, inst.n
        for us, cs in zip(inst.queries, rec):
            pre = sum(len(us[i]) for i in range(k - 1))
            for j in range(N + 1):
                tail = sum(1 for t in inst.tuples
                           if t[k - 1] > j
                           and all(t[i] in us[i] for i in range(k - 1)))
                assert cs[j] == -pre + (k - 1) * N + 1 + tail
            phases += 1
    _line("criterion 6a", f"skyline counts match closed form over "
                          f"{phases} query phases")


def test_criterion_6_erickson_threshold_schedule():
    rng = random.Random(SEED + 4)
    phases = 0
    for i in range(25):
        cfg = REDUCTIONS["red_oumvk_erickson_k2" if i % 2 else
                         "red_oumvk_erickson_k3"]
        inst = cfg.gen(rng, cfg.sizes[i % len(cfg.sizes)])
        for adapter in sorted(cfg.adapters):
            answers, maxima = erickson_maxima(
                inst, cfg.adapters[adapter](inst))
            assert len(maxima) == len(inst.queries)
            for f, (mv, ans) in enumerate(zip(maxima, answers), start=1):
                thr = inst.k + 1 + (f - 1) * inst.k
                assert mv <= thr
                assert ans == (mv == thr)
            phases += len(maxima)
    _line("criterion 6b", f"erickson accept threshold k+1+(f-1)k over "
                          f"{phases} phases")
