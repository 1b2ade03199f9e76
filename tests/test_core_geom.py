import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynds.core_geom import (
    RT_VISIT_C,
    Box,
    Interval,
    Point,
    RangeTree,
    ScaledInt,
    VisitCounter,
    dominates,
    orthant_union_decompose,
)


# ---------------- oracles ----------------

class ScanTree:
    """Linear-scan mirror of RangeTree used as the ground truth."""

    def __init__(self, entries):
        self.entries = list(entries)
        self.active = [False] * len(entries)

    def toggle(self, key, flag):
        self.active[key] = flag

    def count(self, box):
        return sum(1 for k, (c, _) in enumerate(self.entries)
                   if self.active[k] and box.contains(c))

    def max_entry(self, box):
        best = None
        for k, (c, v) in enumerate(self.entries):
            if self.active[k] and box.contains(c):
                if best is None or (v, -k) > (best[0], -best[1]):
                    best = (v, k)
        return best


def in_orthant_union(corners, p):
    return any(all(pi <= ci for pi, ci in zip(p, c)) for c in corners)


def clipped_length(iv, lo, hi):
    a = lo if iv.lo is None else max(lo, iv.lo)
    b = hi if iv.hi is None else min(hi, iv.hi)
    return max(0, b - a)


def union_volume_by_cells(corners, lo, hi):
    """Exact volume of the orthant union within [lo, hi]^3 by cell scan."""
    vols = Fraction(0)
    axes = []
    for ax in range(3):
        vals = sorted({lo, hi} | {c[ax] for c in corners if lo < c[ax] < hi})
        axes.append(vals)
    for i in range(len(axes[0]) - 1):
        for j in range(len(axes[1]) - 1):
            for k in range(len(axes[2]) - 1):
                cell = [(axes[0][i], axes[0][i + 1]),
                        (axes[1][j], axes[1][j + 1]),
                        (axes[2][k], axes[2][k + 1])]
                mid = tuple(Fraction(a + b, 2) for a, b in cell)
                if in_orthant_union(corners, mid):
                    v = 1
                    for a, b in cell:
                        v *= b - a
                    vols += v
    return vols


# ---------------- ScaledInt ----------------

def test_scaled_int_basics():
    a = ScaledInt.of(3, 4)
    b = ScaledInt(5, 4)  # 5/4
    assert a.raw == 12
    assert (a - b).raw == 7
    assert (a + b).raw == 17
    assert b < a
    assert -b == ScaledInt(-5, 4)
    assert a.value == Fraction(3)
    assert b.value == Fraction(5, 4)


def test_scaled_int_scale_mismatch_is_error():
    a = ScaledInt(1, 2)
    b = ScaledInt(1, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a < b
    # equality is value-based and total
    assert ScaledInt(2, 2) == ScaledInt(3, 3)
    assert ScaledInt(1, 2) != ScaledInt(1, 3)


def test_scaled_int_huge_values_stay_exact():
    big = ScaledInt(2 ** 100 + 1, 1)
    assert (big - ScaledInt(1, 1)).raw == 2 ** 100
    assert (big + big).raw == 2 ** 101 + 2


# ---------------- intervals and boxes ----------------

def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(2, 2, lo_closed=False)
    iv = Interval(None, 5)
    assert not iv.lo_closed  # infinite ends are open


def test_interval_contains_open_closed():
    iv = Interval(1, 4, lo_closed=False, hi_closed=True)
    assert not iv.contains(1)
    assert iv.contains(2)
    assert iv.contains(4)
    assert not iv.contains(5)


def test_box_contains_and_intersects():
    b = Box.closed((0, 0), (2, 3))
    assert b.contains((0, 3))
    assert not b.contains((3, 0))
    other = Box([Interval(2, 5), Interval(3, 9)])
    assert b.intersects(other)
    disjoint = Box([Interval(2, 5, lo_closed=False), Interval(0, 9)])
    assert not b.intersects(disjoint)


def test_dominates():
    assert dominates((1, 2), (1, 3))
    assert dominates((1, 2), (2, 2))
    assert not dominates((1, 2), (1, 2))  # p = q
    assert not dominates((1, 2), (0, 5))
    assert dominates(Point((0, 0, 0)), Point((1, 0, 0)))


# ---------------- range tree vs scan oracle ----------------

def test_rt_spec_example_max():
    tree = RangeTree(1, [((1,), 3), ((2,), 7)], mode="max")
    tree.toggle(0, True)
    tree.toggle(1, True)
    got = tree.max_entry(Box.closed((0,), (5,)))
    assert got == (7, 1)
    assert tree.entry(1)[0] == (2,)


def test_rt_tie_break_smallest_key():
    tree = RangeTree(1, [((1,), 5), ((2,), 5), ((3,), 5)], mode="max")
    for k in range(3):
        tree.toggle(k, True)
    assert tree.max_entry(Box.closed((0,), (9,))) == (5, 0)
    tree.toggle(0, False)
    assert tree.max_entry(Box.closed((0,), (9,))) == (5, 1)


def test_rt_unknown_key_errors():
    tree = RangeTree(1, [((1,), 1)])
    with pytest.raises(KeyError):
        tree.toggle(3, True)


def test_rt_toggle_idempotent():
    tree = RangeTree(1, [((1,), 1)])
    tree.toggle(0, True)
    tree.toggle(0, True)
    assert tree.count(Box.closed((0,), (2,))) == 1
    tree.toggle(0, False)
    tree.toggle(0, False)
    assert tree.count(Box.closed((0,), (2,))) == 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_random_traces_match_scan(dim, mode):
    rng = random.Random(1000 + dim * 10 + (mode == "max"))
    for _ in range(20):
        u = rng.randint(1, 40)
        entries = [(tuple(rng.randint(-8, 8) for _ in range(dim)),
                    rng.randint(-5, 20)) for _ in range(u)]
        tree = RangeTree(dim, entries, mode=mode)
        scan = ScanTree(entries)
        for _ in range(60):
            if rng.random() < 0.5:
                k = rng.randrange(u)
                flag = rng.random() < 0.6
                tree.toggle(k, flag)
                scan.toggle(k, flag)
            else:
                ivs = []
                for _ in range(dim):
                    lo = rng.randint(-10, 10)
                    hi = lo + rng.randint(0, 12)
                    if rng.random() < 0.15:
                        ivs.append(Interval.at_most(hi))
                    elif rng.random() < 0.15:
                        ivs.append(Interval.at_least(lo))
                    else:
                        ivs.append(Interval.closed(lo, hi))
                box = Box(ivs)
                if mode == "count":
                    assert tree.count(box) == scan.count(box)
                    assert tree.is_empty(box) == (scan.count(box) == 0)
                else:
                    assert tree.max_entry(box) == scan.max_entry(box)


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 9)),
                min_size=1, max_size=25),
       st.lists(st.tuples(st.integers(0, 24), st.booleans()),
                min_size=1, max_size=40),
       st.tuples(st.integers(-6, 6), st.integers(0, 12)))
@settings(max_examples=60, deadline=None)
def test_rt_count_mode_property(entries, toggles, q):
    ents = [((x,), v) for x, v in entries]
    tree = RangeTree(1, ents)
    scan = ScanTree(ents)
    for key, flag in toggles:
        key %= len(ents)
        tree.toggle(key, flag)
        scan.toggle(key, flag)
    lo, width = q
    box = Box.closed((lo,), (lo + width,))
    assert tree.count(box) == scan.count(box)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, 2)), min_size=1, max_size=20),
       st.lists(st.integers(0, 19), max_size=25),
       st.tuples(st.integers(-4, 4), st.integers(0, 8),
                 st.integers(-4, 4), st.integers(0, 8)))
@settings(max_examples=60, deadline=None)
def test_rt_max_mode_witness_removal_property(entries, on, q):
    # few distinct values, so cell tops tie and removing one must rescan
    ents = [((x, y), v) for x, y, v in entries]
    tree = RangeTree(2, ents, mode="max")
    scan = ScanTree(ents)
    for key in on:
        tree.toggle(key % len(ents), True)
        scan.toggle(key % len(ents), True)
    x, w, y, h = q
    boxes = [Box.closed((x, y), (x + w, y + h)),
             Box([Interval.all(), Interval.all()])]
    for box in boxes:
        while True:
            for b in boxes:
                assert tree.max_entry(b) == scan.max_entry(b)
            hit = tree.max_entry(box)
            if hit is None:
                break
            tree.toggle(hit[1], False)
            scan.toggle(hit[1], False)


def test_rt_visit_counter_budget():
    rng = random.Random(7)
    for dim in (1, 2, 3, 4):
        u = 60
        entries = [(tuple(rng.randint(0, 30) for _ in range(dim)), rng.randint(0, 9))
                   for _ in range(u)]
        counter = VisitCounter()
        tree = RangeTree(dim, entries, mode="count", counter=counter)
        budget = RT_VISIT_C * (math.log2(u) + 1) ** dim
        for k in range(u):
            before = counter.count
            tree.toggle(k, True)
            assert counter.count - before <= budget
        for _ in range(30):
            lows = tuple(rng.randint(-2, 28) for _ in range(dim))
            highs = tuple(l + rng.randint(0, 10) for l in lows)
            before = counter.count
            tree.count(Box.closed(lows, highs))
            assert counter.count - before <= budget


def test_rt_counter_shared_and_pausable():
    c = VisitCounter()
    t1 = RangeTree(1, [((1,), 1)], counter=c)
    t2 = RangeTree(1, [((2,), 1)], counter=c)
    t1.toggle(0, True)
    t2.toggle(0, True)
    assert c.count > 0
    n = c.count
    c.pause()
    t1.toggle(0, False)
    c.resume()
    assert c.count == n


def test_rt_extend_known_coords_no_rebuild_cost():
    tree = RangeTree(1, [((1,), 5), ((4,), 6)])
    tree.toggle(0, True)
    before = tree.counter.count
    (k,) = tree.extend([((4,), 9)])
    assert tree.counter.count == before
    tree.toggle(k, True)
    assert tree.count(Box.closed((0,), (9,))) == 2


def test_rt_extend_new_coords_rebuilds_and_preserves_state():
    tree = RangeTree(2, [((1, 1), 5), ((4, 2), 6)])
    tree.toggle(0, True)
    tree.toggle(1, True)
    before = tree.counter.count
    (k,) = tree.extend([((7, -3), 2)])
    assert tree.counter.count == before  # rebuild is not charged
    tree.toggle(k, True)
    assert tree.count(Box.closed((-5, -5), (9, 9))) == 3
    assert tree.count(Box.closed((7, -3), (7, -3))) == 1


def test_rt_replace_axis_values():
    tree = RangeTree(1, [((1,), 5), ((4,), 6), ((9,), 7)])
    for k in range(3):
        tree.toggle(k, True)
    tree.replace_axis_values(0, {1: 10, 4: 40, 9: 90})
    assert tree.count(Box.closed((10,), (40,))) == 2
    assert tree.count(Box.closed((0,), (9,))) == 0
    with pytest.raises(ValueError):
        tree.replace_axis_values(0, {10: 5, 40: 4, 90: 3})


def test_rt_scaled_int_coords():
    s = 4
    ents = [((ScaledInt(2, s),), 1), ((ScaledInt(5, s),), 2)]
    tree = RangeTree(1, ents)
    tree.toggle(0, True)
    tree.toggle(1, True)
    box = Box([Interval.closed(ScaledInt(0, s), ScaledInt(3, s))])
    assert tree.count(box) == 1


# ---------------- orthant union decomposition ----------------

def rational_samples(rng, corners, n):
    vals = sorted({c[ax] for c in corners for ax in range(3)})
    lo, hi = vals[0] - 2, vals[-1] + 2
    pts = []
    for _ in range(n):
        pts.append(tuple(
            Fraction(rng.randint(2 * lo, 2 * hi), 2) for _ in range(3)))
    # grid points too, to exercise closed/open boundaries
    for _ in range(n):
        pts.append(tuple(rng.randint(lo, hi) for _ in range(3)))
    return pts


def check_decomposition(corners, rng):
    boxes = orthant_union_decompose(corners)
    assert len(boxes) <= 4 * len(corners) + 1
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].intersects(boxes[j]), (corners, i, j)
    for p in rational_samples(rng, corners, 40):
        inside = in_orthant_union(corners, p)
        hits = sum(1 for b in boxes if b.contains(p))
        assert hits == (1 if inside else 0), (corners, p)
    vals = sorted({c[ax] for c in corners for ax in range(3)})
    lo, hi = vals[0] - 1, vals[-1] + 1
    want = union_volume_by_cells(corners, lo, hi)
    got = Fraction(0)
    for b in boxes:
        v = Fraction(1)
        for iv in b.intervals:
            v *= clipped_length(iv, lo, hi)
        got += v
    assert got == want


def test_orthant_decompose_single_corner():
    boxes = orthant_union_decompose([(2, 3, 4)])
    assert len(boxes) == 1
    b = boxes[0]
    assert b.contains((2, 3, 4))
    assert b.contains((-100, -100, -100))
    assert not b.contains((2, 3, Fraction(9, 2)))


def test_orthant_decompose_empty():
    assert orthant_union_decompose([]) == []


def test_orthant_decompose_duplicates_and_ties():
    rng = random.Random(5)
    check_decomposition([(1, 1, 1), (1, 1, 1)], rng)
    check_decomposition([(0, 5, 2), (5, 0, 2), (3, 3, 2)], rng)
    check_decomposition([(1, 2, 3), (2, 1, 3), (1, 2, 4)], rng)


def test_orthant_decompose_random():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 12)
        corners = [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(m)]
        check_decomposition(corners, rng)


def test_orthant_decompose_chain_and_antichain():
    rng = random.Random(3)
    chain = [(i, i, i) for i in range(6)]
    check_decomposition(chain, rng)
    anti = [(i, 9 - i, 5) for i in range(10)]
    check_decomposition(anti, rng)
