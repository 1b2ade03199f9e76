import itertools
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import lt, ne
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynds.core_geom import (
    _Axis,
    _value_range,
    Box,
    Interval,
    PointMultiset,
    PointScan,
    RangeTree,
    VisitCounter,
    orthant_union_decompose,
)
from dynds.colors import DynColorCountDS, dcc_oracle
from dynds.range_mode import DynRangeModeDS, mode_oracle
from overlap import boxes_intersect


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
    assert boxes_intersect(b, other)
    disjoint = Box([Interval(2, 5, lo_closed=False), Interval(0, 9)])
    assert not boxes_intersect(b, disjoint)


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


def kept(side, node):
    """Whether an axis of that side keeps the node: a prefix walk (x <= b)
    reads only even nodes and the root, a suffix walk (x >= a) only odd
    ones."""
    return side == "both" or node == 1 or node % 2 == (side == "ge")


def product_cells(tree, key):
    """An entry's cell ids as itertools.product with one sum() per cell
    enumerates them, over the ancestors that its axes keep: the reference
    for RangeTree._cells."""
    nc, _ = tree.entry(key)
    per_axis = []
    for ax in range(tree.dim):
        axis = tree._axes[ax]
        per_axis.append([n * tree._strides[ax]
                         for n in axis.ancestors(axis.slot_of[nc[ax]])
                         if kept(tree.sides[ax], n)])
    return [sum(parts) for parts in itertools.product(*per_axis)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_toggle_cells_match_product_enumeration(dim, mode):
    rng = random.Random(3000 + dim * 10 + (mode == "max"))
    entries = [(tuple(rng.randint(-6, 6) for _ in range(dim)),
                rng.randint(0, 5)) for _ in range(10)]
    tree = RangeTree(dim, entries, mode=mode)
    scan = ScanTree(entries)
    relabels = 0
    for step in range(8):
        # crowd new values into (0, 1) on every axis: the free leaves there
        # run out, so extend relabels a window or doubles an axis
        before = [dict(axis.slot_of) for axis in tree._axes]
        den = 2 ** (step + 3)
        new = [(tuple(Fraction(rng.randint(1, den - 1), den)
                      for _ in range(dim)), rng.randint(0, 5))
               for _ in range(3)]
        tree.extend(new)
        scan.entries.extend(new)
        scan.active.extend([False] * len(new))
        relabels += any(axis.slot_of[v] != s for axis, slots in
                        zip(tree._axes, before) for v, s in slots.items())
        for key in range(len(tree)):
            assert tree._cells(key) == product_cells(tree, key)
        for _ in range(25):
            key = rng.randrange(len(tree))
            flag = rng.random() < 0.6
            changed = tree.is_active(key) != flag
            before = tree.counter.count
            tree.toggle(key, flag)
            scan.toggle(key, flag)
            nc, _ = tree.entry(key)
            expect = 1
            for ax in range(dim):
                axis = tree._axes[ax]
                expect *= len(axis.ancestors(axis.slot_of[nc[ax]]))
            assert tree.counter.count - before == (expect if changed else 0)
            assert tree._cells(key) == product_cells(tree, key)
        for _ in range(10):
            ivs = []
            for _ in range(dim):
                if rng.random() < 0.2:
                    ivs.append(Interval.all())
                else:
                    lo = Fraction(rng.randint(-14, 14), 2)
                    ivs.append(Interval.closed(lo, lo + rng.randint(0, 6)))
            box = Box(ivs)
            if mode == "count":
                assert tree.count(box) == scan.count(box)
            else:
                assert tree.max_entry(box) == scan.max_entry(box)
        if mode == "count":
            assert all(c > 0 for c in tree._count_cells.values())
    assert relabels >= 2


def roomiest(x, y):
    """The leaf in [x, y] with the most trailing zeros, by trying each."""
    return max(range(x, y + 1),
               key=lambda n: (n & -n).bit_length() if n else math.inf)


def product_query_ids(tree, box):
    """A box's cell ids as the per-axis bottom-up canonical decompositions,
    combined by itertools.product with one sum() per cell: the reference
    for RangeTree._query_ids.  Each axis walks the leaf range of the box's
    values widened over the free leaves around it.  Returns (ids, per-axis
    node lists), or None when some axis range is empty."""
    per_axis = []
    for ax, iv in enumerate(box.intervals):
        axis = tree._axes[ax]
        vals = axis.values
        lo, hi = iv.lo, iv.hi
        lo_idx = 0
        if lo is not None:
            lo_idx = (bisect_left if iv.lo_closed else bisect_right)(vals, lo)
        hi_idx = len(vals) - 1
        if hi is not None:
            hi_idx = (bisect_right if iv.hi_closed
                      else bisect_left)(vals, hi) - 1
        if lo_idx > hi_idx:
            return None
        # widen the leaf range over the free leaves around it, to the leaf
        # with the most trailing zeros in each gap, or to the axis end
        slots, leaves = axis.slots, axis.leaves
        l = leaves + (roomiest(slots[lo_idx - 1] + 1, slots[lo_idx])
                      if lo_idx else 0)
        r = leaves + (roomiest(slots[hi_idx] + 1, slots[hi_idx + 1])
                      if hi_idx + 1 < len(slots) else leaves)
        nodes = []
        while l < r:
            if l & 1:
                nodes.append(l)
                l += 1
            if r & 1:
                r -= 1
                nodes.append(r)
            l >>= 1
            r >>= 1
        per_axis.append([n * tree._strides[ax] for n in nodes])
    return [sum(parts) for parts in itertools.product(*per_axis)], per_axis


SCALE = 256  # every crowded coordinate below is a multiple of 1/256


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rt_query_ids_match_product_reference(data):
    draw = data.draw
    dim = draw(st.integers(0, 4), label="dim")
    mode = draw(st.sampled_from(["count", "max"]), label="mode")
    scaled = draw(st.booleans(), label="scaled")

    def conv(x):
        # scaled: every coordinate and bound a third of its drawn value, so
        # that denominators 1, 3, 12 and 768 meet on one axis
        return Fraction(x, 3) if scaled else x

    def point(crowd):
        # extend crowds values into (0, 1), where the slot gap runs out
        if crowd:
            draw_x = st.integers(1, SCALE - 1).map(lambda n: Fraction(n, SCALE))
        else:
            draw_x = st.integers(-4, 4)
        return tuple(conv(draw(draw_x)) for _ in range(dim))

    def bound():
        return draw(st.none() | st.integers(-6, 6)
                    | st.integers(0, 4).map(lambda n: Fraction(n, 4)))

    def interval():
        lo, hi = bound(), bound()
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if lo is not None and lo == hi:
            lo_closed = hi_closed = True
        return Interval(None if lo is None else conv(lo),
                        None if hi is None else conv(hi), lo_closed, hi_closed)

    entries = [(point(False), draw(st.integers(0, 3)))
               for _ in range(draw(st.integers(0, 8)))]
    tree = RangeTree(dim, entries, mode=mode)
    scan = ScanTree(entries)
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["extend", "toggle", "query", "query"]))
        if kind == "extend":
            new = [(point(True), draw(st.integers(0, 3)))
                   for _ in range(draw(st.integers(1, 3)))]
            tree.extend(new)
            scan.entries.extend(new)
            scan.active.extend([False] * len(new))
        elif kind == "toggle" and len(tree):
            key = draw(st.integers(0, len(tree) - 1))
            flag = draw(st.booleans())
            tree.toggle(key, flag)
            scan.toggle(key, flag)
        elif kind == "query":
            box = Box([interval() for _ in range(dim)])
            ref = product_query_ids(tree, box)
            got = tree._query_ids(box)
            if ref is None:
                assert not got
            else:
                assert sorted(got) == sorted(ref[0])
            before = tree.counter.count
            if mode == "count":
                assert tree.count(box) == scan.count(box)
            else:
                assert tree.max_entry(box) == scan.max_entry(box)
            visits = 0 if ref is None else math.prod(map(len, ref[1]))
            assert tree.counter.count - before == visits


def test_rt_query_dim_mismatch_and_dim0():
    tree = RangeTree(0, [((), 3), ((), 5)])
    tree.toggle(1, True)
    before = tree.counter.count
    assert tree.count(Box([])) == 1
    assert tree.counter.count - before == 1
    with pytest.raises(ValueError, match="box dimension mismatch"):
        tree.count(Box.closed((0,), (1,)))


# Visit-budget constant: one toggle or query on a d-dim tree with u universe
# entries touches at most RT_VISIT_C * (log2(u) + 1)**d canonical cells.
RT_VISIT_C = 300


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


def test_rt_counter_shared():
    c = VisitCounter()
    t1 = RangeTree(1, [((1,), 1)], counter=c)
    t2 = RangeTree(1, [((2,), 1)], counter=c)
    t1.toggle(0, True)
    n = c.count
    assert n > 0
    t2.toggle(0, True)
    assert c.count > n


def test_rt_extend_known_coords_no_rebuild_cost():
    tree = RangeTree(1, [((1,), 5), ((4,), 6)])
    tree.toggle(0, True)
    before = tree.counter.count
    (k,) = tree.extend([((4,), 9)])
    assert tree.counter.count == before
    tree.toggle(k, True)
    assert tree.count(Box.closed((0,), (9,))) == 2


def active_cells(tree):
    return {key: product_cells(tree, key) for key in tree.active_keys()}


def changed_cells(before, after):
    """Cells a relabel touches: each moved entry's old and new cells that
    differ, summed over the active entries."""
    return sum(len(set(cells) ^ set(after[key]))
               for key, cells in before.items())


def test_rt_extend_new_coords_rebuilds_and_preserves_state():
    # x values 0, 10, ..., 70 on every other leaf of 16 (room 2)
    tree = RangeTree(2, [((10 * i, i % 3), i) for i in range(8)], room=2)
    assert tree._axes[0].slots == [1, 3, 5, 7, 9, 11, 13, 15]
    for key in range(0, 8, 2):
        tree.toggle(key, True)
    steps = []
    for x in (35, 32, 33, 31, 34, -5, -6, -7, -8, -9):
        before, leaves = active_cells(tree), tree._axes[0].leaves
        visits = tree.counter.count
        (k,) = tree.extend([((x, 1), 9)])
        after = active_cells(tree)
        if tree._axes[0].leaves != leaves:
            # a doubled axis moves every cell: each active entry re-placed
            steps.append("double")
            assert tree.counter.count - visits == sum(map(len, after.values()))
        else:
            # a free leaf moves nothing; a relabel is charged exactly the
            # cells of the entries on its moved values that changed
            steps.append("relabel" if after != before else "free")
            assert tree.counter.count - visits == changed_cells(before, after)
        tree.toggle(k, True)
        assert all(tree._cells(key) == product_cells(tree, key)
                   for key in tree.active_keys())
    assert steps[:2] == ["free", "free"] and {"relabel", "double"} <= set(steps)
    xs = [10 * i for i in range(0, 8, 2)] + [35, 32, 33, 31, 34, -5, -6, -7,
                                             -8, -9]
    for lo, hi in ((-9, 70), (31, 35), (-7, -6), (0, 34), (32, 60)):
        want = sum(lo <= x <= hi for x in xs)
        assert tree.count(Box.closed((lo, -1), (hi, 9))) == want


def _pow2_at_least(m):
    return 1 << (m - 1).bit_length()


def test_rt_constructor_packs_axes():
    # a tree built over its whole universe puts value i of an axis's m on
    # leaf start + room * i of next_pow2(room * m), centred: room 1 packs
    # them, room 2 keeps a free leaf in every gap
    rng = random.Random(21)
    for dim in (1, 2, 3):
        for u in (1, 2, 3, 5, 8, 9, 25, 60):
            entries = [(tuple(rng.randint(0, 40) for _ in range(dim)), 0)
                       for _ in range(u)]
            for room in (1, 2):
                tree = RangeTree(dim, entries, room=room)
                for ax, axis in enumerate(tree._axes):
                    m = len({c[ax] for c, _ in entries})
                    leaves = _pow2_at_least(room * m)
                    assert axis.leaves == leaves
                    start = axis.slots[0]
                    assert axis.slots == [start + room * i for i in range(m)]
                    # the free leaves outside the values split evenly
                    assert abs((leaves - 1 - axis.slots[-1]) - start) <= 1


def test_rt_slack_layout_for_trees_grown_by_extend():
    # an empty tree has one leaf per axis; a tree grown one value at a time
    # doubles an axis only past half full, so it keeps fewer than
    # 4 (m + 1) leaves, in every order of arrival
    assert all(axis.leaves == 1 for axis in RangeTree(2)._axes)
    rng = random.Random(22)
    orders = {"rising": list(range(200)), "falling": list(range(200))[::-1],
              "random": rng.sample(range(10_000), 200)}
    for name, xs in orders.items():
        tree = RangeTree(2)
        for i, x in enumerate(xs):
            tree.extend([((x, -x), 0)])
            for axis in tree._axes:
                m = len(axis.values)
                assert m <= axis.leaves < 4 * (m + 1), name
        assert tree._axes[0].leaves <= 512, name
    packed = RangeTree(1, [((i,), 0) for i in range(4)])
    assert packed._axes[0].slots == [0, 1, 2, 3]
    packed.toggle(0, True)
    packed.extend([((-1,), 0)])                 # leaf 0 is taken: doubles
    assert packed._axes[0].leaves == 8
    assert packed.count(Box.closed((-1,), (0,))) == 1


@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_extend_after_packed_build_matches_scan(mode):
    # new values land below, above and between a packed axis's values;
    # small values make max-mode ties, which go to the smallest key
    rng = random.Random(f"packed.{mode}")
    kinds = set()
    for _ in range(15):
        entries = [((rng.randrange(0, 20, 2), rng.randrange(0, 20, 2)),
                    rng.randint(0, 3)) for _ in range(rng.randint(1, 12))]
        tree = RangeTree(2, entries, mode=mode)
        scan = ScanTree(entries)
        for _ in range(40):
            r = rng.random()
            if r < 0.3:
                new = [((rng.randint(-6, 26), rng.randint(-6, 26)),
                        rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
                for (x, _), _ in new:
                    xs = [c[0] for c, _ in scan.entries]
                    kinds.add("below" if x < min(xs) else
                              "above" if x > max(xs) else "between")
                assert tree.extend(new) == list(
                    range(len(scan.entries), len(scan.entries) + len(new)))
                scan.entries += new
                scan.active += [False] * len(new)
            elif r < 0.7:
                k = rng.randrange(len(scan.entries))
                flag = rng.random() < 0.7
                tree.toggle(k, flag)
                scan.toggle(k, flag)
            else:
                lo = [rng.randint(-8, 24) for _ in range(2)]
                box = Box.closed(lo, [v + rng.randint(0, 16) for v in lo])
                if mode == "count":
                    assert tree.count(box) == scan.count(box)
                else:
                    assert tree.max_entry(box) == scan.max_entry(box)
    assert kinds == {"below", "above", "between"}


def churn_values(pattern, rng):
    """An endless stream of new axis-0 values for an adversarial churn."""
    for i in itertools.count(1):
        if pattern == "front":
            yield -i
        elif pattern == "back":
            yield 1000 + i
        elif pattern == "gap":
            # always just above 20, below the previous one: one gap hammered
            yield 20 + Fraction(1, i + 1)
        else:
            yield Fraction(rng.randrange(-10**6, 10**6), 7)


def move_budget(n):
    """Values that axes holding n values in all may have moved so far:
    n log2(n)^2, the packed-memory array bound with constant 1."""
    return n * math.log2(max(n, 2)) ** 2


@pytest.mark.parametrize("pattern", ["front", "back", "gap", "random"])
@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_axis_churn_adversarial(pattern, mode, monkeypatch):
    # one new axis-0 value per extend, placed by the pattern; axis 1 draws
    # from a few values and entry values from 0..2, so max-mode cells tie
    moved = [0]
    insert = _Axis.insert

    def counting_insert(axis, v):
        got = insert(axis, v)
        moved[0] += len(axis.values) if got is None else len(got)
        return got

    monkeypatch.setattr(_Axis, "insert", counting_insert)
    rng = random.Random(f"churn.{pattern}.{mode}")
    entries = [((10 * i, rng.randint(0, 3)), rng.randint(0, 2))
               for i in range(8)]
    tree = RangeTree(2, entries, mode=mode)
    scan = ScanTree(entries)
    values = churn_values(pattern, rng)
    for op in range(160):
        r = rng.random()
        if r < 0.5:
            new = [((next(values), rng.randint(0, 3)), rng.randint(0, 2))]
            tree.extend(new)
            scan.entries += new
            scan.active.append(False)
        elif r < 0.8:
            key = rng.randrange(len(scan.entries))
            flag = rng.random() < 0.7
            tree.toggle(key, flag)
            scan.toggle(key, flag)
        else:
            xs = sorted(c[0] for c, _ in rng.sample(scan.entries, 2))
            box = Box.closed((xs[0], 0), (xs[1], rng.randint(0, 3)))
            if mode == "count":
                assert tree.count(box) == scan.count(box)
            else:
                assert tree.max_entry(box) == scan.max_entry(box)
        for axis in tree._axes:
            m = len(axis.values)
            assert all(map(lt, axis.slots, axis.slots[1:]))
            assert 0 <= axis.slots[0] and axis.slots[-1] < axis.leaves
            # density bound: past half full an axis doubles, never earlier
            assert axis.leaves < 4 * (m + 1)
        for key, cells in enumerate(tree._cells_of):
            if cells is not None:
                assert cells == product_cells(tree, key)
        assert moved[0] <= move_budget(sum(len(a.values)
                                           for a in tree._axes))
    everything = Box([Interval.all(), Interval.all()])
    if mode == "count":
        assert tree.count(everything) == scan.count(everything)
    else:
        assert tree.max_entry(everything) == scan.max_entry(everything)


def test_rt_axis_churn_moves_stay_in_budget():
    # the same patterns at 3,000 inserts on a bare axis
    rng = random.Random("axis-budget")
    for pattern in ("front", "back", "gap", "random"):
        axis = _Axis(list(range(0, 100, 10)))
        values = churn_values(pattern, rng)
        moved = 0
        for _ in range(3000):
            v = next(values)
            while v in axis.slot_of:    # as RangeTree.extend skips it
                v = next(values)
            old, slots, leaves = axis.values[:], axis.slots[:], axis.leaves
            got = axis.insert(v)
            if got is None:
                # a doubling moves every slot
                assert axis.leaves == 2 * leaves, pattern
                moved += len(axis.values)
            else:
                # exactly the old values whose slot changed, in order
                i = bisect_left(axis.values, v)
                kept = axis.slots[:i] + axis.slots[i + 1:]
                assert axis.leaves == leaves, pattern
                assert got == list(itertools.compress(
                    old, map(ne, slots, kept))), pattern
                moved += len(got)
        assert axis.leaves < 4 * (len(axis.values) + 1)
        assert moved <= move_budget(len(axis.values)), pattern


def test_rt_extend_debug_check_catches_a_bad_insert(monkeypatch):
    # with DYNDS_DEBUG_ASSERT on, an axis insert that leaves out a moved
    # value fails the check that RangeTree.extend runs after it
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    tree = RangeTree(1, [((x,), 1) for x in range(4)])
    tree.extend([((Fraction(1, 2),), 1)])   # a full axis doubles: checked
    insert = _Axis.insert
    monkeypatch.setattr(_Axis, "insert",
                        lambda self, v: (insert(self, v) or [None])[1:])
    with pytest.raises(RuntimeError, match="returns the moved old values"):
        for k in range(3, 30):
            tree.extend([((Fraction(1, k),), 1)])


def test_rt_replace_axis_values():
    tree = RangeTree(1, [((1,), 5), ((4,), 6), ((9,), 7)])
    for k in range(3):
        tree.toggle(k, True)
    tree.replace_axis_values(0, {1: 10, 4: 40, 9: 90})
    assert tree.count(Box.closed((10,), (40,))) == 2
    assert tree.count(Box.closed((0,), (9,))) == 0
    with pytest.raises(ValueError):
        tree.replace_axis_values(0, {10: 5, 40: 4, 90: 3})
    # a 2-D tree relabelled on axis 1 only
    tree = RangeTree(2, [((1, 5), 10), ((4, 5), 20), ((4, 2), 30),
                         ((9, 8), 40)], mode="max")
    for k in range(3):
        tree.toggle(k, True)
    boxes = [Box.closed((0, 0), (9, 9)), Box.closed((0, 20), (5, 50)),
             Box.closed((4, 2), (9, 5)), Box.closed((1, 30), (9, 80))]

    def state():
        return ([tree.entry(k) for k in range(len(tree))],
                [list(axis.values) for axis in tree._axes],
                [tree.max_entry(box) for box in boxes])

    before = state()
    assert before[2] == [(30, 2), None, (30, 2), None]
    for bad, err in (({2: 20, 5: 80, 8: 50}, ValueError),   # not monotone
                     ({2: 20, 5: 50}, KeyError)):           # misses 8
        with pytest.raises(err):
            tree.replace_axis_values(1, bad)
        assert state() == before
    tree.replace_axis_values(1, {2: 20, 5: 50, 8: 80})
    entries, values, answers = state()
    assert entries == [((1, 50), 10), ((4, 50), 20), ((4, 20), 30),
                       ((9, 80), 40)]
    assert values == [[1, 4, 9], [20, 50, 80]]
    assert answers == [None, (30, 2), None, (20, 1)]
    # a later value lands between the relabelled ones, on a free slot
    (k,) = tree.extend([((4, 35), 50)])
    slots = tree._axes[1].slot_of
    assert slots[20] < slots[35] < slots[50]
    assert tree.entry(k) == ((4, 35), 50)
    tree.toggle(k, True)
    assert tree.max_entry(Box.closed((0, 30), (9, 40))) == (50, 4)
    assert tree.max_entry(Box.closed((0, 36), (9, 49))) is None
    assert tree.max_entry(Box.closed((0, 0), (9, 99))) == (50, 4)


def assert_cells_exact(tree):
    """Every cached cell list is its recomputation, and every cell holds
    exactly the active entries whose cell lists name it: a count, or in max
    mode the members and their max as top."""
    for key, cells in enumerate(tree._cells_of):
        if cells is not None:
            assert cells == product_cells(tree, key)
    holders = {}
    for key in tree.active_keys():
        for cid in product_cells(tree, key):
            holders.setdefault(cid, []).append(key)
    if tree.mode == "count":
        assert tree._count_cells == {c: len(k) for c, k in holders.items()}
        return
    assert tree._max_cells.keys() == holders.keys()
    for cid, keys in holders.items():
        top, members = tree._max_cells[cid]
        assert members == {k: (tree.entry(k)[1], -k) for k in keys}
        assert top == max(members.values())


def sided_box(rng, sides, values):
    """A random box bounded on each axis only on the sides it keeps, its
    bounds drawn from the axis's values and a third to either side."""
    ivs = []
    for side, vals in zip(sides, values):
        lo, hi = sorted(rng.choice(vals) + Fraction(rng.randint(-1, 1), 3)
                        for _ in range(2))
        lo_closed, hi_closed = rng.random() < 0.5, rng.random() < 0.5
        shapes = {"le": [Interval(None, hi, hi_closed=hi_closed)],
                  "ge": [Interval(lo, None, lo_closed=lo_closed)]}
        shapes["both"] = shapes["le"] + shapes["ge"] + [Interval.closed(lo, hi)]
        ivs.append(Interval.all() if rng.random() < 0.1
                   else rng.choice(shapes[side]))
    return Box(ivs)


SIDES = [("le",), ("ge",), ("ge", "le"), ("both", "ge", "le"),
         ("ge", "ge", "le", "le")]


@pytest.mark.parametrize("sides", SIDES, ids="-".join)
@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_sides_churn_matches_scan(sides, mode, monkeypatch):
    # extends crowd new values into one gap per axis, so that a window
    # relabels (_move), or spread them, so that an axis doubles
    # (_relayout); after every op each cell holds exactly its entries, and
    # each answer is the scan's
    calls = Counter()
    for name in ("_move", "_relayout"):
        def counted(tree, *args, _name=name, _orig=getattr(RangeTree, name)):
            calls[_name] += 1
            return _orig(tree, *args)
        monkeypatch.setattr(RangeTree, name, counted)
    rng = random.Random(f"sides.{mode}.{sides}")
    dim = len(sides)

    def point(crowd):
        return tuple(20 + Fraction(rng.randint(1, 255), 256) if crowd
                     else rng.randint(0, 40) for _ in range(dim))

    entries = [(point(False), rng.randint(0, 3)) for _ in range(6)]
    tree = RangeTree(dim, entries, mode=mode, sides=sides)
    scan = ScanTree(entries)
    for _ in range(120 if dim < 4 else 50):
        r = rng.random()
        if r < 0.3:
            new = [(point(rng.random() < 0.6), rng.randint(0, 3))
                   for _ in range(rng.randint(1, 2))]
            tree.extend(new)
            scan.entries += new
            scan.active += [False] * len(new)
        elif r < 0.7:
            key = rng.randrange(len(scan.entries))
            flag = rng.random() < 0.7
            tree.toggle(key, flag)
            scan.toggle(key, flag)
        else:
            box = sided_box(rng, sides, [a.values for a in tree._axes])
            ref = product_query_ids(tree, box)
            # a query reads only nodes that its axes keep
            for ax, nodes in enumerate(ref[1] if ref else []):
                assert all(kept(sides[ax], n // tree._strides[ax])
                           for n in nodes)
            if mode == "count":
                assert tree.count(box) == scan.count(box)
            else:
                assert tree.max_entry(box) == scan.max_entry(box)
        assert_cells_exact(tree)
    assert calls["_move"] and calls["_relayout"]


def uncached_query_ids(tree, box):
    """RangeTree._query_ids with every axis's walk cache empty."""
    walks = tree._walks
    tree._walks = [{} for _ in walks]
    try:
        return tree._query_ids(box)
    finally:
        tree._walks = walks


WALK_SIDES = [("both",), ("le",), ("ge",), ("le", "ge"), ("both", "ge"),
              ("ge", "both", "le"), ("both", "le", "ge", "both")]


@pytest.mark.parametrize("sides", WALK_SIDES, ids="-".join)
@pytest.mark.parametrize("mode", ["count", "max"])
def test_rt_walk_cache_matches_uncached_walks(sides, mode, monkeypatch):
    # queries bounded by axis values, so that axis walks repeat, between
    # extends that take a free leaf, relabel a window or double an
    # axis, order-preserving relabels, toggles and (count trees, kept as
    # PointMultisets) self-rebuilds: every query's ids are the walk made
    # with empty caches, its answer is the scan's and its visits are those
    # ids, and no axis cache passes 2 * values + 16 entries
    outcomes = Counter()

    def insert(axis, v, _orig=_Axis.insert):
        moved = _orig(axis, v)
        outcomes["double" if moved is None else
                 "relabel" if moved else "free"] += 1
        return moved

    monkeypatch.setattr(_Axis, "insert", insert)
    rng = random.Random(f"walks.{mode}.{sides}")
    dim = len(sides)

    def point(crowd):
        return tuple(20 + Fraction(rng.randint(1, 255), 256) if crowd
                     else rng.randint(0, 40) for _ in range(dim))

    count = mode == "count"
    if count:
        tree = PointMultiset(dim, [point(False) for _ in range(6)],
                             sides=sides)
        live = Counter(tree.occ)
    else:
        entries = [(point(False), rng.randint(0, 3)) for _ in range(6)]
        tree = RangeTree(dim, entries, mode=mode, sides=sides)
        scan = ScanTree(entries)
    rebuilds = remaps = hits = 0
    for _ in range(200 if dim < 4 else 80):
        r = rng.random()
        if r < 0.15:
            new = [point(rng.random() < 0.6) for _ in range(rng.randint(1, 2))]
            if count:
                for p in new:
                    tree.add(p)
                    live[p] += 1
            else:
                new = [(p, rng.randint(0, 3)) for p in new]
                tree.extend(new)
                scan.entries += new
                scan.active += [False] * len(new)
        elif r < 0.2:
            # order-preserving relabel of every axis, its slots kept
            maps = [{v: 3 * v + 1 for v in axis.values} for axis in tree._axes]
            if count:
                tree.remap(maps)
                live = Counter({tuple(m[x] for m, x in zip(maps, p)): c
                                for p, c in live.items()})
            else:
                for ax, m in enumerate(maps):
                    tree.replace_axis_values(ax, m)
                scan.entries = [(tuple(m[x] for m, x in zip(maps, c)), v)
                                for c, v in scan.entries]
            remaps += 1
        elif r < 0.5:
            if count and live:
                p = rng.choice(sorted(live))
                live[p] -= 1
                live += Counter()
                rebuilds += tree.remove(p)
            elif not count:
                key = rng.randrange(len(scan.entries))
                flag = rng.random() < 0.7
                tree.toggle(key, flag)
                scan.toggle(key, flag)
        else:
            box = sided_box(rng, sides, [a.values or [0] for a in tree._axes])
            hits += sum(_value_range(axis.values, iv.lo, iv.lo_closed,
                                     iv.hi, iv.hi_closed) in walks
                        for axis, iv, walks in zip(tree._axes, box.intervals,
                                                   tree._walks))
            ids = tree._query_ids(box)
            assert ids == uncached_query_ids(tree, box)
            ref = product_query_ids(tree, box)
            assert (ids is None) == (ref is None)
            assert ref is None or sorted(ids) == sorted(ref[0])
            before = tree.counter.count
            if count:
                assert tree.count(box) == sum(
                    m for q, m in live.items() if box.contains(q))
            else:
                assert tree.max_entry(box) == scan.max_entry(box)
            assert tree.counter.count - before == (
                0 if ref is None else math.prod(map(len, ref[1])))
        for axis, walks in zip(tree._axes, tree._walks):
            assert len(walks) <= 2 * len(axis.values) + 16
    assert outcomes["free"] and outcomes["relabel"] and outcomes["double"]
    assert remaps and hits and (rebuilds or not count)


def test_rt_walk_cache_clears_at_its_bound():
    # 12 values have 78 value ranges: the cache fills to 2 * 12 + 16 = 40
    # walks, then starts again, and every count stays right
    tree = RangeTree(1, [((x,), 1) for x in range(12)])
    for key in range(0, 12, 3):
        tree.toggle(key, True)
    sizes = []
    for lo, hi in itertools.combinations_with_replacement(range(12), 2):
        assert tree.count(Box.closed((lo,), (hi,))) == len(
            range(lo + -lo % 3, hi + 1, 3))
        sizes.append(len(tree._walks[0]))
    assert max(sizes) == 40 and sizes[-1] < 40


def test_rt_walk_cache_debug_check_catches_a_stale_walk(monkeypatch):
    # with DYNDS_DEBUG_ASSERT on, a cached walk that is not the fresh walk
    # of its value range fails the check that _query_ids runs on a hit
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    tree = RangeTree(1, [((x,), 1) for x in range(8)])
    box = Box.closed((2,), (5,))
    assert tree.count(box) == 0
    assert tree.count(box) == 0     # a hit, checked
    (walk,) = tree._walks[0].values()
    walk.append(walk[0])
    with pytest.raises(RuntimeError, match="cached axis walk"):
        tree.count(box)


def test_rt_box_on_a_missing_side_raises():
    tree = RangeTree(2, [((1, 1), 0)], sides=("le", "ge"))
    tree.toggle(0, True)
    assert tree.count(Box([Interval.at_most(2), Interval.at_least(0)])) == 1
    assert tree.count(Box([Interval.all(), Interval.all()])) == 1
    for box in (Box([Interval.closed(0, 2), Interval.all()]),
                Box([Interval.at_least(0), Interval.at_least(0)]),
                Box([Interval.at_most(2), Interval.closed(0, 2)])):
        with pytest.raises(ValueError, match="does not keep"):
            tree.count(box)
    for sides in (("le",), ("le", "lt")):
        with pytest.raises(ValueError, match="sides must be 2 of"):
            RangeTree(2, sides=sides)
        with pytest.raises(ValueError, match="sides must be 2 of"):
            PointMultiset(2, sides=sides)


def test_point_multiset_with_sides_rebuilds_and_keeps_them():
    # the dead-entry churn of the test above on a tree with sides: a
    # rebuilt tree keeps them, and counts every box of those sides right
    rng = random.Random(17)
    sides = ("ge", "le", "both")
    pm = PointMultiset(3, sides=sides)
    live = Counter()
    rebuilds = 0
    for op in range(500):
        if live and rng.random() < 0.5:
            p = rng.choice(sorted(live))
            live[p] -= 1
            if not live[p]:
                del live[p]
            rebuilds += pm.remove(p)
        else:
            p = tuple(rng.randint(0, 3) if rng.random() < 0.3
                      else rng.randint(0, 10 ** 6) for _ in range(3))
            pm.add(p)
            live[p] += 1
        assert pm.sides == sides and pm.occ == live
        if op % 10 == 0:
            assert_cells_exact(pm)
        box = sided_box(rng, sides, [a.values or [0] for a in pm._axes])
        assert pm.count(box) == sum(m for q, m in live.items()
                                    if box.contains(q))
    assert rebuilds >= 3


def placed_state(tree):
    """What a placement leaves behind: the cached lists, the cells and the
    active flags."""
    return tree._cells_of, tree._count_cells, tree._max_cells, tree._active


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("mode", ["count", "max"])
@pytest.mark.parametrize("room", [1, 2])
def test_batch_placement_matches_one_toggle_per_key(dim, mode, room,
                                                   monkeypatch):
    # RangeTree._place against one toggle per key, over batches of one,
    # two and more keys (all placed by _cell_lists), every side, and
    # points with several copies; then
    # the same trees double an axis, and _relayout places the active keys
    # again: every cached list is its product enumeration, every cell holds
    # exactly its entries, and the visits are those of one toggle per key
    relayouts = []

    def counted(tree, _orig=RangeTree._relayout):
        before = tree.counter.count
        _orig(tree)
        relayouts.append(tree.counter.count - before == sum(
            len(product_cells(tree, k)) for k in tree.active_keys()))
    monkeypatch.setattr(RangeTree, "_relayout", counted)
    rng = random.Random(f"place.{dim}.{mode}.{room}")
    for n in (1, 2, 3, 5, 12, 40):
        sides = tuple(rng.choice(["both", "le", "ge"]) for _ in range(dim))
        pool = [tuple(rng.randint(0, 9) for _ in range(dim))
                for _ in range(max(1, n // 2))]
        entries = [(rng.choice(pool), rng.randint(0, 3)) for _ in range(n)]
        batch, ref = (RangeTree(dim, entries, mode=mode, room=room,
                                sides=sides) for _ in range(2))
        keys = sorted(rng.sample(range(n), rng.randint(1, n)))
        for key in keys:
            batch._active[key] = True
        batch._place(keys)
        for key in keys:
            ref.toggle(key, True)
        assert placed_state(batch) == placed_state(ref)
        assert batch.counter.count == ref.counter.count
        for key in keys:
            assert batch._cells_of[key] == product_cells(batch, key)
        assert_cells_exact(batch)
        if not dim:
            continue
        leaves, done = batch._axes[0].leaves, len(relayouts)
        for tree in (batch, ref):
            # more new values past the axis end than it has leaves: it
            # doubles
            tree.extend([((10 + i,) * dim, 1) for i in range(leaves)])
        assert batch._axes[0].leaves > leaves and len(relayouts) > done
        assert placed_state(batch) == placed_state(ref)
        for key in keys:
            assert batch._cells_of[key] == product_cells(batch, key)
        assert_cells_exact(batch)
    assert dim == 0 or all(relayouts)


@pytest.mark.parametrize("sides", [("both",), ("le", "ge"),
                                   ("ge", "both", "le")], ids="-".join)
@pytest.mark.parametrize("room", [1, 2])
def test_point_multiset_build_matches_adds(sides, room):
    # a build over points with several copies places what one add per
    # point places on a tree of the same layout: keys, copies, cached
    # lists, cells and visits
    rng = random.Random(f"pm-build.{sides}.{room}")
    dim = len(sides)
    pool = [tuple(rng.randint(0, 20) for _ in range(dim)) for _ in range(9)]
    for n in (0, 1, 2, 3, 4, 30):
        points = [rng.choice(pool) for _ in range(n)]
        built = PointMultiset(dim, points, room=room, sides=sides)
        ref = PointMultiset(dim, points, room=room, sides=sides)
        # the same declared entries, all inactive, then one add (one
        # toggle of copy j's key) per point
        ref._active = [False] * n
        ref._cells_of = [None] * n
        ref._count_cells = {}
        ref.occ, ref.n_live = Counter(), 0
        if dim == 1:
            ref._off = sorted(p[0] for p in points)
        visits = ref.counter.count
        for p in points:
            ref.add(p)
        assert built.counter.count == ref.counter.count - visits
        assert (built.occ, built.keys, built.n_live, built._off) == (
            ref.occ, ref.keys, ref.n_live, ref._off)
        assert placed_state(built) == placed_state(ref)
        for key in range(n):
            assert built._cells_of[key] == product_cells(built, key)
        assert_cells_exact(built)


def test_point_multiset_debug_checks_raise(monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)

    def tree():
        pm = PointMultiset(2, [(1, 1), (1, 1), (2, 3)])
        pm.add((4, 4))
        assert pm.remove((1, 1)) is False
        return pm

    pm = tree()
    pm.n_live += 1
    with pytest.raises(RuntimeError, match="n_live is the sum"):
        pm.add((5, 5))
    pm = tree()
    pm.extend([((9, i), 1) for i in range(20)])
    with pytest.raises(RuntimeError, match=r"declared entries <= 2 n_live"):
        pm.add((5, 5))
    pm = tree()
    pm.toggle(pm.keys[(2, 3), 1], False)
    with pytest.raises(RuntimeError, match="the active keys are the live"):
        pm.add((5, 5))
    pm = PointMultiset(1, [(1,), (2,), (3,)])
    pm.remove((2,))
    pm._off.clear()     # a remove that dropped its insort
    with pytest.raises(RuntimeError, match="_off is the sorted values of "
                                           "the inactive entries"):
        pm.add((5,))
    monkeypatch.setattr(RangeTree, "_cell_lists",
                        lambda self, keys: [[0] for _ in keys])
    with pytest.raises(RuntimeError, match="a placed key's cells are"):
        PointMultiset(1, [(1,), (2,), (3,)])


def test_point_multiset_off_check_holds_under_optimize():
    # a dead value missing from _off would count as live in the
    # rank-answered heavy scan (_best_count_1d)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.core_geom import PointMultiset\n"
            "pm = PointMultiset(1, [(1,), (2,), (3,)])\n"
            "pm.remove((2,))\n"
            "pm._off.clear()\n"
            "try:\n"
            "    pm.add((5,))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "DYNDS_DEBUG_ASSERT": "1"})
    assert out.stdout == ("invariant broken: _off is the sorted values of "
                          "the inactive entries\n")


def _random_box2(rng):
    x = sorted(rng.randint(0, 6) for _ in range(2))
    y = sorted(rng.randint(0, 6) for _ in range(2))
    return Box.closed((x[0], y[0]), (x[1], y[1]))


def test_point_multiset_copies_reuse_entries():
    pm = PointMultiset(2, [(1, 1), (1, 1), (2, 3)])
    assert len(pm) == 3 and pm.occ == {(1, 1): 2, (2, 3): 1}
    everything = Box.closed((0, 0), (9, 9))
    pm.remove((1, 1))
    assert pm.count(everything) == 2 and pm.occ[(1, 1)] == 1
    pm.add((1, 1))
    assert len(pm) == 3 and pm.count(everything) == 3
    pm.remove((2, 3))
    assert (2, 3) not in pm.occ
    pm.add((2, 3))
    pm.add((2, 3))
    assert len(pm) == 4 and pm.keys[((2, 3), 2)] == 3
    with pytest.raises(KeyError):
        pm.remove((5, 5))
    assert pm.count(everything) == 4


def test_point_multiset_built_equals_added():
    rng = random.Random(14)
    pts = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    assert len(set(pts)) < len(pts)
    built, added = PointMultiset(2, pts), PointMultiset(2)
    for p in pts:
        added.add(p)
    assert built.occ == added.occ and built.keys == added.keys
    for _ in range(60):
        box = _random_box2(rng)
        want = sum(box.contains(p) for p in pts)
        assert built.count(box) == added.count(box) == want


def test_point_multiset_remap_keeps_occ_and_counts():
    rng = random.Random(15)
    pm = PointMultiset(2)
    live = []
    for _ in range(50):
        if live and rng.random() < 0.3:
            p = live.pop(rng.randrange(len(live)))
            pm.remove(p)
        else:
            p = (rng.randint(1, 5), rng.randint(1, 5))
            pm.add(p)
            live.append(p)
    boxes = [_random_box2(rng) for _ in range(40)]
    before = [pm.count(b) for b in boxes]
    occ = dict(pm.occ)
    mappings = [{v: 10 * v for v in range(1, 6)},
                {v: 100 + v for v in range(1, 6)}]

    def moved(p):
        return (10 * p[0], 100 + p[1])

    pm.remap(mappings)
    assert pm.occ == {moved(p): m for p, m in occ.items()}
    for box, want in zip(boxes, before):
        lo = tuple(iv.lo for iv in box.intervals)
        hi = tuple(iv.hi for iv in box.intervals)
        assert pm.count(Box.closed(moved(lo), moved(hi))) == want
    # the relabelled points stay removable and re-addable
    for p in live:
        pm.remove(moved(p))
    assert not pm.occ and pm.count(Box.closed((0, 0), (99, 999))) == 0
    pm.add(moved(live[0]))
    assert pm.count(Box.closed((0, 0), (99, 999))) == 1
    with pytest.raises(ValueError, match="one mapping per axis"):
        pm.remap(mappings[:1])


def test_point_multiset_rebuilds_past_its_dead_entry_bound():
    # churn of fresh and repeated points against a Counter: after every op
    # the tree declares at most 2 * n_live + 16 entries and counts right,
    # and a rebuild costs its toggle plus what a fresh build over the live
    # points costs
    rng = random.Random(16)
    vc = VisitCounter()
    pm = PointMultiset(2, counter=vc)
    live = Counter()
    rebuilds = 0
    for _ in range(1500):
        if live and rng.random() < 0.5:
            p = rng.choice(sorted(live))
            live[p] -= 1
            if not live[p]:
                del live[p]
            toggle = len(pm._cells(pm.keys[(p, pm.occ[p])]))
            before = vc.count
            if pm.remove(p):
                rebuilds += 1
                fresh = VisitCounter()
                PointMultiset(2, live.elements(), counter=fresh)
                assert vc.count - before == toggle + fresh.count
                assert len(pm) == sum(live.values())
        else:
            p = ((rng.randint(0, 3), rng.randint(0, 3)) if rng.random() < 0.3
                 else (rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)))
            pm.add(p)
            live[p] += 1
        assert pm.occ == live and pm.n_live == sum(live.values())
        assert len(pm) <= 2 * pm.n_live + 16
        lo = [rng.randint(0, 10 ** 6) for _ in range(2)]
        box = Box.closed(lo, [c + rng.randint(0, 5 * 10 ** 5) for c in lo])
        assert pm.count(box) == sum(m for q, m in live.items()
                                    if box.contains(q))
    assert rebuilds >= 5


# inputs that a 2-D labelled-point structure rejects as ValueError
BAD_POINT_INPUTS = {
    "insert-3d": lambda s: s.update((1, 2, 3), "a", True),
    "insert-1d": lambda s: s.update((1,), "a", True),
    "delete-3d": lambda s: s.update((1, 1, 1), "a", False),
    "query-1d": lambda s: s.query(Box.closed((0,), (9,))),
    "query-3d": lambda s: s.query(Box.closed((0, 0, 0), (9, 9, 9))),
}


POINT_PAIRS = {
    "range-mode": lambda: (PointScan(mode_oracle, 2, 3), DynRangeModeDS(2, 3)),
    "color-count": lambda: (PointScan(dcc_oracle, 2, 3), DynColorCountDS(3)),
}


@pytest.mark.parametrize("bad", sorted(BAD_POINT_INPUTS))
@pytest.mark.parametrize("pair", sorted(POINT_PAIRS))
def test_point_scan_rejects_what_its_structure_rejects(pair, bad):
    # tried on an empty structure, on one holding a point, and on a full one
    for held in (0, 1, 3):
        texts = []
        for ds in POINT_PAIRS[pair]():
            for i in range(held):
                ds.update((i, i), "a", True)
            with pytest.raises(ValueError) as exc:
                BAD_POINT_INPUTS[bad](ds)
            texts.append(str(exc.value))
        assert texts[0] == texts[1], (held, texts)


def test_point_scan_orders_labels_as_its_structure_does():
    # a label that cannot be ordered with a live one: the range-mode pair
    # refuses it with one text and stays as it was, on a one-point and on a
    # full structure; the color-count pair takes any hashable color
    everything = Box.closed((0, 0), (9, 9))
    for held in (1, 3):
        texts = []
        for ds in POINT_PAIRS["range-mode"]():
            for i in range(held):
                ds.update((i, i), "a", True)
            with pytest.raises(TypeError) as exc:
                ds.update((5, 5), 1, True)
            texts.append(str(exc.value))
            assert ds.query(everything) == ("a", held)
        assert texts == ["label 1 cannot be ordered with label 'a'"] * 2
    for ds in POINT_PAIRS["color-count"]():
        ds.update((0, 0), "a", True)
        ds.update((1, 1), 1, True)
        assert ds.query(everything) == 2


def test_rt_scaled_int_coords():
    # non-integer exact coordinates, as Fractions of several denominators
    ents = [((Fraction(1, 2),), 1), ((Fraction(5, 4),), 2), ((1,), 3)]
    tree = RangeTree(1, ents)
    for key in range(3):
        tree.toggle(key, True)
    assert tree.count(Box([Interval.closed(0, Fraction(3, 4))])) == 1
    assert tree.count(Box([Interval.closed(Fraction(2, 4), 1)])) == 2
    assert tree.count(Box([Interval(Fraction(1, 2), Fraction(5, 4),
                                    lo_closed=False)])) == 2
    # values compare across denominators: 1/2 is not 1/3 but is 2/4
    third = Box([Interval.closed(Fraction(1, 3), Fraction(1, 3))])
    assert PointMultiset(1, [(Fraction(1, 2),), (Fraction(1, 3),)]).count(
        third) == 1
    pm = PointMultiset(1, [(Fraction(1, 2),), (Fraction(2, 4),)])
    assert pm.count(Box([Interval.closed(Fraction(1, 2), 1)])) == 2
    assert pm.occ[(Fraction(1, 2),)] == 2


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
            assert not boxes_intersect(boxes[i], boxes[j]), (corners, i, j)
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


def test_orthant_decompose_box_bound_is_a_contract_error(monkeypatch):
    # every strip is emitted once per staircase insertion or removal, so no
    # input breaks the bound; a Box stand-in adds five more copies of each
    # strip to the list the sweep is building
    def box_six_times(intervals):
        boxes = sys._getframe(1).f_locals["boxes"]
        boxes.extend(Box(intervals) for _ in range(5))
        return Box(intervals)

    monkeypatch.setattr("dynds.core_geom.Box", box_six_times)
    with pytest.raises(RuntimeError, match="exceed the bound"):
        orthant_union_decompose([(2, 3, 4)])


def test_orthant_decompose_empty():
    assert orthant_union_decompose([]) == []


def test_orthant_decompose_duplicates_and_ties():
    rng = random.Random(5)
    check_decomposition([(1, 1, 1), (1, 1, 1)], rng)
    check_decomposition([(0, 5, 2), (5, 0, 2), (3, 3, 2)], rng)
    check_decomposition([(1, 2, 3), (2, 1, 3), (1, 2, 4)], rng)
    # duplicate-heavy: few distinct corners, each repeated; the copies
    # change no box
    for _ in range(20):
        pts = [tuple(rng.randint(0, 2) for _ in range(3))
               for _ in range(rng.randint(1, 6))]
        many = [rng.choice(pts) for _ in range(25)] + pts
        check_decomposition(many, rng)
        assert orthant_union_decompose(many) == orthant_union_decompose(
            list(dict.fromkeys(many)))


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
