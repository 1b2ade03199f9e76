import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from dynds.core_geom import Box, Interval, VisitCounter, _best_count_1d
from dynds.range_mode import (
    DynRangeModeDS,
    SequenceAdapter,
    SequenceScan,
    _TieRank,
    _tight_boxes,
    mode_oracle,
    sequence_minority_oracle,
    sequence_mode_oracle,
)


def check_mode_answer(points, box, got):
    """got must agree with the scan oracle on frequency, and its label must
    really attain that frequency (tie-breaks may differ)."""
    want = mode_oracle(points, box)
    if want is None:
        assert got is None
        return
    assert got is not None
    label, freq = got
    assert freq == want[1]
    true_freq = sum(1 for c, lab in points if lab == label and box.contains(c))
    assert true_freq == freq


# ---------------- oracles ----------------

def batch_dmode_oracle(points, boxes):
    return [mode_oracle(points, b) for b in boxes]


def test_sequence_oracles():
    vals = [1, 1, 2, 3, 2, 1]
    assert sequence_mode_oracle(vals, 1, 6) == (1, 3)
    assert sequence_mode_oracle(vals, 3, 5) == (2, 2)
    assert sequence_mode_oracle(vals, 2, 4) == (1, 1)  # tie -> smallest value
    assert sequence_minority_oracle(vals, 1, 6) == (3, 1)
    assert sequence_minority_oracle(vals, 1, 2) == (1, 2)
    with pytest.raises(ValueError):
        sequence_mode_oracle(vals, 0, 3)
    with pytest.raises(ValueError):
        sequence_mode_oracle(vals, 4, 3)


def test_mode_oracle_multiset_and_empty():
    pts = [((1, 1), "a"), ((1, 1), "a"), ((2, 2), "b")]
    assert mode_oracle(pts, Box.closed((0, 0), (3, 3))) == ("a", 2)
    assert mode_oracle(pts, Box.closed((5, 5), (6, 6))) is None
    assert batch_dmode_oracle(pts, [Box.closed((2, 2), (2, 2))]) == [("b", 1)]


# ---------------- parameter derivation ----------------

def test_default_threshold_values():
    assert DynRangeModeDS(1, 27).B == 3
    assert DynRangeModeDS(1, 2187).B == 13  # round(2187 ** (1/3))
    assert DynRangeModeDS(2, 3125).B == 5   # round(3125 ** (1/5))
    assert DynRangeModeDS(1, 1).B == 1


def test_threshold_override():
    assert DynRangeModeDS(1, 1000, B_override=4).B == 4
    with pytest.raises(ValueError):
        DynRangeModeDS(1, 1000, B_override=0)
    with pytest.raises(ValueError):
        DynRangeModeDS(1, 1000, B_override=-2)


def test_capacity_and_absent_delete_errors():
    ds = DynRangeModeDS(1, 2)
    ds.update((1,), 7, True)
    ds.update((2,), 7, True)
    with pytest.raises(ValueError):
        ds.update((3,), 7, True)
    with pytest.raises(ValueError):
        ds.update((9,), 7, False)
    ds.update((1,), 7, False)
    with pytest.raises(ValueError):
        ds.update((1,), 8, False)  # wrong label
    # a batch past capacity is refused whole
    with pytest.raises(ValueError):
        ds.bulk_insert([((3,), 7), ((4,), 7)])
    assert ds.n_live == 1
    assert ds.query(Box.closed((0,), (9,))) == (7, 1)


def test_small_hand_example():
    ds = DynRangeModeDS(1, 10, B_override=2)
    for x, lab in [(1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "a")]:
        ds.update((x,), lab, True)
    # "a" has 3 occurrences > B=2, so it is heavy
    assert "a" in ds.heavy
    assert ds.query(Box.closed((1,), (5,))) == ("a", 3)
    assert ds.query(Box.closed((2,), (4,)))[1] == 1
    ds.update((3,), "a", False)
    assert "a" not in ds.heavy
    assert ds.query(Box.closed((1,), (5,))) == ("a", 2)
    assert ds.query(Box.closed((6,), (7,))) is None


def random_trace_check(d, seed, ops, n_cap, coord_hi, labels, B_override=None):
    rng = random.Random(seed)
    ds = DynRangeModeDS(d, n_cap, B_override=B_override)
    live = []
    for _ in range(ops):
        r = rng.random()
        if r < 0.45 and len(live) < n_cap:
            coords = tuple(rng.randint(1, coord_hi) for _ in range(d))
            lab = rng.randint(0, labels - 1)
            ds.update(coords, lab, True)
            live.append((coords, lab))
        elif r < 0.6 and live:
            coords, lab = live.pop(rng.randrange(len(live)))
            ds.update(coords, lab, False)
        else:
            lows = tuple(rng.randint(1, coord_hi) for _ in range(d))
            highs = tuple(lo + rng.randint(0, coord_hi) for lo in lows)
            box = Box.closed(lows, highs)
            check_mode_answer(live, box, ds.query(box))


@pytest.mark.parametrize("d", [1, 2])
def test_random_traces_match_oracle(d, monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    for seed in range(12):
        random_trace_check(d, 400 + seed, ops=120 if d == 1 else 70,
                           n_cap=60, coord_hi=12 if d == 1 else 8,
                           labels=6, B_override=2 if seed % 2 else None)


def test_threshold_oscillation():
    ds = DynRangeModeDS(1, 30, B_override=2)
    live = []
    for i in range(3):
        ds.update((i + 1,), "x", True)
        live.append(((i + 1,), "x"))
    assert "x" in ds.heavy
    for _ in range(4):
        ds.update((3,), "x", False)
        live.pop()
        assert "x" not in ds.heavy
        box = Box.closed((1,), (9,))
        check_mode_answer(live, box, ds.query(box))
        ds.update((3,), "x", True)
        live.append(((3,), "x"))
        assert "x" in ds.heavy


def test_heavy_label_churn_keeps_label_trees_compact():
    # each round moves one point of a heavy label to a fresh point, so a
    # label tree that kept every dead entry would declare one more a round
    rng = random.Random(22)
    ds = DynRangeModeDS(2, 30)                 # B = 2: every label is heavy

    def fresh():
        return rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)

    live = [(fresh(), label) for label in range(3) for _ in range(10)]
    for p, label in live:
        ds.update(p, label, True)
    assert ds.heavy == {0, 1, 2}

    def compact():
        return all(len(tree) <= 2 * sum(tree.occ.values()) + 16
                   for tree in ds._label_trees.values())

    for _ in range(1000):
        i = rng.randrange(len(live))
        p, label = live[i]
        ds.update(p, label, False)
        assert compact()
        live[i] = (fresh(), label)
        ds.update(live[i][0], label, True)
        assert compact()
        lo = fresh()
        box = Box.closed(lo, [c + rng.randint(0, 5 * 10 ** 5) for c in lo])
        assert ds.query(box) == mode_oracle(live, box)


def test_duplicate_points_same_label():
    ds = DynRangeModeDS(1, 10, B_override=3)
    for _ in range(3):
        ds.update((5,), "z", True)
    assert ds.query(Box.closed((5,), (5,))) == ("z", 3)
    ds.update((5,), "z", False)
    assert ds.query(Box.closed((5,), (5,))) == ("z", 2)


@pytest.mark.parametrize("b", [None, 1])
def test_fraction_coords_compare_across_denominators(b):
    # light (default threshold) and heavy (B=1) labels alike
    ds = DynRangeModeDS(1, 10, B_override=b)
    pts = [((Fraction(1, 2),), 7), ((Fraction(1, 3),), 7),
           ((Fraction(2, 4),), 7)]
    for coords, label in pts:
        ds.update(coords, label, True)
    third = Box.closed((Fraction(1, 3),), (Fraction(1, 3),))
    half = Box.closed((Fraction(1, 2),), (Fraction(1, 2),))
    assert ds.query(third) == mode_oracle(pts, third) == (7, 1)
    assert ds.query(half) == mode_oracle(pts, half) == (7, 2)
    ds.update((Fraction(1, 2),), 7, False)
    assert ds.query(half) == (7, 1)


def _active_boxes(ds):
    """Active max-tree entries as (label, boxcoords, count) keys."""
    name = {k: tpk for tpk, k in ds._tp_keys.items()}
    return {name[k] for k in ds._tp.active_keys()}


def test_light_refresh_toggles_only_changed_boxes(monkeypatch):
    ds = DynRangeModeDS(2, 10, B_override=3)
    ds.update((1, 1), "a", True)
    ds.update((3, 3), "a", True)
    calls = []
    toggle = ds._tp.toggle

    def counted(key, active):
        calls.append((key, active))
        toggle(key, active)

    monkeypatch.setattr(ds._tp, "toggle", counted)
    # move (3, 3) to (2, 4): the box around (1, 1) alone survives both steps
    for coords, insert in [((3, 3), False), ((2, 4), True)]:
        before = set(ds._tp.active_keys())
        calls.clear()
        ds.update(coords, "a", insert)
        after = set(ds._tp.active_keys())
        assert len(calls) == 2
        assert {k for k, _ in calls} == before ^ after
        assert all(active == (k in after) for k, active in calls)
    fresh = DynRangeModeDS(2, 10, B_override=3)
    fresh.bulk_insert([((1, 1), "a"), ((2, 4), "a")])
    assert _active_boxes(ds) == _active_boxes(fresh)


def _box_cut_bounding_boxes(occ, d):
    """(boxcoords, count) of the bounding box of every nonempty subset of
    occ's points that a box cuts out, by brute force over every box whose
    bounds are the points' coordinate values."""
    vals = [sorted({c[i] for c in occ}) for i in range(d)]
    out = set()
    for bounds in product(*(combinations_with_replacement(v, 2)
                            for v in vals)):
        inside = [(c, m) for c, m in occ.items()
                  if all(lo <= x <= hi for x, (lo, hi) in zip(c, bounds))]
        if inside:
            cols = list(zip(*(c for c, _ in inside)))
            out.add((tuple(map(min, cols)) + tuple(map(max, cols)),
                     sum(m for _, m in inside)))
    return out


def _points_by_label(live):
    """label -> Counter of its points, over (coords, label) pairs."""
    points = {}
    for coords, lab in live:
        points.setdefault(lab, Counter())[coords] += 1
    return points


def _light_churn(d, rng, ds, steps, coord_hi, labels):
    """Random inserts and deletes on ds; yields the live points after each."""
    live = []
    for _ in range(steps):
        if live and rng.random() < 0.4:
            coords, lab = live.pop(rng.randrange(len(live)))
            ds.update(coords, lab, False)
        else:
            coords = tuple(rng.randint(1, coord_hi) for _ in range(d))
            lab = rng.randrange(labels)
            ds.update(coords, lab, True)
            live.append((coords, lab))
        yield live


@pytest.mark.parametrize("d", [2, 3])
def test_light_boxes_are_bounding_boxes_of_box_cut_subsets(d, monkeypatch):
    # coordinates in 1..3, so points repeat and share coordinates; B = 5
    # keeps most labels light and lets some turn heavy
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    for seed in range(6):
        rng = random.Random(f"tight.{d}.{seed}")
        ds = DynRangeModeDS(d, 100, B_override=5)
        for live in _light_churn(d, rng, ds, 100, 3, 6):
            active = _active_boxes(ds)
            points = _points_by_label(live)
            assert ds.heavy == {lab for lab, occ in points.items()
                                if sum(occ.values()) > 5}
            for lab in points.keys() | {l for l, _, _ in active}:
                want = set() if lab in ds.heavy else \
                    _box_cut_bounding_boxes(points.get(lab, {}), d)
                assert {(bc, cnt) for l, bc, cnt in active if l == lab} \
                    == want
            lows = tuple(rng.randint(0, 3) for _ in range(d))
            box = Box.closed(lows, [lo + rng.randint(0, 3) for lo in lows])
            assert ds.query(box) == mode_oracle(live, box)


def test_light_boxes_in_1d_are_every_nonempty_interval():
    rng = random.Random("tight.1")
    ds = DynRangeModeDS(1, 150, B_override=6)
    for live in _light_churn(1, rng, ds, 150, 5, 4):
        active = _active_boxes(ds)
        points = _points_by_label(live)
        assert ds.heavy == {lab for lab, occ in points.items()
                            if sum(occ.values()) > 6}
        for lab in points.keys() | {l for l, _, _ in active}:
            occ = points.get(lab, {})
            vals = sorted({c for (c,) in occ})
            want = set() if lab in ds.heavy else {
                ((lo, hi), sum(m for (c,), m in occ.items()
                               if lo <= c <= hi))
                for lo, hi in combinations_with_replacement(vals, 2)}
            assert {(bc, cnt) for l, bc, cnt in active if l == lab} == want
        lo, hi = sorted((rng.randint(0, 5), rng.randint(0, 5)))
        box = Box.closed((lo,), (hi,))
        assert ds.query(box) == mode_oracle(live, box)


def _tight_boxes_by_sorted_cuts(occ, d):
    """Reference for _tight_boxes, list and order: the cut-by-cut
    enumeration that sorts the points still inside on each axis and scans
    them for each earlier bound."""
    out = []

    def cut(ax, inside, los, his):
        vals = sorted({c[ax] for c, _ in inside})
        for a, lo in enumerate(vals):
            for hi in vals[a:]:
                sub = [(c, m) for c, m in inside if lo <= c[ax] <= hi]
                if not all(any(c[j] == v for c, _ in sub)
                           for j, v in [*enumerate(los), *enumerate(his)]):
                    continue
                if ax == d - 1:
                    out.append((los + (lo,) + his + (hi,),
                                sum(m for _, m in sub)))
                else:
                    cut(ax + 1, sub, los + (lo,), his + (hi,))

    cut(0, list(occ.items()), (), ())
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tight_boxes_match_sorted_cut_enumeration(d):
    # ints and Fractions on one axis, few values, so points repeat and
    # share coordinates
    rng = random.Random(f"tight.order.{d}")
    pool = [0, Fraction(1, 2), 1, Fraction(4, 3), 2]
    for _ in range(400):
        vals = pool[:rng.randint(1, len(pool))]
        occ = Counter(tuple(rng.choice(vals) for _ in range(d))
                      for _ in range(rng.randint(1, 8)))
        assert _tight_boxes(occ, d) == _tight_boxes_by_sorted_cuts(occ, d)


@pytest.mark.parametrize("d", [1, 2])
def test_labels_cross_B_both_ways_by_update_and_bulk_insert(d, monkeypatch):
    # B = 2 over three labels on coordinates 1..2, so points repeat: labels
    # turn heavy by an insert, by a batch when new and by a batch when
    # light, and turn light by a delete, again and again; debug checks on
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(f"cross.B.{d}")
    ds = DynRangeModeDS(d, 400, B_override=2)
    live = []
    seen = set()

    def point():
        return tuple(rng.randint(1, 2) for _ in range(d)), rng.randrange(3)

    for _ in range(400):
        before = set(ds.heavy)
        r = rng.random()
        if live and (r < 0.4 or len(live) > 10):
            coords, lab = live.pop(rng.randrange(len(live)))
            ds.update(coords, lab, False)
            how = "update"
        elif r < 0.75:
            p = point()
            ds.update(*p, True)
            live.append(p)
            how = "update"
        else:
            batch = [point() for _ in range(rng.randint(1, 5))]
            was_live = {lab for _, lab in live}
            ds.bulk_insert(batch)
            live.extend(batch)
            how = "bulk"
        for lab in set(ds.heavy) - before:
            seen.add(("heavy", how, how == "bulk" and lab not in was_live))
        for lab in before - set(ds.heavy):
            seen.add(("light", how, False))
        lows = [rng.randint(0, 2) for _ in range(d)]
        for box in (Box.closed(lows, [lo + rng.randint(0, 2) for lo in lows]),
                    Box.closed((0,) * d, (3,) * d)):
            assert ds.query(box) == mode_oracle(live, box)
    assert seen == {("heavy", "update", False), ("heavy", "bulk", False),
                    ("heavy", "bulk", True), ("light", "update", False)}


def test_mixed_labels_rejected_like_oracle():
    ds = DynRangeModeDS(2, 10)
    live = [((1, 1), 1)]
    ds.update((1, 1), 1, True)
    box = Box.closed((0, 0), (3, 3))
    with pytest.raises(TypeError):
        mode_oracle(live + [((2, 2), "a")], box)
    with pytest.raises(TypeError):
        ds.update((2, 2), "a", True)
    with pytest.raises(TypeError):
        ds.bulk_insert([((2, 2), 2), ((3, 3), "a")])
    assert ds.n_live == 1
    assert ds.query(box) == mode_oracle(live, box) == (1, 1)
    empty = DynRangeModeDS(1, 5)
    with pytest.raises(TypeError):
        empty.bulk_insert([((1,), 1), ((2,), "a")])
    assert empty.n_live == 0 and empty.query(Box.closed((0,), (3,))) is None
    # once no int label is live, str labels are accepted
    ds.update((1, 1), 1, False)
    ds.update((2, 2), "a", True)
    assert ds.query(box) == mode_oracle([((2, 2), "a")], box) == ("a", 1)


def test_mixed_type_labels_tie_like_oracle():
    # int labels rank as -label, every other label as a _TieRank: counts tied
    # between an int and a Fraction, float or bool label must still go to the
    # smallest label, exactly as mode_oracle breaks them
    pool = [2, 3, -1, Fraction(5, 2), Fraction(-1, 3), 0.5, 3.0, 2.5,
            True, False]
    for seed in range(4):
        rng = random.Random(f"mixed.{seed}")
        ds = DynRangeModeDS(2, 40, B_override=2 if seed % 2 else 3)
        live = []
        for _ in range(150):
            if live and (len(live) == 40 or rng.random() < 0.4):
                coords, lab = live.pop(rng.randrange(len(live)))
                ds.update(coords, lab, False)
            else:
                coords = (rng.randint(1, 4), rng.randint(1, 4))
                lab = rng.choice(pool)
                ds.update(coords, lab, True)
                live.append((coords, lab))
            lows = (rng.randint(1, 4), rng.randint(1, 4))
            highs = tuple(lo + rng.randint(0, 3) for lo in lows)
            for box in (Box.closed(lows, highs), Box.closed((1, 1), (4, 4))):
                assert ds.query(box) == mode_oracle(live, box)


def test_equal_labels_of_different_types_answer_the_live_one():
    # 3 and 3.0 share the max-tree box entries that 3 declared; the answer
    # must still be the label object that is live, as mode_oracle gives it
    ds = DynRangeModeDS(1, 4)
    ds.update((1,), 3, True)
    ds.update((1,), 3, False)
    ds.update((1,), 3.0, True)
    box = Box.closed((0,), (2,))
    assert repr(ds.query(box)) == repr(mode_oracle([((1,), 3.0)], box)) \
        == "(3.0, 1)"


def test_int_labels_never_compare_tie_ranks(monkeypatch):
    def refuse(self, other):
        raise AssertionError("_TieRank compared during an int-label churn")

    for name in ("__eq__", "__lt__", "__gt__"):
        monkeypatch.setattr(_TieRank, name, refuse)
    for seed in range(4):
        random_trace_check(2, 700 + seed, ops=120, n_cap=60, coord_hi=6,
                           labels=8, B_override=2 if seed % 2 else None)


def test_counter_budget():
    c = 64
    for d, n_cap, coord_hi in [(1, 200, 40), (2, 120, 10)]:
        counter = VisitCounter()
        ds = DynRangeModeDS(d, n_cap, counter=counter)
        rng = random.Random(17 * d)
        n, B = n_cap, ds.B
        upd_budget = c * B ** (2 * d) * (math.log2(n) + 1) ** (2 * d + 1)
        qry_budget = c * (n / B + 1) * (math.log2(n) + 1) ** (d + 1)
        live = []
        for _ in range(150):
            if rng.random() < 0.6 and len(live) < n_cap:
                coords = tuple(rng.randint(1, coord_hi) for _ in range(d))
                lab = rng.randint(0, 7)
                before = counter.count
                ds.update(coords, lab, True)
                assert counter.count - before <= upd_budget
                live.append((coords, lab))
            elif live:
                coords, lab = live.pop(rng.randrange(len(live)))
                before = counter.count
                ds.update(coords, lab, False)
                assert counter.count - before <= upd_budget
        for _ in range(30):
            lows = tuple(rng.randint(1, coord_hi) for _ in range(d))
            highs = tuple(lo + rng.randint(0, coord_hi) for lo in lows)
            before = counter.count
            ds.query(Box.closed(lows, highs))
            assert counter.count - before <= qry_budget


# ---------------- sequence adapter ----------------

class ListSeq:
    def __init__(self):
        self.vals = []

    def insert(self, pos, v):
        self.vals.insert(pos - 1, v)

    def delete(self, pos):
        self.vals.pop(pos - 1)

    def query(self, l, r):
        return sequence_mode_oracle(self.vals, l, r)


def max_denominator_exp(seq):
    """Largest denominator exponent of a live key of `seq` read as the
    dyadic rational key / 2**KEY_SHIFT."""
    return max((max(0, seq.KEY_SHIFT - (k & -k).bit_length() + 1)
                for k in seq.keys), default=0)


def test_sequence_adapter_random_traces():
    for seed in range(10):
        rng = random.Random(900 + seed)
        seq = SequenceAdapter(80, B_override=2 if seed % 2 else None)
        ref = ListSeq()
        for _ in range(150):
            n = len(ref.vals)
            r = rng.random()
            if r < 0.45 and n < 80:
                pos = rng.randint(1, n + 1)
                v = rng.randint(0, 5)
                seq.insert(pos, v)
                ref.insert(pos, v)
            elif r < 0.6 and n > 0:
                pos = rng.randint(1, n)
                seq.delete(pos)
                ref.delete(pos)
            elif n > 0:
                l = rng.randint(1, n)
                rr = rng.randint(l, n)
                got = seq.query(l, rr)
                want = ref.query(l, rr)
                assert got[1] == want[1]
                true_freq = sum(1 for v in ref.vals[l - 1:rr] if v == got[0])
                assert true_freq == got[1]
            assert max_denominator_exp(seq) <= SequenceAdapter.REBUILD_EXP
            assert seq.values == ref.vals


def test_sequence_adapter_position_validation():
    seq = SequenceAdapter(10)
    with pytest.raises(ValueError):
        seq.insert(2, 1)
    seq.insert(1, 5)
    with pytest.raises(ValueError):
        seq.delete(2)
    with pytest.raises(ValueError):
        seq.query(1, 2)
    assert seq.query(1, 1) == (5, 1)


def test_sequence_adapter_rejected_insert_changes_nothing():
    seq, scan = SequenceAdapter(1), SequenceScan(1)
    for s in (seq, scan):
        s.insert(1, 3)
        with pytest.raises(ValueError, match="capacity 1 exceeded"):
            s.insert(2, 4)
        with pytest.raises(ValueError, match="bad range"):
            s.query(1, 2)
    assert (len(seq), seq.values, seq.query(1, 1)) == \
        (len(scan.values), scan.values, scan.query(1, 1)) == (1, [3], (3, 1))
    # a label that cannot be ordered with a live one is refused by both
    # classes, and leaves each unchanged
    seq, scan = SequenceAdapter(4), SequenceScan(4)
    for s in (seq, scan):
        s.insert(1, 3)
        with pytest.raises(TypeError, match="cannot be ordered"):
            s.insert(2, "a")
        assert (s.values, s.query(1, 1)) == ([3], (3, 1))
    assert seq.keys == [1 << seq.KEY_SHIFT]


def test_sequence_scan_names_the_label_the_adapter_names():
    # the adapter compares a new label with its first live label in
    # insertion order, not with the first value of the sequence
    texts = []
    for s in (SequenceAdapter(8), SequenceScan(8)):
        got = []
        s.insert(1, 3)
        s.insert(1, 2)
        for _ in range(2):
            with pytest.raises(TypeError) as err:
                s.insert(1, "a")
            got.append(str(err.value))
            s.delete(2)           # the first live label goes, then comes back
            s.insert(1, 3)
        texts.append(got)
    assert texts[0] == texts[1] == [
        "label 'a' cannot be ordered with label 3",
        "label 'a' cannot be ordered with label 2"]
    texts = []
    for build in (SequenceAdapter.from_values, SequenceScan.from_values):
        with pytest.raises(TypeError) as err:
            build([2, 1, "a"], n_cap=3)
        texts.append(str(err.value))
    assert texts[0] == texts[1] == "label 'a' cannot be ordered with label 2"


def test_sequence_adapter_bulk_build():
    seq = SequenceAdapter.from_values([3, 1, 3, 2, 3])
    assert seq.query(1, 5) == (3, 3)
    assert seq.query(2, 4)[1] == 1
    assert max_denominator_exp(seq) == 0


def test_from_values_setup_visits_pinned():
    # a seeded build's set-up visits, as counted when every label tree
    # placed its points one toggle at a time: a build that places them in
    # one pass counts the same cells
    n = 2187
    m = max(2, round(n ** (2 / 3) / 3))
    rng = random.Random("place.sequence.2187")
    counter = VisitCounter()
    SequenceAdapter.from_values([rng.randint(1, m) for _ in range(n)],
                                counter=counter)
    assert counter.count == 17160


def active_box_keys(ds):
    """The (label, box coords, count) keys of the max tree's active light
    boxes."""
    return {tk for tk, key in ds._tp_keys.items() if ds._tp.is_active(key)}


def _numbered(order):
    """The keys of a PointMultiset built over order and never shrunk:
    (point, copy) -> the position of that copy in order."""
    seen = Counter()
    keys = {}
    for key, p in enumerate(order):
        seen[p] += 1
        keys[p, seen[p]] = key
    return keys


@pytest.mark.parametrize("d", [1, 2])
def test_bulk_insert_matches_one_by_one_updates(d):
    # a label the batch makes heavy gets its count tree in one build, a
    # heavy one takes its points one by one; either way the answers, the
    # per-label points and trees and the active light boxes are those of
    # updates
    rng = random.Random(f"bulk.{d}")
    heavy_before = 0    # batch points of a label already heavy
    for trial in range(8):
        B = rng.choice([None, 1, 2, 3])
        bulk, one = (DynRangeModeDS(d, 300, B_override=B) for _ in range(2))

        def point():
            return (tuple(rng.randint(0, 5) for _ in range(d)),
                    rng.randint(0, 6))

        # up to 30 points over 7 labels first, so that with B <= 3 some
        # labels are heavy when their batch points arrive
        for coords, label in [point() for _ in range(rng.randint(0, 30))]:
            bulk.update(coords, label, insert=True)
            one.update(coords, label, insert=True)
        batch = [point() for _ in range(rng.randint(1, 60))]
        # a light label's points as its Counter lists them, then the batch's
        was_heavy = set(one.heavy)
        heavy_before += sum(label in was_heavy for _, label in batch)
        light = {label: list(one._points(label).elements())
                 for label in one._total if label not in was_heavy}
        bulk.bulk_insert(batch)
        for coords, label in batch:
            if label not in was_heavy:
                light.setdefault(label, []).append(coords)
            one.update(coords, label, insert=True)
        assert bulk._total == one._total
        for label in bulk._total:
            assert bulk._points(label) == one._points(label)
        assert bulk.heavy == one.heavy
        for label, tree in bulk._label_trees.items():
            other = one._label_trees[label]
            assert tree.occ == other.occ
            if label in was_heavy:
                # heavy before the batch: both added its points one by one
                assert tree.keys == other.keys
                continue
            # made heavy by the batch: bulk_insert builds over the label's
            # points in order; updates build over its Counter, which groups
            # equal points (a, a, b for a, b, a), at the point past B, then
            # add the rest, so the key numbers differ only by that grouping
            pts = light[label]
            assert tree.keys == _numbered(pts)
            assert other.keys == _numbered(
                [*Counter(pts[:bulk.B]).elements(), *pts[bulk.B:]])
        assert active_box_keys(bulk) == active_box_keys(one)
        for _ in range(30):
            lo = [rng.randint(0, 5) for _ in range(d)]
            box = Box.closed(lo, [x + rng.randint(0, 5) for x in lo])
            assert bulk.query(box) == one.query(box)
    assert heavy_before


def test_sequence_from_values_matches_repeated_inserts():
    rng = random.Random("from-values")
    for B in (None, 1, 3):
        values = [rng.randint(1, 9) for _ in range(300)]
        built = SequenceAdapter.from_values(values, n_cap=400, B_override=B)
        grown = SequenceAdapter(400, B_override=B)
        for i, v in enumerate(values):
            grown.insert(i + 1, v)
        for _ in range(200):
            n = len(built)
            r = rng.random()
            if r < 0.3:
                pos, v = rng.randint(1, n + 1), rng.randint(1, 9)
                built.insert(pos, v)
                grown.insert(pos, v)
            elif r < 0.5:
                pos = rng.randint(1, n)
                built.delete(pos)
                grown.delete(pos)
            else:
                l = rng.randint(1, n)
                r = rng.randint(l, n)
                assert built.query(l, r) == grown.query(l, r)
        assert built.values == grown.values


def test_front_insert_rebuild_stress():
    seq = SequenceAdapter(10000)
    for _ in range(10000):
        seq.insert(1, 7)
    assert seq.rebuilds > 0
    assert max_denominator_exp(seq) <= SequenceAdapter.REBUILD_EXP
    assert seq.query(1, 10000) == (7, 10000)
    assert seq.query(17, 4016) == (7, 4000)


def test_interleaved_rebuild_keeps_answers():
    rng = random.Random(44)
    seq = SequenceAdapter(600, B_override=3)
    ref = ListSeq()
    for i in range(500):
        pos = 1 if i % 3 else rng.randint(1, len(ref.vals) + 1)
        v = rng.randint(0, 3)
        seq.insert(pos, v)
        ref.insert(pos, v)
        if i % 37 == 0 and ref.vals:
            l = rng.randint(1, len(ref.vals))
            r = rng.randint(l, len(ref.vals))
            assert seq.query(l, r)[1] == ref.query(l, r)[1]
    assert seq.rebuilds > 0
    assert seq.values == ref.vals


def test_sequence_query_none_is_a_contract_error(monkeypatch):
    seq = SequenceAdapter.from_values([1, 2, 2])
    monkeypatch.setattr(seq.ds, "query", lambda box: None)
    with pytest.raises(RuntimeError, match="no mode"):
        seq.query(1, 3)


def test_heavy_scan_ties_go_to_the_smallest_label():
    ds = DynRangeModeDS(1, 64, B_override=1)
    for label in (9, 3, 7, 5):
        for x in (1, 2):
            ds.update((x,), label, insert=True)
    assert ds.heavy == {3, 5, 7, 9}
    assert ds.query(Box.closed((1,), (2,))) == (3, 2)
    ds.update((1,), 3, insert=False)
    assert ds.query(Box.closed((1,), (2,))) == (5, 2)


# ---------------- the 1-D heavy scan against a count per tree ----------------

def _heavy_scan_by_count(ds, box):
    """The heavy scan as a `count` call per heavy label's tree."""
    best = None
    for label in ds.heavy:
        cnt = ds._label_trees[label].count(box)
        if cnt > 0 and (best is None or cnt > best[1]
                        or (cnt == best[1] and label < best[0])):
            best = (label, cnt)
    return best


def _random_interval(rng, pool):
    """Closed, open, half-open or unbounded, over bounds drawn from pool."""
    lo, hi = (None if rng.random() < 0.2 else rng.choice(pool)
              for _ in range(2))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo is not None and lo == hi:
        return Interval(lo, hi)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _check_heavy_scan(ds, iv):
    """_best_count_1d answers iv as a count per tree does.  It charges the
    structure's counter one visit per heavy label whose range is empty or
    whose tree holds one declared entry per value (answered by rank), and
    the visits of that `count` for every other tree; returns the answer."""
    ctr = ds.counter
    box = Box([iv])
    want = _heavy_scan_by_count(ds, box)
    want_visits = 0
    for tree in ds._label_trees.values():
        before = ctr.count
        tree.count(box)
        walk = ctr.count - before
        by_rank = len(tree._axes[0].values) == len(tree)
        want_visits += 1 if by_rank or not walk else walk
    before = ctr.count
    got = _best_count_1d(ds._label_trees, iv, ctr)
    assert (got, ctr.count - before) == (want, want_visits), iv
    return got


def test_heavy_scan_loop_matches_count_per_tree():
    # B = 2 over five int and Fraction labels: most labels are heavy, and
    # their counts often tie
    rng = random.Random(2201)
    labels = [1, 2, 3, Fraction(5, 2), Fraction(7, 3)]
    ds = DynRangeModeDS(1, 400, B_override=2)
    live = [((Fraction(x, 3),), labels[x % 5]) for x in range(0, 60, 2)]
    ds.bulk_insert(live)    # room-2 trees; later labels grow room-1 ones
    seen = set()
    # no value lies in the last two: the scan skips every tree
    fixed = [Interval.all(), Interval(Fraction(1000), None),
             Interval(Fraction(1, 11), Fraction(1, 10), False, False)]

    def check():
        pool = [c[0] for c, _ in live] + [Fraction(-1000), Fraction(1, 11)]
        for iv in fixed + [_random_interval(rng, pool) for _ in range(6)]:
            got = _check_heavy_scan(ds, iv)
            box = Box([iv])
            assert ds.query(box) == mode_oracle(live, box), iv
            counts = sorted((sum(lab == label and iv.contains(c[0])
                                 for c, lab in live) for label in ds.heavy),
                            reverse=True)
            if len(counts) > 1 and counts[0] == counts[1] > 0:
                seen.add("tie")
            if got is None and ds.heavy:
                seen.add("empty")
        for t in ds._label_trees.values():
            # a repeated value makes a tree walk; else its dead values are
            # subtracted by rank
            if len(t._axes[0].values) == len(t):
                seen.add("ranked past dead" if t._off else "ranked")
            else:
                seen.add("walked")

    def update(p, insert):
        trees = ds._label_trees
        leaves = {lab: t._axes[0].leaves for lab, t in trees.items()}
        sizes = {lab: len(t) for lab, t in trees.items()}
        ds.update(*p, insert)
        if insert:
            live.append(p)
        else:
            live.remove(p)
        for lab, t in trees.items():
            if t._axes[0].leaves > leaves.get(lab, t._axes[0].leaves):
                seen.add("doubled")
            if t._order[0] is not None:
                seen.add("relabelled")
            if len(t) < sizes.get(lab, 0):
                seen.add("rebuilt")
        check()

    for step in range(240):
        if step < 150 or rng.random() < 0.4:
            # fresh coordinates, many below every live one: a new value
            # takes a free leaf, re-spreads a window or doubles
            x = Fraction(rng.randint(-400, 200), rng.choice((1, 3, 7)))
            update(((x,), rng.choice(labels)), True)
        else:
            update(rng.choice(live), False)
    # an order-preserving relabel, as a key re-spacing makes
    mapping = {v: 2 * v + 1 for t in ds._label_trees.values()
               for v in t._axes[0].values}
    ds.remap_axis_values([mapping])
    live[:] = [((mapping[c[0]],), lab) for c, lab in live]
    fixed[1:] = [Interval(Fraction(3000), None),
                 Interval(Fraction(13, 11), Fraction(6, 5), False, False)]
    check()
    # one label deleted down to two copies leaves dead entries past
    # 2 * live + 16: its tree rebuilds itself
    label = max(ds._label_trees, key=lambda lab: len(ds._label_trees[lab]))
    for p in [p for p in live if p[1] == label][2:]:
        update(p, False)
    assert seen == {"doubled", "relabelled", "rebuilt", "tie", "empty",
                    "ranked", "ranked past dead", "walked"}


def test_heavy_scan_loop_after_key_respacing(monkeypatch):
    # every 4th op inserts at the front, halving the first key, so the
    # adapter re-spaces its keys: deleted keys stay on the axes between
    # live ones, and the adapter's debug check runs after every op
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(2202)
    seq = SequenceAdapter.from_values([rng.randint(1, 4) for _ in range(40)],
                                      n_cap=400, B_override=1)
    ds = seq.ds
    for step in range(300):
        if step % 4 == 0:
            seq.insert(1, rng.randint(1, 4))
        elif rng.random() < 0.5:
            seq.insert(rng.randint(1, len(seq) + 1), rng.randint(1, 4))
        else:
            seq.delete(rng.randint(1, len(seq)))
        pool = seq.keys + sorted(seq._dead) + [-1, 1 << 80]
        for _ in range(3):
            _check_heavy_scan(ds, _random_interval(rng, pool))
        l = rng.randint(1, len(seq))
        r = rng.randint(l, len(seq))
        assert seq.query(l, r) == sequence_mode_oracle(seq.values, l, r)
    assert seq.rebuilds > 0 and seq._dead


def test_heavy_scan_by_rank_after_churn(monkeypatch):
    # 2,000 moves, each a delete at a random position and an insert of its
    # value at another, leave dead entries in every label tree, and the
    # trees rebuild themselves; every label stays heavy, and each query
    # charges one visit per heavy label
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    rng = random.Random(2203)
    n = 300
    seq = SequenceAdapter.from_values([rng.randint(1, 6) for _ in range(n)],
                                      n_cap=n)
    ds = seq.ds
    trees = ds._label_trees
    reused = rebuilt = 0
    for _ in range(2000):
        pos = rng.randint(1, n)
        value = seq.values[pos - 1]
        size = len(trees[value])
        seq.delete(pos)
        rebuilt += len(trees[value]) < size
        size = len(trees[value])
        seq.insert(rng.randint(1, n), value)
        # a new key equal to a dead one of its label reuses that entry
        reused += len(trees[value]) == size
        l = rng.randint(1, n)
        r = rng.randint(l, n)
        before = ds.counter.count
        assert seq.query(l, r) == sequence_mode_oracle(seq.values, l, r)
        assert ds.counter.count - before == len(ds.heavy) == 6
    assert reused and rebuilt > 6 and all(t._off for t in trees.values())


def test_heavy_scan_walks_trees_with_repeated_values():
    # copies of one point share an axis value, so their label's tree is
    # counted by its walk; the other trees are answered by rank
    rng = random.Random(2204)
    ds = DynRangeModeDS(1, 200, B_override=2)
    live = []
    seen = set()
    for step in range(300):
        if len(live) < 20 or rng.random() < 0.6:
            p = ((rng.randint(1, 15),), rng.randint(1, 5))
            ds.update(*p, True)
            live.append(p)
        else:
            p = live.pop(rng.randrange(len(live)))
            ds.update(*p, False)
        for t in ds._label_trees.values():
            seen.add(len(t._axes[0].values) == len(t))
        lo = rng.randint(0, 16)
        iv = Interval(lo, rng.randint(lo, 16))
        _check_heavy_scan(ds, iv)
        assert ds.query(Box([iv])) == mode_oracle(live, Box([iv]))
    assert seen == {True, False}


# ---------------- int keys against the Fraction-keyed reference ----------------

class FractionSequenceAdapter(SequenceAdapter):
    """The adapter with dyadic Fraction keys that the int keys replaced.

    Keys are re-spaced when a denominator exponent passes REBUILD_EXP, every
    key ever issued, live or dead, to the whole units 1, 2, ... in order.
    Only the key arithmetic differs from SequenceAdapter.
    """

    def __init__(self, n_cap, B_override=None, counter=None):
        super().__init__(n_cap, B_override=B_override, counter=counter)
        self._all_keys = set()
        self._hi_bound = Fraction(2)

    @classmethod
    def from_values(cls, values, n_cap=None, B_override=None, counter=None):
        seq = cls(n_cap if n_cap is not None else max(1, len(values)),
                  B_override=B_override, counter=counter)
        seq.keys = [Fraction(i) for i in range(1, len(values) + 1)]
        seq.values = list(values)
        seq._all_keys = set(seq.keys)
        seq.ds.bulk_insert(((k,), v) for k, v in zip(seq.keys, seq.values))
        seq._hi_bound = Fraction(len(values) + 1)
        return seq

    def insert(self, pos, value):
        n = len(self.values)
        if not 1 <= pos <= n + 1:
            raise ValueError(f"insert position {pos} out of range 1..{n + 1}")
        left = self.keys[pos - 2] if pos >= 2 else Fraction(0)
        right = self.keys[pos - 1] if pos <= n else self._hi_bound
        key = (left + right) / 2
        self.ds.update((key,), value, insert=True)
        self.keys.insert(pos - 1, key)
        self.values.insert(pos - 1, value)
        self._all_keys.add(key)
        if key.denominator.bit_length() - 1 > self.REBUILD_EXP:
            self._rebuild()

    def _rebuild(self):
        self.rebuilds += 1
        mapping = {k: Fraction(i)
                   for i, k in enumerate(sorted(self._all_keys), start=1)}
        self.ds.remap_axis_values([mapping])
        self.keys = [mapping[k] for k in self.keys]
        self._all_keys = set(mapping.values())
        self._hi_bound = Fraction(len(mapping) + 1)

    def _debug_check(self):
        """None: the adapter's checks read int keys, and assert_same_state
        compares this reference's keys with the int adapter's instead."""

    def max_denominator_exp(self):
        return max((k.denominator.bit_length() - 1 for k in self.keys),
                   default=0)


def axis_slots(seq):
    """Leaf slots of every label tree's axis and of the max tree's axes."""
    ds = seq.ds
    return ({label: tree._axes[0].slots
             for label, tree in ds._label_trees.items()},
            [axis.slots for axis in ds._tp._axes])


def scaled_key(key):
    """The int key of a Fraction key, key * 2**KEY_SHIFT, always exact."""
    scaled = key * (1 << SequenceAdapter.KEY_SHIFT)
    assert scaled.denominator == 1
    return scaled.numerator


def assert_same_state(seq, ref):
    assert seq._dead == {scaled_key(k) for k in ref._all_keys - set(ref.keys)}
    assert seq.ds.counter.count == ref.ds.counter.count
    assert seq.rebuilds == ref.rebuilds
    assert max_denominator_exp(seq) == ref.max_denominator_exp()
    assert max_denominator_exp(seq) <= SequenceAdapter.REBUILD_EXP
    assert seq.values == ref.values


@pytest.mark.parametrize("B", [None, 1, 2, 3])
def test_int_keys_match_fraction_reference(B):
    for seed in range(4):
        rng = random.Random(f"intkeys.{B}.{seed}")
        init = [rng.randint(0, 4) for _ in range(rng.randint(0, 12))]
        seq = SequenceAdapter.from_values(init, n_cap=700, B_override=B)
        ref = FractionSequenceAdapter.from_values(init, n_cap=700,
                                                  B_override=B)
        for _ in range(600):
            n = len(seq)
            r = rng.random()
            if r < 0.6:
                pos = 1 if rng.random() < 0.9 else rng.randint(1, n + 1)
                v = rng.randint(0, 4)
                seq.insert(pos, v)
                ref.insert(pos, v)
            elif r < 0.8 and n:
                pos = rng.randint(1, n)
                seq.delete(pos)
                ref.delete(pos)
            elif n:
                l = rng.randint(1, n)
                rr = rng.randint(l, n)
                assert seq.query(l, rr) == ref.query(l, rr)
            assert_same_state(seq, ref)
        assert seq.rebuilds >= 3
        assert axis_slots(seq) == axis_slots(ref)


def test_int_keys_dead_runs_match_fraction_reference():
    """Dead runs of 1, 2 and 3 keys, then midpoints onto and beside them.

    Values 1 sit at keys 1..4 with dead label-2 keys between them.  65 front
    inserts re-space every key, live or dead, to a whole unit: the four 1s
    go to 66, 68, 71 and 75, and the dead keys to 67; 69, 70; 72, 73, 74.
    """
    seqs = [cls.from_values([1, 1, 1, 1], n_cap=200)
            for cls in (SequenceAdapter, FractionSequenceAdapter)]
    for seq in seqs:
        for pos, count in ((2, 1), (3, 2), (4, 3)):
            for i in range(count):
                seq.insert(pos + i, 2)
            for _ in range(count):
                seq.delete(pos)
        for _ in range(65):
            seq.insert(1, 0)
        assert seq.rebuilds == 1
    seq, ref = seqs
    assert ref.keys[65:] == [66, 68, 71, 75]
    assert ref._all_keys - set(ref.keys) == {67, 69, 70, 72, 73, 74}
    assert_same_state(seq, ref)
    # label 2 is light, so its keys are on the max tree's box-bound axes
    axis = seq.ds._tp._axes[0]
    # (position, whether the new key lands on a dead key): 67; 73 and 72;
    # 69.5 between the dead 69 and 70, 68.75 below 69, 69.125 above it
    for pos, on_dead in ((67, True), (70, True), (70, True), (69, False),
                         (69, False), (70, False)):
        before = len(axis.values)
        for s in seqs:
            s.insert(pos, 2)
        assert len(axis.values) == before + (not on_dead)
        assert_same_state(seq, ref)
        assert axis_slots(seq) == axis_slots(ref)
        for l, r in ((1, len(seq)), (66, len(seq)), (pos - 1, pos + 1)):
            assert seq.query(l, r) == ref.query(l, r)
            assert_same_state(seq, ref)
    assert ref.keys[65:75] == [66 + Fraction(k, 8) for k in
                               (0, 8, 16, 22, 25, 28, 40, 48, 56, 72)]


@pytest.mark.parametrize("t,later", [(1, 1), (2, 0), (3, 2)])
def test_hammered_gap_of_dead_keys_matches_fraction_reference(t, later):
    """Inserts hammered into a gap that holds t dead keys.

    After a re-spacing the gap spans t + 1 units, so the hammered midpoints
    run out of precision `later` = v2(t + 1) halvings after those of a
    1-unit gap: the next re-spacing comes at hammer insert REBUILD_EXP + 1
    + later.  Across it, the int adapter, the Fraction reference and the
    scan agree.
    """
    rng = random.Random(f"hammer.{t}")
    seqs = [cls.from_values([1, 2, 1, 2], n_cap=300, B_override=2)
            for cls in (SequenceAdapter, FractionSequenceAdapter)]
    for seq in seqs:
        for i in range(t):
            seq.insert(2 + i, 3)
        for _ in range(t):
            seq.delete(2)
        for _ in range(65):
            seq.insert(1, 0)
    seq, ref = seqs
    assert seq.rebuilds == 1 and len(seq._dead) == t
    assert ref.keys[65:67] == [66, 67 + t]

    def agree():
        assert_same_state(seq, ref)
        n = len(seq)
        for l, r in ((1, n), (60, n), (64, 70), (66, 68),
                     *[sorted(rng.sample(range(1, n + 1), 2))
                       for _ in range(3)]):
            want = sequence_mode_oracle(seq.values, l, r)
            assert seq.query(l, r) == ref.query(l, r) == want

    hammered = 0
    while seq.rebuilds == 1:
        v = rng.randint(0, 3)
        for s in seqs:
            s.insert(67, v)
        hammered += 1
        agree()
    assert hammered == SequenceAdapter.REBUILD_EXP + 1 + later
    for _ in range(40):
        if rng.random() < 0.5:
            pos, v = rng.randint(60, 75), rng.randint(0, 3)
            for s in seqs:
                s.insert(pos, v)
        else:
            pos = rng.randint(60, 75)
            for s in seqs:
                s.delete(pos)
        agree()
    assert axis_slots(seq) == axis_slots(ref)


def test_sequence_memory_stays_under_bound():
    """Traced peak of a 3**7-value build plus one key re-spacing.

    Measured at 1,994,316 bytes with column-stored tree coordinates and a
    dead-key set, and at 2,684,031 with per-entry tuples and a set of every
    key ever issued; the bound is the first plus 15%.
    """
    n = 3 ** 7
    rng = random.Random("memory-guard")
    values = [rng.randint(1, 56) for _ in range(n)]
    front = [rng.randint(1, 56) for _ in range(65)]
    tracemalloc.start()
    try:
        seq = SequenceAdapter.from_values(values, n_cap=n + 65)
        for v in front:
            seq.insert(1, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.rebuilds == 1
    assert peak < 2_293_000


def test_debug_check_raises_on_broken_invariant(monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    ds = DynRangeModeDS(1, 8)
    ds.update((1,), "a", True)
    ds.n_live += 1
    with pytest.raises(RuntimeError, match="invariant broken: live count"):
        ds.update((2,), "a", True)


def test_debug_check_holds_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.range_mode import DynRangeModeDS\n"
            "ds = DynRangeModeDS(1, 8)\n"
            "ds.n_live = 5\n"
            "try:\n"
            "    ds.update((1,), 'a', True)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "DYNDS_DEBUG_ASSERT": "1"})
    assert out.stdout == "invariant broken: live count\n"


def _drop_dead_key(seq):
    seq._dead.pop()


def _reverse_keys(seq):
    seq.keys.reverse()


def _odd_dead_key(seq):
    seq._dead.add(seq._dead.pop() + 1)


def _live_key_also_dead(seq):
    seq._dead.add(seq.keys[-1])


def _bound_on_last_key(seq):
    seq._hi_bound = seq.keys[-1]


@pytest.mark.parametrize("corrupt,what", [
    (_drop_dead_key, "every axis value is a live or a dead key"),
    (_reverse_keys, "keys rise strictly"),
    (_odd_dead_key, "keys are even between ops"),
    (_live_key_also_dead, "dead keys are not live"),
    (_bound_on_last_key, "every key lies between the bounds"),
])
def test_sequence_debug_check_raises_on_broken_keys(corrupt, what,
                                                    monkeypatch):
    monkeypatch.setattr("dynds.core_geom._DEBUG_ASSERT", True)
    seq = SequenceAdapter.from_values([1, 2, 1, 3], n_cap=8)
    seq.delete(2)
    seq.insert(1, 2)
    corrupt(seq)
    with pytest.raises(RuntimeError, match=f"invariant broken: {what}"):
        seq.insert(1, 3)


def test_sequence_debug_check_holds_under_optimize():
    # a dead key dropped from _dead, though its value is still on the max
    # tree's axes, would make the next re-spacing miss it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from dynds.range_mode import SequenceAdapter\n"
            "seq = SequenceAdapter.from_values([1, 2, 1], n_cap=8)\n"
            "seq.delete(2)\n"
            "seq._dead.clear()\n"
            "try:\n"
            "    seq.insert(1, 3)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "DYNDS_DEBUG_ASSERT": "1"})
    assert out.stdout == ("invariant broken: every axis value is a live or "
                          "a dead key\n")
