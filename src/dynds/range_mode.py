"""Dynamic range mode over labeled points, plus scan oracles and a sequence view.

The structure keeps a count tree (a core_geom.PointMultiset over the
label's points) for every heavy label, one with more than B live
occurrences, and holds a light label's points in a plain Counter.  A global
max tree holds, for every light label, one entry per tight box of that
label's points (a box each of whose 2d bounds is reached by one of the
label's points inside it, see _tight_boxes), valued by the label's count in
the box.  A query takes the best heavy label by direct counting and the
best light entry via a dominance query on the box-boundary coordinates, so
it reads no light label's points and no light label needs a count tree.

A max-tree value is (count, tie rank), where a larger rank means a smaller
label, so the max lands on the smallest label among equal counts.  The rank of
an int label is the int -label, so that comparing two values stays inside C;
any other label is wrapped in _TieRank, which also orders against those ints.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import and_, itemgetter, le, lt
from typing import Dict, List, Optional, Sequence, Tuple

from .core_geom import (Box, Interval, PointMultiset, RangeTree, VisitCounter,
                        _best_count_1d, _check_label_order, _debug_on,
                        _invariant, _relabel)

__all__ = [
    "mode_oracle",
    "sequence_mode_oracle",
    "sequence_minority_oracle",
    "DynRangeModeDS",
    "SequenceAdapter",
    "SequenceScan",
]


# ---------------- oracles ----------------

def mode_oracle(points, box: Box) -> Optional[Tuple[object, int]]:
    """Mode of the labels of the points inside box, by linear scan.

    points: iterable of (coords, label) occurrences (multiset).  Returns
    (label, frequency) with ties to the smallest label, or None when empty.
    """
    freq = Counter()
    for coords, label in points:
        if box.contains(coords):
            freq[label] += 1
    if not freq:
        return None
    best = min(freq, key=lambda c: (-freq[c], c))
    return best, freq[best]


# PointScan refuses a label that this tie rule cannot order
mode_oracle.orders_labels = True


def sequence_mode_oracle(values: Sequence, l: int, r: int) -> Tuple[object, int]:
    """Mode of values[l..r], 1-based inclusive, ties to the smallest value."""
    if not 1 <= l <= r <= len(values):
        raise ValueError(f"bad range [{l}, {r}] for length {len(values)}")
    freq = Counter(values[l - 1:r])
    best = min(freq, key=lambda v: (-freq[v], v))
    return best, freq[best]


def sequence_minority_oracle(values: Sequence, l: int, r: int) -> Tuple[object, int]:
    """Least frequent value present in values[l..r], ties to the smallest."""
    if not 1 <= l <= r <= len(values):
        raise ValueError(f"bad range [{l}, {r}] for length {len(values)}")
    freq = Counter(values[l - 1:r])
    best = min(freq, key=lambda v: (freq[v], v))
    return best, freq[best]


# ---------------- dynamic structure ----------------

class _TieRank:
    """Tie rank of a label that is not an int: larger order, smaller label.

    Int labels rank as the plain int -label instead (see _light_box_keys),
    so a rank compared here is either another _TieRank or an int o that
    stands for the label -o.  Mixed live labels, such as int with Fraction,
    float or bool, thus order exactly as mode_oracle orders them.
    """

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    @staticmethod
    def _label_of(rank):
        return rank.label if type(rank) is _TieRank else -rank

    def __eq__(self, other):
        return self.label == self._label_of(other)

    def __lt__(self, other):
        return self._label_of(other) < self.label

    def __gt__(self, other):
        return self.label < self._label_of(other)

    def __repr__(self):
        return f"_TieRank({self.label!r})"


def _tight_boxes(occ: Counter, d: int) -> List[Tuple[tuple, int]]:
    """(boxcoords, count) of every tight box of a point multiset (see
    DynRangeModeDS._light_box_keys).

    occ maps each distinct point to its multiplicity; boxcoords is the
    box's d lower bounds, then its d upper bounds.  The boxes come in the
    order of a product over the axes, each axis's (lo, hi) pairs in
    increasing order; RangeTree.extend places new entries in the order
    given, so this order is part of the visit counts.  They are found by
    cutting axis by axis: on each axis the pairs run over the values of the
    points still inside, and a cut that leaves a bound of an earlier axis
    unreached ends there, since later cuts only remove points.

    Each occurrence is one bit of an int, and each axis maps a value to
    the mask of the occurrences on it.  A cut's occurrences are an OR of
    value masks ANDed with those still inside, a bound is reached when its
    value's mask meets them, and a box's count is their bit_count.
    Against a cut that sorted the (point, multiplicity) pairs on each axis,
    summed their prefix counts and scanned the points for each earlier
    bound, this took 0.57x, 0.39x and 0.32x the time at 2, 4 and 7 points
    in 2-D, 0.43x and 0.29x at 3 and 5 points in 3-D, and 1.12x and 0.83x
    at 3 and 19 points in 1-D (median of 9 rounds over 2,000 random
    multisets, 400 in 3-D, with coordinates drawn from 1..2n, so with
    duplicates; 16 us per 2-D set of 2 points; 2-CPU x86-64 VM, Python
    3.11).  Filtering the product of every axis's pairs over all the points
    instead was 2.9x to 10.5x slower than that sorting cut from B = 3 to 7
    points in 2-D and 6.9x to 96x in 3-D.  In 1-D, where every interval is
    tight, a running count per lower bound took 0.2x to 0.4x the time of
    this pass on the 23,893 1-D calls of `dynds crosscheck` seeds 0 to 15
    (82% of its calls, 2.05 points on average), but that is about 0.3% of
    the run, and 6 alternating perfbench crosscheck-default pairs showed
    no difference, so no 1-D case is kept.
    """
    out: List[Tuple[tuple, int]] = []
    masks: List[dict] = [{} for _ in range(d)]
    bit = 0
    for c, m in occ.items():
        run = ((1 << m) - 1) << bit
        bit += m
        for on, v in zip(masks, c):
            on[v] = on.get(v, 0) | run
    by_value = [sorted(on.items()) for on in masks]
    last = d - 1

    def cut(ax, vals, los, his, reach):
        # vals: (value, mask) on axis ax of the occurrences in the box
        # bounded on the axes before ax by los and his; reach: the masks of
        # those bounds' values
        on = masks[ax]
        for a, (lo, _) in enumerate(vals):
            sub = 0
            for hi, m in vals[a:]:
                sub |= m
                # a bound of an earlier axis that no occurrence in sub
                # reaches stays unreached under any further cut
                if reach and not all(map(and_, repeat(sub), reach)):
                    continue
                if ax == last:
                    out.append((los + (lo,) + his + (hi,), sub.bit_count()))
                else:
                    cut(ax + 1, [(v, n & sub) for v, n in by_value[ax + 1]
                                 if n & sub],
                        los + (lo,), his + (hi,), reach + [on[lo], on[hi]])

    cut(0, by_value[0], (), (), [])
    return out


class DynRangeModeDS:
    """Dynamic d-dimensional range mode over a labeled point multiset.

    Labels must be hashable and mutually ordered, as mode_oracle's tie rule
    needs: inserting a label that cannot be compared with a live one raises
    TypeError and leaves the structure unchanged.
    """

    def __init__(self, d: int, n_cap: int, B_override: Optional[int] = None,
                 counter: Optional[VisitCounter] = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        if B_override is not None and B_override < 1:
            raise ValueError("B override must be >= 1")
        self.d = d
        self.n_cap = n_cap
        self.B = B_override if B_override is not None \
            else max(1, round(n_cap ** (1.0 / (2 * d + 1))))
        self.counter = counter if counter is not None else VisitCounter()
        self.n_live = 0
        self._total: Counter = Counter()               # live label -> count
        # a live label's points, held once: in its count tree's occ while it
        # is heavy (more than B points), in a plain Counter while it is light
        self._label_trees: Dict[object, PointMultiset] = {}
        self._light_points: Dict[object, Counter] = {}
        # every query is an orthant: entry lo >= box lo, entry hi <= box hi
        self._tp = RangeTree(2 * d, mode="max", counter=self.counter,
                             sides=("ge",) * d + ("le",) * d)
        self._tp_keys: Dict[tuple, int] = {}           # (label, boxcoords, count) -> key
        self._tp_label: Dict[int, object] = {}
        self._label_box_keys: Dict[object, List[int]] = {}

    @property
    def heavy(self):
        """The heavy labels, those with more than B live points: the labels
        with a count tree."""
        return self._label_trees.keys()

    # ---------------- updates ----------------

    def _norm(self, coords) -> tuple:
        nc = tuple(coords)
        if len(nc) != self.d:
            raise ValueError("point dimension mismatch")
        return nc

    def _points(self, label) -> Counter:
        """A label's live points, point -> multiplicity (empty when none)."""
        tree = self._label_trees.get(label)
        return tree.occ if tree is not None \
            else self._light_points.get(label) or Counter()

    def _add_points(self, label, pts: Sequence[tuple]) -> None:
        """Add pts to label's points.  A label they make heavy gets its
        count tree in one build: over pts alone, with room 2 (see
        core_geom._Axis) since it will grow, when the label is new; else
        over its light points, then pts, with room 1.  The room of that
        light-to-heavy build was chosen on the visits that `dynds
        crosscheck --seed 3` counts: 757,718 with room 1 against 769,234
        with room 2 (seed 0: 740,138 against 752,768).
        """
        total = self._total[label] = self._total[label] + len(pts)
        tree = self._label_trees.get(label)
        if tree is not None:
            for nc in pts:
                tree.add(nc)
        elif total > self.B:
            occ = self._light_points.pop(label, None)
            self._label_trees[label] = PointMultiset(
                self.d, chain(occ.elements(), pts) if occ else pts,
                counter=self.counter, room=1 if occ else 2)
        else:
            occ = self._light_points.get(label)
            if occ is None:
                occ = self._light_points[label] = Counter()
            for nc in pts:
                occ[nc] += 1

    def update(self, coords, label, insert: bool) -> None:
        nc = self._norm(coords)
        if insert:
            _check_label_order(self._total, (label,))
            if self.n_live >= self.n_cap:
                raise ValueError(f"capacity {self.n_cap} exceeded")
            self._add_points(label, (nc,))
            self.n_live += 1
        else:
            tree = self._label_trees.get(label)
            occ = self._points(label)
            if nc not in occ:
                raise ValueError(f"delete of absent point {coords} label {label!r}")
            total = self._total[label] = self._total[label] - 1
            if tree is not None and total > self.B:
                tree.remove(nc)
            else:
                if tree is not None:    # turns light: the tree goes
                    del self._label_trees[label]
                    self._light_points[label] = occ
                if occ[nc] == 1:
                    del occ[nc]
                else:
                    occ[nc] -= 1
                if not total:
                    del self._total[label], self._light_points[label]
            self.n_live -= 1
        self._refresh_labels((label,))
        if _debug_on():
            self._debug_check()

    def bulk_insert(self, points) -> None:
        """Batch insert regenerating each touched label's boxes only once.

        A label new to the structure that the batch makes heavy gets its
        count tree in one build over its batch points, in batch order, with
        room 2 (see _add_points); the points of a heavy label already there
        are added one by one, and a light label's go to its Counter.  With
        no count tree for a light label, the set-up batch of perfbench
        drm2-light-churn (24 light labels of 2 points, 3 heavy of 5) takes
        2.15 ms where one tree per label took 3.04 ms (best of 200 builds,
        median of 15 alternating rounds, 2-CPU x86-64 VM, Python 3.11).  A
        batch past the capacity, or with a label that cannot be ordered, is
        refused whole before anything is inserted.
        """
        points = list(points)
        coords = list(map(tuple, map(itemgetter(0), points)))
        if set(map(len, coords)) - {self.d}:
            raise ValueError("point dimension mismatch")
        if self.n_live + len(points) > self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        by_label: Dict[object, List[tuple]] = {}
        for nc, label in zip(coords, map(itemgetter(1), points)):
            by_label.setdefault(label, []).append(nc)
        # each label once, in the order of its first point
        _check_label_order(self._total, by_label)
        for label, pts in by_label.items():
            self._add_points(label, pts)
        self.n_live += len(points)
        self._refresh_labels(by_label)
        if _debug_on():
            self._debug_check()

    def _refresh_labels(self, labels) -> None:
        """Regenerate each label's light boxes, or clear them when heavy.

        Every label's new boxes are declared before any box is toggled, so
        a max-tree axis that doubles on the way has none of this batch's
        boxes to re-place.  Only the difference is toggled: boxes whose
        (label, coords, count) key survives the update stay active
        untouched.
        """
        fresh: Dict[object, List[int]] = {}
        light = self._light_points
        for label in labels:
            occ = light.get(label)
            fresh[label] = self._light_box_keys(label, occ) if occ else []
        for label, new_keys in fresh.items():
            old = self._label_box_keys.get(label, [])
            old_set, new_set = set(old), set(new_keys)
            for k in old:
                if k not in new_set:
                    self._tp.toggle(k, False)
            for k in new_keys:
                if k not in old_set:
                    self._tp.toggle(k, True)
                    # a key is shared by equal labels, so it answers with
                    # the label object that last turned it on, the live one
                    self._tp_label[k] = label
            self._label_box_keys[label] = new_keys

    def _light_box_keys(self, label, occ: Counter) -> List[int]:
        """Max-tree keys of the tight boxes of a light label's points,
        declaring the (label, boxcoords, count) entries not seen before.

        A box is tight when each of its 2d bounds is reached by one of the
        label's points inside it, so that it is the bounding box of the
        points it holds.  Only tight boxes can decide an answer: an orthant
        query that holds a box also holds the bounding box of that box's
        points, with the same count and label.  The tight boxes are the
        bounding boxes of the box-cut subsets of the points, one per
        subset, so B points have O(B^{2d}) of them, as axis-parallel boxes
        have VC dimension 2d (Sauer, JCTA 1972).  Mean counts over 200
        random 2-D point sets with distinct coordinates, every nonempty box
        spanned by the coordinate values against the tight ones: 7.0
        against 3.0 at B = 2, 26.0 against 6.7 at B = 3, 70.5 against 12.8
        at B = 4 and 554 against 56.7 at B = 7.  In 1-D every nonempty
        interval is tight, and _tight_boxes makes no check there.
        """
        new_keys: List[int] = []
        missing = []
        for boxcoords, cnt in _tight_boxes(occ, self.d):
            ek = self._tp_keys.get((label, boxcoords, cnt))
            if ek is None:
                missing.append((boxcoords, cnt))
            else:
                new_keys.append(ek)
        if missing:
            rank = -label if type(label) is int else _TieRank(label)
            keys = self._tp.extend(
                [(bc, (cnt, rank)) for bc, cnt in missing])
            for (bc, cnt), ek in zip(missing, keys):
                self._tp_keys[(label, bc, cnt)] = ek
            new_keys.extend(keys)
        return new_keys

    # ---------------- queries ----------------

    def query(self, box: Box) -> Optional[Tuple[object, int]]:
        """(label, count) of the box's mode, ties to the smallest label, or
        None when the box holds no point.

        The heavy scan counts each heavy label in its tree.  With d = 1,
        which serves every SequenceAdapter query, it runs as one loop over
        the heavy labels' trees (core_geom._best_count_1d): the same cells
        and visits as a `count` per tree, without a call pair and a cell id
        list per tree.  With d >= 2 it calls `count` per tree.  The choice
        by d was measured on 300 random range queries over the perfbench
        seq-heavy-scan sequence (n = 19,683, 243 heavy labels), in one
        process on a 2-CPU x86-64 VM, 12 alternating rounds: in median the
        1-dim loop took 0.68x the time of the per-tree calls, a d-generic
        loop (cell ids over the first d - 1 axes, the last axis walked
        inline) 0.79x, and one summing the last axis's cells through map
        1.05x.
        """
        if box.dim != self.d:
            raise ValueError("query box dimension mismatch")
        trees = self._label_trees
        if self.d == 1:
            best = _best_count_1d(trees, box.intervals[0], self.counter)
        else:
            best = None
            for label, tree in trees.items():
                cnt = tree.count(box)
                if cnt > 0 and (best is None or cnt > best[1]
                                or (cnt == best[1] and label < best[0])):
                    best = (label, cnt)
        ivs = []
        for iv in box.intervals:
            ivs.append(Interval(iv.lo, None, lo_closed=iv.lo_closed))
        for iv in box.intervals:
            ivs.append(Interval(None, iv.hi, hi_closed=iv.hi_closed))
        hit = self._tp.max_entry(Box(ivs))
        if hit is not None:
            (cnt, _), key = hit
            label = self._tp_label[key]
            if cnt > 0 and (best is None or cnt > best[1]
                            or (cnt == best[1] and label < best[0])):
                best = (label, cnt)
        return best

    # ---------------- maintenance ----------------

    def remap_axis_values(self, mappings: Sequence[dict]) -> None:
        """Order-preserving coordinate relabel, one mapping per axis."""
        if len(mappings) != self.d:
            raise ValueError("need one mapping per axis")
        # label by label, so that only one label's maps exist twice at once
        for tree in self._label_trees.values():
            tree.remap(mappings)
        light = self._light_points
        for label, occ in light.items():
            light[label] = Counter(dict(zip(_relabel(mappings, occ),
                                            occ.values())))
        first, second, third = itemgetter(0), itemgetter(1), itemgetter(2)
        tp = self._tp_keys
        self._tp_keys = dict(zip(zip(
            map(first, tp), _relabel(list(mappings) * 2, map(second, tp)),
            map(third, tp)), tp.values()))
        for ax in range(self.d):
            self._tp.replace_axis_values(ax, mappings[ax])
            self._tp.replace_axis_values(self.d + ax, mappings[ax])

    def _is_tight_entry(self, key: int, occ: Counter) -> bool:
        """Whether max-tree entry key is a tight box of occ's points,
        valued by their count in it: on each axis its lower bound is the
        min and its upper bound the max of the points inside."""
        d = self.d
        boxcoords, (cnt, _) = self._tp.entry(key)
        los, his = boxcoords[:d], boxcoords[d:]
        inside = [(c, m) for c, m in occ.items()
                  if all(map(le, los, c)) and all(map(le, c, his))]
        cols = list(zip(*map(itemgetter(0), inside)))
        return (cnt == sum(map(itemgetter(1), inside))
                and list(map(min, cols)) == list(los)
                and list(map(max, cols)) == list(his))

    def _debug_check(self) -> None:
        trees, light = self._label_trees, self._light_points
        _invariant(trees.keys().isdisjoint(light)
                   and len(trees) + len(light) == len(self._total),
                   "each live label's points are held once")
        for label, total in self._total.items():
            tree = trees.get(label)
            _invariant((tree is not None) == (total > self.B),
                       "a label has a count tree exactly when it is heavy")
            occ = self._points(label)
            _invariant(total == sum(occ.values()), "label total")
            active = self._label_box_keys.get(label, [])
            if tree is not None:
                _invariant(Counter(tree.entry(k)[0]
                                   for k in tree.active_keys()) == occ,
                           "a count tree holds its label's points")
                _invariant(active == [], "heavy label has light boxes")
            else:
                _invariant(len(set(active)) == len(active)
                           == len(_tight_boxes(occ, self.d)),
                           "light box count")
                for key in active:
                    _invariant(self._tp.is_active(key)
                               and self._is_tight_entry(key, occ),
                               "light box not tight")
        _invariant(self.n_live == sum(self._total.values()) <= self.n_cap,
                   "live count")


# ---------------- sequence view ----------------

class SequenceAdapter:
    """Dynamic sequence with 1-based positional inserts and range mode queries.

    Positions map to int keys, the int K standing for the dyadic rational
    K / 2**KEY_SHIFT.  Each insert takes the midpoint (left + right) >> 1 of
    its neighbors, using fixed virtual boundary keys past either end (so
    repeated inserts at an end keep halving toward the boundary).  Between
    ops every key and both bounds are even, so a midpoint is exact; an odd
    one (denominator exponent REBUILD_EXP + 1) re-spaces the keys, and the
    backing structure is relabeled in place.  The adapter keeps its dead
    keys (_dead: deleted and not issued again), which still sit on the
    structure's axes, and a re-spacing puts every key, live or dead, on the
    whole units i << KEY_SHIFT in order, by one dict(zip(...)).  This is a
    labelled order-maintenance list (Dietz & Sleator, STOC 1987).  Under
    DYNDS_DEBUG_ASSERT every insert and delete checks the keys and that
    each axis value of the structure is a live or a dead key.
    """

    REBUILD_EXP = 64
    KEY_SHIFT = REBUILD_EXP + 1

    def __init__(self, n_cap: int, B_override: Optional[int] = None,
                 counter: Optional[VisitCounter] = None):
        self.ds = DynRangeModeDS(1, n_cap, B_override=B_override, counter=counter)
        self.keys: List[int] = []
        self.values: List[object] = []
        self._dead: set = set()   # keys deleted and not issued again
        self._hi_bound = 2 << self.KEY_SHIFT
        self.rebuilds = 0

    @classmethod
    def from_values(cls, values: Sequence, n_cap: Optional[int] = None,
                    B_override: Optional[int] = None,
                    counter: Optional[VisitCounter] = None) -> "SequenceAdapter":
        """Bulk build with keys standing for 1..len (denominator exponent 0)."""
        seq = cls(n_cap if n_cap is not None else max(1, len(values)),
                  B_override=B_override, counter=counter)
        shift = cls.KEY_SHIFT
        seq.keys = [i << shift for i in range(1, len(values) + 1)]
        seq.values = list(values)
        seq.ds.bulk_insert(zip(zip(seq.keys), seq.values))
        seq._hi_bound = (len(values) + 1) << shift
        return seq

    def __len__(self):
        return len(self.values)

    def insert(self, pos: int, value) -> None:
        n = len(self.values)
        if not 1 <= pos <= n + 1:
            raise ValueError(f"insert position {pos} out of range 1..{n + 1}")
        left = self.keys[pos - 2] if pos >= 2 else 0
        right = self.keys[pos - 1] if pos <= n else self._hi_bound
        key = (left + right) >> 1
        # the structure refuses (past cap, or an unordered label) before it
        # changes anything, so the adapter must not change before it either
        self.ds.update((key,), value, insert=True)
        self.keys.insert(pos - 1, key)
        self.values.insert(pos - 1, value)
        self._dead.discard(key)
        if key & 1:
            self._rebuild()
        if _debug_on():
            self._debug_check()

    def delete(self, pos: int) -> None:
        n = len(self.values)
        if not 1 <= pos <= n:
            raise ValueError(f"delete position {pos} out of range 1..{n}")
        key = self.keys.pop(pos - 1)
        value = self.values.pop(pos - 1)
        self.ds.update((key,), value, insert=False)
        self._dead.add(key)
        if _debug_on():
            self._debug_check()

    def query(self, l: int, r: int) -> Tuple[object, int]:
        if not 1 <= l <= r <= len(self.values):
            raise ValueError(f"bad range [{l}, {r}] for length {len(self.values)}")
        got = self.ds.query(Box.closed((self.keys[l - 1],), (self.keys[r - 1],)))
        if got is None:
            raise RuntimeError(f"no mode found in the non-empty range [{l}, {r}]")
        return got

    def _rebuild(self) -> None:
        """Re-space every key, live or dead, to whole units in order."""
        self.rebuilds += 1
        shift = self.KEY_SHIFT
        old = sorted(chain(self.keys, self._dead))
        spaced = range(1 << shift, (len(old) + 1) << shift, 1 << shift)
        mapping = dict(zip(old, spaced))
        self.ds.remap_axis_values([mapping])
        self.keys = list(map(mapping.__getitem__, self.keys))
        self._dead = set(map(mapping.__getitem__, self._dead))
        self._hi_bound = (len(old) + 1) << shift

    def _debug_check(self) -> None:
        keys, dead = self.keys, self._dead
        _invariant(all(map(lt, keys, keys[1:])), "keys rise strictly")
        _invariant(not any(k & 1 for k in chain(keys, dead)),
                   "keys are even between ops")
        _invariant(dead.isdisjoint(keys), "dead keys are not live")
        _invariant(all(0 < k < self._hi_bound for k in chain(keys, dead)),
                   "every key lies between the bounds")
        known = dead.union(keys)
        ds = self.ds
        axes = chain((tree._axes[0] for tree in ds._label_trees.values()),
                     ds._tp._axes)
        _invariant(all(known.issuperset(axis.values) for axis in axes),
                   "every axis value is a live or a dead key")


class SequenceScan:
    """Scan oracle for `SequenceAdapter`: a plain list under the same
    positional ops, each query a `scan(values, l, r)`.  Like `PointScan`,
    it keeps the live values' counts in the order DynRangeModeDS keeps its
    labels, so that it refuses a value that cannot be ordered with a live
    one as the adapter does, naming the same live label."""

    def __init__(self, n_cap: int, scan=sequence_mode_oracle):
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        self.n_cap = n_cap
        self.scan = scan
        self.values: List[object] = []
        self.labels: Counter = Counter()   # live value -> count

    @classmethod
    def from_values(cls, values: Sequence, n_cap: int,
                    scan=sequence_mode_oracle) -> "SequenceScan":
        seq = cls(n_cap, scan)
        if len(values) > n_cap:
            raise ValueError(f"capacity {n_cap} exceeded")
        _check_label_order(seq.labels, values)
        seq.values = list(values)
        seq.labels.update(seq.values)
        return seq

    def insert(self, pos: int, value) -> None:
        if not 1 <= pos <= len(self.values) + 1:
            raise ValueError(f"insert position {pos} out of range "
                             f"1..{len(self.values) + 1}")
        _check_label_order(self.labels, (value,))
        if len(self.values) >= self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        self.values.insert(pos - 1, value)
        self.labels[value] += 1

    def delete(self, pos: int) -> None:
        if not 1 <= pos <= len(self.values):
            raise ValueError(f"delete position {pos} out of range "
                             f"1..{len(self.values)}")
        value = self.values.pop(pos - 1)
        labels = self.labels
        labels[value] -= 1
        if not labels[value]:
            del labels[value]

    def query(self, l: int, r: int) -> Tuple[object, int]:
        return self.scan(self.values, l, r)
