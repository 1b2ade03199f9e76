"""Dynamic range mode over labeled points, plus scan oracles and a sequence view.

The structure keeps a count tree per label (a core_geom.PointMultiset over
the label's points) and a global max tree holding, for every light label (at
most B live occurrences), one entry per axis-aligned box spanned by that
label's coordinate values, valued by the label's count in the box.  A query
takes the best heavy label by direct counting and the best light entry via a
dominance query on the box-boundary coordinates.

A max-tree value is (count, tie rank), where a larger rank means a smaller
label, so the max lands on the smallest label among equal counts.  The rank of
an int label is the int -label, so that comparing two values stays inside C;
any other label is wrapped in _TieRank, which also orders against those ints.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import product
from operator import itemgetter
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
        self._label_trees: Dict[object, PointMultiset] = {}
        self.heavy: set = set()
        # every query is an orthant: entry lo >= box lo, entry hi <= box hi
        self._tp = RangeTree(2 * d, mode="max", counter=self.counter,
                             sides=("ge",) * d + ("le",) * d)
        self._tp_keys: Dict[tuple, int] = {}           # (label, boxcoords, count) -> key
        self._tp_label: Dict[int, object] = {}
        self._label_box_keys: Dict[object, List[int]] = {}

    # ---------------- updates ----------------

    def _norm(self, coords) -> tuple:
        nc = tuple(coords)
        if len(nc) != self.d:
            raise ValueError("point dimension mismatch")
        return nc

    def _insert_raw(self, nc: tuple, label) -> None:
        if self.n_live >= self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        tree = self._label_trees.get(label)
        if tree is None:
            self._label_trees[label] = PointMultiset(self.d, [nc],
                                                     counter=self.counter)
        else:
            tree.add(nc)
        self._total[label] += 1
        self.n_live += 1

    def update(self, coords, label, insert: bool) -> None:
        nc = self._norm(coords)
        if insert:
            _check_label_order(self._total, (label,))
            self._insert_raw(nc, label)
        else:
            tree = self._label_trees.get(label)
            if tree is None or nc not in tree.occ:
                raise ValueError(f"delete of absent point {coords} label {label!r}")
            tree.remove(nc)
            self._total[label] -= 1
            if not self._total[label]:
                del self._total[label]
            self.n_live -= 1
        self._refresh_labels((label,))
        if _debug_on():
            self._debug_check()

    def bulk_insert(self, points) -> None:
        """Batch insert regenerating each touched label's boxes only once.

        A label new to the structure gets its count tree in one build over
        its batch points, with room 2 (see core_geom._Axis) since it will
        grow; the points of a label already there are added one by one.  A
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
        trees = self._label_trees
        for label, pts in by_label.items():
            tree = trees.get(label)
            if tree is None:
                trees[label] = PointMultiset(self.d, pts, counter=self.counter,
                                             room=2)
            else:
                for nc in pts:
                    tree.add(nc)
            self._total[label] += len(pts)
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
        for label in labels:
            fresh[label] = []
            if self._total[label] > self.B:
                self.heavy.add(label)
            else:
                self.heavy.discard(label)
                occ = self._label_trees[label].occ
                if occ:
                    fresh[label] = self._light_box_keys(label, occ)
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
        """Max-tree keys of every box spanned by a light label's points,
        declaring the (label, boxcoords, count) entries not seen before."""
        new_keys: List[int] = []
        axis_vals = [sorted({c[i] for c in occ}) for i in range(self.d)]
        ranges = [[(lo, hi) for li, lo in enumerate(vals) for hi in vals[li:]]
                  for vals in axis_vals]
        missing = []
        for combo in product(*ranges):
            cnt = 0
            for c, m in occ.items():
                if all(lo <= c[i] <= hi for i, (lo, hi) in enumerate(combo)):
                    cnt += m
            if cnt == 0:
                continue
            boxcoords = tuple(lo for lo, _ in combo) + tuple(hi for _, hi in combo)
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
            best = _best_count_1d(trees, self.heavy, box.intervals[0],
                                  self.counter)
        else:
            best = None
            for label in self.heavy:
                cnt = trees[label].count(box)
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
        first, second, third = itemgetter(0), itemgetter(1), itemgetter(2)
        tp = self._tp_keys
        self._tp_keys = dict(zip(zip(
            map(first, tp), _relabel(list(mappings) * 2, map(second, tp)),
            map(third, tp)), tp.values()))
        for ax in range(self.d):
            self._tp.replace_axis_values(ax, mappings[ax])
            self._tp.replace_axis_values(self.d + ax, mappings[ax])

    def _debug_check(self) -> None:
        for label, total in self._total.items():
            occ = self._label_trees[label].occ
            _invariant(total == sum(occ.values()), "label total")
            _invariant((label in self.heavy) == (total > self.B), "heavy set")
            active = self._label_box_keys.get(label, [])
            if label in self.heavy:
                _invariant(active == [], "heavy label has light boxes")
            else:
                cap = (self.B * (self.B + 1) // 2) ** self.d
                _invariant(len(active) <= cap, "light box count")
        _invariant(self.n_live == sum(self._total.values()) <= self.n_cap,
                   "live count")


# ---------------- sequence view ----------------

class SequenceAdapter:
    """Dynamic sequence with 1-based positional inserts and range mode queries.

    Positions map to int keys, the int K standing for the dyadic rational
    K / 2**KEY_SHIFT.  Each insert takes the midpoint (left + right) >> 1 of
    its neighbors, using fixed virtual boundary keys past either end (so
    repeated inserts at an end keep halving toward the boundary).  Between
    ops every live key and both bounds are multiples of 4, so the midpoint
    is exact and even; a midpoint that is not a multiple of 4 (denominator
    exponent REBUILD_EXP + 1) re-spaces the keys, and the backing structure
    is relabeled in place.  Live keys go to i << KEY_SHIFT.  A run of t dead
    keys, which still sit on the structure's axes, between the live keys
    base and base + 1 goes to base + s/(t+1) for s = 1..t: scaled by
    2**KEY_SHIFT, the exact image when that is an integer, otherwise the odd
    integer between the two even integers around it.  Later keys are always
    even, so a dead key equals a later key exactly when its rational image
    does, and orders against it the same way; the spare bit of KEY_SHIFT
    over REBUILD_EXP + 1 is what keeps the odd integers free.

    Besides the live keys, the adapter keeps only its dead keys (_dead:
    deleted and not issued again), which a re-spacing must still map.  It
    maps the live keys with one dict(zip(...)) over the new whole units and
    finds each dead run's base by bisecting the live keys.
    """

    REBUILD_EXP = 64
    KEY_SHIFT = REBUILD_EXP + 2

    def __init__(self, n_cap: int, B_override: Optional[int] = None,
                 counter: Optional[VisitCounter] = None):
        self.ds = DynRangeModeDS(1, n_cap, B_override=B_override, counter=counter)
        self.keys: List[int] = []
        self.values: List[object] = []
        self._dead: set = set()   # keys deleted and not issued again
        self._lo_bound = 0
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
        left = self.keys[pos - 2] if pos >= 2 else self._lo_bound
        right = self.keys[pos - 1] if pos <= n else self._hi_bound
        key = (left + right) >> 1
        # the structure refuses (past cap, or an unordered label) before it
        # changes anything, so the adapter must not change before it either
        self.ds.update((key,), value, insert=True)
        self.keys.insert(pos - 1, key)
        self.values.insert(pos - 1, value)
        self._dead.discard(key)
        if key & 3:
            self._rebuild()

    def delete(self, pos: int) -> None:
        n = len(self.values)
        if not 1 <= pos <= n:
            raise ValueError(f"delete position {pos} out of range 1..{n}")
        key = self.keys.pop(pos - 1)
        value = self.values.pop(pos - 1)
        self.ds.update((key,), value, insert=False)
        self._dead.add(key)

    def query(self, l: int, r: int) -> Tuple[object, int]:
        if not 1 <= l <= r <= len(self.values):
            raise ValueError(f"bad range [{l}, {r}] for length {len(self.values)}")
        got = self.ds.query(Box.closed((self.keys[l - 1],), (self.keys[r - 1],)))
        if got is None:
            raise RuntimeError(f"no mode found in the non-empty range [{l}, {r}]")
        return got

    def _rebuild(self) -> None:
        """Re-space live keys to whole units via an order-preserving relabel."""
        self.rebuilds += 1
        shift = self.KEY_SHIFT
        keys = self.keys
        n = len(keys)
        spaced = list(range(1 << shift, (n + 1) << shift, 1 << shift))
        mapping = dict(zip(keys, spaced))
        dead = sorted(self._dead)
        i = 0
        while i < len(dead):
            # the run of dead keys between live keys base - 1 and base
            base = bisect_left(keys, dead[i])
            j = bisect_left(dead, keys[base], i) if base < n else len(dead)
            t = j - i
            for s in range(1, t + 1):
                q, rem = divmod((base * (t + 1) + s) << shift, t + 1)
                mapping[dead[i + s - 1]] = q | 1 if rem else q
            i = j
        self.ds.remap_axis_values([mapping])
        self.keys = spaced
        self._dead = set(map(mapping.__getitem__, dead))
        self._lo_bound = 0
        self._hi_bound = (n + 1) << shift


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
