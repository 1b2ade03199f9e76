"""Exact coordinates, boxes, toggleable range trees, and orthant decomposition.

Every coordinate is exact: a plain int or a fractions.Fraction, which compare
with each other across denominators.  No floats anywhere.  Python integers are
arbitrary precision, so arithmetic can never overflow silently; the
checked-arithmetic requirement holds by construction.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right, insort
from collections import Counter, _count_elements
from itertools import chain, compress, islice
from operator import itemgetter, lt, ne
from typing import Collection, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Interval",
    "Box",
    "PointScan",
    "VisitCounter",
    "RangeTree",
    "PointMultiset",
    "orthant_union_decompose",
]

# DYNDS_DEBUG_ASSERT=1 turns on the structures' invariant checks after every
# update; read once, when dynds is imported.
_DEBUG_ASSERT = os.environ.get("DYNDS_DEBUG_ASSERT") == "1"


def _debug_on() -> bool:
    return _DEBUG_ASSERT


def _invariant(ok: bool, what: str) -> None:
    """A debug invariant check; raises under `python -O` too."""
    if not ok:
        raise RuntimeError(f"invariant broken: {what}")


class Interval:
    """One axis of a box.  None bounds mean -inf/+inf and are always open."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo, hi, lo_closed: bool = True, hi_closed: bool = True):
        if lo is None:
            lo_closed = False
        if hi is None:
            hi_closed = False
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError(f"empty interval: lo={lo!r} > hi={hi!r}")
            if lo == hi and not (lo_closed and hi_closed):
                raise ValueError("degenerate interval needs closed ends")
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed

    @classmethod
    def all(cls) -> "Interval":
        return cls(None, None)

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(lo, hi)

    @classmethod
    def at_most(cls, hi) -> "Interval":
        return cls(None, hi)

    @classmethod
    def at_least(cls, lo) -> "Interval":
        return cls(lo, None)

    def contains(self, x) -> bool:
        lo, hi = self.lo, self.hi
        return ((lo is None or (lo <= x if self.lo_closed else lo < x)) and
                (hi is None or (x <= hi if self.hi_closed else x < hi)))

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo, self.hi, self.lo_closed, self.hi_closed) == \
            (other.lo, other.hi, other.lo_closed, other.hi_closed)

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    def __repr__(self):
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


class Box:
    """Axis-aligned box: one Interval per axis."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[Interval]):
        self.intervals = tuple(intervals)

    @classmethod
    def closed(cls, lows: Sequence, highs: Sequence) -> "Box":
        return cls([Interval.closed(l, h) for l, h in zip(lows, highs)])

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, p) -> bool:
        if len(p) != len(self.intervals):
            raise ValueError("dimension mismatch")
        return all(map(Interval.contains, self.intervals, p))

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return "Box(" + " x ".join(repr(iv) for iv in self.intervals) + ")"


def _check_label_order(live, labels) -> None:
    """Raise TypeError if a label not in `live` cannot be ordered.

    Each new label is compared once with a live label (or, with none live,
    with the first new one), as a scan that breaks ties by the smallest
    label needs.
    """
    ref = next(iter(live), None)
    for label in labels:
        if label in live:
            continue
        if ref is None:
            ref = label
            continue
        try:
            ref < label
        except TypeError:
            raise TypeError(f"label {label!r} cannot be ordered with "
                            f"label {ref!r}") from None


class PointScan:
    """Scan oracle for the labelled-point structures (`DynRangeModeDS`,
    `DynColorCountDS`): a point list, and `query(box)` is `scan(points,
    box)`.  Rejects the dimension and capacity that their constructors
    reject, a point or box of another dimension than d, with their texts,
    and an insert that would pass the capacity.  When the scan orders
    labels (its `orders_labels` attribute is true, as `mode_oracle`'s is),
    an insert of a label that cannot be ordered with a live one is refused
    as `DynRangeModeDS` refuses it."""

    def __init__(self, scan, d: int, n_cap: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        self.scan = scan
        self.d = d
        self.n_cap = n_cap
        self.pts: List[Tuple[tuple, object]] = []
        # live label -> count, in the order DynRangeModeDS keeps them, for
        # a scan that orders labels
        self.labels = {} if getattr(scan, "orders_labels", False) else None

    def update(self, coords, label, insert: bool) -> None:
        nc = tuple(coords)
        if len(nc) != self.d:
            raise ValueError("point dimension mismatch")
        labels = self.labels
        if not insert:
            try:
                self.pts.remove((nc, label))
            except ValueError:
                raise ValueError(f"delete of absent point {coords} "
                                 f"label {label!r}") from None
            if labels is not None:
                left = labels[label] - 1
                if left:
                    labels[label] = left
                else:
                    del labels[label]
            return
        if labels is not None and label not in labels:
            _check_label_order(labels, (label,))
        if len(self.pts) >= self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        self.pts.append((nc, label))
        if labels is not None:
            labels[label] = labels.get(label, 0) + 1

    def query(self, box: Box):
        if box.dim != self.d:
            raise ValueError("query box dimension mismatch")
        return self.scan(self.pts, box)


class VisitCounter:
    """Shared counter of canonical-cell touches.  Every structure's work,
    rebuilds included, is counted; a caller that wants the cost of some ops
    alone reads `count` before and after them."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, k: int = 1) -> None:
        self.count += k


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


# Relabel thresholds of an _Axis (see its docstring): a window of at most
# 2**BLOCK_LEVEL leaves may fill up; above that, the share of a window's
# leaves that its values may use falls linearly with its height, from 1 to
# ROOT_DENSITY = (num, den) for the whole axis.
BLOCK_LEVEL = 2
ROOT_DENSITY = (1, 2)


def _spread(start: int, size: int, count: int) -> List[int]:
    """count rising slots evenly over the leaves [start, start + size),
    each in the middle of its share."""
    return [start + (2 * i + 1) * size // (2 * count) for i in range(count)]


def _window_slots(start: int, size: int, count: int, front: bool,
                  back: bool) -> List[int]:
    """Slots of a relabelled window of count values.  A new axis minimum
    (front) or maximum (back) keeps half of the window's free leaves on
    its outer side, so that a run of inserts at that end finds them."""
    outside = (size - count) // 2
    if front:
        return [start + outside] + _spread(start + outside + 1,
                                           size - outside - 1, count - 1)
    if back:
        return _spread(start, size - outside - 1, count - 1) + [
            start + size - 1 - outside]
    return _spread(start, size, count)


class _Axis:
    """Coordinate axis over an implicit segment tree of `leaves` leaf slots.

    `leaves` is a power of two and the sorted distinct `values` sit on
    strictly rising `slots`.  Every leaf has the same number of ancestors,
    so an axis's depth is set by `leaves` alone, and the free leaves between
    the values are what lets a new value in without moving others.

    A build puts value i of m on leaf start + room * i of next_pow2(room *
    m) leaves, with start centring the values.  room 1 packs them, with the
    fewest levels that m values allow (a sparse table with no slack where
    no insert comes: Itai, Konheim & Rodeh, ICALP 1981).  room 2 is for a
    tree built to grow: a free leaf in every gap, and the other free leaves
    split between the two ends, where the inserts of a sequence hammer.

    `insert` places one new value, as a packed-memory array does (Bender,
    Demaine & Farach-Colton, FOCS 2000; Bender & Hu's adaptive PMA, TODS
    2007, for inserts hammered at one end):
    - a free leaf in the value's gap takes it: the middle one of an inner
      gap, and the one next to its neighbour before the first or after the
      last value, so that a run of inserts at an end uses every free leaf;
    - otherwise the smallest aligned window around the gap that stays under
      its density bound is relabelled: its values, the new one among them,
      are re-spread evenly, except that a new axis minimum or maximum keeps
      half of the window's free leaves on its outer side.  A window of at
      most 2**BLOCK_LEVEL leaves (a block) may fill up, and then holds its
      values on consecutive leaves; one of height k > BLOCK_LEVEL, of h,
      may use 1 - (1 - ROOT_DENSITY) (k - BLOCK_LEVEL) / (h - BLOCK_LEVEL)
      of its leaves;
    - when even the whole axis would pass ROOT_DENSITY, `leaves` doubles
      and every value is re-spread.  So an axis that grew by inserts has
      fewer than 4 (m + 1) leaves.
    The owner re-places the entries on the moved values (RangeTree._move).

    The constants were chosen on the visits that `dynds crosscheck --seed
    3` counts, relabels included (861,345 as chosen), on the slots that the
    10,000 front inserts of tests/test_range_mode.py::
    test_front_insert_rebuild_stress move, each value of a doubled axis
    counted (11,023), and on the updates that move values in a perfbench
    seq-heavy-scan pass (seed 1: none of 237):
    - ROOT_DENSITY 3/4 counts 859,735 visits but moves 25,808 slots;
    - BLOCK_LEVEL 0, 1 and 3 count 909,251, 883,066 and 864,423;
    - an end window keeping 1/4 or 3/4 of its free leaves outside counts
      911,763 and 865,125 and moves 35,751 and 14,130 slots; keeping none
      counts 930,521 and moves 440,175;
    - room 1 for the label trees of DynRangeModeDS.bulk_insert moves
      values in 55 of the seq-heavy-scan updates, and so does an even
      spread of the built values in 18.
    """

    __slots__ = ("values", "slots", "slot_of", "leaves")

    def __init__(self, values: List, room: int = 1):
        self.values = list(values)  # sorted distinct
        m = len(self.values)
        self.leaves = _next_pow2(room * m)
        # centred: the free leaves beyond the gaps split between the ends
        start = (self.leaves - room * (m - 1)) // 2
        self.slots = list(range(start, start + room * m, room))
        self.slot_of = dict(zip(self.values, self.slots))

    def insert(self, v) -> Optional[List]:
        """Give the new value v a slot.

        Returns the values whose slots moved: none when v takes a free
        leaf, those of one relabelled window otherwise; or None when the
        axis doubled its leaves, which moves every slot.
        """
        values, slots, slot_of = self.values, self.slots, self.slot_of
        m = len(values)
        pos = bisect_left(values, v)
        lo = slots[pos - 1] + 1 if pos else 0
        hi = slots[pos] if pos < m else self.leaves
        if lo < hi:
            # an end insert takes the leaf next to its neighbour, so that a
            # run of them uses every free leaf; an inner one halves its gap
            slot = (hi - 1 if pos == 0 and m else
                    lo if pos == m and m else (lo + hi - 1) // 2)
            values.insert(pos, v)
            slots.insert(pos, slot)
            slot_of[v] = slot
            return []
        front, back = pos == 0, pos == m
        anchor = lo - 1 if pos else 0   # the occupied leaf before the gap
        leaves = self.leaves
        h = leaves.bit_length() - 1
        num, den = ROOT_DENSITY
        k0 = BLOCK_LEVEL
        for k in range(1, h + 1):
            size = 1 << k
            start = anchor >> k << k
            i0 = bisect_left(slots, start, 0, pos)
            i1 = bisect_left(slots, start + size, pos)
            count = i1 - i0 + 1
            # a block may fill up; above it, count / size <= 1 - (1 -
            # num/den) * (k - k0) / (h - k0)
            if (count <= size if k <= k0 else count * den * (h - k0) <= size
                    * (den * (h - k0) - (den - num) * (k - k0))):
                break
        else:
            values.insert(pos, v)
            self.leaves = 2 * leaves
            self.slots = _window_slots(0, 2 * leaves, m + 1, front, back)
            self.slot_of = dict(zip(values, self.slots))
            return None
        values.insert(pos, v)
        new = _window_slots(start, size, count, front, back)
        old = slots[i0:i1]
        old.insert(pos - i0, None)
        slots[i0:i1] = new
        moved = []
        for j, (a, b) in enumerate(zip(old, new), i0):
            if a != b:
                slot_of[values[j]] = b
                if a is not None:
                    moved.append(values[j])
        return moved

    def checked_insert(self, v) -> Optional[List]:
        """`insert(v)`, then a debug check of the layout and of what it
        returned, against the values, slots and leaves from before it."""
        values, slots, leaves = self.values[:], self.slots[:], self.leaves
        moved = self.insert(v)
        vals, new, m = self.values, self.slots, len(self.values)
        i = bisect_left(vals, v)
        _invariant(vals[i:i + 1] == [v] and values == vals[:i] + vals[i + 1:]
                   and 0 <= new[0] and new[-1] < self.leaves < 4 * (m + 1)
                   and all(map(lt, new, new[1:]))
                   and self.slot_of == dict(zip(vals, new)),
                   "axis layout: v added, slots rising in [0, leaves), "
                   "leaves < 4 (m + 1), slot_of the values' slots")
        _invariant(self.leaves == 2 * leaves if moved is None else
                   self.leaves == leaves and moved == list(compress(
                       values, map(ne, slots, new[:i] + new[i + 1:]))),
                   "axis insert returns the moved old values, or None "
                   "exactly when leaves doubled")
        return moved

    def ancestors(self, slot: int, side: str = "both") -> List[int]:
        """The leaf's ancestors, leaf first and root last; on a one-sided
        axis only those that its queries read (see RangeTree)."""
        node = slot + self.leaves
        nodes = [node >> i for i in range(node.bit_length())]
        if side == "both":
            return nodes
        odd = side == "ge"
        return [n for n in nodes if n & 1 == odd or n == 1]


def _value_range(vals: list, lo, lo_closed: bool, hi,
                 hi_closed: bool) -> Tuple[int, int]:
    """The index range [i, j) of the sorted vals between the bounds (a None
    bound is unbounded), by two bisects; empty when i >= j."""
    if lo is None:
        i = 0
    else:
        i = bisect_left(vals, lo) if lo_closed else bisect_right(vals, lo)
    if hi is None:
        j = len(vals)
    else:
        j = bisect_right(vals, hi) if hi_closed else bisect_left(vals, hi)
    return i, j


def _leaf_range(axis: _Axis, i: int, j: int) -> Tuple[int, int]:
    """The node ids [l, r) of a leaf range whose bottom-up canonical walk
    covers the axis values [i, j), i < j.

    The values' leaf range is widened over the free leaves on either side,
    to the leaf with the most trailing zeros in each gap (a < b: clear b's
    bits below the highest bit where a and b differ), and to the axis end
    past the first or the last value.  Free leaves hold no entry, so the
    walk covers the same entries with fewer nodes.
    """
    slots = axis.slots
    leaves = axis.leaves
    if i:
        b = slots[i]
        t = (slots[i - 1] ^ b).bit_length() - 1
        l = leaves + (b >> t << t)
    else:
        l = leaves
    if j < len(slots):
        b = slots[j]
        t = (slots[j - 1] ^ b).bit_length() - 1
        r = leaves + (b >> t << t)
    else:
        r = 2 * leaves
    return l, r


def _walk(axis: _Axis, i: int, j: int, stride: int) -> List[int]:
    """The bottom-up canonical nodes of the values [i, j)'s leaf range, each
    scaled by stride."""
    l, r = _leaf_range(axis, i, j)
    nodes = []
    while l < r:
        if l & 1:
            nodes.append(l * stride)
            l += 1
        if r & 1:
            r -= 1
            nodes.append(r * stride)
        l >>= 1
        r >>= 1
    return nodes


class RangeTree:
    """Static-universe d-dim range tree with activation toggles.

    Entries are (coords, value) pairs declared up front; keys are their
    positions in declaration order.  All entries start inactive.  They are
    stored by column, one list of coordinates per axis and one of values,
    all indexed by key, so an entry costs one pointer per axis and no tuple,
    and an axis relabel rewrites only that axis's list.  Modes:
    "count" (box count of active entries, also serves emptiness) and "max"
    (max value with witness key, ties to the smallest key).

    Realized as a sparse dictionary of canonical cells: per axis an implicit
    segment tree over the compressed coordinates, a cell per tuple of
    per-axis nodes.  The visit counter increments once per cell touched.

    An entry's cells, cached per key, are its leaf's kept ancestors (see
    `sides` below) on every axis combined: cell ids start as [0] and each
    axis in turn replaces the list with every id plus every (node * stride)
    of that axis.  A
    count-mode activation adds one to each of them in C, through
    collections._count_elements.

    Entries activated together are placed in one pass (_place): the build
    and self-rebuild of a PointMultiset, and the relayout after an axis
    doubles.  Their cell lists are built axis by axis over the whole batch
    (_cell_lists), one comprehension per axis and none of the per-key
    calls of _cells; a count tree adds them all in one _count_elements,
    and the visits are charged in one add.  The cached lists, cells and
    visits are those of one toggle per key.  Measured on a 2-CPU x86-64
    VM (Python 3.11): SequenceAdapter.from_values over 19,683 values, 243
    label trees of about 81 points, took 0.55-0.75x the time of one
    toggle per point (112-144 ms against 183-213 ms, five alternating
    pairs of processes, best of 15 builds each).

    A query builds its box's cell ids the same way, in one loop over the
    axes (_query_ids): per axis it bisects the bounds to the index range
    [i, j) of the values inside them (_value_range), widens their leaf
    range over the free leaves on either side (_leaf_range), walks that
    range's bottom-up canonical nodes, scales each by the axis stride
    (_walk) and combines them with the ids so far.  An empty axis range
    ends the query with no visit; a 0-dim tree has the one cell 0.  count
    sums the ids' cells and max_entry takes the max top of those that
    exist, both through map over dict.get, so the per-cell reads run in C.

    Each axis caches its scaled walks by (i, j) in `_walks[ax]`, so a
    range asked again costs two bisects and one dict get: memoised
    canonical decompositions of the range tree (Bentley,
    "Multidimensional divide-and-conquer", CACM 1980).  Every insert into
    an axis shifts its value indices, so `extend` clears that axis's cache
    after each one, as a relabel of a packed-memory array resets its
    positions (Bender, Demaine & Farach-Colton, FOCS 2000);
    `_recompute_strides`, at build and at relayout, starts every cache
    empty, and `replace_axis_values` keeps order and slots, so the cached
    walks stay right.  An axis cache that
    reaches 2 * len(values) + 16 walks is cleared, PointMultiset's rule, so
    it holds O(values) lists.  Under DYNDS_DEBUG_ASSERT every hit is
    compared with a fresh walk.  Measured hit rates: 93.0% of 1,894 axis
    lookups in one perfbench drm2-light-churn pass (seed 1), 88.4% of
    81,113 in `dynds crosscheck --seed 3` and 88.1% of 83,179 at --seed 0;
    no cache ever reached its bound.  perfbench seq-heavy-scan makes none:
    its 1-dim heavy scan (_best_count_1d) bypasses _query_ids.  In 10
    alternating pairs of perfbench runs (2-CPU x86-64 VM, Python 3.11),
    drm2-light-churn query_p50_ms fell from 0.0304 to 0.0255 ms (0.837x
    the uncached walks), lower in 10 of 10 pairs, with the same visits.

    `sides` gives each axis "both" (the default), "le" or "ge".  A prefix
    range (unbounded below) starts its walk at the axis's first leaf, a
    power of two at every level, so it reads only right ends r - 1, which
    are even (left children), and the root for the whole axis; a suffix
    range (unbounded above) ends at the last leaf and reads only left ends,
    which are odd (right children, the root among them).  An axis asked
    only prefixes is "le", and an entry's cells keep only its even
    ancestors and the root there; an axis asked only suffixes is "ge", and
    they keep only its odd ancestors.  A box bounded on a side that its
    axis does not keep raises ValueError.  Queries read the same cells as
    with every ancestor kept, and a toggle writes about half of them per
    one-sided axis: the binary indexed tree's trade (Fenwick, SP&E 1994),
    kept inside this cell layout.  Trees asked two-sided boxes keep "both",
    since inclusion-exclusion over prefixes would multiply their query
    cells.  Measured: the max tree of DynRangeModeDS, asked only orthants,
    falls from 231.2 to 24.8 visits per op on perfbench drm2-light-churn
    (seed 1); `dynds crosscheck --seed 3` counts 757,718 visits, where
    all-"both" trees count 1,134,486; and the skyline3d bench at n = 4096
    145,350, where it counted 546,619.

    The axes are laid out as `_Axis` describes.  The constructor builds
    them over the entries it is given, with `room` leaves per value (see
    _Axis); `extend` places new coordinate values one at a time.  Every
    change of layout is paid in counted visits: a local relabel touches
    only the changed cells of the entries on the moved values, and a
    doubled axis re-places every active entry, like a toggle each.

    A max-mode cell is a pair [top, members]: the cached max item and a
    {key: item} dict of the active entries under it, items being
    (value, -key) so that ties go to the smallest key.  An add compares once
    against the top, and max_entry reads the top.  Removing the top rescans
    the remaining members, so that removal costs O(cell size) where a sorted
    cell would pay O(log size); every other removal is O(1).  On the
    perfbench drm2-light-churn workload (seed 1, one pass of 400 ops after
    set-up), 17.1% of 3,613 cell removals took the top of a cell that kept
    other members, and those rescans read 6.1 members on average and 70 at
    most.  Each of these compares
    items, so values should compare in C: DynRangeModeDS stores an int
    label's value as the int tuple (count, -label) for that reason.
    """

    def __init__(self, dim: int, entries: Iterable[Tuple[Sequence, object]] = (),
                 mode: str = "count", counter: Optional[VisitCounter] = None,
                 room: int = 1, sides: Optional[Sequence[str]] = None):
        if mode not in ("count", "max"):
            raise ValueError(f"unknown mode {mode!r}")
        self.sides = ("both",) * dim if sides is None else tuple(sides)
        if len(self.sides) != dim or not set(self.sides) <= {"both", "le",
                                                             "ge"}:
            raise ValueError(f"sides must be {dim} of 'both', 'le', 'ge'")
        self.dim = dim
        self.mode = mode
        self.counter = counter if counter is not None else VisitCounter()
        self._cols: List[list] = [[] for _ in range(dim)]  # coord per key
        self._values: list = []
        self._active: List[bool] = []
        self._cells_of: List[Optional[List[int]]] = []
        # per axis, the keys sorted by their coordinate on it: built at the
        # axis's first relabel (see _move)
        self._order: List[Optional[List[int]]] = [None] * dim
        self._count_cells = {}
        self._max_cells = {}
        self._declare(entries)
        self._axes = [_Axis(sorted(set(col)), room) for col in self._cols]
        self._recompute_strides()

    # ---------------- universe management ----------------

    def _declare(self, entries) -> List[int]:
        cols, values = self._cols, self._values
        start = len(values)
        for coords, value in entries:
            coords = tuple(coords)
            if len(coords) != self.dim:
                raise ValueError("entry dimension mismatch")
            for col, c in zip(cols, coords):
                col.append(c)
            values.append(value)
            self._active.append(False)
            self._cells_of.append(None)
        return list(range(start, len(values)))

    def _recompute_strides(self) -> None:
        """Each axis's stride, and an empty walk cache per axis: a stride
        change rescales every cached walk."""
        stride = 1
        self._strides = [0] * self.dim
        for ax in range(self.dim - 1, -1, -1):
            self._strides[ax] = stride
            stride *= 2 * self._axes[ax].leaves
        self._walks = [{} for _ in range(self.dim)]

    def _relayout(self) -> None:
        """Re-place every active entry after an axis doubled its leaves,
        which changes every cell id: counted like toggles."""
        self._recompute_strides()
        self._cells_of = [None] * len(self._values)
        self._count_cells = {}
        self._max_cells = {}
        self._place(list(compress(range(len(self._active)), self._active)))

    def _move(self, ax: int, moved: List) -> None:
        """Re-place the entries whose axis-ax value moved to another slot.

        Each active entry on a moved value recomputes its cells, and only
        the set difference is touched, and counted: the cells it left and
        the cells it entered.  The entries are found through the axis's key
        order (keys sorted by their axis-ax value), built at the axis's
        first relabel.
        """
        col = self._cols[ax]
        get = col.__getitem__
        order = self._order[ax]
        if order is None:
            order = self._order[ax] = sorted(range(len(col)), key=get)
        cells_of, active = self._cells_of, self._active
        for v in moved:
            for key in order[bisect_left(order, v, key=get):
                             bisect_right(order, v, key=get)]:
                old = cells_of[key]
                if old is None:
                    continue
                cells_of[key] = None
                if active[key]:
                    new = self._cells(key)
                    old = set(old)
                    self._apply(key, -1, old.difference(new))
                    self._apply(key, +1, set(new).difference(old))

    def extend(self, entries) -> List[int]:
        """Declare additional universe entries; returns their keys.

        Each new coordinate value takes a free leaf when its gap has one.
        Otherwise its axis relabels one window, and only the entries on the
        moved values are re-placed (`_move`), or the axis doubles, and every
        active entry is re-placed once after the last value (`_relayout`).
        Both are counted visits (see `_Axis` for the layout and the
        measurements behind its constants).
        """
        start = len(self._values)
        keys = self._declare(entries)
        relayout = False
        debug = _debug_on()
        for ax, (axis, col) in enumerate(zip(self._axes, self._cols)):
            order = self._order[ax]
            if order is not None:
                for key in keys:
                    insort(order, key, key=col.__getitem__)
            slot_of = axis.slot_of
            for v in col[start:]:
                if v in slot_of:
                    continue
                moved = axis.checked_insert(v) if debug else axis.insert(v)
                # every insert shifts the value indices that key the walks
                self._walks[ax].clear()
                slot_of = axis.slot_of
                if moved is None:
                    relayout = True
                elif moved and not relayout:
                    self._move(ax, moved)
        if relayout:
            self._relayout()
        return keys

    def replace_axis_values(self, ax: int, mapping: dict) -> None:
        """Order-preserving relabel of one axis's coordinate values.

        Every universe value on the axis must appear in the mapping and the
        new values must keep the old strict order, so no cell changes.
        """
        axis = self._axes[ax]
        new_vals = list(map(mapping.__getitem__, axis.values))
        if not all(map(lt, new_vals, islice(new_vals, 1, None))):
            raise ValueError("mapping does not preserve order")
        # every column value is an axis value, so this cannot fail midway
        self._cols[ax] = list(map(mapping.__getitem__, self._cols[ax]))
        axis.values = new_vals
        axis.slot_of = dict(zip(new_vals, axis.slots))

    # ---------------- toggling ----------------

    def _cells(self, key: int) -> List[int]:
        cached = self._cells_of[key]
        if cached is not None:
            return cached
        cells = None
        for axis, stride, col, side in zip(self._axes, self._strides,
                                           self._cols, self.sides):
            nodes = [n * stride
                     for n in axis.ancestors(axis.slot_of[col[key]], side)]
            cells = nodes if cells is None else [a + b for a in cells
                                                 for b in nodes]
        cells = self._cells_of[key] = cells or [0]
        return cells

    def _place(self, keys: Sequence[int]) -> None:
        """Add the cells of keys, none of them placed, as a toggle of each
        to active would: the same cached lists, cells and visits.  Their
        lists come from `_cell_lists`; a count tree adds them all in one
        `_count_elements` and charges the visits in one add, a max tree
        adds each by `_apply`.

        Every batch takes this one path, however small.  A lone key placed
        by it costs about 1.4-1.5x a toggle (small trees, 2-CPU x86-64 VM,
        Python 3.11), some 1-3 us; `dynds crosscheck --seed 3` places one
        or two keys 1,023 times, and none at all 52 times, a few ms of its
        1.8 s.  The label-tree builds of the perfbench drm2 and seq
        workloads place 4 keys or more.
        """
        lists = self._cell_lists(keys)
        cells_of = self._cells_of
        for key, cells in zip(keys, lists):
            cells_of[key] = cells
        if self.mode == "count":
            self.counter.add(sum(map(len, lists)))
            _count_elements(self._count_cells, chain.from_iterable(lists))
        else:
            for key, cells in zip(keys, lists):
                self._apply(key, +1, cells)
        if _DEBUG_ASSERT:
            for key, cells in zip(keys, lists):
                cells_of[key] = None
                _invariant(self._cells(key) == cells, "a placed key's cells "
                           "are their per-key recomputation")
                cells_of[key] = cells

    def _cell_lists(self, keys: Sequence[int]) -> List[List[int]]:
        """The keys' cell lists as `_cells` builds them, axis by axis over
        the whole batch: the keys' leaf nodes as one column, then per key
        its ancestors, kept by parity on a one-sided axis and scaled by the
        stride, and their product with the ids of the axes before.

        Each key's ancestors are made together, key after key.  Made level
        by level instead, one shift of the whole column per level, they
        cost the same here, but each key's cell ids lie spread over the
        heap, and later ops on the tree slow down: perfbench seq-heavy-scan
        update_p50_ms read 1.03-1.06x the parent's, higher in 8-9 of 10
        pairs, where this order reads 1.00x.
        """
        lists = None
        for axis, stride, col, side in zip(self._axes, self._strides,
                                           self._cols, self.sides):
            slot_of, leaves = axis.slot_of, axis.leaves
            leaf = [slot_of[c] + leaves for c in map(col.__getitem__, keys)]
            levels = range(leaves.bit_length())
            # per key, its ancestors leaf first and root last
            if side != "both":
                odd = side == "ge"
                nodes = [[n * stride for n in [v >> i for i in levels]
                          if n & 1 == odd or n == 1] for v in leaf]
            else:
                nodes = [[(v >> i) * stride for i in levels] for v in leaf]
            lists = (nodes if lists is None else
                     [[a + b for a in c for b in t]
                      for c, t in zip(lists, nodes)])
        return [[0] for _ in keys] if lists is None else lists

    def _apply(self, key: int, sign: int,
               cells: Optional[Collection[int]] = None) -> None:
        if cells is None:
            cells = self._cells(key)
        self.counter.add(len(cells))
        if self.mode == "count":
            cc = self._count_cells
            if sign > 0:
                # the C loop behind Counter.update, on a plain dict: a
                # Counter would slow count()'s get and the removals below
                _count_elements(cc, cells)
            else:
                for cid in cells:
                    left = cc[cid] - 1
                    if left:
                        cc[cid] = left
                    else:
                        del cc[cid]
        else:
            item = (self._values[key], -key)
            mc = self._max_cells
            if sign > 0:
                for cid in cells:
                    cell = mc.get(cid)
                    if cell is None:
                        mc[cid] = [item, {key: item}]
                    else:
                        cell[1][key] = item
                        if item > cell[0]:
                            cell[0] = item
            else:
                for cid in cells:
                    cell = mc[cid]
                    members = cell[1]
                    del members[key]
                    if not members:
                        del mc[cid]
                    elif cell[0][1] == item[1]:
                        cell[0] = max(members.values())

    def toggle(self, key: int, active: bool) -> None:
        """Idempotent activation toggle for a declared entry."""
        if not 0 <= key < len(self._values):
            raise KeyError(f"unknown entry key {key}")
        if self._active[key] == active:
            return
        self._active[key] = active
        self._apply(key, +1 if active else -1)

    def is_active(self, key: int) -> bool:
        return self._active[key]

    def active_keys(self) -> List[int]:
        return [k for k, a in enumerate(self._active) if a]

    def entry(self, key: int) -> Tuple[tuple, object]:
        return tuple([col[key] for col in self._cols]), self._values[key]

    def __len__(self) -> int:
        return len(self._values)

    # ---------------- queries ----------------

    def _query_ids(self, box: Box) -> Optional[List[int]]:
        """The box's canonical cell ids, or None when the box is empty.

        Each axis's walk comes from its cache, keyed by the value range
        that `_value_range` bisects, or on a miss from `_walk`; the 1-dim
        heavy scan `_best_count_1d` makes the same bisects and widening
        without the cache.  The list returned may be a cached walk itself,
        so `count`, `max_entry` and `is_empty` only read it: no caller may
        mutate it."""
        if box.dim != self.dim:
            raise ValueError("box dimension mismatch")
        ids = None
        for axis, stride, iv, side, walks in zip(self._axes, self._strides,
                                                 box.intervals, self.sides,
                                                 self._walks):
            if side != "both" and (iv.lo if side == "le" else iv.hi) \
                    is not None:
                raise ValueError(f"box bounded on a side that an {side!r} "
                                 f"axis does not keep")
            ij = _value_range(axis.values, iv.lo, iv.lo_closed, iv.hi,
                              iv.hi_closed)
            if ij[0] >= ij[1]:
                return None
            nodes = walks.get(ij)
            if nodes is None:
                nodes = _walk(axis, *ij, stride)
                if len(walks) >= 2 * len(axis.values) + 16:
                    walks.clear()
                walks[ij] = nodes
            elif _DEBUG_ASSERT:
                _invariant(nodes == _walk(axis, *ij, stride),
                           "a cached axis walk is its fresh walk")
            ids = nodes if ids is None else [a + b for a in ids for b in nodes]
        return [0] if ids is None else ids

    def count(self, box: Box) -> int:
        if self.mode != "count":
            raise ValueError("count() requires count mode")
        ids = self._query_ids(box)
        if ids is None:
            return 0
        self.counter.add(len(ids))
        # count cells hold positive counts, so dropping misses drops no hit
        return sum(filter(None, map(self._count_cells.get, ids)))

    def is_empty(self, box: Box) -> bool:
        if self.mode == "count":
            return self.count(box) == 0
        return self.max_entry(box) is None

    def max_entry(self, box: Box):
        """(value, key) of the max active entry in the box, or None.

        Ties in value go to the smallest key.
        """
        if self.mode != "max":
            raise ValueError("max_entry() requires max mode")
        ids = self._query_ids(box)
        if ids is None:
            return None
        self.counter.add(len(ids))
        tops = [cell[0] for cell in filter(None, map(self._max_cells.get, ids))]
        if not tops:
            return None
        best = max(tops)
        return best[0], -best[1]


def _relabel(mappings, coords):
    """The coordinate tuples `coords` relabelled through `mappings`, one
    mapping per axis: split into axis columns, each column mapped, zipped
    back into tuples, all in C with no Python frame per tuple."""
    return zip(*map(map, [m.__getitem__ for m in mappings], zip(*coords)))


class PointMultiset(RangeTree):
    """Count-mode RangeTree over a multiset of point tuples.

    Copy j of a point is an entry of its own: `occ` holds the live
    multiplicities, `n_live` their sum, and `keys` maps (point, j) to the
    entry key.  A removed copy stays declared, inactive, and the next add of
    that point reuses it, until a remove leaves more than 2 * n_live + 16
    declared entries: the tree then rebuilds itself in place, packed over
    its live points, with counted visits (global rebuilding, Overmars 1983).
    The constructor declares the given points at once, in order, then
    activates them in one batch placement (RangeTree._place), with the
    cells and visits of one toggle per point in the same order; `room` is
    RangeTree's.  A new color's tree is built over its first point, and a
    range-mode label's over its points when it turns heavy: of the 992
    builds of `dynds crosscheck --seed 3`, 611 are label trees, 261 are of
    one point (a color's) and 40 (skyline cores) of none.  One build over
    a point took 0.73x (1-D) and 0.95x (2-D) the time of an empty build
    and an add (medians of 21 runs of 2,000, 2-CPU x86-64 VM, Python
    3.11).  Under DYNDS_DEBUG_ASSERT every build, add and remove checks
    that n_live is the sum of occ, that at most 2 * n_live + 16 entries
    are declared and that the active keys are the live copies'.
    """

    def __init__(self, dim: int, points: Iterable[tuple] = (),
                 counter: Optional[VisitCounter] = None, room: int = 1,
                 sides: Optional[Sequence[str]] = None):
        points = list(points)
        super().__init__(dim, [(p, 1) for p in points], counter=counter,
                         room=room, sides=sides)
        n = self.n_live = len(points)
        # copy j of a point is its j-th occurrence in points
        occ = self.occ = Counter()
        keys = self.keys = {}
        for key, p in enumerate(points):
            copy = occ[p] = occ.get(p, 0) + 1
            keys[p, copy] = key
        self._active = [True] * n
        self._place(range(n))
        if _DEBUG_ASSERT:
            self._debug_check()

    def add(self, p: tuple) -> None:
        occ = self.occ
        occ[p] += 1
        copy = occ[p]
        key = self.keys.get((p, copy))
        if key is None:
            (key,) = self.extend([(p, 1)])
            self.keys[(p, copy)] = key
        self.toggle(key, True)
        self.n_live += 1
        if _DEBUG_ASSERT:
            self._debug_check()

    def remove(self, p: tuple) -> bool:
        """Deactivate the point's highest live copy; KeyError if absent.
        True when the tree then rebuilt itself."""
        occ = self.occ
        copy = occ[p]
        self.toggle(self.keys[(p, copy)], False)
        if copy == 1:
            del occ[p]
        else:
            occ[p] = copy - 1
        self.n_live -= 1
        rebuild = len(self) > 2 * self.n_live + 16
        if rebuild:  # in place, so that holders of the tree need no update
            self.__init__(self.dim, occ.elements(), self.counter,
                          sides=self.sides)
        elif _DEBUG_ASSERT:
            self._debug_check()
        return rebuild

    def _debug_check(self) -> None:
        occ, keys = self.occ, self.keys
        _invariant(self.n_live == sum(occ.values()),
                   "n_live is the sum of the live multiplicities")
        _invariant(len(self) <= 2 * self.n_live + 16,
                   "declared entries <= 2 n_live + 16")
        live = {keys.get((p, j)) for p, m in occ.items()
                for j in range(1, m + 1)}
        _invariant(live == set(compress(range(len(self)), self._active)),
                   "the active keys are the live copies' keys")

    def remap(self, mappings: Sequence[dict]) -> None:
        """Order-preserving coordinate relabel, one mapping per axis, of the
        tree and of the point-keyed `occ` and `keys`."""
        if len(mappings) != self.dim:
            raise ValueError("need one mapping per axis")
        for ax, mapping in enumerate(mappings):
            self.replace_axis_values(ax, mapping)
        # every live point has a key, so one relabelled tuple per declared
        # point serves both maps
        keys = self.keys
        points = list(map(itemgetter(0), keys))
        moved = list(_relabel(mappings, points))
        self.keys = dict(zip(zip(moved, map(itemgetter(1), keys)),
                             keys.values()))
        new_of = dict(zip(points, moved)).__getitem__
        occ = self.occ
        self.occ = Counter(dict(zip(map(new_of, occ), occ.values())))


def _best_count_1d(trees: dict, iv: Interval,
                   counter: VisitCounter) -> Optional[Tuple[object, int]]:
    """(label, count) of the label with the most active entries in iv
    among the 1-dim count trees trees[label], ties to the smallest label;
    None when every count is 0.

    One loop does what `tree.count(Box([iv]))` for every tree does, with no
    walk cache: per tree the two bisects of `_value_range`, the widening of
    `_leaf_range` and the bottom-up walk, with each cell read as the walk
    finds it (a 1-dim tree's stride is 1, so a node id is its cell id).  So
    it reads the same cells and makes the same visits, charged to counter
    in one add; counter is the trees' own, where `count` would charge them.
    The bisects are written inline: over 300 random ranges on the 243
    trees of the perfbench seq-heavy-scan sequence (one process on a 2-CPU
    x86-64 VM, Python 3.11), a `_value_range` call per tree made the loop
    1.1x slower; with the bisects of all the trees run first through map,
    in C, perfbench seq-heavy-scan query_p50_ms read 0.598 ms in median
    over 8 runs, against 0.570 ms inline and 0.575 ms before the split.
    """
    lo, lo_closed, hi, hi_closed = iv.lo, iv.lo_closed, iv.hi, iv.hi_closed
    best = None
    best_cnt = visits = 0
    for label, tree in trees.items():
        axis = tree._axes[0]
        vals = axis.values
        # _value_range, inline (see above)
        if lo is None:
            i = 0
        else:
            i = bisect_left(vals, lo) if lo_closed else bisect_right(vals, lo)
        if hi is None:
            j = len(vals)
        else:
            j = bisect_right(vals, hi) if hi_closed else bisect_left(vals, hi)
        if i >= j:
            continue
        l, r = _leaf_range(axis, i, j)
        get = tree._count_cells.get
        cnt = 0
        while l < r:
            if l & 1:
                cnt += get(l, 0)
                l += 1
                visits += 1
            if r & 1:
                r -= 1
                cnt += get(r, 0)
                visits += 1
            l >>= 1
            r >>= 1
        if cnt > best_cnt or (cnt and cnt == best_cnt and label < best):
            best, best_cnt = label, cnt
    counter.add(visits)
    return None if best is None else (best, best_cnt)


# ---------------- 3D orthant-union decomposition ----------------

def _staircase_span(xs: list, ys: list, x, y) -> Optional[Tuple[int, int]]:
    """One step of a descending-z sweep's (x, y) staircase, with xs
    ascending and ys descending strictly (Kung, Luccio & Preparata, JACM
    1975): None when a step weakly dominates (x, y), else the index range
    [lo, hi) of the steps that (x, y) weakly dominates, which it replaces.
    """
    hi = bisect_left(xs, x)
    if hi < len(xs):
        if ys[hi] >= y:
            return None
        if xs[hi] == x:
            hi += 1
    lo = hi
    while lo and ys[lo - 1] <= y:
        lo -= 1
    return lo, hi


def orthant_union_decompose(corners: Sequence) -> List[Box]:
    """Disjoint boxes covering the union of lower orthants Q(p) in 3D.

    Q(p) = (-inf, p.x] x (-inf, p.y] x (-inf, p.z].  One pass over the
    corners, stably sorted by descending z, keeps the staircase of (x, y)
    maxima through `_staircase_span` (a repeated corner is dominated there
    and changes nothing); every staircase strip is emitted once per
    contiguous lifetime.  At most 4*len(corners)+1 boxes.
    """
    if any(len(p) != 3 for p in corners):
        raise ValueError("corners must be 3-dimensional")
    xs: List = []      # maxima x, ascending
    ys: List = []      # maxima y, descending
    births: List = []  # z level the strip at this position was born at
    boxes: List[Box] = []

    def end(i, z):
        """Emit strip i, born at births[i], as dying at z (None: never)."""
        if z is not None and z == births[i]:
            return  # lived inside one level only
        boxes.append(Box([
            Interval(xs[i - 1] if i else None, xs[i], lo_closed=False,
                     hi_closed=True),
            Interval.at_most(ys[i]),
            Interval(z, births[i], lo_closed=False, hi_closed=True),
        ]))

    for qx, qy, z in sorted(corners, key=itemgetter(2), reverse=True):
        span = _staircase_span(xs, ys, qx, qy)
        if span is None:
            continue  # dominated (or duplicate): staircase unchanged
        lo, hi = span
        # strips of removed maxima end now (pre-removal left neighbors)
        for i in range(lo, hi):
            end(i, z)
        # right neighbor's lower x bound moves to qx: recreate its strip
        if hi < len(xs) and (xs[hi - 1] if hi else None) != qx:
            end(hi, z)
            births[hi] = z
        xs[lo:hi] = [qx]
        ys[lo:hi] = [qy]
        births[lo:hi] = [z]
    for i in range(len(xs)):
        end(i, None)
    if len(boxes) > 4 * len(corners) + 1:
        raise RuntimeError(
            f"{len(boxes)} boxes exceed the bound 4*{len(corners)}+1")
    return boxes
