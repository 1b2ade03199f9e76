"""Exact coordinates, boxes, toggleable range trees, and orthant decomposition.

Every coordinate is exact: a plain int or a fractions.Fraction, which compare
with each other across denominators.  No floats anywhere.  Python integers are
arbitrary precision, so arithmetic can never overflow silently; the
checked-arithmetic requirement holds by construction.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import Counter, _count_elements
from itertools import islice
from operator import itemgetter, lt
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Interval",
    "Box",
    "PointScan",
    "VisitCounter",
    "RangeTree",
    "PointMultiset",
    "RT_VISIT_C",
    "orthant_union_decompose",
]

# Visit-budget constant: one toggle or query on a d-dim tree with u universe
# entries touches at most RT_VISIT_C * (log2(u) + 1)**d canonical cells.
RT_VISIT_C = 300

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
        if self.lo is not None:
            if self.lo_closed:
                if x < self.lo:
                    return False
            elif x <= self.lo:
                return False
        if self.hi is not None:
            if self.hi_closed:
                if x > self.hi:
                    return False
            elif x >= self.hi:
                return False
        return True

    def intersects(self, other: "Interval") -> bool:
        # lo of the overlap vs hi of the overlap, minding open ends
        lo, lo_c = self.lo, self.lo_closed
        if other.lo is not None and (lo is None or other.lo > lo
                                     or (other.lo == lo and not other.lo_closed)):
            lo, lo_c = other.lo, other.lo_closed
        hi, hi_c = self.hi, self.hi_closed
        if other.hi is not None and (hi is None or other.hi < hi
                                     or (other.hi == hi and not other.hi_closed)):
            hi, hi_c = other.hi, other.hi_closed
        if lo is None or hi is None:
            return True
        if lo > hi:
            return False
        if lo == hi:
            return lo_c and hi_c
        return True

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
        pc = tuple(p)
        if len(pc) != self.dim:
            raise ValueError("dimension mismatch")
        return all(iv.contains(x) for iv, x in zip(self.intervals, pc))

    def intersects(self, other: "Box") -> bool:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return all(a.intersects(b) for a, b in zip(self.intervals, other.intervals))

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return "Box(" + " x ".join(repr(iv) for iv in self.intervals) + ")"


class PointScan:
    """Scan oracle for the labelled-point structures (`DynRangeModeDS`,
    `DynColorCountDS`): a point list, and `query(box)` is `scan(points,
    box)`.  Rejects the dimension and capacity that their constructors
    reject, and an insert that would pass the capacity."""

    def __init__(self, scan, d: int, n_cap: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if n_cap < 1:
            raise ValueError("capacity must be >= 1")
        self.scan = scan
        self.n_cap = n_cap
        self.pts: List[Tuple[tuple, object]] = []

    def update(self, coords, label, insert: bool) -> None:
        if not insert:
            try:
                self.pts.remove((tuple(coords), label))
            except ValueError:
                raise ValueError(f"delete of absent point {coords} "
                                 f"label {label!r}") from None
        elif len(self.pts) >= self.n_cap:
            raise ValueError(f"capacity {self.n_cap} exceeded")
        else:
            self.pts.append((tuple(coords), label))

    def query(self, box: Box):
        return self.scan(self.pts, box)


class VisitCounter:
    """Shared counter of canonical-cell touches; can be paused for rebuilds."""

    __slots__ = ("count", "_pause_depth")

    def __init__(self):
        self.count = 0
        self._pause_depth = 0

    def add(self, k: int = 1) -> None:
        if self._pause_depth == 0:
            self.count += k

    def pause(self) -> None:
        self._pause_depth += 1

    def resume(self) -> None:
        if self._pause_depth == 0:
            raise RuntimeError("counter not paused")
        self._pause_depth -= 1


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class _Axis:
    """Coordinate axis over an implicit segment tree of leaf slots.

    Two layouts.  Packed (`packed=True`): value i sits on leaf i of
    next_pow2(m) leaves, so a leaf has the fewest ancestors that m values
    allow.  The RangeTree constructor builds its axes packed, since it knows
    the whole universe (Itai, Konheim & Rodeh, ICALP 1981, on sparse tables:
    no slack where no insert comes).  Slack (the default): values occupy
    every fourth leaf of next_pow2(6m + 8) with wide end margins, so a new
    value between two existing ones usually takes a free slot without
    disturbing any other leaf index.  An empty tree starts slack, and the
    re-spread of an `extend` that finds no free slot is slack, so a tree
    that grows by `extend` keeps this layout.  try_insert returns None when
    the local gap is exhausted and the owner must re-spread (rebuild cells).
    """

    __slots__ = ("values", "slots", "slot_of", "leaves")

    def __init__(self, values: List, packed: bool = False):
        self.values = list(values)  # sorted distinct
        m = len(self.values)
        if packed:
            self.leaves = _next_pow2(m)
            self.slots = list(range(m))
        else:
            self.leaves = _next_pow2(6 * m + 8)
            start = (self.leaves - 4 * (m - 1)) // 2 if m else 0
            self.slots = [start + 4 * i for i in range(m)]
        self.slot_of = dict(zip(self.values, self.slots))

    def try_insert(self, v) -> Optional[int]:
        """Slot for a new value, or None when a re-spread is needed."""
        existing = self.slot_of.get(v)
        if existing is not None:
            return existing
        pos = bisect_left(self.values, v)
        if not self.values:
            slot = self.leaves // 2
        elif pos == 0:
            slot = self.slots[0] - 2
            if slot < 0:
                slot = self.slots[0] - 1
            if slot < 0:
                return None
        elif pos == len(self.values):
            slot = self.slots[-1] + 2
            if slot >= self.leaves:
                slot = self.slots[-1] + 1
            if slot >= self.leaves:
                return None
        else:
            a, b = self.slots[pos - 1], self.slots[pos]
            if b - a < 2:
                return None
            slot = (a + b) // 2
        self.values.insert(pos, v)
        self.slots.insert(pos, slot)
        self.slot_of[v] = slot
        return slot

    def ancestors(self, slot: int) -> List[int]:
        node = slot + self.leaves
        out = []
        while node:
            out.append(node)
            node >>= 1
        return out


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

    An entry's cells, cached per key, are its leaf's ancestors on every
    axis combined: cell ids start as [0] and each axis in turn replaces the
    list with every id plus every (node * stride) of that axis.  A
    count-mode activation adds one to each of them in C, through
    collections._count_elements.

    A query builds its box's cell ids the same way, in one loop over the
    axes (_query_ids): per axis it bisects the bounds to a slot range, walks
    the range's bottom-up canonical nodes, scales each by the axis stride
    and combines them with the ids so far.  An empty axis range ends the
    query with no visit; a 0-dim tree has the one cell 0.  count sums the
    ids' cells and max_entry takes the max top of those that exist, both
    through map over dict.get, so the per-cell reads run in C.

    A max-mode cell is a pair [top, members]: the cached max item and a
    {key: item} dict of the active entries under it, items being
    (value, -key) so that ties go to the smallest key.  An add compares once
    against the top, and max_entry reads the top.  Removing the top rescans
    the remaining members, so that removal costs O(cell size) where a sorted
    cell would pay O(log size); every other removal is O(1).  On the
    perfbench drm2-light-churn workload (seed 1, one pass of 400 ops after
    set-up), 14.9% of 135,168 cell removals took the top, and those rescans
    read 5.7 members on average and 164 at most.  Each of these compares
    items, so values should compare in C: DynRangeModeDS stores an int
    label's value as the int tuple (count, -label) for that reason.
    """

    def __init__(self, dim: int, entries: Iterable[Tuple[Sequence, object]] = (),
                 mode: str = "count", counter: Optional[VisitCounter] = None):
        if mode not in ("count", "max"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dim = dim
        self.mode = mode
        self.counter = counter if counter is not None else VisitCounter()
        self._cols: List[list] = [[] for _ in range(dim)]  # coord per key
        self._values: list = []
        self._active: List[bool] = []
        self._cells_of: List[Optional[List[int]]] = []
        self._axes: List[_Axis] = [_Axis([]) for _ in range(dim)]
        self._strides: List[int] = [1] * dim
        self._count_cells = {}
        self._max_cells = {}
        self._recompute_strides()
        ents = list(entries)
        if ents:
            self._declare(ents)
            self._rebuild_axes(packed=True)

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
        stride = 1
        self._strides = [0] * self.dim
        for ax in range(self.dim - 1, -1, -1):
            self._strides[ax] = stride
            stride *= 2 * self._axes[ax].leaves

    def _rebuild_axes(self, packed: bool = False) -> None:
        for ax, col in enumerate(self._cols):
            self._axes[ax] = _Axis(sorted(set(col)), packed)
        self._recompute_strides()
        self._cells_of = [None] * len(self._values)
        # re-place currently active entries into the fresh cells
        self._count_cells = {}
        self._max_cells = {}
        self.counter.pause()
        try:
            for key, act in enumerate(self._active):
                if act:
                    self._apply(key, +1)
        finally:
            self.counter.resume()

    def extend(self, entries) -> List[int]:
        """Declare additional universe entries.

        New coordinate values take free leaf slots when possible; a full
        re-spread rebuild, to the slack layout, happens only on local slot
        exhaustion, and rebuild visits are not counted (they amortize into
        pre-processing).
        """
        start = len(self._values)
        keys = self._declare(entries)
        for axis, col in zip(self._axes, self._cols):
            for v in col[start:]:
                if axis.try_insert(v) is None:
                    self._rebuild_axes()
                    return keys
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
        cells = [0]
        for axis, stride, col in zip(self._axes, self._strides, self._cols):
            nodes = [n * stride for n in axis.ancestors(axis.slot_of[col[key]])]
            cells = [a + b for a in cells for b in nodes]
        self._cells_of[key] = cells
        return cells

    def _apply(self, key: int, sign: int) -> None:
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
        """The box's canonical cell ids, or None when the box is empty."""
        if box.dim != self.dim:
            raise ValueError("box dimension mismatch")
        ids = None
        for axis, stride, iv in zip(self._axes, self._strides, box.intervals):
            vals = axis.values
            lo = iv.lo
            if lo is None:
                i = 0
            else:
                i = bisect_left(vals, lo) if iv.lo_closed \
                    else bisect_right(vals, lo)
            hi = iv.hi
            if hi is None:
                j = len(vals)
            else:
                j = bisect_right(vals, hi) if iv.hi_closed \
                    else bisect_left(vals, hi)
            if i >= j:
                return None
            # bottom-up canonical walk of the inclusive slot range
            leaves = axis.leaves
            l = axis.slots[i] + leaves
            r = axis.slots[j - 1] + leaves + 1
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
    multiplicities and `keys` maps (point, j) to the entry key.  A removed
    copy stays declared, inactive, and the next add of that point reuses it.
    The constructor declares the given points at once, in order, then
    activates them in the same order.
    """

    def __init__(self, dim: int, points: Iterable[tuple] = (),
                 counter: Optional[VisitCounter] = None):
        points = list(points)
        super().__init__(dim, [(p, 1) for p in points], counter=counter)
        self.occ: Counter = Counter()
        self.keys: dict = {}
        occ, keys = self.occ, self.keys
        for key, p in enumerate(points):
            occ[p] += 1
            keys[(p, occ[p])] = key
            self.toggle(key, True)

    def add(self, p: tuple) -> None:
        occ = self.occ
        occ[p] += 1
        copy = occ[p]
        key = self.keys.get((p, copy))
        if key is None:
            (key,) = self.extend([(p, 1)])
            self.keys[(p, copy)] = key
        self.toggle(key, True)

    def remove(self, p: tuple) -> None:
        """Deactivate the point's highest live copy; KeyError if absent."""
        occ = self.occ
        copy = occ[p]
        self.toggle(self.keys[(p, copy)], False)
        if copy == 1:
            del occ[p]
        else:
            occ[p] = copy - 1

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


# ---------------- 3D orthant-union decomposition ----------------

def orthant_union_decompose(corners: Sequence) -> List[Box]:
    """Disjoint boxes covering the union of lower orthants Q(p) in 3D.

    Q(p) = (-inf, p.x] x (-inf, p.y] x (-inf, p.z].  Sweeps z descending and
    maintains the 2D staircase of (x, y) maxima; every staircase strip is
    emitted once per contiguous lifetime.  At most 4*len(corners)+1 boxes.
    """
    pts = [tuple(p) for p in corners]
    if not pts:
        return []
    if any(len(p) != 3 for p in pts):
        raise ValueError("corners must be 3-dimensional")
    by_level = {}
    for x, y, z in pts:
        by_level.setdefault(z, []).append((x, y))
    levels = sorted(by_level, reverse=True)

    xs: List = []      # maxima x, ascending
    ys: List = []      # maxima y, descending
    births: List = []  # z level the strip at this position was born at
    boxes: List[Box] = []

    def emit(x_lo, x_hi, y, born, died):
        if died is not None and died == born:
            return  # lived inside one level only
        boxes.append(Box([
            Interval(x_lo, x_hi, lo_closed=False, hi_closed=True),
            Interval.at_most(y),
            Interval(died, born, lo_closed=False, hi_closed=True),
        ]))

    for z in levels:
        for qx, qy in by_level[z]:
            j = bisect_left(xs, qx)
            if j < len(xs) and ys[j] >= qy:
                continue  # dominated (or duplicate): staircase unchanged
            jr = bisect_right(xs, qx)
            i0 = jr
            while i0 > 0 and ys[i0 - 1] <= qy:
                i0 -= 1
            # strips of removed maxima end now (pre-removal left neighbors)
            for idx in range(i0, jr):
                emit(xs[idx - 1] if idx > 0 else None,
                     xs[idx], ys[idx], births[idx], z)
            # right neighbor's lower x bound moves to qx: recreate its strip
            if jr < len(xs):
                old_lo = xs[jr - 1] if jr > 0 else None
                if old_lo != qx:
                    emit(old_lo, xs[jr], ys[jr], births[jr], z)
                    births[jr] = z
            xs[i0:jr] = [qx]
            ys[i0:jr] = [qy]
            births[i0:jr] = [z]
    for idx in range(len(xs)):
        emit(xs[idx - 1] if idx > 0 else None, xs[idx], ys[idx], births[idx], None)
    if len(boxes) > 4 * len(pts) + 1:
        raise RuntimeError(f"{len(boxes)} boxes exceed the bound 4*{len(pts)}+1")
    return boxes
