"""Exact coordinates, boxes, toggleable range trees, and orthant decomposition.

Everything here works on exact values: plain ints, fractions.Fraction, or
ScaledInt (a raw integer plus a shared positive scale).  No floats anywhere.
Python integers are arbitrary precision, so raw arithmetic can never overflow
silently; the checked-arithmetic requirement holds by construction.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import _count_elements
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ScaledInt",
    "Point",
    "Interval",
    "Box",
    "PointScan",
    "VisitCounter",
    "RangeTree",
    "RT_VISIT_C",
    "dominates",
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


class ScaledInt:
    """Exact number raw/scale with integer raw and a fixed positive scale.

    Addition and subtraction require matching scales (mixing is an error).
    Ordering comparisons also require matching scales.  Equality and hashing
    are value-based so instances can key dictionaries.
    """

    __slots__ = ("raw", "scale")

    def __init__(self, raw: int, scale: int = 1):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.raw = raw
        self.scale = scale

    @classmethod
    def of(cls, value: int, scale: int = 1) -> "ScaledInt":
        """Exact representation of an integer value at the given scale."""
        return cls(value * scale, scale)

    @property
    def value(self) -> Fraction:
        return Fraction(self.raw, self.scale)

    def _require_same_scale(self, other: "ScaledInt") -> None:
        if self.scale != other.scale:
            raise ValueError(
                f"scale mismatch: {self.scale} vs {other.scale}")

    def __add__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return ScaledInt(self.raw + other.raw, self.scale)

    def __sub__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return ScaledInt(self.raw - other.raw, self.scale)

    def __neg__(self):
        return ScaledInt(-self.raw, self.scale)

    def __lt__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return self.raw < other.raw

    def __le__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return self.raw <= other.raw

    def __gt__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return self.raw > other.raw

    def __ge__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        self._require_same_scale(other)
        return self.raw >= other.raw

    def __eq__(self, other):
        if not isinstance(other, ScaledInt):
            return NotImplemented
        if self.scale == other.scale:
            return self.raw == other.raw
        return self.raw * other.scale == other.raw * self.scale

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        if self.scale == 1:
            return f"ScaledInt({self.raw})"
        return f"ScaledInt({self.raw}, scale={self.scale})"


class Point:
    """A point with exact coordinates and an optional opaque payload."""

    __slots__ = ("coords", "payload")

    def __init__(self, coords: Sequence, payload=None):
        self.coords = tuple(coords)
        self.payload = payload

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if isinstance(other, Point):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Point{self.coords}"


def _coords_of(p) -> tuple:
    return p.coords if isinstance(p, Point) else tuple(p)


def dominates(p, q) -> bool:
    """True iff q dominates p: q >= p coordinatewise and coords differ."""
    pc, qc = _coords_of(p), _coords_of(q)
    if len(pc) != len(qc):
        raise ValueError("dimension mismatch")
    return all(qi >= pi for pi, qi in zip(pc, qc)) and pc != qc


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

    @classmethod
    def open_closed(cls, lo, hi) -> "Interval":
        return cls(lo, hi, lo_closed=False, hi_closed=True)

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
        pc = _coords_of(p)
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
            self.pts.remove((tuple(coords), label))
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


def _norm_coord(c):
    return c.raw if isinstance(c, ScaledInt) else c


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class _Axis:
    """Coordinate axis over an implicit segment tree with slack leaf slots.

    Values occupy every fourth leaf with wide end margins, so a new value
    between two existing ones usually takes a free slot without disturbing
    any other leaf index.  try_insert returns None when the local gap is
    exhausted and the owner must re-spread (rebuild cells).
    """

    __slots__ = ("values", "slots", "slot_of", "leaves", "depth")

    def __init__(self, values: List):
        self.values = list(values)  # sorted distinct
        m = len(self.values)
        self.leaves = _next_pow2(6 * m + 8)
        self.depth = self.leaves.bit_length()  # ancestors per leaf
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
    positions in declaration order.  All entries start inactive.  Modes:
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
    perfbench drm2-light-churn workload (seed 1, one pass of 400 ops), 15%
    of cell removals took the top, and those rescans read 5.7 members on
    average and 164 at most.
    """

    def __init__(self, dim: int, entries: Iterable[Tuple[Sequence, object]] = (),
                 mode: str = "count", counter: Optional[VisitCounter] = None):
        if mode == "empty":
            mode = "count"
        if mode not in ("count", "max"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dim = dim
        self.mode = mode
        self.counter = counter if counter is not None else VisitCounter()
        self._entries: List[Tuple[tuple, object]] = []
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
            self._rebuild_axes()

    # ---------------- universe management ----------------

    def _declare(self, entries) -> List[int]:
        keys = []
        for coords, value in entries:
            nc = tuple(_norm_coord(c) for c in _coords_of(coords))
            if len(nc) != self.dim:
                raise ValueError("entry dimension mismatch")
            keys.append(len(self._entries))
            self._entries.append((nc, value))
            self._active.append(False)
            self._cells_of.append(None)
        return keys

    def _recompute_strides(self) -> None:
        stride = 1
        self._strides = [0] * self.dim
        for ax in range(self.dim - 1, -1, -1):
            self._strides[ax] = stride
            stride *= 2 * self._axes[ax].leaves

    def _rebuild_axes(self) -> None:
        for ax in range(self.dim):
            vals = sorted({c[ax] for c, _ in self._entries})
            self._axes[ax] = _Axis(vals)
        self._recompute_strides()
        self._cells_of = [None] * len(self._entries)
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
        re-spread rebuild happens only on local slot exhaustion, and rebuild
        visits are not counted (they amortize into pre-processing).
        """
        ents = [(coords, value) for coords, value in entries]
        keys = self._declare(ents)
        needs_rebuild = False
        for key in keys:
            nc, _ = self._entries[key]
            for ax in range(self.dim):
                if self._axes[ax].try_insert(nc[ax]) is None:
                    needs_rebuild = True
                    break
            if needs_rebuild:
                break
        if needs_rebuild:
            self._rebuild_axes()
        return keys

    def replace_axis_values(self, ax: int, mapping: dict) -> None:
        """Order-preserving relabel of one axis's coordinate values.

        Every universe value on the axis must appear in the mapping and the
        new values must keep the old strict order, so no cell changes.
        """
        axis = self._axes[ax]
        new_vals = [mapping[v] for v in axis.values]
        for a, b in zip(new_vals, new_vals[1:]):
            if not a < b:
                raise ValueError("mapping does not preserve order")
        axis.values = new_vals
        axis.slot_of = dict(zip(new_vals, axis.slots))
        self._entries = [
            (tuple(mapping[c] if i == ax else c for i, c in enumerate(nc)), val)
            for nc, val in self._entries
        ]

    # ---------------- toggling ----------------

    def _cells(self, key: int) -> List[int]:
        cached = self._cells_of[key]
        if cached is not None:
            return cached
        nc, _ = self._entries[key]
        cells = [0]
        for ax in range(self.dim):
            axis = self._axes[ax]
            stride = self._strides[ax]
            nodes = [n * stride for n in axis.ancestors(axis.slot_of[nc[ax]])]
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
            _, value = self._entries[key]
            item = (value, -key)
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
        if not 0 <= key < len(self._entries):
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
        return self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)

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
                if isinstance(lo, ScaledInt):
                    lo = lo.raw
                i = bisect_left(vals, lo) if iv.lo_closed \
                    else bisect_right(vals, lo)
            hi = iv.hi
            if hi is None:
                j = len(vals)
            else:
                if isinstance(hi, ScaledInt):
                    hi = hi.raw
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


# ---------------- 3D orthant-union decomposition ----------------

def orthant_union_decompose(corners: Sequence) -> List[Box]:
    """Disjoint boxes covering the union of lower orthants Q(p) in 3D.

    Q(p) = (-inf, p.x] x (-inf, p.y] x (-inf, p.z].  Sweeps z descending and
    maintains the 2D staircase of (x, y) maxima; every staircase strip is
    emitted once per contiguous lifetime.  At most 4*len(corners)+1 boxes.
    """
    pts = [_coords_of(p) for p in corners]
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
