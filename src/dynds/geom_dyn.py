"""Semi-online geometric maintenance: skyline counting, Klee volumes, halfspaces.

The engine here handles deletions whose time of death is announced at
insertion.  Work is split into windows of b operations; elements surviving
the whole window form a static core, preprocessed once and then advanced by
each window's difference, and the rest live in a small buffer that queries
scan against the core.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import compress, groupby, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .core_geom import (
    Box,
    Interval,
    PointMultiset,
    VisitCounter,
    _debug_on,
    _invariant,
    orthant_union_decompose,
)

__all__ = [
    "skyline_oracle",
    "maximal_flags",
    "maximal3d_flags",
    "SemiOnlineEngine",
    "Skyline3DBlock",
    "SkylineScan",
    "klee_union_volume",
    "klee_union_volume_ie",
    "HalfspaceSystem",
    "HalfspaceScan",
]


# ---------------- skyline oracles ----------------

def maximal_flags(points: Sequence[tuple]) -> List[bool]:
    """Occurrence i is maximal iff no other occurrence dominates it
    coordinatewise (equal duplicates kill each other).

    Bitset method (Tan, Eng & Ooi, VLDB 2001): on each axis the indices are
    sorted by descending coordinate; walking the groups of equal values,
    1 << i joins a running mask for every member of the group, and the mask
    (the occurrences at least as large on that axis) is ANDed into weak[i]
    for every member.  weak[i] ends as the set of occurrences weakly
    dominating i, i itself included, so i is maximal iff weak[i] == 1 << i.
    Cost: d sorts of n indices (O(d*n log n) comparisons) plus d*n ANDs of
    n-bit ints, in place of the O(d*n**2) comparisons of a pairwise scan.
    Coordinates are compared with < and == only.  Points of different
    dimensions raise ValueError.
    """
    n = len(points)
    if not n:
        return []
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    weak = [(1 << n) - 1] * n
    for ax in range(d):
        coord = [p[ax] for p in points].__getitem__
        mask = 0
        for _, group in groupby(sorted(range(n), key=coord, reverse=True),
                                key=coord):
            group = list(group)
            for i in group:
                mask |= 1 << i
            for i in group:
                weak[i] &= mask
    return [w == 1 << i for i, w in enumerate(weak)]


def skyline_oracle(points: Sequence[tuple]) -> int:
    return sum(maximal_flags(points))


def maximal3d_flags(points: Sequence[tuple]) -> List[bool]:
    """Sweep version of maximal_flags for 3D, O(n log n).  Points that are
    not 3-dimensional raise ValueError."""
    if any(len(p) != 3 for p in points):
        raise ValueError("points must be 3-dimensional")
    n = len(points)
    order = sorted(range(n), key=lambda i: -points[i][2])
    flags = [False] * n
    # staircase over (x, y): xs ascending, ys strictly descending
    xs: List = []
    ys: List = []
    from bisect import bisect_left, insort

    def dominated(x, y) -> bool:
        # some staircase point has x' >= x and y' >= y
        i = bisect_left(xs, x)
        return i < len(xs) and ys[i] >= y

    def push(x, y):
        i = bisect_left(xs, x)
        if i < len(xs) and ys[i] >= y:
            return
        # drop points with x' <= x and y' <= y
        j = i
        while j > 0 and ys[j - 1] <= y:
            j -= 1
        del xs[j:i], ys[j:i]
        xs.insert(j, x)
        ys.insert(j, y)

    i = 0
    while i < n:
        j = i
        z = points[order[i]][2]
        while j < n and points[order[j]][2] == z:
            j += 1
        group = order[i:j]
        coords = Counter((points[g][0], points[g][1]) for g in group)
        # within the group a distinct (x, y) survives iff it beats every
        # strictly larger x and is the unique max y at its own x
        per_x: Dict = {}
        for (x, y), c in coords.items():
            per_x.setdefault(x, []).append(y)
        surv = set()
        best_y = None
        for x in sorted(per_x, reverse=True):
            ymax = max(per_x[x])
            if (best_y is None or ymax > best_y) and coords[(x, ymax)] == 1:
                surv.add((x, ymax))
            if best_y is None or ymax > best_y:
                best_y = ymax
        for g in group:
            x, y = points[g][0], points[g][1]
            flags[g] = (x, y) in surv and not dominated(x, y)
        for (x, y) in coords:
            push(x, y)
        i = j
    return flags


# ---------------- semi-online engine ----------------

class _Rec:
    __slots__ = ("elem", "death")

    def __init__(self, elem, death):
        self.elem = elem
        self.death = death


class SemiOnlineEngine:
    """Windowed core/buffer driver for deletion-time-announced dynamics.

    problem must expose alpha, beta, preprocess(core_elems) -> state and
    query(state, buffer_elems).  It may also expose
    advance(state, added, removed) -> state, which turns the previous
    window's state into one for the new core given the elements that
    entered and left it; the engine then calls preprocess for the first
    window only.  Every call to insert, delete or query is one operation;
    deletions name no element, they remove whichever element declared the
    current operation index as its death.  `rebuilds` counts windows.
    """

    def __init__(self, problem, capacity: int, initial: Sequence = (),
                 block_size: Optional[int] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.problem = problem
        self.capacity = capacity
        if block_size is None:
            expo = problem.beta / (1.0 + problem.alpha)
            block_size = max(1, round(capacity ** expo))
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        self.b = block_size
        self.op_index = 0
        self._window_end = 0
        self._death_map: Dict[int, _Rec] = {}
        self._live: List[_Rec] = [_Rec(e, math.inf) for e in initial]
        self._buffer: List[_Rec] = []
        self._core: Optional[List[_Rec]] = None
        self._state = None
        self.rebuilds = 0

    def _begin_op(self) -> None:
        self.op_index += 1
        if self.op_index > self._window_end:
            self._window_end = self.op_index + self.b - 1
            core, buf = [], []
            for r in self._live:
                (core if r.death > self._window_end else buf).append(r)
            self._buffer = buf
            advance = getattr(self.problem, "advance", None)
            if self._core is None or advance is None:
                self._state = self.problem.preprocess([r.elem for r in core])
            else:
                # records are compared by identity: equal elements are
                # distinct records
                old, new = set(self._core), set(core)
                self._state = advance(
                    self._state, [r.elem for r in core if r not in old],
                    [r.elem for r in self._core if r not in new])
            self._core = core
            self.rebuilds += 1
        if len(self._buffer) > 2 * self.b:
            raise RuntimeError(f"buffer of {len(self._buffer)} records exceeds "
                               f"twice the block size {self.b}")

    def insert(self, elem, death=math.inf) -> None:
        self._begin_op()
        if death != math.inf:
            if not isinstance(death, int) or death <= self.op_index:
                raise ValueError(
                    f"death index {death!r} must be an int past op {self.op_index}")
            if death in self._death_map:
                raise ValueError(f"death index {death} already taken")
        rec = _Rec(elem, death)
        self._live.append(rec)
        self._buffer.append(rec)
        if death != math.inf:
            self._death_map[death] = rec

    def delete(self) -> None:
        self._begin_op()
        rec = self._death_map.pop(self.op_index, None)
        if rec is None:
            raise ValueError(f"no element dies at op {self.op_index}")
        self._live.remove(rec)
        self._buffer.remove(rec)

    def query(self):
        self._begin_op()
        return self.problem.query(self._state, [r.elem for r in self._buffer])


class Skyline3DBlock:
    """Skyline (maximal point) counting block for the semi-online engine.

    The state is (n0, s0_tree, s_tree): s_tree holds the core, s0_tree its
    maximal points S0 (equal duplicates kill each other) and n0 = |S0|.
    `advance` moves only the core's difference through s_tree, recomputes
    S0 with maximal3d_flags and toggles only the change in s0_tree.  The
    recompute is one sweep over the whole core, charged len(core) visits:
    `advance` lists the core anyway, and an update local to the moved
    points would need a dynamic 3-D maxima structure.  A window thus costs
    len(core) + O((b + |dS0|) log^3 n) visits where `preprocess` costs
    Theta(n log^3 n).  A removed point stays declared in its tree until
    that tree rebuilds itself (see PointMultiset), so the window cost
    depends on n and not on the update history.

    `query` builds no tree over the buffer.  A buffer point is live when no
    core point and no other buffer occurrence weakly dominates it: one
    maximal3d_flags sweep over the buffer (Kung, Luccio & Preparata, JACM
    1975) decides the second, charged len(buffer) visits, and an s_tree
    orthant count decides the first, for the points the sweep keeps only.
    The buffer's union of lower orthants, split into disjoint boxes, gives
    the S0 points it kills through s0_tree counts.
    """

    alpha = 1.0
    beta = 1.0

    def __init__(self, counter: Optional[VisitCounter] = None):
        self.counter = counter if counter is not None else VisitCounter()

    def preprocess(self, core: Sequence[tuple]):
        s0 = list(compress(core, maximal3d_flags(core)))
        # s0_tree is asked the boxes of orthant_union_decompose, at_most
        # on y; s_tree only at_least orthants
        return (len(s0), PointMultiset(3, s0, counter=self.counter,
                                       sides=("both", "le", "both")),
                PointMultiset(3, core, counter=self.counter,
                              sides=("ge",) * 3))

    def advance(self, state, added: Sequence[tuple],
                removed: Sequence[tuple]):
        _, s0_tree, s_tree = state
        # removals first, so that an added point reuses a freed copy
        for p in removed:
            s_tree.remove(p)
        for p in added:
            s_tree.add(p)
        core = list(s_tree.occ.elements())
        self.counter.add(len(core))
        s0 = Counter(compress(core, maximal3d_flags(core)))
        have = s0_tree.occ
        gone, new = have - s0, s0 - have
        for p in gone.elements():
            s0_tree.remove(p)
        for p in new.elements():
            s0_tree.add(p)
        state = (sum(s0.values()), s0_tree, s_tree)
        if _debug_on():
            self._check(state)
        return state

    @staticmethod
    def _check(state) -> None:
        """Debug check: each tree's active entries are its `occ`, and
        s0_tree's multiset and n0 are the maxima of s_tree's."""
        n0, s0_tree, s_tree = state
        for tree in (s_tree, s0_tree):
            held = Counter(tree.entry(k)[0] for k in tree.active_keys())
            _invariant(held == Counter(tree.occ.elements()),
                       "skyline tree entries match its multiset")
        core = list(s_tree.occ.elements())
        s0 = Counter(compress(core, maximal3d_flags(core)))
        _invariant(s0_tree.occ == s0 and n0 == sum(s0.values()),
                   "skyline S0 is the core's maxima")

    def query(self, state, buffer: Sequence[tuple]) -> int:
        n0, s0_tree, s_tree = state
        self.counter.add(len(buffer))
        live = 0
        for p in compress(buffer, maximal3d_flags(buffer)):
            up = Box([Interval.at_least(c) for c in p])
            if s_tree.count(up) == 0:
                live += 1
        killed = 0
        for box in orthant_union_decompose(list(buffer)):
            killed += s0_tree.count(box)
        return live + n0 - killed


class SkylineScan:
    """Scan oracle for `SemiOnlineEngine` over `Skyline3DBlock`: the same
    death schedule, and `query` counts maximal points by `skyline_oracle`."""

    def __init__(self, initial: Sequence = ()):
        self.op = 0
        self.live: List[tuple] = list(initial)
        self.deaths: Dict[int, tuple] = {}

    def insert(self, p, death) -> None:
        self.op += 1
        if death <= self.op:
            raise ValueError(f"death {death} not in the future")
        if death in self.deaths:
            raise ValueError(f"death slot {death} taken")
        self.live.append(p)
        self.deaths[death] = p

    def delete(self, p=None) -> None:
        """Remove the point whose death is due; `p`, if given, must be it."""
        self.op += 1
        due = self.deaths.pop(self.op, None)
        if due is None:
            raise ValueError(f"no element dies at op {self.op}")
        if p is not None and p != due:
            raise ValueError(f"{p} does not die at op {self.op}")
        self.live.remove(due)

    def query(self) -> int:
        self.op += 1
        return skyline_oracle(self.live)


# ---------------- Klee volume oracles ----------------

def _union_volume(boxes: List[tuple], axis: int) -> int:
    """Union volume of int boxes ((lo, hi) per axis) on the axes >= axis."""
    if axis == len(boxes[0]) - 1:
        ivs = sorted(box[axis] for box in boxes)
        total, end = 0, ivs[0][0]
        for lo, hi in ivs:
            if hi > end:
                total += hi - max(lo, end)
                end = hi
        return total
    cuts = sorted({v for box in boxes for v in box[axis]})
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        spanning = [box for box in boxes
                    if box[axis][0] <= a and b <= box[axis][1]]
        if spanning:
            total += (b - a) * _union_volume(spanning, axis + 1)
    return total


def klee_union_volume(corners: Sequence[tuple], side) -> Fraction:
    """Exact union volume of equal-side cubes given by their largest corners.

    Slab sweep (Bentley 1977): every coordinate is scaled by the common
    denominator to an int.  The union volume is the sum, over the slabs
    between consecutive cut values on the first axis, of the slab width
    times the union volume of the boxes spanning that slab on the
    remaining axes, recursively; on the last axis it is the length of a
    sorted interval merge.  For m cubes in d dimensions that is at most
    (2m)^(d-1) merges of O(m log m) each, plus an O(m) filter per slab,
    and no grid in memory.  Inputs whose compressed grid (distinct cut
    values minus one, multiplied over the axes) exceeds 1e8 cells are
    refused.
    """
    if not corners:
        return Fraction(0)
    d = len(corners[0])
    s = Fraction(side)
    if s <= 0:
        raise ValueError("side must be positive")
    his = [tuple(Fraction(c[i]) for i in range(d)) for c in corners]
    denom = math.lcm(s.denominator, *(v.denominator for c in his for v in c))
    side_i = s.numerator * (denom // s.denominator)
    ints = [[v.numerator * (denom // v.denominator) for v in c] for c in his]
    boxes = [tuple((h - side_i, h) for h in c) for c in ints]
    cells = 1
    for i in range(d):
        cells *= max(1, len({v for box in boxes for v in box[i]}) - 1)
    if cells > 10 ** 8:
        raise ValueError("compressed grid too large")
    return Fraction(_union_volume(boxes, 0), denom ** d)


def klee_union_volume_ie(corners: Sequence[tuple], side) -> Fraction:
    """Inclusion-exclusion union volume; exponential in the cube count."""
    from itertools import combinations
    if not corners:
        return Fraction(0)
    d = len(corners[0])
    s = Fraction(side)
    total = Fraction(0)
    m = len(corners)
    for r in range(1, m + 1):
        for sub in combinations(range(m), r):
            v = Fraction(1)
            for i in range(d):
                lo = max(Fraction(corners[j][i]) - s for j in sub)
                hi = min(Fraction(corners[j][i]) for j in sub)
                if hi <= lo:
                    v = Fraction(0)
                    break
                v *= hi - lo
            total += v if r % 2 == 1 else -v
    return total


# ---------------- halfspace depth over a fixed point set ----------------

_SENSES = {"lt": "lt", "<": "lt", "le": "le", "<=": "le",
           "gt": "gt", ">": "gt", "ge": "ge", ">=": "ge"}
# the test normal . p <sense> offset makes, per canonical sense
_SENSE_OPS = {"lt": operator.lt, "le": operator.le,
              "gt": operator.gt, "ge": operator.ge}


def _containment(h):
    """The halfspace h = (normal, Fraction offset, canonical sense) as a
    test on points.  normal . p <sense> num/den is decided exactly as
    (normal . p) * den <sense> num, den being positive, so int points
    compare ints and never build a Fraction."""
    normal, off, sense = h
    test, num, den = _SENSE_OPS[sense], off.numerator, off.denominator
    return lambda p: test(sum(map(operator.mul, normal, p)) * den, num)


def halfspace_depths(points, halfspaces) -> List[int]:
    """Per point, how many of `halfspaces` contain it, by a full scan.

    halfspaces: (normal, Fraction offset, canonical sense) triples; a
    repeated triple counts once per repeat.
    """
    tests = [_containment(h) for h in halfspaces]
    return [sum(t(p) for t in tests) for p in points]


def _halfspace_points(points) -> Tuple[List[tuple], Optional[int]]:
    """The points as tuples and their common dimension (None for no
    points); points of mixed dimension raise ValueError."""
    pts = [tuple(p) for p in points]
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise ValueError(f"points of mixed dimension {sorted(dims)}")
    return pts, dims.pop() if dims else None


def _halfspace_key(normal, offset, sense, dim: Optional[int]) -> tuple:
    """The canonical (normal, Fraction offset, sense) triple of a halfspace
    over points of dimension dim.  With no points (dim None) a normal of
    any length is accepted: it contains nothing either way."""
    s = _SENSES.get(sense)
    if s is None:
        raise ValueError(f"bad sense {sense!r}")
    normal = tuple(normal)
    if dim is not None and len(normal) != dim:
        raise ValueError(f"normal of length {len(normal)} for points of "
                         f"dimension {dim}")
    return (normal, Fraction(offset), s)


class HalfspaceSystem:
    """Dynamic halfspace multiset over a fixed finite point set.

    Tracks, for every point, how many current halfspaces contain it.  The
    minimum of those counts is kept as a histogram (`_hist[c]` points have
    count c) plus a pointer to its lowest non-empty slot.

    An update charges one visit per point.  The points are kept by column,
    so the hit mask is built in C: per nonzero normal component a, `map`
    scales that column by a and adds it to the running dot products, which
    are scaled by the offset's denominator and compared with its numerator
    (exact for int and `Fraction` inputs, as in `_containment`).  Python
    then loops over the hits alone.  Their counts all move by delta, so the
    histogram moves by a `Counter` of their old counts, and the pointer by
    at most one: down when a delete hits a point at the minimum, up when
    an insert empties the minimum's slot.  On a 2-CPU x86-64 VM (Python
    3.11), with 120 points in 3-D, an insert or delete took 36 to 39 us
    against 66 to 69 us for a containment test called per point.
    """

    def __init__(self, points: Sequence[tuple],
                 counter: Optional[VisitCounter] = None):
        self.points, self._dim = _halfspace_points(points)
        self._cols = [list(c) for c in zip(*self.points)]
        self.counter = counter if counter is not None else VisitCounter()
        self._counts = [0] * len(self.points)
        self._hist = [len(self.points)]
        self._min = 0
        self._halfspaces: Counter = Counter()

    def _apply(self, key, delta: int) -> None:
        normal, off, sense = key
        n = len(self.points)
        self.counter.add(n)
        dots = None
        for col, a in zip(self._cols, normal):
            if a:
                term = col if a == 1 else map(operator.mul, col, repeat(a))
                dots = term if dots is None else map(operator.add, dots, term)
        if dots is None:
            dots = repeat(0, n)
        if off.denominator != 1:
            dots = map(operator.mul, dots, repeat(off.denominator))
        hits = list(compress(range(n), map(_SENSE_OPS[sense], dots,
                                           repeat(off.numerator))))
        if hits:
            self._move(hits, delta)
        if _debug_on():
            self._debug_check()

    def _move(self, hits: List[int], delta: int) -> None:
        """Move the counts of the points `hits` (at least one) by delta."""
        counts, hist = self._counts, self._hist
        olds = Counter(map(counts.__getitem__, hits))
        for i in hits:
            counts[i] += delta
        if delta > 0 and max(olds) + 1 == len(hist):
            hist.append(0)
        for c, k in olds.items():
            hist[c] -= k
            hist[c + delta] += k
        if delta < 0:
            if self._min in olds:
                self._min -= 1
        elif not hist[self._min]:
            self._min += 1

    def insert(self, normal, offset, sense) -> None:
        key = _halfspace_key(normal, offset, sense, self._dim)
        self._halfspaces[key] += 1
        self._apply(key, +1)

    def delete(self, normal, offset, sense) -> None:
        key = _halfspace_key(normal, offset, sense, self._dim)
        if self._halfspaces[key] <= 0:
            raise ValueError("delete of absent halfspace")
        self._halfspaces[key] -= 1
        if self._halfspaces[key] == 0:
            del self._halfspaces[key]
        self._apply(key, -1)

    def min_count(self) -> int:
        if not self.points:
            raise ValueError("no points")
        return self._min

    def _debug_check(self) -> None:
        depths = halfspace_depths(self.points,
                                  list(self._halfspaces.elements()))
        _invariant(self._counts == depths, "per-point halfspace counts")
        hist = Counter(self._counts)
        _invariant(max(hist, default=0) < len(self._hist)
                   and all(self._hist[c] == hist[c]
                           for c in range(len(self._hist))),
                   "count histogram")
        _invariant(self._min == min(self._counts, default=0),
                   "min pointer is the lowest nonempty slot")


class HalfspaceScan:
    """Scan oracle for `HalfspaceSystem`: the halfspace list, every depth
    recounted by `halfspace_depths` at each query."""

    def __init__(self, points: Sequence[tuple]):
        self.points, self._dim = _halfspace_points(points)
        self.hs: List[tuple] = []

    def insert(self, normal, offset, sense) -> None:
        self.hs.append(_halfspace_key(normal, offset, sense, self._dim))

    def delete(self, normal, offset, sense) -> None:
        h = _halfspace_key(normal, offset, sense, self._dim)
        if h not in self.hs:
            raise ValueError("delete of absent halfspace")
        self.hs.remove(h)

    def min_count(self) -> int:
        if not self.points:
            raise ValueError("no points")
        return min(halfspace_depths(self.points, self.hs))
