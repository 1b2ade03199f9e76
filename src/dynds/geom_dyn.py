"""Semi-online geometric maintenance: skyline counting, Klee volumes, halfspaces.

The engine here handles deletions whose time of death is announced at
insertion.  Work is split into windows of b operations; elements surviving
the whole window form a static core, preprocessed once and then advanced by
each window's difference, and the rest live in a small buffer that queries
scan against the core.  `HalfspaceSystem`, fully dynamic over a fixed point
set, is a kd-tree with lazy adds and subtree minima instead.
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
    _staircase_span,
    orthant_union_decompose,
)

__all__ = [
    "skyline_oracle",
    "maximal_flags",
    "maxima3d",
    "SemiOnlineEngine",
    "Skyline3DBlock",
    "SkylineScan",
    "klee_union_volume",
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


def maxima3d(mult: Counter) -> List[tuple]:
    """The points of the multiset `mult` (point -> multiplicity) with
    multiplicity 1 that no other point weakly dominates, in `mult`'s order:
    maximal_flags' maxima, for 3-D points.  One pass over the distinct
    points by descending (z, x, y) keeps the (x, y) staircase of those
    passed (Kung, Luccio & Preparata, JACM 1975), O(n log n) comparisons
    plus the staircase's list moves.  Every point that weakly dominates
    another comes before it in that order, so a point is dominated iff
    the staircase dominates it.  Points that are not 3-dimensional raise
    ValueError."""
    if any(len(p) != 3 for p in mult):
        raise ValueError("points must be 3-dimensional")
    xs: List = []
    ys: List = []
    keep = set()
    for p in sorted(mult, key=lambda p: (p[2], p[0], p[1]), reverse=True):
        span = _staircase_span(xs, ys, p[0], p[1])
        if span is not None:
            lo, hi = span
            xs[lo:hi] = [p[0]]
            ys[lo:hi] = [p[1]]
            if mult[p] == 1:
                keep.add(p)
    return [p for p in mult if p in keep]


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

    The state is (s0_tree, s_tree): s_tree holds the core, s0_tree its
    maximal points S0 (equal duplicates kill each other), and |S0| is
    s0_tree's live count `n_live`.
    `advance` moves only the core's difference through s_tree, recomputes
    S0 with maxima3d over s_tree's own multiset `occ` and toggles only the
    change in s0_tree.  The recompute is one sweep over the whole core,
    charged len(core) visits: an update local to the moved points would
    need a dynamic 3-D maxima structure.  A window thus costs
    len(core) + O((b + |dS0|) log^3 n) visits where `preprocess` costs
    Theta(n log^3 n).  A removed point stays declared in its tree until
    that tree rebuilds itself (see PointMultiset), so the window cost
    depends on n and not on the update history.

    `query` builds no tree over the buffer.  A buffer point is live when no
    core point and no other buffer occurrence weakly dominates it: one
    maxima3d sweep over the buffer decides the second, charged len(buffer)
    visits, and an s_tree orthant count decides the first, for the points
    the sweep keeps only.
    The buffer's union of lower orthants, split into disjoint boxes, gives
    the S0 points it kills through s0_tree counts.
    """

    alpha = 1.0
    beta = 1.0

    def __init__(self, counter: Optional[VisitCounter] = None):
        self.counter = counter if counter is not None else VisitCounter()

    def preprocess(self, core: Sequence[tuple]):
        s0 = maxima3d(Counter(core))
        # s0_tree is asked the boxes of orthant_union_decompose, at_most
        # on y; s_tree only at_least orthants
        return (PointMultiset(3, s0, counter=self.counter,
                              sides=("both", "le", "both")),
                PointMultiset(3, core, counter=self.counter,
                              sides=("ge",) * 3))

    def advance(self, state, added: Sequence[tuple],
                removed: Sequence[tuple]):
        s0_tree, s_tree = state
        # removals first, so that an added point reuses a freed copy
        for p in removed:
            s_tree.remove(p)
        for p in added:
            s_tree.add(p)
        self.counter.add(s_tree.n_live)
        s0 = Counter(maxima3d(s_tree.occ))
        have = s0_tree.occ
        gone, new = have - s0, s0 - have
        for p in gone.elements():
            s0_tree.remove(p)
        for p in new.elements():
            s0_tree.add(p)
        state = (s0_tree, s_tree)
        if _debug_on():
            self._check(state)
        return state

    @staticmethod
    def _check(state) -> None:
        """Debug check: each tree's active entries are its `occ`, and
        s0_tree's multiset is the maxima of s_tree's, recomputed by the
        bitset oracle maximal_flags and not by the sweep that `advance`
        runs."""
        s0_tree, s_tree = state
        for tree in (s_tree, s0_tree):
            held = Counter(tree.entry(k)[0] for k in tree.active_keys())
            _invariant(held == Counter(tree.occ.elements()),
                       "skyline tree entries match its multiset")
        core = list(s_tree.occ.elements())
        s0 = Counter(compress(core, maximal_flags(core)))
        _invariant(s0_tree.occ == s0, "skyline S0 is the core's maxima")

    def query(self, state, buffer: Sequence[tuple]) -> int:
        s0_tree, s_tree = state
        self.counter.add(len(buffer))
        live = 0
        for p in maxima3d(Counter(buffer)):
            up = Box([Interval.at_least(c) for c in p])
            if s_tree.count(up) == 0:
                live += 1
        killed = 0
        for box in orthant_union_decompose(list(buffer)):
            killed += s0_tree.count(box)
        return live + s0_tree.n_live - killed


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


# ---------------- halfspace depth over a fixed point set ----------------

_SENSES = {"lt": "lt", "<": "lt", "le": "le", "<=": "le",
           "gt": "gt", ">": "gt", "ge": "ge", ">=": "ge"}
# offsets whose numerator and denominator are already in lowest terms
_RATIONAL = (int, Fraction)
# the test normal . p <sense> offset makes, per canonical sense
_SENSE_OPS = {"lt": operator.lt, "le": operator.le,
              "gt": operator.gt, "ge": operator.ge}


def _containment(h):
    """The halfspace h = (normal, num, den, canonical sense) as a test on
    points.  normal . p <sense> num/den is decided exactly as
    (normal . p) * den <sense> num, den being positive, so int points
    compare ints and never build a Fraction."""
    normal, num, den, sense = h
    test = _SENSE_OPS[sense]
    return lambda p: test(sum(map(operator.mul, normal, p)) * den, num)


def halfspace_depths(points, halfspaces) -> List[int]:
    """Per point, how many of `halfspaces` contain it, by a full scan.

    halfspaces: (normal, num, den, canonical sense) keys, as
    `_halfspace_key` makes them; a repeated key counts once per repeat.
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
    """The canonical key (normal, num, den, sense) of a halfspace over
    points of dimension dim: num/den is the offset in lowest terms, den
    positive, so every spelling of one offset (2, Fraction(2), "2", 2.0)
    makes one key, and the key hashes ints.  With no points (dim None) a
    normal of any length is accepted: it contains nothing either way."""
    s = _SENSES.get(sense)
    if s is None:
        raise ValueError(f"bad sense {sense!r}")
    normal = tuple(normal)
    if dim is not None and len(normal) != dim:
        raise ValueError(f"normal of length {len(normal)} for points of "
                         f"dimension {dim}")
    if type(offset) not in _RATIONAL:
        offset = Fraction(offset)
    return (normal, offset.numerator, offset.denominator, s)


# Bucket size L of HalfspaceSystem's kd-tree (see its docstring).
_LEAF = 8
# The normal components whose products are exact: only a normal of these
# keeps an update plan, since a float one may round unlike an equal int.
_EXACT = {int, Fraction}


class HalfspaceSystem:
    """Dynamic halfspace multiset over a fixed finite point set.

    Tracks the depth of every point, the number of current halfspaces that
    contain it, and answers the minimum depth.  The points sit in a kd-tree
    (Bentley, CACM 1975) kept in flat lists: median splits that cycle the
    axes, down to buckets of at most L = `_LEAF` points (zero-dimensional
    points, all equal, share one bucket).  Every node keeps its points'
    bounding box, a lazy add that counts toward each of its points, and
    its subtree minimum: its lazy add plus the least minimum of its
    children, or of its bucket's per-point counts.  A point's depth is its
    bucket count plus the lazy adds of its bucket and of every ancestor,
    and `min_count` is the root's minimum.

    An update walks down from the root without recursion.  At each node it
    bounds normal . p * den over the box, the test of `_containment` (num
    and den are the offset's, so int input builds no Fraction).  A box
    wholly inside the halfspace takes a lazy add, one wholly outside is
    skipped, any other descends into its children, and a straddled bucket
    tests its own points with a column mask.  The minima are then
    recomputed bottom-up along the nodes the walk descended through.

    The walk depends only on the halfspace's key and the fixed tree, so the
    first update of a key records it as the key's plan in `_plans`: the
    nodes wholly inside, each straddled bucket with the slots its mask hit,
    the descended nodes, children first, and the walk's visits.  A later
    update of that key, such as the delete of an inserted halfspace,
    replays the plan: it applies the lazy adds and the slots' counts,
    recomputes the minima of those buckets and then of the descended
    nodes, and charges the recorded visits, exactly what the walk charged,
    so the cost below holds for every update.  Only a normal of ints and
    Fractions keeps a plan; a float one may round unlike an equal exact
    one, so it is walked every time.  A plan holds at most one id per
    visit it records, and the plans record at most 16 visits per point and
    node, plus 16: a plan that would pass that clears them first.  Under
    DYNDS_DEBUG_ASSERT every hit is compared with a fresh walk.

    Cost: one visit per node visited plus one per bucket point tested.  An
    axis-parallel hyperplane meets O(n^{1-1/d}) cells of a kd-tree (Lee &
    Wong, Acta Informatica 1977), so an axis-parallel update, the only kind
    that `red_oumvk_halfspace` makes, costs O(n^{1-1/d}) visits: on the
    reduction's slabs, at most 4 n^{1-1/d} on average (3.2 on a 64 x 64
    grid, 1.6 on a 16^3 grid).  Other normals get the same exact answers
    and no sublinear guarantee.

    An axis-parallel normal takes a fast path: one multiply and compare per
    box end, against the column of its one nonzero component.  Measured on
    a 2-CPU x86-64 VM (Python 3.11), replaying the 1,271 nonempty
    `red_oumvk_halfspace` instances of crosscheck seeds 0-15 (n <= 127;
    best of 7, alternating), an op took 5.7 us against 10.0 us with every
    update walked, at the same 1.53 million visits: an insert (42% replays)
    7.5 against 9.9 us and a delete (all replays) 3.9 against 10.0 us, and
    no instance cleared its plans.  With every update walked, the general
    bound alone took 1.6 to 1.75 times as long as the fast path.  On a 64 x
    64 grid a slab update took 65 us against 417 us for the per-point scan
    that the kd-tree replaced.  L = 8 was chosen by measurement.  On the
    replay, L = 4, 8, 16 and 32 charged 1.45, 1.53, 1.68 and 1.96 million
    visits (the scan 2.97 million) and took 1.04-1.07, 1, 0.89-0.90 and
    0.87-0.89 times as long as L = 8, with every update walked: halving L
    saves 5% of the visits for 4-7% more time, doubling it saves about 10%
    of the time for 10% more visits.
    """

    def __init__(self, points: Sequence[tuple],
                 counter: Optional[VisitCounter] = None):
        self.points, self._dim = _halfspace_points(points)
        self.counter = counter if counter is not None else VisitCounter()
        self._halfspaces: Counter = Counter()
        self._build()

    def _build(self) -> None:
        """Lay the kd-tree out in preorder: node v's left child is v + 1,
        its right child `_right[v]` (-1 at a bucket), and its points the
        slots [_first[v], _last[v]) of the bucket order `_order`."""
        pts, d = self.points, self._dim
        cols = list(zip(*pts))
        order = list(range(len(pts)))
        right, first, last = [], [], []
        stack = [(0, len(pts), 0, -1)] if pts else []
        while stack:
            s, e, depth, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(right)
            if e - s > _LEAF and d:
                order[s:e] = sorted(order[s:e],
                                    key=cols[depth % d].__getitem__)
                mid = (s + e) // 2
                stack.append((mid, e, depth + 1, len(right)))
                stack.append((s, mid, depth + 1, -1))
            right.append(-1)
            first.append(s)
            last.append(e)
        self._right, self._first, self._last = right, first, last
        self._order = order
        self._cols = [[col[i] for i in order] for col in cols]
        # bounding boxes, children (later in preorder) before parents
        m = len(right)
        self._lo: List[tuple] = [()] * m
        self._hi: List[tuple] = [()] * m
        for v in reversed(range(m)):
            r = right[v]
            if r >= 0:
                self._lo[v] = tuple(map(min, self._lo[v + 1], self._lo[r]))
                self._hi[v] = tuple(map(max, self._hi[v + 1], self._hi[r]))
            else:
                box = [col[first[v]:last[v]] for col in self._cols]
                self._lo[v] = tuple(map(min, box))
                self._hi[v] = tuple(map(max, box))
        self._counts = [0] * len(pts)
        self._lazy = [0] * m
        self._mins = [0] * m
        # update plans by halfspace key, and the visits that they record
        self._plans: Dict[tuple, tuple] = {}
        self._plan_visits = 0
        self._plan_cap = 16 * (len(pts) + m) + 16

    def _walk(self, key) -> tuple:
        """The update plan of halfspace key: the nodes wholly inside it,
        each straddled bucket (v, first slot, last slot, the slots its
        column mask hit), the nodes the walk descended through, children
        before parents, and the walk's visits."""
        normal, num, den, sense = key
        test = _SENSE_OPS[sense]
        terms = [(i, a) for i, a in enumerate(normal) if a]
        right, first, last = self._right, self._first, self._last
        lo, hi = self._lo, self._hi
        axial = len(terms) == 1
        if axial:
            (axis, c), = terms
            c *= den
        else:
            pos = [a if a > 0 else 0 for a in normal]
            neg = [a if a < 0 else 0 for a in normal]
        visits, inside, buckets, descended = 0, [], [], []
        stack = [0] if right else []
        while stack:
            v = stack.pop()
            visits += 1
            if axial:
                low = test(lo[v][axis] * c, num)
                high = test(hi[v][axis] * c, num)
            else:
                low = test((sum(map(operator.mul, pos, lo[v]))
                            + sum(map(operator.mul, neg, hi[v]))) * den, num)
                high = test((sum(map(operator.mul, pos, hi[v]))
                             + sum(map(operator.mul, neg, lo[v]))) * den, num)
            if low and high:
                inside.append(v)
            elif low or high:
                r = right[v]
                if r >= 0:
                    descended.append(v)
                    stack.append(r)
                    stack.append(v + 1)
                else:
                    s, e = first[v], last[v]
                    visits += e - s
                    buckets.append((v, s, e,
                                    self._hits(s, e, terms, test, num, den)))
        descended.reverse()
        return inside, buckets, descended, visits

    def _hits(self, s: int, e: int, terms, test, num, den) -> List[int]:
        """The slots [s, e) of a bucket whose points the halfspace holds,
        by a column mask over the normal's nonzero `terms`, as the
        per-point scan tested them."""
        dots = None
        for i, a in terms:
            col = self._cols[i][s:e]
            term = col if a == 1 else map(operator.mul, col, repeat(a))
            dots = term if dots is None else map(operator.add, dots, term)
        if den != 1:
            dots = map(operator.mul, dots, repeat(den))
        return list(compress(range(s, e), map(test, dots, repeat(num))))

    def _apply(self, key, delta: int) -> None:
        plans = self._plans
        exact = _EXACT.issuperset(map(type, key[0]))
        plan = plans.get(key) if exact else None
        if plan is None:
            plan = self._walk(key)
            if exact:
                if self._plan_visits + plan[3] > self._plan_cap:
                    plans.clear()
                    self._plan_visits = 0
                plans[key] = plan
                self._plan_visits += plan[3]
        elif _debug_on():
            _invariant(plan == self._walk(key),
                       "a cached update plan is its fresh walk")
        inside, buckets, descended, visits = plan
        lazy, mins, counts, right = (self._lazy, self._mins, self._counts,
                                     self._right)
        for v in inside:
            lazy[v] += delta
            mins[v] += delta
        for v, s, e, slots in buckets:
            for j in slots:
                counts[j] += delta
            mins[v] = lazy[v] + min(counts[s:e])
        for v in descended:
            a, b = mins[v + 1], mins[right[v]]
            mins[v] = lazy[v] + (a if a < b else b)
        self.counter.add(visits)
        if _debug_on():
            self._debug_check()

    def insert(self, normal, offset, sense) -> None:
        key = _halfspace_key(normal, offset, sense, self._dim)
        self._halfspaces[key] += 1
        self._apply(key, +1)

    def delete(self, normal, offset, sense) -> None:
        key = _halfspace_key(normal, offset, sense, self._dim)
        live = self._halfspaces.get(key, 0)
        if live <= 0:
            raise ValueError("delete of absent halfspace")
        if live == 1:
            del self._halfspaces[key]
        else:
            self._halfspaces[key] = live - 1
        self._apply(key, -1)

    def min_count(self) -> int:
        if not self.points:
            raise ValueError("no points")
        return self._mins[0]

    def _depths(self) -> List[int]:
        """Per point, in input order: its bucket count plus the lazy adds
        of its bucket and every ancestor."""
        depths = [0] * len(self.points)
        stack = [(0, 0)] if self._mins else []
        while stack:
            v, above = stack.pop()
            above += self._lazy[v]
            r = self._right[v]
            if r >= 0:
                stack += [(r, above), (v + 1, above)]
            else:
                for j in range(self._first[v], self._last[v]):
                    depths[self._order[j]] = self._counts[j] + above
        return depths

    def _debug_check(self) -> None:
        depths = halfspace_depths(self.points,
                                  list(self._halfspaces.elements()))
        _invariant(self._depths() == depths,
                   "depth: bucket count plus ancestors' lazy adds")
        _invariant(not depths or self.min_count() == min(depths),
                   "min_count is the minimum depth")
        mins, counts = self._mins, self._counts
        for v, r in enumerate(self._right):
            below = (min(mins[v + 1], mins[r]) if r >= 0 else
                     min(counts[self._first[v]:self._last[v]]))
            _invariant(mins[v] == self._lazy[v] + below,
                       "node minimum: lazy add plus children's minimum")


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
