"""Tensor-shaped dynamic structures and the OuMv brute force.

LangermanDS watches a d-dim array under point increments and answers "does
any prefix box sum to zero".  Prefix values are cached on a grid of block
anchors; each cell keeps only its residual against its block anchor, and a
per-block multiset of residuals makes the zero test one lookup per block.

EricksonLazy and EricksonEager maintain a tensor under unit slab increments
with max queries.  HypercliqueLazy and HypercliqueCounting maintain a
k-uniform hypergraph under edge flips and answer (k+1)-clique membership
queries.  EricksonScan and HypercliqueScan are their scan oracles, and share
their argument checks.  oumv_bruteforce answers one OuMv query by a scan of M.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core_geom import VisitCounter, _debug_on, _invariant

__all__ = [
    "Tensor",
    "LangermanDS",
    "LangermanScan",
    "EricksonLazy",
    "EricksonEager",
    "EricksonScan",
    "HypercliqueLazy",
    "HypercliqueCounting",
    "HypercliqueScan",
    "oumv_bruteforce",
]


# ---------------- dense tensor ----------------

def _strides(extents) -> Tuple[int, ...]:
    """Row-major strides: cell x of a `Tensor` with these extents is
    data[sum((x_i - 1) * strides_i)]."""
    st = [1] * len(extents)
    for i in range(len(st) - 2, -1, -1):
        st[i] = st[i + 1] * extents[i + 1]
    return tuple(st)


def _offsets(ranges) -> Sequence[int]:
    """The flat offsets of a box, row-major: one per tuple of the product
    of the per-axis ranges of offsets, each the sum of its tuple.  One
    axis is its own range, kept as it is, so a 1-dim box is not copied."""
    it = iter(ranges)
    offs = next(it)
    for r in it:
        offs = [o + x for o in offs for x in r]
    return offs


class Tensor:
    """Dense integer tensor with 1-based indexing."""

    def __init__(self, extents: Sequence[int]):
        extents = tuple(int(e) for e in extents)
        if not extents or any(e < 1 for e in extents):
            raise ValueError("extents must be positive")
        self.extents = extents
        self.data = [0] * math.prod(extents)

    def _flat(self, idx) -> int:
        if len(idx) != len(self.extents):
            raise ValueError("index arity mismatch")
        f = 0
        for v, e in zip(idx, self.extents):
            if not 1 <= v <= e:
                raise IndexError(f"index {idx} out of range {self.extents}")
            f = f * e + (v - 1)
        return f

    def __getitem__(self, idx):
        return self.data[self._flat(idx)]

    def __setitem__(self, idx, value):
        self.data[self._flat(idx)] = value

    def add(self, idx, delta) -> None:
        self.data[self._flat(idx)] += delta

    def indices(self):
        return itertools.product(*(range(1, e + 1) for e in self.extents))

    def copy(self) -> "Tensor":
        t = Tensor(self.extents)
        t.data = list(self.data)
        return t

    def prefix_sums(self) -> "Tensor":
        """P[x] = sum of entries over the closed box [1, x]: axis by axis,
        a running sum along every fiber, the row-major slice
        data[f:f + span:st] of the fiber that starts at flat offset f, with
        st the axis stride and span = st * extent."""
        p = self.copy()
        data = p.data
        for st, e in zip(_strides(self.extents), self.extents):
            span = st * e
            for base in range(0, len(data), span):
                for f in range(base, base + st):
                    data[f:f + span:st] = itertools.accumulate(
                        data[f:f + span:st])
        return p


# ---------------- prefix-zero detection ----------------

class LangermanDS:
    """Zero-prefix detection for a d-dim array under point increments.

    Blocks have side B along every axis; a cell's block is t = floor(x_i / B)
    per axis and its anchor is B * t.  A block is named by its flat
    row-major offset b in the grid of e_i // B + 1 blocks per axis.
    `grid[b]` is the prefix sum at its anchor, or 0 for a block with a zero
    index, whose anchor falls outside the array.  `blocks[b]` is the
    block's residual multiset, a dict from residual to a positive count.
    `blocks` holds the blocks that have cells, filled in row-major cell
    order, which is lexicographic block order, and `exists_zero` scans it
    in that order.

    An update at z adds delta to every grid anchor that dominates z, and to
    the residual of every cell at or past z whose anchor lags behind z on
    some axis (it lies in z's block on that axis, and z is not on a block
    boundary there).  It charges one visit per anchor and one per cell.  The
    cells are listed as disjoint slabs: a cell goes under the first axis on
    which it lags, so on the lagging axes before that one it lies past z's
    block.  The anchors and each slab are products of per-axis ranges of
    flat offsets, each expanded once by `_offsets`, and `_blk_of[f]` is the
    residual multiset of the block holding flat cell f.

    These lists depend only on z and the fixed block layout, so the first
    update at z stores them, with z's flat cell, as z's plan in `_plans`,
    and every later update at z replays the plan: it adds delta to the
    listed anchors and moves the listed residuals in place, and charges
    exactly what the update that made the plan charged, so every visit
    count is that of a fresh update.  Only an index that passed the check
    of `Tensor` gets a plan, and a hit still refuses a coordinate that is
    no int (1.0 equals 1 and hashes alike), as the flat list index of a
    miss does.  The plans hold at most 4 ids per cell and grid anchor, plus
    16: a plan that would pass that clears them first.  Under
    DYNDS_DEBUG_ASSERT every hit is compared with a fresh plan.
    `red_oumvk_langerman` updates at most 2dN + 1 distinct cells per
    instance, and at `dynds crosscheck` seeds 0-15 no instance cleared its
    plans.  On a 2-CPU x86-64 VM (Python 3.11; best of 7, alternating),
    replaying the updates that crosscheck seed 1 makes on its
    `red_oumvk_langerman` structures took 6.6 us per update for d = 2 and
    2.6 us for d = 1, against 13.1 and 5.1 us with no plans, at the same
    visits.  Random updates, whose cells' plans do not all fit, took 7.3 us
    on `LangermanDS((12, 12))` and 7.8 us on `LangermanDS((1024,))` against
    7.9 and 9.0 us.  Every cell once in random order, all misses, took 8.3
    us on `LangermanDS((1024,))` and 19.8 us on `LangermanDS((40, 40))`
    against 9.3 and 20.3 us: a 1-dim slab is its own range, not a list.
    """

    def __init__(self, extents: Sequence[int], B: Optional[int] = None,
                 initial: Optional[Tensor] = None,
                 counter: Optional[VisitCounter] = None):
        self.T = initial.copy() if initial is not None else Tensor(extents)
        if initial is not None and tuple(extents) != initial.extents:
            raise ValueError("initial tensor extents mismatch")
        self.extents = self.T.extents
        d = self.d = len(self.extents)
        n_total = math.prod(self.extents)
        if B is None:
            B = max(1, round(n_total ** (1.0 / (d * (d + 1)))))
        if B < 1:
            raise ValueError("B must be >= 1")
        self.B = B
        self.counter = counter if counter is not None else VisitCounter()
        self._build()

    def _build(self) -> None:
        B, ext = self.B, self.extents
        P = self.T.prefix_sums()
        self._strides = _strides(self.extents)
        self._bstrides = _strides([e // B + 1 for e in ext])
        # every block's anchor prefix, 0 where some t_i is 0; the b-th
        # tuple of the row-major product is flat block b
        self.grid: List[int] = [
            P[tuple(ti * B for ti in t)] if all(t) else 0
            for t in itertools.product(*(range(e // B + 1) for e in ext))]
        self.r = P.copy()
        self.blocks: Dict[int, Dict[int, int]] = {}
        self._blk_of: List[Dict[int, int]] = []
        # indices() runs in row-major order, so its f-th cell is flat cell f
        for f, x in enumerate(self.T.indices()):
            b = self._block(x)
            res = self.r.data[f] = P.data[f] - self.grid[b]
            blk = self.blocks.get(b)
            if blk is None:
                blk = self.blocks[b] = {}
            blk[res] = blk.get(res, 0) + 1
            self._blk_of.append(blk)
        # update plans by index z, and the ids that they hold
        self._plans: Dict[tuple, tuple] = {}
        self._plan_ids = 0
        self._plan_cap = 4 * (len(self.r.data) + len(self.grid)) + 16

    def _block(self, x) -> int:
        """The flat block of cell x."""
        return sum(xi // self.B * s for xi, s in zip(x, self._bstrides))

    def _plan(self, z) -> tuple:
        """The update plan of index z: its flat cell, the flat grid anchors
        that dominate it, the flat offsets of the cells whose residual it
        moves, one list per slab, and the number of those cells."""
        f = self.T._flat(z)           # validates the index
        B, ext = self.B, self.extents
        # grid anchors dominating z: per axis, the blocks t with t * B >= z
        anchors = _offsets(range(-(-zi // B) * s, (e // B) * s + 1, s)
                           for zi, e, s in zip(z, ext, self._bstrides))
        # cells at or past z whose anchor lags behind z on some axis, as
        # disjoint slabs of flat offsets: the slab of axis a lags on a and
        # lies past z's block on the lagging axes before a
        slab = [range((zi - 1) * s, e * s, s)
                for zi, e, s in zip(z, ext, self._strides)]
        slabs, cells = [], 0
        for a, (zi, e, s) in enumerate(zip(z, ext, self._strides)):
            if zi % B == 0:
                continue
            end = min(e, (zi // B + 1) * B - 1)
            slab[a] = range((zi - 1) * s, end * s, s)
            offs = _offsets(slab)
            slabs.append(offs)
            cells += len(offs)
            slab[a] = range(end * s, e * s, s)
        return f, anchors, slabs, cells

    def update(self, z, delta: int) -> None:
        z = tuple(z)
        plans = self._plans
        plan = plans.get(z)
        if plan is None:
            plan = self._plan(z)
            ids = len(plan[1]) + plan[3]
            if self._plan_ids + ids > self._plan_cap:
                plans.clear()
                self._plan_ids = 0
            plans[z] = plan
            self._plan_ids += ids
        else:
            # z equals a validated index; refuse a coordinate that is no
            # int (1.0 or Fraction(1)), as a miss does
            list(map(operator.index, z))
            if _debug_on():
                _invariant(plan == self._plan(z),
                           "a cached update plan is its fresh plan")
        flat, anchors, slabs, cells = plan
        self.T.data[flat] += delta
        if delta == 0:
            return
        grid = self.grid
        self.counter.add(len(anchors))
        for b in anchors:
            grid[b] += delta
        data, blk_of = self.r.data, self._blk_of
        for offs in slabs:
            for f in offs:
                old = data[f]
                new = data[f] = old + delta
                blk = blk_of[f]
                k = blk[old]
                if k == 1:
                    del blk[old]
                else:
                    blk[old] = k - 1
                blk[new] = blk.get(new, 0) + 1
        self.counter.add(cells)
        if _debug_on():
            self._debug_check()

    def prefix(self, x) -> int:
        x = tuple(x)
        res = self.r[x]               # validates the index
        return self.grid[self._block(x)] + res

    def exists_zero(self) -> bool:
        grid = self.grid
        for b, blk in self.blocks.items():
            self.counter.add(1)
            if -grid[b] in blk:
                return True
        return False

    def _debug_check(self) -> None:
        B, P = self.B, self.T.prefix_sums()
        blocks = itertools.product(*(range(e // B + 1) for e in self.extents))
        for av, t in zip(self.grid, blocks):
            _invariant(av == (P[tuple(ti * B for ti in t)] if all(t) else 0),
                       "grid anchor is a prefix sum")
        _invariant(all(all(blk.values()) for blk in self.blocks.values()),
                   "no zero count in a block multiset")
        hist: Dict[int, Dict[int, int]] = {}
        for f, x in enumerate(self.T.indices()):
            b = self._block(x)
            res = P.data[f] - self.grid[b]
            _invariant(self.r.data[f] == res, "residual table")
            _invariant(self._blk_of[f] is self.blocks.get(b),
                       "flat cell's block multiset")
            blk = hist.setdefault(b, {})
            blk[res] = blk.get(res, 0) + 1
        _invariant(hist == self.blocks, "block residual histograms")


class LangermanScan:
    """Scan oracle for `LangermanDS`: the plain tensor, its prefix sums
    recomputed at every query."""

    def __init__(self, extents: Sequence[int],
                 initial: Optional[Tensor] = None):
        self.t = initial.copy() if initial is not None else Tensor(extents)

    def update(self, z, delta: int) -> None:
        self.t.add(z, delta)

    def exists_zero(self) -> bool:
        return any(v == 0 for v in self.t.prefix_sums().data)

    def prefix(self, x) -> int:
        return self.t.prefix_sums()[x]


# ---------------- slab-increment max structures ----------------

def _check_slab(extents, axis: int, index: int) -> None:
    """The slab argument check of every Erickson structure's increment."""
    if not 0 <= axis < len(extents):
        raise ValueError("bad axis")
    if not 1 <= index <= extents[axis]:
        raise ValueError("bad index")


class EricksonLazy:
    """Tensor under unit slab increments, max query by full scan."""

    def __init__(self, initial: Tensor, counter: Optional[VisitCounter] = None):
        self.base = initial.copy()
        self.extents = initial.extents
        self.inc = [[0] * (e + 1) for e in self.extents]
        self.counter = counter if counter is not None else VisitCounter()

    def increment(self, axis: int, index: int) -> None:
        _check_slab(self.extents, axis, index)
        self.counter.add(1)
        self.inc[axis][index] += 1

    def value(self, x) -> int:
        return self.base[x] + sum(self.inc[i][xi] for i, xi in enumerate(x))

    def max_value(self) -> int:
        best = None
        for x in self.base.indices():
            self.counter.add(1)
            v = self.value(x)
            if best is None or v > best:
                best = v
        return best


class EricksonEager:
    """Tensor under unit row/column increments, values materialized, max
    kept as a running max.  An increment adds 1 to every cell of its slab
    and lowers no cell, so the new max is the larger of the old max and
    the slab's new values.  It walks the slab's flat offsets in `vals.data`
    and charges one visit per slab cell, N^(k-1) of an N^k tensor; a max
    query charges one.  So the `erickson-eager` bench plan, on N^3
    tensors, targets slope (k - 1)/k = 2/3 in n = N^k."""

    def __init__(self, initial: Tensor, counter: Optional[VisitCounter] = None):
        self.vals = initial.copy()
        self.extents = initial.extents
        self.counter = counter if counter is not None else VisitCounter()
        self._max = max(self.vals.data)
        self._strides = _strides(self.extents)

    def increment(self, axis: int, index: int) -> None:
        ext, st = self.extents, self._strides
        _check_slab(ext, axis, index)
        slab = [range(0, e * s, s) for e, s in zip(ext, st)]
        slab[axis] = ((index - 1) * st[axis],)
        offs = _offsets(slab)
        self.counter.add(len(offs))
        data, top = self.vals.data, self._max
        for f in offs:
            new = data[f] = data[f] + 1
            if new > top:
                top = new
        self._max = top
        if _debug_on():
            _invariant(top == max(data), "running max is the max value")

    def value(self, x) -> int:
        return self.vals[x]

    def max_value(self) -> int:
        self.counter.add(1)
        return self._max


class EricksonScan:
    """Scan oracle for the Erickson structures: the plain tensor, every
    cell of it walked by each increment."""

    def __init__(self, initial: Tensor):
        self.t = initial.copy()
        self.extents = initial.extents

    def increment(self, axis: int, index: int) -> None:
        _check_slab(self.extents, axis, index)
        for x in self.t.indices():
            if x[axis] == index:
                self.t.add(x, 1)

    def value(self, x) -> int:
        return self.t[x]

    def max_value(self) -> int:
        return max(self.t.data)


# ---------------- hypergraph clique maintenance ----------------

class _Hypergraph:
    """A k-uniform hypergraph on a fixed vertex list, and the argument checks
    that the clique structures and their scan oracle share."""

    def __init__(self, vertices: Sequence, k: int,
                 counter: Optional[VisitCounter] = None):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.vertices = list(vertices)
        self._vset = set(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.k = k
        self.edges: Set[frozenset] = set()
        self.counter = counter if counter is not None else VisitCounter()

    def _check_edge(self, edge, present: bool) -> frozenset:
        """The edge as a frozenset, checked to be present or absent."""
        e = frozenset(edge)
        if len(e) != self.k:
            raise ValueError(f"edge must have {self.k} distinct vertices")
        if not e <= self._vset:
            raise ValueError("edge uses unknown vertices")
        if (e in self.edges) != present:
            raise ValueError("edge not present" if present
                             else "edge already present")
        return e

    def _check_vertex(self, v) -> None:
        if v not in self._vset:
            raise ValueError("unknown vertex")


class HypercliqueLazy(_Hypergraph):
    """k-uniform hypergraph; query scans candidate (k+1)-sets directly."""

    def insert(self, edge) -> None:
        e = self._check_edge(edge, False)
        self.counter.add(1)
        self.edges.add(e)

    def delete(self, edge) -> None:
        e = self._check_edge(edge, True)
        self.counter.add(1)
        self.edges.discard(e)

    def query(self, v) -> bool:
        """Is v in a set of k+1 vertices all of whose k-subsets are edges?"""
        self._check_vertex(v)
        others = [u for u in self.vertices if u != v]
        for comb in itertools.combinations(others, self.k):
            self.counter.add(1)
            cand = set(comb) | {v}
            if all(frozenset(cand - {u}) in self.edges for u in cand):
                return True
        return False


class HypercliqueCounting(_Hypergraph):
    """Per-vertex counts of complete (k+1)-sets, adjusted on each edge flip.

    Flipping edge e tests every vertex w outside e: e + {w} is complete
    when each of the k sets (e - {u}) + {w}, u in e, is an edge.  A flip
    charges one visit per w, |V| - k in all, and a query charges one.  So
    the `hyperclique-counting` bench plan targets slope 1 in n = |V|."""

    def __init__(self, vertices: Sequence, k: int,
                 counter: Optional[VisitCounter] = None):
        super().__init__(vertices, k, counter)
        self.cnt: Dict = dict.fromkeys(self.vertices, 0)

    def _count(self, e: frozenset, sign: int) -> None:
        """Adds sign to the count of every vertex of each complete e + {w}.
        Each set tested holds w, which e lacks, so the test reads the same
        whether e is in `edges` yet or not."""
        ws = [w for w in self.vertices if w not in e]
        self.counter.add(len(ws))
        edges, cnt = self.edges, self.cnt
        for u in e:
            s = e - {u}
            ws = [w for w in ws if s | {w} in edges]
        for w in ws:
            cnt[w] += sign
        for u in e:
            cnt[u] += sign * len(ws)
        if _debug_on():
            self._debug_check()

    def insert(self, edge) -> None:
        e = self._check_edge(edge, False)
        self.edges.add(e)
        self._count(e, 1)

    def delete(self, edge) -> None:
        e = self._check_edge(edge, True)
        self.edges.discard(e)
        self._count(e, -1)

    def query(self, v) -> bool:
        self._check_vertex(v)
        self.counter.add(1)
        return self.cnt[v] > 0

    def _debug_check(self) -> None:
        edges = self.edges
        full = {e | {w} for e in edges for w in self.vertices
                if w not in e and all(e - {u} | {w} in edges for u in e)}
        for v, c in self.cnt.items():
            _invariant(c == sum(v in f for f in full),
                       "vertex count is its complete (k+1)-sets")


class HypercliqueScan(_Hypergraph):
    """Scan oracle for the clique structures: the edge set, and a query
    tests every k-subset of every (k+1)-set through v."""

    def insert(self, edge) -> None:
        self.edges.add(self._check_edge(edge, False))

    def delete(self, edge) -> None:
        self.edges.discard(self._check_edge(edge, True))

    def query(self, v) -> bool:
        self._check_vertex(v)
        others = [u for u in self.vertices if u != v]
        for cand in itertools.combinations(others, self.k):
            t = set(cand) | {v}
            if all(frozenset(s) in self.edges
                   for s in itertools.combinations(t, self.k)):
                return True
        return False


# ---------------- OuMv brute force ----------------

def _check_oumv(M, N: int, k: int):
    out = set()
    for a in M:
        a = tuple(a)
        if len(a) != k or any(not 1 <= ai <= N for ai in a):
            raise ValueError(f"bad tuple {a} for N={N}, k={k}")
        out.add(a)
    return out


def oumv_bruteforce(M, N: int, k: int, us: Sequence[Set[int]]) -> bool:
    """Is there a tuple of M inside U1 x ... x Uk?"""
    ms = _check_oumv(M, N, k)
    if len(us) != k:
        raise ValueError("need k index sets")
    for u in us:
        if any(not 1 <= j <= N for j in u):
            raise ValueError("index set out of range")
    return any(all(a[i] in us[i] for i in range(k)) for a in ms)
