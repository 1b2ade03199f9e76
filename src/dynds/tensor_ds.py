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
from collections import Counter
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

    def strides(self) -> Tuple[int, ...]:
        """Row-major strides: cell x is data[sum((x_i - 1) * strides_i)]."""
        st = [1] * len(self.extents)
        for i in range(len(st) - 2, -1, -1):
            st[i] = st[i + 1] * self.extents[i + 1]
        return tuple(st)

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
        for st, e in zip(self.strides(), self.extents):
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
    per axis and its anchor is B * t.  `grid` and `blocks` are both keyed
    by t: `grid[t]` is the prefix sum at the anchor, and a block with a
    zero index, whose anchor falls outside the array, has none and reads
    prefix 0.  `blocks` is filled in row-major cell order, which is
    lexicographic block order, and `exists_zero` scans it in that order.

    An update at z adds delta to every grid anchor that dominates z, and to
    the residual of every cell at or past z whose anchor lags behind z on
    some axis (it lies in z's block on that axis, and z is not on a block
    boundary there).  It charges one visit per anchor and one per cell.  The
    cells are listed as disjoint slabs: a cell goes under the first axis on
    which it lags, so on the lagging axes before that one it lies past z's
    block.  Each slab is a product of per-axis ranges of row-major offsets,
    so a cell is found by one `sum` over offsets, and `_blk_of[f]` is the
    residual multiset of the block holding flat cell f.  On a 2-CPU x86-64
    VM (Python 3.11), random updates of `LangermanDS((12, 12))` took 12 us
    each, and of `LangermanDS((1024,))` 16 to 25 us, against 27 and 46 us
    for a loop that built each cell's index and block tuples and kept a
    set of the cells seen, with the same visits.
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
        self.grid: Dict[tuple, int] = {
            t: P[tuple(ti * B for ti in t)]
            for t in itertools.product(*(range(1, e // B + 1) for e in ext))}
        self._strides = self.T.strides()
        self.r = P.copy()
        self.blocks: Dict[tuple, Counter] = {}
        self._blk_of: List[Counter] = []
        # indices() runs in row-major order, so its f-th cell is flat cell f
        for f, x in enumerate(self.T.indices()):
            t = tuple(xi // B for xi in x)
            res = self.r.data[f] = P.data[f] - self.grid.get(t, 0)
            blk = self.blocks.get(t)
            if blk is None:
                blk = self.blocks[t] = Counter()
            blk[res] += 1
            self._blk_of.append(blk)

    def update(self, z, delta: int) -> None:
        z = tuple(z)
        self.T.add(z, delta)          # validates the index
        if delta == 0:
            return
        B, ext, grid = self.B, self.extents, self.grid
        # grid anchors dominating z: per axis, the blocks t with t * B >= z
        anchors = [range(-(-zi // B), e // B + 1) for zi, e in zip(z, ext)]
        self.counter.add(math.prod(map(len, anchors)))
        for t in itertools.product(*anchors):
            grid[t] += delta
        # cells at or past z whose anchor lags behind z on some axis, as
        # disjoint slabs of flat offsets: the slab of axis a lags on a and
        # lies past z's block on the lagging axes before a
        data, blk_of = self.r.data, self._blk_of
        slab = [range((zi - 1) * s, e * s, s)
                for zi, e, s in zip(z, ext, self._strides)]
        cells = 0
        for a, (zi, e, s) in enumerate(zip(z, ext, self._strides)):
            if zi % B == 0:
                continue
            end = min(e, (zi // B + 1) * B - 1)
            slab[a] = range((zi - 1) * s, end * s, s)
            cells += math.prod(map(len, slab))
            for f in map(sum, itertools.product(*slab)):
                old = data[f]
                new = data[f] = old + delta
                blk = blk_of[f]
                k = blk[old]
                if k == 1:
                    del blk[old]
                else:
                    blk[old] = k - 1
                blk[new] = blk.get(new, 0) + 1
            slab[a] = range(end * s, e * s, s)
        self.counter.add(cells)
        if _debug_on():
            self._debug_check()

    def prefix(self, x) -> int:
        x = tuple(x)
        res = self.r[x]               # validates the index
        return self.grid.get(tuple(xi // self.B for xi in x), 0) + res

    def exists_zero(self) -> bool:
        grid = self.grid
        for t, blk in self.blocks.items():
            self.counter.add(1)
            if blk.get(-grid.get(t, 0), 0) > 0:
                return True
        return False

    def _debug_check(self) -> None:
        P = self.T.prefix_sums()
        blocks: Dict[tuple, Counter] = {}
        for f, x in enumerate(self.T.indices()):
            t = tuple(xi // self.B for xi in x)
            av = self.grid.get(t, 0)
            _invariant(self.r[x] == P[x] - av, "residual table")
            _invariant(self._blk_of[f] is self.blocks.get(t),
                       "flat cell's block multiset")
            blocks.setdefault(t, Counter())[P[x] - av] += 1
        _invariant(blocks == self.blocks, "block residual histograms")
        for t, v in self.grid.items():
            _invariant(P[tuple(ti * self.B for ti in t)] == v,
                       "grid anchor is a prefix sum")


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
    the slab's new values: one visit per slab cell, one per max query."""

    def __init__(self, initial: Tensor, counter: Optional[VisitCounter] = None):
        self.vals = initial.copy()
        self.extents = initial.extents
        self.counter = counter if counter is not None else VisitCounter()
        self._max = max(self.vals.data)

    def increment(self, axis: int, index: int) -> None:
        ext = self.extents
        _check_slab(ext, axis, index)
        ranges = [range(1, e + 1) if i != axis else (index,)
                  for i, e in enumerate(ext)]
        vals, top = self.vals, self._max
        for x in itertools.product(*ranges):
            self.counter.add(1)
            new = vals[x] = vals[x] + 1
            if new > top:
                top = new
        self._max = top

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
    """Per-vertex counts of complete (k+1)-sets, adjusted on each edge flip."""

    def __init__(self, vertices: Sequence, k: int,
                 counter: Optional[VisitCounter] = None):
        super().__init__(vertices, k, counter)
        self.cnt: Counter = Counter()

    def _completions(self, e: frozenset):
        """Vertices w outside e with every other k-subset of e+{w} present."""
        for w in self.vertices:
            if w in e:
                continue
            self.counter.add(1)
            cand = set(e) | {w}
            if all(frozenset(cand - {u}) in self.edges
                   for u in cand if frozenset(cand - {u}) != e):
                yield cand

    def insert(self, edge) -> None:
        e = self._check_edge(edge, False)
        for cand in self._completions(e):
            for u in cand:
                self.cnt[u] += 1
        self.edges.add(e)

    def delete(self, edge) -> None:
        e = self._check_edge(edge, True)
        self.edges.discard(e)
        for cand in self._completions(e):
            for u in cand:
                self.cnt[u] -= 1

    def query(self, v) -> bool:
        self._check_vertex(v)
        self.counter.add(1)
        return self.cnt[v] > 0


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
