"""Tensor-shaped dynamic structures and the batched OuMv driver.

LangermanDS watches a d-dim array under point increments and answers "does
any prefix box sum to zero".  Prefix values are cached on a grid of block
anchors; each cell keeps only its residual against its block anchor, and a
per-block multiset of residuals makes the zero test one lookup per block.

EricksonLazy and EricksonEager maintain a tensor under slab increments with
max queries.  HypercliqueLazy and HypercliqueCounting maintain a k-uniform
hypergraph under edge flips and answer (k+1)-clique membership queries.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .core_geom import VisitCounter, _debug_on, _invariant

__all__ = [
    "Tensor",
    "LangermanDS",
    "LangermanScan",
    "EricksonLazy",
    "EricksonEager",
    "HypercliqueLazy",
    "HypercliqueCounting",
    "OuMvBrute",
    "BatchedOuMv",
    "oumv_bruteforce",
]


# ---------------- dense tensor ----------------

class Tensor:
    """Dense integer tensor with 1-based indexing."""

    def __init__(self, extents: Sequence[int], fill: int = 0):
        extents = tuple(int(e) for e in extents)
        if not extents or any(e < 1 for e in extents):
            raise ValueError("extents must be positive")
        self.extents = extents
        self.data = [fill] * math.prod(extents)

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
        """P[x] = sum of entries over the closed box [1, x]."""
        p = self.copy()
        d = len(self.extents)
        strides = [1] * d
        for i in range(d - 2, -1, -1):
            strides[i] = strides[i + 1] * self.extents[i + 1]
        data = p.data
        for ax in range(d):
            st = strides[ax]
            e = self.extents[ax]
            for base in range(len(data)):
                # walk handled once per fiber start
                if (base // st) % e != 0:
                    continue
                acc = 0
                off = base
                for _ in range(e):
                    acc += data[off]
                    data[off] = acc
                    off += st
        return p


# ---------------- prefix-zero detection ----------------

class LangermanDS:
    """Zero-prefix detection for a d-dim array under point increments.

    Blocks have side B along every axis; a cell's block is floor(x_i / B)
    per axis and its anchor is B times the block index.  Anchors with any
    zero coordinate fall outside the array and contribute prefix 0.
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

    # block index ranges per axis: 0 exists only when B > 1
    def _t_range(self, ax: int) -> range:
        lo = 1 // self.B
        return range(lo, self.extents[ax] // self.B + 1)

    def _build(self) -> None:
        B = self.B
        P = self.T.prefix_sums()
        self.grid: Dict[tuple, int] = {}
        for t in itertools.product(*(range(1, e // B + 1) for e in self.extents)):
            g = tuple(ti * B for ti in t)
            self.grid[g] = P[g]
        self.r = P.copy()
        self.blocks: Dict[tuple, Counter] = {}
        for x in self.T.indices():
            t = tuple(xi // B for xi in x)
            anchor_val = self._anchor_val(t)
            res = P[x] - anchor_val
            self.r[x] = res
            self.blocks.setdefault(t, Counter())[res] += 1

    def _anchor_val(self, t: tuple) -> int:
        if any(ti == 0 for ti in t):
            return 0
        return self.grid[tuple(ti * self.B for ti in t)]

    def update(self, z, delta: int) -> None:
        z = tuple(z)
        self.T.add(z, delta)          # validates the index
        if delta == 0:
            return
        B = self.B
        # grid anchors dominating z
        t_lists = []
        for zi, e in zip(z, self.extents):
            t_lists.append(range(-(-zi // B), e // B + 1))
        for t in itertools.product(*t_lists):
            self.counter.add(1)
            self.grid[tuple(ti * B for ti in t)] += delta
        # cells at or past z whose anchor lags behind z on some axis
        seen: Set[tuple] = set()
        for ax in range(self.d):
            zi = z[ax]
            if zi % B == 0:
                continue
            hi = min(self.extents[ax], (zi // B + 1) * B - 1)
            coords = []
            for j in range(self.d):
                if j == ax:
                    coords.append(range(zi, hi + 1))
                else:
                    coords.append(range(z[j], self.extents[j] + 1))
            for x in itertools.product(*coords):
                if x in seen:
                    continue
                seen.add(x)
                self.counter.add(1)
                t = tuple(xi // B for xi in x)
                old = self.r[x]
                new = old + delta
                self.r[x] = new
                blk = self.blocks[t]
                blk[old] -= 1
                if blk[old] == 0:
                    del blk[old]
                blk[new] += 1
        if _debug_on():
            self._debug_check()

    def prefix(self, x) -> int:
        x = tuple(x)
        t = tuple(xi // self.B for xi in x)
        return self._anchor_val(t) + self.r[x]

    def exists_zero(self) -> bool:
        for t in itertools.product(*(self._t_range(ax) for ax in range(self.d))):
            blk = self.blocks.get(t)
            if blk is None:
                continue
            self.counter.add(1)
            if blk.get(-self._anchor_val(t), 0) > 0:
                return True
        return False

    query = exists_zero

    def _debug_check(self) -> None:
        P = self.T.prefix_sums()
        blocks: Dict[tuple, Counter] = {}
        for x in self.T.indices():
            t = tuple(xi // self.B for xi in x)
            av = self._anchor_val(t)
            _invariant(self.r[x] == P[x] - av, "residual table")
            blocks.setdefault(t, Counter())[P[x] - av] += 1
        _invariant(blocks == self.blocks, "block residual histograms")
        for g, v in self.grid.items():
            _invariant(P[g] == v, "grid anchor is a prefix sum")


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

class EricksonLazy:
    """Tensor under slab increments, max query by full scan."""

    def __init__(self, initial: Tensor, counter: Optional[VisitCounter] = None):
        self.base = initial.copy()
        self.extents = initial.extents
        self.inc = [[0] * (e + 1) for e in self.extents]
        self.counter = counter if counter is not None else VisitCounter()

    def increment(self, axis: int, index: int, delta: int = 1) -> None:
        if not 0 <= axis < len(self.extents):
            raise ValueError("bad axis")
        if not 1 <= index <= self.extents[axis]:
            raise ValueError("bad index")
        self.counter.add(1)
        self.inc[axis][index] += delta

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
    """Tensor under slab increments, values materialized, max via histogram.

    `_hist` counts the cells holding each value and `_max` points at the
    largest value held.  An increment moves every slab cell by the same
    delta, so a positive delta can only raise the pointer to a moved cell,
    and when a negative one empties the max slot the cells that left it sit
    |delta| lower: the pointer walks down at most |delta| int slots, or
    takes the largest key when the histogram has fewer distinct values than
    that.  The walk needs int values and deltas; others raise TypeError.
    """

    def __init__(self, initial: Tensor, counter: Optional[VisitCounter] = None):
        if not all(isinstance(v, int) for v in initial.data):
            raise TypeError("EricksonEager needs int values")
        self.vals = initial.copy()
        self.extents = initial.extents
        self.counter = counter if counter is not None else VisitCounter()
        self._hist = Counter(self.vals.data)
        self._max = max(self._hist)

    def increment(self, axis: int, index: int, delta: int = 1) -> None:
        ext = self.extents
        if not 0 <= axis < len(ext):
            raise ValueError("bad axis")
        if not 1 <= index <= ext[axis]:
            raise ValueError("bad index")
        if not isinstance(delta, int):
            raise TypeError("EricksonEager needs an int delta")
        ranges = [range(1, e + 1) if i != axis else (index,)
                  for i, e in enumerate(ext)]
        hist, top = self._hist, self._max
        for x in itertools.product(*ranges):
            self.counter.add(1)
            old = self.vals[x]
            new = old + delta
            self.vals[x] = new
            hist[new] += 1
            hist[old] -= 1
            if not hist[old]:
                del hist[old]
            if new > top:
                top = new
        if top not in hist:
            if -delta <= len(hist):
                while top not in hist:
                    top -= 1
            else:
                top = max(hist)
        self._max = top

    def value(self, x) -> int:
        return self.vals[x]

    def max_value(self) -> int:
        self.counter.add(1)
        return self._max


# ---------------- hypergraph clique maintenance ----------------

def _check_edge(verts: Set, edge, k: int) -> frozenset:
    e = frozenset(edge)
    if len(e) != k:
        raise ValueError(f"edge must have {k} distinct vertices")
    if not e <= verts:
        raise ValueError("edge uses unknown vertices")
    return e


class HypercliqueLazy:
    """k-uniform hypergraph; query scans candidate (k+1)-sets directly."""

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

    def insert(self, edge) -> None:
        e = _check_edge(self._vset, edge, self.k)
        if e in self.edges:
            raise ValueError("edge already present")
        self.counter.add(1)
        self.edges.add(e)

    def delete(self, edge) -> None:
        e = _check_edge(self._vset, edge, self.k)
        if e not in self.edges:
            raise ValueError("edge not present")
        self.counter.add(1)
        self.edges.discard(e)

    def query(self, v) -> bool:
        """Is v in a set of k+1 vertices all of whose k-subsets are edges?"""
        if v not in self._vset:
            raise ValueError("unknown vertex")
        others = [u for u in self.vertices if u != v]
        for comb in itertools.combinations(others, self.k):
            self.counter.add(1)
            cand = set(comb) | {v}
            if all(frozenset(cand - {u}) in self.edges for u in cand):
                return True
        return False


class HypercliqueCounting:
    """Per-vertex counts of complete (k+1)-sets, adjusted on each edge flip."""

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
        self.cnt: Counter = Counter()
        self.counter = counter if counter is not None else VisitCounter()

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
        e = _check_edge(self._vset, edge, self.k)
        if e in self.edges:
            raise ValueError("edge already present")
        for cand in self._completions(e):
            for u in cand:
                self.cnt[u] += 1
        self.edges.add(e)

    def delete(self, edge) -> None:
        e = _check_edge(self._vset, edge, self.k)
        if e not in self.edges:
            raise ValueError("edge not present")
        self.edges.discard(e)
        for cand in self._completions(e):
            for u in cand:
                self.cnt[u] -= 1

    def query(self, v) -> bool:
        if v not in self._vset:
            raise ValueError("unknown vertex")
        self.counter.add(1)
        return self.cnt[v] > 0


# ---------------- OuMv baseline and batched driver ----------------

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


class OuMvBrute:
    """Baseline online solver: rescans M on every query."""

    def __init__(self, M, N: int, k: int):
        self.M = _check_oumv(M, N, k)
        self.N = N
        self.k = k

    def query(self, us: Sequence[Set[int]]) -> bool:
        return oumv_bruteforce(self.M, self.N, self.k, us)

    def reset(self) -> None:
        pass


class BatchedOuMv:
    """Splits [N]^k into side sub_size blocks, one inner solver per block.

    Queries are intersected and translated into each block's local
    coordinates and the block answers are OR-ed.  Every phase_size queries
    all inner solvers are reset first, which lets phase-limited solvers be
    reused indefinitely.
    """

    def __init__(self, M, N: int, k: int, sub_size: int,
                 factory: Callable, phase_size: Optional[int] = None):
        if sub_size < 1:
            raise ValueError("sub_size must be >= 1")
        if phase_size is not None and phase_size < 1:
            raise ValueError("phase_size must be >= 1")
        ms = _check_oumv(M, N, k)
        self.N = N
        self.k = k
        self.n = sub_size
        g = -(-N // sub_size)
        self.g = g
        self.cells: List[Tuple[tuple, object]] = []
        for c in itertools.product(range(g), repeat=k):
            base = tuple(ci * sub_size for ci in c)
            sub = {tuple(ai - base[i] for i, ai in enumerate(a))
                   for a in ms
                   if all(base[i] < a[i] <= base[i] + sub_size
                          for i in range(k))}
            self.cells.append((base, factory(sub, sub_size, k)))
        self.phase_size = phase_size
        self.queries_done = 0

    def query(self, us: Sequence[Set[int]]) -> bool:
        if len(us) != self.k:
            raise ValueError("need k index sets")
        for u in us:
            if any(not 1 <= j <= self.N for j in u):
                raise ValueError("index set out of range")
        if self.phase_size is not None and self.queries_done >= self.phase_size:
            self.reset()
        ans = False
        for base, solver in self.cells:
            local = [{j - base[i] for j in us[i]
                      if base[i] < j <= base[i] + self.n}
                     for i in range(self.k)]
            if solver.query(local):
                ans = True
        self.queries_done += 1
        return ans

    def reset(self) -> None:
        for _, solver in self.cells:
            solver.reset()
        self.queries_done = 0
