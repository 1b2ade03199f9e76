"""Executable reductions from clique detection and OuMv onto structure targets.

Each reduction drives a pluggable target adapter.  Adapters backed by
brute-force oracles and by the real structures accept identical call
sequences and must produce identical outputs; direct detection (k-partite
clique enumeration, OuMv brute force) anchors the crosscheck suite.

Most adapters build a `Target`: a build function that makes a structure or
its scan oracle, plus a `{driver call: f(ds, *args)}` table.  The scan
oracles live next to their structures and share their method names, so
one table serves both.  The graph, document and cube-volume oracles below
have no structure to share and are written here.  Both graph oracles answer
with one breadth-first search, `_reaches`: subgraph connectivity enters only
active vertices, st-reachability every vertex.  The common-colors document
target extends the scan oracle `DocsTargetOracle`, whose on-set, id check
and fingerprint it keeps, and answers pair queries from `CommonColorsDS`.

The lower bounds charge a reduction for the updates and queries it makes on
its target.  A driver runs on a target wrapped in `Counted`, which tallies
every method call except `fingerprint`, and checks its call budget against
that tally with `_budget`, a contract check that holds under `python -O`.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .colors import CommonColorsDS, DynColorCountDS, dcc_oracle, docs_oracle
from .core_geom import Box, Interval, PointScan, _debug_on, _invariant
from .geom_dyn import (HalfspaceScan, HalfspaceSystem, SemiOnlineEngine,
                       Skyline3DBlock, SkylineScan, klee_union_volume)
from .range_mode import (DynRangeModeDS, SequenceAdapter, SequenceScan,
                         mode_oracle, sequence_minority_oracle)
from .tensor_ds import (EricksonEager, EricksonLazy, HypercliqueCounting,
                        HypercliqueLazy, LangermanDS, LangermanScan, Tensor,
                        oumv_bruteforce)


# ---------------- k-partite graphs ----------------

class KPartiteGraph:
    """Vertex parts 1..k (members 1..n_i) with cross-part edges only."""

    def __init__(self, sizes: Sequence[int], edges=()):
        self.sizes = tuple(int(n) for n in sizes)
        if not self.sizes or any(n < 0 for n in self.sizes):
            raise ValueError("part sizes must be non-negative")
        self.k = len(self.sizes)
        self._adj: Dict[Tuple[int, int], Dict[int, Set[int]]] = {}
        self.edges: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()
        for e in edges:
            (pi, u), (pj, v) = e
            self._check_vertex(pi, u)
            self._check_vertex(pj, v)
            if pi == pj:
                raise ValueError(f"intra-part edge in part {pi}")
            if pi > pj:
                pi, u, pj, v = pj, v, pi, u
            self.edges.add(((pi, u), (pj, v)))
            self._adj.setdefault((pi, u), {}).setdefault(pj, set()).add(v)
            self._adj.setdefault((pj, v), {}).setdefault(pi, set()).add(u)

    def _check_vertex(self, p: int, u: int) -> None:
        if not 1 <= p <= self.k:
            raise ValueError(f"part {p} out of range 1..{self.k}")
        if not 1 <= u <= self.sizes[p - 1]:
            raise ValueError(f"vertex {u} out of range in part {p}")

    def has(self, pi: int, u: int, pj: int, v: int) -> bool:
        return v in self._adj.get((pi, u), {}).get(pj, ())

    def neighbors(self, pi: int, u: int, pj: int) -> List[int]:
        self._check_vertex(pi, u)
        return sorted(self._adj.get((pi, u), {}).get(pj, ()))


def random_kpartite(rng: random.Random, sizes: Sequence[int],
                    p: float) -> KPartiteGraph:
    edges = []
    k = len(sizes)
    for pi in range(1, k + 1):
        for pj in range(pi + 1, k + 1):
            for u in range(1, sizes[pi - 1] + 1):
                for v in range(1, sizes[pj - 1] + 1):
                    if rng.random() < p:
                        edges.append(((pi, u), (pj, v)))
    return KPartiteGraph(sizes, edges)


def clique_bruteforce(g: KPartiteGraph) -> bool:
    """One vertex per part, all pairs adjacent; product search with pruning."""
    if any(n == 0 for n in g.sizes):
        return False

    def extend(chosen: List[int]) -> bool:
        i = len(chosen) + 1
        if i > g.k:
            return True
        for v in range(1, g.sizes[i - 1] + 1):
            if all(g.has(j, u, i, v) for j, u in enumerate(chosen, start=1)):
                if extend(chosen + [v]):
                    return True
        return False

    return extend([])


def _is_clique(g: KPartiteGraph, verts: Sequence[int]) -> bool:
    """verts[i] lives in part i+1; checks all cross pairs."""
    m = len(verts)
    return all(g.has(i + 1, verts[i], j + 1, verts[j])
               for i in range(m) for j in range(i + 1, m))


def _require_parts(g: KPartiteGraph, k: int) -> None:
    if g.k != k:
        raise ValueError(f"reduction needs a {k}-partite graph, got {g.k} parts")


# ---------------- instance file formats ----------------

def _content_lines(text: str) -> List[Tuple[int, List[str]]]:
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((no, line.split()))
    return rows


def _ints(no: int, toks: Sequence[str]) -> List[int]:
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise ValueError(f"line {no}: expected integers, got {' '.join(toks)}")


def parse_graph(text: str) -> KPartiteGraph:
    rows = _content_lines(text)
    if not rows:
        raise ValueError("line 1: missing graph header")
    no, toks = rows[0]
    nums = _ints(no, toks)
    if len(nums) < 2 or len(nums) != nums[0] + 1:
        raise ValueError(f"line {no}: header must be 'k n_1 .. n_k'")
    sizes = nums[1:]
    edges = []
    for no, toks in rows[1:]:
        if len(toks) != 4:
            raise ValueError(f"line {no}: edge line must be 'p_i u p_j v'")
        pi, u, pj, v = _ints(no, toks)
        if pi >= pj:
            raise ValueError(f"line {no}: edge parts must satisfy p_i < p_j")
        try:
            KPartiteGraph(sizes, [((pi, u), (pj, v))])
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}")
        edges.append(((pi, u), (pj, v)))
    return KPartiteGraph(sizes, edges)


def format_graph(g: KPartiteGraph) -> str:
    out = [" ".join([str(g.k)] + [str(n) for n in g.sizes])]
    for (pi, u), (pj, v) in sorted(g.edges):
        out.append(f"{pi} {u} {pj} {v}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class OuMvInstance:
    """Static k-dim 0/1 tensor M over [n]^k plus a list of subset queries."""

    k: int
    n: int
    tuples: frozenset
    queries: tuple     # each query: k-tuple of frozensets of [n]


def oumv_answers(inst: OuMvInstance) -> List[bool]:
    return [oumv_bruteforce(inst.tuples, inst.n, inst.k, us)
            for us in inst.queries]


def random_oumv(rng: random.Random, k: int, n: int, num_queries: int = 3,
                p: float = 0.5) -> OuMvInstance:
    tuples = frozenset(t for t in itertools.product(range(1, n + 1), repeat=k)
                       if rng.random() < p)
    queries = tuple(
        tuple(frozenset(j for j in range(1, n + 1) if rng.random() < 0.5)
              for _ in range(k))
        for _ in range(num_queries))
    return OuMvInstance(k, n, tuples, queries)


def parse_oumv(text: str) -> OuMvInstance:
    rows = _content_lines(text)
    if not rows:
        raise ValueError("line 1: missing OuMv header")
    no, toks = rows[0]
    nums = _ints(no, toks)
    if len(nums) != 4:
        raise ValueError(f"line {no}: header must be 'k n |M| q'")
    k, n, m, q = nums
    if k < 2 or n < 1 or m < 0 or q < 0:
        raise ValueError(f"line {no}: bad header values")
    need = 1 + m + q * k
    if len(rows) != need:
        raise ValueError(f"line {rows[-1][0]}: expected {need} content lines, "
                         f"got {len(rows)}")
    tuples = set()
    for no, toks in rows[1:1 + m]:
        t = tuple(_ints(no, toks))
        if len(t) != k or any(not 1 <= x <= n for x in t):
            raise ValueError(f"line {no}: tuple must be {k} values in 1..{n}")
        tuples.add(t)
    queries = []
    at = 1 + m
    for _ in range(q):
        us = []
        for i in range(k):
            no, toks = rows[at]
            at += 1
            if toks == ["-"]:
                us.append(frozenset())
                continue
            vals = _ints(no, toks)
            if any(not 1 <= x <= n for x in vals):
                raise ValueError(f"line {no}: subset members must be in 1..{n}")
            us.append(frozenset(vals))
        queries.append(tuple(us))
    return OuMvInstance(k, n, frozenset(tuples), tuple(queries))


def format_oumv(inst: OuMvInstance) -> str:
    out = [f"{inst.k} {inst.n} {len(inst.tuples)} {len(inst.queries)}"]
    for t in sorted(inst.tuples):
        out.append(" ".join(str(x) for x in t))
    for us in inst.queries:
        for u in us:
            out.append(" ".join(str(x) for x in sorted(u)) if u else "-")
    return "\n".join(out) + "\n"


# ---------------- graph baselines ----------------

def _reaches(adj, s, t, allowed) -> bool:
    """Breadth-first search from s for t, entering only `allowed` vertices."""
    seen = {s}
    frontier = deque([s])
    while frontier:
        u = frontier.popleft()
        if u == t:
            return True
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


class SubConnTargetOracle:
    """Undirected graph with a dynamic active set; queries search it."""

    def __init__(self):
        self.adj: Dict[object, Set] = {}
        self.active: Set = set()
        self.s = self.t = None

    def build(self, vertices, edges, s, t) -> None:
        self.adj = {v: set() for v in vertices}
        for u, v in edges:
            if u not in self.adj or v not in self.adj:
                raise KeyError(f"edge on unknown vertex {(u, v)!r}")
            self.adj[u].add(v)
            self.adj[v].add(u)
        if s not in self.adj or t not in self.adj:
            raise KeyError("s or t not a vertex")
        self.s, self.t = s, t
        self.active = set(vertices)

    def set_active(self, v, flag: bool) -> None:
        if v not in self.adj:
            raise KeyError(f"unknown vertex {v!r}")
        if flag:
            self.active.add(v)
        else:
            self.active.discard(v)

    def query(self) -> bool:
        return self.s in self.active and self.t in self.active \
            and _reaches(self.adj, self.s, self.t, self.active)

    def fingerprint(self):
        return frozenset(self.active)


class StReachTargetOracle:
    """Directed graph under edge flips; queries search for an s-t path."""

    def __init__(self):
        self.adj: Dict[object, Set] = {}
        self.s = self.t = None

    def build(self, vertices, edges, s, t) -> None:
        self.adj = {v: set() for v in vertices}
        self.s, self.t = s, t
        if s not in self.adj or t not in self.adj:
            raise KeyError("s or t not a vertex")
        for u, v in edges:
            self.insert_edge(u, v)

    def insert_edge(self, u, v) -> None:
        if u not in self.adj or v not in self.adj:
            raise KeyError(f"unknown vertex on edge {(u, v)!r}")
        if v in self.adj[u]:
            raise ValueError(f"edge {(u, v)!r} already present")
        self.adj[u].add(v)

    def delete_edge(self, u, v) -> None:
        if u not in self.adj or v not in self.adj:
            raise KeyError(f"unknown vertex on edge {(u, v)!r}")
        if v not in self.adj[u]:
            raise ValueError(f"edge {(u, v)!r} not present")
        self.adj[u].discard(v)

    def query(self) -> bool:
        return _reaches(self.adj, self.s, self.t, self.adj)

    def fingerprint(self):
        return frozenset((u, v) for u, outs in self.adj.items() for v in outs)


# ---------------- fingerprint plumbing ----------------

def _fp(target):
    fn = getattr(target, "fingerprint", None)
    return fn() if fn is not None else None


def _fp_check(target, before, where: str) -> None:
    if before is None:
        return
    if target.fingerprint() != before:
        raise RuntimeError(f"target state not restored after {where}")


def _budget(ok: bool, what: str) -> None:
    """A driver's call-budget check; raises under `python -O` too."""
    if not ok:
        raise RuntimeError(f"call budget broken: {what}")


def _require(ok: bool, what: str) -> None:
    """A driver's closed-form check on target answers; raises under
    `python -O` too."""
    if not ok:
        raise RuntimeError(what)


# ---------------- sequence mode / minority ----------------

def _part4_neighbors(g: KPartiteGraph):
    """Part-4 neighbour lists (sorted) and sets of parts 1..3, by vertex."""
    nbrs = [{v: g.neighbors(p, v, 4) for v in range(1, n + 1)}
            for p, n in enumerate(g.sizes[:3], start=1)]
    return nbrs, [{v: set(ns) for v, ns in nbr.items()} for nbr in nbrs]


def red_4clique_range_mode(g: KPartiteGraph, target) -> bool:
    """Parts A,B,C,D = 1..4; phase per c inserts N_D(c) into the middle."""
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    dom = list(range(1, nD + 1))
    (nbrA, nbrB, nbrC), (asets, bsets, csets) = _part4_neighbors(g)

    arr = []
    for a in range(1, nA + 1):      # P_a: non-neighbors first, neighbors last
        arr += [d for d in dom if d not in asets[a]] + nbrA[a]
    mid = nA * nD
    for b in range(1, nB + 1):      # Q_b: neighbors first, non-neighbors last
        arr += nbrB[b] + [d for d in dom if d not in bsets[b]]
    target.build(arr, mid)
    fp0 = _fp(target)

    good_a = [a for a in range(1, nA + 1) if nbrA[a]]
    good_b = [b for b in range(1, nB + 1) if nbrB[b]]
    found = False
    for c in range(1, nC + 1):
        ins = nbrC[c]
        target.insert_middle(ins)
        for a in good_a:
            l = (a - 1) * nD + (nD - len(nbrA[a])) + 1
            for b in good_b:
                r = mid + len(ins) + (b - 1) * nD + len(nbrB[b])
                lab = target.query(l, r)
                # complete permutation blocks covered by [l, r]
                full = (nA - a) + (b - 1)
                freq = full + (lab in asets[a]) + (lab in bsets[b]) \
                    + (lab in csets[c])
                if freq == full + 3 and _is_clique(g, (a, b, c)):
                    found = True
        target.delete_middle()
        _fp_check(target, fp0, "mode phase")

    _budget(target.calls["query"] == len(good_a) * len(good_b) * nC,
            "mode queries")
    _budget(target.calls["build"] == 1, "mode builds")
    _budget(target.inserted_elems <= nC * nD, "mode inserted elements")
    return found


def red_4clique_range_minority(g: KPartiteGraph, target) -> bool:
    """Minority variant: orders swapped, a static separator permutation."""
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    if nD == 0:
        return False
    dom = list(range(1, nD + 1))
    (nbrA, nbrB, nbrC), (asets, bsets, csets) = _part4_neighbors(g)

    arr = []
    for a in range(1, nA + 1):      # neighbors first here
        arr += nbrA[a] + [d for d in dom if d not in asets[a]]
    mid = nA * nD
    arr += dom                      # separator copy of D, always in range
    for b in range(1, nB + 1):
        arr += [d for d in dom if d not in bsets[b]] + nbrB[b]
    target.build(arr, mid)
    fp0 = _fp(target)

    found = False
    for c in range(1, nC + 1):
        ins = [d for d in dom if d not in csets[c]]
        target.insert_middle(ins)
        for a in range(1, nA + 1):
            l = (a - 1) * nD + len(nbrA[a]) + 1
            for b in range(1, nB + 1):
                r = mid + len(ins) + nD + (b - 1) * nD \
                    + (nD - len(nbrB[b]))
                lab = target.query(l, r)
                if lab in asets[a] and lab in bsets[b] and lab in csets[c] \
                        and _is_clique(g, (a, b, c)):
                    found = True
        target.delete_middle()
        _fp_check(target, fp0, "minority phase")

    _budget(target.calls["query"] == nA * nB * nC, "minority queries")
    _budget(target.inserted_elems <= nC * nD, "minority inserted elements")
    return found


# ---------------- d-dimensional mode ----------------

def _half_axis_points(g: KPartiteGraph, d: int, label_part: int):
    """Static points: axis q = ceil(i/2) holds array A_i at +/- positions."""
    nL = g.sizes[label_part - 1]
    dom = list(range(1, nL + 1))
    pts = []
    nbr = {}
    for i in range(1, 2 * d + 1):
        axis = (i + 1) // 2
        sign = 1 if i % 2 == 1 else -1
        seq = []
        for v in range(1, g.sizes[i - 1] + 1):
            ns = g.neighbors(i, v, label_part)
            nbr[(i, v)] = ns
            nset = set(ns)
            seq += ns + [u for u in dom if u not in nset]
        for pos, lab in enumerate(seq, start=1):
            coords = [0] * d
            coords[axis - 1] = sign * pos
            pts.append((tuple(coords), lab))
    return pts, nbr


def _dmode_box(nbr, tup, nL: int, d: int) -> Box:
    ivals = []
    for axis in range(1, d + 1):
        i_hi, i_lo = 2 * axis - 1, 2 * axis
        b_hi = (tup[i_hi - 1] - 1) * nL + len(nbr[(i_hi, tup[i_hi - 1])])
        b_lo = (tup[i_lo - 1] - 1) * nL + len(nbr[(i_lo, tup[i_lo - 1])])
        ivals.append(Interval.closed(-b_lo, b_hi))
    return Box(ivals)


def _dmode_labels(g: KPartiteGraph, target, nbr, nL: int, d: int):
    """One box query per (2d)-tuple whose every v_i has a candidate common
    neighbour, in product order: yields the tuple and the label found,
    or None when the query found none that neighbours every v_i."""
    for tup in itertools.product(*[range(1, n + 1) for n in g.sizes[:2 * d]]):
        if any(not nbr[(i, tup[i - 1])] for i in range(1, 2 * d + 1)):
            continue   # some v_i has no candidate common neighbor
        lab = target.query(_dmode_box(nbr, tup, nL, d))
        if lab is not None and not all(lab in nbr[(i, tup[i - 1])]
                                       for i in range(1, 2 * d + 1)):
            lab = None
        yield tup, lab


def red_clique_batch_dmode(g: KPartiteGraph, target, d: int) -> bool:
    """(2d+1)-clique detection via one box query per (2d)-tuple."""
    _require_parts(g, 2 * d + 1)
    label_part = 2 * d + 1
    nL = g.sizes[label_part - 1]
    pts, nbr = _half_axis_points(g, d, label_part)
    target.build(pts)

    found = False
    queried = 0
    for tup, lab in _dmode_labels(g, target, nbr, nL, d):
        queried += 1
        if lab is not None and _is_clique(g, tup):
            found = True
    _budget(target.calls["query"] == queried, "batch-mode queries")
    _budget(target.calls["build"] == 1, "batch-mode builds")
    return found


def red_clique_dyn_dmode(g: KPartiteGraph, target, d: int) -> bool:
    """(2d+2)-clique: phase per w adds labeled points inside (-1,1)^d."""
    _require_parts(g, 2 * d + 2)
    label_part = 2 * d + 2
    phase_part = 2 * d + 1
    nL = g.sizes[label_part - 1]
    pts, nbr = _half_axis_points(g, d, label_part)
    target.build(pts)
    fp0 = _fp(target)

    origin = (0,) * d
    found = False
    inserted = 0
    for w in range(1, g.sizes[phase_part - 1] + 1):
        ins = g.neighbors(phase_part, w, label_part)
        wset = set(ins)
        for u in ins:
            target.insert(origin, u)
        inserted += len(ins)
        for tup, lab in _dmode_labels(g, target, nbr, nL, d):
            if lab in wset and _is_clique(g, tup + (w,)):
                found = True
        for u in ins:
            target.delete(origin, u)
        _fp_check(target, fp0, "dyn-mode phase")

    _budget(inserted <= g.sizes[phase_part - 1] * nL, "dyn-mode inserts")
    return found


# ---------------- subgraph connectivity ----------------

def red_4clique_subconn(g: KPartiteGraph, target) -> bool:
    """Layered {s} V_B U_B U_D U_C V_C {t} instance, literal loop order."""
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    verts = ["s", "t"]
    verts += [("VB", b) for b in range(1, nB + 1)]
    verts += [("UB", a) for a in range(1, nA + 1)]
    verts += [("UD", a) for a in range(1, nA + 1)]
    verts += [("UC", a) for a in range(1, nA + 1)]
    verts += [("VC", c) for c in range(1, nC + 1)]
    edges = [("s", ("VB", b)) for b in range(1, nB + 1)]
    edges += [(("VC", c), "t") for c in range(1, nC + 1)]
    for a in range(1, nA + 1):
        edges.append((("UB", a), ("UD", a)))
        edges.append((("UD", a), ("UC", a)))
        for b in g.neighbors(1, a, 2):
            edges.append((("VB", b), ("UB", a)))
        for c in g.neighbors(1, a, 3):
            edges.append((("UC", a), ("VC", c)))
    target.build(verts, edges, "s", "t")

    for dd in range(1, nD + 1):
        for a in range(1, nA + 1):
            target.set_active(("UD", a), g.has(1, a, 4, dd))
        for b in g.neighbors(4, dd, 2):
            target.set_active(("VB", b), True)
            for b2 in range(1, nB + 1):
                if b2 != b:
                    target.set_active(("VB", b2), False)
            for c in range(1, nC + 1):
                target.set_active(("VC", c),
                                  g.has(3, c, 4, dd) and g.has(2, b, 3, c))
            if target.query():
                return True
    _budget(target.calls["set_active"] <= nD * nA + sum(
        len(g.neighbors(4, dd, 2)) for dd in range(1, nD + 1)) * (nB + nC),
        "subconn activations")
    return False


# ---------------- two-pattern document retrieval ----------------

class DocsTargetOracle:
    """Documents as symbol sets, on/off flags, scan-counted pair queries."""

    def __init__(self):
        self.docs: List[Set] = []
        self.on: Set[int] = set()

    def build(self, docs) -> None:
        self.docs = [set(s) for s in docs]
        self.on = set()

    def set_on(self, doc_id: int, flag: bool) -> None:
        if not 1 <= doc_id <= len(self.docs):
            raise KeyError(f"unknown document {doc_id}")
        if flag:
            self.on.add(doc_id)
        else:
            self.on.discard(doc_id)

    def query(self, s1, s2) -> int:
        return docs_oracle(self.docs, {i - 1 for i in self.on}, s1, s2)

    def fingerprint(self):
        return frozenset(self.on)


class DocsTargetCommonColors(DocsTargetOracle):
    """Doc toggles through the fixed-array common-color structure.

    The array has one segment per symbol listing the documents containing
    it (document ids are the colors); a pair query counts on colors shared
    by the two segments.  The on-set, its id check and the fingerprint are
    the scan oracle's.
    """

    def __init__(self):
        super().__init__()
        self.cc: Optional[CommonColorsDS] = None
        self.span: Dict[object, Tuple[int, int]] = {}

    def build(self, docs) -> None:
        super().build(docs)
        members: Dict[object, List[int]] = {}
        for i, syms in enumerate(self.docs, start=1):
            for s in syms:
                members.setdefault(s, []).append(i)
        arr: List[int] = []
        self.span = {}
        for sym in sorted(members):
            l = len(arr) + 1
            arr += sorted(members[sym])
            self.span[sym] = (l, len(arr))
        self.cc = CommonColorsDS(arr)

    def set_on(self, doc_id: int, flag: bool) -> None:
        super().set_on(doc_id, flag)
        if doc_id in self.cc.occ:   # empty documents never reached the array
            self.cc.set_on(doc_id, flag)

    def query(self, s1, s2) -> int:
        sp1, sp2 = self.span.get(s1), self.span.get(s2)
        if sp1 is None or sp2 is None:
            return 0
        return self.cc.query(sp1[0], sp1[1], sp2[0], sp2[1])


def red_4clique_2pattern(g: KPartiteGraph, target) -> bool:
    """Document per d holds its A/B neighbors as symbols; phase per c."""
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    docs = []
    for dd in range(1, nD + 1):
        docs.append({("A", a) for a in g.neighbors(4, dd, 1)}
                    | {("B", b) for b in g.neighbors(4, dd, 2)})
    target.build(docs)
    fp0 = _fp(target)

    found = False
    toggles = 0
    for c in range(1, nC + 1):
        on = g.neighbors(3, c, 4)
        for dd in on:
            target.set_on(dd, True)
        for a in range(1, nA + 1):
            for b in range(1, nB + 1):
                if target.query(("A", a), ("B", b)) > 0 \
                        and _is_clique(g, (a, b, c)):
                    found = True
        for dd in on:
            target.set_on(dd, False)
        toggles += 2 * len(on)
        _fp_check(target, fp0, "2pattern phase")

    _budget(target.calls["query"] == nA * nB * nC, "2pattern queries")
    _budget(toggles <= 2 * nC * nD, "2pattern toggles")
    return found


# ---------------- 2-d color counting ----------------

def red_4clique_color(g: KPartiteGraph, target) -> bool:
    """Anti-chain point sets per part; inclusion-exclusion over six counts.

    q_ab is phase-invariant (the (0,0) points are removed each phase), so it
    is measured once up front.
    """
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    pts = []
    for a in range(1, nA + 1):
        for dd in g.neighbors(1, a, 4):
            pts.append(((a, nA + 1 - a), dd))
    for b in range(1, nB + 1):
        for dd in g.neighbors(2, b, 4):
            pts.append(((-b, -(nB + 1) + b), dd))
    target.build(pts)
    fp0 = _fp(target)

    q_a = {a: len(g.neighbors(1, a, 4)) for a in range(1, nA + 1)}
    q_b = {b: len(g.neighbors(2, b, 4)) for b in range(1, nB + 1)}
    q_c = {c: len(g.neighbors(3, c, 4)) for c in range(1, nC + 1)}

    def box_ab(a, b):
        return Box([Interval.closed(-b, a),
                    Interval.closed(-(nB + 1) + b, nA + 1 - a)])

    pairs = [(a, b) for a in range(1, nA + 1) for b in range(1, nB + 1)]
    q_ab = {(a, b): target.count(box_ab(a, b)) for a, b in pairs}

    found = False
    for c in range(1, nC + 1):
        ins = g.neighbors(3, c, 4)
        for dd in ins:
            target.insert((0, 0), dd)
        for a, b in pairs:
            q_abc = target.count(box_ab(a, b))
            q_ac = target.count(Box([Interval.closed(0, a),
                                     Interval.closed(0, nA + 1 - a)]))
            q_bc = target.count(Box([Interval.closed(-b, 0),
                                     Interval.closed(-(nB + 1) + b, 0)]))
            common = q_abc - q_ab[(a, b)] - q_bc - q_ac \
                + q_a[a] + q_b[b] + q_c[c]
            if _debug_on():
                _invariant(common >= 0, "negative common-color count")
            if common != 0 and _is_clique(g, (a, b, c)):
                found = True
        for dd in ins:
            target.delete((0, 0), dd)
        _fp_check(target, fp0, "color phase")

    _budget(target.calls["count"] == (3 * nC + 1) * nA * nB, "color counts")
    return found


# ---------------- st-reachability ----------------

def red_4clique_streach(g: KPartiteGraph, target) -> bool:
    """Eight layers; per d flip the B/C copy edges, per a~d probe s->..->t."""
    _require_parts(g, 4)
    nA, nB, nC, nD = g.sizes
    verts = ["s", "t"]
    verts += [("A1", a) for a in range(1, nA + 1)]
    verts += [("B1", b) for b in range(1, nB + 1)]
    verts += [("B2", b) for b in range(1, nB + 1)]
    verts += [("C1", c) for c in range(1, nC + 1)]
    verts += [("C2", c) for c in range(1, nC + 1)]
    verts += [("A2", a) for a in range(1, nA + 1)]
    static = []
    for a in range(1, nA + 1):
        for b in g.neighbors(1, a, 2):
            static.append((("A1", a), ("B1", b)))
        for c in g.neighbors(1, a, 3):
            static.append((("C2", c), ("A2", a)))
    for b in range(1, nB + 1):
        for c in g.neighbors(2, b, 3):
            static.append((("B2", b), ("C1", c)))
    target.build(verts, static, "s", "t")

    on = set()                          # the copy edges now in the graph
    for dd in range(1, nD + 1):
        for part, n, one, two in ((2, nB, "B1", "B2"), (3, nC, "C1", "C2")):
            for v in range(1, n + 1):
                edge = ((one, v), (two, v))
                if g.has(part, v, 4, dd) != (edge in on):
                    if edge in on:
                        target.delete_edge(*edge)
                    else:
                        target.insert_edge(*edge)
                    on ^= {edge}
        fp_d = _fp(target)
        for a in g.neighbors(4, dd, 1):
            target.insert_edge("s", ("A1", a))
            target.insert_edge(("A2", a), "t")
            hit = target.query()
            target.delete_edge("s", ("A1", a))
            target.delete_edge(("A2", a), "t")
            _fp_check(target, fp_d, "reach probe")
            if hit:
                return True
    return False


# ---------------- skyline counting ----------------

def _lift(M, top: int, k: int, scale: int) -> List[tuple]:
    """The (2k-1)-d points of the tuples of M, in sorted order: each pair
    axis holds (x, top - x), scaled, and axis 1 is perturbed by -t_k.
    Skyline uses top = N, Klee top = N + 1."""
    pts = []
    for t in sorted(M):
        coords = [t[0] * scale - t[k - 1], (top - t[0]) * scale]
        for i in range(2, k):
            coords += [t[i - 1] * scale, (top - t[i - 1]) * scale]
        coords.append(t[k - 1] * scale)
        pts.append(tuple(coords))
    return pts


def _blockers(us, N: int, k: int, top: int, fill: int,
              scale: int) -> List[tuple]:
    """One point per non-queried index j of each of the first k-1 axes:
    (j, top - j), scaled, on that axis pair and `fill` everywhere else."""
    rows = []
    for i in range(1, k):
        for j in range(1, N + 1):
            if j in us[i - 1]:
                continue
            coords = [fill] * (2 * k - 1)
            coords[2 * i - 2] = j * scale
            coords[2 * i - 1] = (top - j) * scale
            rows.append(tuple(coords))
    return rows


def red_oumvk_skyline(inst: OuMvInstance, target) -> List[bool]:
    """Blocker points mask non-queried rows; probes sweep the last axis.

    Every measured count is checked against its closed form
    -(sum |U_i|) + (k-1)N + 1 + |M inside the query prefix|.
    """
    N, k = inst.n, inst.k
    scale = N + 1          # clears the -a_k/scale perturbation on axis 1
    inf = 2 * N * scale
    dims = 2 * k - 1
    target.preprocess(_lift(inst.tuples, N, k, scale))
    fp0 = _fp(target)

    op = 0
    answers = []
    for us in inst.queries:
        blockers = _blockers(us, N, k, N, inf, scale)
        m = len(blockers)
        start = op
        for off, bp in enumerate(blockers, start=1):
            target.insert(bp, start + m + 3 * (N + 1) + off)
            op += 1
        cs = []
        for j in range(N + 1):
            probe = tuple([inf] * (dims - 1) + [j * scale])
            target.insert(probe, op + 3)
            op += 1
            cs.append(target.count())
            op += 1
            target.delete(probe)
            op += 1
        for bp in blockers:
            target.delete(bp)
            op += 1

        pre_sum = sum(len(us[i]) for i in range(k - 1))
        for j in range(N + 1):
            tail = sum(1 for t in inst.tuples
                       if t[k - 1] > j
                       and all(t[i] in us[i] for i in range(k - 1)))
            expect = -pre_sum + (k - 1) * N + 1 + tail
            _require(cs[j] == expect, f"count c_{j} = {cs[j]} deviates "
                                      f"from closed form {expect}")
        answers.append(sum(cs[j - 1] - cs[j] for j in sorted(us[k - 1])) > 0)
        _fp_check(target, fp0, "skyline phase")
    return answers


def _skyline_capacity(inst: OuMvInstance) -> int:
    N, k = inst.n, inst.k
    total = 0
    for us in inst.queries:
        m = sum(N - len(us[i]) for i in range(k - 1))
        total += 2 * m + 3 * (N + 1)
    return max(1, total)


# ---------------- union volume of congruent cubes ----------------

class KleeTargetOracle:
    """Corner multiset; volumes by the slab-sweep union oracle."""

    def __init__(self):
        self.corners: List = []
        self.side = 0

    def build(self, corners, side) -> None:
        self.corners = [tuple(c) for c in corners]
        self.side = side

    def insert(self, corner) -> None:
        self.corners.append(tuple(corner))

    def delete(self, corner) -> None:
        self.corners.remove(tuple(corner))

    def volume(self) -> Fraction:
        return klee_union_volume(self.corners, self.side)

    def fingerprint(self):
        return tuple(sorted(self.corners))


def red_oumvk_klee(inst: OuMvInstance, target) -> List[bool]:
    """Cube slabs along the last axis; equal volume differences = empty.

    Cubes are named by largest corner.  Pair coordinates use N+1-a so no
    tuple cube degenerates to a zero-width slice inside the uncovered
    orthant; the slack exists because coordinates carry a factor N+1.
    """
    N, k = inst.n, inst.k
    scale = N + 1
    dims = 2 * k - 1
    side = N * scale
    corners = [c for c in itertools.product((0, side), repeat=dims)
               if c != (side,) * dims]
    corners += _lift(inst.tuples, N + 1, k, scale)
    target.build(corners, side)
    fp0 = _fp(target)

    answers = []
    for us in inst.queries:
        blockers = _blockers(us, N, k, N + 1, side, scale)
        for bp in blockers:
            target.insert(bp)
        vols = [target.volume()]
        for j in range(1, N + 1):
            probe = tuple([side] * (dims - 1) + [j * scale])
            target.insert(probe)
            vols.append(target.volume())
            target.delete(probe)
        for bp in blockers:
            target.delete(bp)

        nonempty = {}
        for j in range(1, N):
            nonempty[j] = (vols[j] - vols[j - 1]) != (vols[j + 1] - vols[j])
        nonempty[N] = any(t[k - 1] == N
                          and all(t[i] in us[i] for i in range(k - 1))
                          for t in inst.tuples)
        answers.append(any(nonempty[j] for j in us[k - 1]))
        _fp_check(target, fp0, "klee phase")
    return answers


# ---------------- halfspace depth ----------------

def red_oumvk_halfspace(inst: OuMvInstance, target) -> List[bool]:
    """Open slabs around non-queried indices; depth hits sum(|U_i|) - k."""
    N, k = inst.n, inst.k
    if not inst.tuples:
        return [False] * len(inst.queries)   # min depth undefined on empty Q
    target.build(sorted(inst.tuples))
    fp0 = _fp(target)

    answers = []
    for us in inst.queries:
        hs = []
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            for j in sorted(us[i]):
                hs.append((e, Fraction(2 * j - 1, 2), "lt"))
                hs.append((e, Fraction(2 * j + 1, 2), "gt"))
        for h in hs:
            target.insert(*h)
        mc = target.min_count()
        for h in hs:
            target.delete(*h)
        answers.append(mc == sum(len(u) for u in us) - k)
        _fp_check(target, fp0, "halfspace phase")
    _budget(target.calls["min_count"] == len(inst.queries),
            "halfspace depth queries")
    return answers


# ---------------- hyperclique maintenance ----------------

def red_oumvk_hyperclique(inst: OuMvInstance, target) -> List[bool]:
    """Star vertex s joins one layer-complete hyperedge per dropped layer."""
    N, k = inst.n, inst.k
    verts = ["s"] + [(x, layer) for layer in range(1, k + 1)
                     for x in range(1, N + 1)]
    base = [frozenset((t[i], i + 1) for i in range(k))
            for t in sorted(inst.tuples)]
    target.build(verts, k, base)
    fp0 = _fp(target)

    answers = []
    for us in inst.queries:
        phase = []
        for drop in range(1, k + 1):
            layers = [i for i in range(1, k + 1) if i != drop]
            for combo in itertools.product(*[sorted(us[i - 1])
                                             for i in layers]):
                phase.append(frozenset(
                    ["s"] + [(v, layer) for v, layer in zip(combo, layers)]))
        for e in phase:
            target.insert(e)
        answers.append(target.query("s"))
        for e in phase:
            target.delete(e)
        _fp_check(target, fp0, "hyperclique phase")
        _budget(len(phase) <= k * N ** (k - 1), "hyperclique phase edges")
    return answers


# ---------------- tensor max under slab increments ----------------

def red_oumvk_erickson(inst: OuMvInstance, target) -> List[bool]:
    """Pre-increment queried slabs, post-increment the rest; max hits
    k+1+(f-1)k exactly when the phase-f query is a yes."""
    N, k = inst.n, inst.k
    t0 = Tensor((N,) * k)
    for t in inst.tuples:
        t0[t] = 1
    target.build(t0)

    answers = []
    for f, us in enumerate(inst.queries, start=1):
        before = target.fingerprint()
        for i in range(k):
            for x in sorted(us[i]):
                target.increment(i, x)
        threshold = k + 1 + (f - 1) * k
        mv = target.max_value()
        _require(mv <= threshold, "max above the phase ceiling")
        answers.append(mv == threshold)
        for i in range(k):
            for x in range(1, N + 1):
                if x not in us[i]:
                    target.increment(i, x)
        after = target.fingerprint()
        _require(after == tuple(v + k for v in before),
                 "phase must raise every entry by exactly k")
    return answers


# ---------------- blocked zero-prefix detection ----------------

def _rowmajor_inv(v: int, B: int, d: int) -> tuple:
    # bijection [B]^d -> [B^d], row major, all 1-based
    out = []
    v -= 1
    for ax in range(d):
        p = B ** (d - ax - 1)
        out.append(v // p + 1)
        v %= p
    return tuple(out)


def red_oumvk_langerman(inst: OuMvInstance, target) -> List[bool]:
    """Finite differences of the per-prefix tables, poisoned block rows."""
    N, k = inst.n, inst.k
    d = k - 1
    B = round(N ** (1.0 / d))
    if B ** d != N:
        raise ValueError(f"n = {N} must be a perfect power for {d} axes")
    ext = (B + 1) * N
    t0 = Tensor((ext,) * d)
    for t in inst.tuples:
        a, v = t[:d], t[d]
        y = _rowmajor_inv(v, B, d)
        base = tuple((B + 1) * (ai - 1) for ai in a)
        for bits in itertools.product((0, 1), repeat=d):
            sign = -1 if sum(bits) % 2 else 1
            t0.add(tuple(base[i] + y[i] + bits[i] for i in range(d)), sign * v)
    if _debug_on():
        pref = t0.prefix_sums()
        table = {}
        for t in inst.tuples:
            table[(t[:d], _rowmajor_inv(t[d], B, d))] = t[d]
        for a in itertools.product(range(1, N + 1), repeat=d):
            for y in itertools.product(range(1, B + 1), repeat=d):
                pos = tuple((B + 1) * (a[i] - 1) + y[i] for i in range(d))
                _invariant(pref[pos] == table.get((a, y), 0),
                           "prefix table identity")
    target.build((ext,) * d, t0)
    fp0 = _fp(target)

    big = 1000 * N
    ones = (1,) * d
    answers = []
    for us in inst.queries:
        poisoned = []
        for i in range(d):
            for j in range(1, N + 1):
                if j in us[i]:
                    continue
                lo = list(ones)
                hi = list(ones)
                lo[i] = (j - 1) * (B + 1) + 1
                hi[i] = j * (B + 1)
                poisoned.append((tuple(lo), tuple(hi)))
        for lo, hi in poisoned:
            target.update(lo, big)
            target.update(hi, -big)
        hit = False
        for j in sorted(us[d]):
            target.update(ones, -j)
            if target.exists_zero():
                hit = True
            target.update(ones, j)
        for lo, hi in poisoned:
            target.update(lo, -big)
            target.update(hi, big)
        answers.append(hit)
        _fp_check(target, fp0, "zero-prefix phase")
    return answers


# ---------------- fault injection ----------------

_QUERY_METHODS = {"query", "count", "volume", "min_count", "max_value",
                  "exists_zero"}


class FaultyTarget:
    """Wrapper that corrupts the first query-style answer it forwards.

    Flips bools, bumps numbers, bumps the count component of (value, count)
    pairs.  Stays armed across unflippable answers (e.g. None) so exactly
    one answer is corrupted whenever any flippable one occurs.
    """

    def __init__(self, inner):
        self._inner = inner
        self._armed = True

    def _flip(self, out):
        if isinstance(out, bool):
            return not out
        if isinstance(out, (int, Fraction)):
            return out + 1
        if isinstance(out, tuple) and out and isinstance(out[-1], int):
            return out[:-1] + (out[-1] + 1,)
        return None

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if callable(attr) and name in _QUERY_METHODS:
            def wrapped(*args, **kwargs):
                out = attr(*args, **kwargs)
                if self._armed:
                    flipped = self._flip(out)
                    if flipped is not None:
                        self._armed = False
                        return flipped
                return out
            return wrapped
        return attr


class Counted:
    """Proxy that tallies, in `calls`, each method call on its target.

    `fingerprint` is not counted: state-restore checks are not traffic.
    Non-callable attributes pass straight through.  Each counting wrapper
    is cached on the proxy at first lookup; an adapter's methods are fixed
    for its lifetime.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr) or name == "fingerprint":
            return attr
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return attr(*args, **kwargs)
        setattr(self, name, counted)
        return counted


# ---------------- structure targets ----------------

class Target:
    """A reduction target over one structure or scan oracle.

    `build(*args)` makes the structure, `ds = make(*args)`.  Each other
    driver call `name` then runs `calls[name]`: the method of `ds` that it
    names, or a function run as `f(ds, *args)`, the shape of
    `Problem.calls` in the CLI.  Entries are bound to `ds` at build, so a
    call goes straight to its entry.  A `fingerprint` entry is the state
    that the drivers check is restored after each phase.
    """

    def __init__(self, make: Callable, calls: Dict[str, object]):
        self._make = make
        self._calls = calls
        self.ds = None

    def build(self, *args) -> None:
        self.ds = ds = self._make(*args)
        for name, call in self._calls.items():
            setattr(self, name, getattr(ds, call) if isinstance(call, str)
                    else partial(call, ds))

    preprocess = build      # the skyline driver's name for it


class MiddleBatch(Target):
    """Target of the sequence drivers: the sequence `make(values)`, a
    `SequenceScan` or a `SequenceAdapter`, with one batch at a time
    inserted after position `mid`."""

    def __init__(self, make: Callable, calls: Dict[str, object] = {}):
        super().__init__(make, {"query": lambda seq, l, r: seq.query(l, r)[0],
                                **calls})
        self._mid = self._pending = self.inserted_elems = 0

    def build(self, values, mid: int) -> None:
        super().build(values)
        self._mid, self._pending = mid, 0

    def insert_middle(self, values) -> None:
        if self._pending:
            raise RuntimeError("middle batch already present")
        for pos, v in enumerate(values, start=self._mid + 1):
            self.ds.insert(pos, v)
        self._pending = len(values)
        self.inserted_elems += len(values)

    def delete_middle(self) -> None:
        for _ in range(self._pending):
            self.ds.delete(self._mid + 1)
        self._pending = 0


# ---------------- registry and crosscheck ----------------

@dataclass(frozen=True)
class ReductionConfig:
    rid: str
    kind: str                       # "clique" or "oumv"
    gen: Callable
    run: Callable
    brute: Callable
    adapters: Dict[str, Callable]
    sizes: Tuple[int, ...]
    arity: int              # parts for clique instances, k for OuMv


def _clique(rid: str, run: Callable, adapters: Dict[str, Callable],
            parts: int, sizes: Tuple[int, ...] = (2, 3, 4, 5)
            ) -> ReductionConfig:
    """A k-Clique reduction on `parts`-partite graphs of `size` per part."""
    def gen(rng: random.Random, size: int) -> KPartiteGraph:
        p = rng.choice((0.3, 0.5, 0.7))
        return random_kpartite(rng, [size] * parts, p)
    return ReductionConfig(rid, "clique", gen, run, clique_bruteforce,
                           adapters, sizes, parts)


def _oumv(rid: str, run: Callable, adapters: Dict[str, Callable], k: int,
          sizes: Tuple[int, ...] = (2, 3, 4, 5), square: bool = False
          ) -> ReductionConfig:
    """An OuMv_k reduction on n = size, or size ** 2 when `square`."""
    def gen(rng: random.Random, size: int) -> OuMvInstance:
        n = size * size if square else size
        return random_oumv(rng, k, n)
    return ReductionConfig(rid, "oumv", gen, run, oumv_answers, adapters,
                           sizes, k)


def _seq_cap(g: KPartiteGraph) -> int:
    return (g.sizes[0] + g.sizes[1] + 1) * g.sizes[3] + 1


def _points_cap(g: KPartiteGraph, d: int) -> int:
    label = g.sizes[-1]
    return sum(g.sizes[i] for i in range(2 * d)) * label + label + 1


# Each adapter builds one target per instance.  A scan oracle has the method
# names of its structure, so one call table serves both; an oracle's table
# adds the `fingerprint` that its drivers check after each phase.

_SEQ_SCAN_CALLS = {"fingerprint": lambda seq: tuple(seq.values)}


def _filled(make, cap, calls):
    """Target over a labelled-point structure `make(cap(g))`, filled at build."""
    def target(g):
        def build(points):
            ds = make(cap(g))
            for coords, label in points:
                ds.update(coords, label, True)
            return ds
        return Target(build, calls)
    return target


def _first(res):
    return None if res is None else res[0]


_POINT_CALLS = {"insert": lambda ds, coords, lab: ds.update(coords, lab, True),
                "delete": lambda ds, coords, lab: ds.update(coords, lab, False)}
_SORTED_POINTS = {"fingerprint": lambda ds: tuple(sorted(ds.pts))}
_MODE_CALLS = {**_POINT_CALLS, "query": lambda ds, box: _first(ds.query(box))}
_COLOR_CALLS = {**_POINT_CALLS, "count": "query"}


def _dmode(d: int) -> Dict[str, Callable]:
    cap = partial(_points_cap, d=d)
    return {"oracle": _filled(partial(PointScan, mode_oracle, d), cap,
                              {**_MODE_CALLS, **_SORTED_POINTS}),
            "real": _filled(partial(DynRangeModeDS, d), cap, _MODE_CALLS)}


_SKYLINE_CALLS = {"insert": "insert", "delete": lambda ds, p: ds.delete(),
                  "count": "query"}
# the scan checks that the point the driver deletes is the one due
_SKYLINE_SCAN_CALLS = {**_SKYLINE_CALLS, "delete": "delete",
                       "fingerprint": lambda ds: tuple(sorted(ds.live))}
_SKYLINE = {
    "oracle": lambda i: Target(lambda pts: SkylineScan(initial=pts),
                               _SKYLINE_SCAN_CALLS),
    "engine": lambda i: Target(lambda pts: SemiOnlineEngine(
        Skyline3DBlock(), _skyline_capacity(i), initial=pts), _SKYLINE_CALLS)}

_HALFSPACE_CALLS = {"insert": "insert", "delete": "delete",
                    "min_count": "min_count"}
_HALFSPACE_SCAN_CALLS = {**_HALFSPACE_CALLS,
                         "fingerprint": lambda ds: tuple(sorted(ds.hs))}
_HALFSPACE = {"real": lambda i: Target(HalfspaceSystem, _HALFSPACE_CALLS),
              "oracle": lambda i: Target(HalfspaceScan, _HALFSPACE_SCAN_CALLS)}

_HYPERCLIQUE_CALLS = {"insert": "insert", "delete": "delete", "query": "query",
                      "fingerprint": lambda ds: frozenset(ds.edges)}


def _hyperclique(cls):
    def build(vertices, k: int, edges):
        ds = cls(vertices, k)
        for e in edges:
            ds.insert(e)
        return ds
    return lambda i: Target(build, _HYPERCLIQUE_CALLS)


_HYPERCLIQUE = {"lazy": _hyperclique(HypercliqueLazy),
                "counting": _hyperclique(HypercliqueCounting)}

_ERICKSON_CALLS = {
    "increment": "increment", "max_value": "max_value",
    "fingerprint": lambda ds: tuple(map(ds.value, itertools.product(
        *(range(1, e + 1) for e in ds.extents))))}
_ERICKSON = {"lazy": lambda i: Target(EricksonLazy, _ERICKSON_CALLS),
             "eager": lambda i: Target(EricksonEager, _ERICKSON_CALLS)}

_LANGERMAN_CALLS = {"update": "update", "exists_zero": "exists_zero"}
_LANGERMAN_SCAN_CALLS = {**_LANGERMAN_CALLS,
                         "fingerprint": lambda ds: tuple(ds.t.data)}
_LANGERMAN = {
    "real": lambda i: Target(lambda ext, t0: LangermanDS(ext, initial=t0),
                             _LANGERMAN_CALLS),
    "oracle": lambda i: Target(lambda ext, t0: LangermanScan(ext, initial=t0),
                               _LANGERMAN_SCAN_CALLS)}


_R = [
    _clique("red_4clique_range_mode", red_4clique_range_mode,
            {"oracle": lambda g: MiddleBatch(partial(
                SequenceScan.from_values, n_cap=_seq_cap(g)),
                _SEQ_SCAN_CALLS),
             "real": lambda g: MiddleBatch(partial(
                 SequenceAdapter.from_values, n_cap=_seq_cap(g)))}, 4),
    # the separator copy of D takes |D| more slots than the mode array
    _clique("red_4clique_range_minority", red_4clique_range_minority,
            {"oracle": lambda g: MiddleBatch(partial(
                SequenceScan.from_values, n_cap=_seq_cap(g) + g.sizes[3],
                scan=sequence_minority_oracle), _SEQ_SCAN_CALLS)}, 4),
    _clique("red_clique_batch_dmode_d1",
            partial(red_clique_batch_dmode, d=1), _dmode(1), 3),
    _clique("red_clique_batch_dmode_d2",
            partial(red_clique_batch_dmode, d=2), _dmode(2), 5, (2, 3)),
    _clique("red_clique_dyn_dmode_d1",
            partial(red_clique_dyn_dmode, d=1), _dmode(1), 4),
    _clique("red_4clique_subconn", red_4clique_subconn,
            {"oracle": lambda g: SubConnTargetOracle()}, 4),
    _clique("red_4clique_2pattern", red_4clique_2pattern,
            {"docs": lambda g: DocsTargetOracle(),
             "cc": lambda g: DocsTargetCommonColors()}, 4),
    _clique("red_4clique_color", red_4clique_color,
            {"oracle": _filled(partial(PointScan, dcc_oracle, 2), _seq_cap,
                               {**_COLOR_CALLS, **_SORTED_POINTS}),
             "dcc": _filled(DynColorCountDS, _seq_cap, _COLOR_CALLS)}, 4),
    _clique("red_4clique_streach", red_4clique_streach,
            {"oracle": lambda g: StReachTargetOracle()}, 4),
    _oumv("red_oumvk_skyline_k2", red_oumvk_skyline, _SKYLINE, 2),
    _oumv("red_oumvk_skyline_k3", red_oumvk_skyline,
          {"oracle": _SKYLINE["oracle"]}, 3),
    _oumv("red_oumvk_klee_k2", red_oumvk_klee,
          {"oracle": lambda i: KleeTargetOracle()}, 2, (2, 3, 4)),
    _oumv("red_oumvk_halfspace_k2", red_oumvk_halfspace, _HALFSPACE, 2,
          (2, 3, 4, 5, 6)),
    _oumv("red_oumvk_halfspace_k3", red_oumvk_halfspace, _HALFSPACE, 3,
          (2, 3, 4, 5, 6)),
    _oumv("red_oumvk_hyperclique_k2", red_oumvk_hyperclique, _HYPERCLIQUE, 2),
    _oumv("red_oumvk_hyperclique_k3", red_oumvk_hyperclique, _HYPERCLIQUE, 3,
          (2, 3, 4)),
    _oumv("red_oumvk_erickson_k2", red_oumvk_erickson, _ERICKSON, 2),
    _oumv("red_oumvk_erickson_k3", red_oumvk_erickson, _ERICKSON, 3,
          (2, 3, 4)),
    _oumv("red_oumvk_langerman_k2", red_oumvk_langerman, _LANGERMAN, 2,
          (2, 3, 4)),
    _oumv("red_oumvk_langerman_k3", red_oumvk_langerman, _LANGERMAN, 3, (2,),
          square=True),
]

REDUCTIONS: Dict[str, ReductionConfig] = {c.rid: c for c in _R}


@dataclass
class Mismatch:
    index: int
    size: int
    instance_text: str
    expected: object
    got: object
    error: Optional[str] = None


@dataclass
class CrosscheckReport:
    reduction_id: str
    adapter_id: str
    seed: int
    sizes: Tuple[int, ...]
    count: int
    mismatches: List[Mismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [f"crosscheck reduction={self.reduction_id} "
                 f"adapter={self.adapter_id} seed={self.seed} "
                 f"sizes={','.join(str(s) for s in self.sizes)} "
                 f"count={self.count}"]
        for mm in self.mismatches:
            lines.append(f"mismatch index={mm.index} size={mm.size} "
                         f"expected={mm.expected} got={mm.got}"
                         + (f" error={mm.error}" if mm.error else ""))
            lines += ["  " + ln for ln in mm.instance_text.rstrip("\n").splitlines()]
        lines.append(f"instances={self.count} mismatches={len(self.mismatches)}")
        return "\n".join(lines) + "\n"


def _render_instance(cfg: ReductionConfig, inst) -> str:
    return format_graph(inst) if cfg.kind == "clique" else format_oumv(inst)


def crosscheck_suite(seed: int, sizes: Sequence[int], reduction_id: str,
                     adapter_id: str, count: int = 200) -> CrosscheckReport:
    """Seeded instances through the reduction and direct detection."""
    cfg = REDUCTIONS.get(reduction_id)
    if cfg is None:
        raise ValueError(f"unknown reduction {reduction_id!r}")
    faulty = adapter_id.startswith("faulty:")
    base_id = adapter_id[len("faulty:"):] if faulty else adapter_id
    factory = cfg.adapters.get(base_id)
    if factory is None:
        raise ValueError(f"unknown adapter {adapter_id!r} for {reduction_id}")
    sizes = tuple(sizes) if sizes else cfg.sizes
    mismatches = []
    for i in range(count):
        rng = random.Random(f"dynds.{seed}.{reduction_id}.{i}")
        size = sizes[i % len(sizes)]
        inst = cfg.gen(rng, size)
        expected = cfg.brute(inst)
        target = factory(inst)
        if faulty:
            target = FaultyTarget(target)
        target = Counted(target)
        err = None
        try:
            got = cfg.run(inst, target)
        except (KeyError, RuntimeError, ValueError) as exc:
            got = None
            err = f"{type(exc).__name__}: {exc}"
        if err is not None or got != expected:
            mismatches.append(Mismatch(i, size, _render_instance(cfg, inst),
                                       expected, got, err))
    return CrosscheckReport(reduction_id, adapter_id, seed, sizes, count,
                            mismatches)
