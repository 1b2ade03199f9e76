"""Command line front end: op traces, reductions, crosschecks, benches.

Trace files are line-oriented: a `problem` line, a `header` line, then one
op per line; `#` starts a comment.  All commands are deterministic for a
fixed seed except the wall-clock nanosecond column of bench reports.
"""
from __future__ import annotations

import argparse
import itertools
import math
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .colors import CommonColorsDS, DynColorCountDS, cc_oracle, dcc_oracle
from .core_geom import Box, Interval, VisitCounter
from .geom_dyn import (HalfspaceSystem, SemiOnlineEngine, Skyline3DBlock,
                       skyline_oracle)
from .range_mode import (DynRangeModeDS, SequenceAdapter, mode_oracle,
                         sequence_mode_oracle)
from .reductions import (REDUCTIONS, clique_bruteforce, crosscheck_suite,
                         oumv_answers, parse_graph, parse_oumv)
from .tensor_ds import (EricksonEager, EricksonLazy, HypercliqueCounting,
                        HypercliqueLazy, LangermanDS, Tensor)


class TraceError(ValueError):
    """Trace file rejected before execution; carries a 1-based line number."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class OpError(ValueError):
    """Op failed during execution; carries a 1-based op index."""

    def __init__(self, index: int, msg: str):
        super().__init__(f"op {index}: {msg}")
        self.index = index


# ---------------- op traces ----------------

@dataclass
class OpTrace:
    problem: str
    header: Dict[str, str]
    ops: List[Tuple[str, ...]] = field(default_factory=list)

    def serialize(self) -> str:
        lines = [f"problem {self.problem}"]
        lines.append(" ".join(["header"] +
                              [f"{k}={v}" for k, v in self.header.items()]))
        lines += [" ".join(op) for op in self.ops]
        return "\n".join(lines) + "\n"

    def hdr_int(self, key: str) -> int:
        return int(self.header[key])

    def hdr_ints(self, key: str) -> Tuple[int, ...]:
        return tuple(int(x) for x in self.header[key].split(","))


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def _is_frac(tok: str) -> bool:
    try:
        Fraction(tok)
        return True
    except (ValueError, ZeroDivisionError):
        return False


_SENSES = ("lt", "le", "gt", "ge")


def _op_specs(problem: str, trace: OpTrace) -> Dict[str, List[str]]:
    """Per-kind argument token kinds: i=integer, f=fraction, s=sense."""
    if problem == "sequence-mode":
        return {"SINS": ["i", "i"], "SDEL": ["i"], "SQRY": ["i", "i"]}
    if problem == "range-mode-dyn":
        d = trace.hdr_int("d")
        return {"INS": ["i"] * (d + 1), "DEL": ["i"] * (d + 1),
                "QRY": ["i"] * (2 * d)}
    if problem == "color-count":
        return {"INS": ["i"] * 3, "DEL": ["i"] * 3, "QRY": ["i"] * 4}
    if problem == "common-colors":
        m = trace.hdr_int("m")
        return {"BASE": ["i"] * m, "ON": ["i"], "OFF": ["i"],
                "QRY": ["i"] * 4}
    if problem == "langerman":
        d = len(trace.hdr_ints("ext"))
        return {"UPD": ["i"] * (d + 1), "ZQRY": [], "PQRY": ["i"] * d}
    if problem == "erickson":
        ext = trace.hdr_ints("ext")
        total = math.prod(ext)
        return {"BASE": ["i"] * total, "INC": ["i", "i"],
                "VQRY": ["i"] * len(ext), "MQRY": []}
    if problem == "hyperclique":
        k = trace.hdr_int("k")
        return {"EINS": ["i"] * k, "EDEL": ["i"] * k, "QRY": ["i"]}
    if problem == "skyline3d":
        return {"INS": ["i"] * 4, "DEL": [], "QRY": []}
    if problem == "halfspace":
        d = trace.hdr_int("d")
        return {"P": ["i"] * d, "HINS": ["i"] * d + ["f", "s"],
                "HDEL": ["i"] * d + ["f", "s"], "QRY": []}
    raise AssertionError(problem)


_HEADER_KEYS = {
    "sequence-mode": ("cap",),
    "range-mode-dyn": ("d", "cap"),
    "color-count": ("cap",),
    "common-colors": ("m",),
    "langerman": ("ext",),
    "erickson": ("ext",),
    "hyperclique": ("n", "k"),
    "skyline3d": ("cap",),
    "halfspace": ("d",),
}


def parse_trace(text: str) -> OpTrace:
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((no, line.split()))
    if not rows:
        raise TraceError(1, "empty trace: expected a 'problem' line")
    no, toks = rows[0]
    if len(toks) != 2 or toks[0] != "problem":
        raise TraceError(no, "expected 'problem <id>'")
    problem = toks[1]
    if problem not in _HEADER_KEYS:
        raise TraceError(no, f"unknown problem {problem!r}")
    if len(rows) < 2 or rows[1][1][0] != "header":
        raise TraceError(rows[1][0] if len(rows) > 1 else no + 1,
                         "expected 'header k=v ...'")
    no, toks = rows[1]
    header: Dict[str, str] = {}
    for t in toks[1:]:
        if "=" not in t:
            raise TraceError(no, f"bad header token {t!r}")
        k, v = t.split("=", 1)
        header[k] = v
    if tuple(header) != _HEADER_KEYS[problem]:
        raise TraceError(no, f"header keys must be "
                             f"{' '.join(_HEADER_KEYS[problem])}")
    trace = OpTrace(problem, header)
    for k in header:
        for piece in header[k].split(","):
            if not _is_int(piece):
                raise TraceError(no, f"header {k} must be integer(s)")
    specs = _op_specs(problem, trace)
    checks = {"i": _is_int, "f": _is_frac, "s": lambda t: t in _SENSES}
    for no, toks in rows[2:]:
        kind, args = toks[0], toks[1:]
        spec = specs.get(kind)
        if spec is None:
            raise TraceError(no, f"unknown op {kind!r} for {problem}")
        if len(args) != len(spec):
            raise TraceError(no, f"{kind} takes {len(spec)} arguments")
        for tok, want in zip(args, spec):
            if not checks[want](tok):
                raise TraceError(no, f"bad {kind} argument {tok!r}")
        trace.ops.append(tuple(toks))
    return trace


# ---------------- solvers ----------------
# One class per (problem, implementation); step() returns an output line
# for query ops and None otherwise.

def _fmt_pair(res) -> str:
    return "none" if res is None else f"({res[0]},{res[1]})"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


class _SeqOracle:
    def __init__(self, trace: OpTrace):
        self.cap = trace.hdr_int("cap")
        self.vals: List[int] = []

    def step(self, op):
        kind = op[0]
        if kind == "SINS":
            pos, val = int(op[1]), int(op[2])
            if not 1 <= pos <= len(self.vals) + 1:
                raise ValueError(f"insert position {pos} out of range")
            if len(self.vals) >= self.cap:
                raise ValueError("sequence at capacity")
            self.vals.insert(pos - 1, val)
        elif kind == "SDEL":
            pos = int(op[1])
            if not 1 <= pos <= len(self.vals):
                raise ValueError(f"delete position {pos} out of range")
            del self.vals[pos - 1]
        else:
            return _fmt_pair(sequence_mode_oracle(self.vals, int(op[1]),
                                                  int(op[2])))


class _SeqReal:
    def __init__(self, trace: OpTrace):
        self.seq = SequenceAdapter(trace.hdr_int("cap"))

    def step(self, op):
        if op[0] == "SINS":
            self.seq.insert(int(op[1]), int(op[2]))
        elif op[0] == "SDEL":
            self.seq.delete(int(op[1]))
        else:
            return _fmt_pair(self.seq.query(int(op[1]), int(op[2])))


def _box_from(tokens: Sequence[str]) -> Box:
    vals = [int(t) for t in tokens]
    return Box([Interval.closed(vals[2 * i], vals[2 * i + 1])
                for i in range(len(vals) // 2)])


class _RangeModeOracle:
    def __init__(self, trace: OpTrace):
        self.d = trace.hdr_int("d")
        self.pts: List = []

    def step(self, op):
        if op[0] == "INS":
            self.pts.append((tuple(int(t) for t in op[1:-1]), int(op[-1])))
        elif op[0] == "DEL":
            self.pts.remove((tuple(int(t) for t in op[1:-1]), int(op[-1])))
        else:
            return _fmt_pair(mode_oracle(self.pts, _box_from(op[1:])))


class _RangeModeReal:
    def __init__(self, trace: OpTrace):
        self.ds = DynRangeModeDS(trace.hdr_int("d"), trace.hdr_int("cap"))

    def step(self, op):
        if op[0] == "INS":
            self.ds.update([int(t) for t in op[1:-1]], int(op[-1]), True)
        elif op[0] == "DEL":
            self.ds.update([int(t) for t in op[1:-1]], int(op[-1]), False)
        else:
            return _fmt_pair(self.ds.query(_box_from(op[1:])))


class _ColorOracle:
    def __init__(self, trace: OpTrace):
        self.pts: List = []

    def step(self, op):
        if op[0] == "INS":
            self.pts.append(((int(op[1]), int(op[2])), int(op[3])))
        elif op[0] == "DEL":
            self.pts.remove(((int(op[1]), int(op[2])), int(op[3])))
        else:
            return str(dcc_oracle(self.pts, _box_from(op[1:])))


class _ColorReal:
    def __init__(self, trace: OpTrace):
        self.ds = DynColorCountDS(trace.hdr_int("cap"))

    def step(self, op):
        if op[0] == "INS":
            self.ds.update((int(op[1]), int(op[2])), int(op[3]), True)
        elif op[0] == "DEL":
            self.ds.update((int(op[1]), int(op[2])), int(op[3]), False)
        else:
            return str(self.ds.query(_box_from(op[1:])))


class _CommonColorsBase:
    def __init__(self, trace: OpTrace):
        self.m = trace.hdr_int("m")
        self.arr: Optional[List[int]] = None

    def _need(self):
        if self.arr is None:
            raise ValueError("BASE must precede other ops")

    def step(self, op):
        if op[0] == "BASE":
            if self.arr is not None:
                raise ValueError("BASE given twice")
            self.arr = [int(t) for t in op[1:]]
            self._built(self.arr)
            return None
        self._need()
        if op[0] == "ON":
            return self._toggle(int(op[1]), True)
        if op[0] == "OFF":
            return self._toggle(int(op[1]), False)
        return self._query(*(int(t) for t in op[1:]))


class _CommonColorsOracle(_CommonColorsBase):
    def _built(self, arr):
        self.on = set()
        self.known = set(arr)

    def _toggle(self, c, flag):
        if c not in self.known:
            raise KeyError(f"unknown color {c}")
        (self.on.add if flag else self.on.discard)(c)

    def _query(self, l1, r1, l2, r2):
        return str(cc_oracle(self.arr, self.on, l1, r1, l2, r2))


class _CommonColorsReal(_CommonColorsBase):
    def _built(self, arr):
        self.ds = CommonColorsDS(arr)

    def _toggle(self, c, flag):
        self.ds.set_on(c, flag)

    def _query(self, l1, r1, l2, r2):
        return str(self.ds.query(l1, r1, l2, r2))


class _LangermanOracle:
    def __init__(self, trace: OpTrace):
        self.t = Tensor(trace.hdr_ints("ext"))

    def step(self, op):
        if op[0] == "UPD":
            self.t.add(tuple(int(x) for x in op[1:-1]), int(op[-1]))
        elif op[0] == "ZQRY":
            return _fmt_bool(any(v == 0 for v in self.t.prefix_sums().data))
        else:
            x = tuple(int(t) for t in op[1:])
            return str(self.t.prefix_sums()[x])


class _LangermanReal:
    def __init__(self, trace: OpTrace):
        self.ds = LangermanDS(trace.hdr_ints("ext"))

    def step(self, op):
        if op[0] == "UPD":
            self.ds.update(tuple(int(x) for x in op[1:-1]), int(op[-1]))
        elif op[0] == "ZQRY":
            return _fmt_bool(self.ds.exists_zero())
        else:
            return str(self.ds.prefix(tuple(int(t) for t in op[1:])))


class _EricksonBase:
    def __init__(self, trace: OpTrace):
        self.ext = trace.hdr_ints("ext")
        self._built = False

    def _build(self, t0: Tensor):
        raise NotImplementedError

    def _ensure(self):
        if not self._built:
            self._build(Tensor(self.ext))
            self._built = True

    def step(self, op):
        if op[0] == "BASE":
            if self._built:
                raise ValueError("BASE must be the first op")
            t0 = Tensor(self.ext)
            for x, v in zip(t0.indices(), op[1:]):
                t0[x] = int(v)
            self._build(t0)
            self._built = True
            return None
        self._ensure()
        if op[0] == "INC":
            return self._inc(int(op[1]) - 1, int(op[2]))
        if op[0] == "VQRY":
            return str(self._val(tuple(int(t) for t in op[1:])))
        return str(self._max())


class _EricksonOracle(_EricksonBase):
    def _build(self, t0):
        self.t = t0

    def _inc(self, axis, idx):
        if not 0 <= axis < len(self.ext):
            raise ValueError(f"axis {axis + 1} out of range")
        if not 1 <= idx <= self.ext[axis]:
            raise ValueError(f"index {idx} out of range")
        for x in self.t.indices():
            if x[axis] == idx:
                self.t.add(x, 1)

    def _val(self, x):
        return self.t[x]

    def _max(self):
        return max(self.t.data)


class _EricksonReal(_EricksonBase):
    cls = EricksonLazy

    def _build(self, t0):
        self.ds = self.cls(t0)

    def _inc(self, axis, idx):
        self.ds.increment(axis, idx)

    def _val(self, x):
        return self.ds.value(x)

    def _max(self):
        return self.ds.max_value()


class _EricksonEagerReal(_EricksonReal):
    cls = EricksonEager


class _HypercliqueOracle:
    def __init__(self, trace: OpTrace):
        self.n = trace.hdr_int("n")
        self.k = trace.hdr_int("k")
        self.edges = set()

    def _edge(self, toks):
        vs = [int(t) for t in toks]
        if len(set(vs)) != self.k:
            raise ValueError("edge must have k distinct vertices")
        if any(not 1 <= v <= self.n for v in vs):
            raise ValueError("edge vertex out of range")
        return frozenset(vs)

    def step(self, op):
        if op[0] == "EINS":
            e = self._edge(op[1:])
            if e in self.edges:
                raise ValueError("edge already present")
            self.edges.add(e)
        elif op[0] == "EDEL":
            e = self._edge(op[1:])
            if e not in self.edges:
                raise ValueError("edge not present")
            self.edges.discard(e)
        else:
            v = int(op[1])
            if not 1 <= v <= self.n:
                raise ValueError("query vertex out of range")
            others = [u for u in range(1, self.n + 1) if u != v]
            for cand in itertools.combinations(others, self.k):
                t = set(cand) | {v}
                if all(frozenset(s) in self.edges
                       for s in itertools.combinations(sorted(t), self.k)):
                    return _fmt_bool(True)
            return _fmt_bool(False)


class _HypercliqueReal:
    cls = HypercliqueLazy

    def __init__(self, trace: OpTrace):
        self.ds = self.cls(list(range(1, trace.hdr_int("n") + 1)),
                           trace.hdr_int("k"))

    def step(self, op):
        if op[0] == "EINS":
            self.ds.insert(frozenset(int(t) for t in op[1:]))
        elif op[0] == "EDEL":
            self.ds.delete(frozenset(int(t) for t in op[1:]))
        else:
            return _fmt_bool(self.ds.query(int(op[1])))


class _HypercliqueCountingReal(_HypercliqueReal):
    cls = HypercliqueCounting


class _Skyline3DOracle:
    def __init__(self, trace: OpTrace):
        self.op = 0
        self.live: List[tuple] = []
        self.deaths: Dict[int, tuple] = {}

    def step(self, op):
        self.op += 1
        if op[0] == "INS":
            p = (int(op[1]), int(op[2]), int(op[3]))
            death = int(op[4])
            if death <= self.op:
                raise ValueError(f"death {death} not in the future")
            if death in self.deaths:
                raise ValueError(f"death slot {death} taken")
            self.live.append(p)
            self.deaths[death] = p
        elif op[0] == "DEL":
            p = self.deaths.pop(self.op, None)
            if p is None:
                raise ValueError(f"no element dies at op {self.op}")
            self.live.remove(p)
        else:
            return str(skyline_oracle(self.live))


class _Skyline3DEngine:
    def __init__(self, trace: OpTrace):
        self.engine = SemiOnlineEngine(Skyline3DBlock(),
                                       max(1, trace.hdr_int("cap")))

    def step(self, op):
        if op[0] == "INS":
            self.engine.insert((int(op[1]), int(op[2]), int(op[3])),
                               int(op[4]))
        elif op[0] == "DEL":
            self.engine.delete()
        else:
            return str(self.engine.query())


class _HalfspaceBase:
    def __init__(self, trace: OpTrace):
        self.d = trace.hdr_int("d")
        self.pts: List[tuple] = []
        self.frozen = False

    def step(self, op):
        if op[0] == "P":
            if self.frozen:
                raise ValueError("point set is fixed before halfspace ops")
            self.pts.append(tuple(int(t) for t in op[1:]))
            return None
        if not self.frozen:
            self.frozen = True
            self._built(self.pts)
        if op[0] == "QRY":
            return str(self._min())
        h = (tuple(int(t) for t in op[1:-2]), Fraction(op[-2]), op[-1])
        if op[0] == "HINS":
            self._ins(h)
        else:
            self._del(h)


def _sense_ok(v, off, sense) -> bool:
    if sense == "lt":
        return v < off
    if sense == "le":
        return v <= off
    if sense == "gt":
        return v > off
    return v >= off


class _HalfspaceOracle(_HalfspaceBase):
    def _built(self, pts):
        self.hs: List = []

    def _ins(self, h):
        self.hs.append(h)

    def _del(self, h):
        self.hs.remove(h)

    def _min(self):
        if not self.pts:
            raise ValueError("no points")
        return min(sum(1 for nrm, off, sense in self.hs
                       if _sense_ok(sum(a * x for a, x in zip(nrm, p)),
                                    off, sense))
                   for p in self.pts)


class _HalfspaceReal(_HalfspaceBase):
    def _built(self, pts):
        self.ds = HalfspaceSystem(pts)

    def _ins(self, h):
        self.ds.insert(*h)

    def _del(self, h):
        self.ds.delete(*h)

    def _min(self):
        return self.ds.min_count()


SOLVERS: Dict[str, Dict[str, Callable[[OpTrace], object]]] = {
    "sequence-mode": {"oracle": _SeqOracle, "real": _SeqReal},
    "range-mode-dyn": {"oracle": _RangeModeOracle, "real": _RangeModeReal},
    "color-count": {"oracle": _ColorOracle, "real": _ColorReal},
    "common-colors": {"oracle": _CommonColorsOracle,
                      "real": _CommonColorsReal},
    "langerman": {"oracle": _LangermanOracle, "real": _LangermanReal},
    "erickson": {"oracle": _EricksonOracle, "real": _EricksonReal,
                 "lazy": _EricksonReal, "eager": _EricksonEagerReal},
    "hyperclique": {"oracle": _HypercliqueOracle, "real": _HypercliqueReal,
                    "lazy": _HypercliqueReal,
                    "counting": _HypercliqueCountingReal},
    "skyline3d": {"oracle": _Skyline3DOracle, "real": _Skyline3DEngine,
                  "engine": _Skyline3DEngine},
    "halfspace": {"oracle": _HalfspaceOracle, "real": _HalfspaceReal},
}


def run_trace(trace: OpTrace, structure_id: str) -> List[str]:
    table = SOLVERS[trace.problem]
    if structure_id not in table:
        raise TraceError(1, f"problem {trace.problem!r} has no structure "
                            f"{structure_id!r}")
    solver = table[structure_id](trace)
    out = []
    for idx, op in enumerate(trace.ops, start=1):
        try:
            line = solver.step(op)
        except (ValueError, KeyError, IndexError, RuntimeError) as exc:
            raise OpError(idx, f"{exc}") from exc
        if line is not None:
            out.append(line)
    return out


# ---------------- random trace generation ----------------

def gen_trace(problem: str, rng: random.Random, size: int = 40) -> OpTrace:
    """A valid random trace with roughly `size` ops; small value ranges
    so collisions and repeats actually occur."""
    if problem == "sequence-mode":
        cap = max(8, size)
        t = OpTrace(problem, {"cap": str(cap)})
        n = 0
        for _ in range(size):
            r = rng.random()
            if n == 0 or (r < 0.45 and n < cap):
                pos = rng.randint(1, n + 1)
                t.ops.append(("SINS", str(pos), str(rng.randint(1, 5))))
                n += 1
            elif r < 0.65 and n > 0:
                t.ops.append(("SDEL", str(rng.randint(1, n))))
                n -= 1
            else:
                l = rng.randint(1, n)
                t.ops.append(("SQRY", str(l), str(rng.randint(l, n))))
        return t
    if problem == "range-mode-dyn":
        d = rng.choice((1, 2))
        t = OpTrace(problem, {"d": str(d), "cap": str(size + 4)})
        live = []
        for _ in range(size):
            r = rng.random()
            if not live or r < 0.45:
                c = tuple(rng.randint(-4, 4) for _ in range(d))
                lab = rng.randint(1, 4)
                t.ops.append(("INS",) + tuple(map(str, c)) + (str(lab),))
                live.append((c, lab))
            elif r < 0.6:
                c, lab = live.pop(rng.randrange(len(live)))
                t.ops.append(("DEL",) + tuple(map(str, c)) + (str(lab),))
            else:
                qs = []
                for _ in range(d):
                    a, b = sorted((rng.randint(-4, 4), rng.randint(-4, 4)))
                    qs += [a, b]
                t.ops.append(("QRY",) + tuple(map(str, qs)))
        return t
    if problem == "color-count":
        t = OpTrace(problem, {"cap": str(size + 4)})
        live = []
        for _ in range(size):
            r = rng.random()
            if not live or r < 0.45:
                c = (rng.randint(-3, 3), rng.randint(-3, 3))
                col = rng.randint(1, 4)
                t.ops.append(("INS", str(c[0]), str(c[1]), str(col)))
                live.append((c, col))
            elif r < 0.6:
                c, col = live.pop(rng.randrange(len(live)))
                t.ops.append(("DEL", str(c[0]), str(c[1]), str(col)))
            else:
                xa, xb = sorted((rng.randint(-3, 3), rng.randint(-3, 3)))
                ya, yb = sorted((rng.randint(-3, 3), rng.randint(-3, 3)))
                t.ops.append(("QRY", str(xa), str(xb), str(ya), str(yb)))
        return t
    if problem == "common-colors":
        m = rng.randint(2, 12)
        arr = [rng.randint(1, 5) for _ in range(m)]
        t = OpTrace(problem, {"m": str(m)})
        t.ops.append(("BASE",) + tuple(map(str, arr)))
        colors = sorted(set(arr))
        for _ in range(size):
            r = rng.random()
            if r < 0.5:
                t.ops.append((rng.choice(("ON", "OFF")),
                              str(rng.choice(colors))))
            else:
                l1 = rng.randint(1, m)
                l2 = rng.randint(1, m)
                t.ops.append(("QRY", str(l1), str(rng.randint(l1, m)),
                              str(l2), str(rng.randint(l2, m))))
        return t
    if problem == "langerman":
        d = rng.choice((1, 2))
        ext = tuple(rng.choice((4, 6, 9)) for _ in range(d))
        t = OpTrace(problem, {"ext": ",".join(map(str, ext))})
        for _ in range(size):
            r = rng.random()
            if r < 0.55:
                x = tuple(rng.randint(1, e) for e in ext)
                t.ops.append(("UPD",) + tuple(map(str, x))
                             + (str(rng.choice((-2, -1, 1, 2))),))
            elif r < 0.8:
                t.ops.append(("ZQRY",))
            else:
                x = tuple(rng.randint(1, e) for e in ext)
                t.ops.append(("PQRY",) + tuple(map(str, x)))
        return t
    if problem == "erickson":
        d = rng.choice((1, 2))
        ext = tuple(rng.randint(2, 4) for _ in range(d))
        t = OpTrace(problem, {"ext": ",".join(map(str, ext))})
        if rng.random() < 0.7:
            total = math.prod(ext)
            t.ops.append(("BASE",) + tuple(str(rng.randint(0, 2))
                                           for _ in range(total)))
        for _ in range(size):
            r = rng.random()
            if r < 0.55:
                ax = rng.randint(1, d)
                t.ops.append(("INC", str(ax),
                              str(rng.randint(1, ext[ax - 1]))))
            elif r < 0.8:
                t.ops.append(("MQRY",))
            else:
                x = tuple(rng.randint(1, e) for e in ext)
                t.ops.append(("VQRY",) + tuple(map(str, x)))
        return t
    if problem == "hyperclique":
        n = rng.randint(3, 6)
        k = rng.choice((2, 3))
        t = OpTrace(problem, {"n": str(n), "k": str(k)})
        edges = set()
        all_edges = [frozenset(c)
                     for c in itertools.combinations(range(1, n + 1), k)]
        for _ in range(size):
            r = rng.random()
            if r < 0.45 and len(edges) < len(all_edges):
                e = rng.choice([e for e in all_edges if e not in edges])
                edges.add(e)
                t.ops.append(("EINS",) + tuple(map(str, sorted(e))))
            elif r < 0.6 and edges:
                e = rng.choice(sorted(edges, key=sorted))
                edges.discard(e)
                t.ops.append(("EDEL",) + tuple(map(str, sorted(e))))
            else:
                t.ops.append(("QRY", str(rng.randint(1, n))))
        return t
    if problem == "skyline3d":
        t = OpTrace(problem, {"cap": str(size + 4)})
        deaths = set()
        op = 0
        for _ in range(size):
            op += 1
            if op in deaths:
                t.ops.append(("DEL",))
                continue
            r = rng.random()
            if r < 0.5:
                death = op + rng.randint(1, 8)
                while death in deaths:
                    death += 1
                deaths.add(death)
                p = tuple(rng.randint(1, 8) for _ in range(3))
                t.ops.append(("INS",) + tuple(map(str, p)) + (str(death),))
            else:
                t.ops.append(("QRY",))
        # close out scheduled deaths so the engine never starves
        while any(d > op for d in deaths):
            op += 1
            t.ops.append(("DEL",) if op in deaths else ("QRY",))
        t.header["cap"] = str(len(t.ops) + 4)
        return t
    if problem == "halfspace":
        d = 2
        t = OpTrace(problem, {"d": str(d)})
        for _ in range(rng.randint(1, 6)):
            t.ops.append(("P", str(rng.randint(-3, 3)),
                          str(rng.randint(-3, 3))))
        live = []
        for _ in range(size):
            r = rng.random()
            if not live or r < 0.45:
                nrm = tuple(rng.randint(-2, 2) for _ in range(d))
                off = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                h = (nrm, off, rng.choice(_SENSES))
                live.append(h)
                t.ops.append(("HINS",) + tuple(map(str, nrm))
                             + (str(off), h[2]))
            elif r < 0.6:
                h = live.pop(rng.randrange(len(live)))
                t.ops.append(("HDEL",) + tuple(map(str, h[0]))
                             + (str(h[1]), h[2]))
            else:
                t.ops.append(("QRY",))
        return t
    raise ValueError(f"unknown problem {problem!r}")


@dataclass
class TraceSuiteReport:
    problem: str
    structure_id: str
    cases: int
    mismatches: List[Tuple[int, str, str, str]]   # case, trace text, want, got

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [f"tracecheck problem={self.problem} "
                 f"structure={self.structure_id} cases={self.cases} "
                 f"mismatches={len(self.mismatches)}"]
        for case, text, want, got in self.mismatches:
            lines.append(f"mismatch case={case} expected={want} got={got}")
            lines += ["  " + ln for ln in text.rstrip("\n").splitlines()]
        return "\n".join(lines) + "\n"


def trace_suite(problem: str, structure_id: str, seed: int,
                cases: int = 100, size: int = 40) -> TraceSuiteReport:
    """Random traces through the oracle and the named structure; exact
    output equality required."""
    mismatches = []
    for case in range(cases):
        rng = random.Random(f"dynds.trace.{seed}.{problem}.{case}")
        trace = gen_trace(problem, rng, size)
        want = run_trace(trace, "oracle")
        got = run_trace(trace, structure_id)
        if want != got:
            mismatches.append((case, trace.serialize(),
                               "|".join(want), "|".join(got)))
    return TraceSuiteReport(problem, structure_id, cases, mismatches)


TRACE_SUITES: Tuple[Tuple[str, str], ...] = (
    ("sequence-mode", "real"),
    ("range-mode-dyn", "real"),
    ("color-count", "real"),
    ("common-colors", "real"),
    ("langerman", "real"),
    ("erickson", "lazy"),
    ("erickson", "eager"),
    ("hyperclique", "lazy"),
    ("hyperclique", "counting"),
    ("skyline3d", "engine"),
    ("halfspace", "real"),
)


# ---------------- benches ----------------

@dataclass
class BenchPlan:
    structure_id: str
    target: float
    default_sizes: Tuple[int, ...]
    runner: Callable[[int, random.Random], Tuple[int, int]]


def _bench_sequence_mode(n: int, rng: random.Random) -> Tuple[int, int]:
    # ~n^{2/3}/3 labels with ~3n^{1/3} copies each: every label sits above
    # the B threshold, so queries pay the full heavy scan
    ctr = VisitCounter()
    ctr.pause()
    m = max(2, round(n ** (2 / 3) / 3))
    seq = SequenceAdapter.from_values([rng.randint(1, m) for _ in range(n)],
                                      n_cap=n + 400, counter=ctr)
    ctr.resume()
    ops = 120
    length = n
    for _ in range(ops):
        r = rng.random()
        if r < 0.125:
            seq.insert(rng.randint(1, length + 1), rng.randint(1, m))
            length += 1
        elif r < 0.25:
            seq.delete(rng.randint(1, length))
            length -= 1
        elif r < 0.45:
            l = rng.randint(1, length)
            seq.query(l, rng.randint(l, length))
        else:
            seq.query(1, length)
    return ops, ctr.count


def _bench_drm2(n: int, rng: random.Random) -> Tuple[int, int]:
    # ~n^{4/5}/2 heavy labels (copies stacked per label so their trees stay
    # constant-size); the heavy scan dominates at the d=2 target exponent
    ctr = VisitCounter()
    ctr.pause()
    ds = DynRangeModeDS(2, n + 200, counter=ctr)
    side = max(2, math.isqrt(n))
    m = max(2, round(n ** 0.8 / 2))
    spot = {lab: (rng.randint(1, side), rng.randint(1, side))
            for lab in range(1, m + 1)}
    live = Counter(i % m + 1 for i in range(n))
    ds.bulk_insert((spot[lab], lab) for lab, k in live.items()
                   for _ in range(k))
    ctr.resume()
    ops = 60
    for _ in range(ops):
        if rng.random() < 0.2:
            lab = rng.randint(1, m)
            if rng.random() < 0.5 and live[lab] > 1:
                ds.update(spot[lab], lab, False)
                live[lab] -= 1
            else:
                ds.update(spot[lab], lab, True)
                live[lab] += 1
        elif rng.random() < 0.25:
            xa, xb = sorted((rng.randint(1, side), rng.randint(1, side)))
            ya, yb = sorted((rng.randint(1, side), rng.randint(1, side)))
            ds.query(Box.closed((xa, ya), (xb, yb)))
        else:
            ds.query(Box.closed((1, 1), (side, side)))
    return ops, ctr.count


def _bench_langerman(d: int):
    def run(n: int, rng: random.Random) -> Tuple[int, int]:
        ext = (n,) * d
        t0 = Tensor(ext)
        for x in t0.indices():
            t0[x] = rng.randint(0, 2)
        ctr = VisitCounter()
        ctr.pause()
        ds = LangermanDS(ext, initial=t0, counter=ctr)
        ctr.resume()
        ops = 150 if d == 1 else 60
        for i in range(ops):
            if i % 4 == 3:
                ds.exists_zero()
            else:
                x = tuple(rng.randint(1, e) for e in ext)
                ds.update(x, rng.choice((-2, -1, 1, 2)))
        return ops, ctr.count
    return run


def _bench_skyline3d(n: int, rng: random.Random) -> Tuple[int, int]:
    ctr = VisitCounter()
    ctr.pause()
    initial = [tuple(rng.randint(1, 16) for _ in range(3)) for _ in range(n)]
    eng = SemiOnlineEngine(Skyline3DBlock(counter=ctr), n + 100,
                           initial=initial)
    ctr.resume()
    rounds = max(8, 3 * math.isqrt(n))
    ops = 0
    for _ in range(rounds):
        p = tuple(rng.randint(1, 16) for _ in range(3))
        eng.insert(p, eng.op_index + 3)
        eng.query()
        eng.delete()
        ops += 3
    return ops, ctr.count


def _bench_oracle_scan(n: int, rng: random.Random) -> Tuple[int, int]:
    data = [rng.randint(1, 8) for _ in range(n)]
    ctr = VisitCounter()
    ops = 25
    for _ in range(ops):
        want = rng.randint(1, 8)
        hits = 0
        for v in data:
            ctr.add(1)
            hits += v == want
    return ops, ctr.count


BENCHES: Dict[str, BenchPlan] = {
    "sequence-mode": BenchPlan(
        "sequence-mode", 2 / 3, (243, 729, 2187, 6561, 19683),
        _bench_sequence_mode),
    "range-mode-dyn-2d": BenchPlan(
        "range-mode-dyn-2d", 0.8, (243, 729, 2187, 6561, 19683),
        _bench_drm2),
    "langerman-d1": BenchPlan(
        "langerman-d1", 0.5, (16, 32, 64, 128, 256, 512, 1024),
        _bench_langerman(1)),
    "langerman-d2": BenchPlan(
        "langerman-d2", 4 / 3, (8, 12, 18, 27, 40, 60),
        _bench_langerman(2)),
    "skyline3d": BenchPlan(
        "skyline3d", 0.5, (256, 512, 1024, 2048, 4096),
        _bench_skyline3d),
    "oracle-scan": BenchPlan(
        "oracle-scan", 1.0, (512, 1024, 2048, 4096, 8192),
        _bench_oracle_scan),
}


@dataclass
class BenchReport:
    structure_id: str
    seed: int
    rows: List[Tuple[int, int, int, int, float]]
    target: float
    tol: float

    @property
    def fit_exponent(self) -> float:
        xs = [math.log(r[0]) for r in self.rows]
        ys = [math.log(r[4]) for r in self.rows]
        return statistics.linear_regression(xs, ys).slope

    @property
    def ok(self) -> bool:
        return abs(self.fit_exponent - self.target) <= self.tol

    def render(self) -> str:
        lines = [f"# bench structure={self.structure_id} seed={self.seed} "
                 f"sizes={','.join(str(r[0]) for r in self.rows)}",
                 "n,ops,visits,ns,visits_per_op"]
        for n, ops, visits, ns, vpo in self.rows:
            lines.append(f"{n},{ops},{visits},{ns},{vpo:.3f}")
        lines.append(f"fit_exponent={self.fit_exponent:.4f} "
                     f"target={self.target:.4f} tol={self.tol:.2f} "
                     f"pass={_fmt_bool(self.ok)}")
        return "\n".join(lines) + "\n"


def run_bench(structure_id: str, sizes: Sequence[int], seed: int,
              tol: float = 0.20) -> BenchReport:
    plan = BENCHES[structure_id]
    sizes = tuple(sizes) if sizes else plan.default_sizes
    if len(sizes) < 4:
        raise ValueError("bench needs at least 4 sizes")
    if min(sizes) < 1 or len(set(sizes)) < 2:
        raise ValueError("bench sizes must be positive and not all equal")
    rows = []
    for n in sizes:
        rng = random.Random(f"dynds.bench.{seed}.{structure_id}.{n}")
        t0 = time.perf_counter_ns()
        ops, visits = plan.runner(n, rng)
        ns = time.perf_counter_ns() - t0
        rows.append((n, ops, visits, ns, visits / ops))
    return BenchReport(structure_id, seed, rows, plan.target, tol)


# ---------------- commands ----------------

def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    try:
        with open(args.trace) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trace = parse_trace(text)
        lines = run_trace(trace, args.structure)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit("".join(ln + "\n" for ln in lines), args.out)
    return 0


def cmd_reduce(args) -> int:
    cfg = REDUCTIONS.get(args.reduction)
    if cfg is None:
        print(f"error: unknown reduction {args.reduction!r}", file=sys.stderr)
        return 2
    base = args.adapter
    factory = cfg.adapters.get(base)
    if factory is None:
        print(f"error: reduction {cfg.rid} has no adapter {base!r}",
              file=sys.stderr)
        return 2
    try:
        with open(args.instance) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        inst = parse_graph(text) if cfg.kind == "clique" else parse_oumv(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arity = inst.k
    if arity != cfg.arity:
        print(f"error: {cfg.rid} expects arity {cfg.arity}, instance has "
              f"{arity}", file=sys.stderr)
        return 2
    try:
        target = factory(inst)
        result = cfg.run(inst, target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    answers = result if isinstance(result, list) else [result]
    body = "".join(_fmt_bool(a) + "\n" for a in answers)
    calls = " ".join(f"{k}={v}" for k, v in sorted(target.calls.items()))
    _emit(body + f"# calls {calls}\n", args.out)
    return 0


def cmd_crosscheck(args) -> int:
    scope = args.scope
    chunks: List[str] = []
    bad = 0
    if scope == "fault":
        for rid, cfg in sorted(REDUCTIONS.items()):
            aid = sorted(cfg.adapters)[0]
            rep = crosscheck_suite(args.seed, (), rid, f"faulty:{aid}",
                                   count=3)
            bad += len(rep.mismatches)
            chunks.append(rep.render())
        chunks.append(f"total mismatches={bad}\n")
        _emit("".join(chunks), args.out)
        return 0 if bad == 0 else 1
    if scope in REDUCTIONS:
        pairs = [(scope, aid) for aid in sorted(REDUCTIONS[scope].adapters)]
        suites: List[Tuple[str, str]] = []
    elif scope in SOLVERS:
        pairs = []
        suites = [(p, s) for p, s in TRACE_SUITES if p == scope]
    elif scope == "default":
        pairs = [(rid, aid) for rid, cfg in sorted(REDUCTIONS.items())
                 for aid in sorted(cfg.adapters)]
        suites = list(TRACE_SUITES)
    else:
        print(f"error: unknown scope {scope!r}", file=sys.stderr)
        return 2
    for rid, aid in pairs:
        rep = crosscheck_suite(args.seed, (), rid, aid, count=args.count)
        bad += len(rep.mismatches)
        chunks.append(rep.render())
    for problem, sid in suites:
        rep = trace_suite(problem, sid, args.seed, cases=20)
        bad += len(rep.mismatches)
        chunks.append(rep.render())
    chunks.append(f"total mismatches={bad}\n")
    _emit("".join(chunks), args.out)
    return 0 if bad == 0 else 1


def cmd_bench(args) -> int:
    if args.structure not in BENCHES:
        print(f"error: unknown bench structure {args.structure!r}",
              file=sys.stderr)
        return 2
    sizes: Tuple[int, ...] = ()
    if args.sizes:
        try:
            sizes = tuple(int(x) for x in args.sizes.split(","))
        except ValueError:
            print(f"error: bad size list {args.sizes!r}", file=sys.stderr)
            return 2
    try:
        rep = run_bench(args.structure, sizes, args.seed, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rep.render(), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="dynds",
        description="dynamic-structure traces, reductions, and benches")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an op trace through a structure")
    p.add_argument("trace")
    p.add_argument("--structure", default="real")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("reduce", help="run a reduction on an instance file")
    p.add_argument("instance")
    p.add_argument("--reduction", required=True)
    p.add_argument("--adapter", default="oracle")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("crosscheck", help="randomized oracle agreement suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scope", default="default")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("bench", help="counter-based scaling measurement")
    p.add_argument("--structure", required=True)
    p.add_argument("--sizes", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.20)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
