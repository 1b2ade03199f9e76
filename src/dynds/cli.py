"""Command line front end: op traces, reductions, crosschecks, benches.

Trace files are line-oriented: a `problem` line, a `header` line, then one
op per line; `#` starts a comment.  All commands are deterministic for a
fixed seed except the wall-clock nanosecond columns of bench reports.
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
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .colors import (CommonColorsDS, CommonColorsScan, DynColorCountDS,
                     dcc_oracle)
from .core_geom import Box, Interval, PointScan, VisitCounter
from .geom_dyn import (_SENSE_OPS, HalfspaceScan, HalfspaceSystem,
                       SemiOnlineEngine, Skyline3DBlock, SkylineScan)
from .range_mode import (DynRangeModeDS, SequenceAdapter, SequenceScan,
                         mode_oracle)
from .reductions import (REDUCTIONS, Counted, _content_lines,
                         crosscheck_suite, parse_graph, parse_oumv)
from .tensor_ds import (EricksonEager, EricksonLazy, EricksonScan,
                        HypercliqueCounting, HypercliqueLazy, HypercliqueScan,
                        LangermanDS, LangermanScan, Tensor)


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
    header_line: int = field(default=2, compare=False)

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


_SENSES = tuple(_SENSE_OPS)


def _sense(tok: str) -> str:
    if tok not in _SENSES:
        raise ValueError(f"bad sense {tok!r}")
    return tok


# argument kinds of the op grammars: i=integer, f=fraction, s=sense
_ARG = {"i": int, "f": Fraction, "s": _sense}


def _parses(kind: str, tok: str) -> bool:
    try:
        _ARG[kind](tok)
        return True
    except (ValueError, ZeroDivisionError):
        return False


@dataclass(frozen=True)
class Staged:
    """The `calls` entry of an op kind that stages a build (BASE, P).

    The ops of that kind that open a trace collect their argument rows, and
    `build(make, trace, rows)` turns the rows into the solver, `make` being
    what the structure id's `solvers` entry returned.  The build runs at the
    first op of another kind, or at the last op when every op is staged; a
    staged op after the build fails with the text `late`.
    """
    build: Callable[[Callable, OpTrace, List[list]], object]
    late: str


@dataclass(frozen=True)
class Problem:
    """Everything `solve` and `crosscheck` know about one trace problem.

    `ops` maps a trace to its op grammar (op kind -> one argument kind per
    argument; arities may depend on the header).  `calls[kind](solver,
    *args)` runs one op on any solver with typed arguments and returns its
    output line, or None; a kind that stages the build maps to a `Staged`.
    `solvers` builds a solver per structure id from the trace, or for a
    staged problem the maker that `Staged.build` gets; `gen(rng, size)`
    makes a random valid trace; `suites` are the structure ids that
    crosscheck compares with `oracle`.
    """
    header: Tuple[str, ...]
    ops: Callable[[OpTrace], Dict[str, str]]
    calls: Dict[str, Callable[..., Optional[str]] | Staged]
    solvers: Dict[str, Callable[[OpTrace], object]]
    gen: Callable[[random.Random, int], OpTrace]
    suites: Tuple[str, ...]


def parse_trace(text: str) -> OpTrace:
    rows = _content_lines(text)
    if not rows:
        raise TraceError(1, "empty trace: expected a 'problem' line")
    no, toks = rows[0]
    if len(toks) != 2 or toks[0] != "problem":
        raise TraceError(no, "expected 'problem <id>'")
    problem = toks[1]
    if problem not in PROBLEMS:
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
        if k in header:
            raise TraceError(no, f"header key {k!r} given twice")
        header[k] = v
    keys = PROBLEMS[problem].header
    if tuple(header) != keys:
        raise TraceError(no, f"header keys must be {' '.join(keys)}")
    trace = OpTrace(problem, header, header_line=no)
    for k in header:
        for piece in header[k].split(","):
            if not _parses("i", piece):
                raise TraceError(no, f"header {k} must be integer(s)")
            # a size past the index size would fail inside CPython, with a
            # message that names no key
            if int(piece) > sys.maxsize:
                raise TraceError(no, f"header {k} must be at most "
                                     f"{sys.maxsize}")
            if int(piece) < -sys.maxsize:
                raise TraceError(no, f"header {k} must be at least "
                                     f"{-sys.maxsize}")
    try:
        specs = PROBLEMS[problem].ops(trace)
    except (ValueError, OverflowError) as exc:
        raise TraceError(no, f"{exc}") from exc
    for no, toks in rows[2:]:
        kind, args = toks[0], toks[1:]
        spec = specs.get(kind)
        if spec is None:
            raise TraceError(no, f"unknown op {kind!r} for {problem}")
        if len(args) != len(spec):
            raise TraceError(no, f"{kind} takes {len(spec)} arguments")
        for tok, want in zip(args, spec):
            if not _parses(want, tok):
                raise TraceError(no, f"bad {kind} argument {tok!r}")
        trace.ops.append(tuple(toks))
    return trace


def run_trace(trace: OpTrace, structure_id: str) -> List[str]:
    problem = PROBLEMS[trace.problem]
    make = problem.solvers.get(structure_id)
    if make is None:
        raise TraceError(1, f"problem {trace.problem!r} has no structure "
                            f"{structure_id!r}")
    try:
        solver = make(trace)
        convs = {kind: [_ARG[a] for a in spec]
                 for kind, spec in problem.ops(trace).items()}
    except (ValueError, TypeError, OverflowError) as exc:
        raise TraceError(trace.header_line, f"{exc}") from exc
    calls = problem.calls
    # a staged problem's `solver` is its maker until the rows build it
    stage = next((k for k, c in calls.items() if isinstance(c, Staged)), None)
    rows = [] if stage else None
    last = len(trace.ops)
    out = []
    for idx, op in enumerate(trace.ops, start=1):
        kind = op[0]
        try:
            args = [conv(t) for conv, t in zip(convs[kind], op[1:])]
            if kind == stage:
                if rows is None:
                    raise ValueError(calls[kind].late)
                rows.append(args)
            if rows is not None and (kind != stage or idx == last):
                solver, rows = calls[stage].build(solver, trace, rows), None
            line = None if kind == stage else calls[kind](solver, *args)
        except (ValueError, KeyError, IndexError, RuntimeError) as exc:
            raise OpError(idx, f"{exc}") from exc
        if line is not None:
            out.append(line)
    return out


def gen_trace(problem: str, rng: random.Random, size: int = 40) -> OpTrace:
    """A valid random trace with roughly `size` ops; small value ranges
    so collisions and repeats actually occur."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    return PROBLEMS[problem].gen(rng, size)


# ---------------- output formats and staged builds ----------------

def _fmt_pair(res) -> str:
    return "none" if res is None else f"({res[0]},{res[1]})"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _box_from(vals: Sequence[int]) -> Box:
    return Box([Interval.closed(lo, hi)
                for lo, hi in zip(vals[::2], vals[1::2])])


def _base_array(make, t: OpTrace, rows):
    """common-colors: the one BASE row is the array."""
    if not rows:
        raise ValueError("BASE must precede other ops")
    if len(rows) > 1:
        raise ValueError("BASE given twice")
    return make(rows[0])


def _base_tensor(make, t: OpTrace, rows):
    """erickson: the start tensor, all zeros unless a BASE row fills it."""
    if len(rows) > 1:
        raise ValueError("BASE must be the first op")
    t0 = Tensor(t.hdr_ints("ext"))
    for row in rows:
        for x, v in zip(t0.indices(), row):
            t0[x] = v
    return make(t0)


def _on_vertices(cls):
    return lambda t: cls(list(range(1, t.hdr_int("n") + 1)), t.hdr_int("k"))


def _skyline_engine(t: OpTrace) -> SemiOnlineEngine:
    return SemiOnlineEngine(Skyline3DBlock(), max(1, t.hdr_int("cap")))


# ---------------- random trace generators ----------------

def _gen_sequence_mode(rng: random.Random, size: int) -> OpTrace:
    cap = max(8, size)
    t = OpTrace("sequence-mode", {"cap": str(cap)})
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


def _gen_points(t: OpTrace, rng: random.Random, size: int, d: int,
                span: int) -> OpTrace:
    """Labelled points in [-span, span]^d: inserts, deletes, box queries."""
    live = []
    for _ in range(size):
        r = rng.random()
        if not live or r < 0.45:
            c = tuple(rng.randint(-span, span) for _ in range(d))
            lab = rng.randint(1, 4)
            t.ops.append(("INS",) + tuple(map(str, c)) + (str(lab),))
            live.append((c, lab))
        elif r < 0.6:
            c, lab = live.pop(rng.randrange(len(live)))
            t.ops.append(("DEL",) + tuple(map(str, c)) + (str(lab),))
        else:
            qs = []
            for _ in range(d):
                qs += sorted((rng.randint(-span, span),
                              rng.randint(-span, span)))
            t.ops.append(("QRY",) + tuple(map(str, qs)))
    return t


def _gen_range_mode_dyn(rng: random.Random, size: int) -> OpTrace:
    d = rng.choice((1, 2))
    t = OpTrace("range-mode-dyn", {"d": str(d), "cap": str(size + 4)})
    return _gen_points(t, rng, size, d, 4)


def _gen_color_count(rng: random.Random, size: int) -> OpTrace:
    t = OpTrace("color-count", {"cap": str(size + 4)})
    return _gen_points(t, rng, size, 2, 3)


def _gen_common_colors(rng: random.Random, size: int) -> OpTrace:
    m = rng.randint(2, 12)
    arr = [rng.randint(1, 5) for _ in range(m)]
    t = OpTrace("common-colors", {"m": str(m)})
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


def _gen_langerman(rng: random.Random, size: int) -> OpTrace:
    d = rng.choice((1, 2))
    ext = tuple(rng.choice((4, 6, 9)) for _ in range(d))
    t = OpTrace("langerman", {"ext": ",".join(map(str, ext))})
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


def _gen_erickson(rng: random.Random, size: int) -> OpTrace:
    d = rng.choice((1, 2))
    ext = tuple(rng.randint(2, 4) for _ in range(d))
    t = OpTrace("erickson", {"ext": ",".join(map(str, ext))})
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


def _gen_hyperclique(rng: random.Random, size: int) -> OpTrace:
    n = rng.randint(3, 6)
    k = rng.choice((2, 3))
    t = OpTrace("hyperclique", {"n": str(n), "k": str(k)})
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


def _gen_skyline3d(rng: random.Random, size: int) -> OpTrace:
    t = OpTrace("skyline3d", {"cap": str(size + 4)})
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


def _gen_halfspace(rng: random.Random, size: int) -> OpTrace:
    d = 2
    t = OpTrace("halfspace", {"d": str(d)})
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


# ---------------- the problem table ----------------

PROBLEMS: Dict[str, Problem] = {
    "sequence-mode": Problem(
        ("cap",),
        lambda t: {"SINS": "ii", "SDEL": "i", "SQRY": "ii"},
        {"SINS": lambda s, pos, val: s.insert(pos, val),
         "SDEL": lambda s, pos: s.delete(pos),
         "SQRY": lambda s, l, r: _fmt_pair(s.query(l, r))},
        {"oracle": lambda t: SequenceScan(t.hdr_int("cap")),
         "real": lambda t: SequenceAdapter(t.hdr_int("cap"))},
        _gen_sequence_mode, ("real",)),
    "range-mode-dyn": Problem(
        ("d", "cap"),
        lambda t: {"INS": "i" * (t.hdr_int("d") + 1),
                   "DEL": "i" * (t.hdr_int("d") + 1),
                   "QRY": "i" * (2 * t.hdr_int("d"))},
        # coords go in as a list: the structure's errors print them
        {"INS": lambda s, *a: s.update(list(a[:-1]), a[-1], True),
         "DEL": lambda s, *a: s.update(list(a[:-1]), a[-1], False),
         "QRY": lambda s, *a: _fmt_pair(s.query(_box_from(a)))},
        {"oracle": lambda t: PointScan(mode_oracle, t.hdr_int("d"),
                                       t.hdr_int("cap")),
         "real": lambda t: DynRangeModeDS(t.hdr_int("d"), t.hdr_int("cap"))},
        _gen_range_mode_dyn, ("real",)),
    "color-count": Problem(
        ("cap",),
        lambda t: {"INS": "iii", "DEL": "iii", "QRY": "iiii"},
        {"INS": lambda s, x, y, c: s.update((x, y), c, True),
         "DEL": lambda s, x, y, c: s.update((x, y), c, False),
         "QRY": lambda s, *a: str(s.query(_box_from(a)))},
        {"oracle": lambda t: PointScan(dcc_oracle, 2, t.hdr_int("cap")),
         "real": lambda t: DynColorCountDS(t.hdr_int("cap"))},
        _gen_color_count, ("real",)),
    "common-colors": Problem(
        ("m",),
        lambda t: {"BASE": "i" * t.hdr_int("m"), "ON": "i", "OFF": "i",
                   "QRY": "iiii"},
        {"BASE": Staged(_base_array, "BASE given twice"),
         "ON": lambda s, c: s.set_on(c, True),
         "OFF": lambda s, c: s.set_on(c, False),
         "QRY": lambda s, *q: str(s.query(*q))},
        {"oracle": lambda t: CommonColorsScan,
         "real": lambda t: CommonColorsDS},
        _gen_common_colors, ("real",)),
    "langerman": Problem(
        ("ext",),
        lambda t: {"UPD": "i" * (len(t.hdr_ints("ext")) + 1), "ZQRY": "",
                   "PQRY": "i" * len(t.hdr_ints("ext"))},
        {"UPD": lambda s, *a: s.update(a[:-1], a[-1]),
         "ZQRY": lambda s: _fmt_bool(s.exists_zero()),
         "PQRY": lambda s, *x: str(s.prefix(x))},
        {"oracle": lambda t: LangermanScan(t.hdr_ints("ext")),
         "real": lambda t: LangermanDS(t.hdr_ints("ext"))},
        _gen_langerman, ("real",)),
    "erickson": Problem(
        ("ext",),
        # the BASE arity is the cell count: Tensor rejects bad extents
        lambda t: {"BASE": "i" * len(Tensor(t.hdr_ints("ext")).data),
                   "INC": "ii", "VQRY": "i" * len(t.hdr_ints("ext")),
                   "MQRY": ""},
        {"BASE": Staged(_base_tensor, "BASE must be the first op"),
         "INC": lambda s, ax, idx: s.increment(ax - 1, idx),
         "VQRY": lambda s, *x: str(s.value(x)),
         "MQRY": lambda s: str(s.max_value())},
        {"oracle": lambda t: EricksonScan, "real": lambda t: EricksonLazy,
         "lazy": lambda t: EricksonLazy, "eager": lambda t: EricksonEager},
        _gen_erickson, ("lazy", "eager")),
    "hyperclique": Problem(
        ("n", "k"),
        lambda t: {"EINS": "i" * t.hdr_int("k"), "EDEL": "i" * t.hdr_int("k"),
                   "QRY": "i"},
        {"EINS": lambda s, *e: s.insert(frozenset(e)),
         "EDEL": lambda s, *e: s.delete(frozenset(e)),
         "QRY": lambda s, v: _fmt_bool(s.query(v))},
        {"oracle": _on_vertices(HypercliqueScan),
         "real": _on_vertices(HypercliqueLazy),
         "lazy": _on_vertices(HypercliqueLazy),
         "counting": _on_vertices(HypercliqueCounting)},
        _gen_hyperclique, ("lazy", "counting")),
    "skyline3d": Problem(
        ("cap",),
        lambda t: {"INS": "iiii", "DEL": "", "QRY": ""},
        {"INS": lambda s, x, y, z, death: s.insert((x, y, z), death),
         "DEL": lambda s: s.delete(),
         "QRY": lambda s: str(s.query())},
        {"oracle": lambda t: SkylineScan(),
         "real": _skyline_engine, "engine": _skyline_engine},
        _gen_skyline3d, ("engine",)),
    "halfspace": Problem(
        ("d",),
        lambda t: {"P": "i" * t.hdr_int("d"),
                   "HINS": "i" * t.hdr_int("d") + "fs",
                   "HDEL": "i" * t.hdr_int("d") + "fs", "QRY": ""},
        {"P": Staged(lambda make, t, rows: make(rows),
                     "point set is fixed before halfspace ops"),
         "HINS": lambda s, *h: s.insert(h[:-2], h[-2], h[-1]),
         "HDEL": lambda s, *h: s.delete(h[:-2], h[-2], h[-1]),
         "QRY": lambda s: str(s.min_count())},
        {"oracle": lambda t: HalfspaceScan,
         "real": lambda t: HalfspaceSystem},
        _gen_halfspace, ("real",)),
}

TRACE_SUITES: Tuple[Tuple[str, str], ...] = tuple(
    (name, sid) for name, p in PROBLEMS.items() for sid in p.suites)


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
    output equality required.  A structure op that fails is a mismatch
    whose got is the error text."""
    mismatches = []
    for case in range(cases):
        rng = random.Random(f"dynds.trace.{seed}.{problem}.{case}")
        trace = gen_trace(problem, rng, size)
        want = "|".join(run_trace(trace, "oracle"))
        try:
            got = "|".join(run_trace(trace, structure_id))
        except OpError as exc:
            got = str(exc)
        if want != got:
            mismatches.append((case, trace.serialize(), want, got))
    return TraceSuiteReport(problem, structure_id, cases, mismatches)


# ---------------- benches ----------------

@dataclass(frozen=True)
class BenchPlan:
    """One bench workload.  `steps(n, rng, counter)` builds its structure on
    `counter` and yields once when set-up ends, then once after each op;
    `run_bench` times and counts the rest."""
    target: float
    default_sizes: Tuple[int, ...]
    steps: Callable[[int, random.Random, VisitCounter], Iterator[None]]


def _bench_sequence_mode(n: int, rng: random.Random, ctr: VisitCounter):
    # ~n^{2/3}/3 labels with ~3n^{1/3} copies each: every label sits above
    # the B threshold, so queries pay the full heavy scan
    m = max(2, round(n ** (2 / 3) / 3))
    seq = SequenceAdapter.from_values([rng.randint(1, m) for _ in range(n)],
                                      n_cap=n + 400, counter=ctr)
    yield
    length = n
    for _ in range(120):
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
        yield


def _bench_drm2(n: int, rng: random.Random, ctr: VisitCounter):
    # ~n^{4/5}/2 heavy labels (copies stacked per label so their trees stay
    # constant-size); the heavy scan dominates at the d=2 target exponent
    ds = DynRangeModeDS(2, n + 200, counter=ctr)
    side = max(2, math.isqrt(n))
    m = max(2, round(n ** 0.8 / 2))
    spot = {lab: (rng.randint(1, side), rng.randint(1, side))
            for lab in range(1, m + 1)}
    live = Counter(i % m + 1 for i in range(n))
    ds.bulk_insert((spot[lab], lab) for lab, k in live.items()
                   for _ in range(k))
    yield
    for _ in range(60):
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
        yield


def _bench_langerman(n: int, rng: random.Random, ctr: VisitCounter, d: int):
    ext = (n,) * d
    t0 = Tensor(ext)
    for x in t0.indices():
        t0[x] = rng.randint(0, 2)
    ds = LangermanDS(ext, initial=t0, counter=ctr)
    yield
    for i in range(150 if d == 1 else 60):
        if i % 4 == 3:
            ds.exists_zero()
        else:
            x = tuple(rng.randint(1, e) for e in ext)
            ds.update(x, rng.choice((-2, -1, 1, 2)))
        yield


def _bench_skyline3d(n: int, rng: random.Random, ctr: VisitCounter):
    initial = [tuple(rng.randint(1, 16) for _ in range(3)) for _ in range(n)]
    eng = SemiOnlineEngine(Skyline3DBlock(counter=ctr), n + 100,
                           initial=initial)
    yield
    for _ in range(max(8, 3 * math.isqrt(n))):
        p = tuple(rng.randint(1, 16) for _ in range(3))
        eng.insert(p, eng.op_index + 3)
        yield
        eng.query()
        yield
        eng.delete()
        yield


def _bench_halfspace(n: int, rng: random.Random, ctr: VisitCounter, d: int):
    # n points of a side^d grid and the open slab halves that
    # red_oumvk_halfspace inserts: each is axis-parallel, so an update meets
    # O(n^{1-1/d}) kd-tree cells
    side = max(2, round(n ** (1 / d)))
    hs = HalfspaceSystem([tuple(rng.randrange(side) for _ in range(d))
                          for _ in range(n)], counter=ctr)
    yield
    live = []
    for _ in range(60):
        r = rng.random()
        if live and r < 0.35:
            hs.delete(*live.pop(rng.randrange(len(live))))
        elif r < 0.45:
            hs.min_count()
        else:
            axis, j = rng.randrange(d), rng.randrange(side)
            e = tuple(int(i == axis) for i in range(d))
            h = ((e, Fraction(2 * j - 1, 2), "lt") if rng.random() < 0.5
                 else (e, Fraction(2 * j + 1, 2), "gt"))
            hs.insert(*h)
            live.append(h)
        yield


def _bench_hyperclique_counting(n: int, rng: random.Random,
                                ctr: VisitCounter):
    # n vertices, 3-uniform edges flipped at random: a flip tests the n - 3
    # vertices outside its edge, a query reads one count
    hc = HypercliqueCounting(range(n), 3, counter=ctr)

    def flip():
        e = frozenset(rng.sample(range(n), 3))
        (hc.delete if e in hc.edges else hc.insert)(e)
    for _ in range(2 * n):
        flip()
    yield
    for _ in range(60):
        if rng.random() < 0.75:
            flip()
        else:
            hc.query(rng.randrange(n))
        yield


def _bench_erickson_eager(n: int, rng: random.Random, ctr: VisitCounter):
    # an N^3 tensor, n = N^3: an increment walks one slab of N^2 cells, a
    # max query reads the running max
    N = max(2, round(n ** (1 / 3)))
    t0 = Tensor((N,) * 3)
    for x in t0.indices():
        t0[x] = rng.randint(0, 9)
    ds = EricksonEager(t0, counter=ctr)
    yield
    for i in range(60):
        if i % 4 == 3:
            ds.max_value()
        else:
            ds.increment(rng.randrange(3), rng.randint(1, N))
        yield


def _bench_oracle_scan(n: int, rng: random.Random, ctr: VisitCounter):
    data = [rng.randint(1, 8) for _ in range(n)]
    yield
    for _ in range(25):
        want = rng.randint(1, 8)
        hits = 0
        for v in data:
            ctr.add(1)
            hits += v == want
        yield


BENCHES: Dict[str, BenchPlan] = {
    "sequence-mode": BenchPlan(
        2 / 3, (243, 729, 2187, 6561, 19683), _bench_sequence_mode),
    "range-mode-dyn-2d": BenchPlan(
        0.8, (243, 729, 2187, 6561, 19683), _bench_drm2),
    "langerman-d1": BenchPlan(
        0.5, (16, 32, 64, 128, 256, 512, 1024),
        partial(_bench_langerman, d=1)),
    "langerman-d2": BenchPlan(
        4 / 3, (8, 12, 18, 27, 40, 60), partial(_bench_langerman, d=2)),
    "skyline3d": BenchPlan(
        0.5, (256, 512, 1024, 2048, 4096), _bench_skyline3d),
    "halfspace-d2": BenchPlan(
        0.5, (256, 1024, 4096, 16384, 65536),
        partial(_bench_halfspace, d=2)),
    "halfspace-d3": BenchPlan(
        2 / 3, (512, 1728, 4096, 13824, 32768),
        partial(_bench_halfspace, d=3)),
    "hyperclique-counting": BenchPlan(
        1.0, (16, 32, 64, 128, 256, 512), _bench_hyperclique_counting),
    "erickson-eager": BenchPlan(
        2 / 3, (64, 512, 4096, 13824, 32768), _bench_erickson_eager),
    "oracle-scan": BenchPlan(
        1.0, (512, 1024, 2048, 4096, 8192), _bench_oracle_scan),
}


@dataclass
class BenchReport:
    structure_id: str
    seed: int
    rows: List[Tuple[int, int, int, int, float, int]]
    target: float
    tol: float

    def _slope(self, per_op: Callable[[tuple], float]) -> float:
        """Slope of log(per_op(row)) against log n over the rows."""
        xs = [math.log(r[0]) for r in self.rows]
        ys = [math.log(per_op(r)) for r in self.rows]
        return statistics.linear_regression(xs, ys).slope

    @property
    def fit_exponent(self) -> float:
        return self._slope(lambda r: r[4])

    @property
    def ns_fit_exponent(self) -> float:
        """The same fit over ns per op: informational, like the ns column."""
        return self._slope(lambda r: r[3] / r[1])

    @property
    def ok(self) -> bool:
        return abs(self.fit_exponent - self.target) <= self.tol

    def render(self) -> str:
        lines = [f"# bench structure={self.structure_id} seed={self.seed} "
                 f"sizes={','.join(str(r[0]) for r in self.rows)}",
                 "n,ops,visits,ns,visits_per_op,setup_ns"]
        for n, ops, visits, ns, vpo, setup_ns in self.rows:
            lines.append(f"{n},{ops},{visits},{ns},{vpo:.3f},{setup_ns}")
        lines.append(f"ns_fit_exponent={self.ns_fit_exponent:.4f}")
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
        ctr = VisitCounter()
        t0 = time.perf_counter_ns()
        steps = plan.steps(n, rng, ctr)
        next(steps)
        base, start = ctr.count, time.perf_counter_ns()
        ops = sum(1 for _ in steps)
        end = time.perf_counter_ns()
        visits = ctr.count - base
        rows.append((n, ops, visits, end - start, visits / ops, start - t0))
    return BenchReport(structure_id, seed, rows, plan.target, tol)


# ---------------- commands ----------------

def _emit(text: str, out: Optional[str], code: int = 0) -> int:
    """Write text to the file out, or to stdout without one; returns code."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _fail(msg, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_solve(args) -> int:
    with open(args.trace) as fh:
        text = fh.read()
    lines = run_trace(parse_trace(text), args.structure)
    return _emit("".join(ln + "\n" for ln in lines), args.out)


def cmd_reduce(args) -> int:
    cfg = REDUCTIONS.get(args.reduction)
    if cfg is None:
        return _fail(f"unknown reduction {args.reduction!r}")
    factory = cfg.adapters.get(args.adapter)
    if factory is None:
        return _fail(f"reduction {cfg.rid} has no adapter {args.adapter!r}")
    with open(args.instance) as fh:
        text = fh.read()
    inst = parse_graph(text) if cfg.kind == "clique" else parse_oumv(text)
    if inst.k != cfg.arity:
        return _fail(f"{cfg.rid} expects arity {cfg.arity}, instance has "
                     f"{inst.k}")
    target = Counted(factory(inst))
    result = cfg.run(inst, target)
    answers = result if isinstance(result, list) else [result]
    body = "".join(_fmt_bool(a) + "\n" for a in answers)
    calls = " ".join(f"{k}={v}" for k, v in sorted(target.calls.items()))
    return _emit(body + f"# calls {calls}\n", args.out)


def cmd_crosscheck(args) -> int:
    scope, count = args.scope, args.count
    if count < 1:
        return _fail(f"count must be >= 1, got {count}")
    suites: List[Tuple[str, str]] = []
    if scope == "fault":
        pairs = [(rid, f"faulty:{sorted(cfg.adapters)[0]}")
                 for rid, cfg in sorted(REDUCTIONS.items())]
        count = 3
    elif scope in REDUCTIONS:
        pairs = [(scope, aid) for aid in sorted(REDUCTIONS[scope].adapters)]
    elif scope in PROBLEMS:
        pairs = []
        suites = [(p, s) for p, s in TRACE_SUITES if p == scope]
    elif scope == "default":
        pairs = [(rid, aid) for rid, cfg in sorted(REDUCTIONS.items())
                 for aid in sorted(cfg.adapters)]
        suites = list(TRACE_SUITES)
    else:
        return _fail(f"unknown scope {scope!r}")
    reports = [crosscheck_suite(args.seed, (), rid, aid, count=count)
               for rid, aid in pairs]
    reports += [trace_suite(problem, sid, args.seed, cases=20)
                for problem, sid in suites]
    bad = sum(len(rep.mismatches) for rep in reports)
    return _emit("".join(rep.render() for rep in reports)
                 + f"total mismatches={bad}\n", args.out, 1 if bad else 0)


def cmd_bench(args) -> int:
    if args.structure not in BENCHES:
        return _fail(f"unknown bench structure {args.structure!r}")
    sizes: Tuple[int, ...] = ()
    if args.sizes:
        try:
            sizes = tuple(int(x) for x in args.sizes.split(","))
        except ValueError:
            return _fail(f"bad size list {args.sizes!r}")
    rep = run_bench(args.structure, sizes, args.seed, tol=args.tol)
    return _emit(rep.render(), args.out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code: 0 on success, 1 when a
    crosscheck finds mismatches, 2 when an input is rejected (a
    `ValueError`, `OverflowError` or `OSError`), 3 on a failure while
    running (an `OpError`, a `RuntimeError` or a `MemoryError`).  Each of
    these ends in one `error: ...` line on stderr, not a traceback."""
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
    try:
        return args.fn(args)
    except OpError as exc:      # first: an OpError is a ValueError
        return _fail(exc, 3)
    except (ValueError, OverflowError, OSError) as exc:
        return _fail(exc)
    except RuntimeError as exc:
        return _fail(exc, 3)
    except MemoryError as exc:
        return _fail(f"out of memory: {str(exc) or 'allocation failed'}", 3)


if __name__ == "__main__":
    sys.exit(main())
