"""The three benchmark workloads and the closed loop that drives them.

Each workload is driven by one caller in one thread: an op is issued when
the previous one returns.  Inputs come only from the benchmark seed; the
program sees the generated ops and nothing else.  Answers are recorded in
the timed loop and checked against the scan oracles after it.

A run replays the same seeded op sequence in *passes*, each on a fresh
set-up: as many as fit in `--seconds` on a quiet machine, and at least two.
Every op (on crosscheck: every suite, and every case's target work) is then
credited with its fastest pass, and every time is rescaled by a `Gauge`.
The machine this was built on changes speed by up to 2x, within a fraction
of a second and for minutes at a time, in CPU time as well as wall time; an
op is slow in every pass only when slow moments cover it every time, while
a cost the input puts on one op, such as a key re-spacing, recurs in every
pass and stays visible.

- drm2-light-churn: `DynRangeModeDS(d=2)` on a 5x5 grid, 24 light labels
  of 2 points and 3 heavy labels of 5, capacity 200 so that B=3.  Every
  light update runs the light-box refresh against the 4-dim max-mode
  `RangeTree`.
- seq-heavy-scan: `SequenceAdapter.from_values` with n=19683 over
  n^(2/3)/3 labels, so every label is heavy and a query pays the full heavy
  scan through count-mode `RangeTree.count`.  Every 5th op inserts at
  position 1, which halves the first key, so keys are re-spaced in every
  pass.
- crosscheck-default: the user command `dynds crosscheck --seed S` run
  in-process through `dynds.cli.main`; the report must hash to a pinned
  sha256.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from dynds import cli, reductions
from dynds.core_geom import Box, VisitCounter
from dynds.range_mode import (DynRangeModeDS, SequenceAdapter, mode_oracle,
                              sequence_mode_oracle)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
MIN_PASSES = 2
IMPORTS_PER_PASS = 3      # crosscheck set-ups timed before each pass
UPDATE = object()         # expected answer of an op that returns nothing
MARK_EVERY_NS = 50_000_000  # a gauge mark every 0.05 s of timed calls
CAL_REF_NS = 280_000      # fastest mark on a quiet 2-CPU Xeon VM


@dataclasses.dataclass
class Result:
    """What a run measured; a time is each call's fastest pass, gauged."""

    unit: str                 # what `work` counts: ops or cases
    work: int                 # ops or cases in one pass
    busy_s: float             # summed times of the pass's ops
    kinds: list               # "update" or "query", per timed call
    lat_ns: list              # latency per timed call
    setup_s: list
    visits: int               # VisitCounter visits in one pass
    rss_mb: float             # ru_maxrss at the end of the first pass
    passes: int
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    overhead_ratio: float = 0.0
    gauge_ns: int = 0         # fastest calibration mark of the run
    gauge_marks: int = 0

    def scale(self, gauge):
        """Rescale every time by the gauge (see `Gauge`)."""
        f = gauge.factor()
        self.lat_ns = [x * f for x in self.lat_ns]
        self.busy_s *= f
        self.setup_s = [x * f for x in self.setup_s]
        self.gauge_ns = min(gauge.marks)
        self.gauge_marks = len(gauge.marks)


def _calibrate():
    """ns of a fixed pure-Python loop that uses nothing of dynds."""
    t0 = perf_counter_ns()
    d = {}
    acc = 0
    for i in range(2000):
        k = i % 100
        d[k] = d.get(k, 0) + i * i % 7
        acc += k
    return perf_counter_ns() - t0


class Gauge:
    """The machine's speed in its fastest moments during a run.

    The calibration loop is timed every 0.05 s of timed calls and around
    every set-up.  Its fastest mark over the run, against CAL_REF_NS, gives
    the factor by which every time is rescaled.
    """

    def __init__(self):
        self.marks = []
        self.due = 0

    def mark(self):
        self.marks.append(_calibrate())
        self.due = perf_counter_ns() + MARK_EVERY_NS

    def tick(self):
        if perf_counter_ns() >= self.due:
            self.mark()

    def factor(self):
        return CAL_REF_NS / min(self.marks)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_count(wl, seconds):
    """Passes that fit in `seconds` on a quiet machine, and at least two.

    A fixed count, not a deadline: the fastest of more passes reads lower,
    so a count that followed the machine's speed would move the figures.
    """
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def _fastest(passes):
    """Per-index minimum over equally long lists of ns."""
    return [min(col) for col in zip(*passes)]


@dataclasses.dataclass
class Pass:
    lat_ns: list
    answers: list
    errors: list
    visits: int
    wall_s: float


def replay(program, ops, apply, counter, gauge):
    """Issue `ops` back to back on `program`; time and record each."""
    lat, answers, errors = [], [], []
    v0 = counter.count
    start = perf_counter()
    for op in ops:
        ans = err = None
        t0 = perf_counter_ns()
        try:
            ans = apply(program, op)
        except Exception as exc:   # counted as a failed op, never fatal
            err = f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter_ns() - t0)
        answers.append(ans)
        errors.append(err)
        gauge.tick()
    return Pass(lat, answers, errors, counter.count - v0,
                perf_counter() - start)


class OpWorkload:
    """A workload of single update and query calls on one structure."""

    unit = "ops"

    def run(self, seed, seconds, tracer=None, corrupt=False):
        return run_ops(self, seed, seconds, tracer, corrupt)

    def problems(self, program):
        """Faults of the final program state that no answer shows."""
        return []


# ---------------- W1: drm2-light-churn ----------------

@dataclasses.dataclass(frozen=True)
class DrmChurn(OpWorkload):
    """Points move one at a time: delete a label's point, insert a new one.

    Light labels keep 2 points (1 mid-move) that share no coordinate, so
    every light update swaps the 7 nonempty boxes of a 2-point label for
    the 1 box of a point or back; heavy labels keep 5 (4 mid-move, still
    above B) and skip the refresh.  Fixed label sizes, and moving every
    label once per round in a seeded order, keep the cost per update the
    same from seed to seed.
    """

    name: str = "drm2-light-churn"
    grid: int = 5
    light: int = 24
    heavy: int = 3
    heavy_size: int = 5
    cap: int = 200            # B = round(200 ** (1/5)) = 3
    ops_per_pass: int = 400   # 200 updates: 10 beyond their p95
    pass_s: float = 0.7       # one pass on a quiet 2-CPU Xeon VM

    def _coords(self, rng, others=()):
        """A random grid point sharing no coordinate with `others`."""
        while True:
            x, y = rng.randint(1, self.grid), rng.randint(1, self.grid)
            if all(x != ox and y != oy for ox, oy in others):
                return x, y

    def _labels(self):
        # The layout does not depend on the seed: the 4-dim tree sizes its
        # axes by the order in which coordinate values first reach it, so
        # a random layout alone moves the cost of a toggle by up to 1.85x
        # between seeds.  The seeded churn replaces every point soon after.
        rng = random.Random("perfbench.drm2.layout")
        labels = {}
        for lab in range(1, self.light + self.heavy + 1):
            pts = labels[lab] = []
            for _ in range(2 if lab <= self.light else self.heavy_size):
                pts.append(self._coords(rng, pts[-1:]))
        return labels

    def initial(self, seed):
        return [(c, lab) for lab, cs in self._labels().items() for c in cs]

    def build(self, seed):
        counter = VisitCounter()
        ds = DynRangeModeDS(2, self.cap, counter=counter)
        ds.bulk_insert(self.initial(seed))
        return ds, counter

    def ops(self, seed):
        rng = random.Random(f"perfbench.drm2.{seed}.ops")
        labels = self._labels()
        g = self.grid

        def query():
            xa, xb = sorted((rng.randint(1, g), rng.randint(1, g)))
            ya, yb = sorted((rng.randint(1, g), rng.randint(1, g)))
            return ("qry", (xa, ya), (xb, yb))

        order = list(labels)
        while True:
            rng.shuffle(order)
            for lab in order:
                pts = labels[lab]
                yield ("upd", pts.pop(rng.randrange(len(pts))), lab, False)
                yield query()
                pts.append(self._coords(rng, pts[-1:]))
                yield ("upd", pts[-1], lab, True)
                yield query()

    @staticmethod
    def apply(ds, op):
        if op[0] == "upd":
            return ds.update(op[1], op[2], op[3])
        return ds.query(Box.closed(op[1], op[2]))

    def expected(self, seed, ops):
        """`mode_oracle` on the live multiset at each query."""
        live = list(self.initial(seed))
        out = []
        for op in ops:
            if op[0] == "upd":
                pt = (op[1], op[2])
                if op[3]:
                    live.append(pt)
                else:
                    live.remove(pt)
                out.append(UPDATE)
            else:
                out.append(mode_oracle(live, Box.closed(op[1], op[2])))
        return out


# ---------------- W2: seq-heavy-scan ----------------

@dataclasses.dataclass(frozen=True)
class SeqHeavyScan(OpWorkload):
    """Every 5th op inserts at position 1, which halves the first key, so
    the 65th of them (op 320) re-spaces the keys in every pass whatever the
    seed.  Of the other ops, 3 in 8 are inserts and deletes at random
    positions and the rest random range queries: half queries in all.
    """

    name: str = "seq-heavy-scan"
    n: int = 19683
    slack: int = 200          # length stays within n +- slack
    front_every: int = 5
    ops_per_pass: int = 500   # over 200 updates and 200 queries
    pass_s: float = 2.2

    @property
    def labels(self):
        return max(2, round(self.n ** (2 / 3) / 3))

    def initial(self, seed):
        rng = random.Random(f"perfbench.seq.{seed}.init")
        return [rng.randint(1, self.labels) for _ in range(self.n)]

    def build(self, seed):
        counter = VisitCounter()
        seq = SequenceAdapter.from_values(self.initial(seed),
                                          n_cap=self.n + self.slack,
                                          counter=counter)
        return seq, counter

    def ops(self, seed):
        rng = random.Random(f"perfbench.seq.{seed}.ops")
        length = self.n
        for i in itertools.count():
            if i % self.front_every == 0 and length < self.n + self.slack:
                length += 1
                yield ("ins", 1, rng.randint(1, self.labels))
            elif rng.random() < 0.375:
                insert = length <= self.n - self.slack or (
                    length < self.n + self.slack and rng.random() < 0.5)
                if insert:
                    length += 1
                    yield ("ins", rng.randint(1, length),
                           rng.randint(1, self.labels))
                else:
                    yield ("del", rng.randint(1, length))
                    length -= 1
            else:
                l = rng.randint(1, length)
                yield ("qry", l, rng.randint(l, length))

    def problems(self, seq):
        if seq.rebuilds < 1:
            return ["seq-heavy-scan re-spaced no keys in a pass"]
        return []

    @staticmethod
    def apply(seq, op):
        if op[0] == "ins":
            return seq.insert(op[1], op[2])
        if op[0] == "del":
            return seq.delete(op[1])
        return seq.query(op[1], op[2])

    def expected(self, seed, ops):
        """`sequence_mode_oracle` on the live sequence at each query."""
        vals = self.initial(seed)
        out = []
        for op in ops:
            if op[0] == "ins":
                vals.insert(op[1] - 1, op[2])
                out.append(UPDATE)
            elif op[0] == "del":
                del vals[op[1] - 1]
                out.append(UPDATE)
            else:
                out.append(sequence_mode_oracle(vals, op[1], op[2]))
        return out


def _op_kind(op):
    return "query" if op[0] == "qry" else "update"


def _count_failures(expected, p):
    """Ops of a pass that raised or whose answer differs from the oracle."""
    return sum(err is not None or (want is not UPDATE and ans != want)
               for want, ans, err in zip(expected, p.answers, p.errors))


def _one_pass(wl, seed, ops, res, gauge):
    gc.collect()
    gauge.mark()
    t0 = perf_counter()
    program, counter = wl.build(seed)
    res.setup_s.append(perf_counter() - t0)
    gauge.mark()
    p = replay(program, ops, wl.apply, counter, gauge)
    res.problems += wl.problems(program)
    return p


def run_ops(wl, seed, seconds, tracer=None, corrupt=False):
    """Set up, drive and check an op workload; returns a `Result`.

    With a tracer there is one untraced pass, the reference for the
    tracing overhead, and one traced pass on a fresh set-up.  `corrupt`
    changes the first query answer before the check, so a test can prove
    the check fails when an answer is wrong.
    """
    ops = list(itertools.islice(wl.ops(seed), wl.ops_per_pass))
    res = Result(unit=wl.unit, work=len(ops), busy_s=0.0,
                 kinds=[_op_kind(op) for op in ops], lat_ns=[], setup_s=[],
                 visits=0, rss_mb=0.0, passes=0)
    passes = []
    gauge = Gauge()
    for _ in range(1 if tracer else pass_count(wl, seconds)):
        passes.append(_one_pass(wl, seed, ops, res, gauge))
        if len(passes) == 1:
            res.rss_mb = _rss_mb()
    if tracer:
        gc.collect()
        tracer.install()
        try:
            program, counter = tracer.root("bench.setup", wl.build, seed)
            traced = tracer.root("bench.phase", replay, program, ops,
                                 wl.apply, counter, Gauge())
        finally:
            tracer.uninstall()
        res.problems += wl.problems(program)
        res.overhead_ratio = traced.wall_s / passes[0].wall_s
        passes.append(traced)
    if corrupt:
        qi = next(i for i, op in enumerate(ops) if op[0] == "qry")
        passes[0].answers[qi] = ("corrupted", -1)
    want = wl.expected(seed, ops)
    res.failed = sum(_count_failures(want, p) for p in passes)
    res.attempted = len(ops) * len(passes)
    res.visits = passes[0].visits
    res.problems += [f"pass {k}: {p.visits} visits, pass 0 made {res.visits}"
                     for k, p in enumerate(passes) if p.visits != res.visits]
    timed = passes[:1] if tracer else passes
    res.lat_ns = _fastest([p.lat_ns for p in timed])
    res.busy_s = sum(res.lat_ns) / 1e9
    res.passes = len(timed)
    res.scale(gauge)
    return res


# ---------------- W3: crosscheck-default ----------------

QUERY_METHODS = {"query", "count", "volume", "min_count", "max_value",
                 "exists_zero"}
SETUP_METHODS = {"build", "preprocess", "fingerprint"}


class _Hooks:
    """What the W3 proxies record in one pass, and the optional tracer."""

    def __init__(self):
        self.tracer = None
        self.reset()

    def reset(self):
        self.targets = []         # per target: {kind: [calls, ns]}
        self.suite_ns = []        # per crosscheck or trace suite
        self.counters = []

    gauge = None                  # marked before every suite


class _TimedTarget:
    """Forwards to a reduction target and sums the time of its update and
    of its query calls.

    One target serves one reduction instance, so each sum is the latency of
    a case's structure work of that kind.  Single calls take about 1 us,
    too close to the clock's own cost to time one by one.
    """

    def __init__(self, inner, hooks):
        self._inner = inner
        self._hooks = hooks
        self._ns = {"update": [0, 0], "query": [0, 0]}   # calls, ns
        hooks.targets.append(self._ns)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        hooks = self._hooks
        if hooks.tracer is not None:
            attr = hooks.tracer.span("reductions.target", attr)
        if name in SETUP_METHODS:
            return attr
        tally = self._ns["query" if name in QUERY_METHODS else "update"]

        def timed(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return attr(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += perf_counter_ns() - t0
        return timed


def _timed_suite(fn, hooks):
    def timed(*args, **kwargs):
        hooks.gauge.mark()
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            hooks.suite_ns.append(perf_counter_ns() - t0)
    return timed


def install_w3_hooks():
    """Time every suite and the calls on every reduction target, and
    register every VisitCounter made from here on.

    Trace-solver steps are not timed: mixed with target calls, they put the
    median between two modes, where it moved 26% between two runs of the
    same crosscheck seed.
    """
    hooks = _Hooks()
    for rid, cfg in list(reductions.REDUCTIONS.items()):
        adapters = {aid: (lambda f: lambda inst: _TimedTarget(f(inst), hooks))(f)
                    for aid, f in cfg.adapters.items()}
        reductions.REDUCTIONS[rid] = dataclasses.replace(cfg, adapters=adapters)
    cli.crosscheck_suite = _timed_suite(cli.crosscheck_suite, hooks)
    cli.trace_suite = _timed_suite(cli.trace_suite, hooks)
    init = VisitCounter.__init__

    def registering(counter):
        init(counter)
        hooks.counters.append(counter)
    VisitCounter.__init__ = registering
    return hooks


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)["crosscheck_sha256"]


def crosscheck_once(cseed):
    """Run `dynds crosscheck --seed cseed`; returns (exit code, report)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"crosscheck-{cseed}.txt")
    rc = cli.main(["crosscheck", "--seed", str(cseed), "--out", path])
    with open(path, "rb") as fh:
        report = fh.read()
    os.remove(path)
    return rc, report


def judge_report(rc, report, pin):
    """(cases checked, disagreements) of one crosscheck report.

    A case is one reduction instance or one trace.  Every mismatch the
    report lists counts, and a nonzero exit or a report whose sha256 is not
    the pinned one counts at least once.
    """
    lines = report.decode().splitlines()
    cases = sum(int(tok.split("=")[1]) for ln in lines for tok in ln.split()
                if tok.startswith(("count=", "cases=")))
    last = lines[-1] if lines else ""
    bad = int(last.split("=")[1]) if last.startswith("total mismatches=") \
        else 1
    if rc != 0 or hashlib.sha256(report).hexdigest() != pin:
        bad = max(bad, 1)
    return cases, bad


def import_times(repeats, gauge):
    """Seconds to `import dynds.cli` in each of `repeats` fresh processes."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import time; t = time.perf_counter(); import dynds.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(repeats):
        gauge.mark()
        out.append(float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True).stdout))
    return out


@dataclasses.dataclass
class _CrossPass:
    cases: int
    bad: int
    calls: list               # (kind, ns) per target and kind it served
    suite_ns: list
    visits: int
    wall_s: float


@dataclasses.dataclass(frozen=True)
class CrosscheckDefault:
    """Benchmark seed s runs `dynds crosscheck --seed (s mod 16)` in every
    pass; the 16 crosscheck seeds are the ones pinned in `pins.json`."""

    name: str = "crosscheck-default"
    pass_s: float = 10.0
    unit = "cases"

    @staticmethod
    def once(cseed, pin, hooks):
        hooks.reset()
        start = perf_counter()
        rc, report = crosscheck_once(cseed)
        wall = perf_counter() - start
        cases, bad = judge_report(rc, report, pin)
        calls = [(kind, ns) for t in hooks.targets
                 for kind, (n, ns) in t.items() if n]
        return _CrossPass(cases, bad, calls, hooks.suite_ns,
                          sum(c.count for c in hooks.counters), wall)

    def run(self, seed, seconds, tracer=None):
        pins = load_pins()
        cseed = seed % len(pins)
        pin = pins[str(cseed)]
        hooks = install_w3_hooks()
        gauge = hooks.gauge = Gauge()
        setups = []
        passes = []
        rss = 0.0
        for _ in range(1 if tracer else pass_count(self, seconds)):
            setups += import_times(1 if tracer else IMPORTS_PER_PASS, gauge)
            passes.append(self.once(cseed, pin, hooks))
            if len(passes) == 1:
                rss = _rss_mb()
        res = Result(unit=self.unit, work=passes[0].cases, busy_s=0.0,
                     kinds=[k for k, _ in passes[0].calls], lat_ns=[],
                     setup_s=setups, visits=passes[0].visits, rss_mb=rss,
                     passes=len(passes))
        timed = list(passes)
        if tracer:
            tracer.install()
            tracer.wrap_reductions()
            hooks.tracer = tracer
            hooks.gauge = Gauge()
            try:
                traced = tracer.root("bench.phase", self.once, cseed, pin,
                                     hooks)
            finally:
                hooks.tracer = None
                tracer.uninstall()
            res.overhead_ratio = traced.wall_s / passes[0].wall_s
            passes.append(traced)
        for k, p in enumerate(passes):
            if (p.visits, len(p.calls), len(p.suite_ns)) != (
                    res.visits, len(res.kinds), len(passes[0].suite_ns)):
                res.problems.append(
                    f"pass {k}: {p.visits} visits, {len(p.calls)} target "
                    f"timings, {len(p.suite_ns)} suites differ from pass 0")
        res.lat_ns = _fastest([[ns for _, ns in p.calls] for p in timed])
        res.busy_s = sum(_fastest([p.suite_ns for p in timed])) / 1e9
        res.attempted = sum(p.cases for p in passes)
        res.failed = sum(p.bad for p in passes)
        res.scale(gauge)
        return res


WORKLOADS = {wl.name: wl for wl in
             (DrmChurn(), SeqHeavyScan(), CrosscheckDefault())}
