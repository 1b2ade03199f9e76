"""Spans recorded around the public methods of each dynds module.

The benchmark installs these wrappers only for a traced run (`--trace 1`).
Each wrapped call appends one span `[name, parent, t0_ns, t1_ns, visits]`
to an in-memory list; `parent` is the index of the enclosing span (or -1
for a phase root) and `visits` the `VisitCounter` visits made inside it.
Nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Self times of a root's whole subtree therefore add up to the
root's duration exactly, in integer nanoseconds, when every span closed
inside its parent; `roots` reports both so the caller can check.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

from dynds import cli, colors, core_geom, geom_dyn, range_mode, reductions, \
    tensor_ds

# (owner, method, span name): the public update, query and build methods of
# each layer.  A method the class no longer defines is reported, not
# wrapped.  The Erickson `value` point reads are left out:
# `EricksonLazy.max_value` calls one per cell, and a span each would swamp
# the scan it measures.
METHODS = [
    (core_geom.RangeTree, "toggle", "core_geom.toggle"),
    (core_geom.RangeTree, "extend", "core_geom.extend"),
    (core_geom.RangeTree, "count", "core_geom.count"),
    (core_geom.RangeTree, "max_entry", "core_geom.max_entry"),
    (range_mode.DynRangeModeDS, "update", "range_mode.update"),
    (range_mode.DynRangeModeDS, "bulk_insert", "range_mode.bulk_insert"),
    (range_mode.DynRangeModeDS, "query", "range_mode.query"),
    (range_mode.SequenceAdapter, "insert", "range_mode.seq_insert"),
    (range_mode.SequenceAdapter, "delete", "range_mode.seq_delete"),
    (range_mode.SequenceAdapter, "query", "range_mode.seq_query"),
    (colors.DynColorCountDS, "update", "colors.dcc_update"),
    (colors.DynColorCountDS, "query", "colors.dcc_query"),
    (colors.CommonColorsDS, "set_on", "colors.cc_set_on"),
    (colors.CommonColorsDS, "query", "colors.cc_query"),
    (tensor_ds.LangermanDS, "update", "tensor_ds.langerman_update"),
    (tensor_ds.LangermanDS, "exists_zero", "tensor_ds.langerman_query"),
    (tensor_ds.LangermanDS, "prefix", "tensor_ds.langerman_prefix"),
    (tensor_ds.EricksonLazy, "increment", "tensor_ds.erickson_lazy_inc"),
    (tensor_ds.EricksonLazy, "max_value", "tensor_ds.erickson_lazy_max"),
    (tensor_ds.EricksonEager, "increment", "tensor_ds.erickson_eager_inc"),
    (tensor_ds.EricksonEager, "max_value", "tensor_ds.erickson_eager_max"),
    (tensor_ds.HypercliqueLazy, "insert", "tensor_ds.hc_lazy_insert"),
    (tensor_ds.HypercliqueLazy, "delete", "tensor_ds.hc_lazy_delete"),
    (tensor_ds.HypercliqueLazy, "query", "tensor_ds.hc_lazy_query"),
    (tensor_ds.HypercliqueCounting, "insert", "tensor_ds.hc_count_insert"),
    (tensor_ds.HypercliqueCounting, "delete", "tensor_ds.hc_count_delete"),
    (tensor_ds.HypercliqueCounting, "query", "tensor_ds.hc_count_query"),
    (geom_dyn.SemiOnlineEngine, "insert", "geom_dyn.engine_insert"),
    (geom_dyn.SemiOnlineEngine, "delete", "geom_dyn.engine_delete"),
    (geom_dyn.SemiOnlineEngine, "query", "geom_dyn.engine_query"),
    (geom_dyn.Skyline3DBlock, "preprocess", "geom_dyn.preprocess"),
    (geom_dyn.HalfspaceSystem, "insert", "geom_dyn.halfspace_insert"),
    (geom_dyn.HalfspaceSystem, "delete", "geom_dyn.halfspace_delete"),
    (geom_dyn.HalfspaceSystem, "min_count", "geom_dyn.halfspace_query"),
]

# methods whose owner keeps a public `rebuilds` counter: the per-call
# delta is summed under this tally name
REBUILD_TALLIES = {
    "range_mode.seq_insert": "range_mode.seq_rebuilds",
    "colors.dcc_update": "colors.rebuilds",
    "geom_dyn.engine_insert": "geom_dyn.engine_rebuilds",
    "geom_dyn.engine_delete": "geom_dyn.engine_rebuilds",
    "geom_dyn.engine_query": "geom_dyn.engine_rebuilds",
}

# per-layer metrics: (name, unit); the order is the report order
PER_LAYER = [
    ("core_geom.toggle.calls", "count"),
    ("core_geom.toggle.self_s", "s"),
    ("core_geom.visits_per_toggle", "visits"),
    ("core_geom.max_entry.self_s", "s"),
    ("core_geom.count.self_s", "s"),
    ("core_geom.visits_per_query", "visits"),
    ("core_geom.extend.self_s", "s"),
    ("range_mode.bulk_insert.self_s", "s"),
    ("range_mode.update.self_s", "s"),
    ("range_mode.toggles_per_update", "calls"),
    ("range_mode.refresh_net_ratio", "ratio"),
    ("range_mode.query.self_s", "s"),
    ("range_mode.heavy_labels", "labels"),
    ("range_mode.seq_rebuilds", "count"),
    ("range_mode.seq_rebuild_insert_ms", "ms"),
    ("colors.self_s", "s"),
    ("colors.rebuilds", "count"),
    ("tensor_ds.self_s", "s"),
    ("geom_dyn.self_s", "s"),
    ("geom_dyn.preprocess.self_s", "s"),
    ("geom_dyn.engine_rebuilds", "count"),
    ("reductions.gen.self_s", "s"),
    ("reductions.brute.self_s", "s"),
    ("reductions.driver.self_s", "s"),
    ("reductions.target_calls", "count"),
    ("reductions.target.self_s", "s"),
    ("cli.gen_trace.self_s", "s"),
    ("cli.run_trace_oracle.self_s", "s"),
    ("cli.run_trace_real.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# count-type metrics: a deterministic program must repeat them bit for bit
EXACT = [name for name, unit in PER_LAYER
         if unit in ("count", "visits", "calls", "labels")
         or name == "range_mode.refresh_net_ratio"]


class Tracer:
    """In-memory span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.visits = 0
        self.tallies = defaultdict(int)
        self.rebuild_insert_ns = []
        self.net_changes = 0
        self._net = []          # per open range_mode.update: {(tree, key): was}
        self.missing = []       # listed methods the program no longer has
        self._undo = []

    # ---------------- spans ----------------

    def span(self, name, fn):
        """`fn` wrapped so that each call records one span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter_ns(), 0,
                   self.visits]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = perf_counter_ns()
                rec[4] = self.visits - rec[4]
        return wrapper

    def root(self, name, fn, *args):
        """Run `fn(*args)` as a phase root span; returns its result."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        return self.span(name, fn)(*args)

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, new)

    # ---------------- installation ----------------

    def install(self):
        for owner, attr, name in METHODS:
            if attr not in owner.__dict__:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            fn = getattr(owner, attr)
            if name in REBUILD_TALLIES:
                fn = self._tally_rebuilds(fn, name)
            if name == "range_mode.update":
                fn = self._track_net(fn)
            if name == "core_geom.toggle":
                fn = self._note_toggle(fn)
            self._patch(owner, attr, self.span(name, fn))
        self._patch(core_geom.VisitCounter, "add", self._count_visits(
            core_geom.VisitCounter.add))
        self._patch(cli, "gen_trace", self.span("cli.gen_trace", cli.gen_trace))
        real_run = cli.run_trace
        oracle_span = self.span("cli.run_trace_oracle", real_run)
        real_span = self.span("cli.run_trace_real", real_run)
        self._patch(cli, "run_trace", lambda trace, sid: (
            oracle_span if sid == "oracle" else real_span)(trace, sid))
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _count_visits(self, add):
        def counted(counter, k=1):
            before = counter.count
            add(counter, k)
            self.visits += counter.count - before
        return counted

    def _tally_rebuilds(self, fn, name):
        tally = REBUILD_TALLIES[name]

        def tallied(obj, *args, **kwargs):
            before = obj.rebuilds
            t0 = perf_counter_ns()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                bumped = obj.rebuilds - before
                if bumped:
                    self.tallies[tally] += bumped
                    if name == "range_mode.seq_insert":
                        self.rebuild_insert_ns.append(perf_counter_ns() - t0)
        return tallied

    def _track_net(self, fn):
        """Count entries whose activation differs before and after an update."""
        def tracked(*args, **kwargs):
            seen = {}
            self._net.append(seen)
            try:
                return fn(*args, **kwargs)
            finally:
                self._net.pop()
                self.net_changes += sum(tree.is_active(key) != was
                                        for (tree, key), was in seen.items())
        return tracked

    def _note_toggle(self, fn):
        def noted(tree, key, active):
            if self._net:
                seen = self._net[-1]
                if (tree, key) not in seen and 0 <= key < len(tree):
                    seen[(tree, key)] = tree.is_active(key)
            return fn(tree, key, active)
        return noted

    # ---------------- reduction hooks ----------------

    def wrap_reductions(self):
        """Spans around each ReductionConfig's gen, brute, run and factory."""
        registry = reductions.REDUCTIONS
        for rid, cfg in list(registry.items()):
            adapters = {aid: self.span("reductions.adapter_build", f)
                        for aid, f in cfg.adapters.items()}
            self._patch_item(registry, rid, dataclasses.replace(
                cfg, gen=self.span("reductions.gen", cfg.gen),
                brute=self.span("reductions.brute", cfg.brute),
                run=self.span("reductions.driver", cfg.run),
                adapters=adapters))

    def _patch_item(self, mapping, key, new):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = new

    # ---------------- analysis ----------------

    def self_times(self):
        """Per-span self time in ns, in span order."""
        spans = self.spans
        child = [0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(spans, child)]

    def roots(self, selfs):
        """(name, summed self ns, duration ns) of every root span.

        The two numbers agree exactly when every span closed inside its
        parent; a root not named `bench.*` is a span opened outside a phase.
        """
        spans = self.spans
        root_of = [0] * len(spans)
        totals = defaultdict(int)
        for i, (name, parent, t0, t1, _) in enumerate(spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            totals[root_of[i]] += selfs[i]
        return [(spans[r][0], total, spans[r][3] - spans[r][2])
                for r, total in totals.items()]

    def layer_metrics(self, overhead_ratio):
        spans = self.spans
        selfs = self.self_times()
        self_by = defaultdict(int)
        calls = defaultdict(int)
        visits = defaultdict(int)
        for (name, _, _, _, v), s in zip(spans, selfs):
            self_by[name] += s
            calls[name] += 1
            visits[name] += v
        toggles_in_update = heavy_counts = 0
        for name, parent, _, _, _ in spans:
            if name == "core_geom.toggle" and _under(spans, parent,
                                                     "range_mode.update"):
                toggles_in_update += 1
            elif name == "core_geom.count" and parent >= 0 \
                    and spans[parent][0] == "range_mode.query":
                heavy_counts += 1

        def layer_s(prefix):
            return sum(v for k, v in self_by.items()
                       if k.startswith(prefix)) / 1e9

        queries = calls["core_geom.count"] + calls["core_geom.max_entry"]
        rebuild_ms = [ns / 1e6 for ns in self.rebuild_insert_ns]
        m = {
            "core_geom.toggle.calls": calls["core_geom.toggle"],
            "core_geom.toggle.self_s": self_by["core_geom.toggle"] / 1e9,
            "core_geom.visits_per_toggle": _ratio(
                visits["core_geom.toggle"], calls["core_geom.toggle"]),
            "core_geom.max_entry.self_s": self_by["core_geom.max_entry"] / 1e9,
            "core_geom.count.self_s": self_by["core_geom.count"] / 1e9,
            "core_geom.visits_per_query": _ratio(
                visits["core_geom.count"] + visits["core_geom.max_entry"],
                queries),
            "core_geom.extend.self_s": self_by["core_geom.extend"] / 1e9,
            "range_mode.bulk_insert.self_s":
                self_by["range_mode.bulk_insert"] / 1e9,
            "range_mode.update.self_s": self_by["range_mode.update"] / 1e9,
            "range_mode.toggles_per_update": _ratio(
                toggles_in_update, calls["range_mode.update"]),
            "range_mode.refresh_net_ratio": _ratio(
                self.net_changes, toggles_in_update),
            "range_mode.query.self_s": self_by["range_mode.query"] / 1e9,
            "range_mode.heavy_labels": _ratio(
                heavy_counts, calls["range_mode.query"]),
            "range_mode.seq_rebuilds": self.tallies["range_mode.seq_rebuilds"],
            "range_mode.seq_rebuild_insert_ms":
                statistics.median(rebuild_ms) if rebuild_ms else 0.0,
            "colors.self_s": layer_s("colors."),
            "colors.rebuilds": self.tallies["colors.rebuilds"],
            "tensor_ds.self_s": layer_s("tensor_ds."),
            "geom_dyn.self_s": layer_s("geom_dyn."),
            "geom_dyn.preprocess.self_s": self_by["geom_dyn.preprocess"] / 1e9,
            "geom_dyn.engine_rebuilds":
                self.tallies["geom_dyn.engine_rebuilds"],
            "reductions.gen.self_s": self_by["reductions.gen"] / 1e9,
            "reductions.brute.self_s": self_by["reductions.brute"] / 1e9,
            "reductions.driver.self_s": self_by["reductions.driver"] / 1e9,
            "reductions.target_calls": calls["reductions.target"],
            "reductions.target.self_s": self_by["reductions.target"] / 1e9,
            "cli.gen_trace.self_s": self_by["cli.gen_trace"] / 1e9,
            "cli.run_trace_oracle.self_s":
                self_by["cli.run_trace_oracle"] / 1e9,
            "cli.run_trace_real.self_s": self_by["cli.run_trace_real"] / 1e9,
            "trace.overhead_ratio": overhead_ratio,
        }
        breakdown = {k: v / 1e9 for k, v in sorted(self_by.items())}
        return m, breakdown, selfs

    def dump(self, path, selfs):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "parent", "t0_ns", "t1_ns",
                                  "visits", "self_ns"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4], st]
                                 for s, st in zip(self.spans, selfs)]},
                      fh, separators=(",", ":"))


def _under(spans, idx, name):
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][1]
    return False


def _ratio(num, den):
    return num / den if den else 0.0
