"""Layered benchmark of dynds: three workloads, two cost currencies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
its `src/`.  `--trace 0` measures the end-to-end metrics with no wrapper
installed beyond the per-call timers; `--trace 1` runs one pass untraced
and one with spans around every layer's public methods, reports the
per-layer metrics and writes the spans to
`perfbench/out/trace-<workload>-<seed>.json`.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Human-readable lines, with sample counts, come before it.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("visits_per_op", "visits"),
    ("peak_rss_mb", "MB"),
]


def _pct(ns, q):
    """The q-th percentile of a latency sample, in ms."""
    ms = [x / 1e6 for x in ns]
    if q == 50 or len(ms) < 2:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=100)[q - 1]


def _source_digest():
    """sha256 of the program and benchmark sources: keys the count records."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "dynds"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_repeat(workload, seed, mode, counts):
    """Compare count-type metrics with an earlier run of the same seed.

    The first run of a (workload, seed, mode, source) records them under
    perfbench/out/counts; a later run that differs is reported.
    """
    d = os.path.join(HERE, "out", "counts")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}-{mode}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        return [f"{k}: {v!r} now, {old.get(k)!r} before"
                for k, v in counts.items() if old.get(k) != v]
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def end_to_end(res):
    lat = {"update": [], "query": []}
    for kind, ns in zip(res.kinds, res.lat_ns):
        lat[kind].append(ns)
    m = {
        "setup_s": statistics.median(res.setup_s),
        "ops_per_s": res.work / res.busy_s,
        "update_p50_ms": _pct(lat["update"], 50),
        "update_p95_ms": _pct(lat["update"], 95),
        "query_p50_ms": _pct(lat["query"], 50),
        "query_p95_ms": _pct(lat["query"], 95),
        "visits_per_op": res.visits / res.work,
        "peak_rss_mb": res.rss_mb,
    }
    best = f"each the fastest of {res.passes} passes"
    samples = {
        "setup_s": f"median of {len(res.setup_s)} set-ups",
        "ops_per_s": f"{res.work} {res.unit} in {res.busy_s:.3f} s, {best}",
        "visits_per_op": f"over the {res.work} {res.unit} of one pass",
        "peak_rss_mb": "ru_maxrss after set-up and one pass",
    }
    per = "cases" if res.unit == "cases" else "calls"
    for kind in lat:
        for q in (50, 95):
            samples[f"{kind}_p{q}_ms"] = f"n={len(lat[kind])} {per}, {best}"
    return m, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dynds")):
        print(f"error: no dynds package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tracer as tr
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = tr.Tracer() if args.trace else None
    res = wl.run(args.seed, args.seconds, tracer)
    problems = res.problems
    print(f"# workload={wl.name} seed={args.seed} trace={args.trace}")

    if tracer is None:
        metrics, samples = end_to_end(res)
        units = dict(END_TO_END)
        counts = {"visits_per_op": metrics["visits_per_op"]}
        for name, _ in END_TO_END:
            print(f"{name:16s} {metrics[name]:14.6f} {units[name]:8s}"
                  f" ({samples[name]})")
        if wl.unit == "cases":
            print(f"{'cases_per_s':16s} {metrics['ops_per_s']:14.6f} "
                  f"{'cases/s':8s} (same value as ops_per_s)")
        print(f"# gauge: fastest of {res.gauge_marks} calibration marks "
              f"{res.gauge_ns / 1e6:.4f} ms; times scaled by "
              f"{workloads.CAL_REF_NS / res.gauge_ns:.4f}")
    else:
        metrics, breakdown, selfs = tracer.layer_metrics(
            res.overhead_ratio)
        units = dict(tr.PER_LAYER)
        counts = {k: metrics[k] for k in tr.EXACT}
        for name, unit in tr.PER_LAYER:
            print(f"{name:34s} {metrics[name]:14.6f} {unit}")
        for name in tracer.missing:
            print(f"# not wrapped, the program has no {name}")
        print("# self time by span (s):")
        for name, s in breakdown.items():
            print(f"#   {name:32s} {s:12.6f}")
        for name, total, dur in tracer.roots(selfs):
            print(f"# root {name}: {dur / 1e9:.6f} s traced, self times "
                  f"sum to {total / 1e9:.6f} s")
            if not name.startswith("bench.") or total != dur:
                problems.append(f"span tree {name}: self times sum to "
                                f"{total} ns but the root lasted {dur} ns")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(
            HERE, "out", f"trace-{wl.name}-{args.seed}.json"), selfs)
    problems += check_repeat(wl.name, args.seed,
                             "traced" if tracer else "untraced", counts)
    attempted, failed = res.attempted, res.failed
    print(f"{'error_ratio':16s} {failed / attempted:14.6f} {'ratio':8s}"
          f" ({failed} of {attempted} failed)")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
