"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1-10 --seconds 15 \
        drm2-light-churn seq-heavy-scan crosscheck-default > summary.json

Runs `perfbench/run.py` once per workload and seed, one run at a time, and
prints one JSON document: for every metric the ten values, their median,
quartiles and spread (interquartile distance over the median), plus the
environment the runs came from.  Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from envinfo import environment  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args()
    out = {"environment": environment(), "seconds": args.seconds,
           "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        values = {}
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"], capture_output=True, text=True)
            res = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "exit": done.returncode,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"]})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed={seed} exit={done.returncode} "
                  f"correct={res['correct']}", file=sys.stderr, flush=True)
        out["workloads"][wl] = {
            "runs": runs,
            "metrics": {k: summarize(v) for k, v in values.items()}}
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
