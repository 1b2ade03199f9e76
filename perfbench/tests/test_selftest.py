"""The benchmark's correctness check must be able to fail.

    python3 -m pytest -q perfbench/tests

Runs the drm2-light-churn workload at a tiny size once as is and once with
one query answer corrupted inside the comparison, in the spirit of
`dynds crosscheck --scope fault`.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402

TINY = workloads.DrmChurn(grid=4, light=4, heavy=1, ops_per_pass=30)


def test_tiny_churn_is_correct():
    res = TINY.run(seed=0, seconds=0)
    assert res.attempted == 30 * workloads.MIN_PASSES
    assert res.failed == 0 and not res.problems


def test_corrupted_answer_raises_error_ratio():
    res = TINY.run(seed=0, seconds=0, corrupt=True)
    assert res.failed / res.attempted > 0


def test_crosscheck_report_off_pin_counts_as_failure():
    report = (b"tracecheck problem=halfspace structure=real cases=20 "
              b"mismatches=0\ntotal mismatches=0\n")
    pin = hashlib.sha256(report).hexdigest()
    assert workloads.judge_report(0, report, pin) == (20, 0)
    assert workloads.judge_report(0, report + b"\n", pin)[1] == 1
    assert workloads.judge_report(1, report, pin)[1] == 1
