"""Write perfbench/pins.json: the sha256 of each pinned crosscheck report.

    python3 perfbench/pin.py [count]

Runs `dynds crosscheck --seed S` for S = 0..count-1 (default 16) and
records the sha256 of each report, together with the environment it came
from.  A report is only pinned when the command exits 0 with
`total mismatches=0`.  Re-pin only when a change is meant to alter the
report bytes.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from envinfo import environment  # noqa: E402
from workloads import crosscheck_once  # noqa: E402


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    pins = {}
    for seed in range(count):
        rc, report = crosscheck_once(seed)
        if rc != 0 or not report.endswith(b"total mismatches=0\n"):
            sys.exit(f"crosscheck --seed {seed} failed; nothing pinned")
        pins[str(seed)] = hashlib.sha256(report).hexdigest()
        print(seed, pins[str(seed)], flush=True)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump({"environment": environment(), "crosscheck_sha256": pins},
                  fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
