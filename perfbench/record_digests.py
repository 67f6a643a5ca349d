"""Record the stdout digests that pin each workload's output for one seed.

Run from the root of a checkout after an intentional output change::

    python3 perfbench/record_digests.py [WORKLOAD ...]

It runs each named workload's timed job list (default: all workloads) for
``RECORDED_SEED``, still verifying every job against the independent
invariants, and rewrites ``perfbench/digests/<workload>.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, run_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_SEED = 1


def main() -> int:
    chosen = sys.argv[1:] or list(WORKLOADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    (HERE / "digests").mkdir(exist_ok=True)
    for workload in chosen:
        jobs = run_length(workload)
        argv = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(RECORDED_SEED), "--seconds", "1e9", "--max-jobs", str(jobs),
            "--ignore-digests", "--work-dir", str(ROOT / ".perfbench_work" / "record"),
        ]
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout
        summary = json.loads(out.splitlines()[-1])
        if summary["failures"]:
            print("\n".join(summary["failures"]), file=sys.stderr)
            return 1
        doc = {"seed": RECORDED_SEED, "digests": [job[5] for job in summary["jobs"]]}
        (HERE / "digests" / f"{workload}.json").write_text(json.dumps(doc, indent=0) + "\n")
        print(f"{workload}: {len(doc['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
