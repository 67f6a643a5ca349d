"""Describe each workload's generator and the spread of its job sizes.

Run from the root of a checkout::

    python3 perfbench/profile_jobs.py > perfbench/workloads.json

For seeds 1-10 it generates the first cycles of every workload (without
running bendix) and reports the histogram of n, the maximal tori per
``spectrum`` job and toric sets per ``conjugacy`` job (both counted
independently, see ``arith``), the share of ``spectrum`` lambdas with a
repeated length, and the command mix of ``queries``.  Claims that a change
helps only inputs with some property can cite these shares.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from arith import Lengths, count_maximal_tori, count_toric_sets
import workloads as W

SEEDS = range(1, 11)
CYCLES = {"spectrum": 20, "nmin": 10, "conjugacy": 20, "queries": 40}

GENERATORS = {
    "spectrum": {
        "command": "enumerate -f LAMBDA [--quotient-permutations]",
        "cycle (n, quotient_permutations)": [list(slot) for slot in W.SPECTRUM_CYCLE],
        "lengths": "two edges from {1/2, 1}, the rest from {3/2, 2, ..., 4}; generic, nonempty",
        "maximal tori band per n": {str(n): list(b) for n, b in W.SPECTRUM_TORI.items()},
    },
    "nmin": {
        "command": "nmin -f LAMBDA",
        "cycle (n)": list(W.NMIN_CYCLE),
        "lengths": "each from {1/2, 1, ..., 4}; generic, nonempty",
        "DP blocks tested band per n": {str(n): list(b) for n, b in W.NMIN_DP_STEPS.items()},
    },
    "conjugacy": {
        "command": "conjugacy -f LAMBDA",
        "cycle (n)": list(W.CONJUGACY_CYCLE),
        "pentagon lengths": "five distinct values from {1/2, 1, ..., 4}; generic, nonempty",
        "pentagon toric sets band": list(W.PENTAGON_TORIC_SETS),
        "hexagon lengths": "six distinct values from {5/2, 11/4, ..., 4}; generic",
    },
    "queries": {
        "cycle (command)": list(W.QUERIES_CYCLE),
        "lengths": "n uniform in 5..12 (5..6 for polytope), each from {1/2, 1, ..., 4}",
        "invalid slot": "one of: check on non-generic lengths (exit 0, generic false); "
        "reduce with t above the image (exit 2, t-out-of-image); dim/fill/maximal/polytope "
        "with a non-lopsided member (exit 2, not-lopsided)",
    },
}


def spread(values: list[int]) -> dict:
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p25": ordered[len(ordered) // 4],
        "median": ordered[len(ordered) // 2],
        "p75": ordered[3 * len(ordered) // 4],
        "max": ordered[-1],
    }


def profile(workload: str) -> dict:
    jobs = [
        W.make_job(workload, seed, i)
        for seed in SEEDS
        for i in range(CYCLES[workload] * W.cycle_length(workload))
    ]
    out = {
        "jobs_profiled": len(jobs),
        "n_histogram": {str(n): k for n, k in sorted(Counter(job.n for job in jobs).items())},
    }
    lams = [Lengths.from_json(job.files["lambda"]) for job in jobs]

    def per_n(values: list[int]) -> dict:
        return {
            str(n): spread([v for v, lam in zip(values, lams) if lam.n == n])
            for n in sorted({lam.n for lam in lams})
        }

    if workload == "spectrum":
        out["maximal_tori_per_job_by_n"] = per_n([count_maximal_tori(lam) for lam in lams])
        repeated = sum(len(set(lam.ints)) < lam.n for lam in lams)
        out["share_with_repeated_lengths"] = repeated / len(lams)
        out["share_quotient_permutations"] = sum(
            "--quotient-permutations" in job.argv for job in jobs
        ) / len(jobs)
    if workload == "nmin":
        out["dp_blocks_tested_per_job_by_n"] = per_n([job.size for job in jobs])
    if workload == "conjugacy":
        out["toric_sets_per_job_by_n"] = per_n([count_toric_sets(lam) for lam in lams])
    if workload == "queries":
        out["kind_histogram"] = dict(sorted(Counter(job.kind for job in jobs).items()))
        out["share_expected_errors"] = sum(job.expect_code is not None for job in jobs) / len(jobs)
    return out


def main() -> int:
    doc = {
        workload: {"generator": GENERATORS[workload], "cycle_length": W.cycle_length(workload),
                   "job_sizes": profile(workload)}
        for workload in W.WORKLOADS
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
