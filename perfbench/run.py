"""bendix benchmark: one workload of CLI jobs, end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 35 --trace 0

Each run first passes the golden gate (``gate.py``): every worked example
must match its golden file byte for byte, or no numbers are reported.

``--trace 0`` runs the workload's seeded job list through
``bendix.cli.main(argv)`` in one fresh single-threaded process (``worker.py``):
a closed loop with one client, making at least three passes over the list and
as many as bring the job time nearest to ``--seconds``.  A job's time is the
median of its passes.  Between passes the worker times fresh interpreter
starts up to an imported ``bendix.cli`` (``setup_s``).  Every job's output is verified
(``verify.py``), for the recorded seed also against the stored stdout
digests, and later passes must reproduce the first pass's stdout.

``--trace 1`` runs a fixed prefix of the job list twice in fresh processes,
untraced and then with every layer boundary wrapped (``tracing.py``), and
reports per-layer counts and self times plus the tracing overhead.  Spans are
written to ``.perfbench_work/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with its
unit and notes.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS as LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, cycle_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUDGET_S = 170.0  # a run must end within 180 s

# Jobs in the traced run's fixed prefix: whole cycles, six to ten seconds
# untraced on a 2-core x86 VM at the commit that defined the benchmark.
TRACE_JOBS = {"spectrum": 35, "nmin": 36, "conjugacy": 18, "queries": 800}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.start)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], clock: Clock) -> dict:
    """Run a helper script in a fresh interpreter; returns its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(clock.left(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish in the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = (proc.stderr.strip() or proc.stdout.strip())[-2000:]
        raise BenchError(f"{argv[0]} exited with {proc.returncode}: {detail}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Hash of every file under ``src``: identifies the code being measured."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def golden_gate(clock: Clock) -> None:
    """Pass the gate once per source tree; later runs reuse the recorded pass."""
    record = WORK / f"gate-{source_digest()}.json"
    if record.exists():
        gate, reused = json.loads(record.read_text()), " (recorded pass for these sources)"
    else:
        gate, reused = run_child([str(HERE / "gate.py")], clock), ""
        if not gate["pass"]:
            raise BenchError(f"golden gate failed: {gate['results']}")
        WORK.mkdir(exist_ok=True)
        record.write_text(json.dumps(gate))
    print(
        f"golden gate: pass, {gate['byte_identical']}/{gate['cases']} goldens byte-identical, "
        f"run_examples() {gate['seconds']:.3f} s{reused}"
    )


def worker(args, clock: Clock, *, trace: int, max_jobs: int = 0) -> dict:
    hard = min(4 * args.seconds, clock.left() - 10)
    if hard <= 0:
        raise BenchError("no time left for the workload")
    argv = [
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--hard-seconds", str(hard), "--trace", str(trace),
        "--max-jobs", str(max_jobs), "--work-dir", str(WORK / f"{args.workload}-{args.seed}-{trace}"),
    ]
    if trace:
        argv += ["--spans", str(WORK / f"spans-{args.workload}-{args.seed}.jsonl")]
    summary = run_child(argv, clock)
    for failure in summary["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return summary


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def rate(jobs: list) -> float:
    """Executions per second of job time; a job's times are one per pass."""
    return sum(len(job[3]) for job in jobs) / sum(sum(job[3]) for job in jobs)


def end_to_end(args, clock: Clock) -> tuple[dict, int, int]:
    summary = worker(args, clock, trace=0)
    setup = summary["setup_s"]
    times = [statistics.median(job[3]) for job in summary["jobs"]]
    attempted = len(times)
    failed = sum(1 for job in summary["jobs"] if not job[4])
    tail_s, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": rate(summary["jobs"]),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    cycles = attempted // cycle_length(args.workload)
    print(
        f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 process; "
        f"{attempted} jobs ({cycles} cycles), {summary['passes']} passes, "
        f"{summary['measured_s']:.3f} s of job time, {summary['loop_s']:.3f} s with verification; "
        f"{summary['digests_checked']} outputs checked against recorded digests"
        + ("; cut at the time limit" if summary["cut"] else "")
    )
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "jobs_per_s": f"{attempted} jobs x {summary['passes']} passes over {summary['measured_s']:.3f} s of job time",
        "job_p50_s": f"median of {attempted} jobs, each the median of its passes",
        "job_tail_s": f"p{pct:.1f}, {beyond} of {attempted} jobs beyond it",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:<12} {values[name]:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"{'fail_ratio':<12} {failed / attempted:.6g}  ({failed} of {attempted} jobs failed)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, attempted, failed


def traced(args, clock: Clock) -> tuple[dict, int, int]:
    plain = worker(args, clock, trace=0, max_jobs=TRACE_JOBS[args.workload])
    summary = worker(args, clock, trace=1, max_jobs=len(plain["jobs"]))
    jobs = summary["jobs"]
    common = min(len(plain["jobs"]), len(jobs))
    failed = sum(1 for job in jobs if not job[4])
    changed = sum(1 for a, b in zip(plain["jobs"], jobs) if a[5] != b[5])
    if changed:
        print(f"FAILED tracing changed the stdout of {changed} jobs", file=sys.stderr)
    values = layer_metrics(summary["stats"], summary["output_bytes"])
    values["trace.jobs"] = len(jobs)
    values["trace.untraced_jobs_per_s"] = rate(plain["jobs"][:common])
    values["trace.traced_jobs_per_s"] = rate(jobs[:common])
    values["trace.overhead_jobs_per_s"] = values["trace.traced_jobs_per_s"] - values["trace.untraced_jobs_per_s"]
    print(
        f"traced {args.workload}, seed {args.seed}: {len(jobs)} jobs, {summary['spans']} spans; "
        f"overhead {values['trace.overhead_jobs_per_s']:.6g} jobs/s "
        f"({values['trace.traced_jobs_per_s']:.6g} traced vs {values['trace.untraced_jobs_per_s']:.6g} untraced)"
    )
    for name, unit in LAYER_METRICS.items():
        print(f"{name:<40} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    return metrics, len(jobs), failed + changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bendix" / "cli.py").is_file():
        print(f"bendix sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    clock = Clock()
    try:
        golden_gate(clock)
        metrics, attempted, failed = (traced if args.trace else end_to_end)(args, clock)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
