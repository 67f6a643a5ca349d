"""Run one workload's job list through ``bendix.cli.main`` in this process.

Closed loop, one client: each job starts when the previous one has finished.
Only the ``main(argv)`` call is timed.  A timed run makes passes over a fixed
list of jobs (``workloads.run_length``, whole cycles): at least
``MIN_PASSES``, and then as many as bring the timed job work nearest to
``--seconds`` (or until the wall clock reaches ``--hard-seconds``).  Each
job's times, one per pass, are reported; ``run.py`` takes their median.  A
fixed list keeps the size mix, and so the rank of the median and tail job in
it, the same in every run, and passes spread each job's samples over the
run, so one slow stretch of the shared host moves few of them.  The first pass verifies every
output; later passes must reproduce its stdout exactly.

Between passes the worker times fresh interpreter starts up to an imported
``bendix.cli`` (``setup_s``), so those samples are spread over the run too.

With ``--max-jobs`` it makes one pass over the first jobs of the stream
instead, as the traced run and the tests do.

Prints one JSON summary line on stdout; ``run.py`` starts this script in a
fresh interpreter with ``src`` on ``PYTHONPATH`` and turns the summary into
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import verify
from workloads import make_job, run_length

DIGESTS = Path(__file__).resolve().parent / "digests"
MIN_PASSES = 3
SETUP_PROBES = 3  # interpreter starts before the first pass and after each pass


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def recorded_digests(workload: str, seed: int) -> list[str]:
    path = DIGESTS / f"{workload}.json"
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    return doc["digests"] if doc["seed"] == seed else []


def run_job(cli, job, work_dir: Path) -> tuple[int, str, str, float]:
    names = {}
    for name, doc in job.files.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        names[name] = str(path)
    argv = [arg.format(**names) if arg.startswith("{") else arg for arg in job.argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException as exc:  # noqa: BLE001 - a crash is a failed job
            code = -1
            err.write(f"crash: {type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def setup_probe() -> float:
    """Seconds from spawning an interpreter to ``bendix.cli`` imported."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", "import bendix.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"cannot import bendix.cli: {err.strip()[-2000:]}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--hard-seconds", type=float, default=None)
    parser.add_argument("--max-jobs", type=int, default=0, help="one pass over this many jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", default=None, help="write trace spans here (JSON lines)")
    parser.add_argument("--ignore-digests", action="store_true", help="skip the recorded-digest check")
    args = parser.parse_args()

    import bendix.cli as cli

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    pinned = [] if args.ignore_digests else recorded_digests(args.workload, args.seed)
    hard = args.hard_seconds if args.hard_seconds is not None else 3 * args.seconds
    timed = not args.max_jobs
    jobs = [make_job(args.workload, args.seed, i) for i in range(args.max_jobs or run_length(args.workload))]

    run_job(cli, make_job(args.workload, args.seed, -1), work_dir)  # warm-up, not measured
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup: list[float] = []
    if timed:
        setup_probe()  # the first start warms the OS file cache
        setup += [setup_probe() for _ in range(SETUP_PROBES)]

    times: list[list[float]] = [[] for _ in jobs]
    stamps: list[str] = []
    reasons: list[str | None] = []
    failures = []
    output_bytes = 0
    measured = 0.0
    passes = 0
    cut = False
    loop_start = time.perf_counter()
    while not cut:
        done = []
        for index, job in enumerate(jobs):
            if time.perf_counter() - loop_start >= hard:
                cut = True
                break
            if tracer is not None:
                tracer.job = index
            code, out, err, seconds = run_job(cli, job, work_dir)
            stamp = digest(code, out)
            if passes == 0:
                reason = verify.check(job, code, out, err)
                if reason is None and index < len(pinned) and pinned[index] != stamp:
                    reason = f"{job.kind}: stdout differs from the recorded digest"
                stamps.append(stamp)
                reasons.append(reason)
                output_bytes += len(out.encode())
            elif stamp != stamps[index]:
                reason = f"{job.kind}: stdout differs from the first pass"
                reasons[index] = reasons[index] or reason
            else:
                reason = None
            if reason is not None:
                failures.append(f"job {index}, pass {passes + 1}: {reason}")
            done.append(seconds)
        if cut and passes:
            break  # only whole passes count once one is complete
        measured += sum(done)
        for index, seconds in enumerate(done):
            times[index].append(seconds)
        passes += 1
        if timed and not cut:
            setup += [setup_probe() for _ in range(SETUP_PROBES)]
        # Stop when one more pass would overshoot --seconds by more than it
        # falls short now.
        if not timed or (passes >= MIN_PASSES and measured * (1 + 0.5 / passes) >= args.seconds):
            break
    loop_s = time.perf_counter() - loop_start
    done = len(reasons)  # jobs run in the first pass

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [
            [index, job.kind, job.n, times[index], reasons[index] is None, stamps[index]]
            for index, job in enumerate(jobs[:done])
        ],
        "passes": passes,
        "measured_s": measured,
        "cut": cut,
        "setup_s": setup,
        "failures": failures[:20],
        "loop_s": loop_s,
        "output_bytes": output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests_checked": min(len(pinned), done),
    }
    if tracer is not None:
        tracer.uninstall()
        summary["stats"] = tracer.stats_json()
        summary["spans"] = sum(1 for s in tracer.spans if s is not None)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
