"""Tests of the benchmark itself: generators, verifier and tracing wrappers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import verify  # noqa: E402
from tracing import METRICS, layer_metrics  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import WORKLOADS, cycle_length, make_job, run_length  # noqa: E402


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    jobs = [make_job(workload, 7, i).to_json() for i in range(20)]
    assert jobs == [make_job(workload, 7, i).to_json() for i in range(20)]
    assert jobs != [make_job(workload, 8, i).to_json() for i in range(20)]
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from workloads import make_job; "
        f"print(json.dumps([make_job({workload!r}, 7, i).to_json() for i in range(20)]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(BENCH)],
        env=child_env(PYTHONHASHSEED="12345"), capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == json.loads(json.dumps(jobs))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_list_is_whole_cycles_and_holds_the_traced_prefix(workload):
    from run import TRACE_JOBS

    assert run_length(workload) % cycle_length(workload) == 0
    assert TRACE_JOBS[workload] <= run_length(workload)


def _flip(doc: dict, key: str) -> None:
    doc[key] = not doc[key]


def _bump(doc: dict, key: str) -> None:
    doc[key] += 1


TAMPER = {
    "enumerate": lambda d: d["reports"][0].update(maximal_blocks=d["reports"][0]["maximal_blocks"][1:]),
    "nmin": lambda d: _bump(d, "N"),
    "conjugacy": lambda d: d["classes"][0]["members"].pop(),
    "check": lambda d: d.update(dimension=0),
    "check-nongeneric": lambda d: _flip(d, "generic"),
    "lopsided": lambda d: _flip(d, "lopsided"),
    "image": lambda d: d.update(hi=str(Fraction(d["hi"]) + 1)),
    "critical": lambda d: d["values"].append("1000"),
    "reduce": lambda d: _flip(d, "left_generic"),
    "dim": lambda d: _bump(d, "dimension"),
    "fill": lambda d: d["members"].append(["e1", "e2"] if not d["members"] else d["members"][0]),
    "maximal": lambda d: _flip(d, "is_maximal_bending"),
    "polytope": lambda d: d.update(volume="0"),
}

SMALL_JOBS = [("spectrum", 2), ("spectrum", 3), ("nmin", 0), ("conjugacy", 0)] + [
    ("queries", i) for i in range(10)
]


@pytest.mark.parametrize("workload,index", SMALL_JOBS)
def test_verifier_fails_tampered_output(workload, index, tmp_path):
    import bendix.cli as cli

    job = make_job(workload, 3, index)
    code, out, err, _ = run_job(cli, job, tmp_path)
    assert verify.check(job, code, out, err) is None
    if job.expect_code is not None:
        assert verify.check(job, code, out, err.replace(job.expect_code, "schema")) is not None
        assert verify.check(job, 0, out, err) is not None
        return
    doc = json.loads(out)
    TAMPER[job.kind](doc)
    assert verify.check(job, code, json.dumps(doc, indent=2) + "\n", err) is not None
    assert verify.check(job, 1, out, err) is not None


def _worker(workload: str, jobs: int, trace: int, tmp_path: Path) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "5",
        "--seconds", "600", "--max-jobs", str(jobs), "--trace", str(trace),
        "--work-dir", str(tmp_path / f"work-{trace}"),
    ]
    out = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload,jobs", [("spectrum", 3), ("nmin", 2), ("conjugacy", 3), ("queries", 20)])
def test_tracing_leaves_stdout_byte_identical(workload, jobs, tmp_path):
    plain = _worker(workload, jobs, 0, tmp_path)
    traced = _worker(workload, jobs, 1, tmp_path)
    assert [j[5] for j in plain["jobs"]] == [j[5] for j in traced["jobs"]]
    assert all(j[4] for j in plain["jobs"] + traced["jobs"])
    assert len(plain["jobs"]) == jobs
    values = layer_metrics(traced["stats"], traced["output_bytes"])
    assert set(METRICS) - set(values) == {m for m in METRICS if m.startswith("trace.")}
    assert values["cli.output_bytes"] == plain["output_bytes"] > 0
