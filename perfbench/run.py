#!/usr/bin/env python3
"""The pathpower benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload {verify,search,scale} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each call starts fresh interpreters for
the workload: one that sets up (imports pathpower and pathpower.cli and
generates the inputs) and then runs the jobs, and SETUP_PROBES that only
set up, half before it and half after it.  setup_s is the median, over all
of them, of the time from starting the interpreter until the first job is
ready.

With --trace 0 the last line of standard output is the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it is the per-layer metrics, taken
from spans the benchmark puts around pathpower's public functions (see
spans.py), plus the tracing overhead.  Either way a run record with the
backend, versions, thread settings, git revision, every job and its check
goes to perfbench/out/.  The exit code is 0 when the run completed, also
when a job failed its check (then "correct" is false); any other exit code
means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 12  # split around the main process, so one slow spell cannot cover them all
TIMEOUT_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from spans import layer_metrics  # noqa: E402
from workloads import VERIFY_CHECKS, WORKLOADS  # noqa: E402


class NoResult(Exception):
    """The run could not produce a result."""


def child_env() -> dict:
    """The environment of the workload processes: BLAS threads <= nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker process; return its start time and its JSON result."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,  # so a timeout can stop the search's pool workers too
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise NoResult("workload process timed out") from None
    if proc.returncode != 0:
        raise NoResult(f"workload process exited with code {proc.returncode}")
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise NoResult("workload process printed nothing")
    return started, json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own repository."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the library sources, so a record names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pathpower").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def best_by_job(jobs: list[dict]) -> dict:
    """Fastest time of each pool job in the run (all verify-all calls are one job)."""
    best: dict = {}
    for j in jobs:
        name = j["name"].partition(":")[0]
        best[name] = min(best.get(name, j["seconds"]), j["seconds"])
    return best


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, and the wall-time statistics kept in the record.

    round_best_s sums each pool job's fastest time in the run: the time of
    one round at the speed the run reached at least once for every job.
    A shared virtual machine can switch between two speeds about 2x apart
    for stretches of ten seconds or more; the median and the tail of a
    20-60 s run then follow whichever speed held most of it, while the best
    time per job does not.
    """
    times = [j["seconds"] for j in res["jobs"]]
    tail_value, tail_pct = tail(times)
    best = best_by_job(res["jobs"])
    metrics = {
        "setup_s": statistics.median(setups),
        "round_best_s": sum(best.values()),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "exact_ratio": sum(j["exact"] for j in res["jobs"]) / len(times),
    }
    wall = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "jobs": len(times),
        "jobs_per_s": len(times) / res["wall"]["untraced"],
        "best_by_job_s": best,
    }
    return metrics, wall


def per_layer(res: dict) -> dict:
    traced = [j for j in res["jobs"] if j["traced"]]
    untraced = [j for j in res["jobs"] if not j["traced"]]
    metrics = layer_metrics(res["spans"], len(traced))
    reports = [j["report_seconds"] for j in untraced if j["report_seconds"]]
    for name in VERIFY_CHECKS:
        values = [r.get(name, 0.0) for r in reports]
        metrics[f"report.check.{name}_s"] = statistics.fmean(values) if values else 0.0
    traced_rate = len(traced) / res["wall"]["traced"]
    untraced_rate = len(untraced) / res["wall"]["untraced"]
    metrics["trace.jobs_per_s"] = traced_rate
    metrics["trace.untraced_jobs_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    return metrics


def run(args) -> dict:
    if not (ROOT / "src" / "pathpower" / "__init__.py").is_file():
        raise NoResult(f"no pathpower sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIMEOUT_S
    env = child_env()
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", str(scratch)]

    def probe() -> float:
        started, out = spawn(base + ["--seconds", "0", "--setup-only"], env, deadline)
        return out["ready"] - started

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    started, res = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    setups.append(res["ready"] - started)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    if args.trace:
        values, wall = per_layer(res), {}
    else:
        values, wall = end_to_end(setups, res)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failures = [f"{j['name']}: {j['reason']}" for j in res["jobs"] if not j["ok"]]
    attempted = len(res["jobs"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "environment": {**res["record"], "blas_threads": {v: env[v] for v in BLAS_VARS}},
        "setup_samples_s": setups,
        "rounds": res["rounds"],
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "invalid": res["invalid"],
        "nodes_by_job": res["nodes_by_job"],
        "eig_dim_cubed_by_round": res.get("eig_dim_cubed_by_round"),
        "wall_time": wall,
        "metrics": metrics,
        "jobs": [{k: j[k] for k in ("name", "round", "seconds", "ok", "exact", "traced", "nodes")} for j in res["jobs"]],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in failures + res["invalid"]:
        print(f"perfbench: {line}", file=sys.stderr)
    return {
        "correct": not failures and not res["invalid"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except NoResult as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
