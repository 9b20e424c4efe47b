"""One workload process: set up, run jobs closed loop, report raw results.

Started by run.py in a fresh interpreter.  It imports pathpower from the
checkout's src/ directory, generates the workload's inputs from the seed,
notes the moment it is ready (the end of set-up), then runs whole rounds of
jobs, one at a time, until --seconds have passed, at least MIN_ROUNDS rounds
and at least MIN_JOBS jobs are done.  Whole rounds keep the job mix of a
run fixed, so the seed changes only the order.  With --trace 1 rounds
alternate untraced and traced, so one run gives both the per-layer spans
and the tracing overhead.  The last line of standard output is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import Library, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 11  # the tail percentile needs ten jobs beyond it
MIN_ROUNDS = 3  # a median of three samples of each pool job survives one slow burst
TRACED_MIN_ROUNDS = 4  # two untraced and two traced rounds
HARD_STOP_S = 120.0  # start no round after this, whatever --seconds says


def import_library():
    """Import pathpower from this checkout and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pathpower
    import pathpower.cli  # noqa: F401  (CLI users pay this import on every call)

    origin = Path(pathpower.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"pathpower imported from {origin}, not from {SRC}")
    return pathpower


def run_record(pathpower) -> dict:
    """What produced the numbers: the search backend and the versions."""
    import platform

    import numpy

    from pathpower import _kernels

    return {
        "backend_for": {str(n): _kernels.backend_for(n) for n in (16, 64, 81)},
        "have_speedups": _kernels.HAVE_SPEEDUPS,
        "pathpower_pure": os.environ.get("PATHPOWER_PURE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_rounds(workload, seconds: float, tracer=None):
    """Run whole rounds until `seconds` have passed and MIN_ROUNDS rounds
    (TRACED_MIN_ROUNDS when tracing) and MIN_JOBS jobs are done.

    Returns the job list, the round count, the wall time of untraced and of
    traced rounds, and the node counts seen for each deterministic job.
    """
    jobs = []
    nodes_seen: dict[str, set] = {}
    wall = {"untraced": 0.0, "traced": 0.0}
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        for name, thunk in workload.next_round():
            if traced:
                tracer.job = len(jobs)
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a job that raises is a failed job
                out = Outcome(False, False, f"{type(exc).__name__}: {exc}")
            took = time.perf_counter() - t0
            jobs.append({"name": name, "round": rounds, "seconds": took, "traced": traced, **asdict(out)})
            if out.nodes is not None and workload.deterministic(name):
                nodes_seen.setdefault(name, set()).add(out.nodes)
        wall["traced" if traced else "untraced"] += time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        min_rounds = MIN_ROUNDS if tracer is None else TRACED_MIN_ROUNDS
        enough = elapsed >= seconds and len(jobs) >= MIN_JOBS and rounds >= min_rounds
        if enough or elapsed >= HARD_STOP_S:
            break
    return jobs, rounds, wall, nodes_seen


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True, help="directory for temporary files and the span dump")
    p.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = p.parse_args(argv)

    pathpower = import_library()
    workload = Workload(args.workload, args.seed, Library(), args.scratch)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    jobs, rounds, wall, nodes_seen = run_rounds(workload, args.seconds, tracer)
    invalid = [f"{name}: node counts {sorted(c)} differ between rounds" for name, c in nodes_seen.items() if len(c) > 1]
    result = {
        "ready": ready,
        "rounds": rounds,
        "wall": wall,
        "jobs": jobs,
        "nodes_by_job": {name: sorted(c) for name, c in nodes_seen.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "record": run_record(pathpower),
    }
    if tracer is not None:
        summary = tracer.summary()
        per_job = summary["dim_cubed_by_job"]
        # Every traced pass must repeat the same eigensolve work.
        passes: dict[int, int] = {}
        for i, job in enumerate(jobs):
            if job["traced"]:
                passes[job["round"]] = passes.get(job["round"], 0) + per_job.get(i, 0)
        if len(set(passes.values())) > 1:
            invalid.append(f"eig dim^3 per traced round differs: {sorted(set(passes.values()))}")
        result["spans"] = summary["spans"]
        result["eig_dim_cubed_by_round"] = passes
        tracer.dump(os.path.join(args.scratch, f"spans-{args.workload}-{args.seed}.json"))
    result["invalid"] = invalid
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
