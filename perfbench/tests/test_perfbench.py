"""Tests of the benchmark itself: its checks must catch a wrong value, its
counts must repeat, and its tracer must wrap and restore every namespace.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pathpower  # noqa: E402
import pathpower.cli  # noqa: E402,F401
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from workloads import Library, SearchJob, Workload  # noqa: E402

SMALL = SearchJob("floor-4^3", 4, 3, 1, None, expected=2)
SMALL_FULL = SearchJob("full-3^3", 3, 3, 1, 0, expected=2)


def fail_ratio(jobs) -> float:
    return sum(not j["ok"] for j in jobs) / len(jobs)


@pytest.fixture
def search_run(tmp_path, monkeypatch):
    """Run `rounds` whole rounds of a search pool."""

    def go(pool, rounds=2):
        monkeypatch.setattr(worker, "MIN_JOBS", 1)
        monkeypatch.setattr(worker, "MIN_ROUNDS", rounds)
        wl = Workload("search", 7, Library(), str(tmp_path), search_pool=pool)
        return worker.run_rounds(wl, 0.0)

    return go


def test_wrong_expected_value_raises_fail_ratio(search_run):
    jobs, *_ = search_run((SMALL,))
    assert fail_ratio(jobs) == 0
    wrong = SearchJob(SMALL.name, SMALL.m, SMALL.k, SMALL.s, SMALL.stop_at, expected=3)
    jobs, *_ = search_run((wrong,))
    assert fail_ratio(jobs) == 1
    assert "known 3" in jobs[0]["reason"]


def test_unproven_result_passes_only_at_or_above_known_value(search_run):
    capped = SearchJob("capped-3^3", 3, 3, 1, 0, expected=2, max_subsets=50, may_be_unproven=True)
    jobs, *_ = search_run((capped,), rounds=1)
    assert not jobs[0]["exact"] and jobs[0]["ok"], jobs[0]["reason"]
    too_high = SearchJob("capped-3^3", 3, 3, 1, 0, expected=9, max_subsets=50, may_be_unproven=True)
    jobs, *_ = search_run((too_high,), rounds=1)
    assert not jobs[0]["ok"]
    uncapped = SearchJob("full-3^3", 3, 3, 1, 0, expected=2, max_subsets=50)
    jobs, *_ = search_run((uncapped,), rounds=1)
    assert not jobs[0]["ok"]


def test_wrong_pinned_verify_value_fails_the_job(tmp_path, monkeypatch):
    wl = Workload("verify", 3, Library(), str(tmp_path))
    (name, thunk), = wl.next_round()
    assert thunk().ok
    monkeypatch.setitem(workloads.EVEN_FLOOR_VALUES, (2, 4), 3)
    (name, thunk), = wl.next_round()
    out = thunk()
    assert not out.ok and "even floor row 2 4" in out.reason


def test_wrong_closed_form_fails_a_scale_job(monkeypatch):
    job = next(j for j in workloads.SCALE_POOL if j.name == "min-eig-even-4^5")
    assert workloads.run_scale_job(Library(), job).ok
    monkeypatch.setattr(workloads, "beta_closed", lambda n: 0.5)
    assert not workloads.run_scale_job(Library(), job).ok


def test_witness_degree_is_checked_independently():
    ranks = [0, 1, 2]  # a path on three vertices of [3]^1
    assert workloads.induced_max_degree_ranks(3, 1, ranks) == 2
    assert workloads.induced_max_degree_ranks(3, 2, [0, 4, 8]) == 0  # the diagonal of [3]^2
    assert workloads.induced_max_degree_ranks(3, 2, [0, 1, 3, 4]) == 2


def test_full_enumeration_node_counts_repeat(search_run):
    jobs, rounds, _wall, nodes_seen = search_run((SMALL_FULL, SMALL), rounds=3)
    assert rounds == 3
    assert nodes_seen == {"full-3^3": {37031}}


def test_same_seed_gives_same_inputs(tmp_path):
    a = Workload("search", 11, Library(), str(tmp_path))
    b = Workload("search", 11, Library(), str(tmp_path))
    c = Workload("search", 12, Library(), str(tmp_path))
    names = lambda wl: [n for _ in range(3) for n, _t in wl.next_round()]  # noqa: E731
    assert names(a) == names(b) != names(c)
    v1, v2 = Workload("verify", 5, Library(), str(tmp_path)), Workload("verify", 5, Library(), str(tmp_path))
    assert v1.next_round()[0][0] == v2.next_round()[0][0]


def test_tail_keeps_ten_jobs_beyond():
    times = [float(i) for i in range(20)]
    assert run.tail(times) == (9.0, 50.0)
    assert run.tail(times[:11]) == (0.0, 100.0 / 11)
    assert run.tail(times[:5]) == (4.0, 100.0)


def test_tracer_wraps_every_namespace_and_restores_it():
    original = pathpower.search.brute_force_f
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = pathpower.search.brute_force_f
        assert wrapped is not original
        assert pathpower.brute_force_f is wrapped
        assert pathpower.report.brute_force_f is wrapped
        assert pathpower.cli.brute_force_f is wrapped
        assert hasattr(pathpower.PathPower.adjacency_masks, "__wrapped__")
        tracer.job = 0
        workloads.run_search_job(Library(), SMALL_FULL)
        tracer.job = 1
        pathpower.brute_force_f(pathpower.PathPower(2, 3), 1, pathpower.SearchBudget(workers=2))
    finally:
        tracer.uninstall()
    assert pathpower.search.brute_force_f is original
    assert pathpower.report.brute_force_f is original
    assert not hasattr(pathpower.PathPower.adjacency_masks, "__wrapped__")

    summary = tracer.summary()["spans"]
    assert summary["search.brute_force_f"]["calls"] == 1
    assert summary["search.brute_force_f.parallel"]["calls"] == 1
    assert summary["search.scan_kernel"]["nodes"] == 37031
    metrics = spans.layer_metrics(summary, jobs=2)
    assert metrics["search.scan_nodes"] == 37031 / 2
    assert metrics["search.parallel_nodes"] > 0
    assert metrics["search.ns_per_node"] > 0


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans = [
        ("a", 0.0, 10.0, -1, 0, None),
        ("b", 1.0, 4.0, 0, 0, None),
        ("c", 2.0, 3.0, 1, 0, {"dim_cubed": 8}),
        ("c", 5.0, 6.0, 0, 1, {"dim_cubed": 27}),
    ]
    summary = tracer.summary()
    assert summary["spans"]["a"]["self_s"] == 6.0
    assert summary["spans"]["b"]["self_s"] == 2.0
    assert summary["spans"]["c"] == {"calls": 2, "seconds": 2.0, "self_s": 2.0, "dim_cubed": 35}
    assert summary["dim_cubed_by_job"] == {0: 8, 1: 27}


def test_per_layer_metrics_cover_benchmark_json():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    res = {
        "jobs": [{"traced": True, "report_seconds": None}, {"traced": False, "report_seconds": {"odd3-spectra": 0.5}}],
        "spans": {},
        "wall": {"traced": 2.0, "untraced": 1.0},
    }
    metrics = run.per_layer(res)
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    assert metrics["trace.overhead_ratio"] == 2.0
    assert metrics["report.check.odd3-spectra_s"] == 0.5


def test_round_best_sums_each_jobs_fastest_time():
    jobs = [
        {"name": "a", "seconds": 2.0, "exact": True},
        {"name": "b", "seconds": 1.0, "exact": False},
        {"name": "a", "seconds": 1.5, "exact": True},
        {"name": "b", "seconds": 3.0, "exact": False},
    ]
    res = {"jobs": jobs, "wall": {"untraced": 7.5}, "peak_rss_kb": 2048}
    metrics, wall = run.end_to_end([0.3, 0.1, 0.2], res)
    assert metrics == {"setup_s": 0.2, "round_best_s": 2.5, "peak_rss_mb": 2.0, "exact_ratio": 0.5}
    assert wall["job_p50_s"] == 1.75 and wall["jobs_per_s"] == 4 / 7.5
    assert run.best_by_job([{"name": "verify-all:1", "seconds": 0.4}, {"name": "verify-all:2", "seconds": 0.3}]) == {"verify-all": 0.3}
