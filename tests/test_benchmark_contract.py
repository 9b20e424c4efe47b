"""The benchmark's verify workload checks each verify-all report with
`check_verify_report`; a report at the default size must pass it, or every
`verify` round of `perfbench/run.py` counts as failed."""

import importlib.util
import sys
from pathlib import Path

from pathpower.report import DEFAULT_MAX_SIZE, DEFAULT_SEED, run_verify_all

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _workloads_module()


def test_verify_all_report_passes_the_benchmark_check():
    report = run_verify_all().to_dict()
    assert report["config"]["max_size"] == DEFAULT_MAX_SIZE == workloads.VERIFY_MAX_SIZE
    assert workloads.check_verify_report(0, report, DEFAULT_SEED) == []

    checks = {c["name"]: c["details"] for c in report["checks"]}
    assert tuple(checks) == workloads.VERIFY_CHECKS
    d = checks["odd-exact-values"]
    searches = {key: d[key] for key in ("f_search_3_1", "f_search_3_2", "f_search_5_2")}
    searches["f_search_q4"] = checks["hypercube-floor"]["f_search_q4"]
    assert all(res["kind"] == "exact" for res in searches.values())
    assert [(m, delta) for m, _k, delta, _size in d["witness_rows"]] == [
        (m, 2 if m == 3 else 1) for m, _k, _delta, _size in d["witness_rows"]
    ]
    rows = checks["even-floor-consistency"]["rows"]
    assert [(m, k) for m, k, *_ in rows] == list(workloads.EVEN_FLOOR_VALUES)
