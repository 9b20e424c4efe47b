"""The benchmark's tracer wraps library functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` fails at install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans_module()


@pytest.mark.parametrize("module_name,path", [(t[0], t[1]) for t in spans.TARGETS])
def test_tracer_target_resolves(module_name, path):
    importlib.import_module(module_name)
    owner, leaf = spans._resolve(module_name, path)
    assert callable(getattr(owner, leaf))


def test_only_a_single_worker_search_traces_the_kernel():
    # The tracer keeps one span stack per process, so worker threads must
    # not enter a traced function; a one-worker scan runs on the caller.
    import pathpower
    from pathpower import PathPower, SearchBudget

    for module_name in {t[0] for t in spans.TARGETS}:
        importlib.import_module(module_name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job, workers in enumerate((1, 2)):
            tracer.job = job
            pathpower.brute_force_f(PathPower(3, 3), budget=SearchBudget(workers=workers), stop_at=0)
    finally:
        tracer.uninstall()
    assert [span[4] for span in tracer.spans if span[0] == "search.scan_kernel"] == [0]
    assert [span[4] for span in tracer.spans if span[0] == "search.brute_force_f"] == [0, 1]
