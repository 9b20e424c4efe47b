"""Parity between the pure-Python kernels and the compiled scan, and the
loader that builds the compiled scan."""

import ctypes
import os
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import pathpower
from pathpower import PathPower, SearchBudget, alpha_formula, brute_force_f, max_independent_set
from pathpower import _kernels, _kernels_py

compiled = pytest.mark.skipif(not _kernels.HAVE_SPEEDUPS, reason=_kernels.BACKEND_REASON)
has_compiler = pytest.mark.skipif(
    shutil.which(_kernels._compiler()[0]) is None, reason="no C compiler on PATH"
)


def _grid_adj(m, k):
    return PathPower(m, k).adjacency_masks()


def _shared(lead, best):
    """A shared search state: [next lead, best degree completed by any thread]."""
    return (ctypes.c_longlong * 2)(lead, best)


def _both(adj, target, stop, max_nodes=-1, time_limit=0.0, lead=0):
    # each kernel gets its own state, so both scan from the same lead
    def run(kernel):
        return kernel(adj, target, stop, max_nodes, time_limit, _shared(lead, target + 1))

    return run(_kernels_py.scan_min_induced_degree), run(_kernels._scan_compiled)


def _kernels_to_test():
    kernels = [_kernels_py.scan_min_induced_degree]
    return kernels + [_kernels._scan_compiled] if _kernels.HAVE_SPEEDUPS else kernels


@compiled
@pytest.mark.parametrize(
    "m,k,stop,max_nodes",
    [
        # one mask word
        (3, 2, 1, -1),
        (3, 2, 0, -1),
        (4, 2, 0, -1),
        (2, 4, 0, -1),
        (5, 2, 1, -1),
        (3, 1, 0, -1),
        (3, 3, 0, -1),
        # two to four mask words, capped
        (9, 2, 0, 200_000),
        (3, 4, 0, 200_000),
        (2, 7, 0, 200_000),
        (4, 4, 0, 200_000),
    ],
)
def test_scan_parity(m, k, stop, max_nodes):
    pure, fast = _both(_grid_adj(m, k), alpha_formula(m, k) + 1, stop, max_nodes)
    assert pure == fast
    assert pure[0] is not None


@compiled
def test_scan_parity_every_lead():
    # a single-thread scan whose next lead is preset to j visits leads j..n-target
    adj = _grid_adj(3, 2)
    for lead in range(0, 9 - 6 + 2):  # the last lead is out of range
        pure, fast = _both(adj, 6, 0, lead=lead)
        assert pure == fast, lead
    assert fast == (None, 0, 0, False, False)


@compiled
@pytest.mark.parametrize("max_nodes", [0, 1, 3, 40, 76, 77, 78])
def test_scan_parity_node_cap(max_nodes):
    pure, fast = _both(_grid_adj(3, 2), 6, 0, max_nodes)  # the full scan takes 77 nodes
    assert pure == fast
    assert fast[3] == (max_nodes < 77)


@compiled
def test_scan_deadline_stops_at_a_clock_check():
    adj = _grid_adj(3, 4)
    target = alpha_formula(3, 4) + 1
    fast = _kernels._scan_compiled(adj, target, 0, -1, 1e-4, None)
    nodes = fast[2]
    assert fast[3] and nodes % 2048 == 0
    # the scan is deterministic up to the node where the clock stopped it
    assert fast == _kernels_py.scan_min_induced_degree(adj, target, 0, nodes, 0.0, None)


def _random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _random_graphs():
    rng = random.Random(424242)
    for _ in range(60):
        n = rng.randint(3, 10)
        yield _random_graph(rng, n, rng.uniform(0.1, 0.7))


@compiled
def test_scan_parity_on_random_graphs():
    for adj in _random_graphs():
        alpha = _naive_mis(adj)
        if alpha + 1 <= len(adj):
            pure, fast = _both(adj, alpha + 1, -1)
            assert pure == fast, adj


@compiled
@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200, 256])
def test_scan_parity_across_word_boundaries(n):
    adj = _random_graph(random.Random(n), n, 0.05)
    pure, fast = _both(adj, n // 2, 0, 20_000)
    assert pure == fast
    assert pure[0] is not None


@compiled
@pytest.mark.parametrize(
    "m,k,nodes", [(6, 2, 3_843_163), (7, 2, 3_106_005), (3, 3, 37_031)]
)
def test_compiled_full_enumeration_node_counts(m, k, nodes):
    res = brute_force_f(PathPower(m, k), stop_at=0)
    assert res.kind == "exact" and res.subsets_examined == nodes


@compiled
def test_compiled_node_cap_on_81_vertices():
    res = brute_force_f(PathPower(3, 4), budget=SearchBudget(max_subsets=1_000_000), stop_at=0)
    assert res.kind == "upper-unproven" and res.value == 2
    assert res.subsets_examined == 1_000_000


@compiled
def test_compiled_floor_exit_node_count():
    res = brute_force_f(PathPower(2, 6))  # the spectral floor 3 ends the scan
    assert res.kind == "exact" and res.value == 3
    assert res.subsets_examined == 2_548_999


@pytest.mark.parametrize("m,k", [(3, 2), (2, 4), (4, 2), (5, 2), (7, 1)])
def test_mis_parity(m, k):
    res = max_independent_set(PathPower(m, k))
    assert res.proven and res.size == _naive_mis(_grid_adj(m, k)) == len(res.witness)


def test_scan_truncation_and_none_value():
    adj = _grid_adj(3, 2)
    best, mask, nodes, truncated, early = _kernels_py.scan_min_induced_degree(adj, 6, 0, 3, 0.0, None)
    assert truncated and nodes <= 3
    assert best is None and mask == 0


def _threads_on_one_state(kernel, adj, target, stop, threads, max_nodes=-1):
    shared = _shared(0, target + 1)
    with ThreadPoolExecutor(threads) as pool:
        results = list(pool.map(lambda _: kernel(adj, target, stop, max_nodes, 0.0, shared), range(threads)))
    return results, shared


def test_scan_lead_partition_min_reduction():
    adj = _grid_adj(3, 3)
    n, target = 27, alpha_formula(3, 3) + 1
    for kernel in _kernels_to_test():
        done = kernel(adj, target, 0, -1, 0.0, None)
        results, shared = _threads_on_one_state(kernel, adj, target, 0, 2)
        held = [r for r in results if r[0] is not None]
        assert min(held)[0] == done[0] == shared[1] == 2, kernel
        assert not any(r[3] or r[4] for r in results)
        # every lead was taken once, and each thread took one past the last
        assert shared[0] == n - target + 1 + 2


def test_scan_lead_out_of_range():
    adj = _grid_adj(3, 1)
    for kernel in _kernels_to_test():
        assert kernel(adj, 3, 0, -1, 0.0, _shared(1, 4)) == (None, 0, 0, False, False)  # n - target = 0


def test_scan_adopts_a_better_shared_best():
    # another thread already completed a degree-2 subset: with stop_at 2 the
    # scan stops at its first clock check, and with stop_at 0 it prunes
    # against 2 and holds no witness of its own
    adj = _grid_adj(3, 2)
    for kernel in _kernels_to_test():
        assert kernel(adj, 6, 2, -1, 0.0, _shared(0, 2)) == (None, 0, 0, True, False)
        best, mask, nodes, truncated, early = kernel(adj, 6, 0, -1, 0.0, _shared(0, 2))
        assert (best, mask, truncated, early) == (None, 0, False, False)
        assert nodes <= kernel(adj, 6, 0, -1, 0.0, None)[2]


def test_threads_take_every_lead_once():
    # On an edgeless graph with target 1 each lead is one node whatever the
    # incumbent, so a lead taken twice or skipped changes the node total.
    n = 3000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kernel in _kernels_to_test():
            adj = [0] * (n if kernel is _kernels_py.scan_min_induced_degree else 256)
            results, shared = _threads_on_one_state(kernel, adj, 1, -1, 4)
            assert sum(r[2] for r in results) == len(adj), kernel
            assert shared[0] == len(adj) + 4 and shared[1] == 0
    finally:
        sys.setswitchinterval(switch)


def test_scan_witness_is_first_achiever():
    adj = _grid_adj(4, 1)
    best, mask, *_ = _kernels_py.scan_min_induced_degree(adj, 3, 0, -1, 0.0, None)
    assert best == 1
    assert mask == 0b1011  # ranks {0, 1, 3}


def _naive_min_degree(adj, target):
    import itertools

    best = None
    for combo in itertools.combinations(range(len(adj)), target):
        mask = 0
        for v in combo:
            mask |= 1 << v
        delta = max((adj[v] & mask).bit_count() for v in combo)
        if best is None or delta < best:
            best = delta
    return best


def _naive_mis(adj):
    """Size of the largest independent set, by listing every one."""

    def grow(start, blocked, size):
        best = size
        for v in range(start, len(adj)):
            if not (blocked >> v) & 1:
                best = max(best, grow(v + 1, blocked | adj[v], size + 1))
        return best

    return grow(0, 0, 0)


def test_kernels_match_naive_enumeration_on_random_graphs():
    for adj in _random_graphs():
        n = len(adj)
        alpha = _naive_mis(adj)
        if alpha + 1 <= n:
            best, _, _, trunc, _ = _kernels.scan_min_induced_degree(adj, alpha + 1, stop_at=-1)
            assert not trunc and best == _naive_min_degree(adj, alpha + 1), adj


def test_backend_dispatch_width():
    assert _kernels.backend_for(257) == "pure"
    assert _kernels.BACKEND_REASON.startswith("compiled: " if _kernels.HAVE_SPEEDUPS else "pure: ")
    if _kernels.HAVE_SPEEDUPS:
        for n in (16, 64, 81, 256):
            assert _kernels.backend_for(n) == "compiled"


def test_pure_scan_handles_wide_graphs():
    assert _kernels.scan_min_induced_degree([0] * 257, 3) == (0, 0b111, 3, False, True)


@compiled
def test_compiled_rejects_wide_graphs():
    with pytest.raises(ValueError):
        _kernels._scan_compiled([0] * 257, 3, 1, -1, 0.0, None)
    # the library checks the sizes and the next lead again itself
    words = 5
    rows = (ctypes.c_uint64 * (257 * words))()
    out = (ctypes.c_longlong * 4)()
    mask = (ctypes.c_uint64 * words)()
    assert _kernels._lib.pp_scan(rows, 257, words, 3, 1, -1, 0.0, _shared(0, 4), out, mask) == -1
    assert _kernels._lib.pp_scan(rows, 256, 4, 3, 1, -1, 0.0, _shared(-1, 4), out, mask) == -1


# ---------------------------------- loader ----------------------------------


def _failing_compile(exc):
    def compile_(source, target):
        raise exc

    return compile_


@pytest.mark.parametrize(
    "exc,reason",
    [
        (subprocess.CalledProcessError(1, "cc"), "exited 1"),
        (FileNotFoundError(2, "No such file or directory"), "no C compiler"),
        (subprocess.TimeoutExpired("cc", 60), "timed out"),
    ],
)
def test_failed_build_falls_back_to_pure(monkeypatch, tmp_path, exc, reason):
    monkeypatch.setattr(_kernels, "_compile", _failing_compile(exc))
    lib, why = _kernels._load(tmp_path)
    assert lib is None and why.startswith("pure: ") and reason in why
    assert list(tmp_path.iterdir()) == []  # the temporary file is gone
    monkeypatch.setattr(_kernels, "_lib", lib)
    assert _kernels.backend_for(16) == "pure"
    assert _kernels.scan_min_induced_degree(_grid_adj(3, 2), 6)[0] == 2


def test_unwritable_cache_falls_back_to_pure(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    lib, why = _kernels._load(blocker / "cache")  # a directory inside a regular file
    assert lib is None and why.startswith("pure: cannot write")
    monkeypatch.setattr(_kernels, "_lib", lib)
    assert _kernels.backend_for(16) == "pure"


def test_unloadable_library_falls_back_to_pure(tmp_path):
    _kernels._library_path(tmp_path, _kernels._SOURCE.read_bytes()).write_bytes(b"not a library")
    lib, why = _kernels._load(tmp_path)
    assert lib is None and why.startswith("pure: cannot load")


@has_compiler
def test_library_without_the_kernel_falls_back_to_pure(tmp_path):
    other = tmp_path / "other.c"
    other.write_text("int other(void) { return 0; }\n")
    _kernels._compile(other, _kernels._library_path(tmp_path, _kernels._SOURCE.read_bytes()))
    lib, why = _kernels._load(tmp_path)
    assert lib is None and why.startswith("pure: cannot load") and "pp_scan" in why


def test_library_of_another_source_is_never_loaded(monkeypatch, tmp_path):
    source = _kernels._SOURCE.read_bytes()
    other = _kernels._library_path(tmp_path, source + b"\n")
    assert other != _kernels._library_path(tmp_path, source)
    # a working library under the other name would be taken if names were ignored
    if _kernels.HAVE_SPEEDUPS:
        shutil.copy(_kernels._lib._name, other)
    else:
        other.write_bytes(b"stale")
    monkeypatch.setattr(_kernels, "_compile", _failing_compile(subprocess.CalledProcessError(1, "cc")))
    lib, why = _kernels._load(tmp_path)
    assert lib is None and why == f"pure: {_kernels._compiler()[0]} exited 1"


@has_compiler
def test_build_then_cache(tmp_path):
    results = []
    threads = [threading.Thread(target=lambda: results.append(_kernels._load(tmp_path))) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert [why.split()[0] for _, why in results] == ["compiled:", "compiled:"]
    lib, why = _kernels._load(tmp_path)
    assert why.startswith("compiled: cached")
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]  # no temporary file is left
    out = (ctypes.c_longlong * 4)()
    mask = (ctypes.c_uint64 * 1)()
    rows = (ctypes.c_uint64 * 3)(0b010, 0b101, 0b010)  # the path on 3 vertices
    assert lib.pp_scan(rows, 3, 1, 3, 0, -1, 0.0, _shared(0, 4), out, mask) == 0
    assert list(out) == [2, 3, 0, 0] and mask[0] == 0b111


def test_pure_environment_variable_selects_pure():
    src = os.path.dirname(os.path.dirname(pathpower.__file__))
    env = dict(os.environ, PATHPOWER_PURE="1", PYTHONPATH=src)
    code = "from pathpower import _kernels; print(_kernels.BACKEND_REASON, _kernels.backend_for(16))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["pure:", "PATHPOWER_PURE", "set", "pure"]
