"""The exact oracles: independence number and the induced-degree minimum."""

import contextlib
import math
import random
import time

import mpmath
import numpy as np
import pytest

from pathpower import (
    CertificateError,
    PathPower,
    SearchBudget,
    VertexSet,
    alpha_formula,
    alternating_independent_set,
    brute_force_f,
    degree_bound_check,
    induced_max_degree,
    is_independent,
    low_degree_witness_set,
    lower_bound_even,
    max_independent_set,
    signed_grid_matrix,
    theoretical_f_value,
)
from pathpower import _kernels, constructions, hk_witness_set, search, spectral
from pathpower.grid import digits, is_grid_edge
from pathpower.search import _snake_order, alpha_certificate_holds, degree_floor

compiled = pytest.mark.skipif(not _kernels.HAVE_SPEEDUPS, reason=_kernels.BACKEND_REASON)


@pytest.mark.parametrize("m,k,expected", [(3, 2, 5), (2, 3, 4), (5, 2, 13)])
def test_max_independent_set_values(m, k, expected):
    res = max_independent_set(PathPower(m, k))
    assert res.proven
    assert res.size == expected
    assert len(res.witness) == expected
    assert is_independent(res.witness)


def _certificate(m, k):
    return PathPower(m, k), alternating_independent_set(m, k), _snake_order(m, k)


@pytest.mark.parametrize("m,k", [(2, 1), (2, 3), (3, 2), (4, 2), (3, 3), (5, 1)])
def test_grid_edge_from_digits_matches_neighbor_ranks(m, k):
    g = PathPower(m, k)
    u, v = np.divmod(np.arange(g.n_vertices**2, dtype=np.int64), g.n_vertices)
    want = np.array([int(b) in g.neighbor_ranks(int(a)) for a, b in zip(u, v)])
    assert np.array_equal(is_grid_edge(g, u, v), want)
    # -1, the empty slot of the cell tiling oracle (_cell_tiling_holds), is no one's neighbour
    assert not is_grid_edge(g, np.full(g.n_vertices + 1, -1), np.arange(-1, g.n_vertices)).any()


@pytest.mark.parametrize("m,k", [(2, 1), (2, 4), (3, 2), (4, 3), (5, 2)])
def test_snake_is_a_hamiltonian_path(m, k):
    g, _, path = _certificate(m, k)
    assert path.dtype == np.int64 and sorted(path.tolist()) == list(range(g.n_vertices))
    assert all(int(b) in g.neighbor_ranks(int(a)) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (4, 3), (5, 2), (2, 5)])
def test_alpha_certificate_rejects_tampered_inputs(m, k):
    # Each tamper but the last two breaks exactly one of the four checks.
    g, independent, path = _certificate(m, k)
    assert alpha_certificate_holds(g, independent, path)

    crossed = path.copy()
    crossed[[1, 2]] = crossed[[2, 1]]  # pairs (p0, p2) and (p1, p3): two steps apart, never adjacent
    assert not alpha_certificate_holds(g, independent, crossed)

    repeated = path.copy()
    repeated[3] = repeated[1]  # pair (p2, p1) is still an edge
    assert not alpha_certificate_holds(g, independent, repeated)

    swapped = independent.copy()
    swapped.discard(independent.ranks()[-1])
    swapped.add(1)  # rank 0 is a member and rank 1 its neighbour
    assert len(swapped) == len(independent)
    assert not alpha_certificate_holds(g, swapped, path)

    shrunk = independent.copy()
    shrunk.discard(0)
    assert is_independent(shrunk)
    assert not alpha_certificate_holds(g, shrunk, path)

    grown = independent.copy()
    grown.add(1)
    assert not alpha_certificate_holds(g, grown, path)

    doubled = path.copy()
    doubled[1] = doubled[0]
    assert not alpha_certificate_holds(g, independent, doubled)


@pytest.mark.parametrize("m,k", [(4, 8), (2, 16), (3, 10)])
def test_alpha_at_the_cap_builds_no_masks(monkeypatch, m, k):
    def refuse(self):
        raise AssertionError("adjacency masks built")

    monkeypatch.setattr(PathPower, "adjacency_masks", refuse)
    t0 = time.perf_counter()
    res = max_independent_set(PathPower(m, k))
    assert time.perf_counter() - t0 < 1.0
    assert res.proven and res.size == alpha_formula(m, k) == len(res.witness)
    assert res.nodes_examined == 0


def test_oracle_agrees_with_formula_small_grid():
    pairs = [(m, k) for m in range(2, 28) for k in range(1, 6) if m**k <= 27]
    pairs += [(2, 4), (2, 5), (4, 2), (5, 2)]
    for m, k in pairs:
        res = max_independent_set(PathPower(m, k))
        assert res.proven and res.size == alpha_formula(m, k), (m, k)


@pytest.mark.parametrize("m,k,expected", [(3, 1, 2), (3, 2, 2), (4, 1, 1)])
def test_brute_force_f_values(m, k, expected):
    res = brute_force_f(PathPower(m, k))
    assert res.kind == "exact"
    assert res.value == expected


def test_brute_force_witness_is_lexicographic_smallest():
    res = brute_force_f(PathPower(4, 1), stop_at=1)
    assert res.witness.ranks() == [0, 1, 3]


def test_whole_graph_subset():
    # alpha + 2 on the 4-path is the entire path
    res = brute_force_f(PathPower(4, 1), s=2)
    assert res.kind == "exact" and res.value == 2
    assert res.witness.ranks() == [0, 1, 2, 3]


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 1), (2, 3), (5, 2)])
def test_witness_rescores_to_value(m, k):
    res = brute_force_f(PathPower(m, k))
    assert res.kind == "exact"
    assert induced_max_degree(res.witness) == res.value
    assert len(res.witness) == alpha_formula(m, k) + 1
    assert res.value >= 1  # one more vertex than any independent set forces an edge


def test_stop_at_zero_forces_full_enumeration():
    lazy = brute_force_f(PathPower(5, 2))
    full = brute_force_f(PathPower(5, 2), stop_at=0)
    assert lazy.value == full.value == 1
    assert lazy.kind == full.kind == "exact"
    assert lazy.subsets_examined <= full.subsets_examined


def test_parallel_value_matches_single_worker():
    g = PathPower(3, 2)
    single = brute_force_f(g, budget=SearchBudget(workers=1), stop_at=0)
    multi = brute_force_f(g, budget=SearchBudget(workers=2), stop_at=0)
    assert single.value == multi.value == 2
    assert single.kind == multi.kind == "exact"


def _on_backend(monkeypatch, backend):
    if backend == "pure":
        monkeypatch.setattr(_kernels, "_lib", None)
    elif not _kernels.HAVE_SPEEDUPS:
        pytest.skip(_kernels.BACKEND_REASON)


# the scans of the benchmark's search jobs of the same names: (m, k, s,
# stop_at), with the floor passed where the job leaves stop_at to the
# default, which settles s = 1 by certificate with no scan
_JOBS = {
    "full-6^2": (6, 2, 1, 0),
    "full-3^3": (3, 3, 1, 0),
    "floor-2^6": (2, 6, 1, 3),
    "floor-4^3": (4, 3, 1, 2),
    "floor-5^2-s2": (5, 2, 2, None),
    "floor-3^3-s2": (3, 3, 2, None),
}
_SLOW_ON_PURE = ("full-6^2", "floor-2^6")  # seconds on the pure kernel


@pytest.mark.parametrize(
    "backend,job", [(b, j) for b in ("compiled", "pure") for j in _JOBS if b == "compiled" or j not in _SLOW_ON_PURE]
)
def test_two_workers_match_one(monkeypatch, backend, job):
    _on_backend(monkeypatch, backend)
    m, k, s, stop_at = _JOBS[job]
    g = PathPower(m, k)
    single = brute_force_f(g, s, SearchBudget(workers=1), stop_at=stop_at)
    multi = brute_force_f(g, s, SearchBudget(workers=2), stop_at=stop_at)
    assert (multi.value, multi.kind) == (single.value, single.kind)
    assert single.kind == "exact" and induced_max_degree(multi.witness) == multi.value


@compiled
def test_two_workers_prove_7x7():
    # every lead once, pruned against one shared incumbent, within one budget
    res = brute_force_f(PathPower(7, 2), budget=SearchBudget(workers=2), stop_at=0)
    assert res.kind == "exact" and res.value == 1


@compiled
def test_two_workers_share_the_node_cap():
    budget = SearchBudget(max_subsets=1_000_000, workers=2)
    res = brute_force_f(PathPower(2, 7), budget=budget, stop_at=0)  # floor 3, not reached
    assert res.kind == "upper-unproven" and 0 < res.subsets_examined <= 1_000_000
    assert res.stop_reason == "node-cap" and res.value > 3
    res = brute_force_f(PathPower(3, 4), budget=budget, stop_at=0)  # reaches the floor 2 within the cap
    assert res.kind == "exact" and res.value == 2 and 0 < res.subsets_examined <= 1_000_000


@pytest.mark.parametrize("max_subsets,workers", [(3, 4), (7, 2), (100, 3)])
def test_worker_shares_sum_to_the_node_cap(max_subsets, workers):
    # no more threads than nodes, and the remainder of the split is handed out
    budget = SearchBudget(max_subsets=max_subsets, workers=workers)
    res = brute_force_f(PathPower(3, 3), budget=budget, stop_at=0)
    assert res.subsets_examined == max_subsets and res.stop_reason == "node-cap"


@pytest.mark.parametrize("workers", [1, 2])
def test_inflated_stop_at_is_not_exact(workers):
    # full enumeration gives 2; a caller's floor of 4 is no proof, and the
    # scan stops above the certified floor 2
    g = PathPower(6, 2)
    res = brute_force_f(g, budget=SearchBudget(workers=workers), stop_at=4)
    assert res.kind == "upper-unproven" and 2 < res.value <= 4
    assert res.proof is None and res.stop_reason == "floor-reached"
    assert induced_max_degree(res.witness) == res.value


def test_budget_truncation_flags_upper_bound():
    # best 6 after 200 nodes, above the floor 3
    res = brute_force_f(PathPower(2, 7), budget=SearchBudget(max_subsets=200), stop_at=0)
    assert res.kind == "upper-unproven" and res.proof is None
    assert res.value is None or res.value > 3


def test_parallel_deadline_bounds_wall_time():
    t0 = time.perf_counter()
    res = brute_force_f(PathPower(2, 7), budget=SearchBudget(workers=2, max_seconds=0.5), stop_at=3)
    assert time.perf_counter() - t0 < 3.0
    assert res.kind == "upper-unproven" and res.stop_reason == "deadline"
    # a deadline already past when the threads start: no node is examined
    res = brute_force_f(PathPower(2, 2), budget=SearchBudget(workers=2, max_seconds=1e-9))
    assert (res.value, res.kind, res.subsets_examined) == (None, "upper-unproven", 0)


def test_early_exit_stops_running_leads(monkeypatch):
    # Lead 1 reaches the floor 3 in 23,544 nodes, while lead 0 alone runs
    # 2.5M nodes (seconds on the pure kernel); the early exit must stop it.
    for backend in ["pure", "compiled"] if _kernels.HAVE_SPEEDUPS else ["pure"]:
        with monkeypatch.context() as patch:
            _on_backend(patch, backend)
            assert _kernels.backend_for(64) == backend
            t0 = time.perf_counter()
            res = brute_force_f(PathPower(2, 6), budget=SearchBudget(workers=2), stop_at=3)
            assert time.perf_counter() - t0 < 1.5
            assert res.kind == "exact" and res.value == 3


def test_tiny_deadline_returns_upper_unproven():
    res = brute_force_f(PathPower(3, 2), budget=SearchBudget(max_seconds=1e-9))
    assert res.kind == "upper-unproven" and res.value is None


def test_budget_refuses_a_deadline_that_is_not_positive():
    for bad in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="max_seconds"):
            SearchBudget(max_seconds=bad)
    assert SearchBudget(max_seconds=float("inf")).max_seconds == float("inf")


@pytest.mark.parametrize(
    "kwargs",
    [{"max_subsets": float("nan")}, {"max_subsets": 10.5}, {"workers": 1.5}, {"workers": float("nan")}],
    ids=["max_subsets-nan", "max_subsets-fraction", "workers-fraction", "workers-nan"],
)
def test_budget_refuses_a_count_that_is_not_an_integer(kwargs):
    # refused when the budget is built, not inside the scan as a ctypes ArgumentError or a TypeError
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        SearchBudget(**kwargs)


def test_budget_accepts_numpy_integers():
    budget = SearchBudget(max_subsets=np.int64(1000), workers=np.int64(2))
    assert brute_force_f(PathPower(3, 2), budget=budget, stop_at=0).value == 2


@pytest.mark.parametrize("backend", ["compiled", "pure"])
@pytest.mark.parametrize(
    "name,value",
    [("stop_at", 1.5), ("stop_at", 2.0), ("stop_at", float("nan")), ("s", 1.5), ("s", 2.0)],
    ids=["stop_at-fraction", "stop_at-float", "stop_at-nan", "s-fraction", "s-float"],
)
def test_brute_force_refuses_a_non_integral_s_or_stop_at(monkeypatch, backend, name, value):
    # refused before anything is built, not as a ctypes ArgumentError on the
    # compiled kernel or a scan on the pure one, where NaN never stops early
    _on_backend(monkeypatch, backend)
    g = PathPower(3, 2)
    with monkeypatch.context() as patch:
        for owner, built in ((search, "degree_floor"), (PathPower, "adjacency_masks")):
            patch.setattr(owner, built, lambda *args: pytest.fail("built before the refusal"))
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            brute_force_f(g, **{name: value})
    assert brute_force_f(g, np.int64(1), stop_at=np.int64(0)).value == 2


def test_oversized_subset_rejected():
    with pytest.raises(ValueError):
        brute_force_f(PathPower(2, 1), s=2)  # alpha + 2 = 3 > 2 vertices
    with pytest.raises(ValueError):
        brute_force_f(PathPower(3, 1), s=0)


def test_degree_bound_on_witness_set():
    a = signed_grid_matrix(3, 2)
    x = low_degree_witness_set(3, 2)
    assert degree_bound_check(a, x)


def test_degree_bound_independent_set_boundary():
    a = signed_grid_matrix(3, 2)
    s = VertexSet(3, 2, ranks=[0, 2, 4])
    assert is_independent(s)
    assert degree_bound_check(a, s)  # zero submatrix, top eigenvalue 0


def test_degree_bound_randomized():
    rng = random.Random(987)
    a = signed_grid_matrix(4, 2)
    target = alpha_formula(4, 2) + 1
    for _ in range(50):
        s = VertexSet(4, 2, ranks=rng.sample(range(16), target))
        assert degree_bound_check(a, s)


def test_lower_bound_even_hypercube_column():
    for k in range(1, 26):
        assert lower_bound_even(1, k) == math.isqrt(k - 1) + 1


def test_lower_bound_even_values():
    assert lower_bound_even(2, 1) == 1
    assert lower_bound_even(2, 7) == 2
    with pytest.raises(ValueError):
        lower_bound_even(0, 1)


@mpmath.workdps(50)
def test_lower_bound_even_matches_mpmath():
    for n in range(1, 65):
        beta_n = 4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2
        for k in range(1, 201):
            root = mpmath.sqrt(k * beta_n)
            nearest = mpmath.nint(root)
            exact_square = abs(root - nearest) < mpmath.mpf(10) ** -40  # only n = 1, k a square
            want = int(nearest) if exact_square else int(mpmath.ceil(root))
            assert lower_bound_even(n, k) == want, (n, k)


def test_a_bracket_that_straddles_a_square_is_refined(monkeypatch):
    # the first bracket of beta_n widened until k lo < t^2 2^p < k hi for the
    # floor t: the walk must not return there, and still returns the mpmath value
    n, k = 5, 40
    with mpmath.workdps(50):
        want = int(mpmath.ceil(mpmath.sqrt(k * 4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2)))
    bracket, calls = spectral._beta_bracket, []

    def widened(n, p):
        lo, hi = bracket(n, p)
        if not calls:
            w = 1
            while k * (hi + w) <= want * want << p:
                w *= 2
            lo, hi = lo - w, hi + w
            assert k * lo < want * want << p < k * hi
        calls.append(p)
        return lo, hi

    monkeypatch.setattr(spectral, "_beta_bracket", widened)
    assert lower_bound_even(n, k) == want == 2
    assert calls == [128, 256]


@pytest.mark.parametrize("n", [64, 256, 1000])
def test_lower_bound_even_large_n_matches_mpmath(n):
    with mpmath.workdps(50):
        beta_n = 4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2  # irrational for n >= 2
        # k on both sides of each step t^2 / beta_n, where the floor moves from t to t + 1
        steps = [int(mpmath.floor(t * t / beta_n)) for t in (1, 2, 5)]
        for k in [1, 2, 3, 100] + steps + [s + 1 for s in steps]:
            assert lower_bound_even(n, k) == int(mpmath.ceil(mpmath.sqrt(k * beta_n))), (n, k)


@pytest.mark.parametrize(
    "m,k,kind,value",
    [
        (5, 3, "exact", 1),
        (3, 4, "exact", 2),
        (2, 9, "exact", 3),
        (7, 2, "exact", 1),
        (2, 17, "exact", 5),
        (3, 11, "exact", 2),
        (5, 7, "exact", 1),
        (4, 9, "exact", 3),
        (6, 7, "exact", 3),
    ],
)
def test_theoretical_f_value(m, k, kind, value):
    fv = theoretical_f_value(m, k)
    assert (fv.kind, fv.value) == (kind, value)


def test_odd3_floor_beyond_the_cap_needs_its_base_certificate(monkeypatch):
    fv = theoretical_f_value(3, 11)
    assert (fv.kind, fv.source, fv.witness, fv.paper_lower) == ("exact", "odd3-spectral", "xk", None)
    monkeypatch.setattr(search, "_base_certified", lambda m: False)
    fv = theoretical_f_value(3, 11)
    assert (fv.kind, fv.value, fv.source, fv.witness) == ("lower", 1, "independence", None)


@pytest.mark.parametrize(
    "m,value,source,witness", [(2, 1000, "hypercube-cells", "hk"), (3, 2, "odd3-spectral", "xk")], ids=["2", "3"]
)
def test_the_lifted_row_at_a_million_coordinates(m, value, source, witness):
    started = time.perf_counter()
    fv = theoretical_f_value(m, 10**6)
    assert time.perf_counter() - started < 1.0
    assert (fv.kind, fv.value, fv.source, fv.witness) == ("exact", value, source, witness)


def test_even_searches_respect_floor():
    for m, k in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]:
        res = brute_force_f(PathPower(m, k))
        floor = lower_bound_even(m // 2, k)
        assert res.kind == "exact" and res.value is not None
        assert res.value >= floor, (m, k)


def test_odd_searches_hit_exact_value():
    for m, k in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        res = brute_force_f(PathPower(m, k))
        want = theoretical_f_value(m, k)
        assert res.kind == "exact" and res.value == want.value, (m, k)


# ------------------------- certified floors and witnesses -------------------------


def test_floor_and_witness_settle_f_without_a_scan(monkeypatch):
    def refuse(self):
        raise AssertionError("adjacency masks built")

    monkeypatch.setattr(PathPower, "adjacency_masks", refuse)
    res = brute_force_f(PathPower(2, 6))
    assert (res.value, res.kind, res.subsets_examined) == (3, "exact", 0)
    assert res.proof == "floor:hypercube-cells+witness:hk" and res.stop_reason == "certificate"
    assert len(res.witness) == alpha_formula(2, 6) + 1 and induced_max_degree(res.witness) == 3
    res = brute_force_f(PathPower(3, 4))
    assert (res.value, res.proof) == (2, "floor:odd3-spectral+witness:xk")
    res = brute_force_f(PathPower(5, 2))
    assert (res.value, res.proof) == (1, "floor:independence+witness:xk")


_ENUMERATED = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1), (2, 1), (2, 2), (2, 3), (2, 4)]
_ENUMERATED_SLOW_ON_PURE = [(6, 2), (7, 2), (2, 5)]


@pytest.mark.parametrize(
    "m,k", _ENUMERATED + [pytest.param(m, k, marks=compiled) for m, k in _ENUMERATED_SLOW_ON_PURE]
)
def test_certified_value_equals_full_enumeration(m, k):
    settled = brute_force_f(PathPower(m, k))
    full = brute_force_f(PathPower(m, k), stop_at=0)
    assert settled.stop_reason == "certificate" and settled.subsets_examined == 0
    assert full.proof == "enumeration" and full.stop_reason == "exhausted"
    assert settled.value == full.value
    assert theoretical_f_value(m, k).value == full.value


@pytest.mark.parametrize(
    "call,reason",
    [
        (lambda: brute_force_f(PathPower(4, 2)), "certificate"),
        (lambda: brute_force_f(PathPower(3, 3), stop_at=0), "exhausted"),
        (lambda: brute_force_f(PathPower(3, 3), s=2), "floor-reached"),
        (lambda: brute_force_f(PathPower(2, 7), budget=SearchBudget(max_subsets=200), stop_at=0), "node-cap"),
        (lambda: brute_force_f(PathPower(3, 3), budget=SearchBudget(max_seconds=1e-9), stop_at=0), "deadline"),
    ],
    ids=["certificate", "exhausted", "floor-reached", "node-cap", "deadline"],
)
def test_stop_reasons(call, reason):
    assert call().stop_reason == reason


def test_truncated_scan_at_the_floor_is_exact():
    # best 2 after 40 nodes meets the odd3 floor 2; the same cap on [2]^7
    # leaves no full subset, and nothing is proved
    res = brute_force_f(PathPower(3, 2), budget=SearchBudget(max_subsets=40), stop_at=0)
    assert (res.value, res.kind, res.proof, res.stop_reason) == (2, "exact", "floor:odd3-spectral+scan", "node-cap")
    res = brute_force_f(PathPower(2, 7), budget=SearchBudget(max_subsets=40), stop_at=0)
    assert (res.value, res.kind, res.proof) == (None, "upper-unproven", None)


@pytest.mark.parametrize(
    "kwargs", [{"stop_at": 2}, {"budget": SearchBudget(workers=2)}], ids=["scan", "two-workers"]
)
def test_scan_requests_skip_the_certificate(kwargs):
    res = brute_force_f(PathPower(2, 3), **kwargs)
    assert res.subsets_examined > 0 and res.stop_reason == "floor-reached"
    assert (res.value, res.kind, res.proof) == (2, "exact", "floor:hypercube-cells+scan")


def test_search_records_name_the_scan_per_worker():
    res = brute_force_f(PathPower(2, 6), budget=SearchBudget(workers=2))
    assert res.stop_reason == "floor-reached" and len(res.worker_nodes) == 2
    assert sum(res.worker_nodes) == res.subsets_examined > 0
    assert (res.backend, res.backend_reason) == (_kernels.backend_for(64), _kernels.BACKEND_REASON)
    res = brute_force_f(PathPower(3, 2))  # settled by certificate: no scan ran
    assert (res.stop_reason, res.worker_nodes, res.backend, res.backend_reason) == ("certificate", (), None, None)


def test_search_records_time_the_scan_only():
    g = PathPower(4, 2)
    started = time.perf_counter()
    res = brute_force_f(g, stop_at=0)
    took = time.perf_counter() - started
    assert res.stop_reason == "exhausted" and res.subsets_examined > 0
    assert isinstance(res.scan_seconds, float) and 0 < res.scan_seconds < took
    assert brute_force_f(g).scan_seconds is None  # settled by certificate


def test_a_given_alpha_certificate_is_reused(monkeypatch):
    # every f path reads alpha from the level-1 certificate on P_4, never from the grid
    g = PathPower(4, 2)
    holds = search.alpha_certificate_holds
    monkeypatch.setattr(search, "max_independent_set", lambda g: pytest.fail("alpha certified on the grid"))
    monkeypatch.setattr(search, "alpha_certificate_holds", lambda g, *args: g.k == 1 and holds(g, *args))
    assert brute_force_f(g, stop_at=2).value == brute_force_f(g).value == 2
    assert degree_floor(g).value == 2
    assert theoretical_f_value(4, 2).value == 2


def test_floor_inputs_are_computed_values():
    assert degree_floor(PathPower(4, 2)).inputs == {"alpha": 8, "cells": 4, "cell_size": 4}
    assert degree_floor(PathPower(3, 2)).inputs == {"alpha": 5, "rows": 6, "nonpositive": 5}
    assert degree_floor(PathPower(5, 2)).inputs == {"alpha": 13}


def test_witness_above_the_floor_falls_back_to_the_scan(monkeypatch):
    g = PathPower(4, 2)
    first = VertexSet(4, 2, ranks=range(alpha_formula(4, 2) + 1))  # degree 4, floor 2
    monkeypatch.setattr(search, "floor_witness", lambda g: ("hk", first))
    res = brute_force_f(g)
    assert res.subsets_examined == brute_force_f(g, stop_at=2).subsets_examined > 0  # the scan to the floor
    assert res.stop_reason == "floor-reached"
    assert (res.value, res.kind, res.proof) == (2, "exact", "floor:hypercube-cells+scan")
    assert theoretical_f_value(4, 2).kind == "exact"  # the lifted row builds no witness


def test_dropped_variable_witness_fails_the_size_check(monkeypatch):
    # without coordinate 0, g no longer has full degree: |H| = N / 2
    sqrt_blocks = constructions.sqrt_blocks

    def dropped(k):
        blocks = sqrt_blocks(k)
        blocks[0].remove(0)
        return blocks

    monkeypatch.setattr(constructions, "sqrt_blocks", dropped)
    with pytest.raises(CertificateError, match="128 members"):
        hk_witness_set(4, 4)
    fv = theoretical_f_value(4, 4)
    assert (fv.kind, fv.value, fv.witness) == ("lower", 2, None)
    res = brute_force_f(PathPower(4, 2))
    assert res.subsets_examined > 0 and res.stop_reason != "certificate"


def _cell_tiling_holds(g, alpha):
    """The hypercube-cell floor checked on the built grid, the oracle of its
    lift: cell = the digits // 2 and label = the digits % 2 of every rank;
    every two cell-mates whose labels differ in one bit are a grid edge (a
    (cell, label) slot that no rank fills holds -1, which is no grid edge),
    and the cells times 2^(k-1) make alpha."""
    axes = np.arange(g.k, dtype=np.int64)
    d = digits(g.m, g.k)
    cells, labels = d // 2 @ (g.m // 2) ** axes, d % 2 @ (1 << axes)
    n, width = g.n_vertices, 1 << g.k
    member = np.full(n, -1, dtype=np.int64)
    member[cells * width + labels] = np.arange(n)
    member = member.reshape(n // width, 1, width)
    flips = np.arange(width) ^ (1 << axes)[:, None]  # [i, label]: label with bit i flipped
    return bool(is_grid_edge(g, member, member[:, 0, flips]).all()) and n // width * (width // 2) == alpha


@pytest.mark.parametrize("m,k", [(2, 1), (2, 5), (2, 9), (4, 1), (4, 3), (6, 2), (8, 2), (10, 1)])
def test_hypercube_cells_certificate(m, k):
    g = PathPower(m, k)
    mis = max_independent_set(g)
    assert _cell_tiling_holds(g, mis.size) and not _cell_tiling_holds(g, mis.size + 1)
    floor = degree_floor(g)
    assert (floor.value, floor.source) == (math.isqrt(k - 1) + 1, "hypercube-cells")
    assert floor.inputs == {"alpha": mis.size, "cells": (m // 2) ** k, "cell_size": 2**k}


def test_hypercube_cells_negative_controls(monkeypatch):
    # a pairing of P_6 that is not a perfect matching of its edges
    pairings = {
        "non-edge": [[0, 2], [1, 3], [4, 5]],
        "repeated vertex": [[0, 1], [1, 2], [4, 5]],
        "shifted": [[1, 2], [3, 4]],
        "shifted with wrap": [[1, 2], [3, 4], [5, 0]],
    }
    assert degree_floor(PathPower(6, 2))[:2] == (2, "hypercube-cells")
    for name, pairs in pairings.items():
        monkeypatch.setattr(search, "_cell_pairs", lambda m, pairs=pairs: np.array(pairs))
        assert degree_floor(PathPower(6, 2))[:2] == (1, "independence"), name
        fv = theoretical_f_value(6, 7)
        assert (fv.kind, fv.value, fv.source) == ("lower", 1, "independence"), name


def test_failed_certificates_leave_a_weaker_floor(monkeypatch):
    monkeypatch.setattr(search, "_cell_pairs", lambda m: np.array([[0, 2], [1, 3]]))
    assert degree_floor(PathPower(4, 2))[:2] == (1, "independence")
    monkeypatch.undo()
    monkeypatch.setattr(search, "_base_certified", lambda m: False)
    assert degree_floor(PathPower(3, 3))[:2] == (1, "independence")
    assert degree_floor(PathPower(2, 4))[:2] == (1, "independence")


_IN_CAP = [(m, k) for m in range(2, 17) for k in range(1, 17) if m**k <= 65536]


@pytest.mark.parametrize("m,k", _IN_CAP)
def test_lifted_row_matches_the_built_witness(m, k):
    g = PathPower(m, k)
    fv, floor, mis = theoretical_f_value(m, k), degree_floor(g), max_independent_set(g)
    family, witness = search.floor_witness(g)
    assert mis.proven and floor.inputs["alpha"] == mis.size  # the lifted alpha is the built one
    assert fv.kind == "exact" and (fv.value, fv.source, fv.witness) == (floor.value, floor.source, family)
    assert len(witness) == mis.size + 1 and induced_max_degree(witness, g) == fv.value
    assert m % 2 or _cell_tiling_holds(g, mis.size)


@pytest.mark.parametrize(
    "tamper",
    [("alternating_independent_set", [0]), ("alternating_independent_set", [0, 1])]
    + [("alternating_independent_set", [0, 3]), ("_snake_order", [0, 2, 1, 3])],
    ids=["set-too-small", "set-not-independent", "set-not-a-colour-class", "snake-crossed"],
)
def test_a_tampered_level_1_alpha_certificate_leaves_the_trivial_floor(monkeypatch, tamper):
    name, ranks = tamper
    build = getattr(search, name)
    level_1 = VertexSet(4, 1, ranks=ranks) if name == "alternating_independent_set" else np.array(ranks)
    monkeypatch.setattr(search, name, lambda m, k, **kw: level_1 if k == 1 else build(m, k, **kw))
    g = PathPower(4, 3)
    assert degree_floor(g)[:2] == (0, "none")
    fv = theoretical_f_value(4, 3)
    assert (fv.kind, fv.value, fv.source) == ("lower", 0, "none")
    res = brute_force_f(PathPower(4, 2))  # no floor to meet: the full enumeration
    assert (res.value, res.kind, res.proof, res.stop_reason) == (2, "exact", "enumeration", "exhausted")


def _replace_xk_seed(monkeypatch, seed):
    build = search.low_degree_witness_set
    monkeypatch.setattr(search, "low_degree_witness_set", lambda m, k, **kw: seed if k == 1 else build(m, k, **kw))


@pytest.mark.parametrize("ranks", [[0, 1, 3], [0, 1, 2, 4]], ids=["missing-endpoint", "degree-2"])
def test_a_tampered_xk_seed_leaves_the_row_lower(monkeypatch, ranks):
    _replace_xk_seed(monkeypatch, VertexSet(5, 1, ranks=ranks))
    for k in (1, 3):
        fv = theoretical_f_value(5, k)
        assert (fv.kind, fv.value, fv.witness) == ("lower", 1, None)


def test_the_xk_lift_reads_the_complement_from_k_2(monkeypatch):
    # degree 1 on P_13, but the complement holds the path 2-3-4: from k = 2 on,
    # its blocks give the extension degree 2
    seed = VertexSet(13, 1, ranks=[0, 1, 5, 6, 8, 9, 11, 12])
    _replace_xk_seed(monkeypatch, seed)
    assert theoretical_f_value(13, 1).witness == "xk"
    fv = theoretical_f_value(13, 2)
    assert (fv.kind, fv.value, fv.witness) == ("lower", 1, None)
    assert induced_max_degree(constructions._alternating_extension(seed)) == 2


@pytest.mark.parametrize(
    "k,blocks",
    [(4, [[0, 1, 2, 3]]), (4, [[0], [1], [2], [3]]), (5, [[0, 1, 2], [3, 4], []])]
    + [(4, [[0, 1], [1, 2, 3]]), (4, [[2], [1, 3]])],
    ids=["one-block", "singletons", "empty-block", "repeated-coordinate", "dropped-coordinate"],
)
def test_hk_blocks_that_miss_the_floor_leave_the_row_lower(monkeypatch, k, blocks):
    monkeypatch.setattr(constructions, "sqrt_blocks", lambda k: blocks)
    fv = theoretical_f_value(4, k)
    assert (fv.kind, fv.value, fv.witness) == ("lower", math.isqrt(k - 1) + 1, None)
    # the built set agrees: it misses alpha + 1 (CertificateError) or the floor
    with contextlib.suppress(CertificateError):
        assert induced_max_degree(hk_witness_set(4, k)) > fv.value


def test_unproven_alpha_leaves_the_trivial_floor(monkeypatch):
    g = PathPower(2, 3)
    build = search.alternating_independent_set

    def replaced(m, k, **kw):
        return VertexSet(2, 1, ranks=[0, 1]) if k == 1 else build(m, k, **kw)  # P_2 whole: not independent

    monkeypatch.setattr(search, "alternating_independent_set", replaced)
    assert degree_floor(g)[:2] == (0, "none")
    res = brute_force_f(g)  # no floor to meet: the full enumeration
    assert (res.value, res.proof, res.stop_reason) == (2, "enumeration", "exhausted")


@pytest.mark.parametrize("k", range(1, 7))
def test_odd3_floor(k):
    floor = degree_floor(PathPower(3, k))
    assert (floor.value, floor.source) == (2, "odd3-spectral")
    assert floor.inputs["rows"] == floor.inputs["nonpositive"] + 1 == alpha_formula(3, k) + 1


@pytest.mark.parametrize("m,k", [(3, 4), (4, 3)])
def test_highs_oracle_confirms_floor_two(m, k):
    # No alpha + 1 vertices induce a maximum degree of 1 or less: f >= 2.
    optimize = pytest.importorskip("scipy.optimize")
    g = PathPower(m, k)
    n = g.n_vertices
    adj = np.zeros((n, n))
    for r in range(n):
        adj[r, g.neighbor_ranks(r)] = 1
    deg = adj.sum(axis=1)
    # x_v = 1 puts v in the set; a member has at most one member neighbour:
    # sum_u A[v, u] x_u + deg(v) x_v <= 1 + deg(v)
    rows = np.vstack([np.ones(n), adj + np.diag(deg)])
    lower = np.concatenate([[alpha_formula(m, k) + 1], np.full(n, -np.inf)])
    upper = np.concatenate([[alpha_formula(m, k) + 1], 1 + deg])
    res = optimize.milp(
        np.zeros(n),
        constraints=optimize.LinearConstraint(rows, lower, upper),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 2  # infeasible
    assert degree_floor(g).value == 2
