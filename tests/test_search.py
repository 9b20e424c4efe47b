"""The exact oracles: independence number and the induced-degree minimum."""

import math
import random
import time

import mpmath
import pytest

from pathpower import (
    PathPower,
    SearchBudget,
    UnprovenAlphaError,
    VertexSet,
    alpha_formula,
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
from pathpower import _kernels
from pathpower.search import _scan_task


@pytest.mark.parametrize("m,k,expected", [(3, 2, 5), (2, 3, 4), (5, 2, 13)])
def test_max_independent_set_values(m, k, expected):
    res = max_independent_set(PathPower(m, k))
    assert res.proven
    assert res.size == expected
    assert len(res.witness) == expected
    assert is_independent(res.witness)


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
    res = brute_force_f(PathPower(4, 1))
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


def test_budget_truncation_flags_upper_bound():
    res = brute_force_f(PathPower(3, 2), budget=SearchBudget(max_subsets=40), stop_at=0)
    assert res.kind == "upper-unproven"
    assert res.value is None or res.value >= 2


def test_parallel_deadline_bounds_wall_time():
    t0 = time.perf_counter()
    res = brute_force_f(PathPower(3, 4), budget=SearchBudget(workers=2, max_seconds=0.5))
    assert time.perf_counter() - t0 < 3.0
    assert res.kind == "upper-unproven"
    adj = PathPower(2, 2).adjacency_masks()
    assert _scan_task(adj, 3, 1, None, time.time() - 1.0, 0) == (None, 0, 0, True, False)


def test_early_exit_stops_running_leads(monkeypatch):
    # On the pure kernel lead 1 reaches the floor 3 in 23,544 nodes, while
    # lead 0 alone runs 2.5M nodes (seconds); the early exit must stop it.
    monkeypatch.setenv("PATHPOWER_PURE", "1")  # read by the worker processes at import
    monkeypatch.setattr(_kernels, "_lib", None)
    t0 = time.perf_counter()
    res = brute_force_f(PathPower(2, 6), budget=SearchBudget(workers=2))
    assert time.perf_counter() - t0 < 1.5
    assert res.kind == "exact" and res.value == 3


def test_unproven_alpha_raises():
    with pytest.raises(UnprovenAlphaError):
        brute_force_f(PathPower(3, 2), budget=SearchBudget(max_seconds=1e-9))


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
        assert degree_bound_check(a, s, 1e-8)


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
    for n in range(1, 13):
        beta_n = 4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2
        for k in range(1, 101):
            root = mpmath.sqrt(k * beta_n)
            nearest = mpmath.nint(root)
            exact_square = abs(root - nearest) < mpmath.mpf(10) ** -40  # only n = 1, k a square
            want = int(nearest) if exact_square else int(mpmath.ceil(root))
            assert lower_bound_even(n, k) == want, (n, k)


@pytest.mark.parametrize(
    "m,k,kind,value",
    [(5, 3, "exact", 1), (3, 4, "exact", 2), (2, 9, "lower", 3), (7, 2, "exact", 1)],
)
def test_theoretical_f_value(m, k, kind, value):
    fv = theoretical_f_value(m, k)
    assert (fv.kind, fv.value) == (kind, value)


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
