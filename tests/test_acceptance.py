"""Acceptance suite: the headline claims at their stated tolerances.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, or on failure).  Expected whole-suite runtime is well under five
minutes on a laptop-class machine.
"""

import math
import random
import time

import numpy as np

import pathpower as pp

TOL = 1e-8


def _announce(name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {name}: {status}" + (f" {failures}" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_criterion_1_independence_numbers():
    grid = (
        [(2, k) for k in range(1, 6)]
        + [(3, k) for k in range(1, 4)]
        + [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (7, 1)]
    )
    failures = []
    t0 = time.perf_counter()
    for m, k in grid:
        res = pp.max_independent_set(pp.PathPower(m, k))
        want = pp.alpha_formula(m, k)
        if not (res.proven and res.size == want == (m**k + 1) // 2):
            failures.append((m, k, res.size, want))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _announce("1 independence numbers", failures)


def test_criterion_2_odd_exact_values():
    failures = []
    for m, k in [(3, 1), (3, 2)]:
        res = pp.brute_force_f(pp.PathPower(m, k))
        if not (res.kind == "exact" and res.value == 2):
            failures.append((m, k, res.value))
    for k in range(1, 6):
        x = pp.low_degree_witness_set(3, k)
        if pp.induced_max_degree(x) != 2 or len(x) != pp.alpha_formula(3, k) + 1:
            failures.append(("witness", 3, k))
    for m in (5, 7):
        for k in range(1, 4):
            x = pp.low_degree_witness_set(m, k)
            if pp.induced_max_degree(x) != 1 or len(x) != pp.alpha_formula(m, k) + 1:
                failures.append(("witness", m, k))
    t0 = time.perf_counter()
    res = pp.brute_force_f(pp.PathPower(5, 2))
    elapsed = time.perf_counter() - t0
    if not (res.kind == "exact" and res.value == 1):
        failures.append(("f(5,2)", res.value, res.kind))
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _announce("2 odd exact values", failures)


def test_criterion_3_odd3_spectra():
    failures = []
    for k in range(1, 6):
        r = pp.odd3_spectrum_check(k)
        if r.zero_multiplicity != 1:
            failures.append((k, "zero_multiplicity", r.zero_multiplicity))
        if r.min_positive is None or abs(r.min_positive - math.sqrt(2.0)) > TOL:
            failures.append((k, "min_positive", r.min_positive))
        if r.symmetry_defect > TOL:
            failures.append((k, "symmetry", r.symmetry_defect))
    _announce("3 odd3 spectra", failures)


def _independent_bisection_root(coeffs, lo, hi):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    assert (f(lo) > 0) != (f(hi) > 0)
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2
        if (f(mid) > 0) == (f(lo) > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_4_polynomial_roots():
    failures = []
    if pp.beta(1) != 1.0:
        failures.append(("beta1", pp.beta(1)))
    gap2 = abs(pp.beta(2, 1e-12) - (3.0 - math.sqrt(5.0)) / 2.0)
    if gap2 > 1e-10:
        failures.append(("beta2", gap2))
    # scan the cubic on a fine grid for its first positive sign change
    cubic = [-1.0, 6.0, -5.0, 1.0]
    x = 1e-4
    lo = None
    while x <= 4.0:
        if (cubic[0] > 0) != (((x - 5.0) * x + 6.0) * x - 1.0 > 0):
            lo = x - 1e-4
            break
        x += 1e-4
    oracle = _independent_bisection_root(cubic, lo, lo + 1e-4)
    gap3 = abs(pp.beta(3, 1e-12) - oracle)
    if gap3 > 1e-10:
        failures.append(("beta3", gap3))
    bad_fg = [n for n in range(1, 51) if not pp.fg_identity_check(n)]
    if bad_fg:
        failures.append(("fg", bad_fg))
    bad_cp = [n for n in range(1, 9) if not pp.charpoly_base_square_check(n)]
    if bad_cp:
        failures.append(("charpoly", bad_cp))
    _announce("4 polynomial roots", failures)


def test_criterion_5_even_spectra():
    failures = []
    for n in (1, 2, 3):
        bn = pp.beta(n, 1e-12)
        for k in (1, 2, 3):
            a = pp.signed_grid_matrix(2 * n, k)
            rep = pp.spectrum_report(np.linalg.eigvalsh(a.to_dense().astype(float)))
            want = math.sqrt(k * bn)
            if rep.min_positive is None or abs(rep.min_positive - want) > TOL:
                failures.append((n, k, "min_positive", rep.min_positive))
            if rep.zero_multiplicity != 0 or min(abs(v) for v in rep.eigenvalues) <= TOL:
                failures.append((n, k, "near-zero eigenvalue"))
            if rep.symmetry_defect > TOL:
                failures.append((n, k, "symmetry", rep.symmetry_defect))
            ok, dist = pp.square_compose_check(2 * n, k)
            if not ok:
                failures.append((n, k, "compose", dist))
    _announce("5 even spectra", failures)


def test_criterion_6_exact_integer_structure():
    failures = []
    for n in (1, 2, 3):
        for k in (2, 3):
            if not pp.square_identity_check(2 * n, k):
                failures.append(("square", n, k))
    built = [(3, j) for j in range(1, 6)] + [
        (2 * n, j) for n in (1, 2, 3) for j in range(1, 4)
    ]
    for m, k in built:
        a = pp.signed_grid_matrix(m, k)
        g = pp.PathPower(m, k)
        if not pp.check_support(a, g):
            failures.append(("support", m, k))
        if a.nnz != 2 * k * (m - 1) * m ** (k - 1):
            failures.append(("nnz", m, k, a.nnz))
    _announce("6 exact integer structure", failures)


def test_criterion_7_degree_eigenvalue_chain():
    failures = []
    for m, k in [(3, 2), (4, 2), (2, 4)]:
        g = pp.PathPower(m, k)
        a = pp.signed_grid_matrix(m, k)
        host = pp.spectrum_report(np.linalg.eigvalsh(a.to_dense().astype(float)))
        target = pp.alpha_formula(m, k) + 1
        rng = random.Random(0x50335035 + m * 100 + k)
        for trial in range(200):
            s = pp.VertexSet(m, k, ranks=rng.sample(range(g.n_vertices), target))
            if not pp.degree_bound_check(a, s):
                failures.append((m, k, trial, "degree bound"))
            sub = pp.spectrum_report(np.linalg.eigvalsh(pp.principal_submatrix(a, s).astype(float)))
            if not pp.interlacing_check(host, sub):
                failures.append((m, k, trial, "interlacing"))
    _announce("7 degree eigenvalue chain", failures)


def test_criterion_8_hypercube_floor():
    failures = []
    for k in range(1, 26):
        want = math.isqrt(k - 1) + 1  # exact ceil(sqrt(k))
        got = pp.lower_bound_even(1, k)
        if got != want:
            failures.append((k, got, want))
    # full enumeration, independent of the spectral floor machinery
    res = pp.brute_force_f(pp.PathPower(2, 4), stop_at=0)
    if not (res.kind == "exact" and res.value == 2):
        failures.append(("f(Q4)", res.value, res.kind))
    if res.value != pp.lower_bound_even(1, 4):
        failures.append(("tightness", res.value))
    _announce("8 hypercube floor", failures)


def test_criterion_9_even_floor_consistency():
    failures = []
    res4 = pp.brute_force_f(pp.PathPower(4, 1))
    if not (res4.kind == "exact" and res4.value == 1):
        failures.append(("f(P4)", res4.value))
    floor42 = pp.lower_bound_even(2, 2)
    res42 = pp.brute_force_f(pp.PathPower(4, 2))
    if floor42 != 1 or res42.kind != "exact" or res42.value < floor42:
        failures.append(("f(P4^2)", res42.value, floor42))
    for m, k in [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2)]:
        res = pp.brute_force_f(pp.PathPower(m, k))
        if res.kind != "exact" or res.value < pp.lower_bound_even(m // 2, k):
            failures.append((m, k, res.value))
    _announce("9 even floor consistency", failures)
