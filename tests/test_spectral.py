"""Polynomial recurrences, root isolation, and the spectral verifiers."""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathpower.spectral as spectral
from pathpower import (
    BracketingError,
    DimensionMismatchError,
    EigenSolveError,
    IntPolynomial,
    SizeCapError,
    VertexSet,
    SignedMatrix,
    base_certificate,
    beta,
    charpoly_base_square_check,
    charpoly_exact,
    closed_form_spectrum,
    composed_square_spectrum,
    fg_identity_check,
    interlacing_check,
    min_positive_eig_even,
    multiset_distance,
    nonsingularity_check_even,
    odd3_spectrum_check,
    poly_f,
    poly_g,
    principal_submatrix,
    signed_grid_matrix,
    signed_spectra,
    spectrum_check,
    spectrum_report,
    square_compose_check,
    symmetry_check,
)
from pathpower.spectral import base_certificate_holds, base_matrices, beta_side_of

SQRT2 = math.sqrt(2.0)


def _eigvalsh(mat):
    """The tests' own dense oracle: numpy.linalg.eigvalsh, summarised by spectrum_report."""
    return spectrum_report(np.linalg.eigvalsh(np.asarray(mat, dtype=float)))


# --------------------------- exact polynomial layer ------------------------


def test_int_polynomial_ops():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    q = IntPolynomial((-1, 1))
    assert (p + q).coeffs == (0, 3)
    assert (p - q).coeffs == (2, 1)
    assert (p * q).coeffs == (-1, -1, 2)
    assert p.evaluate(3) == 7
    assert p.evaluate(Fraction(1, 2)) == 2
    assert IntPolynomial((0, 0)).coeffs == (0,)


def test_recurrence_seeds_and_low_orders():
    assert poly_g(0).coeffs == (1,)
    assert poly_g(1).coeffs == (-1, 1)
    assert poly_g(2).coeffs == (1, -3, 1)
    assert poly_f(1).coeffs == (-2, 1)
    assert poly_f(2).coeffs == (3, -4, 1)
    assert poly_g(3).coeffs == (-1, 6, -5, 1)


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_fg_identity(n):
    assert fg_identity_check(n)


def test_fg_identity_failures_walks_each_n(monkeypatch):
    assert spectral.fg_identity_failures(50) == [n for n in range(1, 51) if not fg_identity_check(n)] == []
    assert spectral.fg_identity_failures(0) == []
    # negative control: with poly_g seeded like poly_f the identity fails everywhere
    monkeypatch.setattr(spectral, "_G_SEED", spectral._F_SEED)
    assert spectral.fg_identity_failures(50) == list(range(1, 51))


def test_beta_one_is_exact():
    assert beta(1) == 1.0


def test_beta_two_matches_closed_form():
    assert abs(beta(2, 1e-12) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-10


def _independent_cubic_root() -> float:
    """Interval-halving oracle for the smallest positive root of
    x^3 - 5x^2 + 6x - 1, written without the package machinery."""

    def f(x: float) -> float:
        return ((x - 5.0) * x + 6.0) * x - 1.0

    step = 1e-4
    x = step
    prev = f(0.0)
    while x <= 4.0:
        cur = f(x)
        if (cur > 0.0) != (prev > 0.0):
            lo, hi = x - step, x
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if (f(mid) > 0.0) == (f(lo) > 0.0):
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0
        prev = cur
        x += step
    raise AssertionError("oracle found no root")


def test_beta_three_matches_bisection_oracle():
    oracle = _independent_cubic_root()
    assert abs(oracle - 0.1980622642) < 1e-9
    assert abs(beta(3, 1e-12) - oracle) <= 1e-10


def test_beta_tolerance_consistency():
    coarse = beta(4, 1e-6)
    fine = beta(4, 1e-13)
    assert abs(coarse - fine) <= 2e-6


@pytest.mark.parametrize("n", range(1, 11))
def test_beta_against_numpy_roots(n):
    roots = np.roots(list(reversed(poly_g(n).coeffs)))
    real_pos = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 1e-9)
    assert abs(beta(n, 1e-12) - real_pos[0]) <= 1e-6


@pytest.mark.parametrize("n", range(1, 81))
def test_beta_matches_closed_form(n):
    assert abs(beta(n, 1e-12) - 4.0 * math.sin(math.pi / (4 * n + 2)) ** 2) <= 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_beta_matches_squared_base_eigvalsh(n):
    base = signed_grid_matrix(2 * n, 1).to_dense()
    smallest = np.linalg.eigvalsh((base @ base).astype(float))[0]
    assert abs(beta(n, 1e-12) - smallest) <= 1e-10


def test_beta_sign_evaluation_count(monkeypatch):
    calls = []
    exact_sign = spectral._sign_at_rational

    def counting(coeffs, num, den):
        calls.append(num)
        return exact_sign(coeffs, num, den)

    monkeypatch.setattr(spectral, "_sign_at_rational", counting)
    for n in (1, 2, 3, 10, 40, 80):
        for tol in (1e-6, 1e-12, 1e-13):
            calls.clear()
            beta(n, tol)
            assert len(calls) <= n + 1 + math.ceil(math.log2(4 / tol)), (n, tol, len(calls))


def test_beta_rejects_tampered_certificate(monkeypatch):
    true_roots = spectral.poly_g_roots

    # shifted roots: the first interval then holds two roots, the last none
    monkeypatch.setattr(spectral, "poly_g_roots", lambda n: true_roots(n)[1:] + [3.99])
    with pytest.raises(BracketingError):
        beta(3)
    # unsorted roots give overlapping intervals
    monkeypatch.setattr(spectral, "poly_g_roots", lambda n: true_roots(n)[::-1])
    with pytest.raises(BracketingError):
        beta(3)
    monkeypatch.setattr(spectral, "poly_g_roots", true_roots)

    # changed constant coefficient: x^3 - 5x^2 + 6x + 1 has a negative root
    monkeypatch.setattr(spectral, "poly_g", lambda n: IntPolynomial((1, 6, -5, 1)))
    with pytest.raises(BracketingError):
        beta(3)
    # a degree above the root count: n sign changes no longer prove anything
    monkeypatch.setattr(spectral, "poly_g", lambda n: poly_g(n) * IntPolynomial((5, 1)))
    with pytest.raises(BracketingError):
        beta(3)


def test_beta_validation():
    with pytest.raises(ValueError):
        beta(0)
    with pytest.raises(ValueError):
        beta(2, 0.0)


def test_beta_side_of_exact_comparisons():
    assert beta_side_of(1, Fraction(1)) == 0
    assert beta_side_of(1, Fraction(1, 2)) == 1
    assert beta_side_of(1, Fraction(3, 2)) == -1
    with pytest.raises(ValueError):
        beta_side_of(1, Fraction(0))


def test_smallest_roots_positive():
    values = [beta(n, 1e-12) for n in range(1, 9)]
    assert all(v > 0 for v in values)
    # the observed shrinking of the smallest root with n is reported, not asserted
    print("smallest positive roots n=1..8:", [round(v, 10) for v in values])


def _det(mat):
    """det M = (-1)^d c_0, read off the exact characteristic polynomial."""
    return (-1) ** len(mat) * charpoly_exact(mat).coeffs[0]


def test_bareiss_determinants():
    assert _det([[2]]) == 2
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[1, 2], [2, 4]]) == 0
    assert _det(np.eye(5, dtype=int).tolist()) == 1
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.integers(-4, 5, size=(5, 5))
        assert _det(m.tolist()) == round(float(np.linalg.det(m)))


def _oracle_cases():
    """Seeded non-symmetric integer matrices with entries in -50..50, sizes
    1..12, every third one made singular by repeating a row, plus the 1 x 1
    and 12 x 12 zero matrices."""
    rng = np.random.default_rng(2024)
    cases = [np.zeros((1, 1), dtype=np.int64), np.zeros((12, 12), dtype=np.int64)]
    for i in range(36):
        d = 1 + i % 12
        m = rng.integers(-50, 51, size=(d, d))
        if i % 3 == 2 and d > 1:
            m[-1] = m[0]
        cases.append(m)
    return cases


def test_charpoly_exact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _oracle_cases():
        want = sympy.Matrix(m.tolist()).charpoly().all_coeffs()[::-1]
        assert charpoly_exact(m).coeffs == tuple(int(c) for c in want)
        assert _det(m) == int(sympy.Matrix(m.tolist()).det())


def test_charpoly_exact_refuses_non_integral_entries():
    for mat in ([[0.5]], [[1.9, 0], [0, 1]], [[float("nan")]], [[float("inf")]], [[Fraction(1, 3)]]):
        with pytest.raises(ValueError, match="integral"):
            charpoly_exact(mat)
    assert charpoly_exact([[2.0, 1.0], [1.0, 2.0]]).coeffs == (3, -4, 1)
    assert charpoly_exact(np.zeros((0, 0), dtype=np.int64)).coeffs == (1,)
    with pytest.raises(ValueError, match="square"):
        charpoly_exact([[1, 2]])


def test_charpoly_exact_refuses_an_inexact_division(monkeypatch):
    trace = np.trace
    monkeypatch.setattr(np, "trace", lambda a: trace(a) + 1)
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        charpoly_exact(np.zeros((2, 2), dtype=np.int64))


def test_charpoly_exact_small_cases():
    p = charpoly_exact([[2, 1], [1, 2]])
    assert p.coeffs == (3, -4, 1)  # (x-1)(x-3)
    p = charpoly_exact(np.diag([1, 2, 3]))
    assert p.coeffs == (-6, 11, -6, 1)
    rng = np.random.default_rng(11)
    m = rng.integers(-3, 4, size=(4, 4))
    sym = (m + m.T).tolist()
    ours = charpoly_exact(sym)
    numpy_coeffs = np.poly(np.array(sym, dtype=float))[::-1]
    assert np.allclose([float(c) for c in ours.coeffs], numpy_coeffs, atol=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_charpoly_of_squared_base(n):
    assert charpoly_base_square_check(n)


# ------------------------------ numerical layer -----------------------------


def test_eigenvalues_of_bases():
    even = _eigvalsh(signed_grid_matrix(2, 1).to_dense())
    assert multiset_distance(even.eigenvalues, [-1.0, 1.0]) <= 1e-12
    odd = _eigvalsh(signed_grid_matrix(3, 1).to_dense())
    assert multiset_distance(odd.eigenvalues, [-SQRT2, 0.0, SQRT2]) <= 1e-12
    assert odd.zero_multiplicity == 1
    assert odd.min_positive == pytest.approx(SQRT2, abs=1e-12)
    zero = _eigvalsh(np.zeros((4, 4)))
    assert zero.eigenvalues == (0.0, 0.0, 0.0, 0.0)
    assert zero.min_positive is None


def test_signed_spectra_rejects_bad_input():
    a = signed_grid_matrix(3, 2)
    asymmetric = a.vals.copy()
    asymmetric[0] = -asymmetric[0]  # its mirror entry keeps its sign
    with pytest.raises(ValueError):
        signed_spectra(_tampered(a, a.rows, a.cols, asymmetric))
    with pytest.raises(SizeCapError):
        signed_spectra(signed_grid_matrix(2, 13))  # dimension 8,192


def test_spectrum_report_statistics():
    rep = spectrum_report([3.0, -3.0, 1e-12, 0.5, -0.5])
    assert rep.zero_multiplicity == 1
    assert rep.min_positive == 0.5
    assert rep.symmetry_defect <= 2e-12  # the middle value pairs with itself
    assert symmetry_check(rep)
    assert not symmetry_check(spectrum_report([1.0, 2.0, 3.0]))


def test_kron_sum_spectrum():
    # the closed form's squares are the k-fold Kronecker sums of the
    # spectrum of the base square, here summed by the test itself
    for m, k in [(2, 3), (3, 3), (4, 3), (6, 2), (8, 2)]:
        b = signed_grid_matrix(m, 1).to_dense()
        base = np.linalg.eigvalsh((b @ b).astype(float))
        sums = base
        for _ in range(k - 1):
            sums = np.add.outer(sums, base).ravel()
        assert multiset_distance(composed_square_spectrum(m, k).eigenvalues, sums.tolist()) <= 1e-9, (m, k)


def test_min_positive_even_values():
    assert min_positive_eig_even(1, 4) == pytest.approx(2.0, abs=1e-8)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert min_positive_eig_even(2, 1) == pytest.approx(golden, abs=1e-8)
    assert min_positive_eig_even(2, 2) == pytest.approx(math.sqrt(2 * beta(2)), abs=1e-8)


def test_odd3_spectrum_checks():
    r1 = odd3_spectrum_check(1)
    assert r1.passed and r1.zero_multiplicity == 1
    r2 = odd3_spectrum_check(2)
    assert r2.passed and r2.closed_form_defect <= 1e-9
    rep = _eigvalsh(signed_grid_matrix(3, 2).to_dense())
    hand = sorted([0.0, SQRT2, SQRT2, -SQRT2, -SQRT2, 2.0, 2.0, -2.0, -2.0])
    assert multiset_distance(rep.eigenvalues, hand) <= 1e-8


def test_odd3_has_zero_eigenvalue_unlike_even():
    # the m = 3 family is singular, the even family is not
    odd = _eigvalsh(signed_grid_matrix(3, 1).to_dense())
    assert odd.zero_multiplicity == 1
    assert nonsingularity_check_even(1, 1)
    assert nonsingularity_check_even(2, 2)


def test_spectrum_symmetry_of_built_matrices():
    for m, k in [(4, 2), (3, 3), (2, 4), (6, 2)]:
        rep = _eigvalsh(signed_grid_matrix(m, k).to_dense())
        assert symmetry_check(rep), (m, k)


def test_interlacing_examples():
    a = _eigvalsh(signed_grid_matrix(3, 1).to_dense())
    assert interlacing_check(a, a)
    sub = principal_submatrix(signed_grid_matrix(3, 1), VertexSet(3, 1, ranks=[0, 1]))
    assert interlacing_check(a, _eigvalsh(sub))
    assert not interlacing_check(a, _eigvalsh(np.array([[5.0]])))


def test_interlacing_randomized_submatrices():
    import random

    rng = random.Random(20240)
    a = signed_grid_matrix(4, 2)
    host = _eigvalsh(a.to_dense())
    for _ in range(100):
        size = rng.randint(1, 15)
        s = VertexSet(4, 2, ranks=rng.sample(range(16), size))
        assert interlacing_check(host, _eigvalsh(principal_submatrix(a, s)))


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (4, 2), (6, 2), (3, 2), (3, 3)])
def test_square_spectrum_composition(m, k):
    ok, dist = square_compose_check(m, k)
    assert ok, f"composition distance {dist}"
    # the squares it compares, against the test's own solve of the dense A @ A
    dense = signed_grid_matrix(m, k).to_dense()
    oracle = np.linalg.eigvalsh((dense @ dense).astype(float)).tolist()
    squares = [v * v for v in spectrum_check(m, k).spectrum.eigenvalues]
    assert multiset_distance(squares, oracle) <= 1e-9
    assert multiset_distance(composed_square_spectrum(m, k).eigenvalues, oracle) <= 1e-9


@pytest.mark.parametrize("m,k", [(2, 2), (4, 2), (3, 2), (3, 3)])
def test_shifted_closed_form_fails_both_checks(monkeypatch, m, k):
    true_form = spectral.closed_form_spectrum

    def shifted(*args, **kwargs):
        values = list(true_form(*args, **kwargs).eigenvalues)
        values[-1] += 1e-6  # the largest eigenvalue, so its square moves too
        return spectrum_report(values)

    assert spectrum_check(m, k).passed
    monkeypatch.setattr(spectral, "closed_form_spectrum", shifted)
    r = spectrum_check(m, k)
    assert not r.passed and r.closed_form_defect == pytest.approx(1e-6, rel=1e-3)
    ok, dist = square_compose_check(m, k)
    assert not ok and dist > 1e-7


@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
def test_closed_form_threshold_is_the_group_tolerance(monkeypatch, scale, passed):
    shift = scale * spectral.DEFAULT_GROUP_TOL
    true_form = spectral.closed_form_spectrum

    def shifted(*args, **kwargs):
        return spectrum_report([v + shift for v in true_form(*args, **kwargs).eigenvalues])

    monkeypatch.setattr(spectral, "closed_form_spectrum", shifted)
    assert spectrum_check(3, 2).passed is passed


@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
def test_interlacing_threshold_is_the_group_tolerance(scale, passed):
    host = _eigvalsh(signed_grid_matrix(3, 2).to_dense())
    values = list(host.eigenvalues)
    values[-1] += scale * spectral.DEFAULT_GROUP_TOL  # the top eigenvalue rises above the host's
    assert interlacing_check(host, spectrum_report(values)) is passed


def test_spectrum_check_facts():
    r = spectrum_check(3, 2)
    assert (r.m, r.k, r.zero_multiplicity, r.passed) == (3, 2, 1, True)
    assert r.min_positive == pytest.approx(SQRT2, abs=1e-12) and r.spectrum.dim == 9
    for m, k in [(2, 1), (4, 1), (6, 1), (4, 2), (2, 5)]:
        r = spectrum_check(m, k)
        assert r.passed and r.zero_multiplicity == 0, (m, k)
    assert odd3_spectrum_check(2) == spectrum_check(3, 2)


def test_spectrum_check_settles_the_even_base_by_its_determinant(monkeypatch):
    for m in (3, *range(2, 17, 2)):
        a = signed_grid_matrix(m, 1)
        assert spectral._path_determinant(a) == _det(a.to_dense()) == (0 if m % 2 else (-1) ** (m // 2)), m
    start = time.perf_counter()
    assert nonsingularity_check_even(64, 1)  # charpoly_exact of the 128 x 128 base took 8 s
    assert time.perf_counter() - start < 5
    # negative control: with det B = 2 in place of +-1 only the k = 1 check fails
    monkeypatch.setattr(spectral, "_path_determinant", lambda a: 2)
    assert not spectrum_check(4, 1).passed and not nonsingularity_check_even(2, 1)
    assert spectrum_check(4, 2).passed and nonsingularity_check_even(2, 2)


def test_signed_spectrum_reconstruction_from_squares():
    # the closed form splits each square s > 0 evenly into +-sqrt(s)
    for m, k in [(2, 2), (4, 2), (3, 2)]:
        closed = closed_form_spectrum(m, k)
        direct = _eigvalsh(signed_grid_matrix(m, k).to_dense())
        assert multiset_distance(closed.eigenvalues, direct.eigenvalues) <= 1e-9


# ------------------------- base certificate and closed form -----------------


@pytest.mark.parametrize("m", [3, 2, 4, 6, 8, 10, 12, 14, 16])
def test_base_certificate_holds_for_the_builder(m):
    assert base_certificate(m)
    b, d = base_matrices(m)
    assert np.array_equal(d, np.diag([(-1) ** a for a in range(m)]))
    assert np.array_equal(b, signed_grid_matrix(m, 1).to_dense())


def test_base_certificate_negative_controls():
    b, d = base_matrices(4)
    charpoly = charpoly_exact(b @ b)
    assert base_certificate_holds(b, d, charpoly)

    equal_neighbours = d.copy()
    equal_neighbours[1, 1] = 1  # D = diag(+1, +1, +1, -1)
    assert not base_certificate_holds(b, equal_neighbours, charpoly)

    off_path = b.copy()
    off_path[0, 2] = off_path[2, 0] = 1
    assert not base_certificate_holds(off_path, d, charpoly_exact(off_path @ off_path))

    assert not base_certificate_holds(b, d, charpoly * IntPolynomial((1, 1)))
    assert not base_certificate_holds(b, d, charpoly + IntPolynomial((1,)))

    # Not a negative control: every signing of a path anticommutes with the
    # alternating D and has the path's spectrum, so a flipped sign passes.
    flipped = b.copy()
    flipped[1, 2] = flipped[2, 1] = -flipped[1, 2]
    assert base_certificate_holds(flipped, d, charpoly_exact(flipped @ flipped))


def test_base_certificate_reads_d_from_the_builder(monkeypatch):
    build = spectral.signed_grid_matrix

    def tampered(m, k, *args):
        a = build(m, k, *args)
        if k == 2:  # diagonal block 1 keeps its sign: D = diag(+1, +1, +1, -1)
            a.vals = np.where((a.rows // m == 1) & (a.cols // m == 1), -a.vals, a.vals)
        return a

    monkeypatch.setattr(spectral, "signed_grid_matrix", tampered)
    assert np.array_equal(base_matrices(4)[1], np.diag([1, 1, 1, -1]))
    assert not base_certificate(4)


@pytest.mark.parametrize(
    "m,k", [(m, k) for m in (2, 3, 4, 6, 8) for k in range(1, 11) if m**k <= 1296]
)
def test_closed_form_matches_eigvalsh(m, k):
    dense = np.linalg.eigvalsh(signed_grid_matrix(m, k).to_dense().astype(float))
    closed = closed_form_spectrum(m, k)
    assert closed.dim == m**k
    assert multiset_distance(closed.eigenvalues, dense.tolist()) <= 1e-9


def test_closed_form_odd3_multiplicities_without_a_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the closed form must not solve")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    for k in range(1, 11):
        rep = closed_form_spectrum(3, k)
        assert rep.zero_multiplicity == 1 and rep.eigenvalues.count(0.0) == 1
        assert rep.min_positive == SQRT2 and rep.symmetry_defect == 0.0
        for j in range(1, k + 1):
            want = comb(k, j) * 2 ** (j - 1)
            for sign in (1, -1):
                got = sum(1 for v in rep.eigenvalues if abs(v - sign * math.sqrt(2 * j)) <= 1e-12)
                assert got == want, (k, j, sign)


def test_closed_form_size_cap_and_parameters():
    with pytest.raises(SizeCapError):
        closed_form_spectrum(2, 17)
    with pytest.raises(SizeCapError):
        closed_form_spectrum(4, 3, size_cap=63)
    assert closed_form_spectrum(4, 3, size_cap=64).dim == 64
    for m, k in [(5, 2), (1, 2), (3, 0)]:
        with pytest.raises(ValueError):
            closed_form_spectrum(m, k)


def test_size_caps_refuse_before_densifying(monkeypatch):
    from pathpower.cli import main

    def no_densify(*args, **kwargs):
        raise AssertionError("densified an input above the eigensolver cap")

    monkeypatch.setattr(SignedMatrix, "to_dense", no_densify)
    for call in (
        lambda: min_positive_eig_even(1, 13),
        lambda: nonsingularity_check_even(1, 13),
        lambda: odd3_spectrum_check(8),
        lambda: square_compose_check(2, 13),
    ):
        with pytest.raises(SizeCapError):
            call()
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--parity", "even", "--n", "1", "--k", "13"])
    assert exc.value.code == 2


def test_multiset_distance_mismatched_sizes():
    assert multiset_distance([1.0], [1.0, 2.0]) == float("inf")


# ------------------------ bipartite solve of signed matrices -----------------


def _eigvalsh_and_norm(dense):
    dense = np.asarray(dense, dtype=float)
    return np.linalg.eigvalsh(dense), float(np.linalg.norm(dense))


@pytest.mark.parametrize(
    "m,k", [(m, k) for m in (2, 3, 4, 6, 8) for k in range(1, 11) if m**k <= 1296]
)
def test_signed_spectra_match_eigvalsh(m, k):
    a = signed_grid_matrix(m, k)
    want, fro = _eigvalsh_and_norm(a.to_dense())
    (rep,) = signed_spectra(a)
    assert rep.dim == m**k
    assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro


def _colour(m, r):
    return sum((r // m**i) % m for i in range(10)) % 2


@st.composite
def _grid_and_sets(draw):
    m, k = draw(st.sampled_from([(3, 1), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (6, 2)]))
    n = m**k
    ranks = st.integers(0, n - 1)
    one_colour = st.integers(0, 1).flatmap(
        lambda c: st.sets(st.sampled_from([r for r in range(n) if _colour(m, r) == c]), min_size=1)
    )
    kinds = st.one_of(st.sets(ranks, min_size=1), one_colour, ranks.map(lambda r: {r}))
    return m, k, draw(st.lists(kinds, min_size=1, max_size=12))


@settings(max_examples=60)
@given(_grid_and_sets())
def test_signed_spectra_of_principal_submatrices(case):
    m, k, rank_sets = case
    a = signed_grid_matrix(m, k)
    sets = [VertexSet(m, k, ranks=r) for r in rank_sets]
    reps = signed_spectra(a, sets)
    assert len(reps) == len(sets)
    for s, rep in zip(sets, reps):
        want, fro = _eigvalsh_and_norm(principal_submatrix(a, s))
        assert rep.dim == len(s)
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro


def test_signed_spectra_mixed_splits_in_one_batch():
    # [3]^2: ranks 0, 2, 4, 6, 8 have even digit sums, 1, 3, 5, 7 odd.
    a = signed_grid_matrix(3, 2)
    rank_sets = [[4], [1, 3, 5, 7], [0, 1, 2], [1, 4, 7], [0, 1, 3, 4], list(range(9)), [3, 4, 5, 0, 8]]
    reps = signed_spectra(a, [VertexSet(3, 2, ranks=r) for r in rank_sets])
    for r, rep in zip(rank_sets, reps):
        want, fro = _eigvalsh_and_norm(principal_submatrix(a, VertexSet(3, 2, ranks=r)))
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro
    assert reps[0].eigenvalues == (0.0,) and reps[1].eigenvalues == (0.0,) * 4


def test_signed_matrices_are_never_solved_by_eigh(monkeypatch):
    # the one dense solver is signed_spectra's SVD: eigh, eigvalsh and eig never run
    from pathpower.report import DEFAULT_SEED, _check_degree_eigenvalue_chain, run_verify_all
    from pathpower.search import degree_bound_check

    def no_eigh(*args, **kwargs):
        raise AssertionError("a signed matrix went to eigh")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, no_eigh)
    report = run_verify_all()
    assert report.passed, [(c.name, c.details) for c in report.checks if not c.passed]
    assert odd3_spectrum_check(6).passed
    assert min_positive_eig_even(2, 3) == pytest.approx(math.sqrt(3 * beta(2)), abs=1e-8)
    assert nonsingularity_check_even(2, 2)
    assert square_compose_check(4, 3)[0]
    with pytest.raises(NotImplementedError):
        spectral.eigenvalues_sym(np.eye(2))
    ok, details = _check_degree_eigenvalue_chain({"max_size": 729, "seed": DEFAULT_SEED})
    assert ok and [row[2] for row in details["rows"]] == [200, 200, 200]
    assert degree_bound_check(signed_grid_matrix(3, 2), VertexSet(3, 2, ranks=[0, 1, 2, 4, 6, 8]))


def _tampered(a, rows, cols, vals):
    return SignedMatrix(a.dim, rows, cols, vals, a.parity_tag, a.n, a.k)


def test_signed_spectra_reject_a_matrix_that_is_not_signed_bipartite():
    a = signed_grid_matrix(3, 2)
    not_signed = "not a signed adjacency matrix"
    # SignedMatrix storage is sorted by (row, col).
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, a.rows[::-1], a.cols[::-1], a.vals[::-1]))

    # Ranks 0 and 2 of [3]^2 both have even digit sums.
    rows, cols = np.append(a.rows, [0, 2]), np.append(a.cols, [2, 0])
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, rows, cols, np.append(a.vals, [1, 1])))
    flipped = a.vals.copy()
    flipped[0] = -flipped[0]
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, a.rows, a.cols, flipped))
    one_way = np.ones(a.nnz, dtype=bool)
    one_way[0] = False
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, a.rows[one_way], a.cols[one_way], a.vals[one_way]))
    twice = np.append(np.arange(a.nnz), [0, np.flatnonzero((a.rows == a.cols[0]) & (a.cols == a.rows[0]))[0]])
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, a.rows[twice], a.cols[twice], a.vals[twice]))
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, np.append(a.rows, [-1, 1]), np.append(a.cols, [1, -1]), np.append(a.vals, [1, 1])))


def _svd_tampered_by(monkeypatch, tamper):
    solve = np.linalg.svd

    def svd(c, *args, **kwargs):
        return tamper(*solve(c, *args, **kwargs))

    monkeypatch.setattr(np.linalg, "svd", svd)


def _shift_sigma(u, sv, vt):
    sv = sv.copy()
    sv[0, 0] += 1e-6
    return u, sv, vt


def _shift_pair_vector(u, sv, vt):
    u = u.copy()
    u[0, 0, 0] += 1e-6
    return u, sv, vt


def _shift_zero_vector(u, sv, vt):
    u = u.copy()
    u[0, 0, -1] += 1e-6  # the last column of U spans part of the kernel of C^T when p > q
    return u, sv, vt


def _drop_zero_vector(u, sv, vt):
    return u[:, :, :-1], sv, vt


@pytest.mark.parametrize("tamper", [_shift_sigma, _shift_pair_vector, _shift_zero_vector, _drop_zero_vector])
def test_signed_spectra_contract_negative_controls(monkeypatch, tamper):
    a = signed_grid_matrix(3, 3)  # p = 14, q = 13: one zero pair
    assert signed_spectra(a)[0].zero_multiplicity == 1
    _svd_tampered_by(monkeypatch, tamper)
    with pytest.raises(EigenSolveError):
        signed_spectra(a)
    with pytest.raises(EigenSolveError):
        signed_spectra(a, [VertexSet(3, 3, ranks=range(27)), VertexSet(3, 3, ranks=range(9))])


def test_signed_spectra_refuse_over_cap_before_allocating(monkeypatch):
    big = signed_grid_matrix(2, 13)  # dimension 8,192

    def no_zeros(*args, **kwargs):
        raise AssertionError("allocated for an input above the eigensolver cap")

    monkeypatch.setattr(np, "zeros", no_zeros)
    with pytest.raises(SizeCapError):
        signed_spectra(big)
    with pytest.raises(SizeCapError):
        signed_spectra(big, [VertexSet(2, 13, ranks=[0]), VertexSet(2, 13, ranks=range(4097))])


def test_signed_spectra_set_validation():
    a = signed_grid_matrix(3, 2)
    assert signed_spectra(a, []) == []
    with pytest.raises(ValueError, match="empty"):
        signed_spectra(a, [VertexSet(3, 2)])
    with pytest.raises(DimensionMismatchError):
        signed_spectra(a, [VertexSet(3, 3, ranks=[20])])


def test_sets_of_another_grid_are_refused():
    # Ranks 0..3 are a 4-cycle in [2]^6 but a path in [4]^3, the same 64 vertices.
    a = signed_grid_matrix(4, 3)
    other = VertexSet(2, 6, ranks=[0, 1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        signed_spectra(a, [VertexSet(4, 3, ranks=[0, 1]), other])
    with pytest.raises(DimensionMismatchError):
        principal_submatrix(a, other)
