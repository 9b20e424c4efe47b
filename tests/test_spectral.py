"""Polynomial recurrences, the roots in closed form, and the spectral verifiers."""

import math
import time
from fractions import Fraction
from itertools import product
from math import comb

import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathpower.spectral as spectral
from pathpower import (
    CertificateError,
    DimensionMismatchError,
    EigenSolveError,
    IntPolynomial,
    SizeCapError,
    VertexSet,
    SignedMatrix,
    base_certificate,
    beta,
    charpoly_base_square_check,
    chebyshev_identity_check,
    check_support,
    closed_form_spectrum,
    composed_square_spectrum,
    fg_identity_check,
    interlacing_check,
    lower_bound_even,
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
    theoretical_f_value,
)
from pathpower.grid import slot_steps
from pathpower.signed import square_identity_holds
from pathpower.spectral import base_certificate_holds

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


def _fg_walk_failures(n_max):
    """The oracle: the n in 1..n_max where the identity fails, coefficient by
    coefficient, from one walk of both families."""
    f = [spectral.poly_f(n) for n in range(n_max + 1)]
    return [n for n in range(1, n_max + 1) if spectral.poly_g(n) != f[n] + f[n - 1]]


def test_fg_identity_from_its_two_seeds(monkeypatch):
    assert _fg_walk_failures(50) == [] and all(fg_identity_check(n) for n in range(1, 51))
    with pytest.raises(ValueError):
        fg_identity_check(0)
    # negative control: with poly_g seeded like poly_f the identity fails everywhere
    monkeypatch.setattr(spectral, "_G_SEED", spectral._F_SEED)
    assert _fg_walk_failures(50) == list(range(1, 51)) and not fg_identity_check(7)
    # seeds scaled by 2 fail at n = 1 and agree at n = 2
    monkeypatch.setattr(spectral, "_G_SEED", (-2, 2))
    monkeypatch.setattr(spectral, "_F_SEED", (-4, 2))
    assert _fg_walk_failures(3) == [1, 3] and not fg_identity_check(7)
    monkeypatch.undo()
    # a poly_f on the step x - 1 agrees at n = 1 and fails at n = 2: the seeds
    # prove the identity only for two solutions of the one recurrence
    other = spectral.IntPolynomial((-1, 1))

    def poly_f(n):
        p, p_next = spectral.IntPolynomial((1,)), spectral.IntPolynomial(spectral._F_SEED)
        for _ in range(n):
            p, p_next = p_next, other * p_next - p
        return p

    monkeypatch.setattr(spectral, "poly_f", poly_f)
    assert _fg_walk_failures(3) == [2, 3] and not fg_identity_check(7)


def test_beta_one_is_exact():
    assert beta(1) == 1.0


def test_beta_two_matches_closed_form():
    assert abs(beta(2) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-10


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
    assert abs(beta(3) - oracle) <= 1e-10


@pytest.mark.parametrize("n", [*range(1, 257), 512, 1024, 2048])
def test_beta_is_the_correctly_rounded_root(n):
    # the closed form at 60 digits, rounded once to the nearest double
    with mpmath.workdps(60):
        assert beta(n) == float(4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2)


@mpmath.workdps(60)
def test_the_beta_bracket_holds_the_mpmath_root():
    for p in (64, 128):
        scale = mpmath.mpf(2) ** p
        # each series within its bracket: Machin's two arctangents, and sin at the ends of theta
        for x in (5, 239):
            lo, hi = spectral._atan_inv(x, p)
            assert lo < mpmath.atan(mpmath.mpf(1) / x) * scale < hi, (x, p)
        for n in range(1, 257):
            theta = mpmath.pi / (4 * n + 2) * scale
            for a in (int(mpmath.floor(theta)), int(mpmath.ceil(theta))):
                lo, hi = spectral._sin(a, p)
                assert lo < mpmath.sin(a / scale) * scale < hi, (n, p)
            lo, hi = spectral._beta_bracket(n, p)
            if n == 1:  # beta_1 = 1 exactly, where a 60-digit sine rounds either way
                assert (lo, hi) == (1 << p, 1 << p)
            else:
                assert lo <= 4 * mpmath.sin(mpmath.pi / (4 * n + 2)) ** 2 * scale <= hi, (n, p)


@pytest.mark.parametrize("n", range(1, 11))
def test_beta_against_numpy_roots(n):
    roots = np.roots(list(reversed(poly_g(n).coeffs)))
    real_pos = sorted(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 1e-9)
    assert abs(beta(n) - real_pos[0]) <= 1e-6


@pytest.mark.parametrize("n", range(1, 81))
def test_beta_matches_closed_form(n):
    assert abs(beta(n) - 4.0 * math.sin(math.pi / (4 * n + 2)) ** 2) <= 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_beta_matches_squared_base_eigvalsh(n):
    base = signed_grid_matrix(2 * n, 1).to_dense()
    smallest = np.linalg.eigvalsh((base @ base).astype(float))[0]
    assert abs(beta(n) - smallest) <= 1e-10


def _chebyshev_walk_failures(n_max):
    """The oracle: the n in 0..n_max where c poly_g(n)(4 - 4c^2) is not
    (-1)^n T_(2n+1)(c), each side expanded by sympy."""
    c = sympy.Symbol("c")
    return [
        n
        for n in range(n_max + 1)
        if sympy.expand(c * sympy.Poly(spectral.poly_g(n).coeffs[::-1], c).as_expr().subs(c, 4 - 4 * c**2))
        != sympy.expand((-1) ** n * sympy.chebyshevt(2 * n + 1, c))
    ]


def test_chebyshev_identity_from_its_seeds_and_step():
    assert chebyshev_identity_check() and _chebyshev_walk_failures(12) == []


def _recurrence_from(p0):
    """_recurrence with p_0 = p0 in place of 1."""

    def walk(n, seed1):
        p, p_next = spectral.IntPolynomial(p0), spectral.IntPolynomial(seed1)
        for _ in range(n):
            p, p_next = p_next, spectral._X_MINUS_2 * p_next - p
        return p

    return walk


@pytest.mark.parametrize(
    "name,value,fails_at",
    [
        ("_recurrence", _recurrence_from((-1,)), [0, 2, 3]),  # the seed n = 0
        ("_G_SEED", (-2, 1), [1, 2, 3]),  # the seed n = 1
        ("_X_MINUS_2", spectral.IntPolynomial((-3, 1)), [2, 3]),  # the step
    ],
    ids=["seed-0", "seed-1", "step"],
)
def test_each_clause_of_the_chebyshev_identity_has_a_negative_control(monkeypatch, name, value, fails_at):
    monkeypatch.setattr(spectral, name, value)
    assert _chebyshev_walk_failures(3) == fails_at and not chebyshev_identity_check()
    # beta and lower_bound_even read the check once per process: run it afresh
    monkeypatch.setattr(spectral, "_identity_certified", spectral.chebyshev_identity_check)
    for call in (lambda: beta(1), lambda: beta(3), lambda: lower_bound_even(1, 4), lambda: min_positive_eig_even(3, 1)):
        with pytest.raises(CertificateError):
            call()


def test_the_chebyshev_identity_runs_once_per_process(monkeypatch):
    calls = []
    check = spectral.chebyshev_identity_check
    monkeypatch.setattr(spectral, "chebyshev_identity_check", lambda: calls.append(1) or check())
    spectral._identity_certified.cache_clear()
    try:
        for n in (1, 2, 3, 64, 32768):
            beta(n)
            lower_bound_even(n, 7)
        assert calls == [1]
    finally:
        spectral._identity_certified.cache_clear()


def test_beta_and_spectrum_check_at_the_cap_in_bounded_time():
    # the largest even path within the grid cap: a root path that grows like n^2 fails the guard
    start = time.perf_counter()
    b = beta(32768)
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    got = spectrum_check(65536, 1)
    assert time.perf_counter() - start < 2.0
    assert got.passed and got.min_positive == math.sqrt(b)
    with mpmath.workdps(60):
        beta_n = 4 * mpmath.sin(mpmath.pi / 131074) ** 2
        assert b == float(beta_n)
        assert theoretical_f_value(65536, 3).paper_lower == int(mpmath.ceil(mpmath.sqrt(3 * beta_n)))


def test_root_isolation_builds_no_coefficients(monkeypatch):
    want = (beta(7), lower_bound_even(7, 300), closed_form_spectrum(14, 2).eigenvalues)
    checks = [(m, k) for m in (3, *range(2, 17, 2)) for k in (1, 2, 5)]
    facts = [spectrum_check(m, k) for m, k in checks]

    def refuse(n):
        raise AssertionError("poly_g built on a root path")

    monkeypatch.setattr(spectral, "poly_g", refuse)
    assert beta(7) == want[0]
    assert lower_bound_even(7, 300) == want[1]
    assert np.array_equal(closed_form_spectrum(14, 2).eigenvalues, want[2])
    assert [spectrum_check(m, k) for m, k in checks] == facts and all(r.passed for r in facts)
    assert all(charpoly_base_square_check(n) for n in range(1, 9))


def test_beta_validation():
    with pytest.raises(ValueError):
        beta(0)
    with pytest.raises(TypeError):  # correctly rounded: no tolerance to pass
        beta(2, 1e-12)


@pytest.mark.parametrize("n", range(1, 14))
def test_every_root_of_poly_g_lies_at_its_closed_form(n):
    # sympy's exact real-root count: n real roots, one within 1e-9 of each closed-form root
    g = sympy.Poly(poly_g(n).coeffs[::-1], sympy.Symbol("x"))
    assert g.count_roots() == n
    for root in spectral.poly_g_roots(n):
        q, eps = sympy.Rational(root), sympy.Rational(1, 10**9)
        assert g.count_roots(q - eps, q + eps) == 1, (n, root)


def test_smallest_roots_positive():
    values = [beta(n) for n in range(1, 9)]
    assert all(v > 0 for v in values)
    # the observed shrinking of the smallest root with n is reported, not asserted
    print("smallest positive roots n=1..8:", [round(v, 10) for v in values])


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
    _, _, asymmetric = a.entries()
    asymmetric[0] = -asymmetric[0]  # its mirror entry keeps its sign
    with pytest.raises(ValueError):
        signed_spectra(_resigned(a, asymmetric))
    with pytest.raises(SizeCapError):
        signed_spectra(signed_grid_matrix(2, 13))  # dimension 8,192


def test_spectrum_report_statistics():
    rep = spectrum_report([3.0, -3.0, 1e-12, 0.5, -0.5])
    assert rep.zero_multiplicity == 1
    assert rep.min_positive == 0.5
    assert rep.symmetry_defect <= 2e-12  # the middle value pairs with itself
    assert symmetry_check(rep)
    assert not symmetry_check(spectrum_report([1.0, 2.0, 3.0]))


# ties, signed zeros and the grouping threshold, in rows of one length
_VALUE = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e-8, 0.5, -0.5, 2.0, -2.0]) | st.floats(-3, 3)
_ROWS = st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(_VALUE, min_size=n, max_size=n), min_size=1))


def _plain_spectrum_report(values):
    """The summary in plain Python, one value at a time: the oracle of _spectrum_reports."""
    vals = sorted(float(v) for v in values)
    positives = [v for v in vals if v >= spectral.DEFAULT_GROUP_TOL]
    defect = 0.0
    for i in range(len(vals)):
        defect = max(defect, abs(vals[i] + vals[len(vals) - 1 - i]))
    zero_mult = sum(1 for v in vals if abs(v) < spectral.DEFAULT_GROUP_TOL)
    return spectral.SpectrumReport(tuple(vals), zero_mult, positives[0] if positives else None, defect)


@settings(max_examples=60)
@given(_ROWS)
def test_spectrum_reports_of_an_array_are_spectrum_report_bit_for_bit(rows):
    for got, one, row in zip(spectral._spectrum_reports(np.array(rows)), map(spectrum_report, rows), rows):
        want = _plain_spectrum_report(row)
        assert got == one == want
        for rep in (got, one):
            assert [math.copysign(1, v) for v in rep.eigenvalues] == [math.copysign(1, v) for v in want.eigenvalues]


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
    assert r2.passed and r2.min_positive == SQRT2
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
    squares = [v * v for v in signed_spectra(signed_grid_matrix(m, k))[0].eigenvalues]
    assert multiset_distance(squares, oracle) <= 1e-9
    assert multiset_distance(composed_square_spectrum(m, k).eigenvalues, oracle) <= 1e-9


@pytest.mark.parametrize("m,k", [(2, 2), (4, 2), (3, 2), (3, 3)])
def test_shifted_closed_form_fails_both_checks(monkeypatch, m, k):
    # the solve against the closed form, directly and through square_compose_check
    true_form = spectral.closed_form_spectrum

    def shifted(*args, **kwargs):
        values = list(true_form(*args, **kwargs).eigenvalues)
        values[-1] += 1e-6  # the largest eigenvalue, so its square moves too
        return spectrum_report(values)

    (solved,) = signed_spectra(signed_grid_matrix(m, k))
    assert square_compose_check(m, k)[0]
    monkeypatch.setattr(spectral, "closed_form_spectrum", shifted)
    distance = multiset_distance(solved.eigenvalues, spectral.closed_form_spectrum(m, k).eigenvalues)
    assert distance == pytest.approx(1e-6, rel=1e-3)
    ok, dist = square_compose_check(m, k)
    assert not ok and dist > spectral.DEFAULT_GROUP_TOL
    assert spectrum_check(m, k).passed  # the certificate reads no closed form


@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
def test_closed_form_threshold_is_the_group_tolerance(monkeypatch, scale, passed):
    shift = scale * spectral.DEFAULT_GROUP_TOL
    true_form = spectral.closed_form_spectrum

    def shifted(*args, **kwargs):
        return spectrum_report([v + shift for v in true_form(*args, **kwargs).eigenvalues])

    # the solve lies within half the tolerance of the closed form, so a shift of twice it shows
    (solved,) = signed_spectra(signed_grid_matrix(3, 2))
    monkeypatch.setattr(spectral, "closed_form_spectrum", shifted)
    distance = multiset_distance(solved.eigenvalues, spectral.closed_form_spectrum(3, 2).eigenvalues)
    assert (distance <= spectral.DEFAULT_GROUP_TOL) is passed


@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
def test_interlacing_threshold_is_the_group_tolerance(scale, passed):
    host = _eigvalsh(signed_grid_matrix(3, 2).to_dense())
    values = list(host.eigenvalues)
    values[-1] += scale * spectral.DEFAULT_GROUP_TOL  # the top eigenvalue rises above the host's
    assert interlacing_check(host, spectrum_report(values)) is passed


def test_spectrum_check_facts():
    r = spectrum_check(3, 2)
    assert (r.m, r.k, r.zero_multiplicity, r.passed) == (3, 2, 1, True)
    lemma = "check_support; D^2 = I; DB + BD = 0; A_2 = D ⊗ B + B ⊗ I; det(xI - B) = x^3 - 2x"
    assert r.min_positive == SQRT2 and r.proof == lemma
    assert spectrum_check(3, 1).proof == "check_support; det(xI - B) = x^3 - 2x"
    assert spectrum_check(4, 1).proof == "check_support; det(xI - B) = poly_g(2)(x^2); beta(2) Chebyshev identity and bracket"
    for m, k in [(2, 1), (4, 1), (6, 1), (4, 2), (2, 5)]:
        r = spectrum_check(m, k)
        assert r.passed and r.zero_multiplicity == 0, (m, k)
        assert r.min_positive == math.sqrt(k * beta(m // 2))
        assert r.proof.endswith(f"beta({m // 2}) Chebyshev identity and bracket")
    assert odd3_spectrum_check(2) == spectrum_check(3, 2)
    for m, k in [(5, 2), (1, 1), (2, 0), (3, -1)]:
        with pytest.raises(ValueError):
            spectrum_check(m, k)


def _det_target(m: int) -> list[int]:
    """det(xI - B) as the det clause states it, coefficients descending:
    x^3 - 2x, or poly_g(m / 2)(x^2)."""
    if m == 3:
        return [1, 0, -2, 0]
    coeffs = [0] * (m + 1)
    coeffs[::2] = poly_g(m // 2).coeffs
    return coeffs[::-1]


def _charpoly(b: sympy.Matrix) -> list:
    """sympy's det(xI - b), coefficients descending."""
    return b.charpoly(sympy.Symbol("x")).all_coeffs()


def _path(upper, lower) -> sympy.Matrix:
    """The path with zero diagonal, B[j, j + 1] = upper[j] and B[j + 1, j] = lower[j]."""
    b = sympy.zeros(len(upper) + 1, len(upper) + 1)
    for j, (u, v) in enumerate(zip(upper, lower)):
        b[j, j + 1], b[j + 1, j] = sympy.Rational(u), sympy.Rational(v)
    return b


def test_spectrum_check_reads_the_base_square_charpoly_from_its_continuant(monkeypatch):
    x = sympy.Symbol("x")
    for m in (3, *range(2, 17, 2)):
        a = signed_grid_matrix(m, 1)
        dense = sympy.Matrix(a.to_dense().tolist())
        assert _charpoly(dense) == _det_target(m), m
        assert spectral._det_clause(np.square(a.sign[: m - 1, 1].astype(int)).tolist()), m
        # and so det(yI - B^2) is y (y - 2)^2 for m = 3 and poly_g(m / 2)^2 for even m
        square = IntPolynomial((0, 4, -4, 1)) if m == 3 else poly_g(m // 2) * poly_g(m // 2)
        want = (dense * dense).charpoly(x).all_coeffs()[::-1]
        assert square.coeffs == tuple(int(c) for c in want), m
    start = time.perf_counter()
    assert nonsingularity_check_even(64, 1)  # a path of 128 vertices
    assert time.perf_counter() - start < 5
    # negative control: the clause read on a path whose last link is doubled fails at every k
    true_clause = spectral._det_clause
    monkeypatch.setattr(spectral, "_det_clause", lambda c: true_clause([*c[:-1], 4 * c[-1]]))
    for m, k in [(4, 1), (4, 2), (4, 9), (4, 10**6), (3, 1), (3, 2), (3, 9), (3, 10**6)]:
        r = spectrum_check(m, k)
        target = "x^3 - 2x" if m == 3 else "poly_g(2)(x^2)"
        assert not r.passed and r.proof == f"fails: det(xI - B) = {target}", (m, k)
    assert not nonsingularity_check_even(2, 1) and not nonsingularity_check_even(2, 2)
    assert not charpoly_base_square_check(2)


_NUMBERS = st.one_of(st.integers(-3, 5), st.fractions(-3, 5, max_denominator=7))


@settings(max_examples=60, deadline=None)
@given(st.lists(_NUMBERS, min_size=1, max_size=11))
def test_the_continuant_follows_the_two_step_recurrence(c):
    # q_j = x q_(j-1) - c_(j-2) q_(j-2) gives q_(2j) = (x^2 - c_(2j-2) - c_(2j-3)) q_(2j-2)
    # - c_(2j-3) c_(2j-4) q_(2j-4) and q_2 = x^2 - c_0, for any numbers c
    x = sympy.Symbol("x")
    c = [sympy.Rational(v) for v in c]
    q = [sympy.Integer(1), x]
    for j in range(2, len(c) + 2):
        q.append(sympy.expand(x * q[j - 1] - c[j - 2] * q[j - 2]))
    assert sympy.expand(q[2] - (x**2 - c[0])) == 0
    for j in range(2, (len(c) + 1) // 2 + 1):
        step = (x**2 - c[2 * j - 2] - c[2 * j - 3]) * q[2 * j - 2] - c[2 * j - 3] * c[2 * j - 4] * q[2 * j - 4]
        assert sympy.expand(q[2 * j] - step) == 0, j
    # and q_m is det(xI - B) of the path whose two entries of link j multiply to c_j
    assert sympy.Poly(q[-1], x).all_coeffs() == _charpoly(_path(c, [1] * len(c)))


def _link_arrays(m: int, rng) -> list[tuple[int, ...]]:
    """Every link array with entries in -2..2 for m <= 6; above, the
    builder's kind (+-1) and such arrays with one entry from -2..2."""
    if m <= 6:
        return list(product(range(-2, 3), repeat=m - 1))
    out = []
    for _ in range(12):
        links = rng.choice([-1, 1], size=m - 1)
        out.append(tuple(links.tolist()))
        links[rng.integers(m - 1)] = rng.integers(-2, 3)
        out.append(tuple(links.tolist()))
    return out


def _near_misses(m: int, rng) -> list[list[Fraction]]:
    """Squared links of the base path, all 1, with one change that can break
    one condition of the det clause alone: c_0 moved; c_(2j-3), c_(2j-2)
    moved with their sum kept, which moves the product c_(2j-4) c_(2j-3);
    or c_(2j-4), c_(2j-3) moved with their product kept, which moves the
    sum c_(2j-3) + c_(2j-2).  Integer links cannot do the second: a sum of
    two squares is 2 only as 1 + 1."""
    out = []
    for _ in range(8):
        c = [Fraction(1)] * (m - 1)
        t = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if m <= 3 or rng.integers(3) == 0:
            c[0] = t
        else:
            i = 2 * int(rng.integers(1, m // 2)) - 1  # 2j - 3, for j = 2..m / 2
            if rng.integers(2):
                c[i], c[i + 1] = t, 2 - t
            else:
                c[i - 1], c[i] = 1 / t, t
        out.append(c)
    return out


def test_the_det_clause_holds_exactly_when_the_determinant_is_the_target():
    # sympy's det(xI - B) of each path against the clause on its squared
    # links: link arrays, and rational squares that each condition alone
    # must refuse (tests/mutants.py)
    rng = np.random.default_rng(27)
    for m in (3, *range(2, 17, 2)):
        target, verdicts = _det_target(m), []
        for links in _link_arrays(m, rng):
            holds = _charpoly(_path(links, links)) == target
            assert spectral._det_clause([v * v for v in links]) == holds, (m, links)
            verdicts.append(holds)
        assert any(verdicts) and not all(verdicts), m
        for c in _near_misses(m, rng):
            assert spectral._det_clause(c) == (_charpoly(_path(c, [1] * len(c))) == target), (m, c)


def test_signed_spectrum_reconstruction_from_squares():
    # the closed form splits each square s > 0 evenly into +-sqrt(s)
    for m, k in [(2, 2), (4, 2), (3, 2)]:
        closed = closed_form_spectrum(m, k)
        direct = _eigvalsh(signed_grid_matrix(m, k).to_dense())
        assert multiset_distance(closed.eigenvalues, direct.eigenvalues) <= 1e-9


# --------------------- the certificate of the spectral facts ---------------


def _built_with(monkeypatch, tamper):
    """Make the builder's level-1 or level-2 table, as spectral reads it, tamper(level, a)."""
    build = spectral.signed_grid_matrix
    monkeypatch.setattr(spectral, "signed_grid_matrix", lambda m, k, *args: tamper(k, build(m, k, *args)))


def _flip_entry(a, r, s, mirror=True):
    """a with the entry (r, s), and with mirror (s, r) too, negated."""
    sign = a.sign.copy()
    steps = slot_steps(a.m, a.k)
    for i, j in ((r, s), (s, r)) if mirror else ((r, s),):
        slot = int(np.flatnonzero(steps == j - i)[0])
        assert sign[i, slot] != 0
        sign[i, slot] = -sign[i, slot]
    return _tampered(a, sign)


def _level(a, j):
    """Level j of a's table: its first m^j rows and inner 2j slots."""
    return SignedMatrix(a.sign[: a.m**j, a.k - j : a.k + j], a.m, j)


# (m, k, row, level): row m^(j-1) is the first of block 1 at level j and
# lies outside every lower level, as does row 10 = (1, 0, 1, 0) of [3]^4 at level 3.
_FLIPS = [(3, 4, 10, 3)] + [(m, k, m ** (j - 1), j) for m, k in [(3, 4), (2, 5), (4, 3)] for j in range(2, k + 1)]


@pytest.mark.parametrize("m,k,row,level", _FLIPS)
def test_a_flip_with_its_mirror_fails_the_identity_at_its_level(m, k, row, level):
    # Flipping the row's edge to the next row along axis 0, with its mirror,
    # keeps the support and breaks the square identity first at that level:
    # the table certificate, which spectrum_check does not read beyond level 2.
    a = _flip_entry(signed_grid_matrix(m, k), row, row + 1)
    assert check_support(a, a.graph()) and not square_identity_holds(a)
    assert [square_identity_holds(_level(a, j)) for j in range(2, k + 1)] == [j < level for j in range(2, k + 1)]


def test_a_one_sided_flip_fails_the_support_check():
    for m, k, r in [(3, 4, 10), (4, 3, 0), (2, 5, 16)]:
        a = _flip_entry(signed_grid_matrix(m, k), r, r + 1, mirror=False)
        assert not check_support(a, a.graph()) and not square_identity_holds(a), (m, k)


def test_a_tampered_base_square_charpoly_fails(monkeypatch):
    # poly_g(1) = x - 2 moves every even target; x - 3 in the recurrence moves
    # every one from poly_g(2) on, and leaves poly_g(1) = x - 1, so m = 2 passes
    monkeypatch.setattr(spectral, "_G_SEED", (-2, 1))
    for m, k in [(2, 1), (2, 6), (4, 1), (4, 3), (6, 2)]:
        got = spectrum_check(m, k)
        assert not got.passed and got.proof == f"fails: det(xI - B) = poly_g({m // 2})(x^2)", (m, k)
    assert not nonsingularity_check_even(2, 3) and not charpoly_base_square_check(1)
    with pytest.raises(CertificateError):
        min_positive_eig_even(2, 3)
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "_X_MINUS_2", IntPolynomial((-3, 1)))
    for m, k in [(4, 1), (4, 3), (6, 2)]:
        got = spectrum_check(m, k)
        assert not got.passed and got.proof == f"fails: det(xI - B) = poly_g({m // 2})(x^2)", (m, k)
    assert spectrum_check(2, 6).passed and charpoly_base_square_check(1) and not charpoly_base_square_check(2)


def _off_the_path(level, a):
    # the entry (0, -1), on row 0's absent down slot, which a dense index
    # wraps to (0, m - 1): at odd distance for even m, so DB + BD = 0 holds
    if level == 1:
        a.sign[0, 0] = 1
    return a


def _one_sided(level, a):
    return _flip_entry(a, 1, 0, mirror=False) if level == 1 else a  # B[1, 0] = -B[0, 1]


def _not_alternating(level, a):
    if level == 2:  # diagonal block 1 keeps block 0's sign: D = diag(+1, +1, +1, -1)
        a.sign[a.m : 2 * a.m, 1:3] *= -1
    return a


def _doubled(level, a):
    if level == 2:  # 2D ⊗ B + B ⊗ I: D = 2 diag(+1, -1, ...) still anticommutes with B
        a.sign[:, 1:3] *= 2
    return a


def _not_the_step(level, a):
    # the link of row (1, 2) to row (2, 2), with its mirror: D is read at c = 0 and keeps its signs
    return _flip_entry(a, a.m + 2, 2 * a.m + 2) if level == 2 else a


@pytest.mark.parametrize("k", [2, 9, 10**6])
@pytest.mark.parametrize(
    "tamper,clause",
    [
        (_off_the_path, "check_support"),
        (_one_sided, "check_support"),
        (_not_alternating, "DB + BD = 0"),
        (_doubled, "D^2 = I"),
        (_not_the_step, "A_2 = D ⊗ B + B ⊗ I"),
    ],
)
def test_each_clause_of_the_lemma_has_a_negative_control(monkeypatch, tamper, clause, k):
    # Each tamper passes every clause of the lemma but its own, so dropping
    # that clause would let spectrum_check pass it (tests/mutants.py).
    _built_with(monkeypatch, tamper)
    got = spectrum_check(4, k)
    assert not got.passed and got.proof == f"fails: {clause}"
    assert got.zero_multiplicity is None and got.min_positive is None
    assert not base_certificate(4)
    with pytest.raises(CertificateError):
        min_positive_eig_even(2, k)


@pytest.mark.parametrize("m,k", [(3, 10), (2, 16)])
def test_spectrum_check_at_the_grid_cap(m, k):
    got = spectrum_check(m, k)
    assert got.passed and "A_2 = D ⊗ B + B ⊗ I" in got.proof
    assert (got.zero_multiplicity, got.min_positive) == ((1, SQRT2) if m == 3 else (0, math.sqrt(k)))


def test_spectrum_check_far_past_the_grid_cap():
    # the counting formula at k = 10^6: for m = 3, 0 once and sqrt(2); for
    # even m, no zero and sqrt(k beta(m / 2)), with beta(1) = 1
    k = 10**6
    for m in (2, 3, 4, 16):
        got = spectrum_check(m, k)
        want = (1, SQRT2) if m == 3 else (0, math.sqrt(k * beta(m // 2)))
        assert got.passed and (got.zero_multiplicity, got.min_positive) == want, m
    assert odd3_spectrum_check(k) == spectrum_check(3, k)
    assert nonsingularity_check_even(2, k) and min_positive_eig_even(1, k) == 1000.0


def test_spectrum_check_holds_nothing_of_the_size_of_the_square(monkeypatch):
    # The lemma reads the level-1 and level-2 tables alone, for any k, and
    # the level-1 table alone for k = 1.
    build = spectral.signed_grid_matrix
    levels = []
    monkeypatch.setattr(spectral, "signed_grid_matrix", lambda m, k, *args: levels.append(k) or build(m, k, *args))
    for m, k in [(2, 3), (2, 12), (3, 10), (4, 9), (16, 10**6), (512, 1)]:
        levels.clear()
        assert spectrum_check(m, k).passed
        assert levels == ([1] if k == 1 else [1, 2]), (m, k)


_CROSS_CHECKED = sorted(
    {(m, k) for m in (2, 3, 4, 6, 8) for k in range(1, 11) if m**k <= 1296}
    | {(2, 12), (4, 6), (64, 1), (128, 1), (512, 1)}
)


@pytest.mark.parametrize("m,k", _CROSS_CHECKED)
def test_certified_facts_match_signed_spectra_and_eigvalsh(m, k):
    got = spectrum_check(m, k)
    a = signed_grid_matrix(m, k)
    (solved,) = signed_spectra(a)
    dense = _eigvalsh(a.to_dense())
    assert got.passed
    for rep in (solved, dense):
        assert got.zero_multiplicity == rep.zero_multiplicity, (m, k)
        assert got.min_positive == pytest.approx(rep.min_positive, abs=1e-9), (m, k)


def test_the_fact_readers_call_no_solver_and_no_closed_form(monkeypatch):
    from pathpower.report import _check_even_spectra, _check_odd3_spectra

    def no_solve(*args, **kwargs):
        raise AssertionError("a spectral fact was read from a solve or from the closed form")

    for name in ("signed_spectra", "closed_form_spectrum"):
        monkeypatch.setattr(spectral, name, no_solve)
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_solve)
    assert spectrum_check(3, 4).passed and spectrum_check(4, 3).passed
    assert odd3_spectrum_check(5).zero_multiplicity == 1
    assert min_positive_eig_even(2, 3) == pytest.approx(math.sqrt(3 * beta(2)), abs=1e-12)
    assert nonsingularity_check_even(3, 2)
    for check in (_check_odd3_spectra, _check_even_spectra):
        assert check({"max_size": 729})[0]


# ------------------------- base certificate and closed form -----------------


@pytest.mark.parametrize("m", [3, 2, 4, 6, 8, 10, 12, 14, 16])
def test_base_certificate_holds_for_the_builder(m):
    assert base_certificate(m)
    b, a2 = signed_grid_matrix(m, 1), signed_grid_matrix(m, 2)
    dense_b, d = b.to_dense(), np.array([(-1) ** a for a in range(m)])
    assert np.array_equal(b.sign[: m - 1, 1], d[:-1])
    # the lemma's table of the block step, against the dense Kronecker products
    step = spectral._block_step_table(b.sign[: m - 1, 1], d)
    assert np.array_equal(a2.sign, step)
    assert np.array_equal(a2.to_dense(), np.kron(np.diag(d), dense_b) + np.kron(dense_b, np.eye(m, dtype=np.int64)))


def test_base_certificate_negative_controls():
    b, a2 = signed_grid_matrix(4, 1), signed_grid_matrix(4, 2)
    assert base_certificate_holds(b, a2)
    for tamper in (_off_the_path, _one_sided, _not_alternating, _doubled, _not_the_step):
        assert not base_certificate_holds(tamper(1, _tampered(b, b.sign.copy())), tamper(2, _tampered(a2, a2.sign.copy())))

    # Not a negative control: every signing of a path anticommutes with the
    # alternating D and has the path's spectrum, so B with a flipped link
    # passes with the level-2 table of its own block step.
    flipped = _flip_entry(b, 1, 2)
    step = spectral._block_step_table(flipped.sign[:3, 1], np.array([1, -1, 1, -1])).astype(np.int8)
    assert base_certificate_holds(flipped, _tampered(a2, step))
    assert not base_certificate_holds(flipped, a2)


def test_base_certificate_reads_d_from_the_builder(monkeypatch):
    _built_with(monkeypatch, _not_alternating)
    assert np.array_equal(spectral.signed_grid_matrix(4, 2).sign[::4, 2], [1, 1, 1, -1])  # D[a, a] B[0, 1]
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
    for m, k in [(2, 17), (3, 11), (4, 9)]:  # just over the fixed cap of 65,536 vertices
        with pytest.raises(SizeCapError):
            closed_form_spectrum(m, k)
    for m, k in [(2, 16), (4, 8), (16, 4), (256, 2)]:  # exactly at it
        assert closed_form_spectrum(m, k).dim == 65536
    for m, k in [(5, 2), (1, 2), (3, 0)]:
        with pytest.raises(ValueError):
            closed_form_spectrum(m, k)


def test_size_caps_refuse_before_densifying(monkeypatch):
    from pathpower.cli import main

    def no_densify(*args, **kwargs):
        raise AssertionError("densified or allocated for an input above its cap")

    monkeypatch.setattr(SignedMatrix, "to_dense", no_densify)
    monkeypatch.setattr(np, "zeros", no_densify)  # no slot table is built either
    for call in (
        lambda: spectrum_check(512, 2),  # the level-2 table of m^2 rows
        lambda: spectrum_check(2**17, 1),
        lambda: square_compose_check(2, 13),
    ):
        with pytest.raises(SizeCapError):
            call()
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--m", "2", "--k", "13"])
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


@st.composite
def _grid_and_mixed_stack(draw):
    """A stack of sets of a few sizes from 1 to 20, so that each size group
    holds blocks of several shapes (p, q), padded to the group's largest."""
    m, k = draw(st.sampled_from([(3, 2), (4, 2), (2, 4), (3, 3), (2, 6), (4, 3)]))
    n = m**k
    sizes = draw(st.lists(st.integers(1, min(20, n)), min_size=1, max_size=3))
    one_set = st.sampled_from(sizes).flatmap(lambda s: st.sets(st.integers(0, n - 1), min_size=s, max_size=s))
    return m, k, draw(st.lists(one_set, min_size=1, max_size=24))


@settings(max_examples=80)
@given(_grid_and_mixed_stack())
@example((2, 4, [{0, 1, 3, 7}, {1, 2, 3, 7}]))  # size 4 as (p, q) = (2, 2) and (3, 1)
def test_padded_stacks_match_eigvalsh_of_each_submatrix(case):
    m, k, rank_sets = case
    a = signed_grid_matrix(m, k)
    sets = [VertexSet(m, k, ranks=r) for r in rank_sets]
    for s, rep in zip(sets, signed_spectra(a, sets), strict=True):
        want = np.linalg.eigvalsh(principal_submatrix(a, s).astype(float))
        assert rep.dim == len(s)
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12
        assert rep.zero_multiplicity == np.count_nonzero(np.abs(want) < spectral.DEFAULT_GROUP_TOL)
        # +-sigma of the block's own q columns, and its p - q zeros exactly:
        # a padded row or column adds no sigma of its own
        ones = sum(_colour(m, r) for r in s)
        assert rep.eigenvalues.count(0.0) >= abs(len(s) - 2 * ones)


def test_a_stack_is_solved_once_per_size(monkeypatch):
    # [3]^2: ranks 0, 2, 4, 6, 8 have even digit sums, 1, 3, 5, 7 odd.  The
    # three sets of size 4 have (p, q) = (2, 2), (3, 1) and (4, 0), and are
    # padded to (4, 2) for one solve; the singleton needs none.
    a = signed_grid_matrix(3, 2)
    rank_sets = [[0, 1, 3, 4], [4], [0, 1, 2, 4], [1, 3, 4, 5, 7], [0, 2, 4, 6]]
    shapes = _eigh_blocks(monkeypatch)
    reps = signed_spectra(a, [VertexSet(3, 2, ranks=r) for r in rank_sets])
    assert shapes == [(3, 4, 4), (1, 4, 4)]
    for r, rep in zip(rank_sets, reps):
        want = np.linalg.eigvalsh(principal_submatrix(a, VertexSet(3, 2, ranks=r)).astype(float))
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12
    assert reps[4].eigenvalues == (0.0,) * 4 and reps[1].eigenvalues == (0.0,)


@pytest.mark.parametrize("n", [32, 64, 256])
def test_spectrum_check_of_long_even_paths_matches_eigvalsh(n):
    # the smallest singular value of the path on 2n vertices falls to 6e-3 at n = 256
    a = signed_grid_matrix(2 * n, 1)
    r = spectrum_check(2 * n, 1)
    want = np.linalg.eigvalsh(a.to_dense().astype(float))
    assert r.passed and r.min_positive == pytest.approx(want[n], abs=1e-9)
    (solved,) = signed_spectra(a)
    assert np.max(np.abs(np.array(solved.eigenvalues) - want)) <= 1e-9


def test_spectrum_check_at_the_eigensolver_cap():
    for m, k in [(2, 12), (4, 6)]:
        assert spectrum_check(m, k).passed
        (solved,) = signed_spectra(signed_grid_matrix(m, k))
        assert solved.dim == spectral.DEFAULT_EIG_DIM_CAP
        distance = multiset_distance(solved.eigenvalues, closed_form_spectrum(m, k).eigenvalues)
        assert distance <= spectral.DEFAULT_GROUP_TOL


@st.composite
def _grid_and_set(draw):
    m, k = draw(st.sampled_from([(3, 3), (4, 2), (2, 5)]))
    return m, k, draw(st.sets(st.integers(0, m**k - 1), min_size=1))


@settings(max_examples=60)
@given(_grid_and_set())
@example((4, 2, {0, 1, 2, 5, 7, 12, 14}))  # C of rank 1 with two zero singular values
@example((3, 3, {0, 2, 6, 8, 13}))  # C with no entry: the centre's neighbours are all left out
def test_principal_submatrices_match_exact_rank_and_eigvalsh(case):
    sympy = pytest.importorskip("sympy")
    m, k, ranks = case
    a = signed_grid_matrix(m, k)
    s = VertexSet(m, k, ranks=ranks)
    (rep,) = signed_spectra(a, [s])
    dense = principal_submatrix(a, s)
    assert rep.zero_multiplicity == len(s) - sympy.Matrix(dense.tolist()).rank()
    assert np.max(np.abs(np.array(rep.eigenvalues) - np.linalg.eigvalsh(dense.astype(float)))) <= 1e-9


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
    # the one dense solve is eigh of a Gram stack C C^T (g, p, p), never of an
    # n x n signed matrix; svd, eigvalsh, eig and qr never run
    from pathpower.report import DEFAULT_SEED, _check_degree_eigenvalue_chain, run_verify_all
    from pathpower.search import degree_bound_check

    solve = np.linalg.eigh

    def gram_only(k, *args, **kwargs):
        assert np.ndim(k) == 3 and k.shape[1] == k.shape[2], np.shape(k)
        diag = np.diagonal(k, axis1=1, axis2=2)
        # integral, symmetric and |K_ij| <= sqrt(K_ii K_jj); a signed matrix has a zero diagonal
        assert np.array_equal(k, np.round(k)) and np.array_equal(k, k.transpose(0, 2, 1))
        assert np.all(k * k <= diag[:, :, None] * diag[:, None, :])
        return solve(k, *args, **kwargs)

    def no_solve(*args, **kwargs):
        raise AssertionError("a signed matrix went to a solver other than eigh of its Gram stack")

    monkeypatch.setattr(np.linalg, "eigh", gram_only)
    for name in ("svd", "eigvalsh", "eig", "qr"):
        monkeypatch.setattr(np.linalg, name, no_solve)
    report = run_verify_all()
    assert report.passed, [(c.name, c.details) for c in report.checks if not c.passed]
    assert odd3_spectrum_check(6).passed
    assert min_positive_eig_even(2, 3) == pytest.approx(math.sqrt(3 * beta(2)), abs=1e-8)
    assert nonsingularity_check_even(2, 2)
    assert square_compose_check(4, 3)[0]
    for stub in (spectral.eigenvalues_sym, spectral.charpoly_exact):
        with pytest.raises(NotImplementedError):
            stub(np.eye(2))
    ok, details = _check_degree_eigenvalue_chain({"max_size": 729, "seed": DEFAULT_SEED})
    assert ok and [row[2] for row in details["rows"]] == [200, 200, 200]
    assert degree_bound_check(signed_grid_matrix(3, 2), VertexSet(3, 2, ranks=[0, 1, 2, 4, 6, 8]))


def _tampered(a, sign):
    return SignedMatrix(sign, a.m, a.k)


def _resigned(a, vals):
    """a with its stored entries, in entries() order, replaced by vals."""
    sign = a.sign.copy()
    sign[sign != 0] = vals
    return _tampered(a, sign)


def test_signed_spectra_reject_a_matrix_that_is_not_signed_bipartite():
    # Tampers that a slot table can hold; those it cannot (extra entries off
    # the slots, duplicated, unsorted or reversed storage, negative indices)
    # are refused by read_matrix_market in test_signed.py.
    not_signed = "not a signed adjacency matrix"
    a = signed_grid_matrix(4, 2)
    # Ranks 3 = (3, 0) and 4 = (0, 1) of [4]^2 differ by 1 across a digit
    # carry, and both have odd digit sums.
    carry = a.sign.copy()
    carry[3, 2], carry[4, 1] = 1, 1
    assert _tampered(a, carry).entry(3, 4) == _tampered(a, carry).entry(4, 3) == 1
    with pytest.raises(ValueError, match=not_signed):
        signed_spectra(_tampered(a, carry))

    a = signed_grid_matrix(3, 2)
    rows, cols, vals = a.entries()
    flipped = vals.copy()
    flipped[0] = -flipped[0]
    edge = ((rows == 0) & (cols == 1)) | ((rows == 1) & (cols == 0))
    twos = np.where(edge, 2 * vals, vals)
    for sign in (_resigned(a, flipped).sign, _resigned(a, twos).sign):
        with pytest.raises(ValueError, match=not_signed):
            signed_spectra(_tampered(a, sign))
    one_way, boundary = a.sign.copy(), a.sign.copy()
    one_way[0, 2] = 0  # (0, 1) is gone, (1, 0) stays
    boundary[0, 1] = 1  # steps down from rank 0, off the grid
    wrong_shape = np.vstack((a.sign, a.sign[:1]))
    for sign in (one_way, boundary, wrong_shape, a.sign[:, 1:-1]):
        with pytest.raises(ValueError, match=not_signed):
            signed_spectra(_tampered(a, sign))


def _eigh_blocks(monkeypatch):
    """The shapes of the stacks passed to numpy.linalg.eigh from now on."""
    shapes, solve = [], np.linalg.eigh

    def recorded(k, *args, **kwargs):
        shapes.append(np.shape(k))
        return solve(k, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@pytest.mark.parametrize("m,k,largest", [(3, 7, 128), (4, 5, 32), (2, 9, 1), (6, 3, 27)])
def test_a_whole_matrix_is_solved_one_parity_component_at_a_time(monkeypatch, m, k, largest):
    # A_k^2 = I ⊗ A_(k-1)^2 + B^2 ⊗ I keeps every digit's parity, so K = C C^T
    # splits into blocks of at most ceil(m / 2)^k rows; each row is solved once
    shapes = _eigh_blocks(monkeypatch)
    (rep,) = signed_spectra(signed_grid_matrix(m, k))
    assert rep.dim == m**k
    assert max(r for _, r, _ in shapes) == largest == -(-m // 2) ** k
    assert sum(g * r for g, r, _ in shapes) == (m**k + 1) // 2


def _flip_pair(a, i, j):
    rows, cols, vals = a.entries()
    hit = ((rows == i) & (cols == j)) | ((rows == j) & (cols == i))
    return _resigned(a, np.where(hit, -vals, vals))


def test_the_split_follows_the_computed_gram_pattern(monkeypatch):
    # one flipped edge balances the squares through it, so their two-step
    # paths no longer cancel and K joins parity classes that Huang's signing keeps apart
    a = _flip_pair(signed_grid_matrix(3, 4), 0, 1)
    assert check_support(a, a.graph())
    want, fro = _eigvalsh_and_norm(a.to_dense())
    shapes = _eigh_blocks(monkeypatch)
    (rep,) = signed_spectra(a)
    assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro
    assert max(r for _, r, _ in shapes) > 2**4 and sum(g * r for g, r, _ in shapes) == 41


@st.composite
def _resigned_edge(draw):
    m, k = draw(st.sampled_from([(3, 3), (3, 4), (4, 3), (2, 5), (6, 2)]))
    return m, k, draw(st.integers(0, 2 * k * (m - 1) * m ** (k - 1) - 1))  # a stored entry


@settings(max_examples=40, deadline=None)
@given(_resigned_edge())
@example((6, 2, 0))  # K is one component with a dead pair, whose column of V is zero
def test_single_edge_resignings_match_eigvalsh(case):
    m, k, entry = case
    a = signed_grid_matrix(m, k)
    rows, cols, _ = a.entries()
    b = _flip_pair(a, int(rows[entry]), int(cols[entry]))
    want, fro = _eigvalsh_and_norm(b.to_dense())
    (rep,) = signed_spectra(b)
    assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro


def test_a_dead_pair_keeps_the_split(monkeypatch):
    # the balanced [2]^4 splits into two components with a dead pair each, and
    # a re-signed [6]^2 has one component: each is solved once, as it splits
    cases = [(_balanced_factors(), [(2, 4, 4)]), (_flip_pair(signed_grid_matrix(6, 2), 0, 1), [(1, 18, 18)])]
    for b, want_shapes in cases:
        shapes = _eigh_blocks(monkeypatch)
        (rep,) = signed_spectra(b)
        want, fro = _eigvalsh_and_norm(b.to_dense())
        assert shapes == want_shapes and rep.zero_multiplicity > 0
        assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro


@st.composite
def _full_resigning(draw):
    m, k = draw(st.sampled_from([(3, 3), (4, 2), (2, 4), (2, 5)]))
    return m, k, draw(st.integers(0, 2 ** (k * (m - 1) * m ** (k - 1)) - 1))  # bit e: edge e is -1


@settings(max_examples=40, deadline=None)
@given(_full_resigning())
@example((2, 4, 0x2B2B000))  # _balanced_factors: two components, a dead pair in each
@example((2, 4, 2303770747))  # two components, a dead pair in one
def test_full_resignings_match_eigvalsh_and_exact_rank(case):
    # every mirrored edge pair signed at random: K may split into components
    # that leave dead pairs, and each matrix is still solved once
    m, k, mask = case
    a = signed_grid_matrix(m, k)
    rows, cols, _ = a.entries()
    _, edge = np.unique(np.minimum(rows, cols) * a.dim + np.maximum(rows, cols), return_inverse=True)
    signs = np.array([1 - 2 * (mask >> e & 1) for e in range(edge.max() + 1)])
    b = _resigned(a, signs[edge])
    assert check_support(b, b.graph())
    dense = b.to_dense()
    want, fro = _eigvalsh_and_norm(dense)
    (rep,) = signed_spectra(b)
    assert np.max(np.abs(np.array(rep.eigenvalues) - want)) <= 1e-12 * fro
    assert rep.zero_multiplicity == b.dim - sympy.Matrix(dense.tolist()).rank()


def test_a_labelling_that_cuts_a_component_fails_the_contract(monkeypatch):
    label_rows = spectral._gram_components

    def cut(*args):
        label = label_rows(*args)
        nodes = np.flatnonzero(label == np.bincount(label).argmax())
        label[nodes[len(nodes) // 2 :]] = nodes[len(nodes) // 2]
        return label

    a = signed_grid_matrix(3, 3)
    monkeypatch.setattr(spectral, "_gram_components", cut)
    with pytest.raises(EigenSolveError):
        signed_spectra(a)
    _svd_tampered_by(monkeypatch, _cut_in_half)  # a stack's blocks are each one component
    with pytest.raises(EigenSolveError):
        signed_spectra(a, [VertexSet(3, 3, ranks=range(27)), VertexSet(3, 3, ranks=range(9))])


def _svd_tampered_by(monkeypatch, tamper):
    """Pass the factors of every solve, copied, through tamper(factors, parts)."""
    solve = spectral._gram_svd

    def gram_svd(parts):
        return tamper([spectral._Factors(*(f.copy() for f in part)) for part in solve(parts)], parts)

    monkeypatch.setattr(spectral, "_gram_svd", gram_svd)


_GRAM_SVD = spectral._gram_svd  # the unpatched solve, for tampers that solve anew


def _cut_in_half(factors, parts):
    """Each stack block's one component cut into its first half of rows and
    the rest, every column kept (N_c = all rows, R_c first), and solved anew."""
    (part,) = parts
    comp, i, j, v = part.entries
    p, half = part.r, part.r // 2
    parts[:] = [
        spectral._Part(part.block, part.rows[:, lo:hi], part.cols, hi - lo, p, (comp, (i - lo) % p, j, v))
        for lo, hi in ((0, half), (half, p))
    ]
    return _GRAM_SVD(parts)


def _column(factors, largest):
    """(part, component, column) of the column with the largest sigma, or
    with the smallest (each solve in these tests holds one block)."""
    at = [(sv, i, c, t) for i, f in enumerate(factors) for (c, t), sv in np.ndenumerate(f.sv)]
    _, i, c, t = (max if largest else min)(at)
    return i, c, t


def _shift_sigma(factors, parts):
    i, c, t = _column(factors, True)
    factors[i].sv[c, t] += 1e-6
    return factors


def _shift_pair_vector(factors, parts):
    i, c, t = _column(factors, True)
    factors[i].x[c, 0, t] += 1e-6
    return factors


def _shift_zero_vector(factors, parts):
    i, c, t = _column(factors, False)  # a dead column: part of the kernel of C^T when p > q
    factors[i].x[c, 0, t] += 1e-6
    return factors


def _drop_zero_vector(factors, parts):
    i, _, t = _column(factors, False)
    keep = np.arange(factors[i].sv.shape[1]) != t
    x, sv, v = factors[i]
    factors[i] = spectral._Factors(x[:, :, keep], sv[:, keep], v[:, :, keep])
    return factors


def _drop_last_part(factors, parts):
    return factors[:-1]


@pytest.mark.parametrize(
    "tamper", [_shift_sigma, _shift_pair_vector, _shift_zero_vector, _drop_zero_vector, _drop_last_part]
)
def test_signed_spectra_contract_negative_controls(monkeypatch, tamper):
    a = signed_grid_matrix(3, 3)  # p = 14, q = 13: one zero pair
    shapes = _eigh_blocks(monkeypatch)
    assert signed_spectra(a)[0].zero_multiplicity == 1
    assert max(r for _, r, _ in shapes) == 8  # the whole matrix is a split solve
    _svd_tampered_by(monkeypatch, tamper)
    with pytest.raises(EigenSolveError):
        signed_spectra(a)
    with pytest.raises(EigenSolveError):
        signed_spectra(a, [VertexSet(3, 3, ranks=range(27)), VertexSet(3, 3, ranks=range(9))])


def _drop_live_column(factors, parts):
    # x = 0, sigma = 0 and v = 0 leave every residual 0 and V^T V = diag(live),
    # but the column's sigma is lost from the spectrum
    i, c, t = _column(factors, True)
    for f in factors[i]:
        f[c, ..., t] = 0.0
    return factors


def test_a_live_column_left_out_fails_the_reconstruction(monkeypatch):
    a = signed_grid_matrix(3, 3)
    _svd_tampered_by(monkeypatch, _drop_live_column)
    with pytest.raises(EigenSolveError, match="reconstruction"):
        signed_spectra(a)
    with pytest.raises(EigenSolveError, match="reconstruction"):
        signed_spectra(a, [VertexSet(3, 3, ranks=range(27)), VertexSet(3, 3, ranks=range(9))])


def test_the_components_must_hold_each_row_once(monkeypatch):
    # one row of C given twice and another never: residuals, reconstruction
    # and V^T V all pass, but one sigma of the block would be lost
    split = spectral._gram_parts

    def repeated(*args, **kwargs):
        parts = split(*args, **kwargs)
        part = next(part for part in parts if part.r > 1)
        part.rows[0, 1] = part.rows[0, 0]
        return parts

    a = signed_grid_matrix(3, 3)
    monkeypatch.setattr(spectral, "_gram_parts", repeated)
    with pytest.raises(EigenSolveError, match="each row"):
        signed_spectra(a)
    _svd_tampered_by(monkeypatch, _repeat_a_row)  # a stack never enters _gram_parts
    with pytest.raises(EigenSolveError, match="each row"):
        signed_spectra(a, [VertexSet(3, 3, ranks=range(27)), VertexSet(3, 3, ranks=range(9))])


def _repeat_a_row(factors, parts):
    (part,) = parts  # the stack's blocks of one shape, each one component of all p rows
    part.rows[0, 1] = part.rows[0, 0]
    return factors


def test_only_a_whole_matrix_is_split_into_components(monkeypatch):
    # a stack's blocks are each one component, so only a whole matrix enters
    # _gram_parts, once; both are solved by _gram_svd
    calls, split, solve = [], spectral._gram_parts, spectral._gram_svd
    monkeypatch.setattr(spectral, "_gram_parts", lambda *args: calls.append("parts") or split(*args))
    monkeypatch.setattr(spectral, "_gram_svd", lambda parts: calls.append(len(parts)) or solve(parts))
    a = signed_grid_matrix(4, 2)
    sets = [VertexSet(4, 2, ranks=range(16)), VertexSet(4, 2, ranks=[0, 1, 5]), VertexSet(4, 2, ranks=[2, 3, 6])]
    stacked = signed_spectra(a, sets)
    assert calls == [1, 1]  # sizes 16 and 3, one part each
    calls.clear()
    (whole,) = signed_spectra(a)
    assert calls[0] == "parts" and len(calls) == 2
    for rep, s in zip([whole, *stacked], [sets[0], *sets]):
        assert multiset_distance(rep.eigenvalues, _eigvalsh(principal_submatrix(a, s)).eigenvalues) <= 1e-12


def test_the_left_residual_counts_the_rows_outside_a_component(monkeypatch):
    # A_5^2 = 5I on [2]^5, so K = 5I: each row i of C is a component, sigma =
    # sqrt(5), and each column j of S_c = the 5 neighbours of i touches 4 rows
    # outside R_c = {i}.  Moving v_j by delta moves the pair's residual by
    # sqrt((sigma^2 + 1) / 2) delta on the rows R_c, within the contract, and
    # by sqrt((sigma^2 + 5) / 2) delta with the rows N_c \ R_c, beyond it.
    a = signed_grid_matrix(2, 5)
    tol = spectral.DEFAULT_RESIDUAL_TOL * math.sqrt(a.nnz)  # ||A||_F of a +-1 matrix
    inside, everywhere = math.sqrt((5 + 1) / 2), math.sqrt((5 + 5) / 2)
    delta = 2 * tol / (inside + everywhere)
    assert inside * delta < 0.95 * tol and everywhere * delta > 1.05 * tol
    assert 2 * delta / math.sqrt(5) < spectral.DEFAULT_RECON_TOL  # V^T V moves by less than its bound

    def nudge(factors, parts):
        (f,) = factors
        assert f.x.shape[1:] == (1, 1) and f.v.shape[1] == 5
        f.v[0, 0, 0] += delta
        return factors

    _svd_tampered_by(monkeypatch, nudge)
    with pytest.raises(EigenSolveError, match="eigenpair residual"):
        signed_spectra(a)


def _kernel_vector_in_dead_column(factors, parts):
    # a unit vector k of the kernel of C[N_c, S_c] as the v of a dead column:
    # C k = 0 and sigma is rounding, so residuals and reconstruction do not move
    for part, f in zip(parts, factors):
        near = part.c(part.n)
        for c, t in np.argwhere(f.sv <= spectral.DEFAULT_GROUP_TOL):
            kernel = scipy.linalg.null_space(near[c])
            if kernel.shape[1]:
                f.v[c, :, t] = kernel[:, 0]
                return factors
    raise AssertionError("no dead column with a kernel vector of C on its columns")


def test_right_vectors_must_be_orthonormal(monkeypatch):
    # C is 4 x 3 of rank 1: rows 0, 2, 5, 7 (one zero pair) and columns 1, 12, 14,
    # the last two adjacent to no row, so sigma(C) holds two zeros
    a = signed_grid_matrix(4, 2)
    s = VertexSet(4, 2, ranks=[0, 1, 2, 5, 7, 12, 14])
    (rep,) = signed_spectra(a, [s])
    assert rep.zero_multiplicity == 7 - 2 and rep.eigenvalues[-1] == pytest.approx(math.sqrt(3), abs=1e-12)
    _svd_tampered_by(monkeypatch, _kernel_vector_in_dead_column)
    with pytest.raises(EigenSolveError, match="orthonormal"):
        signed_spectra(a, [s])


def _balanced_factors():
    """[2]^4 as two balanced 4-cycles, the low one's edges signed by the high
    one's digit parity: A = A_hi ⊗ I + S ⊗ A_lo, so A^2 = A_hi^2 ⊗ I + I ⊗ A_lo^2."""
    a = signed_grid_matrix(2, 4)
    rows, cols, _ = a.entries()
    low = (rows ^ cols) < 4
    high_parity = np.array([bin(r >> 2).count("1") % 2 for r in rows.tolist()])
    return _resigned(a, np.where(low, 1 - 2 * high_parity, 1))


def test_right_vectors_must_be_orthonormal_in_a_split_solve(monkeypatch):
    # each 4-cycle squared has 0 twice, so A has 4 zeros: C is 8 x 8 with two
    # zero singular values, and K splits into two components of 4 rows, each
    # with a dead column and all 8 columns of C in S_c
    a = _balanced_factors()
    assert check_support(a, a.graph())
    shapes = _eigh_blocks(monkeypatch)
    (rep,) = signed_spectra(a)
    assert rep.zero_multiplicity == 4 and shapes == [(2, 4, 4)]
    _svd_tampered_by(monkeypatch, _kernel_vector_in_dead_column)
    with pytest.raises(EigenSolveError, match="orthonormal"):
        signed_spectra(a)


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
