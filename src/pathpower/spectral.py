"""Integer polynomial recurrences, root isolation, and spectral verifiers.

Exact layer: the polynomial family p_j = (x - 2) p_(j-1) - p_(j-2) with two
seed choices (poly_f, poly_g), and characteristic polynomials (and so
determinants) by the Faddeev-LeVerrier recurrence in Python integers.

Root isolation: the closed-form roots of poly_g(n) place rational cut points
between them; exact integer signs at the cuts prove one root per interval,
and an exact rational bisection narrows the first to the smallest root.

Numerical layer: one dense solver, signed_spectra.  The grid is bipartite
by digit-sum parity, so a signed matrix is [[0, C], [C^T, 0]] after a
parity permutation, and its spectrum is +-sigma(C) plus a zero for each row
C has beyond its column count.  One SVD of the half-size block C, batched
over all blocks of one shape and held to a residual contract, solves a
signed matrix or any of its principal submatrices.  base_certificate proves
the spectrum of every level exactly, so closed_form_spectrum lists it with
no solve.  spectrum_check solves A(m, k) once and compares it once with the
closed form; odd3_spectrum_check, min_positive_eig_even,
nonsingularity_check_even and square_compose_check read that one check.
The squares of its spectrum are the spectrum of A^2 = C C^T + C^T C (a
direct sum under the parity permutation), so A^2 needs no solve of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import factorial, pi, sin, sqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import BracketingError, DimensionMismatchError, EigenSolveError, SizeCapError
from .grid import DEFAULT_SIZE_CAP, VertexSet
from .signed import SignedMatrix, check_signed_params, check_support, signed_grid_matrix

# The thresholds of every spectral verdict, fixed so that no caller can loosen one.
DEFAULT_RESIDUAL_TOL = 1e-10  # eigenpair residual, relative to ||A||_F
DEFAULT_RECON_TOL = 1e-9  # reconstruction defect, relative to ||A||_F
DEFAULT_GROUP_TOL = 1e-8  # zero grouping, symmetry, interlacing and closed-form comparisons
SQUARE_SPECTRUM_TOL = 1e-7  # the squared spectrum against its composition
DEFAULT_EIG_DIM_CAP = 4096


# -------------------------- exact polynomials ------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = list(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        # From a list: tuple() of a generator builds by resizing, bypassing the
        # tuple free lists that it is later freed to, so those lists would grow
        # (up to ~2 MB in a verify-all loop) until the next full collection.
        object.__setattr__(self, "coeffs", tuple([int(v) for v in c]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return IntPolynomial(tuple(out))

    def evaluate(self, x):
        """Horner evaluation; works for int, float, or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


_X_MINUS_2 = IntPolynomial((-2, 1))
_F_SEED = (-2, 1)  # poly_f(1) = x - 2
_G_SEED = (-1, 1)  # poly_g(1) = x - 1


def _recurrence_terms(seed1: tuple[int, ...]) -> Iterator[IntPolynomial]:
    """p_0 = 1, p_1 = seed1, then p_j = (x - 2) p_(j-1) - p_(j-2), without end."""
    p_prev, p = IntPolynomial((1,)), IntPolynomial(seed1)
    yield p_prev
    while True:
        yield p
        p_prev, p = p, _X_MINUS_2 * p - p_prev


def _recurrence(n: int, seed1: tuple[int, ...]) -> IntPolynomial:
    return next(islice(_recurrence_terms(seed1), n, None))


def poly_f(n: int) -> IntPolynomial:
    """Family member with seeds 1 and x - 2."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _recurrence(n, _F_SEED)


def poly_g(n: int) -> IntPolynomial:
    """Family member with seeds 1 and x - 1; its square is the
    characteristic polynomial of the squared even base matrix."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _recurrence(n, _G_SEED)


def fg_identity_check(n: int) -> bool:
    """Coefficientwise check that poly_g(n) = poly_f(n) + poly_f(n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return poly_g(n) == poly_f(n) + poly_f(n - 1)


def fg_identity_failures(n_max: int) -> list[int]:
    """The n in 1..n_max where fg_identity_check(n) fails, from one walk of
    both recurrences instead of rebuilding them for each n."""
    f_terms, g_terms = _recurrence_terms(_F_SEED), _recurrence_terms(_G_SEED)
    f_prev = next(f_terms)
    next(g_terms)
    failures = []
    for n in range(1, n_max + 1):
        f, g = next(f_terms), next(g_terms)
        if g != f + f_prev:
            failures.append(n)
        f_prev = f
    return failures


# ----------------------------- root isolation ------------------------------


def _sign_at_rational(coeffs: Sequence[int], num: int, den: int) -> int:
    """Exact sign of p(num/den) for den > 0, by integer Horner."""
    acc = coeffs[-1]
    dpow = 1
    for c in reversed(coeffs[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def poly_g_roots(n: int) -> list[float]:
    """The n roots of poly_g(n) in closed form, ascending, as floats.

    The signed base path on 2n vertices has the spectrum of the plain path,
    2 cos(j pi / (2n + 1)), so the roots of poly_g(n), the squared
    eigenvalues, are 4 sin^2((2j - 1) pi / (4n + 2)) for j = 1..n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [4.0 * sin((2 * j - 1) * pi / (4 * n + 2)) ** 2 for j in range(1, n + 1)]


def _bracket_g_roots(n: int) -> tuple[tuple[int, ...], list[float], list[Fraction], list[int]]:
    """(coefficients, closed-form roots, cuts, signs at the cuts) of poly_g(n),
    once the sign certificate described in beta holds; else BracketingError."""
    coeffs = poly_g(n).coeffs
    roots = poly_g_roots(n)
    cuts = [Fraction(0)] + [Fraction((a + b) / 2) for a, b in zip(roots, roots[1:])] + [Fraction(4)]
    signs = [_sign_at_rational(coeffs, c.numerator, c.denominator) for c in cuts]
    if (
        len(coeffs) - 1 != len(roots)
        or any(a >= b for a, b in zip(cuts, cuts[1:]))
        or any(a * b >= 0 for a, b in zip(signs, signs[1:]))
    ):
        raise BracketingError(
            f"poly_g({n}) of degree {len(coeffs) - 1} does not change sign across "
            f"the {len(roots)} closed-form intervals: signs {signs}"
        )
    return coeffs, roots, cuts, signs


def beta(n: int, tol: float = 1e-12) -> float:
    """Smallest positive root of poly_g(n), within +-tol.

    Certificate: the exact sign of poly_g(n) must change across each of the
    n intervals cut at 0, midway between neighbouring closed-form roots, and
    4; otherwise BracketingError.  A degree-n polynomial then has exactly one
    root per interval, so the first holds the smallest, which is bisected in
    exact rationals; only the final midpoint is rounded to float.  At most
    n + 1 + ceil(log2(4 / tol)) sign evaluations.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    coeffs, _, cuts, signs = _bracket_g_roots(n)

    lo, hi = cuts[0], cuts[1]
    sign_lo = signs[0]
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = _sign_at_rational(coeffs, mid.numerator, mid.denominator)
        if s == 0:
            return float(mid)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def beta_side_of(n: int, q: Fraction) -> int:
    """Exact side of q relative to the smallest positive root of poly_g(n).

    Returns +1 if the root exceeds q, 0 if q is the root, -1 if the root is
    below q.  Only valid for q in (0, second positive root), which holds
    whenever q is known to sit near the smallest root.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    coeffs = poly_g(n).coeffs
    s0 = _sign_at_rational(coeffs, 0, 1)
    sq = _sign_at_rational(coeffs, q.numerator, q.denominator)
    if sq == 0:
        return 0
    return 1 if sq == s0 else -1


# ------------------------ exact characteristic polys -----------------------


def charpoly_exact(mat) -> IntPolynomial:
    """Characteristic polynomial det(xI - M) of an integer matrix, exactly.

    Faddeev-LeVerrier on an object array of Python integers: N_0 = 0,
    c_d = 1, and for j = 1..d, N_j = M N_(j-1) + c_(d-j+1) I and
    c_(d-j) = -tr(M N_j) / j.  Every N_j is an integer polynomial in M, so
    each division is exact (ArithmeticError if not); det M = (-1)^d c_0.
    ValueError unless M is square with integral entries.
    """
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("charpoly_exact expects a square matrix")
    rows = m.tolist()
    try:
        ints = [[int(v) for v in row] for row in rows]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != rows:
        raise ValueError("charpoly_exact expects integral entries")
    d = len(ints)
    a = np.array(ints, dtype=object).reshape(d, d)
    eye = np.eye(d, dtype=object)
    coeffs = [0] * d + [1]
    an = np.zeros((d, d), dtype=object)  # M N_(j-1)
    for j in range(1, d + 1):
        an = a @ (an + coeffs[d - j + 1] * eye)
        trace = int(np.trace(an))
        if trace % j:
            raise ArithmeticError(f"trace {trace} of M N_{j} is not divisible by {j}")
        coeffs[d - j] = -trace // j
    return IntPolynomial(tuple(coeffs))


def base_square_charpoly(m: int) -> IntPolynomial:
    """det(xI - B^2) as it must be: x (x - 2)^2 for m = 3, poly_g(m / 2)^2 for even m."""
    if m == 3:
        return IntPolynomial((0, 4, -4, 1))
    g = poly_g(m // 2)
    return g * g


def charpoly_base_square_check(n: int) -> bool:
    """Exact check: charpoly of the squared even base matrix equals poly_g(n)^2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    b, _ = base_matrices(2 * n)
    return charpoly_exact(b @ b) == base_square_charpoly(2 * n)


# ----------------------------- spectrum reports ----------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues with summary statistics grouped at DEFAULT_GROUP_TOL."""

    eigenvalues: tuple[float, ...]
    zero_multiplicity: int
    min_positive: float | None
    symmetry_defect: float

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def spectrum_report(values) -> SpectrumReport:
    vals = sorted(float(v) for v in values)
    zero_mult = sum(1 for v in vals if abs(v) < DEFAULT_GROUP_TOL)
    positives = [v for v in vals if v >= DEFAULT_GROUP_TOL]
    min_pos = positives[0] if positives else None
    defect = 0.0
    n = len(vals)
    for i in range(n):
        defect = max(defect, abs(vals[i] + vals[n - 1 - i]))
    return SpectrumReport(
        eigenvalues=tuple(vals),
        zero_multiplicity=zero_mult,
        min_positive=min_pos,
        symmetry_defect=defect,
    )


# perfbench/spans.py still resolves this name when it installs its tracer.
def eigenvalues_sym(*args, **kwargs):
    raise NotImplementedError("signed matrices are solved by signed_spectra, once each by spectrum_check")


def _parity_colours(a: SignedMatrix) -> np.ndarray:
    """Digit-sum parity (0 or 1) of every rank of the grid [m]^k under a."""
    r = np.arange(a.dim, dtype=np.int64)[:, None]
    return (r // a.m ** np.arange(a.k, dtype=np.int64) % a.m).sum(axis=1) % 2


def _check_svd_contract(c: np.ndarray, u: np.ndarray, sv: np.ndarray, vt: np.ndarray) -> None:
    """EigenSolveError unless every block of the stack c (g x p x q) meets
    the residual contract of a dense eigensolve of A = [[0, C], [C^T, 0]],
    with ||A||_F = sqrt(2) ||C||_F:

    - each eigenpair (+-sigma_i, (u_i; +-v_i) / sqrt(2)) has residual
      sqrt((||C v_i - sigma_i u_i||^2 + ||C^T u_i - sigma_i v_i||^2) / 2);
    - each zero pair (u_j; 0), j > q, has residual ||C^T u_j||;
    - all residuals are <= DEFAULT_RESIDUAL_TOL ||A||_F, and the reconstruction
      ||A - Q Lambda Q^T||_F = sqrt(2) ||C - U Sigma V^T||_F is
      <= DEFAULT_RECON_TOL ||A||_F.
    """
    g, p, q = c.shape
    if u.shape != (g, p, p) or sv.shape != (g, q) or vt.shape != (g, q, q):
        raise EigenSolveError(f"SVD factors of shapes {u.shape}, {sv.shape}, {vt.shape} for blocks {c.shape}")
    fro = sqrt(2.0) * np.linalg.norm(c, axis=(1, 2))
    v = vt.transpose(0, 2, 1)
    us = u[:, :, :q] * sv[:, None, :]
    ctu = c.transpose(0, 2, 1) @ u
    pairs = np.sqrt(
        (np.sum((c @ v - us) ** 2, axis=1) + np.sum((ctu[:, :, :q] - v * sv[:, None, :]) ** 2, axis=1)) / 2
    )
    zeros = np.linalg.norm(ctu[:, :, q:], axis=1)
    worst = np.max(np.concatenate((pairs, zeros), axis=1), axis=1)
    recon = sqrt(2.0) * np.linalg.norm(c - us @ vt, axis=(1, 2))
    # Written as "not within" so that a NaN fails too.
    if not np.all(worst <= DEFAULT_RESIDUAL_TOL * fro):
        raise EigenSolveError(f"eigenpair residual {float(np.max(worst)):.3e} above contract")
    if not np.all(recon <= DEFAULT_RECON_TOL * fro):
        raise EigenSolveError(f"reconstruction defect {float(np.max(recon)):.3e} above contract")


def signed_spectra(a: SignedMatrix, sets: Sequence[VertexSet] | None = None) -> list[SpectrumReport]:
    """Spectrum of a signed matrix, or of its principal submatrix on each of
    sets, from the SVD of the off-diagonal block.

    The stored entries must pass check_support on the matrix's grid, else
    ValueError, and each set must lie in that grid, else
    DimensionMismatchError.  The grid's edges join vertices of opposite
    digit-sum parity, which colours them.  A dimension above
    DEFAULT_EIG_DIM_CAP raises SizeCapError before anything is built.  For
    each matrix, C holds the entries from its larger colour class (p rows,
    by rank) to its smaller (q columns), built straight from the stored
    entries, so no n x n matrix is formed.  Its spectrum is +-sigma(C) and
    p - q zeros.  Blocks of one shape share one SVD call; each must meet
    _check_svd_contract, else EigenSolveError.  A block with q = 0 is the
    zero matrix: p zeros, no solve.
    """
    sizes = np.array([a.dim] if sets is None else [len(s) for s in sets], dtype=np.int64)
    if not len(sizes):
        return []
    if sizes.max() > DEFAULT_EIG_DIM_CAP:
        raise SizeCapError(f"dim {int(sizes.max())} exceeds eigensolver cap {DEFAULT_EIG_DIM_CAP}")
    if sizes.min() == 0:
        raise ValueError("principal submatrix of an empty vertex set")
    if not check_support(a, a.graph()):
        raise ValueError(f"the stored entries are not a signed adjacency matrix of [{a.m}]^{a.k}")
    if sets is None:
        ranks = np.arange(a.dim, dtype=np.int64)
    else:
        for s in sets:
            if (s.m, s.k) != (a.m, a.k):
                raise DimensionMismatchError(f"set over [{s.m}]^{s.k} vs matrix of [{a.m}]^{a.k}")
        ranks = np.array([r for s in sets for r in s.ranks()], dtype=np.int64)
    colour = _parity_colours(a)
    owner = np.repeat(np.arange(len(sizes)), sizes)  # the matrix of each member

    # Each member's position in its matrix's colour class, by rank.
    member_colour = colour[ranks]
    ones_before = np.cumsum(member_colour) - member_colour
    zeros_before = np.arange(len(ranks)) - ones_before
    first = np.cumsum(sizes) - sizes
    local = np.where(
        member_colour == 1, ones_before - ones_before[first][owner], zeros_before - zeros_before[first][owner]
    )
    ones = np.add.reduceat(member_colour, first)
    row_colour = (2 * ones > sizes).astype(np.int64)  # the larger class, colour 0 on a tie
    p = np.maximum(ones, sizes - ones)
    q = sizes - p

    # Entries from each row-class member to members of the same matrix: walk
    # the member's stored row, and find each neighbour among the members by
    # its key owner * dim + rank (increasing, as ranks ascend within a set).
    row_members = np.flatnonzero(member_colour == row_colour[owner])
    indptr = np.searchsorted(a.rows, np.arange(a.dim + 1))
    start = indptr[ranks[row_members]]
    counts = indptr[ranks[row_members] + 1] - start
    src = np.repeat(row_members, counts)
    pos = np.arange(int(counts.sum())) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    member_keys = owner * a.dim + ranks
    wanted = owner[src] * a.dim + a.cols[pos]
    hit = np.minimum(np.searchsorted(member_keys, wanted), len(ranks) - 1)
    inside = member_keys[hit] == wanted
    src, dst, entry_vals = src[inside], hit[inside], a.vals[pos][inside]

    spectra: list = [None] * len(sizes)
    for gp, gq in dict.fromkeys(zip(p.tolist(), q.tolist())):
        group = np.flatnonzero((p == gp) & (q == gq))
        if gq == 0:
            for i in group:
                spectra[i] = spectrum_report([0.0] * gp)
            continue
        slot = np.full(len(sizes), -1)
        slot[group] = np.arange(len(group))
        mine = slot[owner[src]] >= 0
        c = np.zeros((len(group), gp, gq))
        c[slot[owner[src[mine]]], local[src[mine]], local[dst[mine]]] = entry_vals[mine]
        u, sv, vt = np.linalg.svd(c, full_matrices=True)
        _check_svd_contract(c, u, sv, vt)
        extra = [0.0] * (gp - gq)
        for i, s in zip(group, sv.tolist()):
            spectra[i] = spectrum_report(s + [-x for x in s] + extra)
    return spectra


def multiset_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Max pointwise gap between two sorted multisets; inf on size mismatch."""
    if len(a) != len(b):
        return float("inf")
    sa = sorted(a)
    sb = sorted(b)
    return max((abs(x - y) for x, y in zip(sa, sb)), default=0.0)


# ------------------- base certificate and closed form ----------------------


def base_matrices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) of the builder's block step A_k = D ⊗ A_(k-1) + B ⊗ I, dense:
    B is its level-1 matrix, and D is read off its level-2 matrix, whose
    block (a, c) holds D[a, c] B + B[a, c] I, at entry (0, 1) of each block."""
    b = signed_grid_matrix(m, 1).to_dense()
    return b, signed_grid_matrix(m, 2).to_dense()[::m, 1::m] * b[0, 1]


def base_certificate_holds(b: np.ndarray, d: np.ndarray, charpoly: IntPolynomial) -> bool:
    """Exact checks on the block step's base, charpoly being det(xI - B^2):
    D^2 = I and DB + BD = 0, which give A_k^2 = I ⊗ A_(k-1)^2 + B^2 ⊗ I for
    every k, and charpoly = base_square_charpoly(m)."""
    eye = np.eye(len(b), dtype=np.int64)
    return np.array_equal(d @ d, eye) and not np.any(d @ b + b @ d) and charpoly == base_square_charpoly(len(b))


def base_certificate(m: int) -> bool:
    """base_certificate_holds on the builder's base matrices for m."""
    b, d = base_matrices(m)
    return base_certificate_holds(b, d, charpoly_exact(b @ b))


def closed_form_spectrum(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> SpectrumReport:
    """Spectrum of the level-k signed matrix of [m]^k, with no eigensolve.

    By base_certificate, A_k^2 has the sums of k eigenvalues of B^2: j_i
    copies of its distinct value mu_i, of multiplicity c_i, give sum j_i mu_i
    k! / prod j_i! * prod c_i^j_i times.  B^2 has 0 once and 2 twice for
    m = 3, and each root of poly_g(m / 2) twice for even m.  The support is
    bipartite (check_support), so each s > 0 splits evenly into +-sqrt(s).
    SizeCapError above size_cap, before any value is expanded.
    """
    check_signed_params(m, k, size_cap)
    base = [(0.0, 1), (2.0, 2)] if m == 3 else [(root, 2) for root in _bracket_g_roots(m // 2)[1]]
    values: list[float] = []
    for pick in combinations_with_replacement(range(len(base)), k):
        mult = factorial(k)
        for i, j in Counter(pick).items():
            mult = mult // factorial(j) * base[i][1] ** j
        root = sqrt(sum(base[i][0] for i in pick))
        values.extend([root, -root] * (mult // 2) if root else [0.0] * mult)
    return spectrum_report(values)


# ------------------------------- verifiers ---------------------------------


def symmetry_check(s: SpectrumReport) -> bool:
    """True iff the spectrum is symmetric about 0 within DEFAULT_GROUP_TOL."""
    return s.symmetry_defect <= DEFAULT_GROUP_TOL


def interlacing_check(host: SpectrumReport, sub: SpectrumReport) -> bool:
    """Eigenvalue interlacing between the spectrum of a symmetric matrix and
    that of a principal submatrix: lambda_i >= mu_i >= lambda_(n-m+i) within
    DEFAULT_GROUP_TOL, both sorted descending."""
    big = host.eigenvalues[::-1]
    small = sub.eigenvalues[::-1]
    n = len(big)
    m = len(small)
    if m > n:
        raise DimensionMismatchError("submatrix larger than the host matrix")
    return all(big[i] + DEFAULT_GROUP_TOL >= small[i] >= big[n - m + i] - DEFAULT_GROUP_TOL for i in range(m))


@dataclass(frozen=True)
class SpectrumCheck:
    """What spectrum_check found for the level-k signed matrix of [m]^k."""

    m: int
    k: int
    zero_multiplicity: int
    min_positive: float | None
    symmetry_defect: float
    closed_form_defect: float
    passed: bool
    spectrum: SpectrumReport = field(repr=False)  # the one solve


def _path_determinant(a: SignedMatrix) -> int:
    """Exact determinant of a level-1 signed matrix that passed check_support,
    a path with zero diagonal: the continuant d_j = -A[j-2, j-1]^2 d_(j-2) in
    Python integers, linear in m where charpoly_exact is of order m^4."""
    d_prev, d = 1, 0  # the empty and the 1 x 1 leading blocks
    for s in a.vals[a.cols == a.rows + 1].tolist():  # A[j, j + 1], ascending j
        d_prev, d = d, -s * s * d_prev
    return d


def spectrum_check(m: int, k: int) -> SpectrumCheck:
    """The paper's spectral facts about the level-k signed matrix of [m]^k,
    from one signed_spectra solve compared once with closed_form_spectrum.

    passed needs a spectrum symmetric and within DEFAULT_GROUP_TOL of the
    closed form, and for m = 3 the eigenvalue 0 exactly once and sqrt(2) as
    the smallest positive eigenvalue; for even m no eigenvalue within
    DEFAULT_GROUP_TOL of 0, and at k = 1 the determinant +-1 in exact
    arithmetic.  SizeCapError above DEFAULT_EIG_DIM_CAP, before the matrix
    is built.
    """
    a = signed_grid_matrix(m, k, DEFAULT_EIG_DIM_CAP)
    (rep,) = signed_spectra(a)
    defect = multiset_distance(rep.eigenvalues, closed_form_spectrum(m, k).eigenvalues)
    if m == 3:
        root2 = rep.min_positive is not None and abs(rep.min_positive - sqrt(2.0)) <= DEFAULT_GROUP_TOL
        facts = rep.zero_multiplicity == 1 and root2
    else:
        facts = rep.zero_multiplicity == 0 and (k > 1 or abs(_path_determinant(a)) == 1)
    passed = facts and rep.symmetry_defect <= DEFAULT_GROUP_TOL and defect <= DEFAULT_GROUP_TOL
    return SpectrumCheck(m, k, rep.zero_multiplicity, rep.min_positive, rep.symmetry_defect, defect, passed, rep)


def odd3_spectrum_check(k: int) -> SpectrumCheck:
    """spectrum_check of the m = 3 family."""
    return spectrum_check(3, k)


def min_positive_eig_even(n: int, k: int) -> float:
    """Smallest positive eigenvalue of the even signed matrix on [2n]^k."""
    r = spectrum_check(2 * n, k)
    if r.min_positive is None:
        raise EigenSolveError("no positive eigenvalue found")
    return r.min_positive


def nonsingularity_check_even(n: int, k: int) -> bool:
    """spectrum_check(2n, k).passed: no zero eigenvalue, det +-1 at k = 1, and the closed form."""
    return spectrum_check(2 * n, k).passed


# --------------------------- spectrum composition --------------------------


def composed_square_spectrum(m: int, k: int) -> SpectrumReport:
    """Spectrum of the squared level-k matrix: the squares of
    closed_form_spectrum (no dense level-k solve)."""
    return spectrum_report([v * v for v in closed_form_spectrum(m, k).eigenvalues])


def square_compose_check(m: int, k: int) -> tuple[bool, float]:
    """Compare the squares of spectrum_check's solve, the spectrum of the
    squared level-k matrix, with composed_square_spectrum as sorted
    multisets.  Returns (ok, distance), ok when the distance is at most
    SQUARE_SPECTRUM_TOL."""
    squares = [v * v for v in spectrum_check(m, k).spectrum.eigenvalues]
    dist = multiset_distance(squares, composed_square_spectrum(m, k).eigenvalues)
    return dist <= SQUARE_SPECTRUM_TOL, dist
