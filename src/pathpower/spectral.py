"""Integer polynomial recurrences, root isolation, and spectral verifiers.

Exact layer: the polynomial family p_j = (x - 2) p_(j-1) - p_(j-2) with two
seed choices (poly_f, poly_g), and the characteristic polynomial det(xI - B)
of a signed path B by its continuant (path_charpoly) in Python integers.

Root isolation: poly_g(n) is the characteristic polynomial of a
tridiagonal matrix, so one exact Sturm count (g_roots_below) says how many
of its roots lie below a rational q.  The closed-form roots place rational
cuts between them; counts 0, 1, ..., n at the cuts prove one root per
interval, and bisection on the count narrows the first to the smallest.

Numerical layer: one dense solver, signed_spectra.  The grid is bipartite
by digit-sum parity, so a signed matrix is [[0, C], [C^T, 0]] after a
parity permutation, and its spectrum is +-sigma(C) plus a zero for each row
C has beyond its column count.  A symmetric eigensolve of the exact Gram
matrix K = C C^T of the half-size block C, held to a residual contract,
solves a signed matrix or any of its principal submatrices.  The zero
pattern of K is summed exactly from the sparse entries of C, and K is
solved one component of that pattern at a time, batched by shape: A_k^2 =
I ⊗ A_(k-1)^2 + B^2 ⊗ I, and B^2 on a path joins only digits of one
parity, so K of A(m, k) splits into blocks of at most ceil(m / 2)^k rows.
Each component c has rows R_c, the columns S_c they touch and the rows
N_c that touch S_c; its block of K, its factors and every clause of the
contract are products of C[R_c, S_c] or C[N_c, S_c], so none is sized by
the whole matrix but V^T V, the one dense product left.  The left
residual runs over all of N_c, so a labelling that cuts a component
still fails.  Each matrix is solved once: every eigenvector x of a
component is one column, with sigma = ||C[R_c, S_c]^T x||, and a dead
column (sigma <= DEFAULT_GROUP_TOL) has v = 0.  The contract's
reconstruction and the orthonormality of V's live columns bound every
singular value of C by Mirsky's theorem (Quart. J. Math. 11, 1960), so
no kernel vector of C is needed in V.
base_certificate proves, once per m, the lemma that fixes the spectrum of
every level: from the level-1 path B and the block step D read off the
level-2 table, A_k^2 = I ⊗ A_(k-1)^2 + B^2 ⊗ I for every k.  So
closed_form_spectrum lists the spectrum with no solve, and spectrum_check
certifies the paper's facts, the zero multiplicity and the least positive
eigenvalue, for any k, with no table of level k, no solve and no expansion
of the closed form: the lemma's clauses and, for even m, beta's Sturm
count.  odd3_spectrum_check, min_positive_eig_even and
nonsingularity_check_even read it.  square_compose_check is the one
comparison of a solve with the closed form, within DEFAULT_GROUP_TOL; the
squares of the solved spectrum are the spectrum of A^2 = C C^T + C^T C (a
direct sum under the parity permutation), so A^2 needs no solve of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import factorial, pi, sin, sqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BracketingError, CertificateError, DimensionMismatchError, EigenSolveError, SizeCapError
from .grid import DEFAULT_SIZE_CAP, VertexSet, digits, slot_steps
from .signed import SignedMatrix, check_signed_params, check_support, signed_grid_matrix

# The thresholds of every spectral verdict, fixed so that no caller can loosen one.
DEFAULT_RESIDUAL_TOL = 1e-10  # eigenpair residual, relative to ||A||_F
DEFAULT_RECON_TOL = 1e-9  # reconstruction defect, relative to ||A||_F
DEFAULT_GROUP_TOL = 1e-8  # zero grouping, symmetry, interlacing and the degree bound
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


def g_roots_below(n: int, q: Fraction | int) -> tuple[int, bool]:
    """(number of roots of poly_g(n) below q, whether q is a root), exactly.

    poly_g(n) = det(xI - T_n) for the tridiagonal T_n with off-diagonal 1
    and diagonal (1, 2, ..., 2), read off its recurrence, so its leading
    minors p_j form a Sturm sequence (Golub & Van Loan, Matrix Computations,
    8.4).  With q = a / d, P_j = d^j p_j(q) follows P_j = (a - 2d) P_(j-1) -
    d^2 P_(j-2) in Python integers, and each consecutive pair that agrees in
    sign marks one root below q.  An interior zero takes its predecessor's
    sign; P_n = 0 means q is a root.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    step, d2 = _X_MINUS_2.coeffs[0] * d + _X_MINUS_2.coeffs[1] * a, d * d
    prev, cur = 1, _G_SEED[0] * d + _G_SEED[1] * a  # P_0, P_1
    below, positive = 0, True  # the sign P_0 = 1 sets
    for j in range(1, n + 1):
        if cur == 0 and j == n:
            return below, True
        if cur == 0 or (cur > 0) == positive:
            below += 1  # an agreement; a zero keeps its predecessor's sign
        else:
            positive = not positive
        prev, cur = cur, step * cur - d2 * prev
    return below, False


def poly_g_roots(n: int) -> list[float]:
    """The n roots of poly_g(n) in closed form, ascending, as floats.

    The signed base path on 2n vertices has the spectrum of the plain path,
    2 cos(j pi / (2n + 1)), so the roots of poly_g(n), the squared
    eigenvalues, are 4 sin^2((2j - 1) pi / (4n + 2)) for j = 1..n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [4.0 * sin((2 * j - 1) * pi / (4 * n + 2)) ** 2 for j in range(1, n + 1)]


def _bracket_g_roots(n: int) -> list[float]:
    """The closed-form roots of poly_g(n), once the counts at the cuts 0,
    midway between neighbouring roots, and 4 are (i, False) for i = 0..n:
    one root per interval, which places all n; else BracketingError."""
    roots = poly_g_roots(n)
    cuts = [Fraction(0)] + [Fraction((a + b) / 2) for a, b in zip(roots, roots[1:])] + [Fraction(4)]
    counts = [g_roots_below(n, c) for c in cuts]
    if counts != [(i, False) for i in range(n + 1)]:
        raise BracketingError(f"poly_g({n}) does not hold one root per closed-form interval: counts {counts}")
    return roots


def beta(n: int, tol: float = 1e-12) -> float:
    """Smallest root of poly_g(n), within +-tol; tol sets output precision only.

    Certificate: g_roots_below(n, .) must be (0, False) at 0 and (1, False)
    at the first cut, midway between the two smallest closed-form roots (4
    when n = 1); otherwise BracketingError.  The interval between them then
    holds exactly the smallest root, which is bisected on the same count in
    exact rationals; only the final midpoint is rounded to float.  At most
    2 + ceil(log2(4 / tol)) counts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    roots = poly_g_roots(n)
    lo, hi = Fraction(0), Fraction((roots[0] + roots[1]) / 2) if n > 1 else Fraction(4)
    if g_roots_below(n, lo) != (0, False) or g_roots_below(n, hi) != (1, False):
        raise BracketingError(f"poly_g({n}) does not hold exactly one root in [0, {float(hi)})")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        below, is_root = g_roots_below(n, mid)
        if is_root:
            return float(mid)
        lo, hi = (lo, mid) if below else (mid, hi)
    return float((lo + hi) / 2)


# ------------------------ exact characteristic polys -----------------------


def path_charpoly(links: Sequence[int]) -> IntPolynomial:
    """det(xI - B) of the path B with zero diagonal and B[j, j + 1] =
    B[j + 1, j] = links[j], exactly: the continuant p_j = x p_(j-1) -
    links[j-2]^2 p_(j-2), p_0 = 1 and p_1 = x, on plain lists of Python
    integers, of order m^2 for m = len(links) + 1.

    B is symmetric with a zero diagonal, so p(-x) = (-1)^m p(x) and
    det(x^2 I - B^2) = det(xI - B) det(xI + B) = p(x)^2: p = base_charpoly(m)
    fixes det(yI - B^2) with no square formed, and the converse holds as p is
    monic.
    """
    p_prev, p = [1], [0, 1]
    for b in links:
        bb = b * b
        shifted = [0, *p]  # x p
        p_prev, p = p, [u - bb * v for u, v in zip(shifted, p_prev)] + shifted[len(p_prev) :]
    return IntPolynomial(tuple(p))


def base_charpoly(m: int) -> IntPolynomial:
    """det(xI - B) of the base path as it must be: x^3 - 2x for m = 3, so
    B^2 has 0 once and 2 twice; poly_g(m / 2)(x^2) for even m, so B^2 has
    each root of poly_g(m / 2) twice (path_charpoly)."""
    if m == 3:
        return IntPolynomial((0, -2, 0, 1))
    coeffs = [0] * (m + 1)
    coeffs[::2] = poly_g(m // 2).coeffs
    return IntPolynomial(tuple(coeffs))


def charpoly_base_square_check(n: int) -> bool:
    """Exact check that det(yI - B^2) = poly_g(n)^2 for the even base path B
    on 2n vertices, as det(xI - B) = base_charpoly(2n) (path_charpoly)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return path_charpoly(_links(signed_grid_matrix(2 * n, 1)).tolist()) == base_charpoly(2 * n)


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


def _spectrum_reports(values: np.ndarray) -> list[SpectrumReport]:
    """spectrum_report of every row of the (g, n) array values, bit for bit,
    from one stable sort of the whole array."""
    vals = np.sort(values, axis=1, kind="stable")
    zero_mult = np.count_nonzero(np.abs(vals) < DEFAULT_GROUP_TOL, axis=1)
    min_pos = np.min(np.where(vals >= DEFAULT_GROUP_TOL, vals, np.inf), axis=1, initial=np.inf)
    defect = np.max(np.abs(vals + vals[:, ::-1]), axis=1, initial=0.0)
    return [
        SpectrumReport(tuple(row), int(z), None if low == np.inf else low, d)
        for row, z, low, d in zip(vals.tolist(), zero_mult.tolist(), min_pos.tolist(), defect.tolist())
    ]


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


# perfbench/spans.py still resolves these names when it installs its tracer.
def eigenvalues_sym(*args, **kwargs):
    raise NotImplementedError("signed matrices are solved by signed_spectra")


def charpoly_exact(*args, **kwargs):
    raise NotImplementedError("a signed path's characteristic polynomial is path_charpoly of its links")


def _gram_components(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component label of every node: nodes that share a label start
    joined, each node i[t] is joined to j[t], and each node ends labelled by
    the smallest node of its component.  Every label must be a node that
    labels itself.

    Union-find on the pairs only: each round hooks the larger root of every
    pair that still joins two roots to the smaller, then jumps pointers
    until every node points at its root.
    """
    while len(i):
        li, lj = label[i], label[j]
        apart = li != lj
        i, j, li, lj = i[apart], j[apart], li[apart], lj[apart]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(root := label[label], label):
            label = root
    return label


class _Part(NamedTuple):
    """The components of one shape (r, s, n) among the Gram matrices
    K = C C^T of a stack of blocks C: for each, its rows R_c (r), the
    columns S_c of C that they touch (s) and the rows N_c that touch S_c
    (n, R_c first).  C[R_c, S_c] holds every entry of the rows R_c, so
    K[R_c, R_c] = C[R_c, S_c] C[R_c, S_c]^T."""

    block: np.ndarray  # (cnt,) the block of each component
    rows: np.ndarray  # (cnt, r) R_c, as rows of the block, ascending
    cols: np.ndarray  # (cnt, s) S_c, as columns of the block, ascending
    r: int
    n: int
    entries: tuple[np.ndarray, ...]  # (component, row in N_c, column in S_c, value) of each entry of C[N_c, S_c]

    def c(self, rows: int) -> np.ndarray:
        """The first rows rows of every C[N_c, S_c], dense: rows = r gives C[R_c, S_c]."""
        comp, i, j, v = self.entries
        if rows < self.n:
            keep = i < rows
            comp, i, j, v = comp[keep], i[keep], j[keep], v[keep]
        out = np.zeros((len(self.block), rows, self.cols.shape[1]))
        out[comp, i, j] = v
        return out


def _run_positions(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[t], ..., start[t] + count[t] - 1 for every t, concatenated: the positions of CSR runs."""
    return np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)


def _runs(keys: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, size) of each run of equal keys in the order that sorts them."""
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    start = np.flatnonzero(new)
    return start, np.bincount(np.cumsum(new) - 1, minlength=len(start))


def _gram_parts(block, i, j, v, g: int, p: int, q: int, split: bool) -> list[_Part]:
    """The components of the Gram matrices of a stack of g blocks C (p x q)
    whose entries are v at (block, i, j), grouped by shape (r, s, n), the
    shapes ascending and the components of one shape by their smallest row.

    With split, the components are those of K's nonzero pattern
    (_gram_components).  That pattern is summed exactly, in integers, from
    the products of every two entries of one column of C, so no dense K is
    formed and no p^2 entries are swept.  Without, each block is one
    component with S_c = all q columns and N_c = all p rows, so a column
    that no row touches is in S_c too.
    """
    nodes = g * p
    node, col = block * p + i, block * q + j
    order = np.argsort(col)  # C by columns
    node, col, v = node[order], col[order], v[order]
    indptr = np.searchsorted(col, np.arange(g * q + 1))
    if split:
        count = indptr[col + 1] - indptr[col]
        pos = _run_positions(indptr[col], count)  # the partners of each entry in its column
        # Each product +-1 keyed by its entry of K, the sign in the lowest bit: one
        # sort puts each entry's -1 products before its +1 products.
        packed = np.sort((np.repeat(node, count) * nodes + node[pos]) * 2 + (np.repeat(v, count) == v[pos]))
        keys = packed >> 1
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        ones = np.add.reduceat(packed & 1, first)
        a, b = np.divmod(keys[first][2 * ones != np.diff(first, append=len(keys))], nodes)  # the nonzeros of K
        label = _gram_components(np.arange(nodes), a[a != b], b[a != b])
    else:  # each block one component, with no pairs to join
        label = _gram_components(np.arange(nodes) // p * p, node[:0], node[:0])
    by_comp = np.argsort(label * nodes + np.arange(nodes))  # the rows R_c of each component in turn, ascending
    comp_start, size = _runs(label, by_comp)
    comp, row_pos = np.empty(nodes, dtype=np.int64), np.empty(nodes, dtype=np.int64)
    comp[by_comp] = np.repeat(np.arange(len(size)), size)
    row_pos[by_comp] = np.arange(nodes) - np.repeat(comp_start, size)
    comp_block = by_comp[comp_start] // p

    if split:
        s_keys = np.sort(comp[node] * (g * q) + col)
        s_keys = s_keys[np.concatenate(([True], s_keys[1:] != s_keys[:-1]))[: len(s_keys)]]  # distinct
    else:
        s_keys = ((np.arange(len(size)) * (g * q) + comp_block * q)[:, None] + np.arange(q)).ravel()
    s_comp, s_col = np.divmod(s_keys, g * q)
    s_size = np.bincount(s_comp, minlength=len(size))
    s_start = np.cumsum(s_size) - s_size
    s_pos = np.arange(len(s_keys)) - np.repeat(s_start, s_size)

    # Every entry of every column of S_c: C[N_c, S_c], whose rows beyond R_c come after it, ascending.
    count = indptr[s_col + 1] - indptr[s_col]
    pos = _run_positions(indptr[s_col], count)
    e_comp, e_node, e_col, e_val = np.repeat(s_comp, count), node[pos], np.repeat(s_pos, count), v[pos]
    e_row = row_pos[e_node]
    out = np.flatnonzero(comp[e_node] != e_comp)
    out_keys = e_comp[out] * nodes + e_node[out]
    out_order = np.argsort(out_keys)
    out_start, out_size = _runs(out_keys, out_order)
    out_comp = e_comp[out[out_order[out_start]]]  # of each distinct row beyond R_c
    o_size = np.bincount(out_comp, minlength=len(size))
    o_start = np.cumsum(o_size) - o_size
    e_row[out[out_order]] = np.repeat(size[out_comp] + np.arange(len(out_comp)) - o_start[out_comp], out_size)

    shape = (size * (q + 1) + s_size) * (p + 1) + size + o_size
    by_kind = np.argsort(shape * len(size) + np.arange(len(size)))  # the components by shape, then number
    kind_start, kind_size = _runs(shape, by_kind)
    first = by_kind[kind_start]
    at = np.empty(len(size), dtype=np.int64)  # each component's place in its part
    at[by_kind] = np.arange(len(size)) - np.repeat(kind_start, kind_size)
    kind = np.empty(len(size), dtype=np.int64)
    kind[by_kind] = np.repeat(np.arange(len(first)), kind_size)
    e_kind = kind[e_comp]
    parts = []
    for t, (r, s, o) in enumerate(zip(size[first].tolist(), s_size[first].tolist(), o_size[first].tolist())):
        mine = by_kind[kind_start[t] : kind_start[t] + kind_size[t]]
        sel = e_kind == t
        entries = (at[e_comp[sel]], e_row[sel], e_col[sel], e_val[sel])
        rows = by_comp[comp_start[mine][:, None] + np.arange(r)] % p
        cols = s_col[s_start[mine][:, None] + np.arange(s)] % q
        parts.append(_Part(comp_block[mine], rows, cols, r, r + o, entries))
    return parts


class _Factors(NamedTuple):
    """A part's share of the factors U, Sigma and V of its blocks: one
    column per eigenvector x[:, :, t] of a component, the column R_c[t] of
    U on the rows R_c (zero elsewhere), with singular value sv[:, t] and
    column v[:, :, t] of V on S_c (zero elsewhere, and zero when the column
    is dead)."""

    x: np.ndarray  # (cnt, r, r)
    sv: np.ndarray  # (cnt, r)
    v: np.ndarray  # (cnt, s, r)


def _gram_svd(parts: list[_Part]) -> list[_Factors]:
    """The factors (U, sigma, V) of every block C (entries +-1 and 0) of
    the parts, from one batched eigh per shape of their Gram blocks
    K[R_c, R_c] = C[R_c, S_c] C[R_c, S_c]^T.

    K holds sums of at most q products +-1, so it is exact in float64, and
    so is its zero pattern: an eigenvector x of a component is exactly an
    eigenvector of K, zero on every other row.  Each x is one column, with
    sigma = ||C[R_c, S_c]^T x||; sigma is not sqrt(lambda), which would
    lift a rounded zero eigenvalue near 1e-16 to 1e-8, the zero grouping
    threshold.  A live column (sigma > DEFAULT_GROUP_TOL) has v =
    C[R_c, S_c]^T x / sigma, a dead one v = 0: by Mirsky's theorem the
    contract bounds every singular value of C with no kernel vector of C
    in V (_check_svd_contract).
    """
    factors = []
    for part in parts:
        c = part.c(part.r)  # C[R_c, S_c]
        _, x = np.linalg.eigh(c @ c.transpose(0, 2, 1))  # exact integers
        v = c.transpose(0, 2, 1) @ x
        sv = np.sqrt(np.square(v).sum(axis=1))
        v /= np.where(sv > DEFAULT_GROUP_TOL, sv, np.inf)[:, None, :]  # zero for the dead columns
        factors.append(_Factors(x, sv, v))
    return factors


def _check_svd_contract(parts: list[_Part], factors: list[_Factors], g: int, p: int, q: int) -> None:
    """EigenSolveError unless the factors of the stack of g blocks C (p x q)
    meet the residual contract of a dense eigensolve of A = [[0, C], [C^T,
    0]], with ||A||_F = sqrt(2) ||C||_F:

    - the components' rows R_c are each of the p rows once, so each block
      has p columns (u_i, sigma_i, v_i);
    - each column has residual sqrt((||C v_i - sigma_i u_i||^2 + ||C^T u_i
      - sigma_i v_i||^2) / 2), which is sigma_i = ||C^T u_i|| for a dead
      column (v_i = 0);
    - all residuals are <= DEFAULT_RESIDUAL_TOL ||A||_F, and the reconstruction
      ||A - Q Lambda Q^T||_F = sqrt(2) ||C - U Sigma V^T||_F is
      <= DEFAULT_RECON_TOL ||A||_F;
    - max |V^T V - diag(live)| <= DEFAULT_RECON_TOL on each block's q x p
      V, live meaning sigma_i > DEFAULT_GROUP_TOL: the live columns are
      orthonormal and the dead ones zero.

    So at most q columns are live, and U Sigma V^T, with U the orthonormal
    eigenvectors of K, has the live sigma_i and zeros as its singular
    values.  By Mirsky's theorem (Quart. J. Math. 11, 1960) each singular
    value of C lies within ||C - U Sigma V^T||_2, at most the
    reconstruction, of the one of the same order of U Sigma V^T, and a dead
    sigma_i within its residual of 0: the q largest sigma_i are sigma(C)
    with no kernel vector of C in V.

    u_i is x on R_c and v_i is v on S_c, zero elsewhere, so every product
    but V^T V runs per component and is exact: C^T u_i is C[R_c, S_c]^T x;
    C v_i is C[N_c, S_c] v over N_c, so a row outside R_c that touches S_c
    counts, and a cut component still fails; and C - U Sigma V^T is C[R_c,
    S_c] - x Sigma v^T on the rows R_c, which partition C, and zero beyond
    S_c.  V^T V is formed on the assembled V of each block, whose column
    R_c[t] is column t of its component.
    """
    if len(factors) != len(parts):
        raise EigenSolveError(f"factors of {len(factors)} parts for {len(parts)}")
    for part, (x, sv, v) in zip(parts, factors):
        cnt, r, s = len(part.block), part.r, part.cols.shape[1]
        if (x.shape, sv.shape, v.shape) != ((cnt, r, r), (cnt, r), (cnt, s, r)):
            shapes = f"{x.shape}, {sv.shape}, {v.shape}"
            raise EigenSolveError(f"factors of shapes {shapes} for {cnt} components of {r} rows")
    rows = np.concatenate([(part.block[:, None] * p + part.rows).ravel() for part in parts])
    if not np.array_equal(np.sort(rows), np.arange(g * p)):
        raise EigenSolveError("the components do not hold each row of C once")
    owner, squares = [], []  # per component: its block, and its worst residual, reconstruction and ||C||^2
    v_full, live = np.zeros((g, q, p)), np.zeros((g, p))
    for part, (x, sv, v) in zip(parts, factors):
        r = x.shape[1]
        near = part.c(part.n)  # the largest array, one part's at a time
        c = near[:, :r]
        s_col = sv[:, None, :]
        right = c.transpose(0, 2, 1) @ x
        right -= v * s_col
        left = near @ v
        left[:, :r] -= x * s_col
        residuals = (np.square(right).sum(axis=1) + np.square(left).sum(axis=1)) / 2
        del near, left, right
        rest = c - (x * s_col) @ v.transpose(0, 2, 1)
        owner.append(part.block)
        worst = residuals.max(axis=1)
        squares.append(np.stack((worst, np.square(rest).sum(axis=(1, 2)), np.square(c).sum(axis=(1, 2)))))
        v_full[part.block[:, None, None], part.cols[:, :, None], part.rows[:, None, :]] = v
        live[part.block[:, None], part.rows] = sv > DEFAULT_GROUP_TOL
    owner, squares = np.concatenate(owner), np.concatenate(squares, axis=1)
    worst = np.zeros(g)
    np.maximum.at(worst, owner, squares[0])
    worst = np.sqrt(worst)
    recon, fro = np.sqrt(2.0 * np.stack([np.bincount(owner, row, g) for row in squares[1:]]))
    # dot of one block with its own transpose runs as a symmetric rank-k update, at half the cost
    ortho = np.dot(v_full[0].T, v_full[0])[None] if g == 1 else v_full.transpose(0, 2, 1) @ v_full
    ortho.reshape(g, p * p)[:, :: p + 1] -= live
    ortho = np.abs(ortho, out=ortho).max(axis=(1, 2))
    # Written as "not within" so that a NaN fails too.
    if not np.all(worst <= DEFAULT_RESIDUAL_TOL * fro):
        raise EigenSolveError(f"eigenpair residual {float(np.max(worst)):.3e} above contract")
    if not np.all(recon <= DEFAULT_RECON_TOL * fro):
        raise EigenSolveError(f"reconstruction defect {float(np.max(recon)):.3e} above contract")
    if not np.all(ortho <= DEFAULT_RECON_TOL):
        raise EigenSolveError(f"right singular vectors {float(np.max(ortho)):.3e} off orthonormal")


def signed_spectra(a: SignedMatrix, sets: Sequence[VertexSet] | None = None) -> list[SpectrumReport]:
    """Spectrum of a signed matrix, or of its principal submatrix on each of
    sets, from the singular values of the off-diagonal block.

    The stored entries must pass check_support on the matrix's grid, else
    ValueError, and each set must lie in that grid, else
    DimensionMismatchError.  The grid's edges join vertices of opposite
    digit-sum parity, which colours them.  A dimension above
    DEFAULT_EIG_DIM_CAP raises SizeCapError before anything is built.  For
    each matrix, C holds the entries from its larger colour class (p rows,
    by rank) to its smaller (q columns), built straight from the stored
    entries, so no n x n matrix is formed.  Its spectrum is +-sigma(C) and
    p - q zeros, summarised from one sorted array per shape.  A block with
    q = 0 is the zero matrix: p zeros, no solve.

    Blocks of one shape (p, q) are solved together, one component of their
    Gram matrices K = C C^T at a time (_gram_parts): K, its zero pattern
    and the blocks C[R_c, S_c] and C[N_c, S_c] come from the sparse
    entries, one batched eigh per component shape gives the factors
    (_gram_svd), and they must meet _check_svd_contract, else
    EigenSolveError.  Without sets, K is split into the components of its
    computed zero pattern, never of the parity classes that predict them,
    so a matrix signed otherwise than the builder's still gets its own
    spectrum.  A stack of submatrices is not split: each block is one
    component, R = N = all rows and S = all columns; the chain's have at
    most 8 rows in a default verify-all.  Each matrix is solved once: a
    block's p columns, one per row of C, carry the q largest sigma as its
    singular values, and a dead column (sigma <= DEFAULT_GROUP_TOL) needs
    no kernel vector of C, as the contract's reconstruction and
    orthonormality bound every singular value of C by Mirsky's theorem.
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
    colour = digits(a.m, a.k).sum(axis=1) % 2
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
    # the member's slots, and find each neighbour among the members by its
    # key owner * dim + rank (increasing, as ranks ascend within a set).
    row_members = np.flatnonzero(member_colour == row_colour[owner])
    table = a.sign[ranks[row_members]]
    at, slot = np.nonzero(table)
    src = row_members[at]
    member_keys = owner * a.dim + ranks
    wanted = owner[src] * a.dim + ranks[src] + slot_steps(a.m, a.k)[slot]
    hit = np.minimum(np.searchsorted(member_keys, wanted), len(ranks) - 1)
    inside = member_keys[hit] == wanted
    src, dst, entry_vals = src[inside], hit[inside], table[at, slot][inside].astype(np.int64)

    spectra: list = [None] * len(sizes)
    for gp, gq in dict.fromkeys(zip(p.tolist(), q.tolist())):
        group = np.flatnonzero((p == gp) & (q == gq))
        sv = np.zeros((len(group), gp))  # each block's sigma by column, a column being a row of C
        if gq:
            slot = np.full(len(sizes), -1)
            slot[group] = np.arange(len(group))
            mine = slot[owner[src]] >= 0
            entries = (slot[owner[src[mine]]], local[src[mine]], local[dst[mine]], entry_vals[mine])
            parts = _gram_parts(*entries, len(group), gp, gq, split=sets is None)
            factors = _gram_svd(parts)
            _check_svd_contract(parts, factors, len(group), gp, gq)
            for part, f in zip(parts, factors):
                sv[part.block[:, None], part.rows] = f.sv
        top = np.sort(sv, axis=1)[:, gp - gq :]  # the q largest
        values = np.concatenate((top, -top, np.zeros((len(group), gp - gq))), axis=1)
        for i, rep in zip(group.tolist(), _spectrum_reports(values)):
            spectra[i] = rep
    return spectra


def multiset_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Max pointwise gap between two sorted multisets; inf on size mismatch."""
    if len(a) != len(b):
        return float("inf")
    sa = sorted(a)
    sb = sorted(b)
    return max((abs(x - y) for x, y in zip(sa, sb)), default=0.0)


# ------------------- base certificate and closed form ----------------------


def _links(b: SignedMatrix) -> np.ndarray:
    """The links B[j, j + 1] of a level-1 table, its up slots, in int64."""
    return b.sign[: b.m - 1, 1].astype(np.int64)


def _block_step_table(links: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The (m^2, 4) slot table of D ⊗ B + B ⊗ I, D = diag(d) and B the
    symmetric path with links: row (a, c) holds B[a, a - 1], d[a] B[c, c - 1],
    d[a] B[c, c + 1] and B[a, a + 1], 0 beyond the path's ends."""
    up, down = np.append(links, 0), np.insert(links, 0, 0)  # B[c, c + 1] and B[c, c - 1]
    m = len(up)
    table = np.empty((m, m, 4), dtype=np.int64)
    table[:, :, 0], table[:, :, 3] = down[:, None], up[:, None]
    table[:, :, 1], table[:, :, 2] = np.outer(d, down), np.outer(d, up)
    return table.reshape(m * m, 4)


def _lemma(b: SignedMatrix, a2: SignedMatrix | None) -> Iterator[tuple[str, bool]]:
    """(name, holds) of each clause of the block step's lemma in turn, each
    evaluated when reached, on the level-1 table b of B and the level-2
    table a2; without a2, the clauses of B alone.  D is read off a2, whose
    diagonal block a holds D[a, a] B, at the entry (am, am + 1)."""
    m = b.m
    yield "check_support", check_support(b, b.graph())
    links = _links(b)
    if a2 is not None:
        d = a2.sign[::m, 2] * links[0]
        yield "D^2 = I", bool(np.all(np.abs(d) == 1))
        yield "DB + BD = 0", not np.any(links * (d[:-1] + d[1:]))
        yield "A_2 = D ⊗ B + B ⊗ I", np.array_equal(a2.sign, _block_step_table(links, d))
    yield f"det(xI - B) = base_charpoly({m})", path_charpoly(links.tolist()) == base_charpoly(m)


def base_certificate_holds(b: SignedMatrix, a2: SignedMatrix) -> bool:
    """Every clause of the block step's lemma (spectrum_check) on the
    level-1 table b and the level-2 table a2, in exact integers."""
    return all(holds for _, holds in _lemma(b, a2))


def base_certificate(m: int) -> bool:
    """base_certificate_holds on the builder's level-1 and level-2 tables
    for m; SizeCapError when m^2 exceeds the grid size cap."""
    return base_certificate_holds(signed_grid_matrix(m, 1), signed_grid_matrix(m, 2))


def closed_form_spectrum(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> SpectrumReport:
    """Spectrum of the level-k signed matrix of [m]^k, with no eigensolve.

    By base_certificate, A_k^2 has the sums of k eigenvalues of B^2: j_i
    copies of its distinct value mu_i, of multiplicity c_i, give sum j_i mu_i
    k! / prod j_i! * prod c_i^j_i times.  B^2 has 0 once and 2 twice for
    m = 3, and each root of poly_g(m / 2) twice for even m: the closed-form
    roots, each placed by exact Sturm counts (_bracket_g_roots, else
    BracketingError).  The support is bipartite (check_support), so each
    s > 0 splits evenly into +-sqrt(s).  SizeCapError above size_cap, before
    any value is expanded.
    """
    check_signed_params(m, k, size_cap)
    base = [(0.0, 1), (2.0, 2)] if m == 3 else [(root, 2) for root in _bracket_g_roots(m // 2)]
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


def interlacing_holds(host: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """Per row of subs, eigenvalue interlacing between host, the spectrum of
    a symmetric matrix, and that row, the spectrum of a principal
    submatrix, both ascending: lambda_i >= mu_i >= lambda_(n-m+i) within
    DEFAULT_GROUP_TOL, both indexed descending."""
    big, small = np.asarray(host, dtype=float)[::-1], np.asarray(subs, dtype=float)[:, ::-1]
    n, m = len(big), small.shape[1]
    if m > n:
        raise DimensionMismatchError("submatrix larger than the host matrix")
    return np.all((big[:m] + DEFAULT_GROUP_TOL >= small) & (small >= big[n - m :] - DEFAULT_GROUP_TOL), axis=1)


def interlacing_check(host: SpectrumReport, sub: SpectrumReport) -> bool:
    """interlacing_holds for one principal submatrix spectrum sub."""
    return bool(interlacing_holds(np.array(host.eigenvalues), np.array([sub.eigenvalues]).reshape(1, -1))[0])


@dataclass(frozen=True)
class SpectrumCheck:
    """What spectrum_check certified for the level-k signed matrix of [m]^k;
    zero_multiplicity and min_positive are None unless it passed.  proof
    names the checks that passed, or the first that failed."""

    m: int
    k: int
    zero_multiplicity: int | None
    min_positive: float | None
    passed: bool
    proof: str


def spectrum_check(m: int, k: int) -> SpectrumCheck:
    """The paper's spectral facts about the level-k signed matrix A_k of
    [m]^k, for any k, certified exactly by the block step's lemma, with no
    table of level k, no eigensolve and no expansion of the closed form.

    The builder applies one step per level, A_k = D ⊗ A_(k-1) + B ⊗ I, with
    the level-1 path B and a D it does not store, read off the level-2
    table (_lemma).  The clauses:

    - check_support on the level-1 table: B is +-1 exactly on the path's
      edges, and symmetric;
    - D^2 = I: every D[a, a] is +-1;
    - DB + BD = 0: D changes sign across every link of B;
    - A_2 = D ⊗ B + B ⊗ I, slot for slot on the level-2 table, so the
      builder's step is this one and D is diagonal, as a slot table holds
      no other entry;
    - det(xI - B) = base_charpoly(m), from the continuant of B's links
      (path_charpoly): B^2 has 0 once and 2 twice for m = 3, and each root
      of poly_g(m / 2) twice for even m.

    The first four give A_k^2 = D^2 ⊗ A_(k-1)^2 + (DB + BD) ⊗ A_(k-1) +
    B^2 ⊗ I = I ⊗ A_(k-1)^2 + B^2 ⊗ I, so the eigenvalues of A_k^2 are the
    sums of k eigenvalues of B^2 (Horn & Johnson, Topics in Matrix
    Analysis, 4.4).  A_k shares its kernel with A_k^2, and it anticommutes
    with the digit-sum parity signing, as B does and D is diagonal, so its
    spectrum is symmetric.  For k = 1, A_1 = B, and only the clauses of B
    are read, so the level-2 table is not built.  For even m, beta(m / 2)'s
    Sturm certificate then says that poly_g(m / 2) has no root at or below
    0 and that its least root is beta (else BracketingError).

    Counting the sums gives, for m = 3, the eigenvalue 0 once (every pick
    0) and sqrt(2) as the least positive one; for even m, no zero
    eigenvalue and sqrt(k beta(m / 2)) as the least positive one.  proof
    names the clauses that passed, or the first that failed.  ValueError
    unless m = 3 or m is even and k >= 1; SizeCapError above the grid size
    cap for m, or for m^2 when k >= 2, before anything is built.
    """
    check_signed_params(m, min(k, 2))
    checks = []
    for name, holds in _lemma(signed_grid_matrix(m, 1), signed_grid_matrix(m, 2) if k > 1 else None):
        if not holds:
            return SpectrumCheck(m, k, None, None, False, f"fails: {name}")
        checks.append(name)
    if m == 3:
        return SpectrumCheck(m, k, 1, sqrt(2.0), True, "; ".join(checks))
    least = beta(m // 2)
    checks.append(f"beta({m // 2}) Sturm certificate")
    return SpectrumCheck(m, k, 0, sqrt(k * least), True, "; ".join(checks))


def odd3_spectrum_check(k: int) -> SpectrumCheck:
    """spectrum_check of the m = 3 family."""
    return spectrum_check(3, k)


def min_positive_eig_even(n: int, k: int) -> float:
    """Smallest positive eigenvalue of the even signed matrix on [2n]^k,
    sqrt(k beta(n)) as spectrum_check certifies it; CertificateError if it fails."""
    r = spectrum_check(2 * n, k)
    if not r.passed:
        raise CertificateError(f"spectrum_check({2 * n}, {k}) {r.proof}")
    return r.min_positive


def nonsingularity_check_even(n: int, k: int) -> bool:
    """spectrum_check(2n, k).passed: the even signed matrix has no zero eigenvalue."""
    return spectrum_check(2 * n, k).passed


# --------------------------- spectrum composition --------------------------


def composed_square_spectrum(m: int, k: int) -> SpectrumReport:
    """Spectrum of the squared level-k matrix: the squares of
    closed_form_spectrum (no dense level-k solve)."""
    return spectrum_report([v * v for v in closed_form_spectrum(m, k).eigenvalues])


def square_compose_check(m: int, k: int) -> tuple[bool, float]:
    """Compare a signed_spectra solve of the level-k matrix with
    closed_form_spectrum, the composition of the spectrum of its square, as
    sorted multisets.  Returns (ok, distance), ok when the distance is at
    most DEFAULT_GROUP_TOL.  That also holds the squares within 1e-7 of
    composed_square_spectrum: within the cap every |eigenvalue| rho has
    rho^2 <= k lambda_max(B^2) < 16, so squares move by at most 2 rho
    1e-8.  SizeCapError above DEFAULT_EIG_DIM_CAP, before the matrix is
    built."""
    (rep,) = signed_spectra(signed_grid_matrix(m, k, DEFAULT_EIG_DIM_CAP))
    dist = multiset_distance(rep.eigenvalues, closed_form_spectrum(m, k).eigenvalues)
    return dist <= DEFAULT_GROUP_TOL, dist
