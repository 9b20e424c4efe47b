"""Recursive signed adjacency matrices of [m]^k, exact over the integers.

The base matrix on a path signs the i-th edge with (-1)^(i-1).  One block
extension step per extra factor places sign-alternating copies of the
previous matrix on the diagonal (indexed by the last coordinate) and
sign-alternating identity blocks on the off-diagonals:

    A(j+1) = D ⊗ A(j) + B ⊗ I,   D = diag(+1, -1, ...),  B = base matrix.

Supported parities: m = 3 ("odd3") and even m = 2n ("even2n").  A matrix is
kept as sorted integer COO arrays: parallel int64 arrays rows, cols and vals,
each edge stored in both directions, ordered by (row, col), so the key
row * dim + col increases strictly.  Every operation here (the block
extension, the support check, the exact square and its Kronecker identity)
works on whole arrays in int64, which is exact: entries are +-1 and a row has
at most 2k nonzeros.  Callers densify only for numerical spectra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import DimensionMismatchError, SizeCapError
from .grid import DEFAULT_SIZE_CAP, PathPower, VertexSet


@dataclass
class SignedMatrix:
    """Symmetric sparse matrix with entries in {-1, +1} and zero diagonal.

    rows, cols and vals are parallel int64 arrays holding every nonzero
    (both (i, j) and (j, i)), sorted by (row, col).  parity_tag is "odd3"
    (m = 3) or "even2n" (m = 2n); n and k record the parameters the matrix
    was built from.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    parity_tag: str
    n: int
    k: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        self.m = 3 if self.parity_tag == "odd3" else 2 * self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedMatrix):
            return NotImplemented
        params = (self.dim, self.parity_tag, self.n, self.k) == (other.dim, other.parity_tag, other.n, other.k)
        return params and all(
            np.array_equal(mine, theirs)
            for mine, theirs in ((self.rows, other.rows), (self.cols, other.cols), (self.vals, other.vals))
        )

    def keys(self) -> np.ndarray:
        """row * dim + col of every stored nonzero, in storage order."""
        return self.rows * self.dim + self.cols

    def entry(self, i: int, j: int) -> int:
        lo, hi = np.searchsorted(self.rows, (i, i + 1))
        p = lo + int(np.searchsorted(self.cols[lo:hi], j))
        return int(self.vals[p]) if p < hi and self.cols[p] == j else 0

    @property
    def nnz(self) -> int:
        """Number of stored (directed) nonzeros; twice the edge count."""
        return len(self.vals)

    def graph(self, size_cap: int = DEFAULT_SIZE_CAP) -> PathPower:
        return PathPower(self.m, self.k, size_cap=size_cap)

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=dtype)
        a[self.rows, self.cols] = self.vals
        return a


def _from_edges(dim: int, i: np.ndarray, j: np.ndarray, v: np.ndarray, tag: str, n: int, k: int) -> SignedMatrix:
    """The symmetric matrix with entry v at (i, j) and (j, i), sorted by (row, col)."""
    rows = np.concatenate((i, j))
    cols = np.concatenate((j, i))
    order = np.argsort(rows * dim + cols)
    return SignedMatrix(dim, rows[order], cols[order], np.concatenate((v, v))[order], tag, n, k)


def _alternating(count: int) -> np.ndarray:
    """+1, -1, +1, ... of the given length."""
    return 1 - 2 * (np.arange(count, dtype=np.int64) % 2)


def check_signed_params(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> None:
    """ValueError unless a signed matrix of [m]^k exists; SizeCapError above size_cap."""
    if m != 3 and m % 2 == 1:
        raise ValueError(f"signed matrices exist for m = 3 or even m, got m = {m}")
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    if m**k > size_cap:
        raise SizeCapError(f"m^k = {m**k} exceeds the size cap {size_cap}")


def signed_grid_matrix(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> SignedMatrix:
    """Recursive signed matrix of [m]^k for m = 3 or even m."""
    check_signed_params(m, k, size_cap)
    # Edges (lo, hi) with lo < hi.  Base: edge (i, i+1) carries (-1)^i, 0-based.
    lo = np.arange(m - 1, dtype=np.int64)
    hi = lo + 1
    v = _alternating(m - 1)
    signs = _alternating(m)
    dim = m
    for _ in range(k - 1):
        # Block a holds (-1)^a times the previous edges; blocks a and a + 1
        # are joined by (-1)^a times the identity.
        offsets = (np.arange(m, dtype=np.int64) * dim)[:, None]
        ident = np.arange((m - 1) * dim, dtype=np.int64)
        lo = np.concatenate(((offsets + lo).ravel(), ident))
        hi = np.concatenate(((offsets + hi).ravel(), ident + dim))
        v = np.concatenate(((signs[:, None] * v).ravel(), np.repeat(signs[:-1], dim)))
        dim *= m
    tag = "odd3" if m == 3 else "even2n"
    return _from_edges(dim, lo, hi, v, tag, m // 2, k)


def _adjacency_keys(g: PathPower) -> np.ndarray:
    """Sorted keys r * n + s of every ordered adjacent pair of g, from digits.

    Row r's neighbours r - m^(k-1) < ... < r - 1 < r + 1 < ... < r + m^(k-1)
    are laid out in that order, so the row-major selection is already sorted.
    """
    n = g.n_vertices
    r = np.arange(n, dtype=np.int64)[:, None]
    w = g.m ** np.arange(g.k, dtype=np.int64)
    digit = (r // w) % g.m
    steps = np.concatenate((-w[::-1], w))
    valid = np.concatenate(((digit > 0)[:, ::-1], digit < g.m - 1), axis=1)
    return (r * n + r + steps)[valid]


def check_support(a: SignedMatrix, g: PathPower) -> bool:
    """True iff the nonzero pattern of a equals the adjacency of g exactly.

    The stored keys must equal, in storage order, the sorted keys of the
    grid's adjacent pairs (computed from digits, not by the builder).  That
    rules out missing, extra, duplicated and diagonal entries and unsorted
    storage.  Every value must be +-1, and (i, j) and (j, i) must carry the
    same value.
    """
    if a.dim != g.n_vertices:
        raise DimensionMismatchError(f"matrix dim {a.dim} vs graph size {g.n_vertices}")
    if not len(a.rows) == len(a.cols) == len(a.vals):
        return False
    if not np.array_equal(a.keys(), _adjacency_keys(g)):
        return False
    if not np.all(np.abs(a.vals) == 1):
        return False
    # The key set is symmetric, so sorting the transposed keys pairs each
    # entry with its mirror image.
    mirror = np.argsort(a.cols * a.dim + a.rows)
    return bool(np.array_equal(a.vals[mirror], a.vals))


def _canonical(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal keys and drop zero sums: sorted (key, value) arrays."""
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, first)
    keep = sums != 0
    return keys[first][keep], sums[keep]


def _sparse_square(a: SignedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer A @ A as sorted (key, value) arrays, zero sums dropped.

    Each stored entry (i, l, v) is expanded against CSR row l: one product
    v * w per entry (l, j, w), keyed i * dim + j.
    """
    indptr = np.searchsorted(a.rows, np.arange(a.dim + 1))
    counts = indptr[a.cols + 1] - indptr[a.cols]
    total = int(counts.sum())
    # Position of each product's (l, j, w) in the arrays: row l's start plus
    # the product's offset within its run.
    run_start = np.cumsum(counts) - counts
    pos = np.arange(total) + np.repeat(indptr[a.cols] - run_start, counts)
    keys = np.repeat(a.rows, counts) * a.dim + a.cols[pos]
    return _canonical(keys, np.repeat(a.vals, counts) * a.vals[pos])


def square_identity_check(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Verify A(k)^2 = I_m ⊗ A(k-1)^2 + A(1)^2 ⊗ I in exact integers.

    The identity is stated with last-coordinate-major ranks: the lone base
    square acts on the last coordinate (the block index).  Valid for both
    supported parities; requires k >= 2.  Both sides are compared as
    canonical sorted (key, value) arrays.
    """
    if k < 2:
        raise ValueError(f"the square identity needs k >= 2, got k = {k}")
    ak = signed_grid_matrix(m, k, size_cap)
    prev = signed_grid_matrix(m, k - 1, size_cap)
    a1 = signed_grid_matrix(m, 1, size_cap)
    d, dim = prev.dim, ak.dim
    lhs_keys, lhs_vals = _sparse_square(ak)
    # I_m ⊗ P: block a holds P at offset a * d on both axes.
    p_keys, p_vals = _sparse_square(prev)
    p_rows, p_cols = np.divmod(p_keys, d)
    offsets = (np.arange(m, dtype=np.int64) * d)[:, None]
    left_keys = ((offsets + p_rows) * dim + offsets + p_cols).ravel()
    left_vals = np.tile(p_vals, m)
    # C ⊗ I_d: entry (i, j) of C lands on (i * d + t, j * d + t) for each t.
    c_keys, c_vals = _sparse_square(a1)
    c_rows, c_cols = np.divmod(c_keys, m)
    t = np.arange(d, dtype=np.int64)
    right_keys = ((c_rows[:, None] * d + t) * dim + c_cols[:, None] * d + t).ravel()
    right_vals = np.repeat(c_vals, d)
    rhs_keys, rhs_vals = _canonical(np.concatenate((left_keys, right_keys)), np.concatenate((left_vals, right_vals)))
    return bool(np.array_equal(lhs_keys, rhs_keys) and np.array_equal(lhs_vals, rhs_vals))


def principal_submatrix(a: SignedMatrix, s: VertexSet) -> np.ndarray:
    """Dense symmetric submatrix on the rows and columns of s, sorted by rank."""
    if len(s) == 0:
        raise ValueError("principal submatrix of an empty vertex set")
    if (s.m, s.k) != (a.m, a.k):
        raise DimensionMismatchError(f"set over [{s.m}]^{s.k} vs matrix of [{a.m}]^{a.k}")
    idx = np.array(s.ranks(), dtype=np.int64)
    pos = np.full(a.dim, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    p, q = pos[a.rows], pos[a.cols]
    inside = (p >= 0) & (q >= 0)
    out = np.zeros((len(idx), len(idx)), dtype=np.int64)
    out[p[inside], q[inside]] = a.vals[inside]
    return out


_MM_PARAMS = re.compile(r"% pathpower m=(\d+) k=(\d+) parity=(odd3|even2n)")


def write_matrix_market(a: SignedMatrix, target: str | IO[str]) -> None:
    """Write the matrix in Matrix Market coordinate format.

    1-based indices, integer values, symmetric header; one entry per edge
    (lower triangle).  A comment line records m, k and the parity tag, which
    the dimension m^k alone does not determine (64 = 2^6 = 4^3 = 8^2).
    """
    lower = a.rows > a.cols  # storage order sorts these by (i, j)
    entries = zip(a.rows[lower].tolist(), a.cols[lower].tolist(), a.vals[lower].tolist())
    lines = ["%%MatrixMarket matrix coordinate integer symmetric"]
    lines.append(f"% pathpower m={a.m} k={a.k} parity={a.parity_tag}")
    lines.append(f"{a.dim} {a.dim} {int(lower.sum())}")
    lines.extend(f"{i + 1} {j + 1} {v}" for i, j, v in entries)
    text = "\n".join(lines) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def read_matrix_market(source: str | IO[str]) -> SignedMatrix:
    """Read back a matrix written by write_matrix_market (round-trip aid).

    Raises ValueError when the m, k and parity comment line is missing or
    disagrees with the dimension, when the entry lines are more or fewer than
    the size line counts, or when an index lies outside 1..dim (index arrays
    would otherwise wrap a 0 around to the last row).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    params = next((p for p in map(_MM_PARAMS.fullmatch, text.splitlines()) if p), None)
    if params is None:
        raise ValueError("no '% pathpower m=.. k=.. parity=..' line: the dimension alone does not fix m and k")
    m, k, tag = int(params[1]), int(params[2]), params[3]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    dim, _, count = (int(t) for t in lines[0].split())
    m_fits_tag = m == 3 if tag == "odd3" else m >= 2 and m % 2 == 0
    if not m_fits_tag or not 1 <= k <= dim.bit_length() or dim != m**k:
        raise ValueError(f"parameters m={m} k={k} parity={tag} do not fit dimension {dim}")
    if len(lines) - 1 != count:
        raise ValueError(f"{len(lines) - 1} entry lines, but the size line counts {count}")
    ijv = np.array([[int(t) for t in ln.split()] for ln in lines[1:]], dtype=np.int64).reshape(-1, 3)
    if np.any((ijv[:, :2] < 1) | (ijv[:, :2] > dim)):
        raise ValueError(f"an entry index lies outside 1..{dim}")
    return _from_edges(dim, ijv[:, 0] - 1, ijv[:, 1] - 1, ijv[:, 2], tag, m // 2, k)
