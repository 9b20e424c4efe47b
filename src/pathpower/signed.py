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

The builder and the support check work on the grid's slot table, n rows by
2k slots: slot c of row r is the neighbour r + steps[c], with

    steps = (-m^(k-1), ..., -m, -1, +1, +m, ..., +m^(k-1)),

so slot k - 1 - i steps down and slot k + i steps up along axis i.  The
steps increase across a row, so the present slots, taken row-major, are
already sorted by (row, col): neither needs a sort.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import DimensionMismatchError
from .grid import DEFAULT_SIZE_CAP, PathPower, VertexSet, check_grid


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

    def graph(self) -> PathPower:
        """The grid [m]^k of the matrix, capped at the matrix's own dim."""
        return PathPower(self.m, self.k, size_cap=self.dim)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=np.int64)
        a[self.rows, self.cols] = self.vals
        return a


def _from_edges(dim: int, i: np.ndarray, j: np.ndarray, v: np.ndarray, tag: str, n: int, k: int) -> SignedMatrix:
    """The symmetric matrix with entry v at (i, j) and (j, i), sorted by (row, col):
    for edges in arbitrary order, as a Matrix Market file may list them."""
    rows = np.concatenate((i, j))
    cols = np.concatenate((j, i))
    order = np.argsort(rows * dim + cols)
    return SignedMatrix(dim, rows[order], cols[order], np.concatenate((v, v))[order], tag, n, k)


def check_signed_params(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> None:
    """ValueError unless a signed matrix of [m]^k exists; SizeCapError above size_cap."""
    if m != 3 and m % 2 == 1:
        raise ValueError(f"signed matrices exist for m = 3 or even m, got m = {m}")
    check_grid(m, k, size_cap)


def _slot_entries(present: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions, rows and columns of the set slots of an (n, 2k) slot
    table of [m]^k, taken row-major: sorted by (row, col)."""
    width = present.shape[1]
    w = m ** np.arange(width // 2, dtype=np.int64)
    steps = np.concatenate((-w[::-1], w))
    pos = np.flatnonzero(present)
    rows = np.repeat(np.arange(len(present), dtype=np.int64), np.count_nonzero(present, axis=1))
    return pos, rows, rows + steps[pos - rows * width]


def signed_grid_matrix(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> SignedMatrix:
    """Recursive signed matrix of [m]^k for m = 3 or even m.

    The recursion runs on the slot table (module docstring): sign[r, c] is
    the entry at (r, r + steps[c]), 0 where that slot is not a neighbour.
    A(j) fills the inner 2j slots of the first m^j rows.  Level j + 1 copies
    them into blocks 1..m-1 times (-1)^a (D ⊗ A(j)) and sets the two slots
    of axis j, a link of sign (-1)^a between blocks a and a + 1 (B ⊗ I).
    The row-major selection of the nonzero slots is the sorted storage.
    """
    check_signed_params(m, k, size_cap)
    dim, width = m**k, 2 * k
    sign = np.zeros((dim, width), dtype=np.int8)
    links = np.ones(m - 1, dtype=np.int8)
    links[1::2] = -1  # links[a] = (-1)^a joins blocks a and a + 1
    sign[1:m, k - 1] = links  # base: edge (i, i + 1) carries (-1)^i, 0-based
    sign[: m - 1, k] = links
    size = m
    for j in range(1, k):
        blocks = sign[: m * size].reshape(m, size, width)
        inner = blocks[0, :, k - j : k + j]
        blocks[2::2, :, k - j : k + j] = inner
        blocks[1::2, :, k - j : k + j] = -inner
        blocks[1:, :, k - 1 - j] = links[:, None]
        blocks[:-1, :, k + j] = links[:, None]
        size *= m
    pos, rows, cols = _slot_entries(sign != 0, m)
    tag = "odd3" if m == 3 else "even2n"
    return SignedMatrix(dim, rows, cols, sign.ravel()[pos].astype(np.int64), tag, m // 2, k)


def _grid_slots(g: PathPower) -> np.ndarray:
    """The (n, 2k) bool slot table of g, from digits: slot c of row r is set
    iff r + steps[c] is adjacent to r.

    Slot k + i steps up along axis i, so it is set iff digit i of r is
    below m - 1; slot k - 1 - i iff that digit is above 0.  Digit i is
    constant on runs of m^i ranks and cycles through 0..m-1, so each slot is
    a fixed pattern of runs, set by slicing with no division.
    """
    n, m, k = g.n_vertices, g.m, g.k
    present = np.zeros((n, 2 * k), dtype=bool)
    for i in range(k):
        runs = present.reshape(n // m ** (i + 1), m, m**i, 2 * k)  # (higher digits, digit i, lower digits)
        runs[:, : m - 1, :, k + i] = True
        runs[:, 1:, :, k - 1 - i] = True
    return present


def check_support(a: SignedMatrix, g: PathPower) -> bool:
    """True iff the nonzero pattern of a equals the adjacency of g exactly.

    The grid's side comes from digits (_grid_slots), not from the builder's
    recursion.  Three clauses, none of which sorts:

    - keys: the stored keys must equal, in storage order, the keys
      r * n + r + steps[c] of the set slots taken row-major (sorted, see
      the module docstring).  That rules out missing, extra, duplicated
      and diagonal entries and unsorted storage.
    - values: every value is +-1.
    - mirror: the values are scattered back into the slot table, where
      the entry (r, r + m^i) sits in slot k + i of row r and its mirror in
      slot k - 1 - i of row r + m^i; each axis's two slot columns, offset
      by m^i rows, must be equal.  Absent slots read 0 on both sides.
    """
    if a.dim != g.n_vertices:
        raise DimensionMismatchError(f"matrix dim {a.dim} vs graph size {g.n_vertices}")
    if not len(a.rows) == len(a.cols) == len(a.vals):
        return False
    n, m, k = g.n_vertices, g.m, g.k
    present = _grid_slots(g)
    pos, rows, cols = _slot_entries(present, m)
    if not np.array_equal(a.keys(), rows * n + cols):
        return False
    if not np.all(np.abs(a.vals) == 1):
        return False
    table = np.zeros(present.shape, dtype=np.int8)
    table.ravel()[pos] = a.vals
    return all(np.array_equal(table[: n - m**i, k + i], table[m**i :, k - 1 - i]) for i in range(k))


def _canonical(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal keys and drop zero sums: sorted (key, value) arrays."""
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, first)
    keep = sums != 0
    return keys[first][keep], sums[keep]


def _run_positions(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[t], start[t] + 1, ..., start[t] + count[t] - 1 for every t, concatenated:
    the positions of runs of a sorted array, such as the stored entries of CSR rows."""
    return np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)


def _sparse_square(a: SignedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer A @ A as sorted (key, value) arrays, zero sums dropped.

    Each stored entry (i, l, v) is expanded against CSR row l: one product
    v * w per entry (l, j, w), keyed i * dim + j.
    """
    indptr = np.searchsorted(a.rows, np.arange(a.dim + 1))
    counts = indptr[a.cols + 1] - indptr[a.cols]
    pos = _run_positions(indptr[a.cols], counts)  # each product's (l, j, w)
    keys = np.repeat(a.rows, counts) * a.dim + a.cols[pos]
    return _canonical(keys, np.repeat(a.vals, counts) * a.vals[pos])


def square_identity_check(m: int, k: int) -> bool:
    """Verify A(k)^2 = I_m ⊗ A(k-1)^2 + A(1)^2 ⊗ I in exact integers.

    The identity is stated with last-coordinate-major ranks: the lone base
    square acts on the last coordinate (the block index).  Valid for both
    supported parities; requires k >= 2.  Both sides are compared as
    canonical sorted (key, value) arrays.
    """
    if k < 2:
        raise ValueError(f"the square identity needs k >= 2, got k = {k}")
    ak = signed_grid_matrix(m, k)
    prev = signed_grid_matrix(m, k - 1)
    a1 = signed_grid_matrix(m, 1)
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
