"""Recursive signed adjacency matrices of [m]^k, exact over the integers.

The base matrix on a path signs the i-th edge with (-1)^(i-1).  One block
extension step per extra factor places sign-alternating copies of the
previous matrix on the diagonal (indexed by the last coordinate) and
sign-alternating identity blocks on the off-diagonals:

    A(j+1) = D ⊗ A(j) + B ⊗ I,   D = diag(+1, -1, ...),  B = base matrix.

Supported parities: m = 3 ("odd3") and even m = 2n ("even2n").  Construction
and the squared-matrix decomposition stay in exact sparse integer form;
callers densify only for numerical spectra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import DimensionMismatchError, SizeCapError
from .grid import DEFAULT_SIZE_CAP, PathPower, VertexSet

Entries = dict[tuple[int, int], int]


@dataclass
class SignedMatrix:
    """Symmetric sparse matrix with entries in {-1, +1} and zero diagonal.

    entries stores both (i, j) and (j, i) for O(1) lookup.  parity_tag is
    "odd3" (m = 3) or "even2n" (m = 2n); n and k record the parameters the
    matrix was built from.
    """

    dim: int
    entries: Entries
    parity_tag: str
    n: int
    k: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        self.m = 3 if self.parity_tag == "odd3" else 2 * self.n

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def nnz(self) -> int:
        """Number of stored (directed) nonzeros; twice the edge count."""
        return len(self.entries)

    def graph(self, size_cap: int = DEFAULT_SIZE_CAP) -> PathPower:
        return PathPower(self.m, self.k, size_cap=size_cap)

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=dtype)
        for (i, j), v in self.entries.items():
            a[i, j] = v
        return a

    def rows(self) -> list[list[tuple[int, int]]]:
        """Adjacency-list view: rows()[i] is a list of (j, value) pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for (i, j), v in self.entries.items():
            out[i].append((j, v))
        return out


def _put(entries: Entries, i: int, j: int, v: int) -> None:
    entries[(i, j)] = v
    entries[(j, i)] = v


def _base_entries(m: int) -> Entries:
    """Signed path on m vertices: edge (i, i+1) carries (-1)^(i-1), 1-based."""
    entries: Entries = {}
    for i in range(m - 1):  # 0-based edge index
        _put(entries, i, i + 1, 1 if i % 2 == 0 else -1)
    return entries


def _extend(prev: Entries, prev_dim: int, m: int) -> Entries:
    """One block step: alternating +/- copies of prev on the diagonal,
    alternating +/-I on the off-diagonals, both starting positive."""
    out: Entries = {}
    for a in range(m):
        off = a * prev_dim
        sign = 1 if a % 2 == 0 else -1
        for (i, j), v in prev.items():
            out[(off + i, off + j)] = sign * v
    for a in range(m - 1):
        t = 1 if a % 2 == 0 else -1
        lo = a * prev_dim
        hi = (a + 1) * prev_dim
        for i in range(prev_dim):
            _put(out, lo + i, hi + i, t)
    return out


def signed_grid_matrix(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> SignedMatrix:
    """Recursive signed matrix of [m]^k for m = 3 or even m."""
    if m != 3 and m % 2 == 1:
        raise ValueError(f"signed matrices exist for m = 3 or even m, got m = {m}")
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    if m**k > size_cap:
        raise SizeCapError(f"m^k = {m**k} exceeds the size cap {size_cap}")
    entries = _base_entries(m)
    dim = m
    for _ in range(k - 1):
        entries = _extend(entries, dim, m)
        dim *= m
    tag = "odd3" if m == 3 else "even2n"
    return SignedMatrix(dim=dim, entries=entries, parity_tag=tag, n=m // 2, k=k)


def check_support(a: SignedMatrix, g: PathPower) -> bool:
    """True iff the nonzero pattern of a equals the adjacency of g exactly.

    Checks both inclusions: every edge carries a +-1 entry, the total count
    of stored nonzeros is twice the edge count (so there is nothing extra),
    the diagonal is empty, and the entries are symmetric.
    """
    if a.dim != g.n_vertices:
        raise DimensionMismatchError(f"matrix dim {a.dim} vs graph size {g.n_vertices}")
    seen = 0
    for r in range(g.n_vertices):
        for s in g.neighbor_ranks(r):
            v = a.entries.get((r, s), 0)
            if v not in (-1, 1):
                return False
            if v != a.entries.get((s, r), 0):
                return False
            seen += 1
    if seen != 2 * g.edge_count:
        return False
    if len(a.entries) != seen:
        return False
    return all(i != j for (i, j) in a.entries)


def _sparse_square(a: SignedMatrix) -> Entries:
    """Exact integer A @ A as a sparse map, zero results dropped."""
    rows = a.rows()
    out: Entries = {}
    for i in range(a.dim):
        acc: dict[int, int] = {}
        for l, v in rows[i]:
            for j, w in rows[l]:
                acc[j] = acc.get(j, 0) + v * w
        for j, s in acc.items():
            if s:
                out[(i, j)] = s
    return out


def _kron_identity_left(b: Entries, copies: int, width: int) -> Entries:
    """I_copies ⊗ B for a sparse B of dimension width."""
    out: Entries = {}
    for a in range(copies):
        off = a * width
        for (i, j), v in b.items():
            out[(off + i, off + j)] = v
    return out


def _kron_identity_right(c: Entries, width: int) -> Entries:
    """C ⊗ I_width for a sparse C."""
    out: Entries = {}
    for (i, j), v in c.items():
        for a in range(width):
            out[(i * width + a, j * width + a)] = v
    return out


def square_identity_check(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Verify A(k)^2 = I_m ⊗ A(k-1)^2 + A(1)^2 ⊗ I in exact integers.

    The identity is stated with last-coordinate-major ranks: the lone base
    square acts on the last coordinate (the block index).  Valid for both
    supported parities; requires k >= 2.
    """
    if k < 2:
        raise ValueError(f"the square identity needs k >= 2, got k = {k}")
    ak = signed_grid_matrix(m, k, size_cap)
    prev = signed_grid_matrix(m, k - 1, size_cap)
    a1 = signed_grid_matrix(m, 1, size_cap)
    lhs = _sparse_square(ak)
    rhs = _kron_identity_left(_sparse_square(prev), m, prev.dim)
    for key, v in _kron_identity_right(_sparse_square(a1), prev.dim).items():
        s = rhs.get(key, 0) + v
        if s:
            rhs[key] = s
        else:
            rhs.pop(key, None)
    return lhs == rhs


def principal_submatrix(a: SignedMatrix, s: VertexSet) -> np.ndarray:
    """Dense symmetric submatrix on the rows and columns of s, sorted by rank."""
    if len(s) == 0:
        raise ValueError("principal submatrix of an empty vertex set")
    idx = s.ranks()
    if idx[-1] >= a.dim:
        raise DimensionMismatchError(f"rank {idx[-1]} outside matrix of dim {a.dim}")
    size = len(idx)
    out = np.zeros((size, size), dtype=np.int64)
    for p, i in enumerate(idx):
        for q in range(p + 1, size):
            v = a.entries.get((i, idx[q]), 0)
            if v:
                out[p, q] = v
                out[q, p] = v
    return out


_MM_PARAMS = re.compile(r"% pathpower m=(\d+) k=(\d+) parity=(odd3|even2n)")


def write_matrix_market(a: SignedMatrix, target: str | IO[str]) -> None:
    """Write the matrix in Matrix Market coordinate format.

    1-based indices, integer values, symmetric header; one entry per edge
    (lower triangle).  A comment line records m, k and the parity tag, which
    the dimension m^k alone does not determine (64 = 2^6 = 4^3 = 8^2).
    """
    lower = sorted((i, j, v) for (i, j), v in a.entries.items() if i > j)
    lines = ["%%MatrixMarket matrix coordinate integer symmetric"]
    lines.append(f"% pathpower m={a.m} k={a.k} parity={a.parity_tag}")
    lines.append(f"{a.dim} {a.dim} {len(lower)}")
    lines.extend(f"{i + 1} {j + 1} {v}" for i, j, v in lower)
    text = "\n".join(lines) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def read_matrix_market(source: str | IO[str]) -> SignedMatrix:
    """Read back a matrix written by write_matrix_market (round-trip aid).

    Raises ValueError when the m, k and parity comment line is missing or
    disagrees with the dimension.
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
    entries: Entries = {}
    for ln in lines[1 : count + 1]:
        i, j, v = (int(t) for t in ln.split())
        _put(entries, i - 1, j - 1, v)
    return SignedMatrix(dim=dim, entries=entries, parity_tag=tag, n=m // 2, k=k)
