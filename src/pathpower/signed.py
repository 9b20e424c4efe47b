"""Recursive signed adjacency matrices of [m]^k, exact over the integers.

The base matrix on a path signs the i-th edge with (-1)^(i-1).  One block
extension step per extra factor places sign-alternating copies of the
previous matrix on the diagonal (indexed by the last coordinate) and
sign-alternating identity blocks on the off-diagonals:

    A(j+1) = D ⊗ A(j) + B ⊗ I,   D = diag(+1, -1, ...),  B = base matrix.

Supported parities: m = 3 ("odd3") and even m = 2n ("even2n").  A matrix is
kept as the grid's slot table (grid module docstring): an (m^k, 2k) int8
array sign, sign[r, c] the entry at (r, r + steps[c]) and 0 where slot c is
not a neighbour, so each edge is stored once in each direction.  Every
operation here (the block extension, the support check and the square's
Kronecker identity) works exactly on whole tables or their column slices.
The identity forms no square: it is read off the signs of the table's
faces and lines (square_identity_holds).  check_support and
square_identity_holds are the check that a given table is the builder's
matrix; the spectral facts of every level follow from the level-1 and
level-2 tables alone (spectral.spectrum_check).  Taken row-major, the set
slots are the entries sorted by (row, col), so nothing here sorts.
Callers densify only for numerical spectra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import DimensionMismatchError
from .grid import (
    DEFAULT_SIZE_CAP,
    PathPower,
    VertexSet,
    check_grid,
    int_label,
    is_grid_edge,
    parse_int,
    present_slots,
    slot_steps,
)


@dataclass
class SignedMatrix:
    """Symmetric sparse matrix with entries in {-1, +1} and zero diagonal.

    sign is the (m^k, 2k) int8 slot table of [m]^k: sign[r, c] is the entry
    at (r, r + steps[c]), 0 where slot c has no neighbour.  Two matrices are
    equal when m, k and the table are.  dim, m^k, comes from check_grid
    with DEFAULT_SIZE_CAP, as a PathPower's vertex count does.
    """

    sign: np.ndarray
    m: int
    k: int
    dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dim = check_grid(self.m, self.k, DEFAULT_SIZE_CAP)

    @property
    def parity_tag(self) -> str:
        """The tag of m's family (signed_family)."""
        return signed_family(self.m)

    @property
    def n(self) -> int:
        """m // 2, the n of an even m = 2n."""
        return self.m // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedMatrix):
            return NotImplemented
        return (self.m, self.k) == (other.m, other.k) and np.array_equal(self.sign, other.sign)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """int64 (rows, cols, vals) of the set slots, row-major: sorted by
        (row, col).  ValueError unless the table is dim x 2k and no nonzero
        steps off the grid, where an index array would wrap around."""
        if self.sign.shape != (self.dim, 2 * self.k):
            raise ValueError(f"slot table of shape {self.sign.shape} for [{self.m}]^{self.k}")
        rows, slots = np.nonzero(self.sign)
        cols = rows + slot_steps(self.m, self.k)[slots]
        if np.any((cols < 0) | (cols >= self.dim)):
            raise ValueError("a nonzero slot steps off the grid")
        return rows, cols, self.sign[rows, slots].astype(np.int64)

    def entry(self, i: int, j: int) -> int:
        slot = np.flatnonzero(slot_steps(self.m, self.k) == j - i)
        inside = 0 <= i < self.dim and 0 <= j < self.dim
        return int(self.sign[i, slot[0]]) if inside and len(slot) else 0

    @property
    def nnz(self) -> int:
        """Number of stored (directed) nonzeros; twice the edge count."""
        return int(np.count_nonzero(self.sign))

    def graph(self) -> PathPower:
        """The grid [m]^k of the matrix."""
        return PathPower(self.m, self.k)

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.entries()
        a = np.zeros((self.dim, self.dim), dtype=np.int64)
        a[rows, cols] = vals
        return a


def signed_family(m: int) -> str:
    """The tag of m's family of signed matrices: odd3 for m = 3, even2n for
    even m = 2n; ValueError for any other odd m."""
    if m != 3 and m % 2 == 1:
        raise ValueError(f"signed matrices exist for m = 3 or even m, got m = {int_label(m)}")
    return "odd3" if m == 3 else "even2n"


def check_signed_params(m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """m^k, the dimension of the signed matrix of [m]^k; ValueError unless
    one exists (signed_family, then check_grid), SizeCapError above size_cap."""
    signed_family(m)
    return check_grid(m, k, size_cap)


def signed_grid_matrix(m: int, k: int) -> SignedMatrix:
    """Recursive signed matrix of [m]^k for m = 3 or even m.

    The recursion runs on the slot table (module docstring): sign[r, c] is
    the entry at (r, r + steps[c]), 0 where that slot is not a neighbour.
    A(j) fills the inner 2j slots of the first m^j rows.  Level j + 1 copies
    them into blocks 1..m-1 times (-1)^a (D ⊗ A(j)) and sets the two slots
    of axis j, a link of sign (-1)^a between blocks a and a + 1 (B ⊗ I).
    ValueError unless m = 3 or m is even and k >= 1; SizeCapError above
    DEFAULT_SIZE_CAP, before the table is allocated.
    """
    dim, width = check_signed_params(m, k), 2 * k
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
    return SignedMatrix(sign, m, k)


def check_support(a: SignedMatrix, g: PathPower) -> bool:
    """True iff the nonzero pattern of a equals the adjacency of g exactly.

    The grid's side is grid.present_slots, set from digits, not from the
    builder's recursion.  Three clauses, none of which sorts:

    - support: the table has the grid's shape and is nonzero exactly on
      its present slots, so no entry is missing and none lies on an absent
      slot, across a digit carry or off the grid;
    - values: every present slot holds +-1 (with support, |sign| == present);
    - mirror: the entry (r, r + m^i) sits in slot k + i of row r and its
      mirror in slot k - 1 - i of row r + m^i; each axis's two slot
      columns, offset by m^i rows, must be equal.
    """
    if a.dim != g.n_vertices:
        raise DimensionMismatchError(f"matrix dim {a.dim} vs graph size {g.n_vertices}")
    present = present_slots(g.m, g.k)
    if a.sign.shape != present.shape or not np.array_equal(np.abs(a.sign), present):
        return False
    return _mirrored(a)


def _mirrored(a: SignedMatrix) -> bool:
    """The mirror clause of check_support, on a table of the grid's shape."""
    n, m, k = a.dim, a.m, a.k
    return all(np.array_equal(a.sign[: n - m**i, k + i], a.sign[m**i :, k - 1 - i]) for i in range(k))


def square_identity_holds(a: SignedMatrix) -> bool:
    """Whether A^2 is the Kronecker sum of k copies of B^2, exactly: that
    is, A(j)^2 = I_m ⊗ A(j-1)^2 + B^2 ⊗ I at every level j = 2..k, level j
    the table's first m^j rows and inner 2j slots, and B = A(1).

    Lemma.  Let A be symmetric with entries +-1 exactly on the grid's
    edges (check_support).  The diagonal of A^2 and of the Kronecker sum is
    then the vertex degree, and an entry of A^2 off the diagonal sums the
    two-step paths between its ends.  So A^2 = B^2 ⊕ ... ⊕ B^2 iff
    - face: every unit square spanned by two axes i < l has sign product
      -1, so its two paths cancel, as the Kronecker sum's zero cross terms
      require; and
    - line: every two consecutive edges along axis i, meeting at a vertex
      whose digit i is d, have product b_(d-1) b_d, the entry of B^2 they
      must repeat, where b_t = A[t, t + 1] are the table's own level-1
      links (m = 2 has no such pair).

    The check reads column slices of the slot table alone: the mirror
    clause of check_support, then each line and face of the up slots, in
    int32, which is exact for int8 entries.  It needs no values clause for
    k >= 2: every edge lies on a face, and a face's product is -1 only when
    its four entries are +-1, so a table that passes also passes
    check_support.  ValueError unless the table has the grid's shape and
    every nonzero is on a present slot, where A^2 would join non-neighbours.
    """
    n, m, k = a.dim, a.m, a.k
    present = present_slots(m, k)
    if a.sign.shape != present.shape or np.any(a.sign[~present]):
        raise ValueError(f"a nonzero off the slots of [{m}]^{k}: its square would join non-neighbours")
    if not _mirrored(a):
        return False
    up = a.sign[:, k:].T.astype(np.int32, order="C")  # up[i, r] = A[r, r + m^i]
    links = up[0, : m - 1]
    for l in range(k):
        line = up[l].reshape(n // m ** (l + 1), m, m**l)  # (higher digits, digit l, lower digits)
        if np.any(line[:, :-2] * line[:, 1:-1] != (links[:-1] * links[1:])[:, None]):
            return False
        for i in range(l):
            shape = (n // m ** (l + 1), m, m ** (l - i - 1), m, m**i)  # digits above l, l, between, i, below i
            ui, ul = up[i].reshape(shape), up[l].reshape(shape)
            face = ui[:, :-1, :, :-1] * ul[:, :-1, :, 1:] * ul[:, :-1, :, :-1] * ui[:, 1:, :, :-1]
            if np.any(face != -1):
                return False
    return True


def square_identity_check(m: int, k: int) -> bool:
    """Verify A(k)^2 = I_m ⊗ A(k-1)^2 + A(1)^2 ⊗ I at every level 2..k in
    exact integers, k >= 2, on the builder's one matrix (square_identity_holds)."""
    if k < 2:
        raise ValueError(f"the square identity needs k >= 2, got k = {k}")
    return square_identity_holds(signed_grid_matrix(m, k))


def principal_submatrix(a: SignedMatrix, s: VertexSet) -> np.ndarray:
    """Dense symmetric submatrix on the rows and columns of s, sorted by rank."""
    if len(s) == 0:
        raise ValueError("principal submatrix of an empty vertex set")
    if (s.m, s.k) != (a.m, a.k):
        raise DimensionMismatchError(f"set over [{s.m}]^{s.k} vs matrix of [{a.m}]^{a.k}")
    idx = np.array(s.ranks(), dtype=np.int64)
    pos = np.full(a.dim, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    rows, cols, vals = a.entries()
    p, q = pos[rows], pos[cols]
    inside = (p >= 0) & (q >= 0)
    out = np.zeros((len(idx), len(idx)), dtype=np.int64)
    out[p[inside], q[inside]] = vals[inside]
    return out


_MM_BANNER = "%%MatrixMarket matrix coordinate integer symmetric"
_MM_PARAMS = re.compile(r"% pathpower m=(\d+) k=(\d+) parity=(odd3|even2n)")


def write_matrix_market(a: SignedMatrix, target: str | IO[str]) -> None:
    """Write the matrix in Matrix Market coordinate format.

    1-based indices, integer values, symmetric header; one entry per edge
    (lower triangle).  A comment line records m, k and the parity tag, which
    the dimension m^k alone does not determine (64 = 2^6 = 4^3 = 8^2).
    ValueError, before anything is written, unless m has a signed family.
    """
    rows, cols, vals = a.entries()
    lower = rows > cols  # the down slots, sorted by (i, j)
    entries = zip(rows[lower].tolist(), cols[lower].tolist(), vals[lower].tolist())
    lines = [_MM_BANNER]
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

    Entry (i, j, v) sets the up slot of j and the down slot of i along the
    edge's axis.  SizeCapError above DEFAULT_SIZE_CAP, decided from m and k
    alone.  ValueError on an m, k or size-line value of over 4,300
    characters (see grid.parse_int), when the first line is not the
    writer's banner, when the m, k and parity line is missing or disagrees
    with the dimension, when the size line's two dimensions differ, when the
    entry lines are more or fewer than the size line counts or one does not
    hold exactly three integers, on an entry that is not an integer or that
    the table cannot hold or the writer would not write (an index outside
    1..dim, as an index array would wrap a 0 to the last row; a value other
    than +-1, checked before the int8 narrowing; entries out of the writer's
    order, each edge once, as (i, j) with i > j, by row, then column, so no
    self-loop; a pair that is not a grid edge), and when the entries are not
    all k(m - 1)m^(k - 1) edges of the grid.  Refusals name a value of 2^64
    or more by its bit length (grid.int_label).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    if text.splitlines()[:1] != [_MM_BANNER]:
        raise ValueError(f"the first line is not the banner {_MM_BANNER!r}")
    params = next((p for p in map(_MM_PARAMS.fullmatch, text.splitlines()) if p), None)
    if params is None:
        raise ValueError("no '% pathpower m=.. k=.. parity=..' line: the dimension alone does not fix m and k")
    m, k, tag = parse_int(params[1], "m"), parse_int(params[2], "k"), params[3]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    if not lines:
        raise ValueError("no size line")
    dim, cols, count = (parse_int(t, "a size-line value") for t in lines[0].split())
    if cols != dim:
        raise ValueError(f"the size line has {int_label(dim)} rows but {int_label(cols)} columns")
    # the cap is decided from (m, k) alone, before m^k is formed or a table allocated
    if dim != check_signed_params(m, k) or tag != signed_family(m):
        raise ValueError(f"parameters m={m} k={k} parity={tag} do not fit dimension {int_label(dim)}")
    g = PathPower(m, k)
    if len(lines) - 1 != count:
        raise ValueError(f"{len(lines) - 1} entry lines, but the size line counts {int_label(count)}")
    entries = [ln.split() for ln in lines[1:]]
    if any(len(e) != 3 for e in entries):
        raise ValueError("an entry line does not hold exactly three integers")
    try:
        ijv = np.array([[int(t) for t in e] for e in entries], dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise ValueError("an entry holds an integer beyond int64") from None
    except ValueError:  # not an integer, or one of over 4,300 digits: int()'s own message could be that long
        raise ValueError("an entry holds a token that is not an integer of int64") from None
    if np.any((ijv[:, :2] < 1) | (ijv[:, :2] > dim)):
        raise ValueError(f"an entry index lies outside 1..{dim}")
    i, j, v = ijv[:, 0] - 1, ijv[:, 1] - 1, ijv[:, 2]
    if np.any(np.abs(v) != 1):
        raise ValueError("an entry value is not +-1")
    if np.any(i <= j) or np.any(np.diff(i * dim + j) <= 0):
        raise ValueError("entries out of the writer's order: each edge once, as (i, j) with i > j, by row, then column")
    if not np.all(is_grid_edge(g, i, j)):
        raise ValueError(f"an entry is not an edge of [{m}]^{k}")
    if count != g.edge_count:  # the entries are distinct edges, so one is missing
        raise ValueError(f"{count} entries, but [{m}]^{k} has {g.edge_count} edges")
    axis = np.searchsorted(slot_steps(m, k)[k:], i - j)  # i - j = m^axis
    sign = np.zeros((dim, 2 * k), dtype=np.int8)
    sign[j, k + axis] = v
    sign[i, k - 1 - axis] = v
    return SignedMatrix(sign, m, k)
