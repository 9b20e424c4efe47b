"""Grid graphs [m]^k: vertex ranking, adjacency, and induced-degree queries.

Vertices of the k-fold Cartesian power of an m-vertex path are k-tuples of
1-based coordinates in {1..m}.  Two vertices are adjacent exactly when their
coordinate tuples differ by 1 in a single position (1-norm distance 1).

Ranks are 0-based mixed-radix integers with the LAST coordinate most
significant: rank((c_1..c_k)) = sum_i (c_i - 1) * m^(i-1).  Fixing the last
coordinate therefore selects a contiguous rank block, which is what the
recursive block structure of the signed matrices relies on.

Vertex sets are bitsets over the ranks (one Python int).  Induced degree is
computed on the whole bitset at once: on axis i the neighbour above a rank r
is r + m^i, so one shift by m^i, masked to the ranks whose coordinate i can
still grow, marks every member with a member above it.  The 2k such masks
are added in a bit-sliced counter, so a query costs O(k) big-int operations
of m^k bits each instead of one shift per neighbour.  induced_max_degrees
runs the counter once for many sets, laid side by side in lanes of m^k bits.

Array code lays the neighbours out in the slot table, m^k rows by 2k
slots: slot c of row r is the neighbour r + steps[c], where the steps
(-m^(k-1), ..., -1, +1, ..., +m^(k-1)) ascend, so slot k - 1 - i steps
down and slot k + i up along axis i, and the present slots (grid edges),
taken row-major, are the edges sorted by (row, column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidVertexError, SizeCapError

DEFAULT_SIZE_CAP = 65536  # vertices of every grid-sized object, fixed so that no caller can raise it

Vertex = tuple[int, ...]


def check_grid(m: int, k: int, size_cap: int | float) -> int:
    """m^k, the vertex count of [m]^k; ValueError unless m >= 2 and k >= 1,
    SizeCapError when m^k exceeds size_cap (math.inf for no cap).

    A finite cap c is decided without forming a large m^k.  With b the bit
    length of c, n is m^k, at most c^(b - 1), when m <= c and k < b.
    Otherwise m^k > c (as m > c, or m^k >= 2^k >= 2^b > c), and n is c + 1,
    which stands for it.  The message names [m]^k, by bit lengths past 64
    bits."""
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    n = m**k if size_cap == math.inf or (m <= size_cap and k < size_cap.bit_length()) else size_cap + 1
    if n > size_cap:
        grid = f"[{m}]^{k}" if max(m, k) < 2**64 else f"[m]^k (m, k of {m.bit_length()}, {k.bit_length()} bits)"
        raise SizeCapError(f"{grid} has more than {size_cap} vertices, the size cap")
    return n


def digits(m: int, k: int) -> np.ndarray:
    """The (m^k, k) int64 digits of every rank of [m]^k, digit i in column i."""
    return np.arange(m**k, dtype=np.int64)[:, None] // m ** np.arange(k, dtype=np.int64) % m


def slot_steps(m: int, k: int) -> np.ndarray:
    """The 2k rank steps of the slot table (module docstring), ascending, int64."""
    w = m ** np.arange(k, dtype=np.int64)
    return np.concatenate((-w[::-1], w))


def present_slots(m: int, k: int) -> np.ndarray:
    """The (m^k, 2k) bool slot table of [m]^k: slot k + i of row r is set
    iff digit i of r is below m - 1, slot k - 1 - i iff it is above 0.
    Digit i is constant on runs of m^i ranks and cycles through 0..m-1, so
    each slot is a fixed pattern of runs, set by slicing with no division."""
    n = m**k
    present = np.zeros((n, 2 * k), dtype=bool)
    for i in range(k):
        runs = present.reshape(n // m ** (i + 1), m, m**i, 2 * k)  # (higher digits, digit i, lower digits)
        runs[:, : m - 1, :, k + i] = True
        runs[:, 1:, :, k - 1 - i] = True
    return present


def is_grid_edge(g: PathPower, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise: are ranks u and v adjacent in g?  Decided from digits:
    they differ by w = m^i and the lower one's digit i is below m - 1."""
    lo = np.minimum(u, v)
    gap = np.abs(u - v)
    weights = g.m ** np.arange(g.k, dtype=np.int64)
    w = weights[np.minimum(np.searchsorted(weights, gap), g.k - 1)]  # the weight m^i nearest above gap
    return (gap == w) & (lo // w % g.m < g.m - 1)


@dataclass(frozen=True)
class PathPower:
    """The graph on [m]^k with edges between tuples at 1-norm distance 1."""

    m: int
    k: int
    n_vertices: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_vertices", check_grid(self.m, self.k, DEFAULT_SIZE_CAP))

    @property
    def edge_count(self) -> int:
        return self.k * (self.m - 1) * self.m ** (self.k - 1)

    def validate_vertex(self, v: Vertex) -> None:
        if len(v) != self.k:
            raise InvalidVertexError(f"expected a {self.k}-tuple, got {v!r}")
        for c in v:
            if not 1 <= c <= self.m:
                raise InvalidVertexError(f"coordinate {c} outside 1..{self.m} in {v!r}")

    def rank(self, v: Vertex) -> int:
        """Mixed-radix rank of a vertex, last coordinate most significant."""
        self.validate_vertex(v)
        r = 0
        weight = 1
        for c in v:
            r += (c - 1) * weight
            weight *= self.m
        return r

    def unrank(self, r: int) -> Vertex:
        """Inverse of rank."""
        if not 0 <= r < self.n_vertices:
            raise InvalidVertexError(f"rank {r} outside 0..{self.n_vertices - 1}")
        coords = []
        for _ in range(self.k):
            coords.append(r % self.m + 1)
            r //= self.m
        return tuple(coords)

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        """True iff the coordinate tuples are at 1-norm distance exactly 1."""
        self.validate_vertex(u)
        self.validate_vertex(v)
        return sum(abs(a - b) for a, b in zip(u, v)) == 1

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """All vertices one coordinate step away, sorted by rank."""
        self.validate_vertex(v)
        out = []
        for i, c in enumerate(v):
            if c > 1:
                out.append(v[:i] + (c - 1,) + v[i + 1 :])
            if c < self.m:
                out.append(v[:i] + (c + 1,) + v[i + 1 :])
        out.sort(key=self.rank)
        return out

    def neighbor_ranks(self, r: int) -> list[int]:
        """Ranks of the neighbors of the vertex with rank r, ascending."""
        if not 0 <= r < self.n_vertices:
            raise InvalidVertexError(f"rank {r} outside 0..{self.n_vertices - 1}")
        out = []
        weight = 1
        rr = r
        for _ in range(self.k):
            digit = rr % self.m
            if digit > 0:
                out.append(r - weight)
            if digit < self.m - 1:
                out.append(r + weight)
            rr //= self.m
            weight *= self.m
        out.sort()
        return out

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks indexed by rank (arbitrary width ints)."""
        masks = [0] * self.n_vertices
        for r in range(self.n_vertices):
            acc = 0
            for s in self.neighbor_ranks(r):
                acc |= 1 << s
            masks[r] = acc
        return masks

    def vertices(self) -> Iterator[Vertex]:
        for r in range(self.n_vertices):
            yield self.unrank(r)


class VertexSet:
    """A subset of the vertices of [m]^k, stored as a rank-indexed bitset.

    Mutable; do not share a VertexSet being mutated across workers.
    Serializes to {"m": int, "k": int, "ranks": [sorted ints]}.
    """

    __slots__ = ("m", "k", "n_vertices", "_bits", "_size")

    def __init__(self, m: int, k: int, ranks: Iterable[int] = (), bits: int = 0):
        self.m = m
        self.k = k
        self.n_vertices = m**k
        self._bits = bits
        for r in ranks:
            self._check_rank(r)
            self._bits |= 1 << r
        if bits and bits >> self.n_vertices:
            raise InvalidVertexError("bit set beyond m^k - 1")
        self._size: int | None = None

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.n_vertices:
            raise InvalidVertexError(f"rank {r} outside 0..{self.n_vertices - 1}")

    @property
    def bits(self) -> int:
        return self._bits

    def add(self, r: int) -> None:
        self._check_rank(r)
        self._bits |= 1 << r
        self._size = None

    def discard(self, r: int) -> None:
        self._check_rank(r)
        self._bits &= ~(1 << r)
        self._size = None

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.n_vertices and (self._bits >> r) & 1 == 1

    def __len__(self) -> int:
        if self._size is None:
            self._size = self._bits.bit_count()
        return self._size

    def __iter__(self) -> Iterator[int]:
        """Member ranks in ascending order."""
        bits = self._bits
        while bits:
            lsb = bits & -bits
            yield lsb.bit_length() - 1
            bits ^= lsb

    def ranks(self) -> list[int]:
        return list(self)

    def copy(self) -> "VertexSet":
        return VertexSet(self.m, self.k, bits=self._bits)

    def complement(self) -> "VertexSet":
        full = (1 << self.n_vertices) - 1
        return VertexSet(self.m, self.k, bits=full ^ self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return (self.m, self.k, self._bits) == (other.m, other.k, other._bits)

    def __repr__(self) -> str:
        return f"VertexSet(m={self.m}, k={self.k}, size={len(self)})"

    def to_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "ranks": self.ranks()}

    @classmethod
    def from_dict(cls, doc: dict) -> "VertexSet":
        """The set of a to_dict document; ValueError unless its grid is one
        PathPower accepts (SizeCapError above DEFAULT_SIZE_CAP), checked
        before any rank is read."""
        m, k = int(doc["m"]), int(doc["k"])
        check_grid(m, k, DEFAULT_SIZE_CAP)
        return cls(m, k, ranks=[int(r) for r in doc["ranks"]])


@lru_cache(maxsize=8)
def _up_masks(m: int, k: int) -> tuple[int, ...]:
    """For each axis i, the bitmask of the ranks whose coordinate i is below m.

    With w = m^i, each block of m*w consecutive ranks starts with the (m-1)*w
    ranks that have a neighbour r + w; the repunit repeats that block mask.
    """
    n = m**k
    masks = []
    for i in range(k):
        w = m**i
        repunit = ((1 << n) - 1) // ((1 << (m * w)) - 1)  # one bit per block of m*w ranks
        masks.append(((1 << ((m - 1) * w)) - 1) * repunit)
    return tuple(masks)


def bit_rows(values: Sequence[int], n: int) -> np.ndarray:
    """The (len(values), n) bool matrix whose row t holds bits 0 to n - 1 of
    values[t], from one unpackbits over their little-endian bytes."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), width), axis=1, count=n, bitorder="little").view(bool)


def _degree_planes(bits: int, ups: Iterable[int], m: int) -> list[int]:
    """The bit-sliced induced degree of every member of bits: plane j holds
    bit j of each member's count.  ups holds the up mask of each axis in
    turn (_up_masks); each axis contributes two masks, the members with a
    member above and the members with a member below, each added by ripple
    carry."""
    planes: list[int] = []
    w = 1
    for up in ups:
        for hits in (bits & (bits >> w) & up, bits & (bits << w) & (up << w)):
            for j, plane in enumerate(planes):  # ripple-carry add of one bit per rank
                planes[j], hits = plane ^ hits, plane & hits
                if not hits:
                    break
            if hits:
                planes.append(hits)
        w *= m
    return planes


def _checked_graph(s: VertexSet, g: PathPower | None) -> PathPower:
    """g, or the graph of s if g is None, once s is a nonempty set over it."""
    if len(s) == 0:
        raise ValueError("induced_max_degree of an empty vertex set")
    if g is None:
        return PathPower(s.m, s.k)
    if (g.m, g.k) != (s.m, s.k):
        raise DimensionMismatchError(f"set over [{s.m}]^{s.k} vs graph [{g.m}]^{g.k}")
    return g


def induced_max_degree(s: VertexSet, g: PathPower | None = None) -> int:
    """Maximum degree of the subgraph induced by s; 0 for an independent set.

    Raises ValueError on an empty set (the induced graph has no vertices).
    The largest count is read from the planes top down, one big-int AND
    per plane.
    """
    g = _checked_graph(s, g)
    bits = s.bits
    best = 0
    candidates = bits
    planes = _degree_planes(bits, _up_masks(g.m, g.k), g.m)
    for j in range(len(planes) - 1, -1, -1):  # largest count: fix its bits top down
        top = candidates & planes[j]
        if top:
            candidates = top
            best |= 1 << j
    return best


def induced_max_degrees(sets: Sequence[VertexSet], g: PathPower | None = None) -> np.ndarray:
    """induced_max_degree of each of sets, as an int64 array, from one run
    of the plane adder over all of them.

    The sets lie side by side in one int, set t in lane t, bits t n to
    (t + 1) n - 1 for n = m^k.  Each up mask is tiled by the lane repunit,
    so a rank whose coordinate i is m - 1 has no up neighbour and no count
    carries from one lane into the next; each lane's maximum is read from
    the planes with numpy.
    """
    if not sets:
        return np.zeros(0, dtype=np.int64)
    for s in sets:
        g = _checked_graph(s, g)
    n, lanes = g.n_vertices, len(sets)
    packed = 0
    for s in reversed(sets):
        packed = packed << n | s.bits
    repunit = ((1 << (lanes * n)) - 1) // ((1 << n) - 1)  # bit t n for each lane t
    planes = _degree_planes(packed, [up * repunit for up in _up_masks(g.m, g.k)], g.m)
    counts = (bit_rows(planes, lanes * n).astype(np.int64) << np.arange(len(planes))[:, None]).sum(axis=0)
    return counts.reshape(lanes, n).max(axis=1)
