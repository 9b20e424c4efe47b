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
of m^k bits each instead of one shift per neighbour.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, InvalidVertexError, SizeCapError

DEFAULT_SIZE_CAP = 65536

Vertex = tuple[int, ...]


def check_grid(m: int, k: int, size_cap: int | float) -> int:
    """m^k, the vertex count of [m]^k; ValueError unless m >= 2 and k >= 1,
    SizeCapError when m^k exceeds size_cap (math.inf for no cap)."""
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    n = m**k
    if n > size_cap:
        raise SizeCapError(f"m^k = {n} exceeds the size cap {size_cap}")
    return n


@dataclass(frozen=True)
class PathPower:
    """The graph on [m]^k with edges between tuples at 1-norm distance 1."""

    m: int
    k: int
    n_vertices: int = field(init=False, compare=False)
    size_cap: InitVar[int] = DEFAULT_SIZE_CAP

    def __post_init__(self, size_cap: int) -> None:
        object.__setattr__(self, "n_vertices", check_grid(self.m, self.k, size_cap))

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
        return cls(int(doc["m"]), int(doc["k"]), ranks=[int(r) for r in doc["ranks"]])


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


def induced_max_degree(s: VertexSet, g: PathPower | None = None) -> int:
    """Maximum degree of the subgraph induced by s; 0 for an independent set.

    Raises ValueError on an empty set (the induced graph has no vertices).
    Each axis contributes two masks, the members with a member above and the
    members with a member below; their per-rank sum is kept bit-sliced in
    planes (plane j holds bit j of every member's count).
    """
    if len(s) == 0:
        raise ValueError("induced_max_degree of an empty vertex set")
    if g is None:
        g = PathPower(s.m, s.k)
    elif (g.m, g.k) != (s.m, s.k):
        raise DimensionMismatchError(f"set over [{s.m}]^{s.k} vs graph [{g.m}]^{g.k}")
    bits = s.bits
    planes: list[int] = []
    w = 1
    for up in _up_masks(g.m, g.k):
        for hits in (bits & (bits >> w) & up, bits & (bits << w) & (up << w)):
            for j, plane in enumerate(planes):  # ripple-carry add of one bit per rank
                planes[j], hits = plane ^ hits, plane & hits
                if not hits:
                    break
            if hits:
                planes.append(hits)
        w *= g.m
    best = 0
    candidates = bits
    for j in range(len(planes) - 1, -1, -1):  # largest count: fix its bits top down
        top = candidates & planes[j]
        if top:
            candidates = top
            best |= 1 << j
    return best
