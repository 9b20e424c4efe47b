"""Explicit vertex-set constructions on [m]^k.

Two recursive families are built bottom-up from their k=1 seeds by tiling
the m rank blocks of [m]^k (indexed by the last coordinate) with the k-1
dimensional set and its complement in alternating order:

* the alternating-parity family: a maximum independent set of size
  ceil(m^k / 2), seeded by the odd coordinates of the path;
* the low-degree witness family (odd m only): a set one larger than the
  independence number whose induced maximum degree stays at its k=1 value,
  2 when m = 3 and 1 when m >= 5.

A third family, for even m, folds a Boolean function onto the grid instead
(hk_witness_set): the AND-of-ORs of Chung, Furedi, Graham and Seymour,
whose sensitivity ceil(sqrt(k)) bounds the induced degree of the folded set.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificateError
from .grid import DEFAULT_SIZE_CAP, PathPower, VertexSet, check_grid, digits, induced_max_degree, int_label

CONSTRUCTION_KINDS = ("vk", "vkc", "xk", "xkc", "hk")


def append_coordinate(s: VertexSet, a: int) -> VertexSet:
    """Embed s into [m]^(k+1) by appending coordinate a to every member.

    Under the last-coordinate-major rank order this is a plain offset: every
    member rank gains (a - 1) * m^k, i.e. the whole bitset shifts left.
    """
    if not 1 <= a <= s.m:
        raise ValueError(f"appended coordinate {a} outside 1..{s.m}")
    shift = (a - 1) * s.n_vertices
    return VertexSet(s.m, s.k + 1, bits=s.bits << shift)


def _alternating_extension(base: VertexSet) -> VertexSet:
    # Blocks over the new last coordinate a = 1..m: base for odd a,
    # complement for even a.  Works for either parity of m.
    m = base.m
    out_bits = 0
    comp_bits = base.complement().bits
    width = base.n_vertices
    for a in range(1, m + 1):
        block = base.bits if a % 2 == 1 else comp_bits
        out_bits |= block << ((a - 1) * width)
    return VertexSet(m, base.k + 1, bits=out_bits)


def alternating_independent_set(m: int, k: int) -> VertexSet:
    """Maximum independent set of [m]^k of size ceil(m^k / 2).

    Seed: odd coordinates of the path.  Each extension places the previous
    set in odd last-coordinate blocks and its complement in even ones.
    """
    check_grid(m, k, DEFAULT_SIZE_CAP)
    s = VertexSet(m, 1, ranks=[c - 1 for c in range(1, m + 1) if c % 2 == 1])
    for _ in range(k - 1):
        s = _alternating_extension(s)
    return s


def low_degree_witness_set(m: int, k: int) -> VertexSet:
    """Witness set of size alpha + 1 with minimal induced degree; odd m only.

    Seed over the path: the even coordinates plus both endpoints.  The same
    alternating block extension preserves the induced maximum degree.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"witness sets are defined for odd m >= 3, got m = {int_label(m)}")
    check_grid(m, k, DEFAULT_SIZE_CAP)
    seed = {c for c in range(2, m, 2)} | {1, m}
    s = VertexSet(m, 1, ranks=[c - 1 for c in seed])
    for _ in range(k - 1):
        s = _alternating_extension(s)
    return s


def sqrt_blocks(k: int) -> list[list[int]]:
    """Coordinates 0..k-1 dealt round-robin into a = ceil(sqrt(k)) blocks,
    so no block holds more than ceil(k / a) <= ceil(sqrt(k))."""
    a = math.isqrt(k - 1) + 1
    return [list(range(i, k, a)) for i in range(a)]


def hk_witness_set(m: int, k: int) -> VertexSet:
    """Witness set of size alpha + 1 with induced maximum degree at most
    ceil(sqrt(k)); even m only.  g is the AND over the blocks of
    sqrt_blocks(k) of the OR within each block: every block has at most
    ceil(sqrt(k)) coordinates and there are ceil(sqrt(k)) blocks, so g's
    sensitivity is at most ceil(sqrt(k)).

    g is folded onto [m]^k: coordinate i folds to the bit b_i = [digit_i
    >= 1], so only the step between digits 0 and 1 flips it.  H = {x :
    g(b(x)) != parity(x)}, the parity being the digit sum's.  A grid
    neighbour of x has the other parity, so it lies in H with x exactly
    when the step flips a coordinate on which g is sensitive at b(x): each
    x in H has at most sensitivity(g) neighbours in H, and the same holds
    in the complement.  Returns H or its complement, whichever is larger.
    For even m it has exactly m^k / 2 + 1 = alpha + 1 members (CFGS): the
    (m - 1)^|b| grid points over a cube point b have even-minus-odd parity
    count (-1)^|b|, so |H| - |H^c| = sum_b (-1)^|b| (2 g(b) - 1), which is
    2 (-1)^(number of blocks) for this g.  CertificateError if the built
    set has any other size.  Built from digit arrays, with no loop over
    vertices.
    """
    if m % 2:
        raise ValueError(f"the folded witness is defined for even m, got m = {int_label(m)}")
    n = check_grid(m, k, DEFAULT_SIZE_CAP)
    d = digits(m, k)
    g = np.ones(n, dtype=bool)
    for block in sqrt_blocks(k):
        g &= (d[:, block] >= 1).any(axis=1)
    h = g != (d.sum(axis=1) % 2 == 1)
    if 2 * np.count_nonzero(h) < h.size:
        h = ~h
    size = np.count_nonzero(h)
    if size != alpha_formula(m, k) + 1:
        raise CertificateError(f"the folded witness of [{m}]^{k} has {size} members, not alpha + 1")
    return VertexSet(m, k, bits=int.from_bytes(np.packbits(h, bitorder="little").tobytes(), "little"))


def alpha_formula(m: int, k: int) -> int:
    """Independence number of [m]^k: ceil(m^k / 2), exact integers, for any size."""
    return (check_grid(m, k, math.inf) + 1) // 2


def is_independent(s: VertexSet, g: PathPower | None = None) -> bool:
    """True iff no two members are adjacent.  Empty sets are independent."""
    if len(s) == 0:
        return True
    return induced_max_degree(s, g) == 0


def build_construction(kind: str, m: int, k: int) -> VertexSet:
    """Build one of the named set families.

    kind: "vk" alternating independent set, "vkc" its complement,
    "xk" low-degree witness set (odd m), "xkc" its complement,
    "hk" folded AND-of-ORs witness set (even m).
    """
    if kind not in CONSTRUCTION_KINDS:
        raise ValueError(f"unknown construction kind {kind!r}")
    if kind == "hk":
        return hk_witness_set(m, k)
    if kind.startswith("v"):
        s = alternating_independent_set(m, k)
    else:
        s = low_degree_witness_set(m, k)
    return s.complement() if kind.endswith("c") else s
