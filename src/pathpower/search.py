"""Exact oracles: the independence number, proved by a checked
certificate, and the minimum induced maximum degree over subsets one (or s)
larger than it, by budgeted search.

The independence number of [m]^k needs no search: the alternating set is
independent, and every second edge of the snake-order Hamiltonian path is
a matching that bounds alpha from above; both are checked in linear time.

The subset scan is budgeted: exceeding the node cap or the deadline yields a
result flagged as unproven, never a silently wrong value.  Several worker
threads can share one scan: each takes the next smallest member (lead) in
turn and prunes against the best degree any of them has completed, and a
thread that reaches the floor stops the others.  The value does not depend
on the worker count (witnesses may differ, values may not).
"""

from __future__ import annotations

import ctypes
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .constructions import alternating_independent_set, is_independent
from .grid import PathPower, VertexSet, induced_max_degree
from .signed import SignedMatrix, principal_submatrix
from .spectral import beta, beta_side_of, eigenvalues_sym


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the subset scan.

    max_subsets caps the number of search nodes (partial subsets examined)
    summed over all workers, max_seconds is a wall-clock deadline (None for
    no deadline), workers is the thread count for the subset scan.
    """

    max_subsets: int = 100_000_000
    max_seconds: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_subsets < 1:
            raise ValueError("max_subsets must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class MisResult:
    size: int
    witness: VertexSet
    proven: bool
    nodes_examined: int


@dataclass(frozen=True)
class FSearchResult:
    value: int | None
    witness: VertexSet | None
    kind: str  # "exact" or "upper-unproven"
    subsets_examined: int

    @property
    def proven(self) -> bool:
        return self.kind == "exact"


def _snake_order(m: int, k: int) -> np.ndarray:
    """The ranks of [m]^k in boustrophedon order, a Hamiltonian path.

    Each level lays out m blocks over the new last coordinate, the previous
    order in even blocks and its reverse in odd ones, so the last rank of a
    block and the first of the next differ only in that coordinate.
    """
    blocks = np.arange(m, dtype=np.int64)[:, None]
    path = blocks.ravel()
    for _ in range(k - 1):
        path = (np.where(blocks % 2 == 0, path, path[::-1]) + path.size * blocks).ravel()
    return path


def _is_grid_edge(g: PathPower, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise: are ranks u and v adjacent in g?  Decided from digits:
    they differ by w = m^i and the lower one's digit i is below m - 1."""
    lo = np.minimum(u, v)
    gap = np.abs(u - v)
    edge = np.zeros(lo.shape, dtype=bool)
    w = 1
    for _ in range(g.k):
        edge |= (gap == w) & ((lo // w) % g.m < g.m - 1)
        w *= g.m
    return edge


def alpha_certificate_holds(g: PathPower, independent: VertexSet, path: np.ndarray) -> bool:
    """True iff independent and path prove alpha(g) = len(independent).

    The set must be independent (the lower bound) and the path a
    permutation of the ranks whose pairs (path[2i], path[2i+1]) are edges:
    those floor(n/2) disjoint edges form a matching M, and an independent
    set holds at most one end of each, so alpha <= n - |M| (the upper
    bound).  The two bounds meet when len(independent) = n - floor(n/2).
    """
    n = g.n_vertices
    pairs = n // 2
    return (
        is_independent(independent, g)
        and path.shape == (n,)
        and np.array_equal(np.sort(path), np.arange(n))
        and bool(_is_grid_edge(g, path[0 : 2 * pairs : 2], path[1 : 2 * pairs : 2]).all())
        and len(independent) == n - pairs
    )


def max_independent_set(g: PathPower) -> MisResult:
    """Independence number of g with a witness set, proved by certificate.

    The witness is the alternating set; the snake order supplies the
    matching that bounds alpha from above (see alpha_certificate_holds).
    Linear in the vertex count, and no adjacency masks are built.
    """
    witness = alternating_independent_set(g.m, g.k, size_cap=g.n_vertices)
    proven = alpha_certificate_holds(g, witness, _snake_order(g.m, g.k))
    return MisResult(size=len(witness), witness=witness, proven=proven, nodes_examined=0)


def _auto_stop_at(g: PathPower) -> int:
    # A subset larger than the independence number always contains an edge,
    # so 1 is a universal floor; even path lengths have the spectral floor.
    if g.m % 2 == 0:
        return max(1, lower_bound_even(g.m // 2, g.k))
    return 1


def brute_force_f(
    g: PathPower,
    s: int = 1,
    budget: SearchBudget = DEFAULT_BUDGET,
    stop_at: int | None = None,
) -> FSearchResult:
    """Exact minimum of the induced maximum degree over subsets of size
    alpha(g) + s, with an achieving witness.

    The independence number comes from the certificate of
    max_independent_set; its time counts against the deadline.  The scan
    stops as soon as a subset reaches stop_at.  Defaults to the proven
    floor: 1, raised to the spectral floor for even path lengths; pass 0 to
    force full enumeration.  An early exit is exact only at or below the
    proven floor, where bound plus witness settle the value; a higher
    stop_at gives an upper-unproven result.

    The scan runs on min(workers, leads) threads sharing one search, each
    with an equal share of max_subsets.  Under a single worker the witness
    is the lexicographically smallest achieving subset; with several
    workers only the value is deterministic.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    mis = max_independent_set(g)
    target = mis.size + s
    if target > g.n_vertices:
        raise ValueError(f"alpha + s = {target} exceeds {g.n_vertices} vertices")
    floor = _auto_stop_at(g)
    if stop_at is None:
        stop_at = floor

    adj = g.adjacency_masks()
    threads = min(budget.workers, g.n_vertices - target + 1)
    shared = (ctypes.c_longlong * 2)(0, target + 1)  # next lead, best of any thread

    def scan(kernel):
        time_limit = 0.0 if deadline is None else deadline - time.monotonic()
        if deadline is not None and time_limit <= 0:
            return None, 0, 0, True, False
        return kernel(adj, target, stop_at, budget.max_subsets // threads, time_limit, shared)

    if threads == 1:
        results = [scan(_kernels.scan_min_induced_degree)]
    else:
        # Threads call the untraced body: a tracer such as perfbench's keeps
        # one span stack per process, which concurrent spans would corrupt.
        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(lambda _: scan(_kernels._scan), range(threads)))

    nodes = sum(r[2] for r in results)
    found = [r for r in results if r[0] is not None]
    if not found:
        return FSearchResult(value=None, witness=None, kind="upper-unproven", subsets_examined=nodes)
    best, mask, *_ = min(found)
    early = any(r[4] for r in results)
    proven = best <= floor if early else not any(r[3] for r in results)
    kind = "exact" if proven else "upper-unproven"
    return FSearchResult(value=best, witness=VertexSet(g.m, g.k, bits=mask), kind=kind, subsets_examined=nodes)


def degree_bound_check(a: SignedMatrix, s: VertexSet, tol: float = 1e-8) -> bool:
    """True iff the induced maximum degree of s dominates the top eigenvalue
    of the principal submatrix of a on s, within tol."""
    g = a.graph()
    delta = induced_max_degree(s, g)
    sub = principal_submatrix(a, s)
    top = max(eigenvalues_sym(sub).eigenvalues)
    return delta >= top - tol


def lower_bound_even(n: int, k: int) -> int:
    """Degree floor ceil(sqrt(k * beta(n))) for even path length 2n.

    The ceiling is guard-banded: if the square root lands within 1e-9 of
    an integer t, the side of t is settled exactly (is beta(n) above or
    below t*t/k) with integer sign arithmetic, so the rounding can never be
    off by one.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    root = math.sqrt(k * beta(n, 1e-12))
    t = round(root)
    if abs(root - t) >= 1e-9:
        return math.ceil(root)
    side = beta_side_of(n, Fraction(t * t, k))
    return t + 1 if side > 0 else t  # root above t means the true value exceeds the integer


@dataclass(frozen=True)
class FValue:
    kind: str  # "exact" or "lower"
    value: int


def theoretical_f_value(m: int, k: int) -> FValue:
    """Established value of the minimum induced maximum degree at alpha + 1:
    exactly 2 for m = 3, exactly 1 for odd m >= 5, and the spectral lower
    bound for even m."""
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    if m == 3:
        return FValue(kind="exact", value=2)
    if m % 2 == 1:
        return FValue(kind="exact", value=1)
    return FValue(kind="lower", value=lower_bound_even(m // 2, k))
