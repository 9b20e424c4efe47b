"""Exact oracles: the independence number, proved by a checked
certificate, and the minimum induced maximum degree over subsets one (or s)
larger than it, by budgeted search.

The independence number of [m]^k needs no search: the alternating set is
independent, and every second edge of the snake-order Hamiltonian path is
a matching that bounds alpha from above; both are checked in linear time.

The subset scan is budgeted: exceeding the node cap or the deadline yields a
result flagged as unproven, never a silently wrong value.  It can be
partitioned across worker processes by the smallest member of the
subset; the combined value is a min-reduction and does not depend on the
worker count (witnesses may differ, values may not).  The workers are
started with the spawn method, so a calling script keeps its top-level code
under `if __name__ == "__main__":`; a lead that reaches the floor terminates
the others.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import time
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

    max_subsets caps the number of search nodes (partial subsets examined),
    max_seconds is a wall-clock deadline (None for no deadline), workers is
    the process count for the subset scan.
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


def _scan_task(adj, target, stop_at, max_nodes, deadline, lead):
    """Scan with the time left until the absolute wall-clock deadline (None
    for none); a task that starts past it returns truncated with 0 nodes.
    The deadline is wall-clock time because worker processes compare it."""
    time_limit = None
    if deadline is not None:
        time_limit = deadline - time.time()
        if time_limit <= 0:
            return None, 0, 0, True, False
    return _kernels.scan_min_induced_degree(
        adj, target, stop_at=stop_at, max_nodes=max_nodes, time_limit=time_limit, lead=lead
    )


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
    max_independent_set; its time counts against the deadline.  stop_at is
    a proven lower bound on the answer: the scan stops as soon as a subset
    achieves it, turning bound plus witness into an exact value.  Defaults
    to 1, raised to the spectral floor for even path lengths; pass 0 to
    force full enumeration.

    Under a single worker the witness is the lexicographically smallest
    achieving subset; with several workers only the value is deterministic.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    deadline = None if budget.max_seconds is None else time.time() + budget.max_seconds
    mis = max_independent_set(g)
    target = mis.size + s
    if target > g.n_vertices:
        raise ValueError(f"alpha + s = {target} exceeds {g.n_vertices} vertices")
    if stop_at is None:
        stop_at = _auto_stop_at(g)

    adj = g.adjacency_masks()
    leads = list(range(0, g.n_vertices - target + 1))
    if budget.workers == 1 or len(leads) == 1:
        best, mask, nodes, truncated, _early = _scan_task(
            adj, target, stop_at, budget.max_subsets, deadline, -1
        )
    else:
        per_task_nodes = max(1, budget.max_subsets // len(leads))
        best, mask, nodes, truncated = None, 0, 0, False
        task = functools.partial(_scan_task, adj, target, stop_at, per_task_nodes, deadline)
        with multiprocessing.get_context("spawn").Pool(min(budget.workers, len(leads))) as pool:
            for value, fmask, fnodes, ftrunc, fearly in pool.imap_unordered(task, leads):
                nodes += fnodes
                truncated = truncated or ftrunc
                if value is not None and (best is None or value < best):
                    best, mask = value, fmask
                if fearly:
                    # the global floor was achieved; nothing can beat it, so
                    # stop the leads still running as well as the queued ones
                    pool.terminate()
                    truncated = False
                    break

    if best is None:
        return FSearchResult(value=None, witness=None, kind="upper-unproven", subsets_examined=nodes)
    witness = VertexSet(g.m, g.k, bits=mask)
    kind = "exact" if not truncated else "upper-unproven"
    return FSearchResult(value=best, witness=witness, kind=kind, subsets_examined=nodes)


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
