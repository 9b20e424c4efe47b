"""Exact search oracles: maximum independent set and the minimum induced
maximum degree over subsets one (or s) larger than the independence number.

Both oracles are budgeted: exceeding the node cap or the deadline yields a
result flagged as unproven, never a silently wrong value.  The subset scan
can be partitioned across worker processes by the smallest member of the
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

from . import _kernels
from .errors import UnprovenAlphaError
from .grid import PathPower, VertexSet, induced_max_degree
from .signed import SignedMatrix, principal_submatrix
from .spectral import beta, beta_side_of, eigenvalues_sym


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the oracles.

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


def _degeneracy_order(adj: list[int]) -> list[int]:
    """Repeatedly remove a minimum-degree vertex (lowest index on ties)."""
    n = len(adj)
    remaining = (1 << n) - 1
    order = []
    for _ in range(n):
        best_v = -1
        best_d = n + 1
        mm = remaining
        while mm:
            lsb = mm & -mm
            v = lsb.bit_length() - 1
            d = (adj[v] & remaining).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
            mm ^= lsb
        order.append(best_v)
        remaining ^= 1 << best_v
    return order


def _greedy_independent(adj: list[int], order: list[int]) -> int:
    taken = 0
    blocked = 0
    for v in order:
        bit = 1 << v
        if blocked & bit:
            continue
        taken |= bit
        blocked |= bit | adj[v]
    return taken


def max_independent_set(g: PathPower, budget: SearchBudget = DEFAULT_BUDGET) -> MisResult:
    """Exact independence number of g with a witness set.

    Branch and bound over bitmask candidates; vertices are relabeled into
    degeneracy order first and a greedy pass seeds the incumbent.  A
    truncated run reports proven=False and the best set found so far.
    """
    adj = g.adjacency_masks()
    n = g.n_vertices
    if n <= 2048:
        order = _degeneracy_order(adj)
    else:
        order = list(range(n))  # keep setup cost flat; the budget governs the search
    position = {v: i for i, v in enumerate(order)}
    relabeled = [0] * n
    for v in range(n):
        acc = 0
        mm = adj[v]
        while mm:
            lsb = mm & -mm
            acc |= 1 << position[lsb.bit_length() - 1]
            mm ^= lsb
        relabeled[position[v]] = acc
    seed = _greedy_independent(relabeled, list(range(n)))

    size, mask, nodes, truncated = _kernels.solve_max_independent_set(
        relabeled, budget.max_subsets, budget.max_seconds, seed_mask=seed
    )
    witness = VertexSet(g.m, g.k)
    mm = mask
    while mm:
        lsb = mm & -mm
        witness.add(order[lsb.bit_length() - 1])
        mm ^= lsb
    return MisResult(size=size, witness=witness, proven=not truncated, nodes_examined=nodes)


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

    The independence number is established by the branch-and-bound oracle
    first (UnprovenAlphaError if the budget cannot settle it).  stop_at is
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
    mis = max_independent_set(g, budget)
    if not mis.proven:
        raise UnprovenAlphaError(f"independence number of [{g.m}]^{g.k} not settled within budget")
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
