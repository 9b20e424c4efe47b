"""Exact oracles: the independence number, proved by a checked
certificate, and the minimum induced maximum degree f over subsets one (or
s) larger than it, settled by a certified floor and a witness where one
meets it, else by budgeted search.

The independence number of [m]^k needs no search: the alternating set is
independent, and every second edge of the snake-order Hamiltonian path is
a matching that bounds alpha from above.  Checked on the path P_m, with
the set a colour class, this proves alpha([m]^k) = ceil(m^k / 2) for every
k, and degree_floor, brute_force_f and theoretical_f_value read alpha from
that level-1 certificate.  max_independent_set checks the same
certificate on a built grid, in linear time, as their cross-check.

degree_floor gives a lower bound on f from certificates checked on the
path P_m and lifted to every k, so nothing of grid size is built: 1 by
independence, 2 for m = 3 from the base certificate and interlacing, and
ceil(sqrt(k)) for even m from the pairs {2j, 2j + 1}, whose product tiles
[2n]^k into hypercubes, and Huang's theorem (2019) inside each cell.  The
last is a consequence of Huang's theorem, not a claim of the paper, whose
own even-m floor ceil(sqrt(k beta_n)) (lower_bound_even) it dominates.  A
floor holds for every s >= 1, since adding vertices cannot lower the
induced maximum degree.  At s = 1 a witness family (xk for odd m, hk for
even m) meets the floor.  theoretical_f_value checks it on P_m and lifts
it, for any k; brute_force_f with its defaults (no stop_at, s = 1, one
worker) builds it and measures it, and so settles f with no scan at all.
A given stop_at or several workers run the scan: to that degree, or to
the floor; stop_at=0 forces the enumeration.

The scan visits subsets in lexicographic order and drops a partial subset
once its induced degree reaches the incumbent.  While the incumbent is 1,
only an independent subset can beat it, and the matching bound drops a
partial subset as soon as the vertices after it cannot complete one: the
greedy matching of consecutive ranks, on [m]^k the dominoes {2t, 2t + 1}
of the first coordinate, bounds the independence number of every suffix.
So the full enumeration of [7]^2 at alpha + 1 takes 1,920 nodes instead of
3,106,005, with the same value and witness.

The subset scan is budgeted: exceeding the node cap or the deadline yields a
result flagged as unproven, never a silently wrong value.  Several worker
threads can share one scan: each takes the next smallest member (lead) in
turn and prunes against the best degree any of them has completed, and a
thread that reaches the floor stops the others.  The value does not depend
on the worker count (witnesses may differ, values may not).
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, constructions
from .constructions import (
    alpha_formula,
    alternating_independent_set,
    hk_witness_set,
    is_independent,
    low_degree_witness_set,
)
from .errors import CertificateError
from .grid import PathPower, VertexSet, check_grid, induced_max_degree, is_grid_edge
from .signed import SignedMatrix
from .spectral import DEFAULT_GROUP_TOL, base_certificate, lower_bound_even, signed_spectra


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
        for name in ("max_subsets", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.max_seconds is not None and not self.max_seconds > 0:  # so NaN is refused too
            raise ValueError("max_seconds must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class MisResult:
    size: int
    witness: VertexSet
    proven: bool
    nodes_examined: int


@dataclass(frozen=True)
class FSearchResult:
    """A value of f with its witness, and how it was settled.

    proof names what makes an exact value exact: "enumeration" (a scan that
    ran to the end), "floor:<source>+witness:<family>" (a certified floor
    met by a built witness, no scan) or "floor:<source>+scan" (a scan that
    stopped early at or below the certified floor); None when upper-unproven.
    stop_reason is "certificate", "exhausted", "floor-reached" (a subset
    reached stop_at), "node-cap" or "deadline".  When the subset scan ran,
    worker_nodes holds each scan thread's nodes (they sum to
    subsets_examined), backend the kernel that ran them ("compiled" or
    "pure"), backend_reason why it was chosen (_kernels.BACKEND_REASON)
    and scan_seconds the scan's wall time, its threads' start-up included
    (the adjacency masks are built before it starts); otherwise (), None,
    None and None.
    """

    value: int | None
    witness: VertexSet | None
    kind: str  # "exact" or "upper-unproven"
    subsets_examined: int
    proof: str | None
    stop_reason: str
    worker_nodes: tuple[int, ...] = ()
    backend: str | None = None
    backend_reason: str | None = None
    scan_seconds: float | None = None

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
        and bool(is_grid_edge(g, path[0 : 2 * pairs : 2], path[1 : 2 * pairs : 2]).all())
        and len(independent) == n - pairs
    )


def max_independent_set(g: PathPower) -> MisResult:
    """Independence number of g with a witness set, proved by certificate.

    The witness is the alternating set; the snake order supplies the
    matching that bounds alpha from above (see alpha_certificate_holds).
    Linear in the vertex count, and no adjacency masks are built.
    """
    witness = alternating_independent_set(g.m, g.k)
    proven = alpha_certificate_holds(g, witness, _snake_order(g.m, g.k))
    return MisResult(size=len(witness), witness=witness, proven=proven, nodes_examined=0)


class Floor(NamedTuple):
    """A lower bound on f at alpha + s for every s >= 1, the name of its
    certificate, and the computed values it rests on (alpha, and the rows
    and nonpositive eigenvalue count or the cell count and size)."""

    value: int
    source: str  # "independence", "odd3-spectral", "hypercube-cells"; "none" without a proven alpha
    inputs: dict


def _path_alpha_certified(m: int) -> bool:
    """True iff the alpha certificate holds on P_m (alpha_certificate_holds
    on its alternating set and snake order) and that set is a colour class:
    its complement is independent too.

    Both lift to every k.  The alternating extension puts the set in the
    odd blocks and its complement in the even ones, so it stays a colour
    class, independent with ceil(m^k / 2) members; the snake order stays a
    Hamiltonian path, whose matching bounds alpha from above.  So
    alpha([m]^k) = ceil(m^k / 2).
    """
    path, independent = PathPower(m, 1), alternating_independent_set(m, 1)
    colour_class = is_independent(independent.complement(), path)
    return colour_class and alpha_certificate_holds(path, independent, _snake_order(m, 1))


def _cell_pairs(m: int) -> np.ndarray:
    """The pairs {2j, 2j + 1} of P_m's vertices, m even, one row each."""
    return np.arange(m).reshape(-1, 2)


def _cells_tile(m: int) -> bool:
    """True iff _cell_pairs(m) is a perfect matching of P_m: every vertex
    once, and each pair a path edge.  The product of k such matchings tiles
    [m]^k into (m/2)^k cells, each spanning a hypercube Q^k."""
    pairs = _cell_pairs(m)
    cover = np.array_equal(np.sort(pairs, axis=None), np.arange(m))
    return cover and bool(is_grid_edge(PathPower(m, 1), pairs[:, 0], pairs[:, 1]).all())


@functools.cache  # a fixed check of the level-1 and level-2 tables: once per process
def _base_certified(m: int) -> bool:
    return base_certificate(m)


def degree_floor(g: PathPower) -> Floor:
    """The best certified lower bound on f(g) at alpha + s, any s >= 1,
    read from (m, k) alone (_degree_floor)."""
    return _degree_floor(g.m, g.k)


def _degree_floor(m: int, k: int) -> Floor:
    """degree_floor of [m]^k, for any k >= 1: past the grid size cap too.

    Every source is checked on the path P_m or in closed form, so nothing
    of grid size is built.
    independence: 1, as alpha + 1 vertices hold an edge.  alpha is
    ceil(m^k / 2) by _path_alpha_certified; when that fails, the floor is
    the trivial 0.
    odd3-spectral: 2 for m = 3.  base_certificate(3) proves that B^2 has
    eigenvalues 0 once and 2 twice and that A_k^2 has the sums of k of
    them, so A_k has 0 once and no positive eigenvalue below sqrt(2); its
    spectrum is symmetric, so (3^k + 1) / 2 = alpha eigenvalues are <= 0.
    A principal submatrix on alpha + 1 rows has, by interlacing, a top
    eigenvalue >= sqrt(2), and that eigenvalue is at most the induced
    maximum degree, as every entry is +-1 on a grid edge.  No dense solve
    is needed.
    hypercube-cells: ceil(sqrt(k)) for even m.  The pairs {2j, 2j + 1}
    tile [m]^k into (m/2)^k hypercubes Q^k (_cells_tile), and 2 alpha = m^k,
    so alpha + 1 vertices put 2^(k-1) + 1 into one cell; by Huang's theorem
    such a subset of Q^k induces a degree of at least sqrt(k), which the
    grid's extra edges only raise.  Huang's one spectral input, A_k^2 = kI
    on the hypercube, is base_certificate(2).
    A certificate that fails leaves the next weaker floor.
    """
    n = check_grid(m, k, math.inf)
    alpha = (n + 1) // 2
    if not _path_alpha_certified(m):
        return Floor(0, "none", {})
    if m == 3 and _base_certified(3):
        return Floor(2, "odd3-spectral", {"alpha": alpha, "rows": alpha + 1, "nonpositive": alpha})
    if m % 2 == 0 and _base_certified(2) and _cells_tile(m):
        inputs = {"alpha": alpha, "cells": n >> k, "cell_size": 1 << k}
        return Floor(math.isqrt(k - 1) + 1, "hypercube-cells", inputs)
    return Floor(1, "independence", {"alpha": alpha})


def floor_witness(g: PathPower) -> tuple[str, VertexSet]:
    """(family, set) of the witness built to meet degree_floor at alpha + 1:
    xk (low_degree_witness_set) for odd m, hk (hk_witness_set) for even m."""
    if g.m % 2:
        return "xk", low_degree_witness_set(g.m, g.k)
    return "hk", hk_witness_set(g.m, g.k)


def _witness_meets(g: PathPower, floor: Floor, target: int) -> tuple[str, VertexSet] | None:
    """The floor witness when it has target members and induced maximum
    degree equal to the floor (checked here), else None, as when its
    construction fails its own certificate."""
    try:
        family, witness = floor_witness(g)
    except CertificateError:
        return None
    if len(witness) == target and induced_max_degree(witness, g) == floor.value:
        return family, witness
    return None


def brute_force_f(
    g: PathPower,
    s: int = 1,
    budget: SearchBudget = DEFAULT_BUDGET,
    stop_at: int | None = None,
) -> FSearchResult:
    """Exact minimum of the induced maximum degree over subsets of size
    alpha(g) + s, with an achieving witness.

    alpha is ceil(m^k / 2), as degree_floor certifies on the path P_m
    (should that fail, its floor is 0 and only an enumeration is exact), so
    nothing is certified on the grid itself.  The floor counts against the
    deadline unless it is needed only to judge an early stop.  The
    defaults (stop_at None, s = 1, one worker) settle by certificate:
    floor_witness builds the witness, and when its size is alpha + 1 and
    its induced maximum degree equals the floor, that is the value
    (stop_reason "certificate"), with no scan and no adjacency masks.  A
    deadline already past returns upper-unproven before any witness is
    built.

    Otherwise the subset scan runs: a given stop_at asks for it, and so
    does a budget of several workers, which names the shared scan.  It
    stops as soon as a subset reaches stop_at, which defaults to the floor;
    pass the floor to scan to it, or 0 to force full enumeration.  An
    enumeration that runs to the end is exact.
    A scan that stops early, at stop_at or at the node cap or deadline, is
    exact only when its best is at or below the certified floor, where
    floor plus witness settle the value; above it the result is
    upper-unproven.

    The scan runs on min(workers, leads, max_subsets) threads sharing one
    search; their shares of max_subsets differ by at most one and sum to
    it, and node-cap means some thread spent its own share.  Under a single
    worker the witness is the lexicographically smallest achieving subset;
    with several workers only the value is deterministic.  ValueError,
    before anything is built, unless s is an integer of at least 1 and
    stop_at an integer or None.
    """
    if not isinstance(s, numbers.Integral) or s < 1:
        raise ValueError(f"need an integer s >= 1, got {s!r}")
    if stop_at is not None and not isinstance(stop_at, numbers.Integral):
        raise ValueError(f"stop_at must be an integer or None, got {stop_at!r}")
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    target = (g.n_vertices + 1) // 2 + s
    if target > g.n_vertices:
        raise ValueError(f"alpha + s = {target} exceeds {g.n_vertices} vertices")
    floor = None  # computed when needed: for the default stop_at, or to judge an early stop
    if stop_at is None:
        floor = degree_floor(g)
        stop_at = floor.value
        if s == 1 and budget.workers == 1:
            if deadline is not None and time.monotonic() >= deadline:
                return FSearchResult(None, None, "upper-unproven", 0, None, "deadline")
            met = _witness_meets(g, floor, target)
            if met is not None:
                family, witness = met
                proof = f"floor:{floor.source}+witness:{family}"
                return FSearchResult(floor.value, witness, "exact", 0, proof, "certificate")

    adj = g.adjacency_masks()
    threads = min(budget.workers, g.n_vertices - target + 1, budget.max_subsets)
    base, extra = divmod(budget.max_subsets, threads)
    shares = [base + (i < extra) for i in range(threads)]
    shared = _kernels.SharedState(0, target + 1)  # next lead, best of any thread

    def scan(kernel, share):
        time_limit = 0.0 if deadline is None else deadline - time.monotonic()
        if deadline is not None and time_limit <= 0:
            return None, 0, 0, True, False
        return kernel(adj, target, stop_at, share, time_limit, shared)

    started = time.perf_counter()
    if threads == 1:
        results = [scan(_kernels.scan_min_induced_degree, shares[0])]
    else:
        # Threads call the untraced body: a tracer such as perfbench's keeps
        # one span stack per process, which concurrent spans would corrupt.
        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(lambda share: scan(_kernels._scan, share), shares))
    scan_seconds = time.perf_counter() - started

    worker_nodes = tuple(r[2] for r in results)
    nodes = sum(worker_nodes)
    record = (worker_nodes, _kernels.backend_for(g.n_vertices), _kernels.BACKEND_REASON, scan_seconds)
    if any(r[4] for r in results):
        reason = "floor-reached"
    elif any(r[3] for r in results):
        reason = "node-cap" if any(r[2] >= share for r, share in zip(results, shares)) else "deadline"
    else:
        reason = "exhausted"
    found = [r for r in results if r[0] is not None]
    if not found:
        return FSearchResult(None, None, "upper-unproven", nodes, None, reason, *record)
    best, mask, *_ = min(found)
    if reason == "exhausted":
        proof = "enumeration"
    else:
        floor = degree_floor(g) if floor is None else floor
        proof = f"floor:{floor.source}+scan" if best <= floor.value else None
    kind = "upper-unproven" if proof is None else "exact"
    return FSearchResult(best, VertexSet(g.m, g.k, bits=mask), kind, nodes, proof, reason, *record)


def degree_bound_holds(delta, top):
    """True iff the induced maximum degree delta dominates top, the top
    eigenvalue of a principal submatrix on the same set, within
    DEFAULT_GROUP_TOL; elementwise for arrays."""
    return delta >= top - DEFAULT_GROUP_TOL


def degree_bound_check(a: SignedMatrix, s: VertexSet) -> bool:
    """degree_bound_holds for s and the principal submatrix of a on s."""
    delta = induced_max_degree(s, a.graph())
    (sub,) = signed_spectra(a, [s])
    return degree_bound_holds(delta, sub.eigenvalues[-1])


@dataclass(frozen=True)
class FValue:
    """Established value of f at alpha + 1.

    kind "exact" when the certified floor is met by a witness family whose
    size and degree are checked on P_m and lifted to every k, else "lower"
    (the floor alone).  source names the floor's certificate and witness
    the family that meets it (None when lower).  paper_lower is the paper's
    own even-m floor ceil(sqrt(k beta_n)) (None for odd m).
    """

    kind: str  # "exact" or "lower"
    value: int
    source: str
    witness: str | None
    paper_lower: int | None

    def row(self) -> dict:
        """The fields as one row, source keyed floor_source: the theory block
        of the CLI's f and each row of export_table("bounds")."""
        return {
            "kind": self.kind,
            "value": self.value,
            "floor_source": self.source,
            "witness": self.witness,
            "paper_lower": self.paper_lower,
        }


def _lifted_witness(m: int, k: int, floor: int) -> str | None:
    """The witness family whose alpha + 1 members on [m]^k induce a maximum
    degree of at most floor, checked on P_m and lifted to every k; None when
    a check fails.

    xk (odd m): the seed S = low_degree_witness_set(m, 1) must have
    alpha(P_m) + 1 members.  The alternating extension puts S and its
    complement in alternate blocks, so a member's copies in the blocks
    beside its own are non-members: no edge crosses blocks, the size stays
    alpha + 1, and the degree is d, that of S on P_m, at k = 1, and
    max(d, d_c), with d_c that of the complement, at every k >= 2.
    hk (even m): the blocks of sqrt_blocks(k) must partition 0..k-1.  Then
    |H| - |H^c| = 2 (-1)^(number of blocks), so the larger side has
    m^k / 2 + 1 = alpha + 1 members (Chung, Furedi, Graham and Seymour
    1988), and its degree is at most the sensitivity of the AND of ORs, at
    most max(number of blocks, largest block) = ceil(sqrt(k)).
    """
    if m % 2:
        path, seed = PathPower(m, 1), low_degree_witness_set(m, 1)
        if len(seed) != alpha_formula(m, 1) + 1:
            return None
        degree = induced_max_degree(seed, path)
        rest = seed.complement()
        if k > 1 and len(rest):  # an empty complement fills no block
            degree = max(degree, induced_max_degree(rest, path))
        return "xk" if degree <= floor else None
    blocks = constructions.sqrt_blocks(k)  # through the module, where a test can replace it
    if not (all(blocks) and np.array_equal(np.sort(np.concatenate(blocks)), np.arange(k))):
        return None
    return "hk" if max(len(blocks), *map(len, blocks)) <= floor else None


def theoretical_f_value(m: int, k: int) -> FValue:
    """Established value of the minimum induced maximum degree at alpha + 1,
    for any k >= 1 and any m up to DEFAULT_SIZE_CAP, where P_m is built.

    It is degree_floor's value, read from (m, k) by _degree_floor, exact
    once _lifted_witness meets it: 2 for m = 3, 1 for odd m >= 5 and
    ceil(sqrt(k)) for even m.  Every floor and witness is checked on the
    path P_m and lifted to [m]^k by a theorem, so nothing of grid size is
    built; brute_force_f and verify-all build the witness and measure it,
    as the cross-check.
    """
    floor = _degree_floor(m, k)
    family = _lifted_witness(m, k, floor.value)
    paper = lower_bound_even(m // 2, k) if m % 2 == 0 else None
    return FValue("lower" if family is None else "exact", floor.value, floor.source, family, paper)
