"""Workload pools, the known values every job is checked against, and the
checks themselves.

Every expected value here is pinned in this file or computed from a closed
form written here; none is recomputed by pathpower.  Witnesses returned by
the search are re-checked with this module's own adjacency routine.

A workload runs in rounds.  One round of `search` or `scale` is the whole
job pool once, in an order shuffled from the seed; one round of `verify`
is a single `verify-all` call with a seed derived from the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("verify", "search", "scale")

# ------------------------------ known values --------------------------------

VERIFY_CHECKS = (
    "independence-numbers",
    "odd-exact-values",
    "odd3-spectra",
    "polynomial-roots",
    "even-spectra",
    "integer-structure",
    "degree-eigenvalue-chain",
    "hypercube-floor",
    "even-floor-consistency",
)
VERIFY_MAX_SIZE = 729  # the CLI default, pinned so a changed default shows
CHAIN_TRIALS = 200  # the CLI default for --chain-trials

# f([m]^k) at alpha + 1 from the source paper: 2 for m = 3, 1 for odd m >= 5,
# ceil(sqrt(k)) for the hypercube m = 2 (tight by Chung, Furedi, Graham and
# Seymour).  f([4]^1) = 1 and f([4]^2) = 2 are pinned from full enumeration.
EVEN_FLOOR_VALUES = {(2, 1): 1, (2, 2): 2, (2, 3): 2, (2, 4): 2, (4, 1): 1, (4, 2): 2}


def beta_closed(n: int) -> float:
    """Smallest positive root of poly_g(n) in closed form: 4 sin^2(pi/(4n+2)).

    The signed base path on 2n vertices has the spectrum of the plain path
    P_2n, whose eigenvalues are 2 cos(j pi / (2n + 1)).
    """
    return 4.0 * math.sin(math.pi / (4 * n + 2)) ** 2


def alpha_closed(m: int, k: int) -> int:
    return (m**k + 1) // 2


def induced_max_degree_ranks(m: int, k: int, ranks: list[int]) -> int:
    """Induced maximum degree of a rank set in [m]^k, without pathpower.

    Ranks are mixed-radix with the last coordinate most significant, so a
    neighbour differs from r by +-m^i in exactly one digit i.
    """
    members = set(ranks)
    best = 0
    for r in ranks:
        d = 0
        weight = 1
        for _ in range(k):
            digit = (r // weight) % m
            if digit > 0 and r - weight in members:
                d += 1
            if digit < m - 1 and r + weight in members:
                d += 1
            weight *= m
        best = max(best, d)
    return best


@dataclass(frozen=True)
class SearchJob:
    """One brute_force_f call and the value it must find.

    stop_at None keeps the library's default floor; 0 forces full
    enumeration.  Only a job with a node cap below what it needs may end
    upper-unproven, and then only at or above the known value.
    """

    name: str
    m: int
    k: int
    s: int
    stop_at: int | None
    expected: int
    max_subsets: int = 100_000_000
    workers: int = 1
    may_be_unproven: bool = False

    @property
    def deterministic_nodes(self) -> bool:
        return self.stop_at == 0 and self.workers == 1


SEARCH_POOL = (
    SearchJob("full-6^2", 6, 2, 1, 0, expected=2),  # 3,843,163 nodes at the seed
    SearchJob("full-7^2", 7, 2, 1, 0, expected=1),  # 3,106,005 nodes
    SearchJob("full-3^3", 3, 3, 1, 0, expected=2),  # 37,031 nodes
    SearchJob("floor-2^6", 2, 6, 1, None, expected=3),  # floor 3 reached, 2,548,999 nodes
    SearchJob("floor-4^3", 4, 3, 1, None, expected=2),  # floor 2 reached, 1,844 nodes
    SearchJob("floor-5^2-s2", 5, 2, 2, None, expected=2),  # floor 1 not reached: exhausts
    SearchJob("floor-3^3-s2", 3, 3, 2, None, expected=2),  # floor 1 not reached: exhausts
    SearchJob("capped-3^4", 3, 4, 1, 0, expected=2, max_subsets=1_000_000, may_be_unproven=True),
    SearchJob("parallel-2^6", 2, 6, 1, None, expected=3, workers=2),
)


@dataclass(frozen=True)
class ScaleJob:
    name: str
    run: Callable[["Library"], bool]


# ------------------------------ job outcomes --------------------------------


@dataclass
class Outcome:
    """What a job left behind: whether it passed, why not, and counts."""

    ok: bool
    exact: bool
    reason: str = ""
    nodes: int | None = None
    report_seconds: dict | None = None


class Library:
    """The pathpower entry points a job calls, looked up at call time so a
    traced round sees the wrapped functions."""

    def __init__(self):
        import pathpower
        import pathpower.cli

        self.pp = pathpower
        self.cli = pathpower.cli


def check_search_result(job: SearchJob, res) -> Outcome:
    exact = res.kind == "exact"
    nodes = res.subsets_examined
    if res.value is None or res.witness is None:
        return Outcome(False, exact, f"{job.name}: no value ({res.kind})", nodes)
    if exact and res.value != job.expected:
        return Outcome(False, exact, f"{job.name}: exact {res.value}, known {job.expected}", nodes)
    if not exact:
        if not job.may_be_unproven:
            return Outcome(False, exact, f"{job.name}: {res.kind} without a node cap", nodes)
        if res.value < job.expected or nodes > job.max_subsets:
            return Outcome(False, exact, f"{job.name}: unproven {res.value} below known or over cap", nodes)
    ranks = res.witness.ranks()
    if len(ranks) != alpha_closed(job.m, job.k) + job.s:
        return Outcome(False, exact, f"{job.name}: witness has {len(ranks)} vertices", nodes)
    degree = induced_max_degree_ranks(job.m, job.k, ranks)
    if degree != res.value:
        return Outcome(False, exact, f"{job.name}: witness degree {degree}, reported {res.value}", nodes)
    return Outcome(True, exact, "", nodes)


def run_search_job(lib: Library, job: SearchJob) -> Outcome:
    pp = lib.pp
    budget = pp.SearchBudget(max_subsets=job.max_subsets, workers=job.workers)
    res = pp.brute_force_f(pp.PathPower(job.m, job.k), job.s, budget, stop_at=job.stop_at)
    return check_search_result(job, res)


def check_verify_report(rc: int, report: dict, seed: int) -> list[str]:
    """Reasons the verify-all report is wrong; empty when it is right."""
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}")
    if report.get("passed") is not True:
        bad.append("report not passed")
    cfg = report.get("config", {})
    if cfg.get("seed") != seed or cfg.get("max_size") != VERIFY_MAX_SIZE:
        bad.append(f"config echo {cfg}")
    checks = {c["name"]: c for c in report.get("checks", [])}
    if tuple(checks) != VERIFY_CHECKS:
        bad.append(f"checks {list(checks)}")
        return bad
    for name, c in checks.items():
        if c["passed"] is not True:
            bad.append(f"{name} failed")

    d = checks["independence-numbers"]["details"]
    if not d["instances"] or any(size != alpha_closed(m, k) for m, k, size in d["instances"]):
        bad.append("independence numbers")

    d = checks["odd-exact-values"]["details"]
    for key, want in (("f_search_3_1", 2), ("f_search_3_2", 2), ("f_search_5_2", 1)):
        if d.get(key, {}).get("value") != want or d[key].get("kind") != "exact":
            bad.append(f"{key} {d.get(key)}")
    for m, k, delta, size in d["witness_rows"]:
        if delta != (2 if m == 3 else 1) or size != alpha_closed(m, k) + 1:
            bad.append(f"witness row {m} {k}")

    for k, zero_mult, min_pos, *_ in checks["odd3-spectra"]["details"]["rows"]:
        if zero_mult != 1 or abs(min_pos - math.sqrt(2.0)) > 1e-8:
            bad.append(f"odd3 row {k}")

    d = checks["polynomial-roots"]["details"]
    if d["beta_1"] != 1.0 or abs(d["beta_2"] - beta_closed(2)) > 1e-10 or abs(d["beta_3"] - beta_closed(3)) > 1e-10:
        bad.append("beta values")

    for n, k, got, *_ in checks["even-spectra"]["details"]["rows"]:
        if abs(got - math.sqrt(k * beta_closed(n))) > 1e-8:
            bad.append(f"even spectrum row {n} {k}")

    for _m, _k, trials, bound_fail, inter_fail in checks["degree-eigenvalue-chain"]["details"]["rows"]:
        if trials != CHAIN_TRIALS or bound_fail or inter_fail:
            bad.append("degree-eigenvalue chain")

    d = checks["hypercube-floor"]["details"]
    q4 = d.get("f_search_q4", {})
    if d["floor_mismatches"] or q4.get("value") != 2 or q4.get("kind") != "exact":
        bad.append("hypercube floor")

    for m, k, value, *_ in checks["even-floor-consistency"]["details"]["rows"]:
        if EVEN_FLOOR_VALUES.get((m, k)) != value:
            bad.append(f"even floor row {m} {k}: {value}")
    return bad


def run_verify_job(lib: Library, seed: int, out_path: str) -> Outcome:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = lib.cli.main(["verify-all", "--seed", str(seed), "--out", out_path])
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out_path)
    bad = check_verify_report(rc, report, seed)
    seconds = {c["name"]: c["seconds"] for c in report.get("checks", [])}
    return Outcome(not bad, not bad, "; ".join(bad), report_seconds=seconds)


# Scale jobs: one large call into a non-search layer each, with its known
# answer.  The sizes sit at or near the library's 65,536-vertex cap.


def _witness_3_10(lib: Library) -> bool:
    s = lib.pp.low_degree_witness_set(3, 10)  # 59,049 vertices
    return len(s) == alpha_closed(3, 10) + 1 and lib.pp.induced_max_degree(s) == 2


def _independent_4_8(lib: Library) -> bool:
    s = lib.pp.alternating_independent_set(4, 8)  # 65,536 vertices
    return len(s) == alpha_closed(4, 8) and lib.pp.is_independent(s) is True


def _support_2_16(lib: Library) -> bool:
    a = lib.pp.signed_grid_matrix(2, 16)
    edges = 16 * 2**15  # k (m - 1) m^(k-1)
    return a.dim == 2**16 and a.nnz == 2 * edges and lib.pp.check_support(a, lib.pp.PathPower(2, 16)) is True


def _square_identity_3_8(lib: Library) -> bool:
    return lib.pp.square_identity_check(3, 8) is True


def _min_eig_even_2_5(lib: Library) -> bool:
    return abs(lib.pp.min_positive_eig_even(2, 5) - math.sqrt(5 * beta_closed(2))) <= 1e-8


def _odd3_spectrum_7(lib: Library) -> bool:
    r = lib.pp.odd3_spectrum_check(7)
    return r.passed is True and r.zero_multiplicity == 1 and abs(r.min_positive - math.sqrt(2.0)) <= 1e-8


def _compose_2_9(lib: Library) -> bool:
    ok, dist = lib.pp.square_compose_check(2, 9)  # dimension 512; the int64 a @ a is ~88% of it
    return ok is True and dist <= 1e-7


SCALE_POOL = (
    ScaleJob("induced-degree-3^10", _witness_3_10),
    ScaleJob("independent-4^8", _independent_4_8),
    ScaleJob("support-2^16", _support_2_16),
    ScaleJob("square-identity-3^8", _square_identity_3_8),
    ScaleJob("min-eig-even-4^5", _min_eig_even_2_5),
    ScaleJob("odd3-spectrum-3^7", _odd3_spectrum_7),
    ScaleJob("compose-2^9", _compose_2_9),
)


def run_scale_job(lib: Library, job: ScaleJob) -> Outcome:
    ok = job.run(lib)
    return Outcome(ok, ok, "" if ok else f"{job.name}: wrong answer")


# --------------------------------- rounds -----------------------------------


class Workload:
    """The inputs of one workload, generated from the seed alone.

    next_round() returns the next round as (job name, thunk) pairs; each
    thunk runs one job and returns its Outcome.
    """

    def __init__(self, name: str, seed: int, lib: Library, scratch_dir: str, search_pool=SEARCH_POOL):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.lib = lib
        self.rng = random.Random(seed)
        self.out_path = os.path.join(scratch_dir, f"verify-{os.getpid()}.json")
        self.search_pool = search_pool

    def next_round(self) -> list[tuple[str, Callable[[], Outcome]]]:
        lib = self.lib
        if self.name == "verify":
            seed = self.rng.getrandbits(32)
            return [(f"verify-all:{seed}", lambda: run_verify_job(lib, seed, self.out_path))]
        if self.name == "search":
            pool = list(self.search_pool)
            self.rng.shuffle(pool)
            return [(job.name, lambda job=job: run_search_job(lib, job)) for job in pool]
        pool = list(SCALE_POOL)
        self.rng.shuffle(pool)
        return [(job.name, lambda job=job: run_scale_job(lib, job)) for job in pool]

    def deterministic(self, job_name: str) -> bool:
        """True when the job's node count must repeat exactly."""
        return any(j.name == job_name and j.deterministic_nodes for j in self.search_pool)
