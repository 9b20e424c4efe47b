"""Machine-readable verification reports and table exports.

run_verify_all drives every headline claim the library implements, limited
to instances whose vertex count fits max_size, and returns a Report whose
payload is reproducible bit for bit under the same config and seed (timing
fields aside).  Randomized checks derive one sub-seed per check name from
the global seed, so streams stay stable and independent.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from . import _kernels
from .constructions import alpha_formula
from .grid import PathPower, VertexSet, induced_max_degree, induced_max_degrees
from .search import (
    SearchBudget,
    brute_force_f,
    degree_bound_holds,
    degree_floor,
    floor_witness,
    lower_bound_even,
    max_independent_set,
    theoretical_f_value,
)
from .signed import check_support, signed_grid_matrix, square_identity_holds
from .spectral import (
    DEFAULT_GROUP_TOL,
    base_certificate,
    beta,
    chebyshev_identity_check,
    fg_identity_check,
    interlacing_holds,
    odd3_spectrum_check,
    signed_spectra,
    spectrum_check,
)

DEFAULT_SEED = 0x50335035  # the bytes "P3P5"
DEFAULT_MAX_SIZE = 729
CHAIN_TRIALS = 200  # random alpha + 1 subsets per degree-eigenvalue chain instance
CHECKOUT_ROOT = Path(__file__).resolve().parents[2]  # the checkout's root, when run from src/

ALPHA_GRID = (
    [(2, k) for k in range(1, 6)]
    + [(3, k) for k in range(1, 4)]
    + [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (7, 1)]
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: dict


@dataclass
class Report:
    version: str
    config: dict
    passed: bool
    seconds: float
    checks: list[CheckResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def git_revision(root: Path = CHECKOUT_ROOT) -> str | None:
    """The commit checked out at root, read from .git/HEAD and the ref it
    names (a loose ref file, else a line of packed-refs) without starting
    git; None when root holds no .git directory or the ref does not resolve
    to a commit id."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[len("ref: ") :]
            if (git / ref).is_file():
                head = (git / ref).read_text(encoding="utf-8").strip()
            else:
                packed = (git / "packed-refs").read_text(encoding="utf-8").splitlines()
                head = next((line.split()[0] for line in packed if line.endswith(" " + ref)), "")
    except OSError:
        return None
    return head if re.fullmatch(r"[0-9a-f]{40}|[0-9a-f]{64}", head) else None


def subseed(name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ------------------------------- the checks --------------------------------


def _check_independence_numbers(cfg: dict) -> tuple[bool, dict]:
    mismatches = []
    ran = []
    for m, k in ALPHA_GRID:
        if m**k > cfg["max_size"]:
            continue
        g = PathPower(m, k)
        mis = max_independent_set(g)
        expected = alpha_formula(m, k)
        ran.append([m, k, mis.size])
        if not (mis.proven and mis.size == expected == (m**k + 1) // 2):
            mismatches.append([m, k, mis.size, expected])
    return not mismatches and bool(ran), {"instances": ran, "mismatches": mismatches}


def _f_search(m: int, k: int, cfg: dict) -> dict:
    """A full enumeration of f([m]^k) at alpha + 1: the cross-check of a
    certified value."""
    res = brute_force_f(PathPower(m, k), 1, cfg["budget"], stop_at=0)
    return {"value": res.value, "kind": res.kind, "subsets": res.subsets_examined}


def _floor_row(m: int, k: int, cfg: dict) -> list:
    """[m, k, floor, source, witness family, witness size, witness degree],
    built once per verify-all run and shared by the checks that read it."""
    rows = cfg.setdefault("floor_rows", {})
    if (m, k) not in rows:
        g = PathPower(m, k)
        floor = degree_floor(g)
        family, witness = floor_witness(g)
        rows[m, k] = [m, k, floor.value, floor.source, family, len(witness), induced_max_degree(witness, g)]
    return rows[m, k]


def _check_odd_exact_values(cfg: dict) -> tuple[bool, dict]:
    details: dict = {}
    ok = True
    for m, k, want in [(3, 1, 2), (3, 2, 2)]:
        if m**k > cfg["max_size"]:
            continue
        res = details[f"f_search_{m}_{k}"] = _f_search(m, k, cfg)
        ok = ok and res["kind"] == "exact" and res["value"] == want
    witness_rows = []
    floor_rows = []
    for m, kmax, want in [(3, 5, 2), (5, 3, 1), (7, 3, 1)]:
        for k in range(1, kmax + 1):
            if m**k > cfg["max_size"]:
                continue
            row = _floor_row(m, k, cfg)
            _, _, floor, source, _, size, delta = row
            size_ok = size == alpha_formula(m, k) + 1
            witness_rows.append([m, k, delta, size])
            floor_rows.append(row)
            want_source = "odd3-spectral" if m == 3 else "independence"
            ok = ok and delta == want == floor and source == want_source and size_ok
    details["witness_rows"] = witness_rows
    details["floor_rows"] = floor_rows
    if 25 <= cfg["max_size"]:
        res = details["f_search_5_2"] = _f_search(5, 2, cfg)
        ok = ok and res["kind"] == "exact" and res["value"] == 1
    return ok and bool(witness_rows), details


def _check_odd3_spectra(cfg: dict) -> tuple[bool, dict]:
    k_max = max((k for k in range(1, 6) if 3**k <= cfg["max_size"]), default=0)
    rows = [
        [r.k, r.zero_multiplicity, r.min_positive, r.proof, r.passed]
        for r in (odd3_spectrum_check(k) for k in range(1, k_max + 1))
    ]
    return bool(rows) and all(row[-1] for row in rows), {"rows": rows}


def _check_polynomials(cfg: dict) -> tuple[bool, dict]:
    details: dict = {"beta_1": beta(1)}
    ok = details["beta_1"] == 1.0
    for n, closed in [(2, (3.0 - math.sqrt(5.0)) / 2.0), (3, 4.0 * math.sin(math.pi / 14.0) ** 2)]:
        details[f"beta_{n}"] = beta(n)
        gap = details[f"beta_{n}_gap"] = abs(details[f"beta_{n}"] - closed)
        ok = ok and gap <= 1e-10
    fg = details["fg_identity"] = fg_identity_check(1)  # every n, from the seeds n = 1 and 2
    chebyshev = details["chebyshev_identity"] = chebyshev_identity_check()  # every n, from two seeds and the step
    ok = ok and fg and chebyshev
    certificates = [[m, base_certificate(m)] for m in (3, *range(2, 17, 2))]
    details["base_certificate"] = certificates
    ok = ok and all(holds for _, holds in certificates)
    return ok, details


def _check_even_spectra(cfg: dict) -> tuple[bool, dict]:
    checks = [spectrum_check(2 * n, k) for n in (1, 2, 3) for k in (1, 2, 3) if (2 * n) ** k <= cfg["max_size"]]
    rows = [[r.m // 2, r.k, r.min_positive, r.proof, r.passed] for r in checks]
    return bool(rows) and all(r.passed for r in checks), {"rows": rows}


def _check_integer_structure(cfg: dict) -> tuple[bool, dict]:
    """The table certificate, once per built grid: every [2|4|6]^k for k
    <= 3 and [3]^k for k <= 5, within max_size."""
    grids = [(m, k) for m in (2, 3, 4, 6) for k in range(1, 6 if m == 3 else 4) if m**k <= cfg["max_size"]]
    square_rows, support_rows = [], []
    for m, k in grids:
        a, g = signed_grid_matrix(m, k), PathPower(m, k)
        if k > 1:
            square_rows.append([m, k, square_identity_holds(a)])
        support_rows.append([m, k, check_support(a, g) and a.nnz == 2 * g.edge_count])
    ok = all(row[-1] for row in square_rows + support_rows)
    return ok and bool(support_rows), {"square_identity": square_rows, "support": support_rows}


def chain_sets(m: int, k: int, seed: int) -> list[VertexSet]:
    """The CHAIN_TRIALS random sets of alpha + 1 vertices of [m]^k that the
    degree-eigenvalue chain checks under seed: each set draws one uint64 key
    per rank from random.Random(subseed("chain:m:k", seed)).randbytes, and
    holds the ranks of its alpha + 1 smallest keys, a tie going to the lower
    rank."""
    n = m**k
    rng = random.Random(subseed(f"chain:{m}:{k}", seed))
    keys = np.frombuffer(rng.randbytes(8 * CHAIN_TRIALS * n), dtype="<u8").reshape(CHAIN_TRIALS, n)
    members = np.zeros((CHAIN_TRIALS, n), dtype=bool)
    np.put_along_axis(members, np.argsort(keys, axis=1, kind="stable")[:, : alpha_formula(m, k) + 1], True, axis=1)
    width = (n + 7) // 8
    raw = np.packbits(members, axis=1, bitorder="little").tobytes()
    return [VertexSet(m, k, bits=int.from_bytes(raw[t : t + width], "little")) for t in range(0, len(raw), width)]


def _check_degree_eigenvalue_chain(cfg: dict) -> tuple[bool, dict]:
    ok = True
    rows = []
    for m, k in [(3, 2), (4, 2), (2, 4)]:
        if m**k > cfg["max_size"]:
            continue
        sets = chain_sets(m, k, cfg["seed"])
        full = VertexSet(m, k, bits=(1 << m**k) - 1)  # the host, solved in the same call
        host, *subs = signed_spectra(signed_grid_matrix(m, k), [full, *sets])
        subs = np.array([sub.eigenvalues for sub in subs])  # one ascending row per set
        bound_fail = int(np.count_nonzero(~degree_bound_holds(induced_max_degrees(sets), subs[:, -1])))
        inter_fail = int(np.count_nonzero(~interlacing_holds(np.array(host.eigenvalues), subs)))
        rows.append([m, k, CHAIN_TRIALS, bound_fail, inter_fail])
        ok = ok and bound_fail == 0 and inter_fail == 0
    return ok and bool(rows), {"rows": rows}


def _check_hypercube_floor(cfg: dict) -> tuple[bool, dict]:
    bad = []
    for k in range(1, 26):
        want = math.isqrt(k - 1) + 1  # ceil(sqrt(k)) in exact integers
        got = lower_bound_even(1, k)
        if got != want:
            bad.append([k, got, want])
    details: dict = {"floor_mismatches": bad}
    ok = not bad
    if 16 <= cfg["max_size"]:
        res = details["f_search_q4"] = _f_search(2, 4, cfg)
        ok = ok and res["kind"] == "exact" and res["value"] == 2
    # ceil(sqrt(k)) for every even m, certified by hypercube cells and met by the hk witness:
    # floors 1 to 3 on up to 64 vertices (tests run the larger grids)
    size = min(64, cfg["max_size"])
    cell_rows = [_floor_row(m, k, cfg) for m in (2, 4, 6) for k in range(1, 7) if m**k <= size]
    for m, k, floor, source, _, size, delta in cell_rows:
        want = math.isqrt(k - 1) + 1
        ok = ok and floor == delta == want and source == "hypercube-cells" and size == alpha_formula(m, k) + 1
    details["cell_floor_rows"] = cell_rows
    return ok and bool(cell_rows), details


def _check_even_floor_consistency(cfg: dict) -> tuple[bool, dict]:
    ok = True
    rows = []
    instances = [(2, k) for k in range(1, 5)] + [(4, 1), (4, 2)]
    for m, k in instances:
        if m**k > cfg["max_size"]:
            continue
        res = _f_search(m, k, cfg)
        floor = lower_bound_even(m // 2, k)
        _, _, cell_floor, _, _, _, delta = _floor_row(m, k, cfg)  # the certified floor and its witness
        good = res["kind"] == "exact" and res["value"] is not None and res["value"] >= floor
        good = good and res["value"] == cell_floor == delta
        rows.append([m, k, res["value"], floor, good])
        ok = ok and good
    if 4 <= cfg["max_size"]:
        p4 = next((r for r in rows if r[0] == 4 and r[1] == 1), None)
        ok = ok and p4 is not None and p4[2] == 1
    return ok and bool(rows), {"rows": rows}


_CHECKS = [
    ("independence-numbers", _check_independence_numbers),
    ("odd-exact-values", _check_odd_exact_values),
    ("odd3-spectra", _check_odd3_spectra),
    ("polynomial-roots", _check_polynomials),
    ("even-spectra", _check_even_spectra),
    ("integer-structure", _check_integer_structure),
    ("degree-eigenvalue-chain", _check_degree_eigenvalue_chain),
    ("hypercube-floor", _check_hypercube_floor),
    ("even-floor-consistency", _check_even_floor_consistency),
]


def run_verify_all(
    max_size: int = DEFAULT_MAX_SIZE,
    seed: int = DEFAULT_SEED,
    budget: SearchBudget | None = None,
) -> Report:
    """Run the full verification suite restricted to instances within
    max_size vertices.  Its thresholds are fixed (spectral.DEFAULT_GROUP_TOL
    and CHAIN_TRIALS), and the config echoes them."""
    cfg = {"max_size": max_size, "seed": seed, "budget": budget or SearchBudget()}
    config_echo = {
        "max_size": max_size,
        "tol": DEFAULT_GROUP_TOL,
        "seed": seed,
        "max_subsets": cfg["budget"].max_subsets,
        "max_seconds": cfg["budget"].max_seconds,
        "workers": cfg["budget"].workers,
        "chain_trials": CHAIN_TRIALS,
        "have_speedups": _kernels.HAVE_SPEEDUPS,
        "kernel_backend": _kernels.BACKEND_REASON,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
    }
    t0 = time.perf_counter()
    checks = []
    all_ok = True
    for name, fn in _CHECKS:
        t1 = time.perf_counter()
        try:
            passed, details = fn(cfg)
        except Exception as exc:  # a crashed check is a failed check
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        checks.append(CheckResult(name=name, passed=passed, seconds=time.perf_counter() - t1, details=details))
        all_ok = all_ok and passed
    return Report(
        version=_version,
        config=config_echo,
        passed=all_ok,
        seconds=time.perf_counter() - t0,
        checks=checks,
    )


# ------------------------------ table exports ------------------------------


def export_table(
    kind: str,
    m_range: tuple[int, int] = (2, 7),
    k_range: tuple[int, int] = (1, 4),
    n_range: tuple[int, int] = (1, 8),
) -> list[dict]:
    """Tabulate one of the supported quantities over a parameter grid.

    kind "beta": smallest positive roots for n in n_range.
    kind "alpha": independence numbers over the (m, k) grid.
    kind "bounds": f at alpha + 1 over the grid (theoretical_f_value): the
    certified floor, exact where a witness meets it, with the floor's
    source, the witness family and the paper's even-m floor paper_lower.
    Every row is a closed form, so no grid is built, whatever m^k.
    """
    rows: list[dict] = []
    if kind == "beta":
        for n in range(n_range[0], n_range[1] + 1):
            rows.append({"n": n, "beta": beta(n)})
        return rows
    if kind not in ("alpha", "bounds"):
        raise ValueError(f"unknown table kind {kind!r}")
    for m in range(m_range[0], m_range[1] + 1):
        for k in range(k_range[0], k_range[1] + 1):
            if kind == "alpha":
                rows.append({"m": m, "k": k, "alpha": alpha_formula(m, k)})
            else:
                fv = theoretical_f_value(m, k)
                rows.append(
                    {
                        "m": m,
                        "k": k,
                        "kind": fv.kind,
                        "value": fv.value,
                        "floor_source": fv.source,
                        "witness": fv.witness,
                        "paper_lower": fv.paper_lower,
                    }
                )
    return rows
