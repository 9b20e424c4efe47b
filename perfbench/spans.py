"""Spans around the public functions of each pathpower layer, from outside.

Modules import functions by name (`from .search import brute_force_f`), so
installing the tracer replaces a target in every pathpower module namespace
that holds that same object, and replaces target methods on their class.
Only layer-boundary functions are wrapped, not inner helpers such as
neighbor_ranks.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _nodes_from_tuple(args, kwargs, result) -> dict:
    return {"nodes": result[2]}


def _search_attrs(args, kwargs, result) -> dict:
    budget = kwargs.get("budget", args[2] if len(args) > 2 else None)
    workers = budget.workers if budget is not None else 1
    return {"nodes": result.subsets_examined, "parallel": int(workers > 1)}


def _mis_attrs(args, kwargs, result) -> dict:
    return {"nodes": result.nodes_examined}


def _eig_attrs(args, kwargs, result) -> dict:
    dim = result.dim
    return {"dim_cubed": dim**3}


# (module, attribute or Class.method, span name, attribute extractor)
TARGETS = (
    ("pathpower.grid", "induced_max_degree", "grid.induced_max_degree", None),
    ("pathpower.grid", "PathPower.adjacency_masks", "grid.adjacency_masks", None),
    ("pathpower.constructions", "alternating_independent_set", "constructions.alternating_independent_set", None),
    ("pathpower.constructions", "low_degree_witness_set", "constructions.low_degree_witness_set", None),
    ("pathpower.constructions", "build_construction", "constructions.build_construction", None),
    ("pathpower.constructions", "append_coordinate", "constructions.append_coordinate", None),
    ("pathpower.constructions", "is_independent", "constructions.is_independent", None),
    ("pathpower.signed", "signed_grid_matrix", "signed.signed_grid_matrix", None),
    ("pathpower.signed", "check_support", "signed.check_support", None),
    ("pathpower.signed", "square_identity_check", "signed.square_identity_check", None),
    ("pathpower.signed", "SignedMatrix.to_dense", "signed.to_dense", None),
    ("pathpower.signed", "principal_submatrix", "signed.principal_submatrix", None),
    ("pathpower.spectral", "beta", "spectral.beta", None),
    ("pathpower.spectral", "charpoly_exact", "spectral.charpoly_exact", None),
    ("pathpower.spectral", "charpoly_base_square_check", "spectral.charpoly_base_square_check", None),
    ("pathpower.spectral", "fg_identity_check", "spectral.fg_identity_check", None),
    ("pathpower.spectral", "eigenvalues_sym", "spectral.eigenvalues_sym", _eig_attrs),
    ("pathpower.spectral", "interlacing_check", "spectral.interlacing_check", None),
    ("pathpower.spectral", "min_positive_eig_even", "spectral.min_positive_eig_even", None),
    ("pathpower.spectral", "nonsingularity_check_even", "spectral.nonsingularity_check_even", None),
    ("pathpower.spectral", "odd3_spectrum_check", "spectral.odd3_spectrum_check", None),
    ("pathpower.spectral", "composed_square_spectrum", "spectral.composed_square_spectrum", None),
    ("pathpower.spectral", "square_compose_check", "spectral.square_compose_check", None),
    ("pathpower.search", "brute_force_f", "search.brute_force_f", _search_attrs),
    ("pathpower.search", "max_independent_set", "search.max_independent_set", _mis_attrs),
    ("pathpower.search", "lower_bound_even", "search.lower_bound_even", None),
    ("pathpower.search", "degree_bound_check", "search.degree_bound_check", None),
    ("pathpower._kernels", "scan_min_induced_degree", "search.scan_kernel", _nodes_from_tuple),
    ("pathpower._kernels", "solve_max_independent_set", "search.mis_kernel", None),
    ("pathpower.report", "run_verify_all", "report.run_verify_all", None),
    ("pathpower.report", "export_table", "report.export_table", None),
    ("pathpower.cli", "main", "cli.main", None),
)

# Per-layer metric -> span names whose self times it sums.
SELF_TIME = {
    "search.scan_s": ("search.scan_kernel",),
    "search.mis_s": ("search.max_independent_set", "search.mis_kernel"),
    "spectral.poly_s": (
        "spectral.beta",
        "spectral.charpoly_exact",
        "search.lower_bound_even",
        "spectral.fg_identity_check",
        "spectral.charpoly_base_square_check",
    ),
    "spectral.eig_s": ("spectral.eigenvalues_sym",),
    "spectral.interlacing_s": ("spectral.interlacing_check",),
    "spectral.compose_check_s": ("spectral.square_compose_check",),
    "grid.induced_degree_s": ("grid.induced_max_degree",),
    "grid.adjacency_masks_s": ("grid.adjacency_masks",),
    "signed.build_s": ("signed.signed_grid_matrix",),
    "signed.support_s": ("signed.check_support",),
    "signed.square_identity_s": ("signed.square_identity_check",),
    "signed.to_dense_s": ("signed.to_dense",),
    "constructions.build_s": (
        "constructions.alternating_independent_set",
        "constructions.low_degree_witness_set",
        "constructions.build_construction",
        "constructions.append_coordinate",
    ),
    "report.self_s": ("report.run_verify_all",),
    "cli.self_s": ("cli.main",),
}
CALLS = {
    "spectral.beta_calls": "spectral.beta",
    "spectral.eig_calls": "spectral.eigenvalues_sym",
    "grid.induced_degree_calls": "grid.induced_max_degree",
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans (name, start, end, parent index, job id, attributes)."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, attrs_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job, None)
            if attrs_of is not None:
                spans[idx] = (name, t0, t1, parent, self.job, attrs_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; the library must already be imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pathpower" or n.startswith("pathpower.")]
        for module_name, path, span_name, attrs_of in TARGETS:
            owner, leaf = _resolve(module_name, path)
            original = getattr(owner, leaf)
            wrapper = self._wrap(span_name, original, attrs_of)
            if isinstance(owner, type):
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def summary(self) -> dict:
        """Totals per span name (calls, seconds, self seconds, attribute
        sums; parallel search calls under their own name) and the
        eigensolve dim^3 sum of each job."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _job, _attrs in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0})
        dim_cubed_by_job: dict = defaultdict(int)
        for i, (name, t0, t1, _parent, job, attrs) in enumerate(self.spans):
            if attrs and attrs.get("parallel"):
                name += ".parallel"
            row = totals[name]
            row["calls"] += 1
            row["seconds"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            for key, value in (attrs or {}).items():
                if key != "parallel":
                    row[key] = row.get(key, 0) + value
            if attrs and "dim_cubed" in attrs:
                dim_cubed_by_job[job] += attrs["dim_cubed"]
        return {"spans": dict(totals), "dim_cubed_by_job": dict(dim_cubed_by_job)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job", "attrs"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def layer_metrics(spans: dict, jobs: int) -> dict:
    """Per-layer metrics per traced job, from summary()["spans"]."""

    def total(name, key):
        return spans.get(name, {}).get(key, 0)

    jobs = max(jobs, 1)
    out = {metric: sum(total(n, "self_s") for n in names) / jobs for metric, names in SELF_TIME.items()}
    for metric, name in CALLS.items():
        out[metric] = total(name, "calls") / jobs
    scan_s = total("search.scan_kernel", "self_s")
    scan_nodes = total("search.scan_kernel", "nodes")
    out["search.scan_nodes"] = scan_nodes / jobs
    out["search.ns_per_node"] = 1e9 * scan_s / scan_nodes if scan_nodes else 0.0
    out["search.parallel_s"] = total("search.brute_force_f.parallel", "self_s") / jobs
    out["search.parallel_nodes"] = total("search.brute_force_f.parallel", "nodes") / jobs
    out["search.mis_nodes"] = total("search.max_independent_set", "nodes") / jobs
    out["spectral.eig_dim_cubed"] = total("spectral.eigenvalues_sym", "dim_cubed") / jobs
    return out
