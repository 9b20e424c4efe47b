"""Command-line surface: one binary, subcommands per tool.

Exit codes: 0 success, 1 a verification check failed, 2 usage error.
All outputs are UTF-8; vertex sets use the {"m", "k", "ranks"} JSON schema
and matrices use Matrix Market coordinate format.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import __version__
from .constructions import CONSTRUCTION_KINDS, alpha_formula, build_construction
from .grid import DEFAULT_SIZE_CAP, PathPower
from .report import DEFAULT_MAX_SIZE, DEFAULT_SEED, DEFAULT_TABLE_SIZE_CAP, export_table, run_verify_all
from .search import SearchBudget, brute_force_f, max_independent_set, theoretical_f_value
from .signed import signed_grid_matrix, write_matrix_market
from .spectral import (
    DEFAULT_EIG_DIM_CAP,
    DEFAULT_GROUP_TOL,
    beta,
    closed_form_spectrum,
    multiset_distance,
    signed_spectra,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2), out)


def _budget_from(args) -> SearchBudget:
    return SearchBudget(
        max_subsets=args.max_subsets,
        max_seconds=args.max_seconds,
        workers=args.workers,
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1, help="worker threads for the subset scan")
    p.add_argument("--max-subsets", type=int, default=100_000_000, help="search node cap")
    p.add_argument("--max-seconds", type=float, default=None, help="search deadline in seconds")


def _parity_to_m(args, parser: argparse.ArgumentParser) -> int:
    if args.parity == "odd3":
        if args.n is not None:
            parser.error("--n applies only to --parity even")
        return 3
    if args.n is None:
        parser.error("--parity even requires --n")
    return 2 * args.n


def cmd_construct(args, parser) -> int:
    s = build_construction(args.kind, args.m, args.k, size_cap=args.size_cap)
    _emit_json(s.to_dict(), args.out)
    return 0


def cmd_matrix(args, parser) -> int:
    m = _parity_to_m(args, parser)
    a = signed_grid_matrix(m, args.k, size_cap=args.size_cap)
    if args.out:
        write_matrix_market(a, args.out)
    else:
        buf = io.StringIO()
        write_matrix_market(a, buf)
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_spectrum(args, parser) -> int:
    m = _parity_to_m(args, parser)
    doc: dict = {"parity": args.parity, "n": args.n, "k": args.k, "group_tol": DEFAULT_GROUP_TOL}
    dense_rep = composed_rep = None
    if args.dense or not args.compose:
        a = signed_grid_matrix(m, args.k, size_cap=min(args.size_cap, DEFAULT_EIG_DIM_CAP))
        (dense_rep,) = signed_spectra(a)
    if args.compose:
        composed_rep = closed_form_spectrum(m, args.k, size_cap=args.size_cap)
    primary = dense_rep or composed_rep
    doc["eigenvalues"] = list(primary.eigenvalues)
    doc["min_positive"] = primary.min_positive
    doc["zero_multiplicity"] = primary.zero_multiplicity
    if dense_rep and composed_rep:
        doc["composed_eigenvalues"] = list(composed_rep.eigenvalues)
        doc["multiset_distance"] = multiset_distance(dense_rep.eigenvalues, composed_rep.eigenvalues)
    _emit_json(doc, args.out)
    return 0


def cmd_beta(args, parser) -> int:
    _emit_json({"n": args.n, "beta": beta(args.n, args.tol), "tol": args.tol}, args.out)
    return 0


def cmd_alpha(args, parser) -> int:
    doc = {"m": args.m, "k": args.k, "alpha": alpha_formula(args.m, args.k)}
    if args.brute:
        g = PathPower(args.m, args.k, size_cap=args.size_cap)
        res = max_independent_set(g)
        doc["brute"] = res.size
        doc["proven"] = res.proven
        doc["witness"] = res.witness.ranks()
        doc["match"] = res.proven and res.size == doc["alpha"]
    _emit_json(doc, args.out)
    return 0


def cmd_f(args, parser) -> int:
    if args.s != 1 and not args.brute:
        raise ValueError(f"the established value is for alpha + 1 vertices; --s {args.s} needs --brute")
    budget = _budget_from(args)  # refused before anything is built
    doc: dict = {"m": args.m, "k": args.k, "s": args.s}
    theory = theoretical_f_value(args.m, args.k)
    doc["theory"] = {
        "kind": theory.kind,
        "value": theory.value,
        "floor_source": theory.source,
        "witness": theory.witness,
        "paper_lower": theory.paper_lower,
    }
    if args.brute:
        g = PathPower(args.m, args.k, size_cap=args.size_cap)
        stop_at = theory.value if args.stop_at is None else args.stop_at  # a given stop_at runs the scan
        res = brute_force_f(g, args.s, budget, stop_at=stop_at)
        doc["value"] = res.value
        doc["kind"] = res.kind
        doc["proof"] = res.proof
        doc["stop_reason"] = res.stop_reason
        doc["witness"] = res.witness.ranks() if res.witness else None
        doc["subsets_examined"] = res.subsets_examined
    else:
        doc["value"] = theory.value
        doc["kind"] = theory.kind
    _emit_json(doc, args.out)
    return 0


def cmd_verify_all(args, parser) -> int:
    report = run_verify_all(max_size=args.max_size, seed=args.seed, budget=_budget_from(args))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} ({check.seconds:.2f}s)")
    print(f"{'PASS' if report.passed else 'FAIL'} overall ({report.seconds:.2f}s)")
    if args.out:
        _emit_json(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_export_table(args, parser) -> int:
    rows = export_table(
        args.kind,
        m_range=(args.m_min, args.m_max),
        k_range=(args.k_min, args.k_max),
        n_range=(args.n_min, args.n_max),
        tol=args.tol,
        size_cap=args.size_cap,
    )
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        fieldnames: list[str] = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return 0


@functools.cache  # the argparse tree is cyclic garbage once dropped; build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathpower",
        description="Independent sets, signed spectra, and induced-degree floors on grid graphs.",
    )
    parser.add_argument("--version", action="version", version=f"pathpower {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a vertex-set family member as JSON")
    p.add_argument("--kind", required=True, choices=CONSTRUCTION_KINDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("matrix", help="write a signed matrix in Matrix Market format")
    p.add_argument("--parity", required=True, choices=["odd3", "even"])
    p.add_argument("--n", type=int, default=None, help="half path length for --parity even")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("spectrum", help="eigenvalues of a signed matrix")
    p.add_argument("--parity", required=True, choices=["odd3", "even"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--compose", action="store_true", help="the closed form instead of a dense solve")
    p.add_argument("--dense", action="store_true", help="with --compose: also solve densely and compare")
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("beta", help="smallest positive root of the even-case polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("alpha", help="independence number, optionally proved by certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="check the alternating set and snake matching certificate")
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("f", help="minimum induced max degree at alpha + s vertices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1, help="vertices beyond alpha; other than 1 needs --brute")
    p.add_argument("--brute", action="store_true", help="search instead of quoting the established value")
    p.add_argument(
        "--stop-at", type=int, default=None, help="stop the scan at this degree (default: the floor); 0 scans all"
    )
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    _add_budget_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_f)

    p = sub.add_parser("verify-all", help="run every verification check")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_budget_flags(p)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("export-table", help="tabulate alpha, beta, or the established bounds")
    p.add_argument("--kind", required=True, choices=["beta", "alpha", "bounds"])
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=7)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--size-cap", type=int, default=DEFAULT_TABLE_SIZE_CAP)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:  # bad parameters or a size cap: a usage error, exit 2
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
