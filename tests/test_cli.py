"""Command-line surface and the verify-all report machinery."""

import copy
import gc
import json
import random

import mpmath
import numpy as np
import pytest

from pathpower import SignedMatrix, VertexSet, _kernels, alpha_formula, cli, read_matrix_market, report, search
from pathpower.cli import main
from pathpower.grid import digits
from pathpower.report import DEFAULT_SEED, chain_sets, export_table, run_verify_all, subseed


def run_cli(*argv):
    return main(list(argv))


def test_construct_writes_set_json(tmp_path):
    out = tmp_path / "sets.json"
    assert run_cli("construct", "--kind", "vk", "--m", "3", "--k", "2", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 3 and doc["k"] == 2
    assert doc["ranks"] == sorted(doc["ranks"])
    assert len(doc["ranks"]) == 5
    assert VertexSet.from_dict(doc).ranks() == doc["ranks"]


def test_construct_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--kind", "xk", "--m", "4", "--k", "2")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--kind", "zz", "--m", "3", "--k", "2")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--kind", "hk", "--m", "3", "--k", "2")  # the folded witness needs even m
    assert exc.value.code == 2


def test_construct_refuses_a_grid_over_the_cap_in_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--kind", "vk", "--m", "3", "--k", "100000")  # 3^100000 has 47,713 digits
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == ["pathpower: error: [3]^100000 has more than 65536 vertices, the size cap"]


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--kind", "vk", "--m", "3", "--k", "2"),
        ("matrix", "--parity", "odd3", "--k", "2"),
        ("spectrum", "--parity", "odd3", "--k", "2"),
        ("alpha", "--m", "3", "--k", "2"),
        ("f", "--m", "3", "--k", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_takes_a_size_cap(argv, capsys):
    assert run_cli(*argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--size-cap", "100000")
    assert exc.value.code == 2
    assert "unrecognized arguments: --size-cap" in capsys.readouterr().err


def test_matrix_roundtrip(tmp_path):
    out = tmp_path / "a.mtx"
    assert run_cli("matrix", "--parity", "even", "--n", "2", "--k", "2", "--out", str(out)) == 0
    back = read_matrix_market(str(out))
    assert back.dim == 16
    assert back.nnz == 48


def test_matrix_parity_flag_validation():
    with pytest.raises(SystemExit) as exc:
        run_cli("matrix", "--parity", "odd3", "--n", "1", "--k", "2")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("matrix", "--parity", "even", "--k", "2")
    assert exc.value.code == 2


def test_unknown_flag_and_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("beta", "--n", "2", "--frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["f", "--m", "3", "--k", "2", "--s", "10", "--brute"],  # alpha + s above the vertex count
        ["f", "--m", "3", "--k", "2", "--s", "10"],  # the quoted value holds only for s = 1
        ["f", "--m", "4", "--k", "2", "--s", "2"],
        ["f", "--m", "1", "--k", "2"],
        ["alpha", "--m", "1", "--k", "2"],
        ["f", "--m", "2", "--k", "17", "--brute"],  # over the size cap
        ["spectrum", "--parity", "odd3", "--k", "0"],
        ["spectrum", "--parity", "odd3", "--k", "0", "--compose"],
        ["f", "--m", "3", "--k", "2", "--brute", "--max-seconds", "nan"],  # NaN > 0 is false, like 0
        ["f", "--m", "3", "--k", "2", "--max-seconds", "nan"],
        ["f", "--m", "3", "--k", "2", "--seed", "1"],  # f is deterministic: no seed
        ["verify-all", "--tol", "1"],  # check thresholds are fixed, not flags
        ["verify-all", "--chain-trials", "0"],
        ["spectrum", "--parity", "odd3", "--k", "2", "--tol", "1"],
        ["beta", "--n", "3", "--tol", "1e-12"],  # beta is correctly rounded: no precision flag
        ["export-table", "--kind", "beta", "--tol", "1e-12"],
    ],
)
def test_invalid_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_beta_command(tmp_path, capsys):
    assert run_cli("beta", "--n", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"n", "beta"} and doc["n"] == 2
    assert doc["beta"] == 0.38196601125010515  # (3 - sqrt(5)) / 2, correctly rounded


def test_spectrum_dense_and_composed(capsys):
    assert run_cli("spectrum", "--parity", "odd3", "--k", "2", "--compose", "--dense") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 9
    assert doc["zero_multiplicity"] == 1
    assert doc["min_positive"] == pytest.approx(2**0.5, abs=1e-8)
    assert doc["multiset_distance"] < 1e-7


def test_spectrum_compose_only(capsys):
    assert run_cli("spectrum", "--parity", "even", "--n", "1", "--k", "3", "--compose") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 8
    assert doc["zero_multiplicity"] == 0
    assert doc["min_positive"] == pytest.approx(3**0.5, abs=1e-8)
    assert "multiset_distance" not in doc


def test_matrix_to_stdout(capsys):
    assert run_cli("matrix", "--parity", "odd3", "--k", "1") == 0
    out = capsys.readouterr().out
    assert out.startswith("%%MatrixMarket matrix coordinate integer symmetric")
    assert out.splitlines()[1:3] == ["% pathpower m=3 k=1 parity=odd3", "3 3 2"]


def test_alpha_command_brute_match(capsys):
    assert run_cli("alpha", "--m", "3", "--k", "2", "--brute") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 5 and doc["brute"] == 5 and doc["match"] is True


def test_alpha_command_brute_at_the_cap(capsys):
    assert run_cli("alpha", "--m", "4", "--k", "8", "--brute") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == doc["brute"] == len(doc["witness"]) == 32768
    assert doc["proven"] is True and doc["match"] is True


@pytest.mark.parametrize("flag", ["--max-seconds", "--max-subsets", "--workers"])
def test_alpha_has_no_search_budget(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("alpha", "--m", "3", "--k", "2", flag, "1")
    assert exc.value.code == 2
    capsys.readouterr()


def test_repeated_main_leaves_little_cyclic_garbage(capsys):
    run_cli("beta", "--n", "2")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cli("beta", "--n", "2")
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert garbage < 100


def test_f_command_theory_and_brute(capsys):
    assert run_cli("f", "--m", "3", "--k", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 2 and doc["kind"] == "exact" and "seed" not in doc

    assert run_cli("f", "--m", "4", "--k", "1", "--brute") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 1 and doc["kind"] == "exact"
    assert doc["witness"] == [0, 1, 3]
    assert doc["subsets_examined"] > 0
    assert doc["proof"] == "floor:hypercube-cells+scan" and doc["stop_reason"] == "floor-reached"
    assert doc["theory"] == {
        "kind": "exact",
        "value": 1,
        "floor_source": "hypercube-cells",
        "witness": "hk",
        "paper_lower": 1,
    }


def test_f_command_beyond_the_cap(capsys):
    assert run_cli("f", "--m", "3", "--k", "11") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["value"], doc["theory"]["floor_source"]) == ("exact", 2, "odd3-spectral")
    # ceil(sqrt(9)) = 3 from the cells and the hk witness, above the paper's own floor 2
    assert run_cli("f", "--m", "4", "--k", "9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["value"]) == ("exact", 3)
    assert doc["theory"] == {
        "kind": "exact",
        "value": 3,
        "floor_source": "hypercube-cells",
        "witness": "hk",
        "paper_lower": 2,
    }


def test_f_command_paper_floor_at_large_n(capsys):
    assert run_cli("f", "--m", "2000", "--k", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        want = int(mpmath.ceil(mpmath.sqrt(2 * 4 * mpmath.sin(mpmath.pi / 4002) ** 2)))
    assert doc["theory"]["paper_lower"] == want


def test_f_brute_certifies_alpha_once_in_the_search(capsys, monkeypatch):
    calls = []
    certify = search.max_independent_set
    for module in (search, cli):
        monkeypatch.setattr(module, "max_independent_set", lambda g: calls.append(1) or certify(g))
    assert run_cli("f", "--m", "4", "--k", "2", "--brute") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stop_reason"] == "floor-reached" and doc["subsets_examined"] > 0
    assert calls == []  # the theory row and the search both certify alpha on the path P_m


def test_f_brute_records_the_scan(capsys):
    assert run_cli("f", "--m", "2", "--k", "6", "--brute", "--workers", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stop_reason"] == "floor-reached" and doc["kind"] == "exact" and doc["value"] == 3
    assert len(doc["worker_nodes"]) == 2 and sum(doc["worker_nodes"]) == doc["subsets_examined"] > 0
    assert doc["backend"] == _kernels.backend_for(64) and doc["backend_reason"] == _kernels.BACKEND_REASON
    assert doc["scan_seconds"] > 0 and doc["nodes_per_s"] == doc["subsets_examined"] / doc["scan_seconds"]


def test_f_brute_prints_null_rates_when_no_scan_ran(capsys, monkeypatch):
    # f --brute always passes a stop_at, so only a search that settles by
    # certificate, as brute_force_f does by default, reaches this path.
    monkeypatch.setattr(cli, "brute_force_f", lambda g, s, budget, stop_at: search.brute_force_f(g, s))
    assert run_cli("f", "--m", "4", "--k", "2", "--brute") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["stop_reason"], doc["subsets_examined"], doc["value"]) == ("certificate", 0, 2)
    assert doc["scan_seconds"] is None and doc["nodes_per_s"] is None


def test_export_table_bounds_and_beta(capsys, tmp_path):
    assert run_cli("export-table", "--kind", "bounds", "--m-min", "2", "--m-max", "5", "--k-max", "3") == 0
    rows = json.loads(capsys.readouterr().out)
    odd3 = [r for r in rows if r["m"] == 3]
    assert all(r["kind"] == "exact" and r["value"] == 2 for r in odd3)
    odd5 = [r for r in rows if r["m"] == 5]
    assert all(r["kind"] == "exact" and r["value"] == 1 for r in odd5)
    even = [r for r in rows if r["m"] % 2 == 0]
    assert all(r["kind"] == "exact" and r["witness"] == "hk" and r["floor_source"] == "hypercube-cells" for r in even)
    assert [r["value"] for r in rows if r["m"] == 4] == [1, 2, 2]
    assert [r["paper_lower"] for r in rows if r["m"] == 4] == [1, 1, 2]

    out = tmp_path / "beta.csv"
    assert run_cli("export-table", "--kind", "beta", "--n-max", "6", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,beta"
    assert len(lines) == 7
    first = float(lines[1].split(",")[1])
    assert first == 1.0


def test_export_table_alpha_skips_no_row(capsys):
    assert run_cli("export-table", "--kind", "alpha", "--m-max", "4", "--k-max", "30") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3 * 30 and {"m": 3, "k": 2, "alpha": 5} in rows
    assert {"m": 4, "k": 30, "alpha": 4**30 // 2} in rows
    with pytest.raises(SystemExit):  # the size knob is gone
        run_cli("export-table", "--kind", "alpha", "--size-cap", "100")
    capsys.readouterr()


def test_export_table_bounds_past_the_grid_cap_are_exact(capsys):
    # [3]^11 and [6]^7 lie beyond the grid size cap: their rows are lifted from the path
    rows = export_table("bounds", (3, 6), (7, 11))
    assert all(r["kind"] == "exact" for r in rows) and len(rows) == 4 * 5
    assert {"m": 3, "k": 11, "kind": "exact", "value": 2, "floor_source": "odd3-spectral"}.items() <= rows[4].items()
    assert (rows[15]["m"], rows[15]["k"], rows[15]["value"], rows[15]["witness"]) == (6, 7, 3, "hk")
    argv = ["export-table", "--kind", "bounds", "--m-min", "3", "--m-max", "6", "--k-min", "7", "--k-max", "11"]
    assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out) == rows


def test_verify_all_cli_quick(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("verify-all", "--max-size", "9", "--out", str(report_path)) == 0
    out = capsys.readouterr().out
    assert "PASS overall" in out
    assert "FAIL" not in out
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True
    assert len(doc["checks"]) == 9
    assert all(c["passed"] for c in doc["checks"])
    assert doc["config"]["max_size"] == 9
    certificates = doc["checks"][3]["details"]["base_certificate"]
    assert certificates == [[m, True] for m in (3, 2, 4, 6, 8, 10, 12, 14, 16)]
    searches = [row for c in doc["checks"] for key, row in c["details"].items() if key.startswith("f_search")]
    assert searches and all(set(row) == {"value", "kind", "subsets"} for row in searches)  # no wall times


def test_verify_all_dense_solve_count(monkeypatch):
    # One entry per LAPACK call, holding its name, the number of matrices it
    # took (a stacked (g, p, p) argument is g matrices in one call) and their rows.
    calls = []

    def counted(name, solve):
        def wrapper(mat, *args, **kwargs):
            calls.append((name, 1 if np.ndim(mat) == 2 else len(mat), np.shape(mat)[-1]))
            return solve(mat, *args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    report = run_verify_all()
    assert report.passed
    assert not [call for call in calls if call[0] == "qr"]  # no kernel of C is completed
    solves = [(n, rows) for _, n, rows in calls]
    # Each matrix is solved once (the spectral facts are certified with no
    # solve): the chain's 600 submatrices and 3 hosts, each Gram matrix one
    # block of p rows, p the larger colour class.  A host is solved alone; a
    # grid's 200 sets, all of one size, as one stack padded to their largest p.
    want, real = [], 0
    for m, k in [(3, 2), (4, 2), (2, 4)]:
        colour = digits(m, k).sum(axis=1) % 2
        members = [list(range(m**k))] + [s.ranks() for s in chain_sets(m, k, DEFAULT_SEED)]
        rows = [max(int(colour[r].sum()), len(r) - int(colour[r].sum())) for r in members]
        want += [(1, rows[0]), (len(rows) - 1, max(rows[1:]))]
        real += sum(rows)
    assert sorted(solves) == sorted(want)
    assert sum(n for n, _ in solves) == 603 and real == 2867  # the rows of the 603 Gram matrices
    assert sum(n * rows for n, rows in solves) == 4021  # with the stacks' zero rows
    assert len(solves) == 6  # LAPACK calls: two per grid


def test_report_flags_a_witness_that_misses_the_floor(monkeypatch):
    build = report.floor_witness

    def first_ranks(g):  # even m: the alpha + 1 smallest ranks, degree above the floor from [2]^2 on
        family, witness = build(g)
        return (family, witness) if g.m % 2 else (family, VertexSet(g.m, g.k, ranks=range(len(witness))))

    monkeypatch.setattr(report, "floor_witness", first_ranks)
    failed = [c.name for c in run_verify_all(max_size=16).checks if not c.passed]
    assert failed == ["hypercube-floor", "even-floor-consistency"]


def test_a_check_that_ran_nothing_fails():
    # at one vertex no instance fits: only the size-independent polynomial check passes
    checks = run_verify_all(max_size=1).checks
    assert [c.name for c in checks if c.passed] == ["polynomial-roots"]
    odd, structure = checks[1].details, checks[5].details
    assert odd["witness_rows"] == [] and structure == {"square_identity": [], "support": []}


def test_report_determinism():
    r1 = run_verify_all(max_size=9).to_dict()
    r2 = run_verify_all(max_size=9).to_dict()

    def strip(doc):
        doc = copy.deepcopy(doc)
        doc.pop("seconds", None)
        for c in doc["checks"]:
            c.pop("seconds", None)
        return doc

    assert strip(r1) == strip(r2)
    r3 = run_verify_all(max_size=9, seed=1).to_dict()
    assert strip(r3)["config"]["seed"] == 1


def test_report_negative_control(monkeypatch):
    build = report.signed_grid_matrix

    def tampered(m: int, k: int) -> SignedMatrix:
        a = build(m, k)
        if (m, k) == (2, 1):
            a.sign[0, 1] = a.sign[1, 0] = 0  # drop the one edge in both directions
        return a

    monkeypatch.setattr(report, "signed_grid_matrix", tampered)
    rep = run_verify_all(max_size=9)
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == ["integer-structure"]
    details = failed[0].details
    assert "error" not in details
    assert [row[2] for row in details["support"]] == [False] + [True] * (len(details["support"]) - 1)


def test_chain_sets_are_the_smallest_keys_of_their_grids_stream():
    # Each set holds the alpha + 1 ranks of smallest key, one little-endian
    # uint64 key per rank from its grid's own randbytes stream, ties to the lower rank.
    trials = report.CHAIN_TRIALS
    for m, k in [(3, 2), (4, 2), (2, 4)]:
        n, target = m**k, alpha_formula(m, k) + 1
        sets = report.chain_sets(m, k, DEFAULT_SEED)
        assert sets == report.chain_sets(m, k, DEFAULT_SEED) != report.chain_sets(m, k, DEFAULT_SEED + 1)
        stream = random.Random(subseed(f"chain:{m}:{k}", DEFAULT_SEED)).randbytes(8 * trials * n)
        keys = [int.from_bytes(stream[8 * i : 8 * i + 8], "little") for i in range(trials * n)]
        assert len(sets) == trials
        for t, s in enumerate(sets):
            row = keys[t * n : (t + 1) * n]
            assert len(s) == target and (s.m, s.k) == (m, k)
            assert s.ranks() == sorted(sorted(range(n), key=lambda r: (row[r], r))[:target])
    # [4]^2 and [2]^4 both draw 9 of 16 ranks, each from its own stream
    assert alpha_formula(4, 2) == alpha_formula(2, 4) == 8
    assert [s.ranks() for s in report.chain_sets(4, 2, DEFAULT_SEED)] != [
        s.ranks() for s in report.chain_sets(2, 4, DEFAULT_SEED)
    ]


def test_subseed_stability():
    assert subseed("x", 1) == subseed("x", 1)
    assert subseed("x", 1) != subseed("y", 1)
    assert subseed("x", 1) != subseed("x", 2)


def test_report_config_records_the_environment():
    import os
    import platform

    config = run_verify_all(max_size=9).to_dict()["config"]
    assert config["python_version"] == platform.python_version()
    assert config["numpy_version"] == np.__version__
    assert config["cpu_count"] == os.cpu_count()


def test_git_revision_reads_head_and_its_ref(tmp_path):
    from pathpower.report import git_revision

    sha, other = "1" * 40, "2" * 40
    git = tmp_path / ".git"
    assert git_revision(tmp_path) is None  # not a checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert git_revision(tmp_path) is None  # a branch with no commit yet
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{other} refs/heads/topic/main\n{sha} refs/heads/main\n^{other}\n"
    )
    assert git_revision(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(other + "\n")  # a loose ref overrides packed-refs
    assert git_revision(tmp_path) == other
    (git / "HEAD").write_text(sha + "\n")  # detached
    assert git_revision(tmp_path) == sha
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text("not a commit id\n")
    assert git_revision(tmp_path) is None


def test_report_config_git_revision_matches_git():
    import shutil
    import subprocess
    from pathlib import Path

    from pathpower.report import CHECKOUT_ROOT

    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    config = run_verify_all(max_size=9).to_dict()["config"]
    done = subprocess.run(
        ["git", "-C", str(CHECKOUT_ROOT), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    lines = done.stdout.split()
    # Only a .git directory at the root of the source tree is read.
    checkout = done.returncode == 0 and Path(lines[0]).resolve() == CHECKOUT_ROOT and (CHECKOUT_ROOT / ".git").is_dir()
    assert config["git_revision"] == (lines[1] if checkout else None)


def test_report_config_names_the_kernel_backend():
    from pathpower import _kernels

    config = run_verify_all(max_size=9).to_dict()["config"]
    assert config["kernel_backend"] == _kernels.BACKEND_REASON
    assert config["have_speedups"] is _kernels.HAVE_SPEEDUPS
    assert config["kernel_backend"].split(":")[0] == ("compiled" if _kernels.HAVE_SPEEDUPS else "pure")
