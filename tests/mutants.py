"""Mutants of the library's checks, for tools/run_mutants.py.

Each entry names a source file, an exact snippet of it, the snippet's
replacement, and the tests (pytest node ids from the repository root) that
must fail once the replacement is made.  test_mutants.py checks that every
snippet occurs exactly once in the current source, so an entry cannot go
stale quietly.  A new certificate adds one mutant per clause.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_SEARCH = "src/pathpower/search.py"
_SIGNED = "src/pathpower/signed.py"
_SPECTRAL = "src/pathpower/spectral.py"
_LEMMA_CONTROLS = ("tests/test_spectral.py::test_each_clause_of_the_lemma_has_a_negative_control",)
_DET_ORACLE = ("tests/test_spectral.py::test_the_det_clause_holds_exactly_when_the_determinant_is_the_target",)
_ALPHA_CONTROLS = ("tests/test_search.py::test_a_tampered_level_1_alpha_certificate_leaves_the_trivial_floor",)
_PAIRING_CONTROLS = ("tests/test_search.py::test_hypercube_cells_negative_controls",)
_XK_CONTROLS = ("tests/test_search.py::test_a_tampered_xk_seed_leaves_the_row_lower",)
_HK_CONTROLS = ("tests/test_search.py::test_hk_blocks_that_miss_the_floor_leave_the_row_lower",)
_FG_CONTROLS = ("tests/test_spectral.py::test_fg_identity_from_its_two_seeds",)
_ALPHA_TAMPERS = ("tests/test_search.py::test_alpha_certificate_rejects_tampered_inputs",)
_CHEBYSHEV_CONTROLS = ("tests/test_spectral.py::test_each_clause_of_the_chebyshev_identity_has_a_negative_control",)
_BRACKET_ORACLE = ("tests/test_spectral.py::test_the_beta_bracket_holds_the_mpmath_root",)
_MM_HEADER = ("tests/test_signed.py::test_matrix_market_refuses_a_header_or_edge_count_the_writer_never_writes",)
_MATCHING_PIN = ("tests/test_kernels.py::test_full_enumeration_of_7x7_on_each_backend",)
_LANES = ("tests/test_grid.py::test_no_count_carries_from_one_lane_into_the_next",)

MUTANTS = [
    Mutant(
        "square-identity-off-slot-refusal",
        _SIGNED,
        "    if a.sign.shape != present.shape or np.any(a.sign[~present]):\n        raise ValueError",
        "    if a.sign.shape != present.shape:\n        raise ValueError",
        (
            "tests/test_signed.py::test_support_detects_extra_entry",
            "tests/test_signed.py::test_support_rejects_an_entry_across_a_digit_carry",
        ),
    ),
    Mutant(
        "square-identity-mirror-clause",
        _SIGNED,
        "    if not _mirrored(a):\n        return False\n",
        "",
        ("tests/test_signed.py::test_a_down_slot_flip_of_the_hypercube_fails_the_mirror_clause",),
    ),
    Mutant(
        "square-identity-line-clause",
        _SIGNED,
        "if np.any(line[:, :-2] * line[:, 1:-1] != (links[:-1] * links[1:])[:, None]):",
        "if False:",
        ("tests/test_signed.py::test_a_vertex_resigning_of_3_to_the_k_fails_the_line_clause",),
    ),
    Mutant(
        "square-identity-face-clause",
        _SIGNED,
        "if np.any(face != -1):",
        "if False:",
        (
            "tests/test_signed.py::test_square_identity_fails_with_one_sign_flipped",
            "tests/test_spectral.py::test_a_flip_with_its_mirror_fails_the_identity_at_its_level",
        ),
    ),
    Mutant(
        "lemma-support-clause",
        _SPECTRAL,
        'yield "check_support", check_support(b, b.graph())',
        'yield "check_support", True',
        _LEMMA_CONTROLS,
    ),
    Mutant(
        "lemma-d-squared-clause",
        _SPECTRAL,
        'yield "D^2 = I", bool(np.all(np.abs(d) == 1))',
        'yield "D^2 = I", True',
        _LEMMA_CONTROLS,
    ),
    Mutant(
        "lemma-anticommutation-clause",
        _SPECTRAL,
        'yield "DB + BD = 0", not np.any(links * (d[:-1] + d[1:]))',
        'yield "DB + BD = 0", True',
        _LEMMA_CONTROLS,
    ),
    Mutant(
        "lemma-block-step-clause",
        _SPECTRAL,
        'np.array_equal(a2.sign, _block_step_table(links, d))',
        "True",
        _LEMMA_CONTROLS,
    ),
    Mutant(
        "lemma-det-odd3-clause",
        _SPECTRAL,
        "return c[0] + c[1] == 2",
        "return True",
        _DET_ORACLE,
    ),
    Mutant(
        "lemma-det-seed-clause",
        _SPECTRAL,
        "c[0] == -_G_SEED[0] and",
        "",
        _DET_ORACLE,
    ),
    Mutant(
        "lemma-det-sum-clause",
        _SPECTRAL,
        "c[i] + c[i + 1] == shift and",
        "",
        _DET_ORACLE,
    ),
    Mutant(
        "lemma-det-product-clause",
        _SPECTRAL,
        "and c[i - 1] * c[i] == 1",
        "",
        _DET_ORACLE,
    ),
    Mutant(
        "support-values-clause",
        _SIGNED,
        "np.array_equal(np.abs(a.sign), present)",
        "np.array_equal(a.sign != 0, present)",
        ("tests/test_signed.py::test_support_rejects_tampered_arrays",),
    ),
    Mutant(
        "support-mirror-clause",
        _SIGNED,
        "        return False\n    return _mirrored(a)\n",
        "        return False\n    return True\n",
        (
            "tests/test_signed.py::test_support_rejects_tampered_arrays",
            "tests/test_signed.py::test_support_mirror_clause_covers_every_axis",
        ),
    ),
    Mutant(
        "fg-seed-1-clause",
        _SPECTRAL,
        "poly_g(1) == poly_f(1) + poly_f(0) and ",
        "",
        _FG_CONTROLS,
    ),
    Mutant(
        "fg-seed-2-clause",
        _SPECTRAL,
        " and poly_g(2) == poly_f(2) + poly_f(1)",
        "",
        _FG_CONTROLS,
    ),
    Mutant(
        "alpha-independence-clause",
        _SEARCH,
        "        is_independent(independent, g)\n        and ",
        "        ",
        _ALPHA_TAMPERS,
    ),
    Mutant(
        "alpha-permutation-clause",
        _SEARCH,
        "        and np.array_equal(np.sort(path), np.arange(n))\n",
        "",
        _ALPHA_TAMPERS,
    ),
    Mutant(
        "alpha-matching-clause",
        _SEARCH,
        "        and bool(is_grid_edge(g, path[0 : 2 * pairs : 2], path[1 : 2 * pairs : 2]).all())\n",
        "",
        _ALPHA_TAMPERS,
    ),
    Mutant(
        "alpha-size-clause",
        _SEARCH,
        "        and len(independent) == n - pairs\n",
        "",
        _ALPHA_TAMPERS,
    ),
    Mutant(
        "witness-degree-clause",
        _SEARCH,
        "if len(witness) == target and induced_max_degree(witness, g) == floor.value:",
        "if len(witness) == target:",
        ("tests/test_search.py::test_witness_above_the_floor_falls_back_to_the_scan",),
    ),
    Mutant(
        "level-1-alpha-clause",
        _SEARCH,
        "return colour_class and alpha_certificate_holds(path, independent, _snake_order(m, 1))",
        "return colour_class",
        _ALPHA_CONTROLS,
    ),
    Mutant(
        "level-1-colour-class-clause",
        _SEARCH,
        "colour_class = is_independent(independent.complement(), path)",
        "colour_class = True",
        _ALPHA_CONTROLS,
    ),
    Mutant(
        "cell-pairing-cover-clause",
        _SEARCH,
        "cover = np.array_equal(np.sort(pairs, axis=None), np.arange(m))",
        "cover = True",
        _PAIRING_CONTROLS,
    ),
    Mutant(
        "cell-pairing-edge-clause",
        _SEARCH,
        "return cover and bool(is_grid_edge(PathPower(m, 1), pairs[:, 0], pairs[:, 1]).all())",
        "return cover",
        _PAIRING_CONTROLS,
    ),
    Mutant(
        "xk-size-clause",
        _SEARCH,
        "        if len(seed) != alpha_formula(m, 1) + 1:\n            return None\n",
        "",
        _XK_CONTROLS,
    ),
    Mutant(
        "xk-max-lift-clause",
        _SEARCH,
        "degree = max(degree, induced_max_degree(rest, path))",
        "pass",
        ("tests/test_search.py::test_the_xk_lift_reads_the_complement_from_k_2",),
    ),
    Mutant(
        "hk-partition-clause",
        _SEARCH,
        "np.array_equal(np.sort(np.concatenate(blocks)), np.arange(k))",
        "True",
        _HK_CONTROLS,
    ),
    Mutant(
        "hk-nonempty-blocks-clause",
        _SEARCH,
        "if not (all(blocks) and ",
        "if not (",
        _HK_CONTROLS,
    ),
    Mutant(
        "hk-sensitivity-clause",
        _SEARCH,
        "max(len(blocks), *map(len, blocks))",
        "len(blocks)",
        _HK_CONTROLS,
    ),
    Mutant(
        "hk-sensitivity-block-count-clause",
        _SEARCH,
        "max(len(blocks), *map(len, blocks))",
        "max(map(len, blocks))",
        _HK_CONTROLS,
    ),
    Mutant(
        "chebyshev-seed-0-clause",
        _SPECTRAL,
        "        _T1 * poly_g(0).evaluate(x) == _T1\n        and ",
        "        ",
        _CHEBYSHEV_CONTROLS,
    ),
    Mutant(
        "chebyshev-seed-1-clause",
        _SPECTRAL,
        "        and _T1 * poly_g(1).evaluate(x) == -1 * _T3\n",
        "",
        _CHEBYSHEV_CONTROLS,
    ),
    Mutant(
        "chebyshev-step-clause",
        _SPECTRAL,
        "        and _X_MINUS_2.evaluate(x) == -2 * _T2\n",
        "",
        _CHEBYSHEV_CONTROLS,
    ),
    Mutant(
        "bracket-atan-radius",
        _SPECTRAL,
        "    return s - (j // 2 + 1), s + (j // 2 + 1)\n",
        "    return s, s\n",
        _BRACKET_ORACLE,
    ),
    Mutant(
        "bracket-sin-radius",
        _SPECTRAL,
        "    return s - (j + 1), s + (j + 1)\n",
        "    return s, s\n",
        _BRACKET_ORACLE,
    ),
    Mutant(
        "lower-bound-even-acceptance",
        _SPECTRAL,
        "if ((t - 1) ** 2 << p) < k * lo:",
        "if True:",
        (
            "tests/test_search.py::test_a_bracket_that_straddles_a_square_is_refined",
            "tests/test_search.py::test_lower_bound_even_matches_mpmath",
        ),
    ),
    Mutant(
        "svd-contract-rows-once-clause",
        _SPECTRAL,
        "if not np.array_equal(np.sort(rows), np.arange(g * p)):",
        "if False:",
        ("tests/test_spectral.py::test_the_components_must_hold_each_row_once",),
    ),
    Mutant(
        "svd-contract-residual-clause",
        _SPECTRAL,
        "if not np.all(worst <= DEFAULT_RESIDUAL_TOL * fro):",
        "if False:",
        (
            "tests/test_spectral.py::test_signed_spectra_contract_negative_controls",
            "tests/test_spectral.py::test_the_left_residual_counts_the_rows_outside_a_component",
        ),
    ),
    Mutant(
        "svd-contract-reconstruction-clause",
        _SPECTRAL,
        "if not np.all(recon <= DEFAULT_RECON_TOL * fro):",
        "if False:",
        ("tests/test_spectral.py::test_a_live_column_left_out_fails_the_reconstruction",),
    ),
    Mutant(
        "svd-contract-orthonormality-clause",
        _SPECTRAL,
        "if not np.all(ortho <= DEFAULT_RECON_TOL):",
        "if False:",
        (
            "tests/test_spectral.py::test_right_vectors_must_be_orthonormal",
            "tests/test_spectral.py::test_right_vectors_must_be_orthonormal_in_a_split_solve",
        ),
    ),
    Mutant(
        "read-mm-banner-refusal",
        _SIGNED,
        "    if text.splitlines()[:1] != [_MM_BANNER]:\n",
        "    if False:\n",
        _MM_HEADER,
    ),
    Mutant(
        "read-mm-square-size-refusal",
        _SIGNED,
        "    if cols != dim:\n",
        "    if False:\n",
        _MM_HEADER,
    ),
    Mutant(
        "read-mm-entry-count-refusal",
        _SIGNED,
        "    if len(lines) - 1 != count:\n",
        "    if False:\n",
        ("tests/test_signed.py::test_matrix_market_rejects_a_truncated_file", *_MM_HEADER),
    ),
    Mutant(
        "matching-bound-pure",
        "src/pathpower/_kernels_py.py",
        "if best == 1 and level + free[v] < target:",
        "if False:",
        _MATCHING_PIN,
    ),
    Mutant(
        "matching-bound-compiled",
        "src/pathpower/_scan.c",
        "if (best == 1 && level + free_blocks[v] < target)",
        "if (0)",
        _MATCHING_PIN,
    ),
    Mutant(
        "stack-padded-sigma-kept",
        _SPECTRAL,
        "top[np.arange(gq) < gq - q[group][:, None]] = 0.0",
        "top[np.arange(gq) < 0] = 0.0",
        ("tests/test_spectral.py::test_padded_stacks_match_eigvalsh_of_each_submatrix",),
    ),
    Mutant(
        "lane-up-mask-untiled",
        "src/pathpower/grid.py",
        "[up * repunit for up in",
        "[up for up in",
        _LANES,
    ),
    Mutant(
        "lane-up-mask-top-rank",
        "src/pathpower/grid.py",
        "[up * repunit for up in",
        "[(up | 1 << n - 1) * repunit for up in",
        _LANES,
    ),
    Mutant(
        "grid-size-cap-off-by-one",
        "src/pathpower/grid.py",
        "    if n > size_cap:\n",
        "    if n > size_cap + 1:\n",
        (
            "tests/test_grid.py::test_constructor_validation",
            "tests/test_grid.py::test_every_builder_validates_the_grid_by_check_grid",
        ),
    ),
]
