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


_SIGNED = "src/pathpower/signed.py"

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
]
