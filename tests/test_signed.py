"""Structure of the recursive signed matrices."""

import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpower import (
    DimensionMismatchError,
    PathPower,
    SignedMatrix,
    SizeCapError,
    VertexSet,
    check_support,
    principal_submatrix,
    read_matrix_market,
    signed_grid_matrix,
    square_identity_check,
    write_matrix_market,
)
from pathpower import signed
from pathpower.grid import present_slots, slot_steps
from pathpower.signed import square_identity_holds


def _set(a: SignedMatrix, i: int, j: int, v: int) -> None:
    """Store v as the entry (i, j) only, in the slot of row i that steps to j."""
    a.sign[i, int(np.flatnonzero(slot_steps(a.m, a.k) == j - i)[0])] = v


def test_base_matrix_three():
    a = signed_grid_matrix(3, 1)
    assert a.dim == 3
    assert a.entry(0, 1) == 1
    assert a.entry(1, 2) == -1
    assert a.entry(0, 2) == 0
    assert np.array_equal(a.to_dense(), np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]]))


def test_base_matrix_even():
    assert np.array_equal(signed_grid_matrix(2, 1).to_dense(), np.array([[0, 1], [1, 0]]))
    a4 = signed_grid_matrix(4, 1)
    assert [a4.entry(i, i + 1) for i in range(3)] == [1, -1, 1]
    a6 = signed_grid_matrix(6, 1)
    assert a6.entry(3, 4) == -1  # fourth edge carries the minus sign


def test_odd_five_rejected():
    with pytest.raises(ValueError):
        signed_grid_matrix(5, 2)


def test_size_cap_enforced():
    for m, k in [(2, 17), (3, 11), (4, 9)]:  # just over the fixed cap of 65,536 rows
        with pytest.raises(SizeCapError):
            signed_grid_matrix(m, k)
    for m, k in [(2, 16), (4, 8), (16, 4), (256, 2)]:  # exactly at it
        a = signed_grid_matrix(m, k)
        assert a.dim == 65536 and a.graph() == PathPower(m, k)


def test_block_structure_three_squared():
    a = signed_grid_matrix(3, 2)
    assert a.dim == 9
    # identity block between the first two last-coordinate blocks
    assert all(a.entry(i, 3 + i) == 1 for i in range(3))
    # middle diagonal block is the negated base
    base = signed_grid_matrix(3, 1)
    for i in range(3):
        for j in range(3):
            assert a.entry(3 + i, 3 + j) == -base.entry(i, j)
    # third block is the base again, second identity block is negative
    assert all(a.entry(3 + i, 6 + i) == -1 for i in range(3))
    assert a.nnz == 24


def test_even_two_squared_full_matrix():
    want = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, -1, 0],
        ]
    )
    assert np.array_equal(signed_grid_matrix(2, 2).to_dense(), want)


def test_even_four_squared_counts():
    a = signed_grid_matrix(4, 2)
    g = PathPower(4, 2)
    assert a.dim == 16
    assert a.nnz == 48 == 2 * g.edge_count
    assert check_support(a, g)


@pytest.mark.parametrize("m,k", [(2, 3), (3, 3), (4, 2), (6, 2), (3, 5)])
def test_support_matches_adjacency(m, k):
    a = signed_grid_matrix(m, k)
    g = PathPower(m, k)
    assert check_support(a, g)
    assert a.nnz == 2 * k * (m - 1) * m ** (k - 1)
    rows, cols, vals = a.entries()
    assert np.all(np.abs(vals) == 1)
    assert all(a.entry(j, i) == v for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()))


def test_support_detects_tampering():
    a = signed_grid_matrix(3, 2)
    g = PathPower(3, 2)
    _set(a, 0, 1, 0)  # drop one edge in both directions
    _set(a, 1, 0, 0)
    assert not check_support(a, g)
    with pytest.raises(DimensionMismatchError):
        check_support(signed_grid_matrix(3, 1), g)


def test_support_detects_extra_entry():
    # A table holds an extra entry only on an absent slot.  The down slot of
    # rank 0 along axis 0 steps to -1, which no reader may wrap to the last row.
    a = signed_grid_matrix(2, 2)
    a.sign[0, a.k - 1] = 1
    assert a.nnz == 9 and a.entry(0, 1) == 1
    assert not check_support(a, PathPower(2, 2))
    readers = (a.entries, a.to_dense, lambda: square_identity_holds(a), lambda: write_matrix_market(a, io.StringIO()))
    for read in (*readers, lambda: principal_submatrix(a, VertexSet(2, 2, ranks=[0, 3]))):
        with pytest.raises(ValueError):
            read()


def _flip_one_direction(a):
    a.sign[0, a.k] *= -1  # the entry (0, 1); (1, 0) keeps its sign
    return "mirror"


def _value_two(a):
    _set(a, 0, 1, 2)
    _set(a, 1, 0, 2)
    return "values"


def _missing_edge(a):
    _set(a, 0, 1, 0)
    _set(a, 1, 0, 0)
    return "support"


def _absent_boundary_slot(a):
    a.sign[0, a.k - 1] = 1  # steps down from rank 0, off the grid
    return "support"


def _wrong_shape(a):
    a.sign = np.vstack((a.sign, np.zeros((1, 2 * a.k), dtype=np.int8)))
    return "shape"


@pytest.mark.parametrize("tamper", [_flip_one_direction, _value_two, _missing_edge, _absent_boundary_slot, _wrong_shape])
def test_support_rejects_tampered_arrays(tamper):
    a = signed_grid_matrix(3, 2)
    g = PathPower(3, 2)
    broken = tamper(a)
    # Each tamper breaks one clause and keeps the others, so the rejection
    # below can only come from the clause named.
    present = present_slots(3, 2)
    assert (broken == "shape") == (a.sign.shape != present.shape)
    if broken != "shape":
        assert (broken == "support") == (not np.array_equal(a.sign != 0, present))
    if broken in ("values", "mirror"):
        d = a.to_dense()
        assert (broken == "values") == (not np.all(np.abs(d[d != 0]) == 1))
        assert (broken == "mirror") == (not np.array_equal(d, d.T))
    assert a != signed_grid_matrix(3, 2)
    assert not check_support(a, g)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [2, 3])
def test_square_identity(m, k):
    assert square_identity_check(m, k)


@pytest.mark.parametrize("m,k", [(3, 3), (2, 3), (4, 2)])
@pytest.mark.parametrize("level", ["top", "previous"])
@pytest.mark.parametrize("both_ways", [True, False])
def test_square_identity_fails_with_one_sign_flipped(monkeypatch, m, k, level, both_ways):
    # The edge (r, r + 1) of row r = m^(j - 1) lies in the level-j slice of
    # the one table and outside every lower one: j = k for the top level,
    # k - 1 for the previous one.
    build = signed.signed_grid_matrix
    r = m ** (k - 1 if level == "top" else k - 2)

    def flipped(*args):
        a = build(*args)
        _set(a, r, r + 1, -a.entry(r, r + 1))
        if both_ways:
            _set(a, r + 1, r, -a.entry(r + 1, r))
        return a

    monkeypatch.setattr(signed, "signed_grid_matrix", flipped)
    assert not square_identity_check(m, k)


def test_square_identity_needs_k_two():
    with pytest.raises(ValueError):
        square_identity_check(4, 1)


def _edge_resigned(a: SignedMatrix, edges: set[int]) -> SignedMatrix:
    """a with edge e negated in both directions for each e in edges, the
    edges numbered as the set up slots, row-major."""
    m, k = a.m, a.k
    sign = a.sign.copy()
    rows, axes = np.nonzero(sign[:, k:])
    pick = np.isin(np.arange(len(rows)), list(edges))
    rows, axes = rows[pick], axes[pick]
    sign[rows, k + axes] *= -1
    sign[rows + m**axes, k - 1 - axes] *= -1
    return SignedMatrix(sign, a.m, k)


def _vertex_resigned(a: SignedMatrix, vertices: set[int]) -> SignedMatrix:
    """S a S for S = diag(+-1), -1 exactly at the given ranks."""
    m, k = a.m, a.k
    s = np.where(np.isin(np.arange(a.dim), list(vertices)), -1, 1).astype(np.int8)
    ends = np.where(present_slots(m, k), np.arange(a.dim)[:, None] + slot_steps(m, k), 0)
    return SignedMatrix(a.sign * s[:, None] * s[ends], a.m, k)


def _level(a: SignedMatrix, j: int) -> SignedMatrix:
    """Level j of a's table: its first m^j rows and inner 2j slots."""
    return SignedMatrix(a.sign[: a.m**j, a.k - j : a.k + j], a.m, j)


def _identity_levels(a: SignedMatrix) -> list[bool]:
    """square_identity_holds of each level j = 2..k of a's table."""
    return [square_identity_holds(_level(a, j)) for j in range(2, a.k + 1)]


def _literal_identity(a: SignedMatrix) -> list[bool]:
    """D_j @ D_j == I_m ⊗ D_(j-1) @ D_(j-1) + B @ B ⊗ I for j = 2..k, on the
    dense level slices D_j of a's table, B = D_1."""
    dense = [_level(a, j).to_dense() for j in range(1, a.k + 1)]
    b, eye = dense[0], lambda size: np.eye(size, dtype=np.int64)
    return [np.array_equal(d @ d, np.kron(eye(a.m), p @ p) + np.kron(b @ b, eye(len(p)))) for p, d in zip(dense, dense[1:])]


@st.composite
def _resignings(draw):
    m, k = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (6, 2)]))
    a = signed_grid_matrix(m, k)
    if draw(st.booleans()):
        return _vertex_resigned(a, draw(st.sets(st.integers(0, a.dim - 1))))
    return _edge_resigned(a, draw(st.sets(st.integers(0, a.nnz // 2 - 1))))


@settings(max_examples=300, deadline=None)
@given(_resignings())
def test_identity_levels_match_the_dense_identity(a):
    # The verdict of level j is the literal identity at every level up to j,
    # so the first failing level is the literal identity's.
    assert check_support(a, a.graph())
    literal = _literal_identity(a)
    assert _identity_levels(a) == np.logical_and.accumulate(literal).tolist()
    assert square_identity_holds(a) == all(literal)


def test_a_level_can_hold_literally_above_a_failing_level():
    # A(3) = [[C, I], [I, -C]] on [2]^3, with C the 4-cycle of sign product
    # +1: the identity fails at level 2 and holds literally at level 3, but
    # A(3)^2 is not the Kronecker sum of three copies of B^2.
    a = signed_grid_matrix(2, 3)
    a.sign = np.abs(a.sign)
    a.sign[4:, 1:5] *= -1  # the axis-0 and axis-1 slots of block 1
    assert check_support(a, a.graph())
    assert _literal_identity(a) == [False, True]
    assert _identity_levels(a) == [False, False]


@pytest.mark.parametrize("k", [2, 3, 6])
def test_a_vertex_resigning_of_the_hypercube_keeps_the_identity(k):
    # A^2 = kI, and S A S squares to S kI S = kI for every diagonal S of +-1.
    a = _vertex_resigned(signed_grid_matrix(2, k), set(range(0, 2**k, 3)))
    assert a != signed_grid_matrix(2, k) and check_support(a, a.graph())
    assert square_identity_holds(a) and all(_identity_levels(a))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_vertex_resigning_of_3_to_the_k_fails_the_line_clause(k):
    # Negating vertex 0 keeps every face's product but negates the link b_0,
    # so b_0 b_1 no longer matches the lines along axis 0 of the other rows.
    a = _vertex_resigned(signed_grid_matrix(3, k), {0})
    assert check_support(a, a.graph())
    assert not square_identity_holds(a) and not square_identity_holds(_level(a, 2))


@pytest.mark.parametrize("k", [2, 4])
def test_a_down_slot_flip_of_the_hypercube_fails_the_mirror_clause(k):
    # m = 2 has no line pair, and the face clause reads only the up slots,
    # which keep the builder's signs.
    a = signed_grid_matrix(2, k)
    a.sign[1, k - 1] *= -1  # the entry (1, 0); (0, 1) keeps its sign
    assert np.array_equal(a.sign[:, k:], signed_grid_matrix(2, k).sign[:, k:])
    assert not square_identity_holds(a) and not square_identity_holds(_level(a, 2))


def test_principal_submatrix_cases():
    a = signed_grid_matrix(3, 1)
    whole = principal_submatrix(a, VertexSet(3, 1, ranks=[0, 1, 2]))
    assert np.array_equal(whole, a.to_dense())
    single = principal_submatrix(a, VertexSet(3, 1, ranks=[1]))
    assert np.array_equal(single, np.zeros((1, 1), dtype=np.int64))
    pair = principal_submatrix(a, VertexSet(3, 1, ranks=[0, 1]))
    assert np.array_equal(pair, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        principal_submatrix(a, VertexSet(3, 1))


def test_matrix_market_roundtrip():
    a = signed_grid_matrix(4, 2)
    buf = io.StringIO()
    write_matrix_market(a, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer symmetric"
    assert lines[1] == "% pathpower m=4 k=2 parity=even2n"
    dim, dim2, nnz = (int(t) for t in lines[2].split())
    assert (dim, dim2) == (16, 16)
    assert nnz == a.nnz // 2 == len(lines) - 3
    i, j, v = (int(t) for t in lines[3].split())
    assert i > j >= 1 and v in (-1, 1)  # 1-based lower triangle
    back = read_matrix_market(io.StringIO(text))
    assert back.dim == a.dim
    assert back == a


@pytest.mark.parametrize("m,k", [(4, 2), (3, 3), (2, 6)])
def test_matrix_market_roundtrip_keeps_parameters(m, k):
    a = signed_grid_matrix(m, k)
    buf = io.StringIO()
    write_matrix_market(a, buf)
    back = read_matrix_market(io.StringIO(buf.getvalue()))
    assert (back.m, back.k, back.n, back.parity_tag) == (a.m, a.k, a.n, a.parity_tag)
    assert back == a
    g = back.graph()
    assert (g.m, g.k) == (m, k)
    assert check_support(back, g)


def test_a_signed_matrix_is_its_table_with_m_and_k():
    a = signed_grid_matrix(3, 2)
    assert SignedMatrix(a.sign.copy(), 3, 2) == a  # equal m, k and entries: equal matrices
    assert SignedMatrix(a.sign, 3, 1) != a
    b = signed_grid_matrix(6, 2)
    assert (a.parity_tag, b.parity_tag, b.n) == ("odd3", "even2n", 3)  # both follow from m
    for name in ("parity_tag", "n"):
        with pytest.raises(AttributeError):
            setattr(a, name, 7)


def test_matrix_market_rejects_missing_or_wrong_parameters():
    buf = io.StringIO()
    write_matrix_market(signed_grid_matrix(2, 6), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    with pytest.raises(ValueError):
        read_matrix_market(io.StringIO("".join(lines[:1] + lines[2:])))  # 64 = 2^6 = 4^3 = 8^2
    for wrong in ("m=4 k=2 parity=even2n", "m=3 k=3 parity=even2n", "m=8 k=2 parity=odd3"):
        text = "".join(lines[:1] + [f"% pathpower {wrong}\n"] + lines[2:])
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(text))


def test_matrix_market_rejects_a_truncated_file():
    buf = io.StringIO()
    write_matrix_market(signed_grid_matrix(4, 2), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert read_matrix_market(io.StringIO("".join(lines))).nnz == 48
    with pytest.raises(ValueError, match="19 entry lines, but the size line counts 24"):
        read_matrix_market(io.StringIO("".join(lines[:-5])))
    with pytest.raises(ValueError, match="25 entry lines, but the size line counts 24"):
        read_matrix_market(io.StringIO("".join(lines + ["1 2 1\n"])))


def test_matrix_market_rejects_out_of_range_index():
    buf = io.StringIO()
    write_matrix_market(signed_grid_matrix(2, 6), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for bad_entry in ("1 0 1\n", "65 1 1\n"):  # index 0 would wrap to the last row
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("".join(lines[:3] + [bad_entry] + lines[4:])))


def _written(a: SignedMatrix) -> str:
    buf = io.StringIO()
    write_matrix_market(a, buf)
    return buf.getvalue()


def _with_entries(m: int, k: int, edit) -> str:
    """The file of A(m, k) with its entry list, 1-based (i, j, v) triples,
    replaced by edit(entries) and the size line recounted."""
    lines = _written(signed_grid_matrix(m, k)).splitlines()
    entries = edit([tuple(int(t) for t in ln.split()) for ln in lines[3:]])
    dim = m**k
    return "\n".join(lines[:2] + [f"{dim} {dim} {len(entries)}"] + [f"{i} {j} {v}" for i, j, v in entries]) + "\n"


# Entries that no slot table can hold, or that the writer never writes, with
# the refusal each must meet.  The entries of [2]^2 are (2, 1), (3, 1),
# (4, 2) and (4, 3); of [3]^2, (2, 1), (3, 2), (4, 1), (5, 2), ...  Each edit
# keeps the rest of the file valid, and the order too where it is not the fault.
_NOT_AN_EDGE, _ORDER, _OUTSIDE, _VALUE = "not an edge", "writer's order", "outside", "not [+]-1"
_BAD_ENTRIES = {
    "extra-0-3": (2, 2, lambda e: e[:2] + [(4, 1, 1)] + e[2:], _NOT_AN_EDGE),  # ranks 0 and 3 differ in two coordinates
    "extra-0-2": (3, 2, lambda e: e[:1] + [(3, 1, 1)] + e[1:], _NOT_AN_EDGE),  # ranks 0 and 2 are two steps apart
    "across-a-carry": (3, 2, lambda e: e[:3] + [(4, 3, 1)] + e[3:], _NOT_AN_EDGE),  # ranks 2 and 3 differ by 1
    "self-loop": (2, 2, lambda e: [(1, 1, 1)] + e, _ORDER),
    "upper-triangle": (2, 2, lambda e: [(1, 2, 1)] + e[1:], _ORDER),
    "duplicated": (3, 2, lambda e: e[:1] + e[:1] + e[2:], _ORDER),  # the second edge is gone, the first listed twice
    "unsorted": (3, 2, lambda e: e[1:2] + e[:1] + e[2:], _ORDER),
    "reversed": (3, 2, lambda e: e[::-1], _ORDER),
    "negative-index": (2, 2, lambda e: e + [(2, -1, 1)], _OUTSIDE),
    "value-2": (2, 2, lambda e: [(2, 1, 2)] + e[1:], _VALUE),
    "value-0": (2, 2, lambda e: [(2, 1, 0)] + e[1:], _VALUE),
    "value-300": (2, 2, lambda e: [(2, 1, 300)] + e[1:], _VALUE),  # int8 would wrap it to 44
    "value-257": (2, 2, lambda e: [(2, 1, 257)] + e[1:], _VALUE),  # and this one to 1
    "value-2^70": (2, 2, lambda e: [(2, 1, 2**70)] + e[1:], "beyond int64"),
}


@pytest.mark.parametrize("case", list(_BAD_ENTRIES))
def test_matrix_market_refuses_bad_entries(case):
    m, k, edit, refusal = _BAD_ENTRIES[case]
    assert read_matrix_market(io.StringIO(_with_entries(m, k, lambda e: e))) == signed_grid_matrix(m, k)
    with pytest.raises(ValueError, match=refusal):
        read_matrix_market(io.StringIO(_with_entries(m, k, edit)))


def test_matrix_market_refuses_an_entry_line_without_three_integers():
    header = "%%MatrixMarket matrix coordinate integer symmetric\n% pathpower m=2 k=2 parity=even2n\n"
    assert read_matrix_market(io.StringIO(header + "4 4 4\n2 1 1\n3 1 1\n4 2 1\n4 3 -1\n")) == signed_grid_matrix(2, 2)
    # The four entries of [2]^2 on two lines, which the size line's count of 2 matches.
    for entries in ("4 4 2\n2 1 1 3 1 1\n4 2 1 4 3 -1\n", "4 4 4\n2 1 1\n3 1 1\n4 2\n1 4 3 -1\n"):
        with pytest.raises(ValueError, match="exactly three integers"):
            read_matrix_market(io.StringIO(header + entries))


_MM_BANNER = "%%MatrixMarket matrix coordinate integer symmetric\n"
_MM_PARAMS_2_2 = "% pathpower m=2 k=2 parity=even2n\n"
_MM_EDGES_2_2 = "2 1 1\n3 1 1\n4 2 1\n4 3 -1\n"  # the four edges of [2]^2


@pytest.mark.parametrize(
    "text,refusal",
    [
        ("%%MatrixMarket matrix coordinate real general\n" + _MM_PARAMS_2_2 + "4 4 4\n" + _MM_EDGES_2_2, "banner"),
        (_MM_PARAMS_2_2 + "4 4 4\n" + _MM_EDGES_2_2, "banner"),
        (_MM_BANNER + _MM_PARAMS_2_2 + "4 7 4\n" + _MM_EDGES_2_2, "4 rows but 7 columns"),
        (_MM_BANNER + _MM_PARAMS_2_2 + "4 4 5\n" + _MM_EDGES_2_2, "4 entry lines, but the size line counts 5"),
        (_MM_BANNER + _MM_PARAMS_2_2 + "4 4 3\n2 1 1\n3 1 1\n4 3 -1\n", r"3 entries, but \[2\]\^2 has 4 edges"),
    ],
    ids=["real-general-banner", "no-banner", "non-square-size", "miscounted-size", "missing-edge"],
)
def test_matrix_market_refuses_a_header_or_edge_count_the_writer_never_writes(text, refusal):
    written = _MM_BANNER + _MM_PARAMS_2_2 + "4 4 4\n" + _MM_EDGES_2_2
    assert read_matrix_market(io.StringIO(written)) == signed_grid_matrix(2, 2)
    with pytest.raises(ValueError, match=refusal):
        read_matrix_market(io.StringIO(text))


def test_matrix_market_refuses_a_grid_over_the_size_cap_or_no_size_line():
    text = "%%MatrixMarket matrix coordinate integer symmetric\n% pathpower m=2 k=40 parity=even2n\n"
    with pytest.raises(SizeCapError):  # before a 2^40-row table is allocated
        read_matrix_market(io.StringIO(text + f"{2**40} {2**40} 0\n"))
    with pytest.raises(ValueError, match="no size line"):
        read_matrix_market(io.StringIO(text))


def test_matrix_market_decides_the_cap_from_m_and_k_alone():
    # the header's m^k would have 56,000,001 digits; nothing of it is formed
    text = _MM_BANNER + f"% pathpower m={10**4000} k=14000 parity=even2n\n{2**14000} {2**14000} 0\n"
    start = time.perf_counter()
    with pytest.raises(SizeCapError) as exc:
        read_matrix_market(io.StringIO(text))
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == "[m]^k (m, k of 13288, 14 bits) has more than 65536 vertices, the size cap"


@st.composite
def _resigned_matrices(draw):
    """A(m, k) with every edge given a drawn sign, in both directions."""
    m = draw(st.sampled_from([2, 3, 4, 6]))
    k = draw(st.integers(1, {2: 6, 3: 4, 4: 3, 6: 2}[m]))
    a = signed_grid_matrix(m, k)
    rows, cols, _ = a.entries()
    lower = rows > cols
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=int(lower.sum()), max_size=int(lower.sum())))
    for i, j, v in zip(rows[lower].tolist(), cols[lower].tolist(), signs):
        _set(a, i, j, v)
        _set(a, j, i, v)
    return a


@settings(max_examples=40, deadline=None)
@given(_resigned_matrices())
def test_matrix_market_round_trip_of_any_signing(a):
    assert check_support(a, a.graph())
    back = read_matrix_market(io.StringIO(_written(a)))
    assert back == a and back.sign.dtype == np.int8


def _closed_form_edges(m: int, k: int) -> dict[tuple[int, int], int]:
    """Each edge (r, r + m^i) of [m]^k with its sign (-1)^(d_i + sum_{j>i} d_j),
    d the digits of the lower endpoint r (digit 0 least significant)."""
    edges = {}
    for r in range(m**k):
        digits = [(r // m**i) % m for i in range(k)]
        for i in range(k):
            if digits[i] < m - 1:
                edges[(r, r + m**i)] = (-1) ** sum(digits[i:])
    return edges


@pytest.mark.parametrize(
    "m,k", [(m, k) for m in (2, 3, 4, 6, 8) for k in range(1, 13) if m**k <= 4096]
)
def test_signs_match_closed_form(m, k):
    a = signed_grid_matrix(m, k)
    edges = _closed_form_edges(m, k)
    rows, cols, vals = a.entries()
    stored = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    assert a.nnz == len(stored) == 2 * len(edges)
    for (r, s), sign in edges.items():
        assert stored[(r, s)] == stored[(s, r)] == sign


def _kronecker_oracle(m: int, k: int) -> np.ndarray:
    """A(m, k) built literally as dense np.kron(D, A) + np.kron(B, I)."""
    b = np.zeros((m, m), dtype=np.int64)
    for i in range(m - 1):
        b[i, i + 1] = b[i + 1, i] = (-1) ** i
    d = np.diag([(-1) ** a for a in range(m)]).astype(np.int64)
    a = b
    for _ in range(k - 1):
        a = np.kron(d, a) + np.kron(b, np.eye(len(a), dtype=np.int64))
    return a


@pytest.mark.parametrize(
    "m,k", [(m, k) for m in (2, 3, 4, 6, 8, 16, 256) for k in range(1, 10) if m**k <= 512]
)
def test_builder_matches_the_dense_kronecker_recursion(m, k):
    a = signed_grid_matrix(m, k)
    assert a.sign.dtype == np.int8 and a.sign.shape == (m**k, 2 * k)
    rows, cols, _ = a.entries()
    assert np.all(np.diff(rows * a.dim + cols) > 0)
    assert np.array_equal(a.to_dense(), _kronecker_oracle(m, k))


def _flip(a: SignedMatrix, i: int, j: int) -> None:
    """Negate the stored entry (i, j) only."""
    _set(a, i, j, -a.entry(i, j))


@pytest.mark.parametrize("m,k", [(3, 3), (2, 5)])
def test_support_mirror_clause_covers_every_axis(m, k):
    g = PathPower(m, k)
    for i in range(k):
        r = (m - 2) * m**i  # digit i of r is m - 2, of s is m - 1: an edge along axis i
        s = r + m**i
        a = signed_grid_matrix(m, k)
        assert a.entry(r, s) != 0 and a.entry(s, r) != 0
        _flip(a, r, s)
        assert not check_support(a, g), (m, k, i)
        a = signed_grid_matrix(m, k)
        _flip(a, s, r)
        assert not check_support(a, g), (m, k, i)
        _flip(a, r, s)  # both directions flipped: a re-signing, still the grid's support
        assert a != signed_grid_matrix(m, k)
        assert check_support(a, g), (m, k, i)


def test_support_rejects_an_entry_across_a_digit_carry():
    a = signed_grid_matrix(3, 2)  # ranks 2 = (2, 0) and 3 = (0, 1) differ by 1 but are not adjacent
    for i, j in ((2, 3), (3, 2)):  # in the absent slots that step by 1, with its mirror
        _set(a, i, j, 1)
    assert a.entry(2, 3) == a.entry(3, 2) == 1
    assert not check_support(a, PathPower(3, 2))
    with pytest.raises(ValueError):
        square_identity_holds(a)  # a nonzero on an absent slot: the square would join non-neighbours


def test_build_and_support_check_do_not_sort(monkeypatch):
    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, lambda *args, _name=name, **kw: pytest.fail(f"np.{_name} called"))
    layout = signed.present_slots
    monkeypatch.setattr(signed, "present_slots", lambda m, k: pytest.fail("the builder read the check's layout"))
    built = [signed_grid_matrix(m, k) for m, k in ((2, 6), (3, 4), (4, 3), (256, 1))]
    monkeypatch.setattr(signed, "present_slots", layout)
    assert all(check_support(a, a.graph()) for a in built)
    assert all(square_identity_check(m, k) for m, k in ((2, 6), (3, 4)))
    for a in built:
        read_matrix_market(io.StringIO(_written(a)))
