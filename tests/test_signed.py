"""Structure of the recursive signed matrices."""

import io

import numpy as np
import pytest

from pathpower import (
    DimensionMismatchError,
    PathPower,
    SizeCapError,
    VertexSet,
    check_support,
    principal_submatrix,
    read_matrix_market,
    signed_grid_matrix,
    square_identity_check,
    write_matrix_market,
)


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
    with pytest.raises(SizeCapError):
        signed_grid_matrix(3, 4, size_cap=27)


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
    assert all(v in (-1, 1) for v in a.entries.values())
    assert all(a.entry(j, i) == v for (i, j), v in a.entries.items())


def test_support_detects_tampering():
    a = signed_grid_matrix(3, 2)
    g = PathPower(3, 2)
    key = next(iter(a.entries))
    a.entries.pop(key)
    a.entries.pop((key[1], key[0]))
    assert not check_support(a, g)
    with pytest.raises(DimensionMismatchError):
        check_support(signed_grid_matrix(3, 1), g)


def test_support_detects_extra_entry():
    a = signed_grid_matrix(2, 2)
    a.entries[(0, 3)] = 1
    a.entries[(3, 0)] = 1
    assert not check_support(a, PathPower(2, 2))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [2, 3])
def test_square_identity(m, k):
    assert square_identity_check(m, k)


def test_square_identity_needs_k_two():
    with pytest.raises(ValueError):
        square_identity_check(4, 1)


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
    assert back.entries == a.entries


@pytest.mark.parametrize("m,k", [(4, 2), (3, 3), (2, 6)])
def test_matrix_market_roundtrip_keeps_parameters(m, k):
    a = signed_grid_matrix(m, k)
    buf = io.StringIO()
    write_matrix_market(a, buf)
    back = read_matrix_market(io.StringIO(buf.getvalue()))
    assert (back.m, back.k, back.n, back.parity_tag) == (a.m, a.k, a.n, a.parity_tag)
    assert back.entries == a.entries
    g = back.graph()
    assert (g.m, g.k) == (m, k)
    assert check_support(back, g)


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
