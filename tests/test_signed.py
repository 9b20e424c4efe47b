"""Structure of the recursive signed matrices."""

import io

import numpy as np
import pytest

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
from pathpower.signed import _sparse_square


def _mirror(a: SignedMatrix, p: int) -> int:
    """Storage position of the transpose of entry p."""
    return int(np.flatnonzero((a.rows == a.cols[p]) & (a.cols == a.rows[p]))[0])


def _keep(a: SignedMatrix, keep: np.ndarray) -> None:
    a.rows, a.cols, a.vals = a.rows[keep], a.cols[keep], a.vals[keep]


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
    assert np.all(np.abs(a.vals) == 1)
    assert all(a.entry(j, i) == v for i, j, v in zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist()))


def test_support_detects_tampering():
    a = signed_grid_matrix(3, 2)
    g = PathPower(3, 2)
    keep = np.ones(a.nnz, dtype=bool)
    keep[[0, _mirror(a, 0)]] = False  # drop one edge in both directions
    _keep(a, keep)
    assert not check_support(a, g)
    with pytest.raises(DimensionMismatchError):
        check_support(signed_grid_matrix(3, 1), g)


def test_support_detects_extra_entry():
    a = signed_grid_matrix(2, 2)
    for i, j in ((0, 3), (3, 0)):  # inserted where they sort, so only the extra key is wrong
        p = int(np.searchsorted(a.keys(), i * a.dim + j))
        a.rows, a.cols, a.vals = np.insert(a.rows, p, i), np.insert(a.cols, p, j), np.insert(a.vals, p, 1)
    assert np.all(np.diff(a.keys()) > 0) and np.all(np.abs(a.vals) == 1)
    assert not check_support(a, PathPower(2, 2))


def _flip_one_direction(a):
    a.vals[0] = -a.vals[0]
    return "symmetry"


def _value_two(a):
    a.vals[[0, _mirror(a, 0)]] = 2
    return "values"


def _duplicate_for_missing(a):
    a.rows[1], a.cols[1] = a.rows[0], a.cols[0]  # key 1 is gone, key 0 is stored twice
    return "keys"


def _unsorted(a):
    order = np.arange(a.nnz)
    order[[0, 1]] = [1, 0]
    _keep(a, order)
    return "order"


@pytest.mark.parametrize("tamper", [_flip_one_direction, _value_two, _duplicate_for_missing, _unsorted])
def test_support_rejects_tampered_arrays(tamper):
    a = signed_grid_matrix(3, 2)
    g = PathPower(3, 2)
    good = set(zip(a.keys().tolist(), a.vals.tolist()))
    broken = tamper(a)
    keys = a.keys()
    # Each tamper breaks one property and keeps the others, so the rejection
    # below can only come from the property named.
    assert (broken == "keys") == (set(keys.tolist()) != {k for k, _ in good})
    assert (broken == "values") == (not np.all(np.abs(a.vals) == 1))
    assert (broken == "order") == (not np.all(np.diff(keys) >= 0))
    if broken == "order":
        assert set(zip(keys.tolist(), a.vals.tolist())) == good
    assert a != signed_grid_matrix(3, 2)
    assert not check_support(a, g)


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
    with pytest.raises(ValueError):
        read_matrix_market(io.StringIO("".join(lines[:-5])))
    with pytest.raises(ValueError):
        read_matrix_market(io.StringIO("".join(lines + ["1 2 1\n"])))


def test_matrix_market_rejects_out_of_range_index():
    buf = io.StringIO()
    write_matrix_market(signed_grid_matrix(2, 6), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for bad_entry in ("1 0 1\n", "65 1 1\n"):  # index 0 would wrap to the last row
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("".join(lines[:3] + [bad_entry] + lines[4:])))


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
    stored = dict(zip(zip(a.rows.tolist(), a.cols.tolist()), a.vals.tolist()))
    assert a.nnz == len(stored) == 2 * len(edges)
    for (r, s), sign in edges.items():
        assert stored[(r, s)] == stored[(s, r)] == sign


def _square_as_dict(a: SignedMatrix) -> dict[int, int]:
    keys, vals = _sparse_square(a)
    assert np.all(np.diff(keys) > 0) and np.all(vals != 0)
    return dict(zip(keys.tolist(), vals.tolist()))


# numpy's integer matmul does not use BLAS (a 1024-dim product takes seconds),
# so the dense int64 oracle stops at 512; the scipy test covers larger sizes.
@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (2, 5), (3, 5), (4, 4), (6, 3), (2, 9), (8, 3)])
def test_sparse_square_matches_dense_product(m, k):
    a = signed_grid_matrix(m, k)
    d = a.to_dense()
    want = d @ d
    nz = np.flatnonzero(want)
    assert _square_as_dict(a) == dict(zip(nz.tolist(), want.ravel()[nz].tolist()))


@pytest.mark.parametrize("m,k", [(3, 8), (2, 12)])
def test_sparse_square_matches_scipy(m, k):
    sparse = pytest.importorskip("scipy.sparse")
    a = signed_grid_matrix(m, k)
    sq = sparse.csr_matrix((a.vals, (a.rows, a.cols)), shape=(a.dim, a.dim), dtype=np.int64)
    sq = (sq @ sq).tocoo()
    want = {int(i) * a.dim + int(j): int(v) for i, j, v in zip(sq.row, sq.col, sq.data) if v}
    assert _square_as_dict(a) == want


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
    assert a.rows.dtype == a.cols.dtype == a.vals.dtype == np.int64
    assert np.all(np.diff(a.keys()) > 0)
    assert np.array_equal(a.to_dense(), _kronecker_oracle(m, k))


def _flip(a: SignedMatrix, i: int, j: int) -> None:
    """Negate the stored entry (i, j) only."""
    a.vals[int(np.searchsorted(a.keys(), i * a.dim + j))] *= -1


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
    for i, j in ((2, 3), (3, 2)):  # inserted where they sort, with its mirror
        p = int(np.searchsorted(a.keys(), i * a.dim + j))
        a.rows, a.cols, a.vals = np.insert(a.rows, p, i), np.insert(a.cols, p, j), np.insert(a.vals, p, 1)
    assert np.all(np.diff(a.keys()) > 0) and np.all(np.abs(a.vals) == 1)
    assert a.entry(2, 3) == a.entry(3, 2) == 1
    assert not check_support(a, PathPower(3, 2))


def test_build_and_support_check_do_not_sort(monkeypatch):
    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, lambda *args, _name=name, **kw: pytest.fail(f"np.{_name} called"))
    layout = signed._grid_slots
    monkeypatch.setattr(signed, "_grid_slots", lambda g: pytest.fail("the builder read the check's layout"))
    built = [signed_grid_matrix(m, k) for m, k in ((2, 6), (3, 4), (4, 3), (256, 1))]
    monkeypatch.setattr(signed, "_grid_slots", layout)
    assert all(check_support(a, a.graph()) for a in built)
