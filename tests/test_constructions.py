"""The alternating independent sets and the low-degree witness sets."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathpower import (
    CertificateError,
    PathPower,
    SizeCapError,
    VertexSet,
    alpha_formula,
    alternating_independent_set,
    append_coordinate,
    build_construction,
    constructions,
    hk_witness_set,
    induced_max_degree,
    is_independent,
    low_degree_witness_set,
)


def test_append_coordinate_examples():
    s = VertexSet(3, 1, ranks=[0, 2])  # path vertices 1 and 3
    lifted = append_coordinate(s, 2)
    g = PathPower(3, 2)
    assert sorted(g.unrank(r) for r in lifted) == [(1, 2), (3, 2)]
    assert len(lifted) == len(s)
    assert append_coordinate(VertexSet(3, 1), 1).ranks() == []
    with pytest.raises(ValueError):
        append_coordinate(s, 4)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_append_coordinate_preserves_independence(m, k, data):
    g = PathPower(m, k)
    # greedily thin a random subset into an independent set
    picks = data.draw(st.sets(st.integers(min_value=0, max_value=g.n_vertices - 1)))
    a = data.draw(st.integers(min_value=1, max_value=m))
    s = VertexSet(m, k)
    for r in sorted(picks):
        if all(nb not in s for nb in g.neighbor_ranks(r)):
            s.add(r)
    assert is_independent(s, g)
    assert is_independent(append_coordinate(s, a))


def test_alternating_set_seed():
    assert alternating_independent_set(3, 1).ranks() == [0, 2]
    assert alternating_independent_set(2, 1).ranks() == [0]


def test_alternating_set_hypercube_parity_class():
    s = alternating_independent_set(2, 3)
    g = PathPower(2, 3)
    assert len(s) == 4
    for r in s:
        weight = sum(c - 1 for c in g.unrank(r))
        assert weight % 2 == 0


@pytest.mark.parametrize(
    "m,k", [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (6, 1), (7, 1)]
)
def test_alternating_set_size_and_independence(m, k):
    s = alternating_independent_set(m, k)
    g = PathPower(m, k)
    assert len(s) == alpha_formula(m, k) == (m**k + 1) // 2
    assert is_independent(s, g)
    c = s.complement()
    assert len(c) == m**k // 2
    assert is_independent(c, g)


@pytest.mark.parametrize("m,k,expected", [(3, 2, 5), (2, 4, 8), (5, 2, 13)])
def test_alpha_formula_values(m, k, expected):
    assert alpha_formula(m, k) == expected


def test_witness_seed_cases():
    x = low_degree_witness_set(3, 1)
    assert x.ranks() == [0, 1, 2]  # the whole 3-vertex path
    assert induced_max_degree(x) == 2
    x5 = low_degree_witness_set(5, 1)
    assert x5.ranks() == [0, 1, 3, 4]
    assert len(x5) == alpha_formula(5, 1) + 1
    assert induced_max_degree(x5) == 1


def test_witness_three_squared():
    x = low_degree_witness_set(3, 2)
    assert len(x) == 6 == alpha_formula(3, 2) + 1
    assert induced_max_degree(x) == 2


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_witness_size_and_degree_rule(m, k):
    x = low_degree_witness_set(m, k)
    assert len(x) == alpha_formula(m, k) + 1
    assert induced_max_degree(x) == (2 if m == 3 else 1)


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_witness_complement_has_equal_degree(m, k):
    # both halves of the split induce the same maximum degree once k >= 2
    x = build_construction("xk", m, k)
    xc = build_construction("xkc", m, k)
    assert induced_max_degree(x) == induced_max_degree(xc)


def test_witness_rejects_even_or_short_paths():
    with pytest.raises(ValueError):
        low_degree_witness_set(4, 2)
    with pytest.raises(ValueError):
        low_degree_witness_set(1, 2)


def test_is_independent_cases():
    assert is_independent(alternating_independent_set(3, 3))
    assert not is_independent(low_degree_witness_set(5, 1))
    assert is_independent(VertexSet(3, 2, ranks=[4]))
    assert is_independent(VertexSet(3, 2))


def test_build_construction_kinds():
    assert build_construction("vk", 3, 2) == alternating_independent_set(3, 2)
    assert build_construction("vkc", 3, 2) == alternating_independent_set(3, 2).complement()
    assert build_construction("xk", 5, 1) == low_degree_witness_set(5, 1)
    assert build_construction("hk", 4, 2) == hk_witness_set(4, 2)
    with pytest.raises(ValueError):
        build_construction("yk", 3, 2)


def _naive_max_degree(s):
    """Induced maximum degree by one membership test per neighbour."""
    g = PathPower(s.m, s.k)
    return max(sum(nb in s for nb in g.neighbor_ranks(r)) for r in s)


@pytest.mark.parametrize(
    "m,k",
    [(2, k) for k in range(1, 17)]
    + [(4, k) for k in range(1, 9)]
    + [(6, 1), (6, 3), (6, 4), (6, 6), (8, 2), (8, 4), (10, 2), (16, 2), (16, 4)],
)
def test_hk_witness_meets_the_hypercube_floor(m, k):
    h = hk_witness_set(m, k)
    assert len(h) == alpha_formula(m, k) + 1
    assert induced_max_degree(h) == math.isqrt(k - 1) + 1


@pytest.mark.parametrize("m,k", [(4, 4), (2, 7), (6, 3), (4, 5)])
def test_hk_witness_degree_by_neighbour_count(m, k):
    h = hk_witness_set(m, k)
    assert _naive_max_degree(h) == induced_max_degree(h) == math.isqrt(k - 1) + 1


_EVEN_SMALL = [(m, k) for m in range(2, 17, 2) for k in range(1, 13) if m**k <= 4096]


@pytest.mark.parametrize("m,k", _EVEN_SMALL)
def test_hk_witness_is_alpha_plus_one_by_the_cfgs_identity(m, k):
    # the larger side of H is built whole: nothing is cut to reach alpha + 1
    assert len(hk_witness_set(m, k)) == alpha_formula(m, k) + 1 == m**k // 2 + 1


@pytest.mark.parametrize("m,k", [(2, 1), (2, 6), (4, 3), (10, 2), (16, 2)])
def test_hk_witness_of_a_g_without_full_degree_is_refused(monkeypatch, m, k):
    # without coordinate 0, g's signed sum over the cube is 0, so |H| = m^k / 2
    sqrt_blocks = constructions.sqrt_blocks

    def dropped(k):
        blocks = sqrt_blocks(k)
        blocks[0].remove(0)
        return blocks

    monkeypatch.setattr(constructions, "sqrt_blocks", dropped)
    with pytest.raises(CertificateError, match=f"{m**k // 2} members"):
        hk_witness_set(m, k)


def test_hk_witness_rejects_odd_paths_and_the_size_cap():
    with pytest.raises(ValueError):
        hk_witness_set(3, 2)
    with pytest.raises(ValueError):
        hk_witness_set(2, 0)
    with pytest.raises(SizeCapError):
        hk_witness_set(2, 17)
