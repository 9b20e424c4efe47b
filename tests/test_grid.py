"""Vertex ranking, adjacency, and induced-degree queries on [m]^k."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpower import (
    InvalidVertexError,
    PathPower,
    SizeCapError,
    VertexSet,
    alpha_formula,
    alternating_independent_set,
    hk_witness_set,
    induced_max_degree,
    low_degree_witness_set,
    signed_grid_matrix,
    theoretical_f_value,
)
from pathpower.grid import check_grid

G32 = PathPower(3, 2)


@pytest.mark.parametrize(
    "coords,rank",
    [((1, 1), 0), ((3, 1), 2), ((1, 2), 3), ((3, 3), 8), ((3, 2), 5)],
)
def test_rank_examples(coords, rank):
    assert G32.rank(coords) == rank
    assert G32.unrank(rank) == coords


def test_rank_rejects_bad_vertices():
    with pytest.raises(InvalidVertexError):
        G32.rank((0, 1))
    with pytest.raises(InvalidVertexError):
        G32.rank((1, 4))
    with pytest.raises(InvalidVertexError):
        G32.rank((1, 1, 1))
    with pytest.raises(InvalidVertexError):
        G32.unrank(9)
    with pytest.raises(InvalidVertexError):
        G32.unrank(-1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PathPower(1, 2)
    with pytest.raises(ValueError):
        PathPower(3, 0)
    with pytest.raises(SizeCapError):
        PathPower(10, 6, size_cap=65536)


@pytest.mark.parametrize(
    "build",
    [PathPower, alternating_independent_set, low_degree_witness_set, hk_witness_set, signed_grid_matrix],
    ids=["grid", "vk", "xk", "hk", "signed"],
)
def test_every_builder_validates_the_grid_by_check_grid(build):
    m = 3 if build is low_degree_witness_set else 2
    assert check_grid(m, 4, m**4) == m**4
    with pytest.raises(ValueError, match="k >= 1"):
        build(m, 0)
    with pytest.raises(SizeCapError, match=f"m\\^k = {m**4} exceeds the size cap {m**4 - 1}"):
        build(m, 4, size_cap=m**4 - 1)
    if build is not low_degree_witness_set:  # which refuses m < 3 by its parity rule
        with pytest.raises(ValueError, match="m >= 2"):
            build(0, 2)


@pytest.mark.parametrize("value", [alpha_formula, theoretical_f_value], ids=["alpha", "f"])
def test_closed_forms_validate_by_check_grid_with_no_cap(monkeypatch, value):
    module = sys.modules[value.__module__]
    caps = []
    monkeypatch.setattr(module, "check_grid", lambda m, k, cap: caps.append(cap) or check_grid(m, k, cap))
    value(3, 11)  # 177,147 vertices, past the grid size cap
    assert caps == [math.inf]
    with pytest.raises(ValueError, match="k >= 1"):
        value(3, 0)
    with pytest.raises(ValueError, match="m >= 2"):
        value(1, 2)


def test_adjacency_examples():
    assert G32.adjacent((1, 1), (1, 2))
    assert not G32.adjacent((1, 1), (1, 1))
    assert not G32.adjacent((1, 1), (2, 2))
    with pytest.raises(InvalidVertexError):
        G32.adjacent((1, 1), (1, 1, 1))


def test_neighbors_sorted_by_rank():
    assert G32.neighbors((1, 1)) == [(2, 1), (1, 2)]
    assert G32.neighbors((2, 2)) == [(2, 1), (1, 2), (3, 2), (2, 3)]
    assert G32.neighbors((1, 2)) == [(1, 1), (2, 2), (1, 3)]


def test_neighbor_ranks_agree_with_neighbors():
    for r in range(G32.n_vertices):
        via_coords = [G32.rank(v) for v in G32.neighbors(G32.unrank(r))]
        assert G32.neighbor_ranks(r) == via_coords


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_rank_unrank_roundtrip(m, k, data):
    g = PathPower(m, k)
    r = data.draw(st.integers(min_value=0, max_value=g.n_vertices - 1))
    assert g.rank(g.unrank(r)) == r
    v = tuple(data.draw(st.integers(min_value=1, max_value=m)) for _ in range(k))
    assert g.unrank(g.rank(v)) == v


@pytest.mark.parametrize("m,k", [(2, 3), (3, 2), (4, 2), (5, 1), (3, 3)])
def test_degree_sum_matches_edge_count(m, k):
    g = PathPower(m, k)
    total = sum(len(g.neighbor_ranks(r)) for r in range(g.n_vertices))
    assert total == 2 * g.edge_count
    assert g.edge_count == k * (m - 1) * m ** (k - 1)


@pytest.mark.parametrize("m,k", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_adjacency_symmetric_irreflexive_bipartite(m, k):
    g = PathPower(m, k)
    for r in range(g.n_vertices):
        u = g.unrank(r)
        assert not g.adjacent(u, u)
        for s in g.neighbor_ranks(r):
            v = g.unrank(s)
            assert g.adjacent(u, v) and g.adjacent(v, u)
            # every edge joins opposite parities of the coordinate sum
            assert (sum(u) + sum(v)) % 2 == 1


def test_induced_max_degree_examples():
    p3 = PathPower(3, 1)
    whole = VertexSet(3, 1, ranks=range(3))
    assert induced_max_degree(whole, p3) == 2
    ends = VertexSet(3, 1, ranks=[0, 2])
    assert induced_max_degree(ends, p3) == 0
    all32 = VertexSet(3, 2, ranks=range(9))
    assert induced_max_degree(all32, G32) == 4
    with pytest.raises(ValueError):
        induced_max_degree(VertexSet(3, 1), p3)
    with pytest.raises(SizeCapError):
        induced_max_degree(VertexSet(2, 17, ranks=[0]))


def _naive_induced_max_degree(s: VertexSet, g: PathPower) -> int:
    return max(sum(nb in s for nb in g.neighbor_ranks(r)) for r in s)


@st.composite
def _grid_and_set(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    k = draw(st.integers(min_value=1, max_value=6))
    k = min(k, max(1, int(math.log(700, m))))  # keep m^k small enough for the naive count
    n = m**k
    kind = draw(st.sampled_from(["random", "singleton", "full", "word-boundary"]))
    if kind == "singleton":
        ranks = [draw(st.integers(min_value=0, max_value=n - 1))]
    elif kind == "full":
        ranks = list(range(n))
    elif kind == "word-boundary" and n > 64:
        # ranks just below and above multiples of 64, where bitset words meet
        cuts = draw(st.lists(st.sampled_from(range(64, n, 64)), min_size=1))
        ranks = sorted({r for c in cuts for r in range(c - 3, min(c + 3, n))})
    else:
        ranks = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
    return m, k, ranks


@settings(max_examples=300, deadline=None)
@given(_grid_and_set())
def test_induced_max_degree_matches_naive_count(case):
    m, k, ranks = case
    g = PathPower(m, k)
    s = VertexSet(m, k, ranks=ranks)
    assert induced_max_degree(s, g) == induced_max_degree(s) == _naive_induced_max_degree(s, g)
    if len(s) == 1:
        assert induced_max_degree(s, g) == 0
    if len(s) == g.n_vertices:
        assert induced_max_degree(s, g) == (2 * k if m >= 3 else k)


def test_vertex_set_basics():
    s = VertexSet(3, 2)
    assert len(s) == 0
    s.add(4)
    s.add(7)
    s.add(4)
    assert len(s) == 2
    assert 4 in s and 7 in s and 5 not in s
    assert s.ranks() == [4, 7]
    s.discard(4)
    assert s.ranks() == [7]
    with pytest.raises(InvalidVertexError):
        s.add(9)
    with pytest.raises(InvalidVertexError):
        VertexSet(3, 2, bits=1 << 9)


def test_vertex_set_complement_and_copy():
    s = VertexSet(2, 2, ranks=[0, 3])
    c = s.complement()
    assert c.ranks() == [1, 2]
    assert s.copy() == s and s.copy() is not s
    assert s != c


def test_vertex_set_json_roundtrip():
    s = VertexSet(3, 2, ranks=[0, 2, 8])
    doc = json.loads(json.dumps(s.to_dict()))
    assert doc == {"m": 3, "k": 2, "ranks": [0, 2, 8]}
    assert VertexSet.from_dict(doc) == s
