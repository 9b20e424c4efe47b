"""Vertex ranking, adjacency, and induced-degree queries on [m]^k."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpower import (
    DimensionMismatchError,
    InvalidVertexError,
    PathPower,
    SignedMatrix,
    SizeCapError,
    VertexSet,
    alpha_formula,
    alternating_independent_set,
    closed_form_spectrum,
    hk_witness_set,
    induced_max_degree,
    low_degree_witness_set,
    signed_grid_matrix,
    signed_spectra,
    theoretical_f_value,
)
from pathpower import constructions, grid, search
from pathpower.grid import DEFAULT_SIZE_CAP, check_grid, digits, present_slots, slot_steps

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


AT_CAP = [(2, 16), (4, 8), (16, 4), (256, 2)]  # exactly DEFAULT_SIZE_CAP = 65,536 vertices
OVER_CAP = [(2, 17), (3, 11), (4, 9), (65537, 1)]  # just over it; 65,537 is prime, so only [65537]^1 has 65,537


def test_constructor_validation():
    with pytest.raises(ValueError):
        PathPower(1, 2)
    with pytest.raises(ValueError):
        PathPower(3, 0)
    for m, k in OVER_CAP:
        with pytest.raises(SizeCapError, match=rf"\[{m}\]\^{k} has more than 65536 vertices"):
            PathPower(m, k)
    for m, k in AT_CAP:
        assert PathPower(m, k).n_vertices == DEFAULT_SIZE_CAP


@pytest.mark.parametrize(
    "build,over,at",
    [
        (PathPower, OVER_CAP, AT_CAP),
        (alternating_independent_set, OVER_CAP, AT_CAP),
        (low_degree_witness_set, [(3, 11), (65537, 1)], [(3, 10), (65535, 1)]),  # odd m never meets the cap exactly
        (hk_witness_set, [(2, 17), (4, 9)], AT_CAP),  # even m only
        (signed_grid_matrix, [(2, 17), (3, 11), (4, 9)], AT_CAP),  # m = 3 or even m
    ],
    ids=["grid", "vk", "xk", "hk", "signed"],
)
def test_every_builder_validates_the_grid_by_check_grid(build, over, at):
    m = 3 if build is low_degree_witness_set else 2
    assert check_grid(m, 4, m**4) == m**4
    with pytest.raises(ValueError, match="k >= 1"):
        build(m, 0)
    for m, k in over:
        with pytest.raises(SizeCapError, match=rf"^\[{m}\]\^{k} has more than 65536 vertices, the size cap$"):
            build(m, k)
    for m, k in at:
        built = build(m, k)
        assert (built.m, built.k) == (m, k)
    if build is not low_degree_witness_set:  # which refuses m < 3 by its parity rule
        with pytest.raises(ValueError, match="m >= 2"):
            build(0, 2)


@pytest.mark.parametrize(
    "value,module", [(alpha_formula, constructions), (theoretical_f_value, search)], ids=["alpha", "f"]
)
def test_closed_forms_validate_by_check_grid_with_no_cap(monkeypatch, value, module):
    # theoretical_f_value reads its floor from (m, k), checked with no cap;
    # the paths P_m that its level-1 certificates build are checked at k = 1
    calls = []
    monkeypatch.setattr(module, "check_grid", lambda m, k, cap: calls.append((k, cap)) or check_grid(m, k, cap))
    value(3, 11)  # 177,147 vertices, past the grid size cap
    assert [cap for k, cap in calls if k == 11] == [math.inf]
    with pytest.raises(ValueError, match="k >= 1"):
        value(3, 0)
    with pytest.raises(ValueError, match="m >= 2"):
        value(1, 2)


@pytest.mark.parametrize("cap", [1, 2, 7, 8, 9, 4096, 65535, 65536, 65537, 2**40])
def test_check_grid_refuses_exactly_the_grids_over_a_finite_cap(cap):
    for m in range(2, 70):
        for k in range(1, 45):
            if m**k <= cap:
                assert check_grid(m, k, cap) == m**k
            else:
                with pytest.raises(SizeCapError):
                    check_grid(m, k, cap)
    assert check_grid(cap + 1, 1, math.inf) == cap + 1
    with pytest.raises(SizeCapError):
        check_grid(cap + 1, 1, cap)


@pytest.mark.parametrize(
    "build,m,k",
    [(PathPower, 3, 10**5), (PathPower, 2, 10**6), (signed_grid_matrix, 2, 10**6), (closed_form_spectrum, 3, 10**5)],
)
def test_a_refusal_never_forms_m_to_the_k(build, m, k):
    # m^k has over 4,300 digits, the longest int that str() prints: a message
    # that printed it would raise a plain ValueError, and forming it takes time
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(SizeCapError) as exc:
            build(m, k)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert len(str(exc.value)) < 100 and f"[{m}]^{k}" in str(exc.value)


def test_a_refusal_names_a_huge_grid_by_bit_lengths():
    with pytest.raises(SizeCapError, match=r"^\[<13288-bit int>\]\^10000 has more than 65536 vertices, the size cap$"):
        PathPower(10**4000, 10**4)
    with pytest.raises(SizeCapError, match=r"^\[3\]\^18446744073709551615 has more than"):
        PathPower(3, 2**64 - 1)
    with pytest.raises(SizeCapError, match=r"^\[3\]\^<65-bit int> has more than"):
        PathPower(3, 2**64)


def test_from_dict_checks_the_grid_before_any_rank():
    doc = VertexSet(3, 2, ranks=[0, 4]).to_dict()
    assert VertexSet.from_dict(json.loads(json.dumps(doc))) == VertexSet(3, 2, ranks=[0, 4])
    with pytest.raises(ValueError, match="m >= 2"):
        VertexSet.from_dict({"m": 1, "k": 3, "ranks": [0]})
    with pytest.raises(ValueError, match="k >= 1"):
        VertexSet.from_dict({"m": 3, "k": 0, "ranks": []})
    start = time.perf_counter()
    with pytest.raises(SizeCapError):
        VertexSet.from_dict({"m": 10, "k": 10**7, "ranks": [0]})
    assert time.perf_counter() - start < 0.01
    with pytest.raises(SizeCapError):
        VertexSet.from_dict({"m": 2, "k": 17, "ranks": [0]})
    assert len(VertexSet.from_dict({"m": 2, "k": 16, "ranks": [65535]})) == 1


@pytest.mark.parametrize(
    "doc",
    [{"m": "9" * 5000, "k": 2, "ranks": []}, {"m": 3, "k": "9" * 5000, "ranks": []}, {"m": 3, "k": 2, "ranks": ["9" * 5000]}],
    ids=["m", "k", "rank"],
)
def test_from_dict_refuses_a_number_too_long_for_int_in_a_short_message(doc):
    # int() of a str of over 4,300 digits raises the interpreter's own
    # 140-character message
    with pytest.raises(ValueError, match=r"^(m|k|a rank) has 5000 characters, too many for any valid value$"):
        VertexSet.from_dict(doc)
    with pytest.raises(SizeCapError, match=r"^\[<14285-bit int>\]\^1 has more than"):
        VertexSet.from_dict({"m": "9" * 4300, "k": 1, "ranks": []})  # int() reads it, and the cap refuses it


_HUGE_RANK = 10**5000


@pytest.mark.parametrize(
    "call",
    [
        lambda: VertexSet(3, 2, ranks=[_HUGE_RANK]),
        lambda: PathPower(3, 2).unrank(_HUGE_RANK),
        lambda: PathPower(3, 2).neighbor_ranks(-_HUGE_RANK),
    ],
    ids=["VertexSet", "unrank", "neighbor_ranks"],
)
def test_a_rank_refusal_names_a_huge_rank_by_its_bit_length(call):
    with pytest.raises(InvalidVertexError, match=r"^rank <(negative )?16610-bit int> outside 0\.\.8$"):
        call()


def _no_rank_read():
    raise AssertionError("a rank was read before the grid was checked")
    yield


def _table(m, k):
    return SignedMatrix(np.zeros((1, 2), dtype=np.int8), m, k)


REFUSING = {
    "PathPower": PathPower,
    "VertexSet": VertexSet,
    "VertexSet.from_dict": lambda m, k: VertexSet.from_dict({"m": m, "k": k, "ranks": _no_rank_read()}),
    "SignedMatrix": _table,
    "signed_grid_matrix": signed_grid_matrix,
    "low_degree_witness_set": low_degree_witness_set,
    "hk_witness_set": hk_witness_set,
    "closed_form_spectrum": closed_form_spectrum,
    "signed_spectra": lambda m, k: signed_spectra(_table(m, k)),
}
BAD_GRIDS = {
    "1,3": (1, 3),
    "-4,2": (-4, 2),
    "3,0": (3, 0),
    "10^5000": (10**5000, 1),
    "-10^5000": (-(10**5000), 1),
    "10^5000+1": (10**5000 + 1, 1),
    "-10^5000-1": (-(10**5000) - 1, 1),
    "10,10^7": (10, 10**7),
}


@pytest.mark.parametrize("grid_mk", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
@pytest.mark.parametrize("entry", REFUSING.values(), ids=REFUSING.keys())
def test_every_entry_point_refuses_a_bad_grid_at_once_in_a_short_message(entry, grid_mk):
    # an m of 16,610 bits has over 4,300 digits, the longest int that str()
    # prints: a message that printed it would raise the interpreter's own
    # ValueError, whose text is longer than 100 characters
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:  # SizeCapError is a ValueError too
            entry(*grid_mk)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize(
    "v,label",
    [
        (0, "0"),
        (-5, "-5"),
        (2**64 - 1, "18446744073709551615"),
        (2**64, "<65-bit int>"),
        (-(2**64), "<negative 65-bit int>"),
    ],
)
def test_int_label_names_a_value_of_64_bits_or_more_by_its_bit_length(v, label):
    assert grid.int_label(v) == label


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


@st.composite
def _grid_and_stack(draw):
    m, k, first = draw(_grid_and_set())
    rest = draw(st.lists(st.sets(st.integers(0, m**k - 1), min_size=1), max_size=8))
    return m, k, [first, *rest]


@settings(max_examples=200, deadline=None)
@given(_grid_and_stack())
def test_lane_degrees_match_each_set(case):
    m, k, rank_sets = case
    g = PathPower(m, k)
    sets = [VertexSet(m, k, ranks=r) for r in rank_sets]
    degrees = grid.induced_max_degrees(sets, g)
    assert degrees.dtype == np.int64
    assert degrees.tolist() == grid.induced_max_degrees(sets).tolist() == [induced_max_degree(s, g) for s in sets]


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (2, 4), (3, 2), (4, 2), (3, 3), (7, 2)])
def test_no_count_carries_from_one_lane_into_the_next(m, k):
    # Rank n - 1 has every coordinate at m - 1, so no up neighbour.  Lanes
    # lie n bits apart, so on axis i a count that crossed the lane boundary
    # would join rank n - 1 of one lane to rank m^i - 1 of the next.
    n = m**k
    g = PathPower(m, k)
    top = VertexSet(m, k, ranks=[n - 1])
    lows = VertexSet(m, k, ranks=[m**i - 1 for i in range(k)])
    both = VertexSet(m, k, ranks=[n - 1, *lows])
    full = VertexSet(m, k, ranks=range(n))
    for stack in ([top, lows] * 3, [both] * 4, [full] * 3, [lows, top, full, top]):
        assert grid.induced_max_degrees(stack, g).tolist() == [induced_max_degree(s, g) for s in stack]
    assert grid.induced_max_degrees([top, lows, top], g)[::2].tolist() == [0, 0]


def test_lane_degrees_refuse_what_induced_max_degree_refuses():
    assert grid.induced_max_degrees([]).tolist() == []
    with pytest.raises(ValueError):
        grid.induced_max_degrees([VertexSet(3, 2, ranks=[0]), VertexSet(3, 2)])
    with pytest.raises(DimensionMismatchError):
        grid.induced_max_degrees([VertexSet(3, 2, ranks=[0]), VertexSet(2, 3, ranks=[0])])
    with pytest.raises(DimensionMismatchError):
        grid.induced_max_degrees([VertexSet(3, 2, ranks=[0])], PathPower(4, 2))
    with pytest.raises(SizeCapError):
        grid.induced_max_degrees([VertexSet(2, 17, ranks=[0])])


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


@pytest.mark.parametrize("m,k", [(2, 1), (2, 5), (3, 3), (4, 2), (5, 2), (256, 1)])
def test_digits_and_slot_table_match_unrank_and_neighbours(m, k):
    g = PathPower(m, k)
    d = digits(m, k)
    assert d.shape == (m**k, k) and d.dtype == np.int64
    assert [tuple(c + 1 for c in row) for row in d.tolist()] == list(g.vertices())
    steps, present = slot_steps(m, k), present_slots(m, k)
    assert steps.tolist() == sorted(steps.tolist()) and present.shape == (m**k, 2 * k)
    # the present slots, row-major, are the neighbours in ascending order
    assert [(r + steps[row]).tolist() for r, row in enumerate(present)] == [g.neighbor_ranks(r) for r in range(m**k)]
