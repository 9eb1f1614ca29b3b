"""Family constructors: exact shapes for the fixed examples, structural
invariants plus determinism for the seeded ones."""

from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkparadox as wp
from walkparadox import (FamilySpec, GraphError, ParameterError, generators, make,
                         make_connected)

import _oracles as oracle


def neighbour_degrees(g, node):
    deg = wp.degree_vector(g).values
    return sorted(deg[t] for s, t, _ in g.arcs() if s == node)


def test_figure1_adjacency_structure():
    g = wp.figure1()
    assert g.n == 8
    assert wp.degree_vector(g).values.tolist() == [4, 1, 1, 1, 3, 2, 3, 1]
    # the hub sees three leaves and the triangle gateway; the pendant
    # hangs off a triangle corner
    assert neighbour_degrees(g, 0) == [1, 1, 1, 3]
    assert neighbour_degrees(g, 1) == [4]
    assert neighbour_degrees(g, 4) == [2, 3, 4]
    assert neighbour_degrees(g, 5) == [3, 3]
    assert neighbour_degrees(g, 6) == [1, 2, 3]
    assert neighbour_degrees(g, 7) == [3]


def test_path_cycle_complete_shapes():
    assert wp.path(5).edges() == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    assert wp.cycle(4).edge_count == 4
    assert wp.degree_vector(wp.cycle(4)).values.tolist() == [2, 2, 2, 2]
    k5 = wp.complete(5)
    assert k5.edge_count == 10
    assert wp.is_regular(k5) == (True, 4)


def test_star_shapes():
    s = wp.star_undirected(6)
    assert wp.degree_vector(s).values.tolist() == [5, 1, 1, 1, 1, 1]
    out5 = wp.star_out(5)
    assert out5.directed
    assert wp.out_degree_vector(out5).values.tolist() == [4, 0, 0, 0, 0]
    assert wp.in_degree_vector(out5).values.tolist() == [0, 1, 1, 1, 1]
    in5 = wp.star_in(5)
    assert in5 == wp.transpose(out5)


def test_hub_cycle_degree_profile():
    g = wp.hub_cycle(10)
    assert wp.out_degree_vector(g).values.tolist() == [9, 1, 1, 1, 1, 1, 1, 1, 1, 2]
    assert wp.in_degree_vector(g).values.tolist() == [1, 2, 2, 2, 2, 2, 2, 2, 2, 2]
    assert wp.is_strongly_connected(g)


def test_three_node_adjacency():
    g = wp.three_node()
    assert g.directed
    assert sorted((s, t) for s, t, _ in g.arcs()) == [(0, 1), (0, 2), (1, 2), (2, 0)]
    assert wp.is_strongly_connected(g)


def test_directed_cycle():
    g = wp.directed_cycle(5)
    assert wp.out_degree_vector(g).values.tolist() == [1] * 5
    assert wp.in_degree_vector(g).values.tolist() == [1] * 5


def test_parametric_validation():
    with pytest.raises(ParameterError):
        wp.path(1)
    with pytest.raises(ParameterError):
        wp.cycle(2)
    with pytest.raises(ParameterError):
        wp.complete(1)
    with pytest.raises(ParameterError):
        wp.star_out(1)
    with pytest.raises(ParameterError):
        wp.hub_cycle(2)
    with pytest.raises(ParameterError):
        wp.directed_cycle(1)


@pytest.mark.parametrize("n,k", [(8, 3), (10, 4), (9, 2)])
def test_k_regular_is_regular_and_simple(n, k):
    g = wp.k_regular_random(n, k, seed=7)
    assert g.n == n
    assert wp.is_regular(g) == (True, k)
    # build() would have rejected loops or duplicates, so reaching here
    # means the pairing is simple; check the edge count anyway
    assert g.edge_count == n * k // 2


def test_k_regular_determinism_and_validation():
    a = wp.k_regular_random(12, 3, seed=5)
    b = wp.k_regular_random(12, 3, seed=5)
    c = wp.k_regular_random(12, 3, seed=6)
    assert a == b
    assert a != c
    with pytest.raises(ParameterError, match="even"):
        wp.k_regular_random(7, 3)
    with pytest.raises(ParameterError, match="1 <= k < n"):
        wp.k_regular_random(5, 0)
    with pytest.raises(ParameterError, match="1 <= k < n"):
        wp.k_regular_random(5, 5)


def test_erdos_renyi_determinism_and_extremes():
    a = wp.erdos_renyi(20, 0.3, seed=11)
    assert a == wp.erdos_renyi(20, 0.3, seed=11)
    assert a != wp.erdos_renyi(20, 0.3, seed=12)
    assert wp.erdos_renyi(6, 1.0, seed=0) == wp.complete(6)
    with pytest.raises(GraphError, match="empty"):
        wp.erdos_renyi(3, 1e-12, seed=0)
    with pytest.raises(ParameterError):
        wp.erdos_renyi(5, 0.0)
    with pytest.raises(ParameterError):
        wp.erdos_renyi(5, 1.5)
    with pytest.raises(ParameterError):
        wp.erdos_renyi(1, 0.5)


def test_erdos_renyi_directed_determinism():
    a = wp.erdos_renyi_directed(15, 0.2, seed=3)
    assert a.directed
    assert a == wp.erdos_renyi_directed(15, 0.2, seed=3)
    assert a != wp.erdos_renyi_directed(15, 0.2, seed=4)
    with pytest.raises(ParameterError):
        wp.erdos_renyi_directed(10, -0.1)


@given(n=st.integers(2, 9), p=st.floats(0.02, 1.0), seed=st.integers(0, 2**64 + 10),
       directed=st.booleans())
@example(n=7, p=0.3, seed=2**63 + 5, directed=True)
@settings(max_examples=120, deadline=None)
def test_erdos_renyi_families_match_pair_loops(n, p, seed, directed):
    expected = oracle.bernoulli_edges(n, p, seed, directed)
    sample = wp.erdos_renyi_directed if directed else wp.erdos_renyi
    if not expected:
        with pytest.raises(GraphError, match="empty graph"):
            sample(n, p, seed=seed)
        return
    g = sample(n, p, seed=seed)
    assert g.directed == directed
    assert [(i, j) for i, j, _ in g.edges()] == expected


def test_barabasi_albert_structure():
    g = wp.barabasi_albert(30, 2, seed=9)
    assert g.n == 30
    assert not g.directed
    assert wp.is_connected(g)
    # seed clique contributes m edges, every later node adds exactly m
    assert g.edge_count == 2 + (30 - 3) * 2
    assert wp.degree_vector(g).values[29] == 2  # last node never gets attached to
    assert g == wp.barabasi_albert(30, 2, seed=9)
    assert g != wp.barabasi_albert(30, 2, seed=10)
    with pytest.raises(ParameterError):
        wp.barabasi_albert(5, 0)
    with pytest.raises(ParameterError):
        wp.barabasi_albert(5, 5)


def test_enumerate_connected_counts():
    per_n = {}
    seen = set()
    for g in wp.enumerate_connected(5):
        assert wp.is_connected(g)
        key = (g.n, tuple((s, t) for s, t, _ in g.edges()))
        assert key not in seen
        seen.add(key)
        per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == {2: 1, 3: 4, 4: 38, 5: 728}
    assert [(g.n, g.edges()) for g in wp.enumerate_connected(5)] == [
        (g.n, g.edges()) for g in oracle.connected_graphs(5)]


# one spec per family: the generators skip build's per-edge checks, so
# each must assemble exactly the graph build makes of its edges
_EVERY_FAMILY = [
    FamilySpec("figure1"), FamilySpec("path", n=6), FamilySpec("cycle", n=5),
    FamilySpec("complete", n=5), FamilySpec("star_undirected", n=6),
    FamilySpec("star_out", n=6), FamilySpec("star_in", n=6), FamilySpec("hub_cycle", n=7),
    FamilySpec("three_node"), FamilySpec("directed_cycle", n=5),
    FamilySpec("k_regular_random", n=8, k=3, seed=2),
    FamilySpec("erdos_renyi", n=9, p=0.4, seed=1),
    FamilySpec("erdos_renyi_directed", n=7, p=0.3, seed=4),
    FamilySpec("barabasi_albert", n=40, m=3, seed=5),
]


def test_every_family_has_an_assembly_case():
    assert sorted(spec.family for spec in _EVERY_FAMILY) == sorted(generators._FAMILIES)


@pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda spec: spec.family)
def test_families_assemble_what_build_validates(spec):
    g = make(spec)
    wp.validate_graph(g)
    assert type(g.n) is int
    assert g == wp.build(g.n, g.edges(), directed=g.directed)


def test_enumerated_graphs_assemble_what_build_validates():
    for g in wp.enumerate_connected(4):
        wp.validate_graph(g)
        assert g == wp.build(g.n, g.edges())


def test_enumerated_graphs_match_the_edge_list_assembly():
    """Every graph on n <= 6 and the first n = 7 block, array by array and
    dtype by dtype, against the one-mask edge-list formula."""
    from walkparadox.generators import _connected_mask_blocks

    expected = []
    for n, pairs, masks in _connected_mask_blocks(7):
        expected += [(n, pairs, mask) for mask in masks.tolist()]
        if n == 7:
            break
    graphs = list(islice(wp.enumerate_connected(7), len(expected)))
    assert len(graphs) == len(expected) > 27_475
    for g, (n, pairs, mask) in zip(graphs, expected):
        assert (g.n, g.directed) == (n, False)
        for got, want in zip((g.indptr, g.indices, g.weights), oracle.mask_csr(n, pairs, mask)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_connected_mask_blocks():
    from walkparadox.generators import _MASK_BLOCK, _connected_mask_blocks

    counts, last = {}, (0, 0)
    for n, pairs, masks in _connected_mask_blocks(7):
        assert pairs == tuple(combinations(range(n), 2))
        assert 0 < len(masks) <= _MASK_BLOCK and masks.dtype == np.int64
        assert (n, int(masks[0])) > last and np.all(np.diff(masks) > 0)
        last = (n, int(masks[-1]))
        counts[n] = counts.get(n, 0) + len(masks)
        if n == 7 and counts[7] == len(masks):  # the first n = 7 block, mask by mask
            kept = set(masks.tolist())
            assert all(oracle.mask_connected(7, pairs, m) == (m in kept)
                       for m in range(1, _MASK_BLOCK + 1))
    # A001187, connected labeled graphs
    assert counts == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


def test_enumerate_connected_bounds():
    with pytest.raises(ParameterError):
        list(wp.enumerate_connected(1))
    with pytest.raises(ParameterError, match="capped"):
        list(wp.enumerate_connected(8))


def test_family_spec_validation():
    with pytest.raises(ParameterError, match="known:"):
        FamilySpec("petersen")
    with pytest.raises(ParameterError, match="requires parameter 'n'"):
        FamilySpec("path")
    with pytest.raises(ParameterError, match="requires parameter 'p'"):
        FamilySpec("erdos_renyi", n=10)
    # each parameter the family never reads is refused, not dropped
    for family, params, name in (("figure1", {"n": 50}, "n"), ("cycle", {"n": 5, "p": 0.3}, "p"),
                                 ("erdos_renyi", {"n": 5, "p": 0.3, "k": 2}, "k"),
                                 ("k_regular_random", {"n": 6, "k": 2, "m": 1}, "m")):
        with pytest.raises(ParameterError, match=f"{family!r} takes no parameter {name!r}"):
            FamilySpec(family, **params)
    spec = FamilySpec("cycle", n=7)
    assert make(spec) == wp.cycle(7)
    # seed is accepted everywhere: its default 0 cannot be told from an explicit 0
    assert make(FamilySpec("figure1", seed=5)) == wp.figure1()


def test_make_connected_deterministic_family():
    g, attempts = make_connected(FamilySpec("figure1"))
    assert attempts == 1
    assert g == wp.figure1()


def test_make_connected_random_family():
    spec = FamilySpec("erdos_renyi", n=40, p=0.08, seed=2)
    g, attempts = make_connected(spec)
    assert wp.is_connected(g)
    assert attempts >= 1
    again, attempts2 = make_connected(spec)
    assert g == again and attempts == attempts2


def test_make_connected_gives_up():
    spec = FamilySpec("erdos_renyi", n=30, p=0.001, seed=0)
    with pytest.raises(GraphError, match="attempts"):
        make_connected(spec, max_attempts=3)
