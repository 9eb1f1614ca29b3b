import numpy as np
import pytest
from hypothesis import given, settings

import walkparadox as wp
from walkparadox import GraphError
from walkparadox.graph import int_out_degrees, validate_graph

from _strategies import graphs


def test_build_basic_csr_layout():
    g = wp.build(3, [(2, 0), (0, 1)])
    assert g.n == 3
    assert not g.directed
    # stored arcs are row-major and sorted within each row
    assert g.indptr.tolist() == [0, 2, 3, 4]
    assert g.indices.tolist() == [1, 2, 0, 0]
    assert g.arc_count == 4
    assert g.edge_count == 2
    assert g.unweighted


def test_build_rejects_malformed_edges():
    with pytest.raises(GraphError, match="source, target"):
        wp.build(3, [(0, 1, 1.0, 2.0)])
    with pytest.raises(GraphError, match="integers"):
        wp.build(3, [(0.5, 1)])
    with pytest.raises(GraphError, match="integers"):
        wp.build(3, [(True, 1)])
    with pytest.raises(GraphError, match="out of range"):
        wp.build(3, [(0, 3)])
    with pytest.raises(GraphError, match="out of range"):
        wp.build(3, [(-1, 2)])
    with pytest.raises(GraphError, match="self-loop at node 2"):
        wp.build(3, [(2, 2)])
    with pytest.raises(GraphError, match="at least one edge"):
        wp.build(3, [])
    with pytest.raises(GraphError, match="int64"):
        wp.build(2**63, [(0, 1)])
    with pytest.raises(GraphError, match="int64"):
        wp.build(2**63 + 1, [(0, 2**63)])
    with pytest.raises(GraphError, match="node count of more than .* digits exceeds"):
        wp.build(10**5000, [(0, 1)])  # past the digits str() prints
    # fits int64, but its 4 EiB of indptr fit no 64-bit address space
    with pytest.raises(GraphError, match=f"node count {2**59} needs index arrays"):
        wp.build(2**59, [(0, 1)])


def test_build_rejects_duplicates_in_any_orientation():
    with pytest.raises(GraphError, match="duplicate"):
        wp.build(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        wp.build(3, [(0, 1), (0, 1, 2.0)])
    # opposite arcs are distinct in a directed graph
    g = wp.build(3, [(0, 1), (1, 0)], directed=True)
    assert g.arc_count == 2


def test_build_rejects_bad_weights():
    with pytest.raises(GraphError, match="positive"):
        wp.build(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError, match="positive"):
        wp.build(2, [(0, 1, -3.0)])
    with pytest.raises(GraphError, match="finite"):
        wp.build(2, [(0, 1, float("inf"))])
    with pytest.raises(GraphError, match="finite"):
        wp.build(2, [(0, 1, float("nan"))])


def test_weighted_flag():
    assert wp.build(2, [(0, 1)]).unweighted
    assert wp.build(2, [(0, 1, 1.0)]).unweighted
    assert not wp.build(2, [(0, 1, 2.0)]).unweighted


def test_arrays_are_frozen():
    g = wp.figure1()
    with pytest.raises(ValueError):
        g.weights[0] = 7.0
    with pytest.raises(ValueError):
        g.indices[0] = 0


def test_degree_vector_figure1():
    d = wp.degree_vector(wp.figure1())
    assert d.values.tolist() == [4, 1, 1, 1, 3, 2, 3, 1]
    assert d.label == "degree"


def test_degree_vector_requires_undirected():
    with pytest.raises(GraphError, match="out_degree_vector"):
        wp.degree_vector(wp.three_node())


def test_hub_cycle_degree_vectors():
    g = wp.hub_cycle(10)
    assert wp.out_degree_vector(g).values.tolist() == [9, 1, 1, 1, 1, 1, 1, 1, 1, 2]
    assert wp.in_degree_vector(g).values.tolist() == [1, 2, 2, 2, 2, 2, 2, 2, 2, 2]
    assert int_out_degrees(g) == [9, 1, 1, 1, 1, 1, 1, 1, 1, 2]


@given(graphs(directed=True, weighted=True))
@settings(max_examples=60)
def test_in_degrees_match_transposed_out_degrees_bitwise(g):
    lhs = wp.in_degree_vector(g).values
    rhs = wp.out_degree_vector(wp.transpose(g)).values
    assert np.array_equal(lhs, rhs)  # bitwise, not approximate


@given(graphs(weighted=True))
@settings(max_examples=60)
def test_transpose_involution(g):
    gg = wp.transpose(wp.transpose(g))
    assert gg == g
    if not g.directed:
        assert wp.transpose(g) is g


@given(graphs(directed=True, weighted=True))
@settings(max_examples=60)
def test_transpose_preserves_arc_weights(g):
    forward = {(i, j): w for i, j, w in g.arcs()}
    backward = {(j, i): w for i, j, w in wp.transpose(g).arcs()}
    assert forward == backward


def test_connectivity():
    assert wp.is_connected(wp.path(5))
    assert not wp.is_connected(wp.build(4, [(0, 1), (2, 3)]))
    assert wp.is_connected(wp.build(2, [(0, 1)]))
    # weak connectivity ignores arc direction
    assert wp.is_connected(wp.star_out(5))
    assert wp.is_connected(wp.star_in(5))  # node 0 has no out-arcs
    assert not wp.is_connected(wp.build(4, [(0, 1), (3, 2)], directed=True))


def test_strong_connectivity():
    assert wp.is_strongly_connected(wp.directed_cycle(6))
    assert wp.is_strongly_connected(wp.hub_cycle(7))
    assert wp.is_strongly_connected(wp.three_node())
    assert not wp.is_strongly_connected(wp.star_out(4))
    assert not wp.is_strongly_connected(wp.star_in(4))
    assert wp.is_strongly_connected(wp.cycle(5))  # undirected fallback


def test_is_regular():
    assert wp.is_regular(wp.cycle(6)) == (True, 2)
    assert wp.is_regular(wp.complete(5)) == (True, 4)
    assert wp.is_regular(wp.figure1())[0] is False
    g = wp.directed_cycle(5)
    assert wp.is_regular(g, "out") == (True, 1)
    assert wp.is_regular(g, "in") == (True, 1)
    assert wp.is_regular(wp.hub_cycle(5), "out")[0] is False
    with pytest.raises(GraphError):
        wp.is_regular(g, "undirected")


def _int_regular(g, orientation):
    """(True, d) when every integer degree on a side is d, else (False, None)."""
    end = 1 if orientation == "in" else 0
    counts = [0] * g.n
    for arc in g.arcs():
        counts[arc[end]] += 1
    return (True, counts[0]) if len(set(counts)) == 1 else (False, None)


def test_is_regular_matches_integer_degrees():
    for g in wp.enumerate_connected(5):
        assert wp.is_regular(g) == _int_regular(g, "out")
    for family in (wp.hub_cycle, wp.star_out, wp.directed_cycle):
        for n in range(3, 9):
            g = family(n)
            for side in ("out", "in"):
                assert wp.is_regular(g, side) == _int_regular(g, side)


def test_is_regular_weighted():
    g = wp.build(4, [(i, (i + 1) % 4, 2.5) for i in range(4)])
    ok, value = wp.is_regular(g)
    assert ok and value == pytest.approx(5.0)
    # the spread is measured against the largest degree, however small
    tiny = wp.build(4, [(i, (i + 1) % 4, 1e-13) for i in range(4)])
    ok, value = wp.is_regular(tiny)
    assert ok and value == pytest.approx(2e-13)
    assert wp.is_regular(wp.build(3, [(0, 1, 1e-13), (1, 2, 4e-13)])) == (False, None)


def test_edges_and_arcs():
    g = wp.figure1()
    assert len(list(g.arcs())) == 16
    assert g.edges() == [
        (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0),
        (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0), (6, 7, 1.0),
    ]
    h = wp.three_node()
    assert h.edges() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 0, 1.0)]


def test_total_weight():
    assert wp.figure1().total_weight == 16.0
    assert wp.three_node().total_weight == 4.0
    assert wp.build(2, [(0, 1, 2.5)]).total_weight == 5.0


def test_node_vector_validation():
    with pytest.raises(ValueError):
        wp.NodeVector([1.0, float("nan")], "x")
    v = wp.NodeVector([1.0, 2.0], "x")
    assert len(v) == 2
    with pytest.raises(ValueError):
        v.values[0] = 9.0


@given(graphs(weighted=True))
@settings(max_examples=80)
def test_validate_graph_passes_on_built_graphs(g):
    validate_graph(g)
    validate_graph(wp.transpose(g))


def test_validate_graph_on_generators():
    for g in (wp.figure1(), wp.hub_cycle(9), wp.three_node(), wp.star_in(6),
              wp.barabasi_albert(30, 3, seed=11), wp.k_regular_random(12, 3, seed=4),
              wp.erdos_renyi(25, 0.2, seed=9), wp.erdos_renyi_directed(15, 0.2, seed=9)):
        validate_graph(g)


@pytest.mark.parametrize("n,directed,indptr,indices,weights,message", [
    (0, False, [0], [], [], "node count must be positive"),
    (2, False, [0, 0, 0], [], [], "at least one edge"),
    (2, True, [0, 1], [1], [1.0], "malformed indptr"),
    (3, True, [0, 2, 1, 2], [1, 2], [1.0, 1.0], "indptr must be nondecreasing"),
    (2, True, [0, 1, 1], [1], [1.0, 1.0], "indices and weights must align"),
    (2, True, [0, 1, 1], [2], [1.0], "arc target out of range"),
    (2, True, [0, 1, 1], [1], [0.0], "weights must be positive and finite"),
    (2, True, [0, 1, 2], [0, 0], [1.0, 1.0], "self-loop stored"),
    (2, True, [0, 2, 2], [1, 1], [1.0, 1.0], "duplicate arc stored"),
    (4, True, [0, 3, 3, 3, 3], [3, 1, 3], [1.0] * 3, "duplicate arc stored"),
    (3, True, [0, 2, 2, 2], [2, 1], [1.0, 1.0], "row 0 targets not strictly increasing"),
    (3, True, [0, 1, 3, 3], [1, 2, 0], [1.0] * 3, "row 1 targets not strictly increasing"),
    (3, False, [0, 1, 2, 2], [1, 2], [1.0, 1.0], "not symmetric"),
    (2, False, [0, 1, 2], [1, 0], [1.0, 2.0], "not symmetric"),
], ids=["no-nodes", "no-arcs", "indptr-shape", "indptr-decreasing", "misaligned-weights",
        "target-out-of-range", "bad-weight", "self-loop", "duplicate-arc",
        "non-adjacent-duplicate", "row-not-increasing", "later-row-not-increasing",
        "missing-reverse-arc", "asymmetric-weight"])
def test_validate_graph_rejects_hand_built_storage(n, directed, indptr, indices, weights,
                                                   message):
    g = wp.Graph(n, directed, np.array(indptr), np.array(indices, dtype=np.int64),
                 np.array(weights, dtype=float))
    with pytest.raises(GraphError, match=message):
        validate_graph(g)


def test_graph_equality_and_repr():
    a = wp.path(3)
    b = wp.build(3, [(1, 2), (0, 1)])
    assert a == b
    assert a != wp.path(4)
    assert "undirected" in repr(a)
    assert "directed" in repr(wp.three_node())
