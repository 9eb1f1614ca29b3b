"""Edge-list text format: round-trips, directives, comments, and
line-numbered rejection of malformed input."""

from pathlib import Path

import pytest
from hypothesis import given, settings

import walkparadox as wp
from walkparadox import GraphError, format_edge_list, parse_edge_list

import _oracles as oracle
from _strategies import graphs

FIXTURES = Path(__file__).parent / "fixtures"


def load(name, **kw):
    return parse_edge_list((FIXTURES / name).read_text(), **kw)


# fixture files are the on-disk form of the built-in families; parsing
# them must reproduce the constructors bit for bit
def test_fixture_files_match_generators():
    assert load("figure1.edges") == wp.figure1()
    assert load("figure1_one_based.edges") == wp.figure1()
    assert load("hub_cycle_10.edges") == wp.hub_cycle(10)
    assert load("three_node.edges") == wp.three_node()
    assert load("star_out_5.edges") == wp.star_out(5)
    assert load("weighted_violator.edges") == oracle.weighted_growth_violator()


def test_parse_plain():
    g = parse_edge_list("0 1\n1 2\n")
    assert not g.directed and g.n == 3 and g.edge_count == 2


def test_parse_directed_directive():
    g = parse_edge_list("%directed\n0 1\n1 0\n")
    assert g.directed and g.arc_count == 2


def test_parse_weights_mixed_columns():
    g = parse_edge_list("0 1 2.5\n1 2\n")
    assert not g.unweighted
    assert g.edges() == [(0, 1, 2.5), (1, 2, 1.0)]


def test_parse_comments_and_blank_lines():
    text = "# header\n\n0 1  # trailing note\n   \n1 2\n#2 3\n"
    g = parse_edge_list(text)
    assert g.edge_count == 2


def test_one_based_flag_and_directive():
    flag = parse_edge_list("1 2\n2 3\n", one_based=True)
    directive = parse_edge_list("%one-based\n1 2\n2 3\n")
    assert flag == directive == parse_edge_list("0 1\n1 2\n")
    with pytest.raises(GraphError, match="one-based"):
        parse_edge_list("0 1\n", one_based=True)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="self-loop at line 2"):
        parse_edge_list("0 1\n2 2\n")
    with pytest.raises(GraphError, match=r"line 3: duplicate edge \(1, 0\), first at line 1"):
        parse_edge_list("0 1\n1 2\n1 0\n")
    with pytest.raises(GraphError, match="line 2: duplicate edge"):  # first faulty line
        parse_edge_list("0 1\n0 1\n2 2\n")
    with pytest.raises(GraphError, match="line 2: directives must precede"):
        parse_edge_list("0 1\n%directed\n")
    with pytest.raises(GraphError, match="line 1: unknown directive"):
        parse_edge_list("%loops\n0 1\n")
    with pytest.raises(GraphError, match="line 1: unknown directive"):
        parse_edge_list("%nodesfoo 5\n0 1\n")
    with pytest.raises(GraphError, match="line 1: unknown directive"):
        parse_edge_list("%nodes5x 5\n0 1\n")
    with pytest.raises(GraphError, match="line 2: nonpositive weight"):
        parse_edge_list("0 1\n1 2 -4\n")
    with pytest.raises(GraphError, match="line 2: non-finite weight"):
        parse_edge_list("1 2\n0 1 inf\n")
    with pytest.raises(GraphError, match="line 1: non-finite weight"):
        parse_edge_list("0 1 1e400\n")
    with pytest.raises(GraphError, match="line 1: node ids must be integers"):
        parse_edge_list("a b\n")
    with pytest.raises(GraphError, match="line 1: bad weight"):
        parse_edge_list("0 1 heavy\n")
    with pytest.raises(GraphError, match="line 2: expected"):
        parse_edge_list("0 1\n0 1 2 3\n")
    with pytest.raises(GraphError, match="line 1: negative node id"):
        parse_edge_list("-1 0\n")
    with pytest.raises(GraphError, match="no edges"):
        parse_edge_list("# nothing here\n")


def test_nodes_directive_keeps_trailing_isolates():
    g = parse_edge_list("%nodes 5\n0 1\n")
    assert g.n == 5 and g.edge_count == 1
    # the writer emits the directive exactly when the count is not inferable
    text = format_edge_list(wp.build(5, [(0, 1)]))
    assert text == "%nodes 5\n0 1\n"
    assert "%nodes" not in format_edge_list(wp.path(5))
    with pytest.raises(GraphError, match="smaller than the ids used"):
        parse_edge_list("%nodes 2\n0 2\n")
    with pytest.raises(GraphError, match="needs one integer"):
        parse_edge_list("%nodes many\n0 1\n")


def test_duplicate_detection_respects_direction():
    # opposite arcs are two distinct directed edges
    g = parse_edge_list("%directed\n0 1\n1 0\n")
    assert g.arc_count == 2
    with pytest.raises(GraphError, match="duplicate"):
        parse_edge_list("0 1\n1 0\n")


def test_format_plain_and_weighted():
    assert format_edge_list(wp.path(3)) == "0 1\n1 2\n"
    g = wp.build(3, [(0, 1, 2.5), (1, 2)])
    assert format_edge_list(g) == "0 1 2.5\n1 2 1.0\n"
    assert format_edge_list(wp.star_out(3)) == "%directed\n0 1\n0 2\n"


def test_format_one_based_and_comments():
    text = format_edge_list(wp.path(3), one_based=True, comments=("tiny path",))
    assert text == "# tiny path\n%one-based\n1 2\n2 3\n"
    assert parse_edge_list(text) == wp.path(3)


@given(graphs(max_n=8, weighted=False))
@settings(max_examples=60, deadline=None)
def test_round_trip_unweighted(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs(max_n=8, weighted=True))
@settings(max_examples=60, deadline=None)
def test_round_trip_weighted(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_round_trip_one_based(g):
    assert parse_edge_list(format_edge_list(g, one_based=True)) == g
