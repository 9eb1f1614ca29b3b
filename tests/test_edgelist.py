"""Edge-list text format: round-trips, directives, comments, and
line-numbered rejection of malformed input."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkparadox as wp
from walkparadox import GraphError, format_edge_list, parse_edge_list
from walkparadox.graph import _MAX_NODES

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
    # one-based input names the ids as written
    with pytest.raises(GraphError, match=r"line 3: duplicate edge \(2, 1\), first at line 2"):
        parse_edge_list("%one-based\n1 2\n2 1\n")
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
    # a duplicate is named before a node count whose arrays cannot be
    # allocated: 2^60 - 2 nodes ask for 8 EiB, past any 64-bit address space
    with pytest.raises(GraphError, match="node count 1152921504606846974 needs index arrays"):
        parse_edge_list("%nodes 1152921504606846974\n0 1\n")
    with pytest.raises(GraphError, match=r"line 3: duplicate edge \(0, 1\), first at line 2"):
        parse_edge_list("%nodes 1152921504606846974\n0 1\n0 1\n")
    with pytest.raises(GraphError, match=r"line 2: duplicate edge \(0, 1152921504606846973\)"):
        parse_edge_list("0 1152921504606846973\n0 1152921504606846973\n")
    # an id whose node count no graph holds is a fault of its own line, and
    # no message prints it: str() refuses ints past its digit limit
    cap = "node id too large: a graph holds at most 1152921504606846974 nodes"
    limit = sys.get_int_max_str_digits()
    with pytest.raises(GraphError, match=f"line 2: {cap}$"):
        parse_edge_list("0 1\n0 " + "1" * (limit + 700) + "\n")
    with pytest.raises(GraphError, match=f"line 1: {cap}$"):
        parse_edge_list("-" + "1" * (limit + 1) + " 0\n")
    with pytest.raises(GraphError, match="line 1: node ids must be integers"):
        parse_edge_list("x " + "1" * (limit + 1) + "\n")
    with pytest.raises(GraphError, match=f"line 1: {cap}$"):
        parse_edge_list("0 " + "9" * limit + "\n")
    with pytest.raises(GraphError, match=f"line 2: {cap}$"):
        parse_edge_list("0 1\n0 1152921504606846974\n")
    with pytest.raises(GraphError, match=f"line 2: {cap}$"):
        parse_edge_list("%one-based\n1 1152921504606846975\n")
    # the one-based id 2^60 - 2 asks for 2^60 - 2 nodes, which pass the cap
    with pytest.raises(GraphError, match="node count 1152921504606846974 needs index arrays"):
        parse_edge_list("%one-based\n1 1152921504606846974\n")
    # the earlier line past the cap is named, not the later duplicate
    with pytest.raises(GraphError, match=f"line 1: {cap}$"):
        parse_edge_list(f"0 {2**64}\n{2**64} 0\n")


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
    with pytest.raises(GraphError, match="line 1: %nodes needs one integer"):
        parse_edge_list("%nodes \u00b2\n0 1\n")  # a digit, but not a decimal one


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


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x85", "\u2028"],
                         ids=["lf", "cr", "crlf", "nel", "line-separator"])
def test_multi_line_comments_round_trip(sep):
    text = format_edge_list(wp.path(3), comments=(f"first{sep}second", ""))
    assert text == "# first\n# second\n# \n0 1\n1 2\n"
    assert parse_edge_list(text) == wp.path(3)


# Differential test against the line-by-line reference parser.  Each
# text is a formatted graph with its edge lines shuffled, some flipped,
# and comments, blank lines and up to three faulty lines put in anywhere,
# so the graph, or the first error with its line number, must agree.
_ODD_IDS = st.sampled_from(["-1", "-7", "9", "x", "1.5", "0x1", "1_0", "\u0663",
                            str(2**63 - 1), str(2**63), str(2**64 + 3), str(-2**63 - 1),
                            "1" * 5000, "-" + "9" * 4301, "0" * 29 + "1", "+" + "7" * 4400,
                            *map(str, (_MAX_NODES - 1, _MAX_NODES, _MAX_NODES + 1))])
_IDS = st.one_of(st.integers(0, 7).map(str), _ODD_IDS)
_WEIGHTS = st.lists(st.sampled_from(["1", "2.5", "0", "-1", "-0.0", "nan", "inf", "-inf",
                                     "1e400", "heavy"]), max_size=1)
_DIRECTIVES = st.sampled_from(["%directed", "%one-based", "%nodes 9", "%nodes 3", "%nodes x",
                               "%nodes \u00b2", "%loops", "  % Directed  # why"])
_FILLER = st.sampled_from(["# header", "", "   ", "\t# indented"])


@st.composite
def edge_list_texts(draw):
    g = draw(graphs(max_n=7, weighted=draw(st.booleans())))
    lines = format_edge_list(g, one_based=draw(st.booleans())).splitlines()
    lead = [line for line in lines if line.startswith("%")]
    body = [line.split() for line in lines if not line.startswith("%")]
    if not g.directed:
        body = [[b, a, *w] if draw(st.booleans()) else [a, b, *w] for a, b, *w in body]
    body = [" ".join(fields) for fields in draw(st.permutations(body))]
    faulty = st.one_of(
        st.builds(lambda ids, w: " ".join(ids + w), st.lists(_IDS, min_size=2, max_size=2),
                  _WEIGHTS),
        st.lists(_IDS, min_size=1, max_size=4).map(" ".join),  # any field count
        st.sampled_from(body).map(lambda line: " ".join(line.split()[1::-1])),  # repeat
        st.sampled_from(body), _DIRECTIVES)
    for extra in draw(st.lists(st.one_of(_FILLER, faulty), max_size=4)):
        body.insert(draw(st.integers(0, len(body))), extra)
    lead += draw(st.lists(st.one_of(_DIRECTIVES, _FILLER), max_size=2))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(draw(st.permutations(lead)) + body) + draw(st.sampled_from(["", sep]))


def outcome(parse, text, one_based):
    try:
        return parse(text, one_based=one_based)
    except GraphError as exc:
        return f"GraphError: {exc}"


@given(edge_list_texts(), st.booleans())
@example("", False)
@example("%one-based\n1 2\n2 1\n", False)
@example("0 1\n1 0 -1\n2 2\n", False)
@example(f"0 {2**64}\n{2**64} 0\n", False)
@example(f"%nodes 3\n0 {2**63}\n", True)
@example(f"0 {2**63}\n0 1\n", False)
@example("0 1\n2 " + "1" * 5000 + "\nx 2\n", False)
@example("0 " + "9" * 4300 + "\n", True)
@example(f"0 {_MAX_NODES - 1}\n", False)
@example(f"0 {_MAX_NODES}\n1 2\n", False)
@example(f"1 {_MAX_NODES}\n", True)
@example(f"%one-based\n1 {_MAX_NODES + 1}\n", False)
@example("0 " + "0" * 29 + "1\n1 2\n", True)
@example("0 1\n1 +" + "7" * 4400 + "\n", False)
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_line_by_line_reference(text, one_based):
    assert outcome(parse_edge_list, text, one_based) == outcome(oracle.parse_edge_list, text,
                                                                 one_based)


def random_digraph(n, arcs_per_node, seed):
    """A weighted directed graph with numpy-drawn arcs (self-loops and
    repeats dropped)."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, (2, arcs_per_node * n))
    keys = np.unique(src[src != dst] * n + dst[src != dst])
    weights = rng.uniform(0.5, 2.0, keys.size)
    return wp.build(n, zip((keys // n).tolist(), (keys % n).tolist(), weights.tolist()),
                    directed=True)


@pytest.mark.parametrize("make_graph", [
    lambda: wp.barabasi_albert(10**4, 3, seed=1),
    lambda: random_digraph(10**4, 5, seed=3),
], ids=["barabasi-albert", "weighted-digraph"])
def test_large_graphs_round_trip(make_graph):
    g = make_graph()
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list(format_edge_list(g, one_based=True)) == g


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
