from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walkparadox as wp
from walkparadox.errors import GraphError, ParameterError
from walkparadox.paradox import _as_ints

import _oracles as oracle
from _strategies import attribute_values, graphs


def test_classic_figure1_exact():
    """The worked 8-node example: 16 degree-sum over 8 nodes versus 42
    squared-degree-sum over 16 edge endpoints."""
    rep = wp.classic_friendship_paradox(wp.figure1())
    assert rep.exact["node_average"] == Fraction(16, 8)
    assert rep.exact["neighbour_average"] == Fraction(42, 16)
    assert rep.exact["gap"] == Fraction(5, 8)
    assert rep.exact["covariance_form"] == Fraction(5, 8)
    assert rep.holds and not rep.equality
    assert rep.gap == 0.625
    assert rep.mode == "undirected"
    assert rep.measure_label == "degree"


def test_classic_star_exact():
    rep = wp.classic_friendship_paradox(wp.star_undirected(10))
    assert rep.exact["gap"] == Fraction(16, 5)  # 90/18 - 18/10


def test_classic_rejects_directed():
    with pytest.raises(GraphError):
        wp.classic_friendship_paradox(wp.three_node())


def test_equality_on_regular_graphs_is_exact():
    for g in (wp.cycle(7), wp.complete(6), wp.k_regular_random(12, 3, seed=1)):
        rep = wp.classic_friendship_paradox(g)
        assert rep.exact["gap"] == 0
        assert rep.equality and rep.holds


def test_node_average():
    x = wp.NodeVector([1.0, 2.0, 3.0], "x")
    assert wp.node_average(x) == pytest.approx(2.0)
    with pytest.raises(ParameterError, match="nonnegative"):
        wp.node_average(wp.NodeVector([1.0, -2.0], "x"))
    for empty in (np.array([]), wp.NodeVector([], "x")):
        with pytest.raises(ParameterError, match="at least one"):
            wp.node_average(empty)


def test_neighbour_average_modes_match_brute():
    g = wp.hub_cycle(9)
    rng = wp.CounterRng(3)
    x = np.array([rng.uniform() * 10 for _ in range(g.n)])
    for mode in ("out", "in"):
        got = wp.neighbour_average(g, wp.NodeVector(x, "x"), mode)
        ref = oracle.neighbour_average_brute(g, x, mode)
        assert got == pytest.approx(ref, rel=1e-12)


@given(graphs(max_n=8, weighted=True, directed=False))
@settings(max_examples=60)
def test_neighbour_average_matches_brute_undirected(g):
    rng = wp.CounterRng(11)
    x = np.array([rng.uniform() * 5 for _ in range(g.n)])
    got = wp.neighbour_average(g, wp.NodeVector(x, "x"), "undirected")
    ref = oracle.neighbour_average_brute(g, x, "undirected")
    assert got == pytest.approx(ref, rel=1e-12)


@given(graphs(max_n=8, directed=False))
@settings(max_examples=60)
def test_exact_gap_matches_fraction_brute(g):
    rng = wp.CounterRng(17)
    x = [rng.randint(40) for _ in range(g.n)]
    rep = wp.paradox_report(g, wp.NodeVector([float(v) for v in x], "attr"))
    assert rep.exact is not None
    assert rep.exact["gap"] == oracle.gap_fraction_brute(g, x)


@given(graphs(max_n=8, weighted=True))
@settings(max_examples=60)
def test_gap_equals_covariance_form(g):
    # dual-route identity: averages route minus covariance route is zero
    # up to float noise; the report itself cross-checks at 1e-9, so just
    # confirm both fields are populated and close
    rng = wp.CounterRng(23)
    x = wp.NodeVector([rng.uniform() * 3 for _ in range(g.n)], "attr")
    mode = "out" if g.directed else "undirected"
    rep = wp.paradox_report(g, x, mode=mode)
    scale = max(1.0, abs(rep.gap))
    assert abs(rep.gap - rep.covariance_form) <= 1e-9 * scale


def test_paradox_rejects_negative_attributes():
    g = wp.figure1()
    with pytest.raises(ParameterError, match="nonnegative"):
        wp.paradox_report(g, wp.NodeVector([-1.0] * 8, "x"))
    with pytest.raises(ParameterError, match="nonnegative"):
        wp.paradox_report(g, np.array([-1.0] * 8))
    # NaN slips past a `< 0` test and inf turns the gap into NaN: a raw
    # array with either is refused rather than reported as a reversal.
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([bad] + [1.0] * 7)
        with pytest.raises(ParameterError, match="finite"):
            wp.paradox_report(g, x)
        with pytest.raises(ParameterError, match="finite"):
            wp.neighbour_average(g, x)
        with pytest.raises(ParameterError, match="finite"):
            wp.node_average(x)


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_exact_and_float_paths_give_the_same_gap(g):
    # Adding a constant to x leaves the gap unchanged, so the float path
    # on x + 0.5 must reproduce the exact gap of the integer attribute x.
    rng = wp.CounterRng(29)
    x = np.array([float(rng.randint(40)) for _ in range(g.n)])
    for mode in (("out", "in") if g.directed else ("undirected",)):
        exact = wp.paradox_report(g, x, mode=mode).exact["gap"]
        shifted = wp.paradox_report(g, x + 0.5, mode=mode)
        assert shifted.exact is None
        assert abs(shifted.gap - exact) <= 1e-12 * max(1, abs(exact))


def test_paradox_mode_validation():
    g = wp.figure1()
    x = wp.degree_vector(g)
    with pytest.raises(ParameterError, match="mode"):
        wp.paradox_report(g, x, mode="sideways")
    with pytest.raises(GraphError, match="out or in"):
        wp.paradox_report(wp.three_node(), wp.out_degree_vector(wp.three_node()),
                          mode="undirected")


def test_float_path_has_no_exact_block():
    g = wp.figure1()
    x = wp.NodeVector([1.5] * 8, "attr")  # non-integral: float route only
    rep = wp.paradox_report(g, x)
    assert rep.exact is None
    assert rep.equality  # constant attribute: gap is exactly zero
    g2 = wp.build(2, [(0, 1, 2.5)])  # weighted graph: float route too
    rep2 = wp.paradox_report(g2, wp.NodeVector([1.0, 2.0], "attr"))
    assert rep2.exact is None


def test_eigenvector_gap_positive_on_figure1():
    g = wp.figure1()
    eig = wp.dominant_eigenpair(g)
    rep = wp.paradox_report(g, eig.vector)
    assert rep.holds and rep.gap > 0.2


def test_directed_report_hub_cycle_exact():
    rep = wp.directed_degree_report(wp.hub_cycle(10))
    assert rep.reports["out_out"].exact["gap"] == Fraction(569, 190)
    assert rep.reports["in_in"].exact["gap"] == Fraction(9, 190)
    assert rep.reports["out_in"].exact["gap"] == Fraction(-71, 190)
    assert rep.reports["in_out"].exact["gap"] == Fraction(-71, 190)
    assert rep.reports["out_out"].holds
    assert rep.reports["in_in"].holds
    assert not rep.reports["out_in"].holds
    assert not rep.reports["in_out"].holds
    # gap identity: mixed gap = (n/W) Cov(d_out, d_in)
    assert rep.covariance_exact == Fraction(-71, 100)
    assert rep.gap("out_in") == rep.reports["out_in"].gap


def test_directed_report_star_fixtures():
    out = wp.directed_degree_report(wp.star_out(5))
    assert out.reports["out_out"].exact["gap"] == Fraction(16, 5) - Fraction(0)
    assert out.reports["out_in"].exact["gap"] == Fraction(-4, 5)
    inn = wp.directed_degree_report(wp.star_in(5))
    # star_in is the arc-reversal of star_out: the four gaps swap roles
    assert inn.reports["in_in"].exact["gap"] == out.reports["out_out"].exact["gap"]
    assert inn.reports["in_out"].exact["gap"] == out.reports["out_in"].exact["gap"]


def test_directed_report_requires_directed():
    with pytest.raises(GraphError, match="directed"):
        wp.directed_degree_report(wp.figure1())


@given(graphs(max_n=8, directed=True))
@settings(max_examples=60)
def test_directed_self_pairings_always_hold(g):
    rep = wp.directed_degree_report(g)
    assert rep.reports["out_out"].holds
    assert rep.reports["in_in"].holds
    assert rep.reports["out_out"].exact["gap"] >= 0
    assert rep.reports["in_in"].exact["gap"] >= 0


@given(graphs(max_n=8, directed=True))
@settings(max_examples=60)
def test_directed_covariance_is_the_out_in_covariance(g):
    # gap = Cov(d_out, d_in) / mean(d_out) for the out_in pairing
    rep = wp.directed_degree_report(g)
    form = rep.reports["out_in"].exact["covariance_form"]
    assert rep.covariance_exact == form * Fraction(g.arc_count, g.n)
    assert rep.covariance == float(rep.covariance_exact)


@given(graphs(max_n=8, directed=True, weighted=True))
@settings(max_examples=60)
def test_weighted_directed_covariance_matches_the_out_in_form(g):
    rep = wp.directed_degree_report(g)
    if not g.unweighted:
        assert rep.covariance_exact is None
    mean_out = float(wp.out_degree_vector(g).values.mean())
    expected = rep.reports["out_in"].covariance_form * mean_out
    assert abs(rep.covariance - expected) <= 1e-12 * abs(expected)


@given(graphs(max_n=8, directed=True, weighted=True))
@settings(max_examples=60)
def test_directed_mixed_gaps_agree(g):
    rep = wp.directed_degree_report(g)
    a = rep.reports["out_in"].gap
    b = rep.reports["in_out"].gap
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_directed_corpus_exact_nonnegative(directed_corpus):
    for g in directed_corpus[:50]:
        rep = wp.directed_degree_report(g)
        assert rep.reports["out_out"].exact["gap"] >= 0
        assert rep.reports["in_in"].exact["gap"] >= 0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_paradox_report_rejects_bad_tolerances(tol):
    g = wp.figure1()
    with pytest.raises(ParameterError, match="tol"):
        wp.paradox_report(g, wp.degree_vector(g), tol=tol)
    with pytest.raises(ParameterError, match="tol"):
        wp.directed_degree_report(wp.hub_cycle(5), tol=tol)


def _document(report) -> str:
    return wp.canonical_json(wp.payload(report))


def _exact_reports(report):
    if isinstance(report, wp.DirectedDegreeReport):
        return list(report.reports.values())
    return [report]


def test_exact_reports_match_fraction_arithmetic(exhaustive6):
    # the integer evaluator against the Fraction arithmetic it replaced,
    # byte for byte, on every connected graph with n <= 6 and on digraphs
    assert len(exhaustive6) == 27_475
    pairs = [(wp.classic_friendship_paradox(g),
              oracle.paradox_report_fraction(g, wp.degree_vector(g), "undirected", 1e-9)[0])
             for g in exhaustive6]
    digraphs = [wp.hub_cycle(10)] + [wp.erdos_renyi_directed(8, 0.3, seed=s) for s in range(50)]
    pairs += [(wp.directed_degree_report(g), oracle.directed_degree_report_fraction(g))
              for g in digraphs]
    for got, want in pairs:
        assert _document(got) == _document(want)
        for rep in _exact_reports(got):
            assert rep.exact["covariance_form"] == rep.exact["gap"]


@given(graphs(max_n=8), st.sampled_from([0, 1e-9, 0.5, 2.0]))
@settings(max_examples=80)
def test_exact_verdicts_match_fraction_arithmetic_at_any_tol(g, tol):
    # tol decides holds and equality by cross-multiplication
    rng = wp.CounterRng(31)
    x = np.array([float(rng.randint(9)) for _ in range(g.n)])
    for mode in (("out", "in") if g.directed else ("undirected",)):
        got = wp.paradox_report(g, x, mode=mode, tol=tol)
        assert _document(got) == _document(oracle.paradox_report_fraction(g, x, mode, tol)[0])


_HALF_INTS = st.integers(0, 2**20).map(lambda v: v + 0.5)
_NEAR_2_53 = st.sampled_from([2.0**53 - 1, 2.0**53, 2.0**53 + 2, -0.0, 0.0, 0.5, 1.5])


@given(st.lists(st.one_of(st.floats(0, 2.0**60), st.integers(0, 2**53 + 4).map(float),
                          _HALF_INTS, _NEAR_2_53), min_size=1, max_size=9))
@example([2.0**53 - 1, 3.0])
@example([2.0**53, 3.0])
@example([2.0**53 + 2, 0.0])
@example([0.5, 2.0])
@example([-0.0, 1.0, 4.0])
@example([0.0, 1.0, 2.0, 7.0])
@settings(max_examples=300)
def test_as_ints_matches_the_reference(values):
    values = np.array(values)
    got, want = _as_ints(values), oracle.as_ints(values)
    assert got == want
    if got is not None:
        assert all(type(v) is int for v in got)
