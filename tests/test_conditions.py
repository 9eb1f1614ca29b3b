import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

import walkparadox as wp
from walkparadox.errors import GraphError, ParameterError

import _oracles as oracle
from _strategies import graphs


def test_walk_growth_figure1():
    g = wp.figure1()
    c1 = wp.check_walk_growth(g, 1)
    assert c1.lhs == 42 and c1.rhs == Fraction(256, 8)
    assert c1.exact["slack"] == 10
    assert c1.holds and c1.guaranteed  # odd k on an unweighted graph

    c2 = wp.check_walk_growth(g, 2)
    assert c2.lhs == 96 and c2.rhs == Fraction(42 * 16, 8)
    assert c2.exact["slack"] == 12
    assert c2.holds and not c2.guaranteed
    assert c2.condition_id == "walk_growth(k=2)"


def test_walk_growth_star_is_tight_at_k2():
    # stars sit exactly on the boundary of the order-2 condition
    for m in range(3, 11):
        rep = wp.check_walk_growth(wp.star_undirected(m + 1), 2)
        assert rep.exact["slack"] == 0
        assert rep.holds


def test_walk_growth_validation():
    with pytest.raises(GraphError, match="mixed"):
        wp.check_walk_growth(wp.three_node(), 1)
    with pytest.raises(ParameterError, match=">= 1"):
        wp.check_walk_growth(wp.figure1(), 0)
    # exact totals past the float range, and a weighted w_k * w_1 that
    # overflows while w_{k+1} is finite, cannot be reported
    with pytest.raises(ParameterError, match=r"walk_growth\(k=190\): walk totals exceed"):
        wp.check_walk_growth(wp.complete(50), 190)
    weighted = wp.build(50, [(i, j, 1.01) for i in range(50) for j in range(i + 1, 50)])
    with pytest.raises(ParameterError, match="float range of a report"):
        wp.check_walk_growth(weighted, 179)


def test_walk_growth_fails_on_weighted_violator():
    g = oracle.weighted_growth_violator()
    rep = wp.check_walk_growth(g, 2)
    assert not rep.holds
    assert not rep.guaranteed  # weighted: no exactness, no guarantee
    assert rep.exact is None
    # confirm lhs/rhs against dense arithmetic
    a = oracle.dense_adjacency(g)
    one = a[0] * 0 + 1
    w1 = float(one @ (a @ one))
    w2 = float(one @ (a @ (a @ one)))
    w3 = float(one @ (a @ (a @ (a @ one))))
    assert rep.lhs == pytest.approx(w3, rel=1e-12)
    assert rep.rhs == pytest.approx(w2 * w1 / g.n, rel=1e-12)
    assert rep.slack < -1


@given(graphs(max_n=7, directed=False))
@settings(max_examples=60)
def test_walk_growth_odd_orders_hold(g):
    # guaranteed instances: odd k on unweighted undirected graphs
    for k in (1, 3, 5):
        rep = wp.check_walk_growth(g, k)
        assert rep.guaranteed and rep.holds
        assert rep.exact["slack"] >= 0


def test_lagarias_figure1_values():
    g = wp.figure1()
    rep = wp.check_lagarias(g, 1, 1)
    assert rep.lhs == 8 * 42 and rep.rhs == 16 * 16
    assert rep.exact["slack"] == 8 * 42 - 256
    assert rep.holds and rep.guaranteed
    assert rep.condition_id == "lagarias(r=1,s=1)"


def test_lagarias_star_tight_at_2_1():
    for m in range(3, 11):
        rep = wp.check_lagarias(wp.star_undirected(m + 1), 2, 1)
        assert rep.exact["slack"] == 0
        assert not rep.guaranteed  # odd total order
        assert rep.holds


def test_lagarias_validation():
    with pytest.raises(GraphError, match="undirected"):
        wp.check_lagarias(wp.three_node(), 1, 1)
    with pytest.raises(ParameterError):
        wp.check_lagarias(wp.figure1(), 0, 2)


@given(graphs(max_n=6, directed=False))
@settings(max_examples=80)
def test_lagarias_even_totals_hold(g):
    for r, s in ((1, 1), (2, 2), (1, 3), (2, 4), (3, 3)):
        rep = wp.check_lagarias(g, r, s)
        assert rep.guaranteed and rep.holds
        assert rep.exact["slack"] >= 0


def test_mixed_walk_growth_values():
    g = wp.hub_cycle(5)
    # d_out . d_out = 16 + 1 + 1 + 1 + 4 = 23 on (4,1,1,1,2)
    rep = wp.check_mixed_walk_growth(g, 1)
    assert rep.lhs == 23
    assert rep.exact["rhs"] == Fraction(9 * 9, 5)
    assert rep.holds and rep.guaranteed  # k = 1 is Cauchy-Schwarz


@given(graphs(max_n=8, weighted=True))
@settings(max_examples=60)
def test_mixed_walk_growth_k1_always_holds(g):
    rep = wp.check_mixed_walk_growth(g, 1)
    assert rep.guaranteed
    assert rep.holds


def test_mixed_equals_plain_on_undirected():
    g = wp.figure1()
    for k in (1, 2, 3):
        mixed = wp.check_mixed_walk_growth(g, k)
        plain = wp.check_walk_growth(g, k)
        assert mixed.lhs == plain.lhs
        assert mixed.rhs == plain.rhs


def test_spectral_directed_three_node():
    g = wp.three_node()
    for side in ("left", "right"):
        rep = wp.check_spectral_directed(g, side=side)
        assert not rep.holds
        assert rep.lhs == pytest.approx(1.3247179572447460, abs=1e-9)
        assert rep.rhs == pytest.approx(4 / 3)
        assert rep.details["paradox_gap"] < 0
        assert rep.details["residual"] <= 1e-10


def test_spectral_directed_fails_on_hub_cycle():
    # the hub family pins lambda_1 at the golden ratio (the chain-closure
    # recurrence) while the mean degree (3n-1)/n keeps growing, so the
    # condition fails at every size, matching its negative cross-covariance
    g = wp.hub_cycle(10)
    for side in ("left", "right"):
        rep = wp.check_spectral_directed(g, side=side)
        assert not rep.holds
        assert rep.lhs == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-8)
        assert rep.rhs == 1.9
        assert rep.details["paradox_gap"] < 0


def test_spectral_directed_holds_on_dense_digraph():
    g = wp.erdos_renyi_directed(12, 0.5, seed=1)
    assert wp.is_strongly_connected(g)
    for side in ("left", "right"):
        rep = wp.check_spectral_directed(g, side=side)
        assert rep.holds
        assert rep.details["paradox_gap"] > 0


def test_spectral_directed_validation():
    with pytest.raises(GraphError, match="strong"):
        wp.check_spectral_directed(wp.star_out(4))
    with pytest.raises(ParameterError, match="side"):
        wp.check_spectral_directed(wp.three_node(), side="top")


def test_first_order_term():
    assert wp.first_order_in_degree_term(wp.hub_cycle(10)) == -7.1
    assert wp.first_order_in_degree_term(wp.figure1()) == 10.0
    assert wp.first_order_in_degree_term(wp.directed_cycle(6)) == 0.0


def test_lagarias_scan_shape():
    reps = wp.lagarias_scan(wp.figure1(), 4)
    ids = [r.condition_id for r in reps]
    assert ids == [
        "lagarias(r=1,s=1)",
        "lagarias(r=1,s=2)",
        "lagarias(r=1,s=3)",
        "lagarias(r=2,s=2)",
    ]
    with pytest.raises(ParameterError):
        wp.lagarias_scan(wp.figure1(), 1)


def _weighted_figure1():
    return wp.build(8, [(i, j, 1.5) for i, j, _ in wp.figure1().edges()])


def test_batteries_make_one_walk_pass(monkeypatch, capsys):
    # every walk step is one _matvec, exact or float, so the products
    # counted here are the A x products the batteries pay
    import io
    import sys

    import walkparadox.cli as cli
    from walkparadox import spectral

    products = []
    matvec = spectral._matvec

    def counted(g, x):
        products.append(g.n)
        return matvec(g, x)

    monkeypatch.setattr(spectral, "_matvec", counted)

    def cost(call, *args):
        products.clear()
        call(*args)
        return len(products)

    for make in (_weighted_figure1, wp.figure1):
        g = make()
        # orders asked one at a time step on from the kept pass: 5 products,
        # where a pass per call would take 2 + 3 + 4 + 5 = 14
        assert cost(lambda: [wp.check_walk_growth(g, k) for k in range(1, 5)]) == 5
        assert cost(wp.lagarias_scan, make(), 8) == 8
        edges = wp.format_edge_list(g)
        # on an undirected graph the mixed sums are w_2..w_9 of the plain
        # pass, so --mixed adds no product
        for extra, expected in (([], 9), (["--mixed"], 9)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(edges))
            argv = ["conditions", "--graph", "-", "--max-k", "8", *extra]
            assert cost(lambda: cli.run(argv) == 0 or pytest.fail(argv)) == expected
    capsys.readouterr()


def _reprs(reports):
    # repr round-trips every float, so equal reprs mean bitwise equal numbers
    return [repr(r) for r in reports]


def test_batteries_match_single_order_checks(exhaustive6):
    # a graph whose kept pass already runs deeper answers every check and
    # total exactly as a fresh graph does
    pairs = [(r, t - r) for t in range(2, 7) for r in range(1, t // 2 + 1)]
    for g in exhaustive6[::27]:
        weighted = wp.build(g.n, [(i, j, 1.0 + 0.25 * ((i + 2 * j) % 5)) for i, j, _ in g.edges()])
        for h in (g, weighted):
            deep = oracle.rebuilt(h)
            wp.walk_counts_through(deep, 9)
            assert _reprs(wp.lagarias_scan(deep, 6)) == _reprs(
                [wp.check_lagarias(oracle.rebuilt(h), r, s) for r, s in pairs])
            assert _reprs(wp.check_walk_growth(deep, k) for k in range(1, 6)) == _reprs(
                wp.check_walk_growth(oracle.rebuilt(h), k) for k in range(1, 6))
            assert _reprs(wp.walk_counts_through(deep, 5)) == _reprs(
                wp.walk_counts_through(oracle.rebuilt(h), 5))
            arcs = [(i, j, w) if (i + j) % 2 else (j, i, w) for i, j, w in h.edges()]
            d = wp.build(h.n, arcs, directed=True)
            deep = oracle.rebuilt(d)
            wp.mixed_walk_count(deep, 9)
            assert _reprs(wp.check_mixed_walk_growth(deep, k) for k in range(1, 6)) == _reprs(
                wp.check_mixed_walk_growth(oracle.rebuilt(d), k) for k in range(1, 6))
            assert _reprs(wp.mixed_walk_count(deep, k) for k in range(6)) == _reprs(
                wp.mixed_walk_count(oracle.rebuilt(d), k) for k in range(6))


def test_conditions_battery_stops_at_the_first_refused_order(monkeypatch, capsys):
    # figure1's exact totals outgrow a float report at walk_growth(k=791);
    # the battery forms no order past the one that check needs
    import walkparadox.cli as cli
    from walkparadox import conditions, spectral

    asked = []
    walk_sums = spectral._walk_sums

    def counted(g, kmax, mixed=False):
        asked.append(kmax)
        return walk_sums(g, kmax, mixed)

    monkeypatch.setattr(spectral, "_walk_sums", counted)
    monkeypatch.setattr(conditions, "_walk_sums", counted)
    assert cli.run(["conditions", "--family", "figure1", "--max-k", "5000"]) == 2
    assert capsys.readouterr().err == (
        "error: walk_growth(k=791): walk totals exceed the float range of a report\n")
    assert max(asked) == 792
