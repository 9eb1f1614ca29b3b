import math

import numpy as np
import pytest
from hypothesis import given, settings

import walkparadox as wp
import walkparadox.spectral as spectral
from walkparadox import CentralitySpec, compute_centrality
from walkparadox.errors import GraphError, ParameterError

import _oracles as oracle
from _strategies import graphs


def test_degree_kind_and_labels():
    g = wp.figure1()
    vec = compute_centrality(g, CentralitySpec("degree"))
    assert vec.values.tolist() == [4, 1, 1, 1, 3, 2, 3, 1]
    assert vec.label == "degree"

    h = wp.hub_cycle(6)
    out = compute_centrality(h, CentralitySpec("degree", "broadcast"))
    inn = compute_centrality(h, CentralitySpec("degree", "receive"))
    assert out.label == "out-degree"
    assert inn.label == "in-degree"
    assert out.values.tolist() == [5, 1, 1, 1, 1, 2]
    assert inn.values.tolist() == [1, 2, 2, 2, 2, 2]


def test_undirected_direction_rejected_on_directed_graph():
    with pytest.raises(GraphError, match="broadcast"):
        compute_centrality(wp.three_node(), CentralitySpec("degree"))


def test_spec_validation():
    with pytest.raises(ParameterError, match="kind"):
        CentralitySpec("pagerank")
    with pytest.raises(ParameterError, match="direction"):
        CentralitySpec("degree", "sideways")
    with pytest.raises(ParameterError, match="coefficients"):
        CentralitySpec("power_series")
    with pytest.raises(ParameterError, match="alpha"):
        CentralitySpec("katz", alpha=-1.0)
    with pytest.raises(ParameterError, match="beta"):
        CentralitySpec("total", beta=0.0)
    # a parameter the kind never reads is refused, not dropped
    for kind, name, params in (
        ("degree", "alpha", {"alpha": 0.3}),
        ("degree", "tol", {"tol": 1e-9}),
        ("eigenvector", "beta", {"beta": 2.0}),
        ("katz", "beta", {"beta": 2.0}),
        ("katz", "coeffs", {"coeffs": (1.0, 2.0)}),
        ("total", "alpha", {"alpha": 0.3}),
        ("odd", "coeffs", {"coeffs": (1.0,)}),
        ("power_series", "tol", {"coeffs": (1.0,), "tol": 1e-9}),
        ("power_series", "beta", {"coeffs": (1.0,), "beta": 1.0}),
    ):
        with pytest.raises(ParameterError, match=f"{kind} takes no {name}"):
            CentralitySpec(kind, **params)
    # plain tuples are coerced
    spec = CentralitySpec("power_series", coeffs=(1.0, 2.0))
    assert spec.coeffs.values == (1.0, 2.0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0])
def test_spec_rejects_tol_outside_the_positive_reals(tol):
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        CentralitySpec("katz", tol=tol)


@given(graphs(max_n=7, directed=True, weighted=True))
@settings(max_examples=40, deadline=None)
def test_receive_equals_broadcast_on_transpose(g):
    # the estimate is transpose-symmetric, so both specs stay feasible
    alpha = 0.2 / wp.spectral_radius_estimate(g)
    spec_r = CentralitySpec("katz", "receive", alpha=alpha)
    spec_b = CentralitySpec("katz", "broadcast", alpha=alpha)
    lhs = compute_centrality(g, spec_r).values
    rhs = compute_centrality(wp.transpose(g), spec_b).values
    assert np.array_equal(lhs, rhs)


def test_eigenvector_directions():
    g = wp.three_node()
    b = compute_centrality(g, CentralitySpec("eigenvector", "broadcast"))
    r = compute_centrality(g, CentralitySpec("eigenvector", "receive"))
    a = oracle.dense_adjacency(g)
    lam = oracle.dominant_eigenvalue_dense(g)
    assert np.allclose(a @ b.values, lam * b.values, atol=1e-8)
    assert np.allclose(a.T @ r.values, lam * r.values, atol=1e-8)
    assert b.values.sum() == pytest.approx(3.0, abs=1e-12)


def test_katz_default_alpha_is_half_inverse_rho():
    g = wp.cycle(8)  # rho = 2, so the default is alpha = 0.25
    vec = compute_centrality(g, CentralitySpec("katz", "undirected"))
    ref = oracle.katz_dense(g, 0.25)
    assert np.allclose(vec.values, ref, rtol=1e-10)
    assert "alpha=0.25" in vec.label


def test_total_odd_even_defaults():
    g = wp.figure1()
    total = compute_centrality(g, CentralitySpec("total"))
    odd = compute_centrality(g, CentralitySpec("odd"))
    even = compute_centrality(g, CentralitySpec("even"))
    assert np.allclose(total.values, odd.values + even.values, rtol=1e-10)
    assert np.allclose(total.values, oracle.matrix_function_dense(g, 1.0, "exp"),
                       rtol=1e-10)


def test_power_series_compute():
    g = wp.figure1()
    vec = compute_centrality(
        g, CentralitySpec("power_series", coeffs=(2.0, 0.0, 1.0)))
    assert np.allclose(vec.values, oracle.series_dense(g, (2.0, 0.0, 1.0)),
                       rtol=1e-13)


def test_katz_degree_limit_check():
    diag = wp.katz_degree_limit_check(wp.figure1())
    assert diag.decreasing
    assert diag.deviations[-1] == min(diag.deviations)
    assert diag.max_deviation < 0.2
    with pytest.raises(ParameterError, match="decreasing"):
        wp.katz_degree_limit_check(wp.figure1(), alphas=(0.01, 0.02))
    with pytest.raises(ParameterError, match="nonempty"):
        wp.katz_degree_limit_check(wp.figure1(), alphas=())


def test_katz_degree_limit_directed():
    diag = wp.katz_degree_limit_check(wp.hub_cycle(7), direction="receive")
    assert diag.direction == "receive"
    assert diag.decreasing


def test_katz_eigenvector_limit_check():
    diag = wp.katz_eigenvector_limit_check(wp.figure1())
    assert diag.increasing
    assert diag.final_similarity >= 1.0 - 1e-6

    left = wp.katz_eigenvector_limit_check(wp.three_node(), side="receive")
    assert left.side == "left"
    assert left.final_similarity >= 1.0 - 1e-6
    with pytest.raises(ParameterError, match="side"):
        wp.katz_eigenvector_limit_check(wp.figure1(), side="middle")
    with pytest.raises(ParameterError, match="nonempty"):
        wp.katz_eigenvector_limit_check(wp.figure1(), alphas=())


def test_one_eigen_solve_per_katz_request(monkeypatch):
    calls = []
    solve = spectral.dominant_eigenpair

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "dominant_eigenpair", counted)
    compute_centrality(wp.figure1(), CentralitySpec("katz"))
    assert calls == [8]
    calls.clear()
    wp.katz_degree_limit_check(wp.figure1())
    assert calls == [8]
    calls.clear()
    wp.katz_degree_limit_check(wp.figure1(), alphas=(0.1, 0.01))
    assert calls == [8]


def test_katz_degree_limit_rejects_unknown_direction():
    with pytest.raises(ParameterError, match="unknown direction"):
        wp.katz_degree_limit_check(wp.figure1(), direction="sideways")
    with pytest.raises(GraphError, match="broadcast or receive"):
        wp.katz_degree_limit_check(wp.hub_cycle(5), direction="undirected")
