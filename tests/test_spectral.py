import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import walkparadox as wp
from walkparadox import spectral
from walkparadox.errors import ConvergenceError, GraphError, ParameterError

import _oracles as oracle
from _strategies import graphs


# ---------------------------------------------------------------- matvec


@given(graphs(weighted=True))
@settings(max_examples=60)
def test_apply_matches_dense(g):
    rng = wp.CounterRng(5)
    x = np.array([rng.uniform() for _ in range(g.n)])
    a = oracle.dense_adjacency(g)
    assert np.allclose(wp.apply(g, x).values, a @ x, rtol=1e-13, atol=1e-13)
    assert np.allclose(wp.apply(wp.transpose(g), x).values, a.T @ x,
                       rtol=1e-13, atol=1e-13)


def _weighted_ba():
    g = wp.barabasi_albert(10**4, 3, seed=1)
    return wp.build(g.n, [(i, j, 0.5 + (i * j) % 7 / 3) for i, j, _ in g.edges()])


@given(st.one_of(graphs(max_n=9), graphs(max_n=9, weighted=True)), st.data())
@settings(max_examples=120)
@example(wp.star_out(5), None)  # sink rows hold no arcs
@example(wp.build(7, [(0, 1, 2.5), (1, 2, 0.25), (2, 0, 3.0), (3, 4, 1.5)], directed=True), None)
@example(wp.build(7, [(0, 1), (1, 2), (2, 0), (3, 4)], directed=True), None)
@example(_weighted_ba(), None)
def test_matvec_matches_bincount_bit_for_bit(g, data):
    # the one product kernel adds each arc into its row in arc order, as
    # np.bincount does, so every float product keeps its bits
    if data is None:
        x = np.random.default_rng(g.n).uniform(-1e3, 1e3, g.n)
    else:
        x = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=g.n, max_size=g.n),
                               label="x"), dtype=float)
    assert spectral._matvec(g, x).tobytes() == oracle.matvec_bincount(g, x).tobytes()


def test_apply_rejects_wrong_length():
    with pytest.raises(GraphError, match="length"):
        wp.apply(wp.figure1(), [1.0, 2.0])


# ------------------------------------------------------------ eigenpairs


def test_eigen_known_values():
    assert wp.dominant_eigenpair(wp.cycle(9)).eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert wp.dominant_eigenpair(wp.complete(7)).eigenvalue == pytest.approx(6.0, abs=1e-9)
    assert wp.dominant_eigenpair(wp.star_undirected(10)).eigenvalue == pytest.approx(
        3.0, abs=1e-9)
    assert wp.dominant_eigenpair(wp.path(6)).eigenvalue == pytest.approx(
        2 * math.cos(math.pi / 7), abs=1e-9)
    assert wp.dominant_eigenpair(wp.directed_cycle(8)).eigenvalue == pytest.approx(
        1.0, abs=1e-9)


def test_eigen_result_contract_figure1():
    g = wp.figure1()
    res = wp.dominant_eigenpair(g, tol=1e-10)
    assert res.side == "right"
    assert res.vector.values.sum() == pytest.approx(8.0, abs=1e-12)
    assert (res.vector.values > 0).all()
    # the residual field must be the true 2-norm residual at this scale
    true_res = oracle.residual_dense(g, res.vector.values, res.eigenvalue)
    assert true_res <= 1e-10
    assert res.residual == pytest.approx(true_res, rel=1e-6, abs=1e-15)
    assert res.eigenvalue == pytest.approx(
        oracle.dominant_eigenvalue_dense(g), abs=1e-10)


@given(st.one_of([graphs(max_n=7, weighted=w, connected=True, directed=False)
                  for w in (True, False)]
                 + [graphs(max_n=6, weighted=True, connected=True, directed=True)]))
@settings(max_examples=60, deadline=None)
def test_eigen_matches_dense_eigensolver(g):
    assume(wp.is_strongly_connected(g))
    # both paths: _SMALL_N = 0 sends every graph to power iteration
    for small_n in (spectral._SMALL_N, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_SMALL_N", small_n)
            # generous max_iter: random weights can put lambda_2 close to lambda_1
            res = wp.dominant_eigenpair(g, tol=1e-11, max_iter=200_000)
        assert res.eigenvalue == pytest.approx(
            oracle.dominant_eigenvalue_dense(g), abs=1e-8)


def test_dense_solve_serves_every_graph_up_to_small_n(monkeypatch):
    dense_perron, calls = spectral._dense_perron, []

    def counted(g):
        calls.append(g.n)
        return dense_perron(g)

    monkeypatch.setattr(spectral, "_dense_perron", counted)
    small = spectral._SMALL_N
    for n in (3, small, small + 1):
        for directed in (False, True):
            weighted = wp.build(n, [(i, (i + 1) % n, 1.0 + i) for i in range(n)],
                                directed=directed)
            for g in (weighted, wp.cycle(n)):
                for side in ("right", "left"):
                    res = wp.dominant_eigenpair(g, side=side)
                    assert res.residual <= 1e-10
                    assert (res.iterations == 0) == (n <= small)
    assert calls == [3] * 8 + [small] * 8


def test_dense_series_serves_undirected_graphs_up_to_small_n(monkeypatch):
    dense_function, calls = spectral._dense_function, []

    def counted(g, beta, parity):
        calls.append(g.n)
        return dense_function(g, beta, parity)

    monkeypatch.setattr(spectral, "_dense_function", counted)
    small = spectral._SMALL_N
    for n in (3, small, small + 1):
        for g in (wp.cycle(n), wp.directed_cycle(n)):
            for action in (wp.exp_action, wp.odd_action, wp.even_action):
                action(g, 1.0)
    assert calls == [3] * 3 + [small] * 3


def _slot_graph(n, directed, weighted):
    """A cycle with chords, strongly connected when directed."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 3) % n) for i in range(0, n, 2)]
    return [(s, t, 1.0 + (s * t) % 5 / 4 if weighted else 1.0) for s, t in edges]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n, directed, eighs", [
    (spectral._SMALL_N, False, 1), (5, False, 1), (spectral._SMALL_N, True, 0),
    (spectral._SMALL_N + 1, False, 0)])
def test_one_kept_eigh_serves_every_dense_question(n, directed, eighs, weighted, monkeypatch):
    questions = {
        "right": lambda g: wp.dominant_eigenpair(g, side="right").vector,
        "left": lambda g: wp.dominant_eigenpair(g, side="left").vector,
        "exp": lambda g: wp.exp_action(g, 0.5),
        "odd": lambda g: wp.odd_action(g, 0.5),
        "even": lambda g: wp.even_action(g, 0.5),
    }
    edges = _slot_graph(n, directed, weighted)
    # each answer alone, from a fresh graph that has kept nothing
    alone = {name: ask(wp.build(n, edges, directed=directed)).values.tobytes()
             for name, ask in questions.items()}
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kw):
        calls.append(a.shape)
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    g = wp.build(n, edges, directed=directed)
    assert g.unweighted != weighted
    together = {name: ask(g).values.tobytes() for name, ask in questions.items()}
    assert len(calls) == eighs
    assert together == alone


def test_digraph_perron_roots_in_closed_form():
    # hub_cycle(10)'s Perron root is phi; three_node's is the real root
    # of x^3 - x - 1, the plastic number (Cardano's formula)
    with localcontext() as ctx:
        ctx.prec = 50
        phi = float((1 + Decimal(5).sqrt()) / 2)
        root = Decimal(69).sqrt()
        plastic = float(((9 + root) / 18) ** (Decimal(1) / 3)
                        + ((9 - root) / 18) ** (Decimal(1) / 3))
    assert (phi, plastic) == (1.618033988749895, 1.324717957244746)
    for g, exact in ((wp.hub_cycle(10), phi), (wp.three_node(), plastic)):
        for side in ("right", "left"):
            lam = wp.dominant_eigenpair(g, side=side).eigenvalue
            assert abs(lam - exact) <= 4 * math.ulp(exact), (g, side)


def test_eigen_left_right_directed():
    g = wp.three_node()
    right = wp.dominant_eigenpair(g, side="right")
    left = wp.dominant_eigenpair(g, side="left")
    # same spectrum either side
    assert right.eigenvalue == pytest.approx(left.eigenvalue, abs=1e-9)
    a = oracle.dense_adjacency(g)
    x = left.vector.values
    assert np.linalg.norm(a.T @ x - left.eigenvalue * x) <= 1e-10
    # left pair of g is the right pair of the transpose, bit for bit
    again = wp.dominant_eigenpair(wp.transpose(g), side="right")
    assert np.array_equal(again.vector.values, x)
    assert again.eigenvalue == left.eigenvalue


def test_eigen_requires_irreducibility():
    with pytest.raises(GraphError, match="irreducibility"):
        wp.dominant_eigenpair(wp.build(4, [(0, 1), (2, 3)]))
    with pytest.raises(GraphError, match="irreducibility"):
        wp.dominant_eigenpair(wp.star_out(4))


def test_eigen_parameter_validation():
    with pytest.raises(ParameterError, match="side"):
        wp.dominant_eigenpair(wp.figure1(), side="up")
    with pytest.raises(ParameterError, match="tol"):
        wp.dominant_eigenpair(wp.figure1(), tol=0.0)


def test_eigen_convergence_error_carries_best():
    # figure1 is solved densely, whose residual no tol of 1e-20 admits;
    # the n = 60 graph iterates and is stopped after two steps
    for g, kw, iterations in ((wp.figure1(), {"tol": 1e-20}, 0),
                              (wp.barabasi_albert(60, 2, seed=3), {"max_iter": 2}, 2)):
        with pytest.raises(ConvergenceError) as exc:
            wp.dominant_eigenpair(g, **kw)
        err = exc.value
        assert err.best is not None
        assert err.best.iterations <= iterations
        assert err.best.residual == err.residual > kw.get("tol", 1e-10)
        assert err.best.vector.values.sum() == pytest.approx(g.n, rel=1e-12)


def _bridged_path(w):
    # two unit edges joined by a bridge of weight w: the Perron vector is
    # symmetric, and the gap to the next eigenvalue is about w
    return wp.build(4, [(0, 1, 1.0), (1, 2, w), (2, 3, 1.0)])


def test_dense_eigen_refuses_a_gap_at_rounding_level():
    # at these bridges eigh returned [2, 2, 7.2e-21, 2.4e-21] and
    # [2, 2, 0, 0] with residuals below 1e-15
    for w in (1e-20, 1e-200):
        with pytest.raises(ConvergenceError, match="cannot separate") as exc:
            wp.dominant_eigenpair(_bridged_path(w))
        assert exc.value.best is not None
        assert exc.value.best.iterations == 0
        assert exc.value.best.residual == exc.value.residual
    res = wp.dominant_eigenpair(_bridged_path(1e-8))
    assert res.vector.values == pytest.approx([1.0] * 4, abs=1e-7)
    assert res.vector.values.min() > 0
    # the root itself is still known, so Katz parameters are still checked
    g = _bridged_path(1e-20)
    assert wp.spectral_radius_estimate(g) == 1.0
    assert wp.katz_action(g, 0.5).values == pytest.approx([2.0] * 4, rel=1e-12)


def test_spectral_radius_estimate():
    assert wp.spectral_radius_estimate(wp.cycle(5)) == pytest.approx(2.0, abs=1e-9)
    # reducible graphs fall back to the row/column sum bound
    assert wp.spectral_radius_estimate(wp.build(4, [(0, 1), (2, 3)])) == 1.0
    assert wp.spectral_radius_estimate(wp.star_out(5)) == 1.0


# ------------------------------------------------------------------ katz


@given(graphs(max_n=8, weighted=True))
@settings(max_examples=40, deadline=None)
def test_katz_matches_dense_solve(g):
    rho = wp.spectral_radius_estimate(g)
    alpha = 0.3 / max(rho, 1e-9)
    x = wp.katz_action(g, alpha, tol=1e-13)
    ref = oracle.katz_dense(g, alpha)
    assert np.allclose(x.values, ref, rtol=1e-9, atol=1e-11)


def test_katz_residual_contract():
    g = wp.figure1()
    alpha = 0.3
    x = wp.katz_action(g, alpha, tol=1e-12).values
    a = oracle.dense_adjacency(g)
    residual = np.linalg.norm((np.eye(8) - alpha * a) @ x - np.ones(8))
    assert residual <= 1e-12


def test_katz_transposed_equals_transpose_graph():
    g = wp.hub_cycle(8)
    x = wp.katz_action(wp.transpose(g), 0.2).values
    a = oracle.dense_adjacency(g)
    residual = np.linalg.norm((np.eye(g.n) - 0.2 * a.T) @ x - np.ones(g.n))
    assert residual <= 1e-12


def test_katz_alpha_validation():
    g = wp.cycle(6)  # rho exactly 2
    with pytest.raises(ParameterError, match="alpha exceeds"):
        wp.katz_action(g, 0.5)
    with pytest.raises(ParameterError, match="alpha exceeds"):
        wp.katz_action(g, 0.7)
    # 0.499999 * 2 sits inside the acceptance margin, so validation lets
    # it through; 1 is an eigenvector of every regular graph, so the
    # Krylov solve ends after one step at x = 1 / (1 - 2 alpha)
    x = wp.katz_action(g, 0.499999).values
    assert np.allclose(x, 1 / (1 - 2 * 0.499999), rtol=1e-9, atol=0)
    # a spent matvec budget surfaces as ConvergenceError, not ParameterError
    fig = wp.figure1()
    with pytest.raises(ConvergenceError) as info:
        wp.katz_action(fig, 0.99 / wp.spectral_radius_estimate(fig), max_iter=1)
    assert info.value.best is not None
    assert info.value.residual > 1e-12
    with pytest.raises(ParameterError, match="positive"):
        wp.katz_action(g, -0.1)
    # a caller-supplied spectral radius overrides the estimate
    with pytest.raises(ParameterError, match="alpha exceeds"):
        wp.katz_action(g, 0.4, spectral_radius=3.0)
    # but is checked: none of these admits alpha = 0.9 on figure1, where
    # alpha * rho is 2.2 and no Katz vector exists
    for rho in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ParameterError, match="spectral_radius must be positive"):
            wp.katz_action(fig, 0.9, spectral_radius=rho)


def _cycle_plus_random_arcs(n, k, seed):
    # strongly connected through the directed cycle
    rng = np.random.default_rng(seed)
    src, dst = np.repeat(np.arange(n), k), rng.integers(0, n, n * k)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    arcs |= {(int(s), int(t)) for s, t in zip(src, dst) if s != t}
    return wp.build(n, sorted(arcs), directed=True)


@pytest.mark.parametrize("factor", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("make", [
    lambda: wp.barabasi_albert(2000, 3, seed=1),
    lambda: _cycle_plus_random_arcs(2000, 3, seed=1),
], ids=["ba", "digraph"])
def test_katz_krylov_at_scale(make, factor, monkeypatch):
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    g = make()
    rho = wp.dominant_eigenpair(g).eigenvalue
    alpha = factor / rho
    matvec = spectral._matvec
    calls = []
    monkeypatch.setattr(spectral, "_matvec", lambda g, x: calls.append(1) or matvec(g, x))
    x = wp.katz_action(g, alpha, spectral_radius=rho).values
    monkeypatch.undo()
    # a geometric-series solve takes thousands of matvecs at 0.99 / rho
    assert len(calls) <= 200

    a = sparse.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    ref = linalg.spsolve((sparse.identity(g.n) - alpha * a).tocsc(), np.ones(g.n))
    assert np.max(np.abs(x - ref) / ref) <= 1e-10

    alpha_ax = alpha * matvec(g, x)
    residual = np.linalg.norm(1.0 - x + alpha_ax)
    floor = spectral._KATZ_FLOOR_C * np.finfo(float).eps * (
        np.linalg.norm(x) + np.linalg.norm(alpha_ax))
    assert residual <= max(1e-12, floor)


@pytest.mark.parametrize("factor", [0.9, 0.99, 0.999])
def test_katz_accepts_hub_rounding_noise(factor, monkeypatch):
    # the hub's row of A x sums 10^4 terms, whose rounding keeps the true
    # residual well above eps * (||x|| + alpha ||A x||) on every restart
    n = 10_000
    g = wp.star_undirected(n)
    alpha = factor / math.sqrt(n - 1)
    matvec = spectral._matvec
    calls = []
    monkeypatch.setattr(spectral, "_matvec", lambda g, x: calls.append(1) or matvec(g, x))
    x = wp.katz_action(g, alpha, spectral_radius=math.sqrt(n - 1)).values
    assert len(calls) <= 20
    hub = (1 + alpha * (n - 1)) / (1 - alpha * alpha * (n - 1))
    exact = np.full(n, 1 + alpha * hub)
    exact[0] = hub
    assert np.max(np.abs(x - exact) / exact) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda: wp.barabasi_albert(500, 3, seed=2),
    lambda: _cycle_plus_random_arcs(500, 3, seed=2),
], ids=["ba", "digraph"])
def test_katz_stall_raises_without_spending_max_iter(make, monkeypatch):
    # noise far above any rounding floor: no restart can lower the true
    # residual, and the solve must say so long before max_iter
    g = make()
    rho = wp.spectral_radius_estimate(g)
    matvec = spectral._matvec
    rng = np.random.default_rng(0)
    calls = []

    def noisy(g, x):
        calls.append(1)
        return matvec(g, x) + 1e-6 * rng.standard_normal(g.n)

    monkeypatch.setattr(spectral, "_matvec", noisy)
    with pytest.raises(ConvergenceError) as info:
        wp.katz_action(g, 0.9 / rho, spectral_radius=rho)
    assert len(calls) <= 1000
    assert info.value.residual > 1e-12
    assert info.value.best is not None


# -------------------------------------------------- exponential families


@given(graphs(max_n=7, weighted=True))
@settings(max_examples=40, deadline=None)
def test_matrix_functions_match_dense(g):
    # both paths: _SMALL_N = 0 sends every graph to the Taylor loop
    for small_n in (spectral._SMALL_N, 0):
        for name, action in (("exp", wp.exp_action), ("odd", wp.odd_action),
                             ("even", wp.even_action)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "_SMALL_N", small_n)
                got = action(g, 0.8, tol=1e-14).values
            ref = oracle.matrix_function_dense(g, 0.8, name)
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12), (name, small_n)


def test_exp_splits_into_odd_plus_even():
    g = wp.figure1()
    tol = 1e-12
    full = wp.exp_action(g, 1.0, tol=tol).values
    halves = wp.odd_action(g, 1.0, tol=tol).values + wp.even_action(g, 1.0, tol=tol).values
    scale = max(1.0, float(np.abs(full).max()))
    assert np.abs(full - halves).max() <= 2 * tol * scale


def _directed_twin(g):
    # the same arcs both ways on a digraph: the same CSR arrays, so the
    # same products, on the Taylor path that digraphs always take
    return wp.build(g.n, list(g.arcs()), directed=True)


def test_taylor_beta_validation_and_overflow():
    g = wp.complete(4)
    twin = _directed_twin(g)
    for h in (g, twin):
        with pytest.raises(ParameterError, match="beta"):
            wp.exp_action(h, -1.0)
    for action in (wp.exp_action, wp.odd_action, wp.even_action):
        with pytest.raises(ParameterError, match="overflowed at order 387;"):
            action(twin, 300.0)
        with pytest.raises(ParameterError, match="beta \\* lambda_1 = 900; use a smaller beta"):
            action(g, 300.0)


def _counted_matvec(monkeypatch):
    matvec, calls = spectral._matvec, []

    def counted(g, x):
        calls.append(g.n)
        return matvec(g, x)

    monkeypatch.setattr(spectral, "_matvec", counted)
    return calls


def test_taylor_refuses_beta_lambda_past_the_cap(monkeypatch):
    # on a star min_i (A^2 1)_i / 1 = n - 1 = lambda_1^2, so two products
    # prove beta * lambda_1 = 200 * sqrt(24999) past the 20,000-term cap
    calls = _counted_matvec(monkeypatch)
    g = wp.star_undirected(25_000)
    for action in (wp.exp_action, wp.odd_action, wp.even_action):
        with pytest.raises(ConvergenceError, match="20000 terms: beta \\* lambda_1 >= 31622.1$"):
            action(g, 200.0)
    assert len(calls) == 6
    monkeypatch.setattr(spectral, "_TAYLOR_CAP", 10)
    calls.clear()
    with pytest.raises(ConvergenceError, match="within 10 terms: beta \\* lambda_1 >= 19.97"):
        wp.exp_action(_directed_twin(wp.star_undirected(400)), 1.0)
    assert len(calls) == 2
    # lambda_1 = 7 is below the cap, but ten terms cannot prove tol 1e-12
    calls.clear()
    with pytest.raises(ConvergenceError, match="did not settle within 10 terms") as info:
        wp.exp_action(_directed_twin(wp.star_undirected(50)), 1.0)
    assert len(calls) == 10 and info.value.best.values.min() > 1.0


def _star_closed_form(n, beta):
    # 1 lies in the span of the hub and the leaf indicator, where A acts
    # as [[0, m], [1, 0]] with m = n - 1 leaves and (beta A)^2 as s^2 I
    m = n - 1
    s = beta * math.sqrt(m)
    sinh, cosh = math.sinh(s), math.cosh(s)
    pairs = {"exp": (cosh + math.sqrt(m) * sinh, cosh + sinh / math.sqrt(m)),
             "odd": (math.sqrt(m) * sinh, sinh / math.sqrt(m)),
             "even": (cosh, cosh)}
    out = {}
    for name, (hub, leaf) in pairs.items():
        out[name] = np.full(n, leaf)
        out[name][0] = hub
    return out


@pytest.mark.parametrize("n", [15_000, 25_000])
def test_taylor_answers_the_star_by_its_remainder_bound(n, monkeypatch):
    # beta * max row sum = n - 1 terms were once waited for; the remainder
    # bound needs about beta * lambda_1 = sqrt(n - 1) ~ 122-158
    calls = _counted_matvec(monkeypatch)
    g = wp.star_undirected(n)
    exact = _star_closed_form(n, 1.0)
    for name, action in (("exp", wp.exp_action), ("odd", wp.odd_action),
                         ("even", wp.even_action)):
        calls.clear()
        x = action(g, 1.0).values
        assert len(calls) <= 300, name
        # the hub's row sums n - 1 terms a product, which alone rounds by
        # up to n eps ~ 5.6e-12 relative; the truncation is within tol
        assert np.max(np.abs(x - exact[name]) / exact[name]) <= 1e-10, name


def _expm_oracle(g, beta, name):
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    a = sparse.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    up = linalg.expm_multiply(beta * a, np.ones(g.n))
    if name == "exp":
        return up
    down = linalg.expm_multiply(-beta * a, np.ones(g.n))
    return (up - down) / 2 if name == "odd" else (up + down) / 2


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("make", [
    lambda: wp.barabasi_albert(2000, 3, seed=1),
    lambda: wp.erdos_renyi_directed(300, 0.02, seed=7),  # two sinks
    lambda: wp.build(300, [(i, j, 0.5 + ((i * j) % 7) / 4) for i, j, _ in
                           wp.barabasi_albert(300, 3, seed=2).edges()]),
], ids=["ba", "directed-er", "weighted-ba"])
def test_taylor_stops_within_tol_of_expm_multiply(make, tol):
    # the remainder bound holds entry by entry, so every entry is within
    # tol of the oracle, on digraphs with sinks too
    g = make()
    for name, action in (("exp", wp.exp_action), ("odd", wp.odd_action),
                         ("even", wp.even_action)):
        x = action(g, 1.5, tol=tol).values
        ref = _expm_oracle(g, 1.5, name)
        assert np.all(np.abs(x - ref) <= tol * ref), (name, np.max(np.abs(x - ref) / ref))


def test_action_labels():
    g = wp.figure1()
    assert wp.exp_action(g, 1.0).label == "total[beta=1]"
    assert wp.odd_action(g, 2.5).label == "odd[beta=2.5]"
    assert wp.even_action(g, 1.0).label == "even[beta=1]"
    assert wp.katz_action(g, 0.25).label == "katz[alpha=0.25]"


# ------------------------------------------------------------ series


def test_series_action_matches_dense():
    g = wp.figure1()
    coeffs = wp.SeriesCoefficients((1.0, 0.5, 0.25, 0.125))
    got = wp.series_action(g, coeffs).values
    ref = oracle.series_dense(g, coeffs.values)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)
    assert coeffs.order == 3


def test_series_coefficient_validation():
    with pytest.raises(ParameterError, match="nonempty"):
        wp.SeriesCoefficients(())
    with pytest.raises(ParameterError, match="nonnegative"):
        wp.SeriesCoefficients((1.0, -0.5))
    with pytest.raises(ParameterError, match="positive"):
        wp.SeriesCoefficients((0.0, 0.0))


# ------------------------------------------------------------ walk counts


def test_walk_counts_figure1():
    assert wp.walk_counts_through(wp.figure1(), 4) == [8, 16, 42, 96, 246]
    assert wp.walk_count(wp.figure1(), 3) == 96
    assert isinstance(wp.walk_count(wp.figure1(), 3), int)


def test_walk_orders_must_be_integers():
    g, d = wp.figure1(), wp.star_out(4)
    walks = [lambda k: wp.walk_count(g, k), lambda k: wp.walk_counts_through(g, k),
             lambda k: wp.mixed_walk_count(d, k)]
    checks = [lambda k: wp.check_walk_growth(g, k), lambda k: wp.check_mixed_walk_growth(d, k),
              lambda k: wp.check_lagarias(g, k, 1)]
    for call in walks + checks:
        # the checks compare their orders with 1 before any walk
        for k in (1.5, 2.0) + (("3", None) if call in walks else ()):
            with pytest.raises(ParameterError, match="walk order must be a nonnegative integer"):
                call(k)
        call(np.int64(2))  # numpy integers stay orders
    assert wp.walk_count(g, np.int64(3)) == 96


@given(graphs(max_n=7))
@settings(max_examples=50)
def test_walk_counts_match_int_oracle(g):
    counts = wp.walk_counts_through(g, 5)
    for k in range(6):
        assert counts[k] == oracle.walk_total_int(g, k)


@given(graphs(max_n=7))
@settings(max_examples=50)
def test_mixed_walk_counts_match_int_oracle(g):
    for k in range(5):
        assert wp.mixed_walk_count(g, k) == oracle.mixed_total_int(g, k)


def test_mixed_walk_pass_forms_a1_once(monkeypatch):
    g = wp.build(4, [(i, (i + 1) % 4, 0.5 + i) for i in range(4)], directed=True)
    a = oracle.dense_adjacency(g)
    a4 = np.linalg.matrix_power(a, 4)
    calls = _counted_matvec(monkeypatch)
    assert wp.walk_counts_through(g, 4)[4] == pytest.approx(a4.sum(), rel=1e-12)
    assert len(calls) == 4
    # 1^T A^T A^4 1 takes the same four products: A 1 is the first walk vector
    assert wp.mixed_walk_count(g, 4) == pytest.approx(a.sum(axis=1) @ a4.sum(axis=1), rel=1e-12)
    assert len(calls) == 8


@given(graphs(max_n=7, weighted=True))
@settings(max_examples=40)
def test_weighted_walk_counts_match_dense(g):
    a = oracle.dense_adjacency(g)
    x = np.ones(g.n)
    for k in range(5):
        assert wp.walk_count(g, k) == pytest.approx(float(x.sum()), rel=1e-12)
        x = a @ x


@given(graphs(max_n=7, weighted=False))
@settings(max_examples=40)
def test_walk_counts_transpose_invariant(g):
    h = wp.transpose(g)
    for k in range(5):
        assert wp.walk_count(g, k) == wp.walk_count(h, k)


@given(graphs(max_n=7, weighted=True))
@settings(max_examples=40)
def test_walk_counts_transpose_close_weighted(g):
    # float summation order differs between A and A^T, so only the
    # integer path promises bitwise agreement
    h = wp.transpose(g)
    for k in range(5):
        assert math.isclose(wp.walk_count(g, k), wp.walk_count(h, k), rel_tol=1e-12)


def test_walk_count_overflow_weighted():
    g = wp.build(2, [(0, 1, 1e300)])
    with pytest.raises(ParameterError, match="overflow"):
        wp.walk_counts_through(g, 3)


def test_walk_lists_are_copies_of_the_kept_pass():
    g = wp.figure1()
    counts = wp.walk_counts_through(g, 4)
    counts[2] = -1
    counts.append(0)
    sums = spectral._walk_sums(g, 3, mixed=True)[1]
    sums[0] = -1
    assert wp.walk_counts_through(g, 4) == [8, 16, 42, 96, 246]
    assert wp.walk_counts_through(g, 6)[:5] == [8, 16, 42, 96, 246]
    assert spectral._walk_sums(g, 3, mixed=True)[1] == [
        oracle.mixed_total_int(g, k) for k in range(4)]


def test_walk_pass_refusal_leaves_the_kept_pass_usable():
    # K_50 with weights 1.01: w_k ~ 50 * 49.49^k leaves the float range
    # at a high order; find it on one graph, then probe another
    edges = [(i, j, 1.01) for i in range(50) for j in range(i + 1, 50)]
    probe, g = wp.build(50, edges), wp.build(50, edges)
    top = next(k for k in range(1, 400) if _refusal(lambda: wp.walk_counts_through(probe, k)))
    assert 150 < top < 200
    message = _refusal(lambda: wp.walk_counts_through(g, top + 20))
    assert "walk count overflow" in message
    below = wp.walk_counts_through(wp.build(50, edges), top - 1)
    assert repr(wp.walk_counts_through(g, top - 1)) == repr(below)
    assert _refusal(lambda: wp.walk_counts_through(g, top)) == message
    # the same holds for a report whose w_k * w_1 overflows first
    k = next(k for k in range(1, top) if _refusal(lambda: wp.check_walk_growth(probe, k)))
    report = _refusal(lambda: wp.check_walk_growth(g, k))
    assert report == f"walk_growth(k={k}): walk totals exceed the float range of a report"
    assert wp.check_walk_growth(g, 3) == wp.check_walk_growth(wp.build(50, edges), 3)
    assert _refusal(lambda: wp.check_walk_growth(g, k)) == report


def _refusal(call):
    """The ParameterError text of call, or None if it returns."""
    try:
        call()
    except ParameterError as exc:
        return str(exc)
    return None


def test_large_int_walk_counts_stay_exact():
    # 60 steps on K60: counts ~ 59^60, far beyond float precision; the
    # walk leaves int64 for Python ints near k = 8, so every order counts
    g = wp.complete(60)
    counts = wp.walk_counts_through(g, 60)
    assert counts == [60 * 59**k for k in range(61)]
    assert all(type(c) is int for c in counts)
    # an irregular digraph whose mixed sums pass 2^63 at k = 16
    d = wp.build(16, [(i, j) for i in range(16) for j in range(16)
                      if i != j and (i * j + i + j) % 5], directed=True)
    sums = [wp.mixed_walk_count(d, k) for k in range(25)]
    assert sums == [oracle.mixed_total_int(d, k) for k in range(25)]
    assert all(type(s) is int for s in sums) and sums[0] < 2**63 < sums[-1]


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("solve", [
    lambda g, tol: wp.dominant_eigenpair(g, tol=tol),
    lambda g, tol: wp.katz_action(g, 0.05, tol=tol),
    lambda g, tol: wp.exp_action(g, 1.0, tol=tol),
    lambda g, tol: wp.odd_action(g, 1.0, tol=tol),
    lambda g, tol: wp.even_action(g, 1.0, tol=tol),
], ids=["eigen", "katz", "exp", "odd", "even"])
def test_solvers_reject_non_finite_tol(solve, tol):
    # an infinite tol used to end the eigen solve after one step with
    # eigenvalue 3.06 on this graph, where the true value is 8.99
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        solve(wp.barabasi_albert(200, 2, seed=1), tol)


# ------------------------------------------------------ kept Perron pairs


def _digraph300():
    return _cycle_plus_random_arcs(300, 3, seed=4)


def _counted_searches(monkeypatch):
    searches, reaches_all = [], wp.graph._reaches_all
    monkeypatch.setattr(wp.graph, "_reaches_all",
                        lambda *args: searches.append(1) or reaches_all(*args))
    return searches


@pytest.mark.parametrize("make", [lambda: wp.barabasi_albert(300, 3, seed=5), _digraph300,
                                  wp.figure1], ids=["ba", "digraph", "figure1"])
def test_kept_perron_pairs_match_a_fresh_graph(make):
    g = make()
    for side in ("right", "left"):
        first = wp.dominant_eigenpair(g, side=side)
        assert wp.dominant_eigenpair(g, side=side) is first
        fresh = wp.dominant_eigenpair(oracle.rebuilt(g), side=side)
        assert repr(first) == repr(fresh)
        assert np.array_equal(first.vector.values, fresh.vector.values)


def test_repeat_questions_make_no_product_and_no_search(monkeypatch):
    d, u = _digraph300(), wp.barabasi_albert(300, 3, seed=5)
    calls, searches = _counted_matvec(monkeypatch), _counted_searches(monkeypatch)
    reports = [wp.check_spectral_directed(d, side) for side in ("left", "right")]
    first = wp.dominant_eigenpair(u)
    assert calls and searches
    calls.clear()
    searches.clear()
    assert [wp.check_spectral_directed(d, side) for side in ("left", "right")] == reports
    assert wp.dominant_eigenpair(u) is first
    assert wp.spectral_radius_estimate(u) == first.eigenvalue
    assert wp.dominant_eigenpair(u, max_iter=first.iterations) is first
    assert calls == [] and searches == []
    # a sweep reads the kept pair: its only products are its Lanczos steps
    sweep = wp.katz_alpha_sweep(u)
    assert sweep.spectral_radius == first.eigenvalue
    assert 0 < len(calls) <= 40 and searches == []


def test_a_smaller_max_iter_refuses_as_a_fresh_graph_does():
    g = wp.barabasi_albert(300, 3, seed=5)
    kept = wp.dominant_eigenpair(g)
    assert kept.iterations > 1
    refusals = []
    for h in (g, oracle.rebuilt(g)):
        with pytest.raises(ConvergenceError) as info:
            wp.dominant_eigenpair(h, max_iter=kept.iterations - 1)
        refusals.append((str(info.value), info.value.residual, repr(info.value.best),
                         info.value.best.vector.values.tobytes()))
    assert refusals[0] == refusals[1]
    # the refusal is not kept, and the kept pair still answers
    assert wp.dominant_eigenpair(g) is kept


def test_a_different_tol_makes_its_own_solve(monkeypatch):
    g = wp.barabasi_albert(300, 3, seed=5)
    kept = wp.dominant_eigenpair(g)
    calls = _counted_matvec(monkeypatch)
    loose = wp.dominant_eigenpair(g, tol=1e-6)
    assert len(calls) == loose.iterations > 0
    assert loose is not kept and loose.iterations < kept.iterations
    assert wp.dominant_eigenpair(g, tol=1e-6) is loose
    assert wp.dominant_eigenpair(g) is kept


def test_kept_pairs_keep_validation_first(monkeypatch):
    g = wp.barabasi_albert(300, 3, seed=5)
    wp.dominant_eigenpair(g)
    for kwargs, match in (({"side": "up"}, "side"), ({"tol": 0.0}, "tol"),
                          ({"max_iter": 0}, "max_iter")):
        with pytest.raises(ParameterError, match=match):
            wp.dominant_eigenpair(g, **kwargs)
    split = wp.build(20, [(i, i + 1) for i in range(9)] + [(i, i + 1) for i in range(10, 19)])
    for _ in range(2):
        for side in ("right", "left"):
            with pytest.raises(GraphError, match="irreducibility"):
                wp.dominant_eigenpair(split, side=side)
    assert split._perron_pairs == {}


@pytest.mark.parametrize("max_iter", [0, -5, 2.5])
@pytest.mark.parametrize("solve", [
    lambda g, max_iter: wp.dominant_eigenpair(g, max_iter=max_iter),
    lambda g, max_iter: wp.katz_action(g, 0.1, max_iter=max_iter),
], ids=["eigen", "katz"])
def test_solvers_reject_max_iter_below_one_or_fractional(solve, max_iter):
    with pytest.raises(ParameterError, match="max_iter must be an integer >= 1"):
        solve(wp.figure1(), max_iter)


@pytest.mark.parametrize("n", [1, 2, 3, 13, 45, 300, 1000, 10**4, 12345, 10**6])
def test_start_vector_is_the_sequential_sum_formula(n):
    assert spectral._start_vector(n).tobytes() == oracle.start_vector(n).tobytes()
