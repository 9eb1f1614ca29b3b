"""Sweeps, violation hunts, counterexample assembly, and the batch
theorem suite."""

import numpy as np
import pytest

import walkparadox as wp
from walkparadox import (
    ConvergenceError,
    FamilySpec,
    GraphError,
    ParameterError,
    ViolationRecord,
    build_power_series_counterexample,
    exhaustive_lagarias_search,
    katz_alpha_sweep,
    random_theorem_suite,
    replay_violation,
    search_lagarias_violation,
)

import _oracles as oracle


def test_sweep_on_hub_example():
    res = katz_alpha_sweep(wp.figure1(), grid_size=20)
    assert len(res.alphas) == 20 and len(res.gaps) == 20
    assert all(a2 > a1 for a1, a2 in zip(res.alphas, res.alphas[1:]))
    assert res.alphas[-1] < 1.0 / res.spectral_radius
    assert res.spectral_radius == pytest.approx(2.4465045374154455, abs=1e-9)
    # all Katz vectors on this graph obey the paradox strictly
    assert all(gp > 0 for gp in res.gaps)
    assert res.violations == ()
    assert res.min_gap == min(res.gaps)
    assert res.min_gap_alpha == res.alphas[res.gaps.index(res.min_gap)]
    # as alpha -> 0 the Katz gap slope approaches the degree-paradox gap
    assert res.derivative_at_zero == pytest.approx(0.625, abs=0.01)


def test_sweep_on_regular_graph_is_flat():
    res = katz_alpha_sweep(wp.cycle(8), grid_size=5)
    assert all(abs(gp) <= 1e-9 for gp in res.gaps)
    assert res.violations == ()


def test_sweep_validation():
    with pytest.raises(GraphError, match="undirected"):
        katz_alpha_sweep(wp.three_node())
    with pytest.raises(GraphError, match="connected"):
        katz_alpha_sweep(wp.build(4, [(0, 1), (2, 3)]))
    with pytest.raises(ParameterError, match="grid_size"):
        katz_alpha_sweep(wp.figure1(), grid_size=1)


def test_search_rejects_guaranteed_orders():
    spec = FamilySpec("erdos_renyi", n=10, p=0.4, seed=0)
    with pytest.raises(ParameterError, match="even order"):
        search_lagarias_violation(spec, 1, 1, trials=5)
    with pytest.raises(ParameterError, match="even order"):
        exhaustive_lagarias_search(4, 2, 2)


def test_search_rejects_directed_families():
    spec = FamilySpec("erdos_renyi_directed", n=8, p=0.4, seed=0)
    with pytest.raises(ParameterError, match="undirected"):
        search_lagarias_violation(spec, 1, 2, trials=3)


def test_search_is_deterministic():
    spec = FamilySpec("erdos_renyi", n=12, p=0.35, seed=7)
    a = search_lagarias_violation(spec, 1, 2, trials=25)
    b = search_lagarias_violation(spec, 1, 2, trials=25)
    assert a == b
    assert a.trials == 25 and a.family == "erdos_renyi" and a.seed == 7
    assert isinstance(a.min_slack, float)
    with pytest.raises(ParameterError, match="trials"):
        search_lagarias_violation(spec, 1, 2, trials=0)


def test_exhaustive_search_small_orders():
    out = exhaustive_lagarias_search(4, 1, 2)
    assert out.trials == 43  # 1 + 4 + 38 connected graphs on 2..4 nodes
    assert out.violations == ()
    assert out.min_slack == 0.0  # stars meet the bound exactly
    assert out.family == "exhaustive(max_n=4)" and out.seed is None


@pytest.mark.parametrize("rs", [(1, 2), (2, 1), (1, 4), (2, 3), (3, 4)])
@pytest.mark.parametrize("max_n", [2, 3, 4, 5, 6])
def test_exhaustive_search_matches_per_graph_reference(max_n, rs):
    assert exhaustive_lagarias_search(max_n, *rs) == oracle.exhaustive_search(max_n, *rs)


def test_exhaustive_search_exact_past_int64():
    # n^2 (n-1)^35 passes 2^63 at n = 5: int64 totals would wrap into ten
    # false violations with min slack -4.1e18
    out = exhaustive_lagarias_search(5, 1, 34)
    assert out == oracle.exhaustive_search(5, 1, 34)
    assert out.violations == () and out.min_slack == 0.0


@pytest.mark.parametrize("args", [(4, 1, 1000), (8, 0, 1), (4, 0, 1), (4, 2, 2), (1, 0, 1)])
def test_exhaustive_search_errors_match_reference(args):
    with pytest.raises(ParameterError) as expected:
        oracle.exhaustive_search(*args)
    with pytest.raises(ParameterError) as got:
        exhaustive_lagarias_search(*args)
    assert str(got.value) == str(expected.value)


def test_exhaustive_search_records_match_reference(monkeypatch):
    import walkparadox.conditions as conditions
    import walkparadox.explore as explore

    def doubled_w1(totals):
        # n w_3 >= 2 w_1 w_2 fails on every connected graph with n <= 5
        totals = list(totals)
        totals[1] = 2 * totals[1]
        return totals

    walks, block_walks = conditions.walk_counts_through, explore._block_walk_totals
    monkeypatch.setattr(conditions, "walk_counts_through",
                        lambda *a: doubled_w1(walks(*a)))
    monkeypatch.setattr(explore, "_block_walk_totals", lambda *a: doubled_w1(block_walks(*a)))
    out = exhaustive_lagarias_search(5, 1, 2)
    expected = oracle.exhaustive_search(5, 1, 2)
    assert len(out.violations) == out.trials == 771
    assert [(v.trial, v.edges, v.condition_id, v.slack) for v in out.violations] == [
        (v.trial, v.edges, v.condition_id, v.slack) for v in expected.violations]
    assert out == expected


def test_exhaustive_search_n7():
    out = exhaustive_lagarias_search(7, 1, 2)
    assert out.trials == 1_893_731  # A001187: 1 + 4 + 38 + 728 + 26704 + 1866256
    assert out.violations == () and out.min_slack == 0.0


def test_replay_round_trip():
    for g in (wp.figure1(), oracle.weighted_growth_violator()):
        rec = ViolationRecord(
            trial=0,
            n=g.n,
            directed=g.directed,
            edges=tuple(g.edges()),
            condition_id="lagarias(r=1,s=2)",
            slack=0.0,
        )
        direct = wp.check_lagarias(g, 1, 2)
        replayed = replay_violation(rec, 1, 2)
        assert replayed.lhs == direct.lhs
        assert replayed.rhs == direct.rhs
        assert replayed.slack == direct.slack


def test_counterexample_requires_a_violation():
    with pytest.raises(ParameterError, match="nothing to build"):
        build_power_series_counterexample(wp.figure1())


def test_counterexample_on_weighted_violator():
    g = oracle.weighted_growth_violator()
    coeffs, report = build_power_series_counterexample(g)
    assert coeffs.values[0] == 1.0 and coeffs.values[2] == 1.0
    assert 0 < coeffs.values[1] < 1
    assert not report.holds
    assert report.gap < -1e-9
    # independent dense route to the same gap
    x = oracle.series_dense(g, coeffs.values)
    deg = oracle.dense_adjacency(g).sum(axis=1)
    w = deg.sum()
    gap = float(deg @ x / w - x.sum() / g.n)
    assert report.gap == pytest.approx(gap, rel=1e-9)


def test_counterexample_custom_epsilon():
    g = oracle.weighted_growth_violator()
    coeffs, report = build_power_series_counterexample(g, epsilon=1e-4)
    assert coeffs.values[1] <= 1e-4
    assert report.gap < -1e-9
    with pytest.raises(ParameterError, match="positive"):
        build_power_series_counterexample(g, epsilon=-0.5)


def test_suite_on_random_undirected():
    spec = FamilySpec("erdos_renyi", n=25, p=0.15, seed=4)
    summary = random_theorem_suite(spec, trials=8)
    assert summary.failures == 0
    assert summary.checks["classic_paradox"] == 8
    assert summary.checks["eigenvector_paradox"] == 8
    assert summary.checks["odd_series_paradox"] == 8
    assert summary.connectivity_retries >= 0
    assert summary.trials == 8 and summary.seed == 4


def test_suite_on_regular_family_hits_equality_branches():
    spec = FamilySpec("k_regular_random", n=12, k=3, seed=1)
    summary = random_theorem_suite(spec, trials=5)
    assert summary.failures == 0
    assert summary.checks["classic_paradox"] == 5


def test_suite_on_directed_family():
    spec = FamilySpec("erdos_renyi_directed", n=12, p=0.25, seed=3)
    summary = random_theorem_suite(spec, trials=6)
    assert summary.failures == 0
    assert summary.checks["directed_universals"] == 6
    assert summary.checks.get("spectral_condition", 0) <= 6
    with pytest.raises(ParameterError, match="trials"):
        random_theorem_suite(spec, trials=0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_harnesses_reject_non_finite_tolerances(tol, monkeypatch):
    # rejected before any work: no eigenpair and no sample is computed
    def refuse(*args, **kwargs):
        raise AssertionError("work started before tol was checked")

    monkeypatch.setattr(wp.explore, "dominant_eigenpair", refuse)
    monkeypatch.setattr(wp.explore, "make", refuse)
    with pytest.raises(ParameterError, match="tol"):
        katz_alpha_sweep(wp.figure1(), tol=tol)
    with pytest.raises(ParameterError, match="tol"):
        random_theorem_suite(FamilySpec("erdos_renyi", n=8, p=0.5), trials=2, tol=tol)
