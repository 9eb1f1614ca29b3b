"""Search harnesses for the open ends: parameter sweeps, violation
hunts, counterexample assembly, and batch theorem suites.

Nothing in this module asserts that a violation exists or that one
cannot; searches report what they saw.  The one hard stance taken is
the opposite one: whenever a theorem-guaranteed inequality fails inside
a suite run, the run aborts with a replayable dump, because that can
only mean a bug on this side of the mathematics.

The Katz sweep asks no Katz solve: one Lanczos run gives the spectral
measure of (A, 1) as a Gauss rule, and every gap on the grid is read
from it.

The exhaustive product-inequality search is the one harness that does
not go graph by graph while int64 holds its walk totals: it computes them
for blocks of up to 4,096 enumerated graphs at once, straight from their
edge bitmasks, and builds a Graph only for a graph it reports.  Past that
bound it checks each graph with check_lagarias, in exact integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .centrality import CentralitySpec, compute
from .conditions import _check_orders, check_lagarias, check_spectral_directed, check_walk_growth
from .errors import ConvergenceError, GraphError, ParameterError, TheoremViolationError
from .generators import FamilySpec, _connected_mask_blocks, _mask_graph, make, make_connected
from .graph import Graph, build, is_connected, is_regular, is_strongly_connected
from .paradox import (
    _check_tol,
    classic_friendship_paradox,
    directed_degree_report,
    paradox_report,
)
from .rng import derive_seed
from .spectral import (
    SeriesCoefficients,
    _resolvent_rule,
    dominant_eigenpair,
    odd_action,
    series_action,
)

__all__ = [
    "SweepResult",
    "SearchOutcome",
    "ViolationRecord",
    "SuiteSummary",
    "katz_alpha_sweep",
    "search_lagarias_violation",
    "exhaustive_lagarias_search",
    "replay_violation",
    "build_power_series_counterexample",
    "random_theorem_suite",
]


@dataclass(frozen=True)
class SweepResult:
    """Paradox gap across a grid of Katz parameters."""

    alphas: tuple
    gaps: tuple
    derivative_at_zero: float
    min_gap: float
    min_gap_alpha: float
    violations: tuple
    spectral_radius: float
    tol: float


def _measure_gaps(theta, omega, values, g: Graph) -> list:
    """Undirected paradox gaps d.x / w_1 - 1.x / n of x = f(A) 1, one per
    row of values = f(theta_j), from the spectral measure of (A, 1) with
    nodes theta_j and weights omega_j: 1^T f(A) 1 = sum_j omega_j f(theta_j)
    and d^T f(A) 1 = sum_j omega_j theta_j f(theta_j)."""
    return (values @ (omega * (theta / g.total_weight - 1.0 / g.n))).tolist()


def katz_alpha_sweep(g: Graph, grid_size: int = 20, tol: float = 1e-9) -> SweepResult:
    """Evaluate the degree-vs-Katz paradox at grid_size points.

    The grid is alpha_j = j / ((grid_size + 1) * lambda_1), j = 1..grid_size:
    strictly inside (0, 1/lambda_1), excluding both degenerate endpoints;
    lambda_1 is the graph's kept Perron root.  Every gap comes from one
    Lanczos run on A from 1/sqrt(n): the Katz vector x obeys
    d^T x = (1^T x - n) / alpha, so each gap is affine in
    1^T (I - alpha A)^{-1} 1, and the run stops once a Gauss and a
    Gauss-Radau rule bracket that sum within a few eps at every alpha
    (spectral._resolvent_rule).  The reported derivative at zero comes
    from the two smallest points, combined to cancel the quadratic term.
    """
    if g.directed:
        raise GraphError("the sweep is defined for undirected graphs")
    if not is_connected(g):
        raise GraphError("the sweep requires a connected graph")
    if grid_size < 2:
        raise ParameterError("grid_size must be >= 2")
    _check_tol(tol)
    rho = dominant_eigenpair(g).eigenvalue
    alphas = tuple(j / ((grid_size + 1) * rho) for j in range(1, grid_size + 1))
    grid = np.array(alphas)
    theta, omega = _resolvent_rule(g, grid, rho)
    gaps = _measure_gaps(theta, omega, 1.0 / (1.0 - np.outer(grid, theta)), g)
    # alphas[1] is exactly 2 * alphas[0]; with g(a) = c1 a + c2 a^2 + ...,
    # (4 g(a) - g(2a)) / (2a) = c1 + O(a^2).
    a1 = alphas[0]
    derivative = (4.0 * gaps[0] - gaps[1]) / (2.0 * a1)
    lowest = min(range(len(gaps)), key=gaps.__getitem__)
    violations = tuple(a for a, gp in zip(alphas, gaps) if gp < -tol)
    return SweepResult(
        alphas=alphas,
        gaps=tuple(gaps),
        derivative_at_zero=derivative,
        min_gap=gaps[lowest],
        min_gap_alpha=alphas[lowest],
        violations=violations,
        spectral_radius=rho,
        tol=tol,
    )


@dataclass(frozen=True)
class ViolationRecord:
    """A failing inequality instance, stored densely enough to replay."""

    trial: int
    n: int
    directed: bool
    edges: tuple
    condition_id: str
    slack: float


@dataclass(frozen=True)
class SearchOutcome:
    """What a violation hunt saw: how many graphs, the failures, the
    closest call."""

    r: int
    s: int
    trials: int
    violations: tuple
    min_slack: float
    family: str
    seed: int | None


def _record(trial: int, g: Graph, report) -> ViolationRecord:
    return ViolationRecord(
        trial=trial,
        n=g.n,
        directed=g.directed,
        edges=tuple(g.edges()),
        condition_id=report.condition_id,
        slack=report.slack,
    )


def _check_odd_order(r: int, s: int) -> None:
    if (r + s) % 2 == 0:
        raise ParameterError("even order is theorem-guaranteed; search odd r+s instead")


def search_lagarias_violation(spec: FamilySpec, r: int, s: int, trials: int) -> SearchOutcome:
    """Sample graphs from a family and test the odd-order product inequality.

    Even r + s is rejected outright: those instances are guaranteed, so
    searching them can only measure our own bugs.  Trial i uses seed
    derive_seed(spec.seed, i); outcomes are replayable from the stored
    edge lists alone.
    """
    _check_odd_order(r, s)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    violations = []
    for trial in range(trials):
        g = make(replace(spec, seed=derive_seed(spec.seed, trial)))
        if g.directed:
            raise ParameterError("the product inequality applies to undirected families")
        report = check_lagarias(g, r, s)
        min_slack = report.slack if trial == 0 else min(min_slack, report.slack)
        if not report.holds:
            violations.append(_record(trial, g, report))
    return SearchOutcome(
        r=r,
        s=s,
        trials=trials,
        violations=tuple(violations),
        min_slack=float(min_slack),
        family=spec.family,
        seed=spec.seed,
    )


def _block_walk_totals(n: int, pairs, masks, kmax: int) -> list:
    """Walk totals w_0..w_kmax, one int64 array each, for every graph in a
    block of edge masks (bit i set: edge pairs[i]).

    The block's walk vectors A^k 1 are the columns of one (n, B) array;
    A x adds, per pair, each endpoint's row into the other's wherever
    the pair's edge bit is set.
    """
    edge = [masks >> i & 1 != 0 for i in range(len(pairs))]
    x = np.ones((n, len(masks)), dtype=np.int64)
    totals = [x.sum(axis=0)]
    for _ in range(kmax):
        y = np.zeros_like(x)
        for (a, b), e in zip(pairs, edge):
            y[a] += e * x[b]
            y[b] += e * x[a]
        x = y
        totals.append(x.sum(axis=0))
    return totals


def exhaustive_lagarias_search(max_n: int, r: int, s: int) -> SearchOutcome:
    """Test every connected labeled graph up to max_n nodes.

    Trial i is the i-th graph of enumerate_connected(max_n).  While
    n^2 (n-1)^(r+s), which bounds both products, stays below 2^63, no
    graph is built to test it: walk totals and slacks n w_{r+s} - w_r w_s
    come in int64 for whole blocks of edge masks at once, and only a
    graph with negative slack is built and checked with check_lagarias
    for its record.  Past that bound every graph is checked with
    check_lagarias, whose walk totals are exact integers, so the first graph
    whose totals leave the float range raises its ParameterError.
    """
    _check_odd_order(r, s)
    blocks = _connected_mask_blocks(max_n)
    _check_orders(r, s)
    trials, violations, min_slack = 0, [], None
    for n, pairs, masks in blocks:
        if n * n * (n - 1) ** (r + s) < 2**63:
            w = _block_walk_totals(n, pairs, masks, r + s)
            slack = n * w[r + s] - w[r] * w[s]
            low, failed = slack.min(), np.flatnonzero(slack < 0).tolist()
        else:
            reports = [check_lagarias(_mask_graph(n, pairs, mask), r, s)
                       for mask in masks.tolist()]
            low = min(report.slack for report in reports)
            failed = [i for i, report in enumerate(reports) if not report.holds]
        min_slack = low if min_slack is None else min(min_slack, low)
        for i in failed:
            g = _mask_graph(n, pairs, int(masks[i]))
            violations.append(_record(trials + i, g, check_lagarias(g, r, s)))
        trials += len(masks)
    return SearchOutcome(
        r=r,
        s=s,
        trials=trials,
        violations=tuple(violations),
        min_slack=float(min_slack),
        family=f"exhaustive(max_n={max_n})",
        seed=None,
    )


def replay_violation(record: ViolationRecord, r: int, s: int):
    """Re-run the check on nothing but the stored edge list."""
    g = build(record.n, list(record.edges), directed=record.directed)
    return check_lagarias(g, r, s)


def build_power_series_counterexample(g: Graph, epsilon: float | None = None):
    """Turn an order-2 walk-growth violation into a failing centrality.

    With coefficients (1, eps, 1) the paradox gap numerator is
    eps * slack_1 + slack_2; slack_2 < 0 by assumption and slack_1 >= 0
    always, so any eps below |slack_2| / slack_1 flips the gap negative.
    Starts from half that bound (or the caller's eps) and halves until
    the recomputed report confirms gap < 0.

    Returns (coefficients, report); the report's holds flag is False.
    """
    rep1, rep2 = check_walk_growth(g, 1), check_walk_growth(g, 2)
    if rep2.holds:
        raise ParameterError(
            "graph does not violate the order-2 walk growth condition "
            f"(slack {rep2.slack!r}); nothing to build"
        )
    if epsilon is None:
        epsilon = -rep2.slack / (2.0 * rep1.slack) if rep1.slack > 0 else 1.0
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise ParameterError("epsilon must be positive")
    tol = 1e-9
    last = None
    for _ in range(40):
        coeffs = SeriesCoefficients((1.0, epsilon, 1.0))
        x = series_action(g, coeffs)
        report = paradox_report(g, x, mode="undirected", tol=tol)
        if report.gap < -tol:
            return coeffs, report
        last = report
        epsilon /= 2.0
    raise ConvergenceError(
        "could not certify a negative gap within 40 halvings of epsilon",
        residual=last.gap if last else float("nan"),
        best=last,
    )


@dataclass(frozen=True)
class SuiteSummary:
    """Tally of a clean suite run; theorem failures never produce one."""

    family: str
    trials: int
    failures: int
    checks: dict
    connectivity_retries: int
    seed: int
    tol: float


def _suite_undirected(g: Graph, tol: float, checks) -> None:
    classic = classic_friendship_paradox(g)
    checks["classic_paradox"] += 1
    if not classic.holds:
        raise TheoremViolationError.on("classic paradox failed", g, gap=classic.gap)
    regular, _ = is_regular(g)
    if not regular and classic.exact is not None and classic.exact["gap"] <= 0:
        raise TheoremViolationError.on("non-regular graph hit classic equality", g,
                                       gap=classic.gap)
    for check, name, x in (("eigenvector_paradox", "eigenvector", dominant_eigenpair(g).vector),
                           ("odd_series_paradox", "odd-series", odd_action(g, 1.0))):
        rep = paradox_report(g, x, mode="undirected", tol=tol)
        checks[check] += 1
        if not rep.holds:
            raise TheoremViolationError.on(f"{name} paradox failed", g, gap=rep.gap)
        if regular and abs(rep.gap) > 1e-8:
            raise TheoremViolationError.on(f"regular graph missed {name} equality", g,
                                           gap=rep.gap)


def _suite_directed(g: Graph, tol: float, checks) -> None:
    directed_degree_report(g)  # self-asserting universals
    checks["directed_universals"] += 1
    if is_strongly_connected(g):
        check_spectral_directed(g, "left")  # both cross-check internally
        check_spectral_directed(g, "right")
        checks["spectral_condition"] += 1
        out_regular, _ = is_regular(g, "out")
        if out_regular:
            x = compute(g, CentralitySpec("katz", direction="broadcast"))
            rep = paradox_report(g, x, mode="in", tol=tol)
            checks["out_regular_katz_equality"] += 1
            if abs(rep.gap) > 1e-8:
                raise TheoremViolationError.on("out-regular graph missed Katz equality", g,
                                               gap=rep.gap)


def random_theorem_suite(spec: FamilySpec, trials: int, tol: float = 1e-9) -> SuiteSummary:
    """Run every applicable guaranteed statement over sampled graphs.

    Undirected samples are conditioned on connectivity (retry counts are
    returned).  Any failed guarantee raises TheoremViolationError with
    the offending edge list; a summary is returned only when all trials
    pass, so failures == 0 by construction.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    _check_tol(tol)
    checks = Counter()
    retries = 0
    for trial in range(trials):
        trial_spec = replace(spec, seed=derive_seed(spec.seed, trial))
        probe = make(trial_spec)
        if probe.directed:
            _suite_directed(probe, tol, checks)
        elif is_connected(probe):
            _suite_undirected(probe, tol, checks)
        else:
            g, attempts = make_connected(trial_spec)
            retries += attempts
            _suite_undirected(g, tol, checks)
    return SuiteSummary(
        family=spec.family,
        trials=trials,
        failures=0,
        checks=dict(checks),
        connectivity_retries=retries,
        seed=spec.seed,
        tol=tol,
    )
