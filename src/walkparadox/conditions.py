"""Walk-count inequalities behind the paradox guarantees.

Each check reports the two sides of an inequality, the slack, and a
verdict.  On unweighted graphs all quantities are exact rationals built
from integer walk totals, so equality cases (regular graphs, stars)
come out with slack exactly zero.  Weighted graphs use floats with a
1e-9 relative verdict tolerance.  Each check asks spectral for the walk
orders it needs; spectral keeps the pass on the graph, so a battery of
checks costs one pass to its highest order.

Some instances are theorem-guaranteed: the even-order product
inequality, every odd-order growth check on undirected graphs, and the
order-1 mixed check (Cauchy-Schwarz).  A guaranteed instance that fails
never returns a report; it raises TheoremViolationError, because the
mathematics leaves no room for the input to be at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphError, ParameterError, TheoremViolationError
from .graph import Graph
from .paradox import paradox_report
from .spectral import _walk_sums, dominant_eigenpair, walk_counts_through

__all__ = [
    "ConditionReport",
    "check_walk_growth",
    "check_lagarias",
    "check_spectral_directed",
    "check_mixed_walk_growth",
    "first_order_in_degree_term",
    "lagarias_scan",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ConditionReport:
    """One inequality instance: lhs >= rhs, slack = lhs - rhs."""

    condition_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    guaranteed: bool
    exact: dict | None = None
    details: dict | None = None


def _verdict(lhs, rhs, exact: bool) -> bool:
    slack = lhs - rhs
    if exact:
        return slack >= 0
    return slack >= -_REL_TOL * max(1.0, abs(lhs), abs(rhs))


def _report(cid, lhs, rhs, exact_mode, guaranteed, g, details=None) -> ConditionReport:
    slack = lhs - rhs
    holds = _verdict(lhs, rhs, exact_mode)
    # exact totals can outgrow a float, and a weighted w_k * w_1 can
    # overflow while both factors are finite
    try:
        values = float(lhs), float(rhs), float(slack)
    except OverflowError:
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{cid}: walk totals exceed the float range of a report")
    lhs_f, rhs_f, slack_f = values
    if guaranteed and not holds:
        raise TheoremViolationError.on(
            f"theorem-guaranteed condition {cid} failed with slack {slack_f!r}",
            g, lhs=lhs_f, rhs=rhs_f)
    exact = None
    if exact_mode:
        exact = {"lhs": Fraction(lhs), "rhs": Fraction(rhs), "slack": Fraction(slack)}
    return ConditionReport(
        condition_id=cid,
        lhs=lhs_f,
        rhs=rhs_f,
        slack=slack_f,
        holds=holds,
        guaranteed=guaranteed,
        exact=exact,
        details=details,
    )


def _growth_check(g: Graph, k: int, mixed: bool) -> ConditionReport:
    if not mixed and g.directed:
        raise GraphError("walk growth check is for undirected graphs; "
                         "see check_mixed_walk_growth")
    if k < 1:
        raise ParameterError("order k must be >= 1")
    exact = g.unweighted
    w, m = _walk_sums(g, k + (not mixed), mixed)
    rhs = Fraction(w[k] * w[1], g.n) if exact else w[k] * w[1] / g.n
    if mixed:
        guaranteed = k == 1 or (exact and not g.directed and k % 2 == 1)
        return _report(f"mixed_walk_growth(k={k})", m[k], rhs, exact, guaranteed, g)
    return _report(f"walk_growth(k={k})", w[k + 1], rhs, exact, exact and k % 2 == 1, g)


def check_walk_growth(g: Graph, k: int) -> ConditionReport:
    """Does the walk total at order k+1 dominate w_k * w_1 / n?

    This is the per-order sufficient condition for walk-series paradoxes
    on undirected graphs.  Odd k instances are theorem-guaranteed.
    """
    return _growth_check(g, k, mixed=False)


def _check_orders(r: int, s: int) -> None:
    if r < 1 or s < 1:
        raise ParameterError("orders r and s must be >= 1")


def check_lagarias(g: Graph, r: int, s: int) -> ConditionReport:
    """Product inequality n * w_{r+s} >= w_r * w_s.

    Guaranteed whenever r + s is even; odd orders are informational and
    may legitimately fail.
    """
    _check_orders(r, s)
    if g.directed:
        raise GraphError("the walk product inequality applies to undirected graphs")
    w = walk_counts_through(g, r + s)
    exact = g.unweighted
    return _report(f"lagarias(r={r},s={s})", g.n * w[r + s], w[r] * w[s], exact,
                   exact and (r + s) % 2 == 0, g)


def check_mixed_walk_growth(g: Graph, k: int) -> ConditionReport:
    """Mixed-walk condition 1^T A^T A^k 1 >= w_k * w_1 / n.

    The per-order sufficient condition for the in-degree paradox of
    broadcast walk series on digraphs.  k = 1 is Cauchy-Schwarz, hence
    guaranteed; on undirected graphs the check coincides exactly with
    check_walk_growth.
    """
    return _growth_check(g, k, mixed=True)


def check_spectral_directed(g: Graph, side: str = "left") -> ConditionReport:
    """Dominant eigenvalue versus mean directed degree.

    lambda_1 >= W/n holds if and only if the matching Perron-vector
    paradox holds (left vector against out-degrees, right against
    in-degrees), so the two verdicts are cross-checked here and any
    sign disagreement is treated as an implementation fault.
    """
    eig = dominant_eigenpair(g, side=side)  # validates side and irreducibility
    lhs = eig.eigenvalue
    rhs = g.total_weight / g.n
    mode = "out" if side == "left" else "in"
    rep = paradox_report(g, eig.vector, mode=mode, tol=_REL_TOL)
    slack = lhs - rhs
    band = _REL_TOL * max(1.0, abs(lhs), abs(rhs))
    if (slack > band and rep.gap < -band) or (slack < -band and rep.gap > band):
        raise TheoremViolationError.on(
            f"spectral condition and {mode}-degree paradox disagree in sign", g,
            eigenvalue=lhs, mean_degree=rhs, paradox_gap=rep.gap, side=side)
    details = {
        "eigenvalue": lhs,
        "residual": eig.residual,
        "paradox_mode": mode,
        "paradox_gap": rep.gap,
    }
    return _report(f"spectral_directed(side={side})", lhs, rhs, False, False, g, details)


def first_order_in_degree_term(g: Graph) -> float:
    """Leading coefficient of the small-alpha in-degree paradox gap.

    Returns w_2 - w_1^2/n: its sign decides whether broadcast Katz
    centrality satisfies the in-degree paradox for small enough alpha.
    Exact rational arithmetic on unweighted graphs, converted to float.
    """
    w = walk_counts_through(g, 2)
    if g.unweighted:
        return float(Fraction(w[2]) - Fraction(w[1] * w[1], g.n))
    return w[2] - w[1] * w[1] / g.n


def lagarias_scan(g: Graph, max_order: int) -> list[ConditionReport]:
    """All product-inequality instances with r <= s and r + s <= max_order.

    Informational survey: odd totals may fail, and for any fixed graph
    they are expected to stop failing beyond some graph-dependent order.
    Nothing here asserts; guaranteed instances still self-enforce.
    """
    if max_order < 2:
        raise ParameterError("max_order must be >= 2")
    return [check_lagarias(g, r, total - r) for total in range(2, max_order + 1)
            for r in range(1, total // 2 + 1)]
