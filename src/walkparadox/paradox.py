"""Averages-over-nodes versus averages-over-neighbours, and the gap
between them.

The inequality under test compares d.x/||d||_1 (the degree-weighted
attribute mean, i.e. what an average incident edge sees) with
||x||_1/n (the plain node mean).  A nonnegative gap means the paradox
holds for that attribute.  The same quantity equals Cov(d, x)/mean(d),
and the two forms must agree, or the report is refused as an internal
error.  In floats they are computed from two routes to d.x and must
agree to 1e-9 relative.

Unweighted graphs with integer-valued attributes (degree measures, most
importantly) take an exact path on the integer sums n, sd = ||d||_1,
sx = ||x||_1 and dx = d.x.  Both forms of the gap are (n dx - sd sx)
over n sd, and they are compared as integer cross-products; the
tolerance verdicts are integer comparisons too.  The report's exact
fields are Fractions built from these integers, so textbook values like
2 and 2.625 come out as the rationals 16/8 and 42/16 rather than
approximations, and each float field is the correctly rounded quotient
of the same integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GraphError, ParameterError, TheoremViolationError
from .graph import (
    Graph,
    NodeVector,
    _oriented,
    degree_vector,
    in_degree_vector,
    int_out_degrees,
    out_degree_vector,
)

__all__ = [
    "ParadoxReport",
    "DirectedDegreeReport",
    "node_average",
    "neighbour_average",
    "paradox_report",
    "directed_degree_report",
    "classic_friendship_paradox",
]

_MODES = ("undirected", "out", "in")

# Exact-path guard: float attribute values must be integers small enough
# to be represented without rounding.
_INT_LIMIT = 2**53


@dataclass(frozen=True)
class ParadoxReport:
    """One paradox evaluation: both averages, the gap, and the verdicts.

    exact carries Fraction counterparts of the four numeric fields when
    the computation ran in rational arithmetic, else None.
    """

    mode: str
    measure_label: str
    node_average: float
    neighbour_average: float
    gap: float
    covariance_form: float
    holds: bool
    equality: bool
    tol: float
    exact: dict | None = None


@dataclass(frozen=True)
class DirectedDegreeReport:
    """The four directed degree paradoxes plus their shared covariance.

    Keys: out_out and in_in (guaranteed to hold, enforced here) and the
    cross pairings out_in / in_out, whose common sign is the sign of
    Cov(d_out, d_in).
    """

    reports: dict
    covariance: float
    covariance_exact: Fraction | None
    tol: float

    def gap(self, key: str) -> float:
        return self.reports[key].gap


def _values(x) -> np.ndarray:
    if isinstance(x, NodeVector):
        return x.values  # finite by construction
    values = np.asarray(x, dtype=float)
    if not np.isfinite(values).all():
        raise ParameterError("attribute entries must be finite")
    return values


def _check_attribute(g: Graph, x) -> np.ndarray:
    values = _values(x)
    if values.shape != (g.n,):
        raise GraphError(f"attribute length {values.shape} does not match n={g.n}")
    if (values < 0).any():
        raise ParameterError("attribute entries must be nonnegative")
    return values


def _as_ints(values: np.ndarray) -> list[int] | None:
    """The entries of a nonempty nonnegative array as Python ints when
    all are integers below 2^53, else None."""
    if not (np.rint(values) == values).all() or values.max() >= _INT_LIMIT:
        return None
    return values.astype(np.int64).tolist()


def _sampler(g: Graph, mode: str) -> Graph:
    """The graph whose out-degrees weight the neighbour average in mode."""
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}: {mode!r}")
    return _oriented(g, mode)


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ParameterError(f"tol must be finite and nonnegative: {tol!r}")


def node_average(x) -> float:
    """Plain mean of a nonnegative attribute."""
    values = _values(x)
    if (values < 0).any():
        raise ParameterError("attribute entries must be nonnegative")
    if values.shape[0] == 0:
        raise ParameterError("attribute must have at least one entry")
    return float(values.sum()) / values.shape[0]


def neighbour_average(g: Graph, x, mode: str = "undirected") -> float:
    """Degree-weighted mean d.x/||d||_1, with d chosen by mode."""
    values = _check_attribute(g, x)
    d = _sampler(g, mode)._out_degrees
    return float(d @ values) / float(d.sum())


def _evaluate(g: Graph, x, mode: str, tol: float) -> tuple[ParadoxReport, float | Fraction]:
    """The report for attribute x, and Cov(d, x) over the node distribution.

    The exact path (unweighted graph, integer-valued x) works on integer
    degree and attribute sums: the gap dx/sd - sx/n and the covariance
    form Cov(d, x)/mean(d) are both (n dx - sd sx) over n sd, reached by
    two routes and compared by cross-multiplication.  Otherwise floats on
    arrays, and the two must agree to 1e-9 relative.
    """
    _check_tol(tol)
    values = _check_attribute(g, x)
    sampler = _sampler(g, mode)
    label = getattr(x, "label", "") or "attribute"
    n = g.n
    ints = _as_ints(values) if g.unweighted else None
    if ints is not None:
        d = int_out_degrees(sampler)
        sd, sx = g.arc_count, sum(ints)
        dx = sum(map(operator.mul, d, ints))
        # the gap dx/sd - sx/n over n sd, and the covariance form:
        # n^2 Cov(d, x) = n dx - sd sx, over mean(d) = sd/n
        num, den = dx * n - sx * sd, n * sd
        cov = n * dx - sd * sx
        if num * (n * n * sd) != cov * n * den:
            raise TheoremViolationError.on(
                f"gap {Fraction(num, den)} and covariance form "
                f"{Fraction(cov * n, n * n * sd)} disagree", g,
                mode=mode, measure=label, attribute=values.tolist())
        tn, td = tol.as_integer_ratio()
        gap = Fraction(num, den)
        return ParadoxReport(
            mode=mode,
            measure_label=label,
            node_average=sx / n,  # int / int rounds as float() of the Fraction would
            neighbour_average=dx / sd,
            gap=num / den,
            covariance_form=num / den,
            holds=num * td >= -tn * den,
            equality=abs(num) * td <= tn * den,
            tol=tol,
            exact={
                "node_average": Fraction(sx, n),
                "neighbour_average": Fraction(dx, sd),
                "gap": gap,
                "covariance_form": gap,
            },
        ), Fraction(cov, n * n)
    d = sampler._out_degrees
    sd, sx = float(d.sum()), float(values.sum())
    # Two routes to sum(d * x): the gap takes the dot product and the
    # covariance the elementwise sum, so their agreement checks something.
    dx, dx_cov = float(d @ values), float((d * values).sum())
    node_avg = sx / n
    neigh_avg = dx / sd
    gap = neigh_avg - node_avg
    mean_d = sd / n
    cov = dx_cov / n - mean_d * node_avg
    cov_form = cov / mean_d
    scale = max(1.0, abs(gap), abs(cov_form), abs(node_avg), abs(neigh_avg))
    if abs(gap - cov_form) > 1e-9 * scale:
        raise TheoremViolationError.on(f"gap {gap} and covariance form {cov_form} disagree", g,
                                       mode=mode, measure=label, attribute=values.tolist())
    return ParadoxReport(
        mode=mode,
        measure_label=label,
        node_average=node_avg,
        neighbour_average=neigh_avg,
        gap=gap,
        covariance_form=cov_form,
        holds=gap >= -tol,
        equality=abs(gap) <= tol,
        tol=tol,
    ), cov


def paradox_report(g: Graph, x, mode: str = "undirected", tol: float = 1e-9) -> ParadoxReport:
    """Full evaluation of the generalized paradox for attribute x."""
    return _evaluate(g, x, mode, tol)[0]


def classic_friendship_paradox(g: Graph, tol: float = 1e-9) -> ParadoxReport:
    """Degree-versus-degree paradox; exact rationals on unweighted graphs."""
    if g.directed:
        raise GraphError("classic paradox is undirected; see directed_degree_report")
    return paradox_report(g, degree_vector(g), mode="undirected", tol=tol)


def directed_degree_report(g: Graph, tol: float = 1e-12) -> DirectedDegreeReport:
    """All four out/in degree pairings on a directed graph.

    The out_out and in_in gaps are theorem-guaranteed nonnegative; a
    negative value here is an implementation fault and raises rather
    than returning.  The covariance is the one behind the out_in report.
    """
    if not g.directed:
        raise GraphError("directed_degree_report requires a directed graph; "
                         "use classic_friendship_paradox")
    d_out = out_degree_vector(g)
    d_in = in_degree_vector(g)
    reports = {
        "out_out": paradox_report(g, d_out, mode="out", tol=tol),
        "in_in": paradox_report(g, d_in, mode="in", tol=tol),
    }
    reports["out_in"], cov = _evaluate(g, d_in, "out", tol)
    reports["in_out"] = paradox_report(g, d_out, mode="in", tol=tol)
    for key in ("out_out", "in_in"):
        if not reports[key].holds:
            raise TheoremViolationError.on(
                f"universal directed paradox {key} reported a negative gap", g,
                pairing=key, gap=reports[key].gap)

    # Both cross gaps are the same number (shared dot product and equal
    # one-norms); refuse to return if the two computations drifted.
    a, b = reports["out_in"], reports["in_out"]
    if a.exact is not None and b.exact is not None:
        agree = a.exact["gap"] == b.exact["gap"]
    else:
        agree = abs(a.gap - b.gap) <= 1e-9 * max(1.0, abs(a.gap), abs(b.gap))
    if not agree:
        raise TheoremViolationError.on("out_in and in_out gaps disagree", g,
                                       out_in=a.gap, in_out=b.gap)
    return DirectedDegreeReport(reports=reports, covariance=float(cov),
                                covariance_exact=cov if a.exact is not None else None, tol=tol)
