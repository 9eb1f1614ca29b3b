"""Averages-over-nodes versus averages-over-neighbours, and the gap
between them.

The inequality under test compares d.x/||d||_1 (the degree-weighted
attribute mean, i.e. what an average incident edge sees) with
||x||_1/n (the plain node mean).  A nonnegative gap means the paradox
holds for that attribute.  The same quantity equals Cov(d, x)/mean(d);
both forms are computed independently here and must agree, exactly in
rational arithmetic or to 1e-9 relative in floats, or the report is
refused as an internal error.

Unweighted graphs with integer-valued attributes (degree measures, most
importantly) take an exact path: every average in the report is a
Fraction, so textbook values like 2 and 2.625 come out as the rationals
16/8 and 42/16 rather than approximations.
"""

from __future__ import annotations

import math
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
    int_in_degrees,
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
        return x.values
    return np.asarray(x, dtype=float)


def _check_attribute(g: Graph, x) -> np.ndarray:
    values = _values(x)
    if values.shape != (g.n,):
        raise GraphError(f"attribute length {values.shape} does not match n={g.n}")
    if np.any(values < 0):
        raise ParameterError("attribute entries must be nonnegative")
    return values


def _as_ints(values: np.ndarray) -> list[int] | None:
    if np.any(np.abs(values) >= _INT_LIMIT):
        return None
    rounded = np.rint(values)
    if not np.array_equal(rounded, values):
        return None
    return [int(v) for v in rounded]


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
    if np.any(values < 0):
        raise ParameterError("attribute entries must be nonnegative")
    return float(values.sum()) / values.shape[0]


def neighbour_average(g: Graph, x, mode: str = "undirected") -> float:
    """Degree-weighted mean d.x/||d||_1, with d chosen by mode."""
    values = _check_attribute(g, x)
    d = out_degree_vector(_sampler(g, mode)).values
    return float(d @ values) / float(d.sum())


def _exact_report(g, d, ints, mode, label, tol) -> ParadoxReport:
    n = g.n
    sd = sum(d)
    sx = sum(ints)
    dx = sum(a * b for a, b in zip(d, ints))
    node_avg = Fraction(sx, n)
    neigh_avg = Fraction(dx, sd)
    gap = neigh_avg - node_avg
    mean_d = Fraction(sd, n)
    cov = Fraction(dx, n) - mean_d * Fraction(sx, n)
    cov_form = cov / mean_d
    if cov_form != gap:
        raise TheoremViolationError(
            "gap and covariance form disagree in exact arithmetic",
            dump={"edges": g.edges(), "mode": mode, "gap": str(gap), "cov": str(cov_form)},
        )
    tol_frac = Fraction(tol) if tol else Fraction(0)
    return ParadoxReport(
        mode=mode,
        measure_label=label,
        node_average=float(node_avg),
        neighbour_average=float(neigh_avg),
        gap=float(gap),
        covariance_form=float(cov_form),
        holds=gap >= -tol_frac,
        equality=abs(gap) <= tol_frac,
        tol=tol,
        exact={
            "node_average": node_avg,
            "neighbour_average": neigh_avg,
            "gap": gap,
            "covariance_form": cov_form,
        },
    )


def _float_report(g, d, values, mode, label, tol) -> ParadoxReport:
    n = g.n
    neigh_avg = float(d @ values) / float(d.sum())
    node_avg = float(values.sum()) / n
    gap = neigh_avg - node_avg
    # Independent route: covariance over the node distribution.
    cov = float(np.mean(d * values)) - float(np.mean(d)) * float(np.mean(values))
    cov_form = cov / float(np.mean(d))
    scale = max(1.0, abs(gap), abs(cov_form), abs(node_avg), abs(neigh_avg))
    if abs(gap - cov_form) > 1e-9 * scale:
        raise TheoremViolationError(
            f"gap {gap!r} and covariance form {cov_form!r} disagree beyond 1e-9 relative",
            dump={"edges": g.edges(), "mode": mode, "measure": label},
        )
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
    )


def paradox_report(g: Graph, x, mode: str = "undirected", tol: float = 1e-9) -> ParadoxReport:
    """Full evaluation of the generalized paradox for attribute x."""
    _check_tol(tol)
    values = _check_attribute(g, x)
    sampler = _sampler(g, mode)
    label = getattr(x, "label", "") or "attribute"
    if g.unweighted:
        ints = _as_ints(values)
        if ints is not None:
            return _exact_report(g, int_out_degrees(sampler), ints, mode, label, tol)
    return _float_report(g, out_degree_vector(sampler).values, values, mode, label, tol)


def classic_friendship_paradox(g: Graph, tol: float = 1e-9) -> ParadoxReport:
    """Degree-versus-degree paradox; exact rationals on unweighted graphs."""
    if g.directed:
        raise GraphError("classic paradox is undirected; see directed_degree_report")
    return paradox_report(g, degree_vector(g), mode="undirected", tol=tol)


def directed_degree_report(g: Graph, tol: float = 1e-12) -> DirectedDegreeReport:
    """All four out/in degree pairings on a directed graph.

    The out_out and in_in gaps are theorem-guaranteed nonnegative; a
    negative value here is an implementation fault and raises rather
    than returning.
    """
    if not g.directed:
        raise GraphError("directed_degree_report requires a directed graph; "
                         "use classic_friendship_paradox")
    d_out = out_degree_vector(g)
    d_in = in_degree_vector(g)
    reports = {
        "out_out": paradox_report(g, d_out, mode="out", tol=tol),
        "in_in": paradox_report(g, d_in, mode="in", tol=tol),
        "out_in": paradox_report(g, d_in, mode="out", tol=tol),
        "in_out": paradox_report(g, d_out, mode="in", tol=tol),
    }
    for key in ("out_out", "in_in"):
        if not reports[key].holds:
            raise TheoremViolationError(
                f"universal directed paradox {key} reported a negative gap",
                dump={"edges": g.edges(), "report": reports[key]},
            )

    cov_exact = None
    if reports["out_in"].exact is not None:
        do = int_out_degrees(g)
        di = int_in_degrees(g)
        n = g.n
        cov_exact = (
            Fraction(sum(a * b for a, b in zip(do, di)), n)
            - Fraction(sum(do), n) * Fraction(sum(di), n)
        )
        covariance = float(cov_exact)
    else:
        do = d_out.values
        di = d_in.values
        covariance = float(np.mean(do * di)) - float(np.mean(do)) * float(np.mean(di))

    # Both cross gaps are the same number (shared dot product and equal
    # one-norms); refuse to return if the two computations drifted.
    a, b = reports["out_in"], reports["in_out"]
    if a.exact is not None and b.exact is not None:
        agree = a.exact["gap"] == b.exact["gap"]
    else:
        agree = abs(a.gap - b.gap) <= 1e-9 * max(1.0, abs(a.gap), abs(b.gap))
    if not agree:
        raise TheoremViolationError(
            "out_in and in_out gaps disagree",
            dump={"edges": g.edges(), "out_in": a.gap, "in_out": b.gap},
        )
    return DirectedDegreeReport(reports=reports, covariance=covariance,
                                covariance_exact=cov_exact, tol=tol)
