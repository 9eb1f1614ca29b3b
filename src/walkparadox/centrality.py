"""Uniform front-end from a measure specification to a node vector.

Directions: "undirected" demands an undirected graph; "broadcast" scores
nodes by the walks they emit (A-based) and "receive" by the walks that
reach them (A^T-based).  The orientation map in graph.py turns a
direction into the graph to run on, so receive is literally broadcast
on the reversed graph and the two agree bit for bit under
transposition.  The same map pairs broadcast with the right Perron
vector and receive with the left one: those are the pairings under
which the in- and out-degree paradox statements become equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import Graph, NodeVector, _oriented, _side, out_degree_vector
from .spectral import (
    SeriesCoefficients,
    _check_positive,
    dominant_eigenpair,
    even_action,
    exp_action,
    katz_action,
    odd_action,
    series_action,
    spectral_radius_estimate,
)

__all__ = [
    "CentralitySpec",
    "compute",
    "katz_degree_limit_check",
    "katz_eigenvector_limit_check",
    "KatzDegreeDiagnostic",
    "KatzEigenvectorDiagnostic",
]

# The parameters each kind reads; a spec that sets any other is refused.
_PARAMS = {
    "degree": (),
    "eigenvector": ("tol",),
    "katz": ("alpha", "tol"),
    "total": ("beta", "tol"),
    "odd": ("beta", "tol"),
    "even": ("beta", "tol"),
    "power_series": ("coeffs",),
}
_DIRECTIONS = ("undirected", "broadcast", "receive")

_DEGREE_LABELS = {"undirected": "degree", "broadcast": "out-degree", "receive": "in-degree"}


@dataclass(frozen=True)
class CentralitySpec:
    """Measure choice plus its parameters.

    alpha (katz) and beta (total/odd/even) may be left None to take the
    documented defaults: alpha = 0.5/rho(A), beta = 1.  coeffs is
    mandatory for power_series.  A parameter the kind never reads is refused.
    """

    kind: str
    direction: str = "undirected"
    alpha: float | None = None
    beta: float | None = None
    coeffs: SeriesCoefficients | None = None
    tol: float | None = None

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ParameterError(f"unknown centrality kind {self.kind!r}")
        if self.direction not in _DIRECTIONS:
            raise ParameterError(f"unknown direction {self.direction!r}")
        for name in ("alpha", "beta", "coeffs", "tol"):
            if getattr(self, name) is not None and name not in _PARAMS[self.kind]:
                raise ParameterError(f"{self.kind} takes no {name}")
        if self.kind == "power_series":
            if self.coeffs is None:
                raise ParameterError("power_series requires coefficients")
            if not isinstance(self.coeffs, SeriesCoefficients):
                object.__setattr__(self, "coeffs", SeriesCoefficients(tuple(self.coeffs)))
        for name in ("alpha", "beta", "tol"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))


def compute(g: Graph, spec: CentralitySpec) -> NodeVector:
    """Evaluate the specified measure on g.

    Eigenvector output is scaled to sum n; walk-based measures are
    returned raw (Katz entries are always >= 1 from the identity term).
    """
    work = _oriented(g, spec.direction)
    kind = spec.kind
    tol_kw = {} if spec.tol is None else {"tol": spec.tol}

    if kind == "degree":
        vec = out_degree_vector(work)
        return NodeVector(vec.values, _DEGREE_LABELS[spec.direction])

    if kind == "eigenvector":
        result = dominant_eigenpair(work, side="right", **tol_kw)
        return NodeVector(result.vector.values, f"eigenvector[{spec.direction}]")

    if kind == "katz":
        alpha, rho = spec.alpha, None
        if alpha is None:
            rho = spectral_radius_estimate(work)
            alpha = 0.5 / rho
        vec = katz_action(work, alpha, spectral_radius=rho, **tol_kw)
        return NodeVector(vec.values, f"katz[alpha={alpha:.6g},{spec.direction}]")

    if kind in ("total", "odd", "even"):
        beta = 1.0 if spec.beta is None else float(spec.beta)
        action = {"total": exp_action, "odd": odd_action, "even": even_action}[kind]
        vec = action(work, beta, **tol_kw)
        return NodeVector(vec.values, f"{kind}[beta={beta:.6g},{spec.direction}]")

    vec = series_action(work, spec.coeffs)
    return NodeVector(vec.values, f"{vec.label},{spec.direction}")


@dataclass(frozen=True)
class KatzDegreeDiagnostic:
    direction: str
    alphas: tuple
    deviations: tuple
    max_deviation: float
    decreasing: bool


def katz_degree_limit_check(g: Graph, direction: str = "undirected", alphas=None) -> KatzDegreeDiagnostic:
    """Quantify how fast (x(alpha) - 1)/alpha approaches the degrees.

    Deviations are max-norm distances to the direction's degree vector,
    relative to its largest entry; they must shrink as alpha does.
    """
    work = _oriented(g, direction)
    rho = spectral_radius_estimate(work)
    if alphas is None:
        alphas = (0.1 / rho, 0.01 / rho, 0.001 / rho)
    alphas = tuple(float(a) for a in alphas)
    if not alphas or any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("alphas must be nonempty and strictly decreasing")
    d = out_degree_vector(work).values
    scale = float(np.abs(d).max())
    deviations = []
    for a in alphas:
        x = katz_action(work, a, spectral_radius=rho)
        deviations.append(float(np.abs((x.values - 1.0) / a - d).max()) / scale)
    dec = all(b < a for a, b in zip(deviations, deviations[1:]))
    return KatzDegreeDiagnostic(direction, alphas, tuple(deviations), max(deviations), dec)


@dataclass(frozen=True)
class KatzEigenvectorDiagnostic:
    side: str
    alphas: tuple
    similarities: tuple
    final_similarity: float
    increasing: bool


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def katz_eigenvector_limit_check(g: Graph, side: str = "right", alphas=None) -> KatzEigenvectorDiagnostic:
    """Cosine similarity of Katz vectors to the Perron vector as alpha rises.

    side accepts left/right or any direction name and is reported as
    left or right.  With the default grid the last point sits at 0.999/lambda_1, where
    similarity should be within 1e-6 of 1.
    """
    side = _side(g, side)
    work = _oriented(g, side)
    eig = dominant_eigenpair(work, side="right")
    lam = eig.eigenvalue
    if alphas is None:
        alphas = tuple(f / lam for f in (0.5, 0.9, 0.99, 0.999))
    alphas = tuple(float(a) for a in alphas)
    if not alphas or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("alphas must be nonempty and strictly increasing")
    sims = []
    for a in alphas:
        x = katz_action(work, a, tol=1e-10, spectral_radius=lam)
        sims.append(_cosine(x.values, eig.vector.values))
    inc = all(b >= a - 1e-12 for a, b in zip(sims, sims[1:]))
    return KatzEigenvectorDiagnostic(side, alphas, tuple(sims), sims[-1], inc)
