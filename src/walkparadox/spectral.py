"""Sparse numeric kernels: matrix-vector products, dominant eigenpairs,
Katz resolvents, matrix-function actions, and exact walk totals.

Everything here acts on the stored arc structure directly.  Kernels
follow the arcs of the graph they are given; for the transposed
operator A^T pass the graph's ``transpose``, its cached reverse.  The only
orientation choice made here, the left Perron side, goes through the
orientation map in graph.py.

Conventions fixed by this module:

* Dominant eigenvectors are scaled to sum n, so paradox gaps computed
  from them are comparable across graphs; the reported residual
  ||A x - lambda x||_2 is measured at that scale.
* Graphs with n <= 12 (_SMALL_N) are solved densely: one LAPACK
  eigendecomposition gives the Perron pair (eigh on undirected graphs,
  eig on digraphs) and, on undirected graphs, exp, sinh and cosh of
  beta A applied to 1.  Larger graphs iterate.
* Power iteration always runs on the shifted operator A + I.  The shift
  is invisible in the result (subtracted from the eigenvalue) but makes
  bipartite and periodic structures converge.
* Matrix-function actions on digraphs and on larger graphs sum the
  Taylor series term by term, since the eigenvectors of a non-normal
  matrix are not orthogonal.
* Katz vectors solve (I - alpha A) x = 1 by conjugate gradients on
  undirected graphs, where the operator is symmetric positive definite,
  and by restarted GMRES on digraphs.  They iterate to the rounding
  floor of the true residual; a stalled solve is accepted within tol
  or the worst-case rounding error of the residual.  max_iter counts
  matrix-vector products.
* Walk totals on unweighted graphs use Python integers, so they are
  exact at any order; weighted graphs fall back to float sums.  Totals
  w_k = 1^T A^k 1 and mixed sums 1^T A^T A^k 1 = (A 1).(A^k 1) share one
  A^k 1 loop, which is kept on the graph and extended on demand: every
  order up to K costs K products in all, however the orders are asked.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ConvergenceError, GraphError, ParameterError
from .graph import Graph, NodeVector, _oriented, _row_sums, is_strongly_connected

__all__ = [
    "EigenResult",
    "SeriesCoefficients",
    "apply",
    "dominant_eigenpair",
    "spectral_radius_estimate",
    "katz_action",
    "series_action",
    "exp_action",
    "odd_action",
    "even_action",
    "walk_count",
    "walk_counts_through",
    "mixed_walk_count",
]

# Relative margin kept between alpha and 1/lambda_1 when validating Katz
# parameters, guarding against eigensolver error near the boundary.
_ALPHA_MARGIN = 1e-9

# Graphs at or below this size are solved by one dense eigendecomposition.
# Dense/iterative time ratios at n = 12, 16, 24, 32, 48, 64 (20 graphs per
# n, medians of 7 rounds, 2-vCPU x86_64 host, one BLAS thread): Perron
# pair by eigh on connected ER(n, 0.4) 0.17, 0.21, 0.38, 0.51, 0.90, 1.17;
# sinh by eigh 0.29, 0.32, 0.40, 0.41, 0.54, 0.46; Perron pair by eig on
# strongly connected directed ER(n, 0.4) 0.35, 0.55, 0.91, 1.51, 2.48,
# 4.71.  With numpy's default BLAS threads, eigh lost from n = 48 and sinh
# from n = 32.  The paths round differently, so moving the cut moves
# last bits.
_SMALL_N = 12

_TAYLOR_CAP = 20_000

_EPS = float(np.finfo(float).eps)

# Multiple of eps * (||x|| + alpha ||A x||) below which a Katz residual
# is rounding noise.
_KATZ_FLOOR_C = 4.0

# GMRES restart length on digraphs; the basis holds (m + 1) * n doubles.
# On a 10^4-node digraph (cycle plus 3 random arcs per node) at 0.99/rho,
# m = 20, 30 and 40 took 60, 52 and 45 matvecs in the same 19-21 ms;
# m = 10 took 93 matvecs and 26 ms.
_GMRES_RESTART = 30

# Conjugate-gradient cycle cap, so that a stalled recurrence still ends
# in a true-residual check.  Matvecs at 0.5/0.99/0.999 of 1/rho on the
# path P_1000: 25/204/632 with cap 200, 25/205/501 uncapped, 25/234/1094
# with cap 30; BA(10^4, 3) needs 23/39/40 under any cap from 50 up.
_CG_CYCLE = 200


def _check_positive(name: str, value) -> float:
    # infinity too: an infinite tol would accept the first iterate as an answer
    if not 0 < float(value) < math.inf:
        raise ParameterError(f"{name} must be positive and finite: {value!r}")
    return float(value)


def _check_max_iter(max_iter) -> None:
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ParameterError(f"max_iter must be an integer >= 1: {max_iter!r}")


def _matvec(g: Graph, x: np.ndarray) -> np.ndarray:
    """A @ x over the stored arcs."""
    return np.bincount(g.rows, weights=g.weights * x[g.indices], minlength=g.n)


def apply(g: Graph, v) -> NodeVector:
    """Sparse product A v."""
    values = v.values if isinstance(v, NodeVector) else np.asarray(v, dtype=float)
    if values.shape != (g.n,):
        raise GraphError(f"vector length {values.shape} does not match n={g.n}")
    label = getattr(v, "label", "")
    return NodeVector(_matvec(g, values), f"apply[{label}]" if label else "apply")


@dataclass(frozen=True)
class EigenResult:
    """Dominant eigenpair with the residual actually achieved.

    The vector is strictly positive and scaled so its entries sum to n;
    residual is ||A x - eigenvalue * x||_2 at that scale.  iterations
    counts power steps; a dense solve takes none and reports 0.
    """

    eigenvalue: float
    vector: NodeVector
    side: str
    residual: float
    iterations: int


def _start_vector(n: int) -> np.ndarray:
    # 1/n with a +i/n^2 ramp: deterministic, positive, breaks the
    # symmetry that would stall iteration on vertex-transitive graphs.
    raw = [1.0 / n + i / (n * n) for i in range(n)]
    s = sum(raw)
    return np.array([v * (n / s) for v in raw])


def _dense(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    a[g.rows, g.indices] = g.weights
    return a


def _dense_perron(g: Graph) -> tuple[float, np.ndarray, float]:
    """Perron root of g and its eigenvector from one LAPACK call: eigh's
    last pair when A is symmetric, else eig's eigenvalue of largest real
    part, which on an irreducible nonnegative matrix is the Perron root.
    Also returns the root's lead over the next largest real part,
    relative to the largest |eigenvalue|."""
    if g.directed:
        vals, vecs = np.linalg.eig(_dense(g))
        k = int(np.argmax(vals.real))
        second = float(np.partition(vals.real, -2)[-2])
    else:
        vals, vecs = np.linalg.eigh(_dense(g))
        k, second = -1, float(vals[-2])
    lam = float(vals[k].real)
    return lam, np.abs(vecs[:, k]), (lam - second) / float(np.abs(vals).max())


def dominant_eigenpair(
    g: Graph, side: str = "right", tol: float = 1e-10, max_iter: int | None = None
) -> EigenResult:
    """Perron eigenpair of a connected (strongly connected) graph.

    Graphs with n <= 12 (_SMALL_N) are solved by one dense
    eigendecomposition, which takes no power step (iterations 0);
    larger ones run power iteration on A + I for at most max_iter steps
    (default 100 n + 1000).  On either path tol bounds the residual.
    side "left" is served by solving on the reversed graph, so left on
    g and right on its transpose coincide exactly.  Raises
    ConvergenceError carrying the best pair if the residual exceeds tol,
    or if a dense solve finds the Perron root ahead of the next real part
    by at most n eps max|lambda|, where no residual can vouch for the
    vector.
    """
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right': {side!r}")
    _check_positive("tol", tol)
    if not is_strongly_connected(g):
        raise GraphError("irreducibility required: graph is not (strongly) connected")

    work = _oriented(g, side)
    n = g.n
    if max_iter is None:
        max_iter = 100 * n + 1000
    _check_max_iter(max_iter)
    label = f"eigenvector[{side}]"
    if n <= _SMALL_N:
        lam, x, gap = _dense_perron(work)
        x = x * (n / float(x.sum()))
        res = float(np.linalg.norm(_matvec(work, x) - lam * x))
        best = EigenResult(lam, NodeVector(x, label), side, res, 0)
        # Perron-Frobenius makes the gap positive; at rounding level the
        # vector may mix with the next one's at a tiny residual
        if gap <= n * _EPS:
            raise ConvergenceError(
                f"dense eigensolver cannot separate the Perron root from the next "
                f"eigenvalue (relative gap {gap:.3g})", residual=res, best=best)
        if res <= tol:
            return best
        raise ConvergenceError(
            f"dense eigensolver residual {res:.3g} exceeds tol {tol:g}",
            residual=res, best=best)

    x = _start_vector(n)
    # best iterate (residual, x, eigenvalue, iteration); the first within tol is the best
    best = (math.inf, None, 0.0, 0)
    for it in range(1, max_iter + 1):
        z = _matvec(work, x) + x
        lam = float(x @ z) / float(x @ x)
        res = float(np.linalg.norm(z - lam * x))
        if res < best[0]:
            best = (res, x, lam - 1.0, it)
            if res <= tol:
                break
        x = z * (n / float(z.sum()))
    res, x, lam, iters = best
    best = None if x is None else EigenResult(lam, NodeVector(x, label), side, res, iters)
    if res <= tol:
        return best
    raise ConvergenceError(
        f"power iteration did not reach residual {tol:g} in {max_iter} steps "
        f"(best {res:.3g})",
        residual=res,
        best=best,
    )


def spectral_radius_estimate(g: Graph) -> float:
    """Spectral radius for parameter validation.

    Irreducible graphs get the computed dominant eigenvalue, on n <= 12
    (_SMALL_N) the dense root even where dominant_eigenpair refuses its
    vector: the root stays accurate where a gap at rounding level leaves
    the vector unknown.  Reducible ones fall back to min(max row sum,
    max col sum), an upper bound that may reject some admissible Katz
    parameters but never admits a bad one.
    """
    if not is_strongly_connected(g):
        return min(float(_row_sums(_oriented(g, side)).max()) for side in ("right", "left"))
    try:
        return dominant_eigenpair(g).eigenvalue
    except ConvergenceError as exc:
        if g.n > _SMALL_N:
            raise
        return exc.best.eigenvalue


def _katz_floor(x: np.ndarray, alpha_ax: np.ndarray) -> float:
    # Rounding error of forming r = 1 - x + alpha A x in doubles; with
    # A >= 0 and x > 0, |A||x| = A x, so this bound needs no extra work.
    return _KATZ_FLOOR_C * _EPS * (float(np.linalg.norm(x)) + float(np.linalg.norm(alpha_ax)))


def _katz_cg(g: Graph, alpha: float, x, alpha_ax, r, budget: int):
    """Conjugate gradients on the SPD operator I - alpha A from x with
    true residual r, until the recurrence residual reaches the rounding
    floor (tracked through alpha A x), or _CG_CYCLE or budget matvecs
    are spent."""
    p = r.copy()
    rr = float(r @ r)
    used = 0
    budget = min(budget, _CG_CYCLE)
    while used < budget and rr > 0:
        alpha_ap = alpha * _matvec(g, p)
        used += 1
        q = p - alpha_ap
        step = rr / float(p @ q)
        x = x + step * p
        alpha_ax = alpha_ax + step * alpha_ap
        r -= step * q
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= _katz_floor(x, alpha_ax):
            break
        p = r + (rr_next / rr) * p
        rr = rr_next
    return x, used


def _katz_gmres(g: Graph, alpha: float, x, alpha_ax, r, budget: int):
    """One GMRES cycle of at most _GMRES_RESTART matvecs on I - alpha A
    from x with true residual r: Arnoldi with Gram-Schmidt run twice,
    the least-squares problem kept triangular by Givens rotations.  The
    cycle ends early once its residual estimate reaches the floor at x."""
    m = min(_GMRES_RESTART, budget)
    beta = float(np.linalg.norm(r))
    target = _katz_floor(x, alpha_ax)
    basis = np.empty((m + 1, g.n))
    basis[0] = r / beta
    h = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    e = np.zeros(m + 1)
    e[0] = beta
    k = 0
    while k < m:
        w = basis[k] - alpha * _matvec(g, basis[k])
        for _ in range(2):
            c = basis[: k + 1] @ w
            w -= c @ basis[: k + 1]
            h[: k + 1, k] += c
        h[k + 1, k] = norm = float(np.linalg.norm(w))
        for i in range(k):
            h[i, k], h[i + 1, k] = (cs[i] * h[i, k] + sn[i] * h[i + 1, k],
                                    cs[i] * h[i + 1, k] - sn[i] * h[i, k])
        d = math.hypot(h[k, k], norm)
        cs[k], sn[k] = h[k, k] / d, norm / d
        h[k, k], h[k + 1, k] = d, 0.0
        e[k + 1] = -sn[k] * e[k]
        e[k] *= cs[k]
        k += 1
        if abs(e[k]) <= target or norm == 0.0:
            break
        basis[k] = w / norm
    y = np.linalg.solve(h[:k, :k], e[:k])
    return x + y @ basis[:k], k


def katz_action(
    g: Graph,
    alpha: float,
    tol: float = 1e-12,
    max_iter: int | None = None,
    spectral_radius: float | None = None,
) -> NodeVector:
    """Solve (I - alpha A) x = 1 by a Krylov method.

    Undirected graphs use conjugate gradients, since I - alpha A is
    symmetric positive definite once alpha * rho < 1; digraphs use
    restarted GMRES.  Both iterate until the true residual
    r = 1 - x + alpha A x reaches its rounding floor, the error of
    forming r itself: a few eps times ||x||_2 + alpha ||A x||_2.  A
    restart that fails to lower the true residual, or a spent max_iter,
    ends the solve; its best iterate is returned if ||r||_2 is within
    tol or within the worst-case error of forming r, which grows with
    the row lengths at hubs, and otherwise raised with
    ConvergenceError.  max_iter bounds the matrix-vector products, true
    residuals included.

    alpha is accepted only while alpha * rho <= 1 - 1e-9; pass
    spectral_radius to skip the built-in estimate when the caller
    already has one.
    """
    alpha = _check_positive("alpha", alpha)
    _check_positive("tol", tol)
    if max_iter is None:
        max_iter = 1_000_000
    _check_max_iter(max_iter)
    rho = (spectral_radius_estimate(g) if spectral_radius is None
           else _check_positive("spectral_radius", spectral_radius))
    if alpha * rho > 1.0 - _ALPHA_MARGIN:
        raise ParameterError(
            f"alpha exceeds 1/spectral-radius: alpha*rho = {alpha * rho:.12g} "
            f"(rho ~ {rho:.12g}); need alpha*rho <= {1.0 - _ALPHA_MARGIN}"
        )
    solve = _katz_gmres if g.directed else _katz_cg
    label = f"katz[alpha={alpha:.6g}]"
    # x = 1 starts at the floor's lower bound: the solution has x >= 1
    # and A x >= A 1 entrywise
    x = np.ones(g.n)
    alpha_ax = alpha * _matvec(g, x)
    used = 1
    best = (math.inf, x, alpha_ax)
    while True:
        r = 1.0 - x + alpha_ax
        res = float(np.linalg.norm(r))
        if res <= _katz_floor(x, alpha_ax):
            return NodeVector(x, label)
        if res >= best[0]:
            why = "a restart did not lower the true residual"
            break
        best = (res, x, alpha_ax)
        # each round needs a matvec to solve and one for its true residual
        if max_iter - used < 2:
            why = f"{max_iter} matvecs spent"
            break
        x, k = solve(g, alpha, x, alpha_ax, r, max_iter - used - 1)
        alpha_ax = alpha * _matvec(g, x)
        used += k + 1
    res, x, alpha_ax = best
    # Row i of A x sums d_i terms, so at a hub the error of forming r can
    # reach (d_i + 2) eps (alpha A x)_i: on a 10^4-leaf star at 0.999/rho
    # no restart lowered r below 5 times the floor.  Below that worst
    # case, r is rounding noise too.
    terms = np.diff(g.indptr) + 2.0
    worst = _EPS * (math.sqrt(g.n) + float(np.linalg.norm(x))
                    + float(np.linalg.norm(terms * alpha_ax)))
    if res <= max(tol, worst):
        return NodeVector(x, label)
    raise ConvergenceError(
        f"katz solve stopped at residual {res:.3g} (tol {tol:g}): {why}",
        residual=res,
        best=NodeVector(x, label),
    )


@dataclass(frozen=True)
class SeriesCoefficients:
    """Nonnegative weights c_0..c_K of a finite walk-series centrality."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(c) for c in self.values)
        if not vals:
            raise ParameterError("coefficient sequence must be nonempty")
        if any(not math.isfinite(c) or c < 0 for c in vals):
            raise ParameterError("coefficients must be finite and nonnegative")
        if not any(c > 0 for c in vals):
            raise ParameterError("at least one coefficient must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.values) - 1


def series_action(g: Graph, coeffs: SeriesCoefficients) -> NodeVector:
    """x = sum_k c_k A^k 1, evaluated Horner-style from the top power."""
    if not isinstance(coeffs, SeriesCoefficients):
        coeffs = SeriesCoefficients(tuple(coeffs))
    ones = np.ones(g.n)
    vals = coeffs.values
    x = vals[-1] * ones
    for c in reversed(vals[:-1]):
        x = _matvec(g, x) + c * ones
    tag = ",".join(f"{c:.6g}" for c in vals)
    return NodeVector(x, f"series[{tag}]")


def _dense_function(g: Graph, beta: float, parity: int | None) -> np.ndarray:
    """U f(beta Theta) U^T 1 from eigh of the symmetric A, f = exp, sinh
    (parity 1) or cosh (parity 0); exact to rounding, with no truncation."""
    theta, u = np.linalg.eigh(_dense(g))
    f = {None: np.exp, 1: np.sinh, 0: np.cosh}[parity]
    with np.errstate(over="ignore", invalid="ignore"):
        x = u @ (f(beta * theta) * (u.T @ np.ones(g.n)))
    if not np.isfinite(x).all():
        raise ParameterError(f"series overflowed: beta * lambda_1 = {beta * theta[-1]:.6g}; "
                             "use a smaller beta")
    return x


def _taylor_action(
    g: Graph, beta: float, tol: float, parity: int | None, label: str
) -> NodeVector:
    beta = _check_positive("beta", beta)
    _check_positive("tol", tol)
    if g.n <= _SMALL_N and not g.directed:
        return NodeVector(_dense_function(g, beta, parity), label)
    term = np.ones(g.n)
    total = term.copy() if parity in (None, 0) else np.zeros(g.n)
    # Terms grow until k ~ beta * max row sum; never trust the tolerance
    # test before that point, so a settle point past the cap is refused
    # before any term is formed.
    settle = beta * float(_row_sums(g).max())
    if settle > _TAYLOR_CAP:
        raise ConvergenceError(f"series cannot settle within {_TAYLOR_CAP} terms: "
                               f"beta * max row sum = {settle:.6g}")
    # A >= 0 and the first term is 1, so terms and total are nonnegative
    # and can overflow only to +inf, never to NaN
    with np.errstate(over="ignore"):
        for k in range(1, _TAYLOR_CAP + 1):
            term = (beta / k) * _matvec(g, term)
            top = float(term.max())
            if top == math.inf:
                raise ParameterError(
                    f"series terms overflowed at order {k}; use a smaller beta"
                )
            if parity is None or k % 2 == parity:
                total += term
            if k >= settle and top <= tol * float(total.max()):
                return NodeVector(total, label)
    raise ConvergenceError(
        f"series did not settle within {_TAYLOR_CAP} terms",
        residual=top,
        best=NodeVector(total, label),
    )


def exp_action(g: Graph, beta: float, tol: float = 1e-12) -> NodeVector:
    """exp(beta A) 1.

    Undirected graphs with n <= 12 (_SMALL_N) take U exp(beta Theta) U^T 1
    from one dense eigh, exact to rounding; tol is validated but has
    nothing to bound there.  Every other graph sums the Taylor series
    until a term falls below tol times the largest entry of the sum, past
    the point k = beta * (max row sum) where terms stop growing and
    within 20,000 terms.  A result that leaves the float range raises
    ParameterError.
    """
    return _taylor_action(g, beta, tol, None, f"total[beta={beta:.6g}]")


def odd_action(g: Graph, beta: float, tol: float = 1e-12) -> NodeVector:
    """sinh(beta A) 1: the odd-power half of the exponential series,
    on the same paths as exp_action."""
    return _taylor_action(g, beta, tol, 1, f"odd[beta={beta:.6g}]")


def even_action(g: Graph, beta: float, tol: float = 1e-12) -> NodeVector:
    """cosh(beta A) 1: the even-power half of the exponential series,
    on the same paths as exp_action."""
    return _taylor_action(g, beta, tol, 0, f"even[beta={beta:.6g}]")


def _finite_total(total: float) -> float:
    if not math.isfinite(total):
        raise ParameterError("walk count overflow: weighted totals left float range")
    return total


def _walk_sums(g: Graph, kmax: int, mixed: bool = False):
    """Totals 1^T A^k 1 for k = 0..kmax, and with mixed also the sums
    1^T A^T A^k 1 = (A 1).(A^k 1) on the same vectors (None otherwise),
    as copies of the pass kept on g per mixed flag: a call steps on from
    the last walk vector, so orders asked one at a time cost one pass.
    An order is kept once its total and mixed sum are both formed.

    Exact Python integers on unweighted graphs (arbitrary precision, so
    no overflow is possible); floats on weighted graphs, where overflow
    warnings are silenced and sums that leave the finite range are
    rejected.
    """
    if kmax < 0:
        raise ParameterError("walk order must be nonnegative")
    if g.unweighted:
        lists = g.out_lists
        x, quiet = [1] * g.n, contextlib.nullcontext()
        step = lambda x: [sum(x[j] for j in nbrs) for nbrs in lists]
        total, dot = sum, lambda d, x: sum(map(mul, d, x))
    else:
        x, quiet = np.ones(g.n), np.errstate(over="ignore")
        step = lambda x: _matvec(g, x)
        total = lambda v: _finite_total(float(v.sum()))
        dot = lambda d, v: _finite_total(float(d @ v))
    passes = g._walk_passes
    with quiet:
        if mixed not in passes:
            d = step(x) if mixed else None  # A 1, the out-degrees, and the first walk vector
            passes[mixed] = ([g.n], [dot(d, x)] if mixed else None, x, d)
        totals, sums, x, d = passes[mixed]
        while len(totals) <= kmax:
            x = d if mixed and len(totals) == 1 else step(x)
            t = total(x)
            if mixed:
                sums.append(dot(d, x))
            totals.append(t)
            passes[mixed] = (totals, sums, x, d)
    return totals[:kmax + 1], None if sums is None else sums[:kmax + 1]


def walk_counts_through(g: Graph, kmax: int):
    """Totals 1^T A^k 1 for k = 0..kmax, from the pass kept on g."""
    return _walk_sums(g, kmax)[0]


def walk_count(g: Graph, k: int):
    """Total walks of length k (1^T A^k 1); k = 0 gives n."""
    return walk_counts_through(g, k)[k]


def mixed_walk_count(g: Graph, k: int):
    """1^T A^T A^k 1 = d_out . (A^k 1), exact on unweighted graphs."""
    return _walk_sums(g, k, mixed=True)[1][k]
