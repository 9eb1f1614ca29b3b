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
  ||A x - lambda x||_2 is measured at that scale.  Each Perron pair is
  kept on its graph by (side, tol), beside the connectivity verdict, so
  a question asked again of the same graph costs no product.
* Graphs with n <= 12 (_SMALL_N) are solved densely: one LAPACK
  eigendecomposition gives the Perron pair (eigh on undirected graphs,
  eig on digraphs) and, on undirected graphs, exp, sinh and cosh of
  beta A applied to 1.  The eigh is kept on the graph, so both Perron
  sides and every matrix function of one undirected graph share one
  decomposition.  Larger graphs iterate.
* Power iteration always runs on the shifted operator A + I.  The shift
  is invisible in the result (subtracted from the eigenvalue) but makes
  bipartite and periodic structures converge.
* Matrix-function actions on digraphs and on larger graphs sum the
  Taylor series term by term, since the eigenvectors of a non-normal
  matrix are not orthogonal.  The sum stops on a proven entrywise bound
  on its remainder, read from ratios of terms two products apart; it
  refuses up front once a Collatz-Wielandt bound puts beta * lambda_1
  past its term cap.
* Katz vectors solve (I - alpha A) x = 1 by conjugate gradients on
  undirected graphs, where the operator is symmetric positive definite,
  and by restarted GMRES on digraphs.  They iterate to the rounding
  floor of the true residual; a stalled solve is accepted within tol
  or the worst-case rounding error of the residual.  max_iter counts
  matrix-vector products.  A whole grid of undirected Katz sums
  1^T (I - alpha A)^{-1} 1 comes from one Lanczos run instead, as a
  Gauss rule bracketed by its Gauss-Radau twin (_resolvent_rule).
* Every product is one _matvec.  Walk totals on unweighted graphs are
  exact at any order, in int64 while a proven bound keeps every sum
  below 2^63 and in Python ints past it; weighted graphs use floats.  Totals
  w_k = 1^T A^k 1 and mixed sums 1^T A^T A^k 1 = (A 1).(A^k 1) share one
  A^k 1 loop, which is kept on the graph and extended on demand: every
  order up to K costs K products in all, however the orders are asked.
  On an undirected graph the mixed sums are w_{k+1}, read from the
  plain pass.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GraphError, ParameterError
from .graph import Graph, NodeVector, _oriented, is_strongly_connected

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

# Where the Gauss-Radau node z sits between rho and the nearest pole
# 1/max(alpha), and the multiple of eps within which the Gauss and
# Gauss-Radau values of 1^T (I - alpha A)^{-1} 1 end the Lanczos run.
# On BA(2000, 3) at grid 20, C = 2, 4 and 32 took 22, 21 and 20 steps,
# and the shift (tried at 1e-9 to 1e-3 relative to rho) moved no count.
_RADAU_SHIFT = 1e-3
_RULE_C = 4.0

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
    """A @ x over the stored arcs in the dtype of x, adding each arc into
    its row in arc order: float64 keeps the bits of a weighted bincount
    (x 1.0 is skipped), int64 and object (Python-int) vectors stay exact."""
    out = np.zeros(g.n, dtype=x.dtype)
    np.add.at(out, g.rows, x[g.indices] if g.unweighted else g.weights * x[g.indices])
    return out


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
    # The sum is a sequential cumsum: np.sum adds pairwise, and Python's
    # sum() compensates from 3.12 on, so either would move the last bits.
    raw = 1.0 / n + np.arange(n) / (n * n)
    return raw * (n / float(np.cumsum(raw)[-1]))


def _dense(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    a[g.rows, g.indices] = g.weights
    return a


def _kept_eigh(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(theta, U) of the undirected g's dense A from the one eigh kept on
    g, taken on first use; the arrays are read-only."""
    kept = g._eigh
    if not kept:
        theta, u = np.linalg.eigh(_dense(g))
        theta.flags.writeable = u.flags.writeable = False
        kept.append((theta, u))
    return kept[0]


def _dense_perron(g: Graph) -> tuple[float, np.ndarray, float]:
    """Perron root of g and its eigenvector from one LAPACK call: the
    last pair of the eigh kept on g when A is symmetric, else eig's
    eigenvalue of largest real part, which on an irreducible nonnegative
    matrix is the Perron root.  Also returns the root's lead over the
    next largest real part, relative to the largest |eigenvalue|."""
    if g.directed:
        vals, vecs = np.linalg.eig(_dense(g))
        k = int(np.argmax(vals.real))
        second = float(np.partition(vals.real, -2)[-2])
    else:
        vals, vecs = _kept_eigh(g)
        k, second = -1, float(vals[-2])
    lam = float(vals[k].real)
    return lam, np.abs(vecs[:, k]), (lam - second) / float(np.abs(vals).max())


def dominant_eigenpair(
    g: Graph, side: str = "right", tol: float = 1e-10, max_iter: int | None = None
) -> EigenResult:
    """Perron eigenpair of a connected (strongly connected) graph.

    Graphs with n <= 12 (_SMALL_N) are solved by one dense
    eigendecomposition, which takes no power step (iterations 0); on an
    undirected graph it is the eigh kept on g, which exp_action,
    odd_action and even_action read too;
    larger ones run power iteration on A + I for at most max_iter steps
    (default 100 n + 1000).  On either path tol bounds the residual.
    side "left" is served by solving on the reversed graph, so left on
    g and right on its transpose coincide exactly.  The pair is kept on
    g by (side, tol) and returned again to any call whose max_iter
    covers the steps it took; the connectivity verdict is kept too, so
    a repeated question costs no product and no search.  Raises
    ConvergenceError carrying the best pair if the residual exceeds tol,
    or if a dense solve finds the Perron root ahead of the next real part
    by at most n eps max|lambda|, where no residual can vouch for the
    vector.
    """
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right': {side!r}")
    tol = _check_positive("tol", tol)
    n = g.n
    if max_iter is None:
        max_iter = 100 * n + 1000
    _check_max_iter(max_iter)
    # a kept pair proves irreducibility; the solve is deterministic, so a
    # smaller max_iter than the kept pair took gives the same refusal again
    kept = g._perron_pairs.get((side, tol))
    if kept is not None and kept.iterations <= max_iter:
        return kept
    if not is_strongly_connected(g):
        raise GraphError("irreducibility required: graph is not (strongly) connected")
    result = _perron_solve(g, side, tol, max_iter)
    g._perron_pairs[(side, tol)] = result
    return result


def _perron_solve(g: Graph, side: str, tol: float, max_iter: int) -> EigenResult:
    """dominant_eigenpair's solve on a validated irreducible graph."""
    work = _oriented(g, side)
    n = g.n
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
        return min(float(_oriented(g, side)._out_degrees.max()) for side in ("right", "left"))
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


def _resolvent_rule(g: Graph, alphas: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (theta_j, omega_j) for the spectral measure of (A, 1) on
    an undirected graph, exact for s(alpha) = 1^T (I - alpha A)^{-1} 1 =
    sum_j omega_j / (1 - alpha theta_j) at every alpha given, all below
    1/rho.

    m Lanczos steps on A from 1/sqrt(n) give the Jacobi matrix T_m, whose
    eigenpairs give the m-node Gauss rule: theta_j its eigenvalues and
    omega_j = n (first component of the j-th eigenvector)^2.  The
    recurrence keeps three vectors and no basis.  Every derivative of
    1/(1 - alpha theta) is positive below 1/alpha, so the Gauss value
    n e_1^T (I - alpha T_m)^{-1} e_1 is a lower bound on s, and the
    Gauss-Radau value, whose extra node is fixed at z just above rho, an
    upper bound (Golub & Meurant, Matrices, Moments and Quadrature,
    2010).  Both follow from the pivots of I - alpha T_m and T_m - z I
    at O(1) cost a step.  The run stops once the bracket is within a few
    eps of s at every alpha, or on breakdown (beta_m <= n eps rho), where
    the Krylov space is invariant and the rule exact.  Past n steps it
    raises ConvergenceError with the bracket it reached.
    """
    n = g.n
    z = rho + _RADAU_SHIFT * (1.0 / float(alphas.max()) - rho)
    q_prev, q = np.zeros(n), np.full(n, 1.0 / math.sqrt(n))
    diag, off = [], []
    # per alpha: last pivot of I - alpha T_m, (I - alpha T_m)^{-1} at
    # (1, m) and (1, 1); and the last pivot of T_m - z I
    pivot = corner = gauss = None
    z_pivot, b = 0.0, 0.0
    for _ in range(n):
        w = _matvec(g, q) - b * q_prev
        a = float(q @ w)
        w -= a * q
        diag.append(a)
        if pivot is None:
            pivot = 1.0 - alphas * a
            corner = gauss = 1.0 / pivot
            z_pivot = a - z
        else:
            e = alphas * b
            pivot = 1.0 - alphas * a - e * e / pivot
            corner = corner * e / pivot
            gauss = gauss + corner * corner * pivot
            z_pivot = a - z - b * b / z_pivot
        b = float(np.linalg.norm(w))
        if b <= n * _EPS * rho:
            break
        # the extra node's diagonal entry makes z an eigenvalue of T_{m+1}
        e = alphas * b
        radau_pivot = 1.0 - alphas * (z + b * b / z_pivot) - e * e / pivot
        radau = gauss + (corner * e) ** 2 / radau_pivot
        width = float(np.max((radau - gauss) / gauss))
        if width <= _RULE_C * _EPS:
            break
        off.append(b)
        q_prev, q = q, w / b
    else:
        raise ConvergenceError(f"Lanczos rule did not settle in {n} steps: bracket on "
                               f"1^T (I - alpha A)^-1 1 still {width:.3g} relative",
                               residual=width)
    theta, s = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return theta, n * s[0] ** 2


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
    """U f(beta Theta) U^T 1 from the eigh of the symmetric A kept on g,
    the decomposition its Perron pair comes from, f = exp, sinh (parity
    1) or cosh (parity 0); exact to rounding, with no truncation."""
    theta, u = _kept_eigh(g)
    f = {None: np.exp, 1: np.sinh, 0: np.cosh}[parity]
    with np.errstate(over="ignore", invalid="ignore"):
        x = u @ (f(beta * theta) * (u.T @ np.ones(g.n)))
    if not np.isfinite(x).all():
        raise ParameterError(f"series overflowed: beta * lambda_1 = {beta * theta[-1]:.6g}; "
                             "use a smaller beta")
    return x


def _chain_tail(later: np.ndarray, earlier: np.ndarray, j: int) -> np.ndarray | None:
    """Entrywise bound on t_{j+2} + t_{j+4} + ... from the Taylor terms
    t_j (later) and t_{j-2} (earlier), or None where none is proven.

    A^2 t_{j-2} = j (j-1) / beta^2 t_j, so c = max_i (A^2 t_{j-2})_i /
    (t_{j-2})_i costs no product.  A >= 0 carries A^2 t <= c t along the
    chain, so t_{j+2p} <= r^p t_j with r = beta^2 c / ((j+1)(j+2)).  An
    entry that is 0 where the later term is positive underflowed, and
    proves nothing.
    """
    live = earlier > 0
    if np.any(later[~live] > 0):
        return None
    ratio = np.divide(later, earlier, out=np.zeros_like(later), where=live)
    r = float(ratio.max()) * (j * (j - 1)) / ((j + 1) * (j + 2))
    return later * (r / (1.0 - r)) if r < 1.0 else None


def _taylor_action(
    g: Graph, beta: float, tol: float, parity: int | None, label: str
) -> NodeVector:
    beta = _check_positive("beta", beta)
    _check_positive("tol", tol)
    if g.n <= _SMALL_N and not g.directed:
        return NodeVector(_dense_function(g, beta, parity), label)
    # lambda_1 <= max row sum, so the refusal below can fire only when
    # beta * (max row sum) is past the cap
    may_refuse = beta * float(g._out_degrees.max()) > _TAYLOR_CAP
    # the last four terms t_{k-3}..t_k, enough for both chains' tail bounds
    terms = [np.ones(g.n)]
    total = terms[0].copy() if parity in (None, 0) else np.zeros(g.n)
    # the sum of the summed terms' maxima bounds total.max() from above,
    # so total.max() is formed only once the cheap test can pass
    ceiling = float(total.max())
    # A >= 0 and the first term is 1, so terms and total are nonnegative
    # and can overflow only to +inf, never to NaN
    with np.errstate(over="ignore"):
        for k in range(1, _TAYLOR_CAP + 1):
            term = (beta / k) * _matvec(g, terms[-1])
            terms = terms[-3:] + [term]
            top = float(term.max())
            if top == math.inf:
                raise ParameterError(
                    f"series terms overflowed at order {k}; use a smaller beta"
                )
            if parity is None or k % 2 == parity:
                total += term
                ceiling += top
            if may_refuse and k > 1 and k & (k - 1) == 0:
                # Collatz-Wielandt: min_i (A^2 t)_i / t_i <= lambda_1^2 over
                # the entries with t_i > 0, and the sum needs about
                # beta * lambda_1 terms before its terms start to fall
                earlier = terms[-3]
                ratios = term[earlier > 0] / earlier[earlier > 0]
                low = math.sqrt(k * (k - 1) * float(ratios.min())) if ratios.size else 0.0
                if low > _TAYLOR_CAP:
                    raise ConvergenceError(f"series cannot settle within {_TAYLOR_CAP} terms: "
                                           f"beta * lambda_1 >= {low:.6g}")
            if k < 3 or top > tol * ceiling or top > tol * float(total.max()):
                continue
            chains = [j for j in (k - 1, k) if parity is None or j % 2 == parity]
            tails = [_chain_tail(terms[j - k - 1], terms[j - k - 3], j) for j in chains]
            if all(t is not None for t in tails) and np.all(sum(tails) <= tol * total):
                return NodeVector(total, label)
    raise ConvergenceError(
        f"series did not settle within {_TAYLOR_CAP} terms",
        residual=top,
        best=NodeVector(total, label),
    )


def exp_action(g: Graph, beta: float, tol: float = 1e-12) -> NodeVector:
    """exp(beta A) 1.

    Undirected graphs with n <= 12 (_SMALL_N) take U exp(beta Theta) U^T 1
    from the one dense eigh kept on g, which also gives its Perron pair,
    exact to rounding; tol is validated but has nothing to bound there.  Every other graph sums the Taylor series
    until a proven bound on the remainder is within tol of the sum in
    every entry: with c = max_i (A^2 t_{k-2})_i / (t_{k-2})_i, read from
    the terms themselves, each later term of t_k's parity chain is at
    most r = beta^2 c / ((k+1)(k+2)) times the one before.  The sum needs
    about beta * lambda_1 terms and stops within 20,000; a
    Collatz-Wielandt lower bound on beta * lambda_1 past that cap is
    refused with ConvergenceError after a few products.  A result that
    leaves the float range raises ParameterError.
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


def _finite_total(total) -> float:
    total = float(total)
    if not math.isfinite(total):
        raise ParameterError("walk count overflow: weighted totals left float range")
    return total


def _walk_sums(g: Graph, kmax: int, mixed: bool = False):
    """Totals 1^T A^k 1 for k = 0..kmax, and with mixed also the sums
    1^T A^T A^k 1 = (A 1).(A^k 1) on the same vectors (None otherwise),
    as copies of the pass kept on g per mixed flag: a call steps on from
    the last walk vector, so orders asked one at a time cost one pass.
    An order is kept once its total and mixed sum are both formed.

    On an undirected graph A^T A^k 1 = A^{k+1} 1, so the mixed sums are
    the totals w_1..w_{kmax+1} of the plain pass, and no mixed pass is
    formed.

    Every step is one _matvec.  Unweighted graphs walk in int64, then in
    Python ints before a step could overflow, so their totals are exact
    ints; weighted graphs walk in floats, where overflow warnings are
    silenced and sums that leave the finite range are rejected.
    """
    # concrete classes, not numbers.Integral, whose check tiny graphs feel
    if not isinstance(kmax, (int, np.integer)) or kmax < 0:
        raise ParameterError("walk order must be a nonnegative integer")
    if mixed and not g.directed:
        totals = _walk_sums(g, kmax + 1)[0]
        return totals[:-1], totals[1:]
    total = int if g.unweighted else _finite_total
    passes = g._walk_passes
    # np.errstate costs a few microseconds a call, which tiny graphs feel
    with contextlib.nullcontext() if g.unweighted else np.errstate(over="ignore"):
        if mixed not in passes:
            x = np.ones(g.n, dtype=np.int64 if g.unweighted else np.float64)
            d = _matvec(g, x) if mixed else None  # A 1, the out-degrees, and the first walk vector
            passes[mixed] = ([g.n], [total(d @ x)] if mixed else None, x, d)
        totals, sums, x, d = passes[mixed]
        while len(totals) <= kmax:
            # For x >= 0, each entry of A x, the total 1^T A x =
            # sum_j indeg_j x_j and the mixed sum (A 1).(A x) =
            # sum_j x_j sum_{i->j} d_i are each at most arc_count * 1^T x,
            # and every partial sum is nonnegative: int64 is exact while
            # that bound is below 2^63, and Python ints past it (d @ x too).
            if x.dtype == np.int64 and g.arc_count * totals[-1] >= 2**63:
                x = x.astype(object)
            x = d if mixed and len(totals) == 1 else _matvec(g, x)
            t = total(x.sum())
            if mixed:
                sums.append(total(d @ x))
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
