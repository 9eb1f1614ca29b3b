"""Independent reference computations used to check the package.

Everything here deliberately avoids the library's CSR kernels: dense
numpy arrays, Python-int matrix arithmetic, Fractions, and brute-force
loops over arcs.  Slow and obvious beats fast and shared-bug.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np


def rebuilt(g):
    """The same arrays in a new Graph object, which keeps no walk pass,
    connectivity verdict or Perron pair yet."""
    return type(g)(g.n, g.directed, g.indptr, g.indices, g.weights)


def dense_adjacency(g) -> np.ndarray:
    """Float adjacency matrix; undirected graphs come out symmetric."""
    a = np.zeros((g.n, g.n))
    for i, j, w in g.arcs():
        a[i, j] = w
    return a


def matvec_bincount(g, x: np.ndarray) -> np.ndarray:
    """Float64 A @ x as one weighted np.bincount over the arcs: each arc's
    weight times x at its target, added into its row in arc order."""
    return np.bincount(g.rows, weights=g.weights * x[g.indices], minlength=g.n)


def int_adjacency(g) -> list[list[int]]:
    """Python-int adjacency rows (unweighted graphs only)."""
    assert g.unweighted
    a = [[0] * g.n for _ in range(g.n)]
    for i, j, _ in g.arcs():
        a[i][j] = 1
    return a


def int_matvec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def walk_total_int(g, k: int) -> int:
    """1^T A^k 1 with exact integer arithmetic."""
    a = int_adjacency(g)
    x = [1] * g.n
    for _ in range(k):
        x = int_matvec(a, x)
    return sum(x)


def mixed_total_int(g, k: int) -> int:
    """(A 1)^T (A^k 1) with exact integer arithmetic."""
    a = int_adjacency(g)
    d = int_matvec(a, [1] * g.n)
    x = [1] * g.n
    for _ in range(k):
        x = int_matvec(a, x)
    return sum(di * xi for di, xi in zip(d, x))


def neighbour_average_brute(g, x, mode: str) -> float:
    """Arc-by-arc weighted average of x, no degree vectors involved.

    mode "out" evaluates x at arc sources, "in"/"undirected" at targets
    (undirected storage holds both arc directions, so targets sweep
    every edge endpoint).
    """
    num = 0.0
    den = 0.0
    for i, j, w in g.arcs():
        num += w * (x[i] if mode == "out" else x[j])
        den += w
    return num / den


def gap_fraction_brute(g, x) -> Fraction:
    """Exact undirected gap from integer degrees and integral x."""
    assert g.unweighted and not g.directed
    deg = [0] * g.n
    for i, _, _ in g.arcs():
        deg[i] += 1
    xs = [Fraction(int(v)) for v in x]
    num = sum(Fraction(d) * v for d, v in zip(deg, xs))
    return num / sum(deg) - sum(xs) / g.n


def bernoulli_edges(n: int, p: float, seed: int, directed: bool) -> list[tuple[int, int]]:
    """Pairs the Erdos-Renyi samplers keep: a double loop over i < j, or
    over i != j when directed, with one CounterRng draw per pair."""
    from walkparadox import CounterRng

    rng = CounterRng(seed)
    edges = []
    for i in range(n):
        for j in range(n) if directed else range(i + 1, n):
            if i != j and rng.uniform() < p:
                edges.append((i, j))
    return edges


def mask_connected(n: int, pairs, mask: int) -> bool:
    """Is the graph with edge pairs[i] for each bit i of mask connected?
    One mask at a time: Python-int adjacency words, frontier by frontier."""
    adj = [0] * n
    m = mask
    idx = 0
    while m:
        if m & 1:
            a, b = pairs[idx]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        m >>= 1
        idx += 1
    seen = 1
    frontier = adj[0]
    while frontier:
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
    return seen == (1 << n) - 1


def mask_csr(n: int, pairs, mask: int):
    """(indptr, indices, weights) of the graph with edge pairs[i] for each
    bit i of mask, one mask at a time: its edge list, mirrored, sorted
    row-major by one lexsort, indptr from a bincount of the sources."""
    edges = np.array([pair for i, pair in enumerate(pairs) if mask >> i & 1],
                     dtype=np.int64).reshape(-1, 2)
    src = np.concatenate((edges[:, 0], edges[:, 1]))
    dst = np.concatenate((edges[:, 1], edges[:, 0]))
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], np.ones(len(src))


def connected_graphs(max_n: int):
    """Every connected labeled graph on 2..max_n nodes, built one mask at
    a time in ascending mask order, with the package's max_n checks."""
    from itertools import combinations

    from walkparadox import ParameterError, build

    if max_n < 2:
        raise ParameterError("max_n must be >= 2")
    if max_n > 7:
        raise ParameterError("enumeration is capped at max_n = 7")
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            if mask_connected(n, pairs, mask):
                yield build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def exhaustive_search(max_n: int, r: int, s: int):
    """The exhaustive product-inequality search graph by graph: a build
    and a check_lagarias report for each graph of connected_graphs.
    Even r + s is refused before the first graph is drawn."""
    from walkparadox import ParameterError, SearchOutcome, ViolationRecord, check_lagarias

    if (r + s) % 2 == 0:
        raise ParameterError("even order is theorem-guaranteed; search odd r+s instead")
    violations, slacks = [], []
    for trial, g in enumerate(connected_graphs(max_n)):
        report = check_lagarias(g, r, s)
        slacks.append(report.slack)
        if not report.holds:
            violations.append(ViolationRecord(trial, g.n, g.directed, tuple(g.edges()),
                                              report.condition_id, report.slack))
    return SearchOutcome(r, s, len(slacks), tuple(violations), float(min(slacks)),
                         f"exhaustive(max_n={max_n})", None)


def start_vector(n: int) -> np.ndarray:
    """Power iteration's start vector: 1/n + i/n^2, scaled to sum n by a
    sum taken left to right in plain float addition."""
    raw = [1.0 / n + i / (n * n) for i in range(n)]
    s = 0.0
    for v in raw:
        s += v
    return np.array([v * (n / s) for v in raw])


def dominant_eigenvalue_dense(g) -> float:
    """Spectral radius via LAPACK on the dense matrix: the Perron root of
    an irreducible graph, also when periodicity puts -rho beside it."""
    a = dense_adjacency(g)
    if not g.directed:
        return float(np.linalg.eigvalsh(a)[-1])
    return float(np.abs(np.linalg.eigvals(a)).max())


def katz_dense(g, alpha: float) -> np.ndarray:
    """(I - alpha A)^-1 1 by direct solve."""
    a = dense_adjacency(g)
    return np.linalg.solve(np.eye(g.n) - alpha * a, np.ones(g.n))


def matrix_function_dense(g, beta: float, parity: str) -> np.ndarray:
    """f(beta A) 1 for f in exp/sinh/cosh.

    Undirected graphs go through the spectral decomposition (a genuinely
    different algorithm from the library's term-by-term summation);
    directed ones fall back to dense Taylor with matrix powers.
    """
    fn = {"exp": np.exp, "odd": np.sinh, "even": np.cosh}[parity]
    if not g.directed:
        lam, vecs = np.linalg.eigh(dense_adjacency(g))
        coords = vecs.T @ np.ones(g.n)
        return vecs @ (fn(beta * lam) * coords)
    a = dense_adjacency(g) * beta
    term = np.ones(g.n)
    keep = {"exp": (0, 1), "odd": (1,), "even": (0,)}[parity]
    total = term.copy() if 0 in keep else np.zeros(g.n)
    for k in range(1, 160):
        term = a @ term / k
        if k % 2 in keep:
            total = total + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(total).max()):
            break
    return total


def series_dense(g, coeffs) -> np.ndarray:
    a = dense_adjacency(g)
    x = np.ones(g.n)
    out = np.zeros(g.n)
    for c in coeffs:
        out = out + c * x
        x = a @ x
    return out


def weighted_growth_violator():
    """A connected weighted graph whose order-2 growth check fails.

    A star pushes walk counts up slowly (w2 grows like the hub degree
    squared but w3 lags), while a triangle grows geometrically; a
    feather-weight bridge joins them without mixing the counts.  The
    combined graph keeps w2 * w1 / n above w3.
    """
    from walkparadox import build

    eps = 2.0 ** -10
    edges = [(0, i) for i in range(1, 11)]
    edges += [(11, 12), (12, 13), (11, 13), (1, 11, eps)]
    return build(14, edges)


def residual_dense(g, vector, eigenvalue) -> float:
    a = dense_adjacency(g)
    x = np.asarray(vector, dtype=float)
    return float(np.linalg.norm(a @ x - eigenvalue * x))


def _reads_as_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _signed_ascii_digits(token: str) -> bool:
    """An optional sign and then only the characters 0-9: int() refuses
    such a token only for its number of digits."""
    return re.fullmatch(r"[+-]?[0-9]+", token) is not None


def parse_edge_list(text: str, one_based: bool = False):
    """The edge-list parser line by line: each line checked in turn with a
    dict of the edges seen so far, then every edge handed to build."""
    from walkparadox import GraphError, build

    directed = False
    declared = None
    edges = []
    first_at = {}
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            if edges:
                raise GraphError(f"line {lineno}: directives must precede all edges")
            directive = line[1:].strip().lower()
            tokens = directive.split()
            if directive == "directed":
                directed = True
            elif directive == "one-based":
                one_based = True
            elif tokens[:1] == ["nodes"]:
                if len(tokens) != 2 or not tokens[1].isdecimal():
                    raise GraphError(f"line {lineno}: %nodes needs one integer, "
                                     "e.g. %nodes 12")
                declared = int(tokens[1])
            else:
                raise GraphError(f"line {lineno}: unknown directive {line!r}")
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(
                f"line {lineno}: expected 'source target [weight]', got {raw!r}"
            )
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            if all(_reads_as_int(p) or _signed_ascii_digits(p) for p in parts[:2]):
                raise GraphError(f"line {lineno}: node id too large: more than "
                                 f"{sys.get_int_max_str_digits()} digits") from None
            raise GraphError(f"line {lineno}: node ids must be integers: {raw!r}") from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: bad weight: {raw!r}") from None
        written = (s, t)
        if one_based:
            if s < 1 or t < 1:
                raise GraphError(f"line {lineno}: ids must be >= 1 in one-based input")
            s, t = s - 1, t - 1
        if s < 0 or t < 0:
            raise GraphError(f"line {lineno}: negative node id")
        if s == t:
            raise GraphError(f"self-loop at line {lineno}")
        key = (s, t) if directed or s < t else (t, s)
        if key in first_at:
            raise GraphError(f"line {lineno}: duplicate edge {written}, "
                             f"first at line {first_at[key]}")
        first_at[key] = lineno
        if w <= 0:
            raise GraphError(f"line {lineno}: nonpositive weight")
        if not math.isfinite(w):
            raise GraphError(f"line {lineno}: non-finite weight")
        edges.append((s, t, w))
        top = max(top, s, t)

    if not edges:
        raise GraphError("no edges in input")
    n = top + 1
    if declared is not None:
        if declared < n:
            raise GraphError(f"%nodes {declared} is smaller than the ids used "
                             f"(max id {n - 1})")
        n = declared
    return build(n, edges, directed=directed)


def as_ints(values: np.ndarray):
    """The entries as Python ints when every one is an integer below 2^53
    in magnitude, else None: a bound check, then rint, then int() of each."""
    if np.any(np.abs(values) >= 2**53):
        return None
    rounded = np.rint(values)
    if not np.array_equal(rounded, values):
        return None
    return [int(v) for v in rounded]


def paradox_report_fraction(g, x, mode: str, tol: float):
    """The exact paradox report (unweighted g, integral x) in Fraction
    arithmetic: both averages, the gap as their difference and the
    covariance form Cov(d, x) / mean(d), each a Fraction of its own.
    Returns the report and Cov(d, x)."""
    from walkparadox import ParadoxReport

    assert g.unweighted
    sampler = g.reverse if mode == "in" else g
    d = [0] * g.n
    for i, _, _ in sampler.arcs():
        d[i] += 1
    xs = [int(v) for v in np.asarray(getattr(x, "values", x))]
    n = g.n
    sd, sx = sum(d), sum(xs)
    dx = sum(a * b for a, b in zip(d, xs))
    node_avg = Fraction(sx, n)
    neigh_avg = Fraction(dx, sd)
    gap = neigh_avg - node_avg
    mean_d = Fraction(sd, n)
    cov = Fraction(dx, n) - mean_d * node_avg
    cov_form = cov / mean_d
    assert cov_form == gap
    bound = Fraction(tol)
    return ParadoxReport(
        mode=mode,
        measure_label=getattr(x, "label", "") or "attribute",
        node_average=float(node_avg),
        neighbour_average=float(neigh_avg),
        gap=float(gap),
        covariance_form=float(cov_form),
        holds=gap >= -bound,
        equality=abs(gap) <= bound,
        tol=tol,
        exact={"node_average": node_avg, "neighbour_average": neigh_avg, "gap": gap,
               "covariance_form": cov_form},
    ), cov


def directed_degree_report_fraction(g, tol: float = 1e-12):
    """directed_degree_report of an unweighted digraph from
    paradox_report_fraction, the covariance that of the out_in pairing."""
    from walkparadox import DirectedDegreeReport, in_degree_vector, out_degree_vector

    d_out, d_in = out_degree_vector(g), in_degree_vector(g)
    reports = {
        "out_out": paradox_report_fraction(g, d_out, "out", tol)[0],
        "in_in": paradox_report_fraction(g, d_in, "in", tol)[0],
    }
    reports["out_in"], cov = paradox_report_fraction(g, d_in, "out", tol)
    reports["in_out"] = paradox_report_fraction(g, d_out, "in", tol)[0]
    return DirectedDegreeReport(reports=reports, covariance=float(cov), covariance_exact=cov,
                                tol=tol)


def condition_report_fraction(cid: str, lhs, rhs, guaranteed: bool):
    """An exact condition report with its slack lhs - rhs in Fraction
    arithmetic and every float a float() of a Fraction or int."""
    from walkparadox import ConditionReport

    slack = Fraction(lhs) - Fraction(rhs)
    return ConditionReport(
        condition_id=cid,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=slack >= 0,
        guaranteed=guaranteed,
        exact={"lhs": Fraction(lhs), "rhs": Fraction(rhs), "slack": slack},
    )


def walk_growth_fraction(g, k: int, mixed: bool):
    """check_walk_growth (or check_mixed_walk_growth) of an unweighted
    undirected graph from integer matrix walk totals."""
    assert g.unweighted and not g.directed
    w_k, w_1 = walk_total_int(g, k), walk_total_int(g, 1)
    lhs = mixed_total_int(g, k) if mixed else walk_total_int(g, k + 1)
    name = "mixed_walk_growth" if mixed else "walk_growth"
    return condition_report_fraction(f"{name}(k={k})", lhs, Fraction(w_k * w_1, g.n),
                                     k % 2 == 1)
