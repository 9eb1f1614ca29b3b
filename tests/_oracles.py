"""Independent reference computations used to check the package.

Everything here deliberately avoids the library's CSR kernels: dense
numpy arrays, Python-int matrix arithmetic, Fractions, and brute-force
loops over arcs.  Slow and obvious beats fast and shared-bug.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def dense_adjacency(g) -> np.ndarray:
    """Float adjacency matrix; undirected graphs come out symmetric."""
    a = np.zeros((g.n, g.n))
    for i, j, w in g.arcs():
        a[i, j] = w
    return a


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
    and a check_lagarias report for each graph of connected_graphs."""
    from walkparadox.explore import _lagarias_search

    return _lagarias_search(connected_graphs(max_n), r, s, f"exhaustive(max_n={max_n})", None)


def dominant_eigenvalue_dense(g) -> float:
    """Largest-magnitude eigenvalue via LAPACK on the dense matrix."""
    a = dense_adjacency(g)
    if not g.directed:
        return float(np.linalg.eigvalsh(a)[-1])
    vals = np.linalg.eigvals(a)
    return float(max(vals, key=abs).real)


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
