"""Immutable sparse graphs over dense 0-based node ids.

Adjacency is stored in compressed sparse row form: ``indptr``,
``indices`` and ``weights`` give, per source node, its arcs sorted by
target.  Undirected graphs store both arc directions, so degree sums,
matrix-vector products and walk counts all run on one directed kernel.

Structural rules enforced by :func:`build` (the only public
constructor): no self-loops, no duplicate edges, strictly positive
weights, at least one edge.  A graph whose stored weights are all
exactly 1.0 is flagged ``unweighted`` and gets exact integer arithmetic
in the modules that care.

Every graph is assembled by one private entry, :func:`_assemble`, from
edge arrays.  ``build`` calls it after its own per-edge checks; the
edge-list parser, which checks whole arrays with line numbers, and the
generators, whose edges are valid by construction, call it directly, so
no edge is validated twice.  The enumerated corpus is assembled a block
of graphs at a time in ``generators``.  Both hand arrays they made
themselves to :func:`_trusted`, which freezes them in place; the public
``Graph(...)`` constructor copies the caller's arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphError, ParameterError

__all__ = [
    "Graph",
    "NodeVector",
    "build",
    "degree_vector",
    "out_degree_vector",
    "in_degree_vector",
    "is_connected",
    "is_strongly_connected",
    "is_regular",
    "transpose",
    "validate_graph",
]

# Largest node count whose int64 indptr (n + 1 entries) numpy can size.
_MAX_NODES = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize - 1

# Relative spread below which weighted degrees count as equal.
_REGULAR_RTOL = 1e-12

# The one map from a direction, Perron side or degree mode to the matrix
# it means: "right" is A itself (broadcast walks, right Perron vectors,
# out-degrees) and "left" its transpose A^T (receive, left, in-degrees).
_SIDES = {"undirected": "right", "broadcast": "right", "right": "right", "out": "right",
          "receive": "left", "left": "left", "in": "left"}


@dataclass(frozen=True, eq=False)
class NodeVector:
    """One finite real value per node, tagged with a short label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise GraphError("node vector must be one-dimensional")
        if not np.isfinite(arr).all():
            raise GraphError("node vector entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, NodeVector):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"NodeVector(label={self.label!r}, n={len(self)})"


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable (di)graph; see the module docstring for the storage scheme."""

    n: int
    directed: bool
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indptr", _frozen(self.indptr, np.int64))
        object.__setattr__(self, "indices", _frozen(self.indices, np.int64))
        object.__setattr__(self, "weights", _frozen(self.weights, np.float64))

    @property
    def arc_count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def edge_count(self) -> int:
        return self.arc_count if self.directed else self.arc_count // 2

    @cached_property
    def unweighted(self) -> bool:
        return bool((self.weights == 1.0).all())

    @cached_property
    def total_weight(self) -> float:
        """Sum of a_ij over ordered pairs; counts each undirected edge twice."""
        return float(self.weights.sum())

    @cached_property
    def rows(self) -> np.ndarray:
        """Arc source ids aligned with ``indices`` (for scatter kernels)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def _out_degrees(self) -> np.ndarray:
        """Row sums A 1 as a read-only float array, formed once."""
        sums = np.bincount(self.rows, weights=self.weights, minlength=self.n)
        sums.flags.writeable = False
        return sums

    @cached_property
    def _walk_passes(self) -> dict:
        """A^k 1 passes that spectral._walk_sums alone keeps, by mixed flag."""
        return {}

    @cached_property
    def _reach(self) -> dict:
        """Verdicts of is_connected and is_strongly_connected, by kind."""
        return {}

    @cached_property
    def _perron_pairs(self) -> dict:
        """EigenResults that spectral.dominant_eigenpair alone keeps, by
        (side, tol); refusals are never kept."""
        return {}

    @cached_property
    def _eigh(self) -> list:
        """[(theta, U)], the one eigh of the dense symmetric A that
        spectral alone takes and keeps on an undirected graph with
        n <= 12; empty until then."""
        return []

    @cached_property
    def reverse(self) -> "Graph":
        """Arc-reversed graph; an undirected graph is its own reverse."""
        if not self.directed:
            return self
        return _assemble(self.n, True, self.indices, self.rows, self.weights)

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """All stored arcs as (source, target, weight)."""
        rows = self.rows.tolist()
        cols = self.indices.tolist()
        wts = self.weights.tolist()
        return zip(rows, cols, wts)

    def edges(self) -> list[tuple[int, int, float]]:
        """Canonical edge list: every arc if directed, i < j once otherwise."""
        if self.directed:
            return list(self.arcs())
        return [(i, j, w) for i, j, w in self.arcs() if i < j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, edges={self.edge_count}, {kind})"


def _frozen(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def _trusted(n: int, directed: bool, indptr: np.ndarray, indices: np.ndarray,
             weights: np.ndarray) -> Graph:
    """A Graph over int64, int64 and float64 arrays that no one else writes:
    they are frozen in place, not copied.  The caller vouches for them."""
    for arr in (indptr, indices, weights):
        arr.setflags(write=False)
    g = object.__new__(Graph)
    g.__dict__.update(n=n, directed=directed, indptr=indptr, indices=indices, weights=weights)
    return g


def build(n: int, edges: Iterable[Sequence], directed: bool = False) -> Graph:
    """Validate an edge list and assemble the CSR graph.

    ``edges`` holds ``(source, target)`` or ``(source, target, weight)``
    entries with 0-based ids; omitted weights default to 1.  Undirected
    edges may be given in either orientation but only once.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise GraphError("node count must be a positive integer")
    n = int(n)
    if n > _MAX_NODES:  # before the loop: ids below such an n may not fit int64
        raise GraphError(f"node count {_decimal(n)} exceeds what int64 index arrays can hold")

    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        if len(edge) == 2:
            s, t = edge
            w = 1.0
        elif len(edge) == 3:
            s, t, w = edge
        else:
            raise GraphError(f"edge must be (source, target[, weight]): {_shown(edge)}")
        if isinstance(s, bool) or isinstance(t, bool):
            raise GraphError(f"node ids must be integers: {_shown(edge)}")
        if not isinstance(s, (int, np.integer)) or not isinstance(t, (int, np.integer)):
            raise GraphError(f"node ids must be integers: {_shown(edge)}")
        s, t = int(s), int(t)
        if not (0 <= s < n and 0 <= t < n):
            raise GraphError(f"node id out of range 0..{n - 1}: {_shown((s, t))}")
        if s == t:
            raise GraphError(f"self-loop at node {s}")
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise GraphError(f"nonpositive or non-finite weight on edge ({s}, {t})")
        key = (s, t) if directed else (min(s, t), max(s, t))
        if key in seen:
            raise GraphError(f"duplicate edge ({s}, {t})")
        seen.add(key)
        src.append(s)
        dst.append(t)
        wts.append(w)

    if not src:
        raise GraphError("graph must contain at least one edge")

    return _assemble(n, bool(directed), np.asarray(src, dtype=np.int64),
                     np.asarray(dst, dtype=np.int64), np.asarray(wts, dtype=np.float64))


def _decimal(n: int) -> str:
    """n in decimal, or a bound on it where str() refuses its digit count."""
    try:
        return str(n)
    except ValueError:
        return f"of more than {sys.get_int_max_str_digits()} digits"


def _shown(obj) -> str:
    """repr(obj), with a bound in place of each int whose digits str() refuses."""
    try:
        return repr(obj)
    except ValueError:
        if isinstance(obj, int):
            return f"<int {_decimal(obj)}>"
        return "(" + ", ".join(map(_shown, obj)) + ")"


def _assemble(n: int, directed: bool, src: np.ndarray, dst: np.ndarray,
              wts: np.ndarray) -> Graph:
    """The one CSR assembly: edges (source, target, weight) as int64 and
    float64 arrays, mirrored when undirected and sorted row-major.
    Refuses only a node count past ``_MAX_NODES`` (before it reads an
    array) or past memory; the caller vouches for the edges.  Duplicate
    edges come out as equal adjacent arcs in a row.
    """
    if n > _MAX_NODES:
        raise GraphError(f"node count {_decimal(n)} exceeds what int64 index arrays can hold")
    if not directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        wts = np.concatenate((wts, wts))
    order = np.lexsort((dst, src))
    try:
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    except MemoryError:
        raise GraphError(f"node count {n} needs index arrays larger than memory") from None
    return _trusted(n, directed, indptr, dst[order], wts[order])


def degree_vector(g: Graph) -> NodeVector:
    """Weighted degrees of an undirected graph."""
    if g.directed:
        raise GraphError(
            "degree_vector requires an undirected graph; "
            "use out_degree_vector or in_degree_vector"
        )
    return NodeVector(g._out_degrees, "degree")


def out_degree_vector(g: Graph) -> NodeVector:
    """Row sums A·1 (equals the plain degree on undirected graphs)."""
    return NodeVector(g._out_degrees, "out-degree")


def in_degree_vector(g: Graph) -> NodeVector:
    """Column sums (A^T)·1 (equals the plain degree on undirected graphs).

    Computed as the row sums of the reversed graph so the value agrees
    bit for bit with out_degree_vector(transpose(g)).
    """
    return NodeVector(g.reverse._out_degrees, "in-degree")


def int_out_degrees(g: Graph) -> list[int]:
    """Arc counts per source; exact degrees when the graph is unweighted."""
    return (g.indptr[1:] - g.indptr[:-1]).tolist()


def _reaches_all(*graphs: Graph) -> bool:
    """Whether node 0 reaches every node along the union of the graphs' arcs."""
    arcs = [(g.indptr.tolist(), g.indices.tolist()) for g in graphs]
    seen = bytearray(graphs[0].n)
    seen[0] = 1
    stack = [0]
    while stack:
        node = stack.pop()
        for ptr, idx in arcs:
            for nbr in idx[ptr[node]:ptr[node + 1]]:
                if not seen[nbr]:
                    seen[nbr] = 1
                    stack.append(nbr)
    return 0 not in seen


def is_connected(g: Graph) -> bool:
    """Connectivity of the underlying undirected structure, kept on g."""
    kept = g._reach
    if "weak" not in kept:
        kept["weak"] = _reaches_all(g, g.reverse) if g.directed else _reaches_all(g)
    return kept["weak"]


def is_strongly_connected(g: Graph) -> bool:
    """Every node reaches every other along directed arcs; kept on g."""
    if not g.directed:
        return is_connected(g)
    kept = g._reach
    if "strong" not in kept:
        kept["strong"] = _reaches_all(g) and _reaches_all(g.reverse)
    return kept["strong"]


def is_regular(g: Graph, orientation: str = "undirected"):
    """Whether all (out-/in-)degrees coincide.

    Returns ``(True, common_degree)`` or ``(False, None)``, the degree a
    float.  Row sums may spread by 1e-12 relative to the largest.  On an
    unweighted graph they are exact integers, and unequal ones differ by
    at least 1, so there the test is exact.
    """
    sums = _oriented(g, orientation)._out_degrees
    lo, hi = float(sums.min()), float(sums.max())
    if hi - lo <= _REGULAR_RTOL * hi:
        return True, float(sums.mean())
    return False, None


def transpose(g: Graph) -> Graph:
    """Arc-reversed graph; the same object for undirected input."""
    return g.reverse


def _side(g: Graph, name: str) -> str:
    """"right" (A) or "left" (A^T) for a name; "undirected" rejects a digraph."""
    if name not in _SIDES:
        raise ParameterError(f"unknown direction or side {name!r}")
    if name == "undirected" and g.directed:
        raise GraphError("'undirected' is invalid on a directed graph; choose "
                         "broadcast or receive for a measure, out or in for degrees")
    return _SIDES[name]


def _oriented(g: Graph, name: str) -> Graph:
    """g for a name that selects A, its cached reverse for one that selects A^T."""
    return g.reverse if _side(g, name) == "left" else g


def validate_graph(g: Graph) -> None:
    """Audit every structural invariant; raises GraphError on the first breach."""
    if g.n < 1:
        raise GraphError("node count must be positive")
    if g.arc_count == 0:
        raise GraphError("graph must contain at least one edge")
    if g.indptr.shape != (g.n + 1,) or g.indptr[0] != 0 or g.indptr[-1] != g.arc_count:
        raise GraphError("malformed indptr")
    if np.any(np.diff(g.indptr) < 0):
        raise GraphError("indptr must be nondecreasing")
    if g.indices.shape != g.weights.shape:
        raise GraphError("indices and weights must align")
    if np.any(g.indices < 0) or np.any(g.indices >= g.n):
        raise GraphError("arc target out of range")
    if np.any(g.weights <= 0) or not np.all(np.isfinite(g.weights)):
        raise GraphError("weights must be positive and finite")
    rows, cols = g.rows, g.indices
    if np.any(rows == cols):
        raise GraphError("self-loop stored")
    # rows is sorted, so a duplicate arc breaks strict increase in its row
    bad = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
    if bad.any():
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        if np.any((r[1:] == r[:-1]) & (c[1:] == c[:-1])):
            raise GraphError("duplicate arc stored")
        raise GraphError(f"row {rows[1 + np.argmax(bad)]} targets not strictly increasing")
    if not g.directed:
        order = np.lexsort((rows, cols))
        if not (np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols)
                and np.array_equal(g.weights[order], g.weights)):
            raise GraphError("undirected storage is not symmetric")
