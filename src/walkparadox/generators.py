"""Named graph families: fixed examples, parametric constructions, and
seeded random models.

Random families draw from the counter-based generator in ``rng``; a
given (family, parameters, seed) always produces the same edge set, on
any machine, regardless of what else has been sampled.  That is what
lets search results and test corpora replay exactly.

The hub_cycle family deserves a note: node 0 points at everyone, nodes
1..n-2 chain forward, and the last node closes the loop to BOTH node 0
and node 1.  The double closure is what produces out-degrees
(n-1, 1, ..., 1, 2) with in-degrees (1, 2, ..., 2), the shape whose
cross-degree products (3n-1 against one-norm 2n-1) drive the negative
mixed-paradox examples.

The exhaustive corpus comes from one mask source: the edge subsets of
each K_n, as int64 bitmasks filtered for connectivity in blocks of at
most 4,096.  enumerate_connected builds a Graph from each kept mask; the
exhaustive search builds only the graphs it reports, and the CLI's
enumerate only counts the masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from .errors import GraphError, ParameterError
from .graph import Graph, _assemble, is_connected
from .rng import CounterRng, derive_seed

__all__ = [
    "FamilySpec",
    "make",
    "make_connected",
    "enumerate_connected",
    "figure1",
    "path",
    "cycle",
    "complete",
    "star_undirected",
    "star_out",
    "star_in",
    "hub_cycle",
    "three_node",
    "directed_cycle",
    "k_regular_random",
    "erdos_renyi",
    "erdos_renyi_directed",
    "barabasi_albert",
]

_FIGURE1_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (5, 6), (6, 7))

_PAIRING_ATTEMPTS = 10_000


def _graph(n: int, edges, directed: bool = False) -> Graph:
    """The unweighted graph on n nodes with these (source, target) pairs.

    The families' edges are valid by construction, so they go straight
    to the assembly entry without build's per-edge checks.
    """
    arcs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return _assemble(int(n), directed, arcs[:, 0], arcs[:, 1], np.ones(len(arcs)))


def figure1() -> Graph:
    """The 8-node introductory example network (degrees 4,1,1,1,3,2,3,1)."""
    return _graph(8, _FIGURE1_EDGES)


def path(n: int) -> Graph:
    if n < 2:
        raise ParameterError("path requires n >= 2")
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle requires n >= 3")
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 2:
        raise ParameterError("complete graph requires n >= 2")
    return _graph(n, list(combinations(range(n), 2)))


def star_undirected(n: int) -> Graph:
    """Hub node 0 joined to n-1 leaves."""
    if n < 2:
        raise ParameterError("star requires n >= 2")
    return _graph(n, [(0, i) for i in range(1, n)])


def star_out(n: int) -> Graph:
    """All arcs leave node 0: d_out = (n-1, 0, ...), d_in = (0, 1, ...)."""
    if n < 2:
        raise ParameterError("star requires n >= 2")
    return _graph(n, [(0, i) for i in range(1, n)], directed=True)


def star_in(n: int) -> Graph:
    """All arcs enter node 0."""
    if n < 2:
        raise ParameterError("star requires n >= 2")
    return _graph(n, [(i, 0) for i in range(1, n)], directed=True)


def hub_cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("hub_cycle requires n >= 3")
    edges = [(0, j) for j in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges += [(n - 1, 0), (n - 1, 1)]
    return _graph(n, edges, directed=True)


def three_node() -> Graph:
    """Adjacency rows (0,1,1), (0,0,1), (1,0,0): strongly connected,
    dominant eigenvalue below the mean degree 4/3."""
    return _graph(3, [(0, 1), (0, 2), (1, 2), (2, 0)], directed=True)


def directed_cycle(n: int) -> Graph:
    if n < 2:
        raise ParameterError("directed cycle requires n >= 2")
    return _graph(n, [(i, (i + 1) % n) for i in range(n)], directed=True)


def k_regular_random(n: int, k: int, seed: int = 0) -> Graph:
    """Uniform-ish k-regular graph by stub pairing with rejection.

    Pairings containing a self-loop or repeated edge are discarded and
    redrawn with a derived seed, so the result is simple and exactly
    k-regular, still a pure function of (n, k, seed).
    """
    if k < 1 or k >= n:
        raise ParameterError("k-regular requires 1 <= k < n")
    if (n * k) % 2 != 0:
        raise ParameterError("k-regular requires n*k even")
    for attempt in range(_PAIRING_ATTEMPTS):
        rng = CounterRng(derive_seed(seed, attempt))
        stubs = [i for i in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for t in range(0, len(stubs), 2):
            a, b = stubs[t], stubs[t + 1]
            if a == b:
                ok = False
                break
            key = (a, b) if a < b else (b, a)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return _graph(n, sorted(seen))
    raise GraphError(
        f"stub pairing failed {_PAIRING_ATTEMPTS} times for n={n}, k={k}; "
        "this parameter range is too dense for rejection sampling"
    )


def _bernoulli(n: int, p: float, seed: int, directed: bool) -> Graph:
    """Each pair of distinct nodes, in lexicographic order, kept with
    probability p by one draw; ordered pairs when directed."""
    if n < 2:
        raise ParameterError("random graph requires n >= 2")
    if not 0 < p <= 1:
        raise ParameterError("p must lie in (0, 1]")
    rng = CounterRng(seed)
    pairs = permutations(range(n), 2) if directed else combinations(range(n), 2)
    edges = [pair for pair in pairs if rng.uniform() < p]
    if not edges:
        raise GraphError(f"sampled an empty graph (n={n}, p={p}, seed={seed}); increase p")
    return _graph(n, edges, directed=directed)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """Each unordered pair kept independently with probability p."""
    return _bernoulli(n, p, seed, directed=False)


def erdos_renyi_directed(n: int, p: float, seed: int = 0) -> Graph:
    """Each ordered pair kept independently with probability p."""
    return _bernoulli(n, p, seed, directed=True)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment: node m joins all of 0..m-1, then each new
    node attaches to m distinct endpoints sampled proportionally to
    current degree (by drawing from the arc-endpoint list with
    rejection of repeats)."""
    if m < 1 or m >= n:
        raise ParameterError("preferential attachment requires 1 <= m < n")
    rng = CounterRng(seed)
    edges = [(m, j) for j in range(m)]
    endpoints = [m] * m + list(range(m))
    for t in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[rng.randint(len(endpoints))])
        for j in sorted(targets):
            edges.append((t, j))
        endpoints.extend([t] * m)
        endpoints.extend(sorted(targets))
    return _graph(n, edges)


_FAMILIES = {
    "figure1": (figure1, ()),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "star_undirected": (star_undirected, ("n",)),
    "star_out": (star_out, ("n",)),
    "star_in": (star_in, ("n",)),
    "hub_cycle": (hub_cycle, ("n",)),
    "three_node": (three_node, ()),
    "directed_cycle": (directed_cycle, ("n",)),
    "k_regular_random": (k_regular_random, ("n", "k", "seed")),
    "erdos_renyi": (erdos_renyi, ("n", "p", "seed")),
    "erdos_renyi_directed": (erdos_renyi_directed, ("n", "p", "seed")),
    "barabasi_albert": (barabasi_albert, ("n", "m", "seed")),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its parameters; the unit of reproducibility.

    Each of n, k, p and m is required by the families that read it and
    refused by the others.
    """

    family: str
    n: int | None = None
    k: int | None = None
    p: float | None = None
    m: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            known = ", ".join(sorted(_FAMILIES))
            raise ParameterError(f"unknown family {self.family!r}; known: {known}")
        # seed is never refused: its default 0 cannot be told from an explicit 0
        needed = _FAMILIES[self.family][1]
        for name in ("n", "k", "p", "m"):
            if name in needed and getattr(self, name) is None:
                raise ParameterError(f"family {self.family!r} requires parameter {name!r}")
            if name not in needed and getattr(self, name) is not None:
                raise ParameterError(f"family {self.family!r} takes no parameter {name!r}")


def make(spec: FamilySpec) -> Graph:
    """Build the graph a spec describes; identical spec, identical graph."""
    fn, needed = _FAMILIES[spec.family]
    args = [getattr(spec, name) for name in needed]
    return fn(*args)


def make_connected(spec: FamilySpec, max_attempts: int = 1000):
    """Draw from a random family until the sample is connected.

    Attempt i replaces the seed with derive_seed(seed, i).  Returns
    (graph, attempts_used); deterministic families either pass on the
    first try or fail immediately.
    """
    if "seed" not in _FAMILIES[spec.family][1]:
        g = make(spec)
        if not is_connected(g):
            raise GraphError(f"family {spec.family!r} is not connected")
        return g, 1
    for attempt in range(max_attempts):
        try:
            g = make(replace(spec, seed=derive_seed(spec.seed, attempt)))
        except GraphError:
            continue  # empty sample; redraw
        if is_connected(g):
            return g, attempt + 1
    raise GraphError(
        f"no connected sample from {spec.family!r} in {max_attempts} attempts; "
        "raise the density or the attempt budget"
    )


# Edge masks tested, and connected masks yielded, per block: enough to
# amortise numpy's per-call cost, small enough to keep peak memory flat.
_MASK_BLOCK = 4096


def _connected_mask_blocks(max_n: int):
    """Blocks (n, pairs, masks) for n = 2..max_n: masks is an ascending
    int64 array of at most _MASK_BLOCK edge subsets of K_n whose graph is
    connected, and bit i of a mask stands for the edge pairs[i].

    max_n is checked at the call, not at the first block.  Connectivity
    is a bitset reachability test on whole blocks: one adjacency word per
    node, and n - 1 rounds in which every node seen so far adds its word
    to the seen set of node 0.  The words are uint8 (n <= 7 bits), which
    keeps a block's temporaries small enough not to raise peak memory.
    """
    if max_n < 2:
        raise ParameterError("max_n must be >= 2")
    if max_n > 7:
        raise ParameterError("enumeration is capped at max_n = 7")

    def blocks():
        for n in range(2, max_n + 1):
            pairs = tuple(combinations(range(n), 2))
            nodes = np.arange(n, dtype=np.uint8)[:, None]
            full = 1 << len(pairs)
            for start in range(1, full, _MASK_BLOCK):
                masks = np.arange(start, min(start + _MASK_BLOCK, full), dtype=np.int64)
                adj = np.zeros((n, len(masks)), dtype=np.uint8)
                for i, (a, b) in enumerate(pairs):
                    e = (masks >> i & 1).astype(np.uint8)
                    adj[a] |= e << b
                    adj[b] |= e << a
                seen = np.ones(len(masks), dtype=np.uint8)
                for _ in range(n - 1):
                    seen |= np.bitwise_or.reduce(adj * (seen >> nodes & 1), axis=0)
                masks = masks[seen == (1 << n) - 1]
                if len(masks):
                    yield n, pairs, masks

    return blocks()


def _mask_graph(n: int, pairs, mask: int) -> Graph:
    """The graph on n nodes with edge pairs[i] for every bit i set in mask."""
    return _graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def enumerate_connected(max_n: int):
    """Every connected labeled simple graph with 2 <= n <= max_n, once.

    Edge subsets of K_n are swept as bitmasks in ascending order, a block
    at a time, and only the connected ones are built.  Counts grow as
    1, 4, 38, 728, 26704 for n = 2..6; max_n is capped at 7 because
    n = 8 alone would mean 2^28 subsets.
    """
    for n, pairs, masks in _connected_mask_blocks(max_n):
        for mask in masks.tolist():
            yield _mask_graph(n, pairs, mask)
