"""Plain-text edge lists.

Format: one ``source target [weight]`` triple per line, whitespace
separated.  ``#`` starts a comment (whole line or trailing), blank
lines are skipped, and ``%directed`` / ``%one-based`` / ``%nodes N``
directives may appear on the leading lines, before any edge.  Node
count is inferred as max id + 1 unless ``%nodes`` raises it: that is
the only way to keep trailing isolated nodes, so the writer emits the
directive exactly when such nodes exist.

The parser makes one tokenizing pass: each line loses its comment and
is split, and the leading directives are read.  Ids are then read with
``int`` and weights with ``float``, and every check runs on whole
arrays, in the order of ``_FAULTS``.  The arrays go to the graph
module's one assembly entry, whose sort also lines up duplicate edges,
so a valid file is sorted once and checked once.  Line numbers are
worked out only for the error raised: that of the first faulty line,
and within it of the first check it fails.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError
from .graph import _MAX_NODES, Graph, _assemble

__all__ = ["parse_edge_list", "format_edge_list"]

# The checks on an edge line, in the order they are made; a line's
# error names the first one it fails.
_FAULTS = (
    "line {n}: directives must precede all edges",
    "line {n}: expected 'source target [weight]', got {raw!r}",
    "line {n}: node ids must be integers: {raw!r}",
    # the id itself is left out: str() refuses an int past its digit limit
    "line {n}: node id too large: a graph holds at most {cap} nodes",
    "line {n}: bad weight: {raw!r}",
    "line {n}: {low}",
    "self-loop at line {n}",
    "line {n}: duplicate edge ({s}, {t}), first at line {first}",
    "line {n}: nonpositive weight",
    "line {n}: non-finite weight",
)
_DUPLICATE = 7


def parse_edge_list(text: str, one_based: bool = False) -> Graph:
    """Parse edge-list text into a Graph; errors carry line numbers."""
    lines = text.splitlines()
    bare = [raw.partition("#")[0] for raw in lines]
    counts = np.fromiter(map(len, map(str.split, bare)), np.intp, len(bare))
    directed, one_based, declared, start = _directives(bare, counts, one_based)
    at = np.flatnonzero(counts[start:]) + start  # the edge lines
    if not at.size:
        raise GraphError("no edges in input")
    m = at.size
    fields = counts[at]
    heads, tails, weights = _columns(" ".join(bare[start:]).split(), fields)
    shift = 1 if one_based else 0
    cap = _MAX_NODES - 1 + shift  # the largest id whose node count is held
    # an unread token counts as cap + 1: digits that int() refuses only for
    # their number are ids past cap, and any other token is no id at all
    ids, unread = _read(heads + tails, int, cap + 1)
    if unread.any():
        unread &= [not _digits(tok) for tok in heads + tails]
    try:
        codes = np.array(ids, dtype=np.int64)
    except OverflowError:  # only ids past cap or below -2^63, on faulty lines
        codes = np.array([min(max(v, -1), cap + 1) for v in ids], dtype=np.int64)
    s, t = codes[:m], codes[m:]
    three = fields == 3
    w = np.ones(m)
    bad_weight = np.zeros(m, dtype=bool)
    w[three], bad_weight[three] = _read(weights, float, 1.0)
    faults = [
        # a stray directive never reads as an id, so only then can one be there
        np.array([h[0] == "%" for h in heads]) if unread.any() else unread[:m],
        (fields < 2) | (fields > 3),
        unread[:m] | unread[m:],
        (s > cap) | (t > cap),
        bad_weight,
        (s < shift) | (t < shift),
        s == t,
        np.zeros(m, dtype=bool),  # duplicates: the assembly's sort finds them
        w <= 0,
        ~np.isfinite(w),
    ]

    def refuse():
        """Raise the error of the first faulty line, if there is one."""
        lo, hi = (s, t) if directed else (np.minimum(s, t), np.maximum(s, t))
        faults[_DUPLICATE], earlier = _repeats(lo, hi)
        table = np.array(faults)
        faulty = table.any(axis=0)
        if faulty.any():
            i = int(np.argmax(faulty))
            low = "ids must be >= 1 in one-based input" if one_based else "negative node id"
            raise GraphError(_FAULTS[int(np.argmax(table[:, i]))].format(
                n=at[i] + 1, raw=lines[at[i]], low=low, s=ids[i], t=ids[m + i],
                first=at[earlier[i]] + 1, cap=_MAX_NODES))

    if np.any(faults):
        refuse()
    n = int(codes.max()) - shift + 1
    try:
        if declared is not None:
            if declared < n:
                raise GraphError(f"%nodes {declared} is smaller than the ids used "
                                 f"(max id {n - 1})")
            n = declared
        g = _assemble(n, directed, s - shift, t - shift, w)
    except GraphError:
        refuse()  # a duplicate line is named before the node count or its arrays
        raise
    if np.any((g.indices[1:] == g.indices[:-1]) & (g.rows[1:] == g.rows[:-1])):
        refuse()
    return g


def _directives(bare: list, counts: np.ndarray, one_based: bool):
    """Read the leading directives from the comment-stripped lines:
    (directed, one_based, %nodes or None, index of the first edge line)."""
    directed = False
    declared = None
    for i, text in enumerate(bare):
        if not counts[i]:
            continue
        line = text.strip()
        if line[0] != "%":
            return directed, one_based, declared, i
        directive = line[1:].strip().lower()
        words = directive.split()
        if directive == "directed":
            directed = True
        elif directive == "one-based":
            one_based = True
        elif words[:1] == ["nodes"]:
            # isdecimal, not isdigit: int() refuses digits such as '²', and
            # also more digits than sys.get_int_max_str_digits() allows
            count = words[1] if len(words) == 2 and words[1].isdecimal() else ""
            try:
                declared = int(count)
            except ValueError:
                raise GraphError(f"line {i + 1}: %nodes needs one integer, "
                                 "e.g. %nodes 12") from None
        else:
            raise GraphError(f"line {i + 1}: unknown directive {line!r}")
    return directed, one_based, declared, len(bare)


def _columns(tokens: list, fields: np.ndarray):
    """The source and target token of each edge line, from the flat token
    list and each line's field count, and the weight token of each line
    with three fields.  A line with one field gives it as its target too;
    its field count alone refuses it."""
    first = np.cumsum(fields) - fields
    take = tokens.__getitem__
    return (list(map(take, first.tolist())),
            list(map(take, (first + (fields > 1)).tolist())),
            list(map(take, (first[fields == 3] + 2).tolist())))


def _read(tokens: list, kind, blank):
    """Each token read by ``kind``, and a mask of the tokens it cannot
    read, which count as ``blank``."""
    try:
        return list(map(kind, tokens)), np.zeros(len(tokens), dtype=bool)
    except ValueError:
        values, unread = [], []
        for tok in tokens:
            try:
                values.append(kind(tok))
                unread.append(False)
            except ValueError:
                values.append(blank)
                unread.append(True)
        return values, np.array(unread)


def _digits(token: str) -> bool:
    """Whether a token is ASCII digits after an optional sign."""
    digits = token[1:] if token[0] in "+-" else token
    return digits.isascii() and digits.isdigit()


def _repeats(lo: np.ndarray, hi: np.ndarray):
    """Whether each (lo, hi) pair occurs at an earlier position, and the
    first position holding it."""
    _, first, inverse = np.unique(np.stack((lo, hi), axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    first = first[inverse.ravel()]
    return first != np.arange(lo.size), first


def format_edge_list(g: Graph, one_based: bool = False, comments=()) -> str:
    """Render a graph in the same format parse_edge_list reads.

    Weights are written only when some weight differs from 1.  Each line
    of a comment gets its own ``# ``.  The output round-trips:
    parse(format(g)) equals g.
    """
    out = [f"# {line}" for c in comments for line in (c.splitlines() or [""])]
    if g.directed:
        out.append("%directed")
    if one_based:
        out.append("%one-based")
    if g.n > 1 + max(int(g.rows[-1]), int(g.indices.max())):
        out.append(f"%nodes {g.n}")
    rows, cols, wts = g.rows, g.indices, g.weights
    if not g.directed:
        upper = rows < cols
        rows, cols, wts = rows[upper], cols[upper], wts[upper]
    shift = 1 if one_based else 0
    columns = [(rows + shift).tolist(), (cols + shift).tolist()]
    if not g.unweighted:
        columns.append(wts.tolist())
    out.extend(map(("{} {}" if g.unweighted else "{} {} {!r}").format, *columns))
    return "\n".join(out) + "\n"
