"""Plain-text edge lists.

Format: one ``source target [weight]`` triple per line, whitespace
separated.  ``#`` starts a comment (whole line or trailing), blank
lines are skipped, and ``%directed`` / ``%one-based`` / ``%nodes N``
directives may appear on the leading lines, before any edge.  Node
count is inferred as max id + 1 unless ``%nodes`` raises it: that is
the only way to keep trailing isolated nodes, so the writer emits the
directive exactly when such nodes exist.
"""

from __future__ import annotations

import math

from .errors import GraphError
from .graph import Graph, build

__all__ = ["parse_edge_list", "format_edge_list"]


def parse_edge_list(text: str, one_based: bool = False) -> Graph:
    """Parse edge-list text into a Graph; errors carry line numbers."""
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
                if len(tokens) != 2 or not tokens[1].isdigit():
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
            raise GraphError(f"line {lineno}: node ids must be integers: {raw!r}") from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: bad weight: {raw!r}") from None
        if one_based:
            if s < 1 or t < 1:
                raise GraphError(f"line {lineno}: ids must be >= 1 in one-based input")
            s, t = s - 1, t - 1
        if s < 0 or t < 0:
            raise GraphError(f"line {lineno}: negative node id")
        if s == t:
            raise GraphError(f"self-loop at line {lineno}")
        # build() would reject these too, but without the line number
        key = (s, t) if directed or s < t else (t, s)
        if key in first_at:
            raise GraphError(f"line {lineno}: duplicate edge ({s}, {t}), "
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


def format_edge_list(g: Graph, one_based: bool = False, comments=()) -> str:
    """Render a graph in the same format parse_edge_list reads.

    Weights are written only when some weight differs from 1.  The
    output round-trips: parse(format(g)) equals g.
    """
    out = [f"# {c}" for c in comments]
    if g.directed:
        out.append("%directed")
    if one_based:
        out.append("%one-based")
    if g.n > 1 + max(int(g.rows[-1]), int(g.indices.max())):
        out.append(f"%nodes {g.n}")
    shift = 1 if one_based else 0
    line = "{} {}" if g.unweighted else "{} {} {!r}"
    out.extend(line.format(s + shift, t + shift, w) for s, t, w in g.edges())
    return "\n".join(out) + "\n"
