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
    lines_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            if lines_seen:
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
        edges.append((lineno, s, t, w))
        lines_seen += 1

    if not edges:
        raise GraphError("no edges in input")
    n = max(max(s, t) for _, s, t, _ in edges) + 1
    if declared is not None:
        if declared < n:
            raise GraphError(f"%nodes {declared} is smaller than the ids used "
                             f"(max id {n - 1})")
        n = declared

    # Re-detect build()-level rejections line by line so the message can
    # point at the offender.
    seen = {}
    for lineno, s, t, w in edges:
        key = (s, t) if directed else (min(s, t), max(s, t))
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge ({s}, {t}), first at line {seen[key]}")
        seen[key] = lineno
        if w <= 0:
            raise GraphError(f"line {lineno}: nonpositive weight")
        if not math.isfinite(w):
            raise GraphError(f"line {lineno}: non-finite weight")
    return build(n, [(s, t, w) for _, s, t, w in edges], directed=directed)


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
    used = 1 + max(max(s, t) for s, t, _ in g.edges())
    if g.n > used:
        out.append(f"%nodes {g.n}")
    shift = 1 if one_based else 0
    weighted = not g.unweighted
    for s, t, w in g.edges():
        if weighted:
            out.append(f"{s + shift} {t + shift} {w!r}")
        else:
            out.append(f"{s + shift} {t + shift}")
    return "\n".join(out) + "\n"
