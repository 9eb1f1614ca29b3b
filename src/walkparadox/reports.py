"""Report documents and their canonical serialization.

One JSON layout covers every command: a schema version, a summary of
the graph analyzed, a list of typed report payloads, and provenance
(argv, seed, tolerances, package version).  Serialization is canonical:
keys sorted, floats printed with 17 significant digits (lossless for
doubles), exact rationals as "p/q" strings, and nothing time- or
machine-dependent anywhere.  Identical inputs therefore produce
byte-identical documents, which is itself a tested property.

Payloads are derived from the report dataclasses: each field becomes a
key of the same name (except ParadoxReport.measure_label -> "measure"
and DirectedDegreeReport.reports -> "gaps"), report classes add their
"type" tag wherever they appear, tuples become lists, and a nested
NodeVector becomes its list of values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

from . import __version__
from .centrality import KatzDegreeDiagnostic, KatzEigenvectorDiagnostic
from .conditions import ConditionReport
from .explore import SearchOutcome, SuiteSummary, SweepResult
from .graph import Graph, NodeVector, is_regular
from .paradox import DirectedDegreeReport, ParadoxReport
from .spectral import EigenResult

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "payload",
    "graph_summary",
    "document",
    "parse_document",
    "sweep_csv",
    "search_csv",
]

SCHEMA_VERSION = "1"


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in report: {x!r}")
    return "%.17g" % x


def _emit(obj, indent: int) -> str:
    pad = "  " * (indent + 1)
    close = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings: {key!r}")
            items.append(f"{pad}{json.dumps(key)}: {_emit(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) for v in obj):  # vectors: one pass, one check
            if not all(map(math.isfinite, obj)):
                _float_repr(next(v for v in obj if not math.isfinite(v)))  # raises
            items = ["%.17g" % v for v in obj]
        else:
            items = [_emit(v, indent + 1) for v in obj]
        return "[\n" + pad + (",\n" + pad).join(items) + "\n" + close + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_repr(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _emit(obj, 0) + "\n"


def parse_document(text: str) -> dict:
    return json.loads(text)


# Report classes: their "type" tag and the fields whose document key
# differs from the field name.  Other dataclasses encode untagged.
_TAGS = {
    ParadoxReport: ("paradox", {"measure_label": "measure"}),
    DirectedDegreeReport: ("directed_degree", {"reports": "gaps"}),
    ConditionReport: ("condition", {}),
    SweepResult: ("sweep", {}),
    SearchOutcome: ("search", {}),
    SuiteSummary: ("suite", {}),
    EigenResult: ("eigenpair", {}),
    KatzDegreeDiagnostic: ("katz_degree_limit", {}),
    KatzEigenvectorDiagnostic: ("katz_eigenvector_limit", {}),
}


def _tag_of(obj):
    return next((_TAGS[cls] for cls in type(obj).__mro__ if cls in _TAGS), None)


def _encode(obj):
    if isinstance(obj, NodeVector):
        return obj.values.tolist()
    if dataclasses.is_dataclass(obj):
        tag, renames = _tag_of(obj) or (None, {})
        out = {renames.get(f.name, f.name): _encode(getattr(obj, f.name))
               for f in dataclasses.fields(obj)}
        if tag is not None:
            out["type"] = tag
        return out
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    return obj


def payload(obj) -> dict:
    """Typed dict form of any report object (dicts pass through)."""
    if isinstance(obj, dict):
        return obj
    if isinstance(obj, NodeVector):
        return {"type": "centrality", "label": obj.label, "n": len(obj),
                "values": obj.values.tolist()}
    if _tag_of(obj) is None:
        raise TypeError(f"no payload mapping for {type(obj).__name__}")
    return _encode(obj)


def graph_summary(g: Graph) -> dict:
    summary = {
        "n": g.n,
        "edge_count": g.edge_count,
        "directed": g.directed,
        "weighted": not g.unweighted,
    }
    sides = (("_out", "out"), ("_in", "in")) if g.directed else (("", "undirected"),)
    for suffix, side in sides:
        reg, deg = is_regular(g, side)
        summary[f"regular{suffix}"] = reg
        if reg:
            summary[f"common{suffix}_degree"] = float(deg)
    return summary


def document(command, graph: Graph | None, reports, seed=None, tolerances=None) -> dict:
    """Assemble the full report document for one command invocation."""
    return {
        "schema_version": SCHEMA_VERSION,
        "graph_summary": graph_summary(graph) if graph is not None else None,
        "reports": [payload(r) for r in reports],
        "provenance": {
            "command": list(command),
            "seed": seed,
            "tolerances": dict(tolerances or {}),
            "version": __version__,
        },
    }


def sweep_csv(res: SweepResult) -> str:
    lines = ["alpha,gap"]
    for a, gp in zip(res.alphas, res.gaps):
        lines.append(f"{_float_repr(a)},{_float_repr(gp)}")
    return "\n".join(lines) + "\n"


def search_csv(res: SearchOutcome) -> str:
    lines = ["trial,slack,edges"]
    for v in res.violations:
        parts = []
        for e in v.edges:
            s, t, w = e
            parts.append(f"{s}-{t}" if w == 1.0 else f"{s}-{t}-{w!r}")
        lines.append(f'{v.trial},{_float_repr(v.slack)},"{";".join(parts)}"')
    return "\n".join(lines) + "\n"
