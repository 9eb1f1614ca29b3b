"""Span recording for the traced benchmark run.

The package itself carries no instrumentation.  For a traced run the
benchmark rebinds the public functions listed in ``LAYERS`` in every
``walkparadox`` module namespace, so a call made by the benchmark and a
call one package function makes to another both open a span.  Each span
is ``(name, start, end, parent, job)``; a layer's self time is the sum of
its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# module -> {public function -> span name}.  rng is left out on purpose:
# it is timed as part of the generators that draw from it.
LAYERS = {
    "graph": {
        "build": "graph.build",
        "is_connected": "graph.connectivity",
        "is_strongly_connected": "graph.connectivity",
        "validate_graph": "graph.validate",
    },
    "edgelist": {
        "parse_edge_list": "edgelist.parse",
        "format_edge_list": "edgelist.format",
    },
    "generators": {
        "enumerate_connected": "generators.enumerate",
        "make": "generators.sample",
        "make_connected": "generators.sample",
        "erdos_renyi": "generators.sample",
        "erdos_renyi_directed": "generators.sample",
        "barabasi_albert": "generators.sample",
        "k_regular_random": "generators.sample",
    },
    "spectral": {
        "dominant_eigenpair": "spectral.eigen",
        "katz_action": "spectral.katz",
        "exp_action": "spectral.series",
        "odd_action": "spectral.series",
        "even_action": "spectral.series",
        "series_action": "spectral.series",
        "walk_counts_through": "spectral.walks",
        "walk_count": "spectral.walks",
        "mixed_walk_count": "spectral.walks",
    },
    "centrality": {"compute": "centrality.compute"},
    "paradox": {
        "paradox_report": "paradox.report",
        "classic_friendship_paradox": "paradox.report",
        "directed_degree_report": "paradox.report",
    },
    "conditions": {
        "check_walk_growth": "conditions.check",
        "check_lagarias": "conditions.check",
        "check_mixed_walk_growth": "conditions.check",
        "check_spectral_directed": "conditions.check",
        "first_order_in_degree_term": "conditions.check",
        "lagarias_scan": "conditions.check",
    },
    "explore": {
        "exhaustive_lagarias_search": "explore.search",
        "search_lagarias_violation": "explore.search",
        "random_theorem_suite": "explore.suite",
        "katz_alpha_sweep": "explore.sweep",
    },
    "reports": {
        "canonical_json": "reports.json",
        "document": "reports.json",
        "parse_document": "reports.json",
        "sweep_csv": "reports.json",
        "search_csv": "reports.json",
    },
}

GENERATORS = {"enumerate_connected"}
# Functions whose results feed counters (see Tracer.observe).
OBSERVED = {"dominant_eigenpair", "paradox_report", "canonical_json"}

# Per-layer metrics as (name, unit).  Times are self seconds per timed
# pass; counts are per timed pass.
METRICS = [
    ("generators.enumerate_s", "s"),
    ("generators.sample_s", "s"),
    ("graph.build_s", "s"),
    ("graph.build_calls", "count"),
    ("graph.connectivity_s", "s"),
    ("graph.validate_s", "s"),
    ("edgelist.parse_s", "s"),
    ("edgelist.format_s", "s"),
    ("spectral.eigen_s", "s"),
    ("spectral.eigen_calls", "count"),
    ("spectral.eigen_iterations", "count"),
    ("spectral.eigen_ms_per_iter", "ms"),
    ("spectral.katz_s", "s"),
    ("spectral.katz_calls", "count"),
    ("spectral.series_s", "s"),
    ("spectral.walks_s", "s"),
    ("conditions.check_s", "s"),
    ("centrality.compute_s", "s"),
    ("paradox.report_s", "s"),
    ("paradox.exact_share", "ratio"),
    ("explore.search_s", "s"),
    ("explore.suite_s", "s"),
    ("explore.sweep_s", "s"),
    ("reports.json_s", "s"),
    ("reports.json_bytes", "bytes"),
    ("cli.process_s", "s"),
    ("cli.import_s", "s"),
    ("trace.wall_s", "s"),
]


class Tracer:
    """In-memory span log plus the counters read off call results."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = "setup"
        self.active = False
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span, e.g. one reported by a child process."""
        self.spans.append([name, start, end, parent, self.job])
        return len(self.spans) - 1

    def observe(self, fname: str, result) -> None:
        if fname == "dominant_eigenpair":
            self.counts["eigen_iterations"] += result.iterations
        elif fname == "paradox_report":
            self.counts["reports"] += 1
            self.counts["exact_reports"] += result.exact is not None
        elif fname == "canonical_json":
            self.counts["json_bytes"] += len(result.encode())

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str):
        tracer = self
        observe = fn.__name__ in OBSERVED

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if observe:
                tracer.observe(fn.__name__, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = tracer.open(name) if tracer.active else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if sid is not None:
                        tracer.close(sid)
                yield item

        return traced

    def install(self) -> None:
        """Rebind every listed public function in all loaded package modules."""
        replacements = {}
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"walkparadox.{module_name}"]
            for fname, span in functions.items():
                original = getattr(module, fname)
                wrap = self.wrap_generator if fname in GENERATORS else self.wrap
                replacements[id(original)] = wrap(original, span)
        modules = [m for key, m in sys.modules.items()
                   if key == "walkparadox" or key.startswith("walkparadox.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Self seconds and span count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        for sid, (name, start, end, parent, job) in enumerate(self.spans):
            total[name] += end - start - child[sid]
            calls[name] += 1
        return dict(total), calls

    def dump(self, path) -> None:
        """Spans and counters as JSON, for a parent process to merge."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict:
    """Per-pass per-layer metrics from the spans of the timed passes.

    A metric named ``<span>_s`` is that span name's self time and
    ``<span>_calls`` its span count; the rest are derived below.
    """
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name, _ in METRICS:
        span, _, kind = name.rpartition("_")
        if kind == "s":
            values[name] = self_s.get(span, 0.0) / passes
        elif kind == "calls":
            values[name] = calls.get(span, 0) / passes
    iters = counts["eigen_iterations"]
    values.update({
        "spectral.eigen_iterations": iters / passes,
        "spectral.eigen_ms_per_iter": (1000.0 * self_s.get("spectral.eigen", 0.0) / iters
                                       if iters else 0.0),
        "paradox.exact_share": (counts["exact_reports"] / counts["reports"]
                                if counts["reports"] else 0.0),
        "reports.json_bytes": counts["json_bytes"] / passes,
        "trace.wall_s": wall_s,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def read_child_spans(path) -> tuple[list, Counter]:
    """Spans and counters a traced CLI child wrote with Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], Counter(data["counts"])
