"""Command-line interface.

Each command emits one canonical JSON document on stdout (or to --out);
sweep and search can emit CSV tables instead.  Exit codes:

  0  everything checked held / the command completed
  1  a finding: a non-guaranteed check failed or a search hit violations
  2  usage, input, or parameter problems (including non-convergence)
  3  a theorem-guaranteed statement failed; that is a bug in this
     package or memory corruption, never a property of the input

Documents are deterministic: rerunning the same command yields the same
bytes, because nothing records time, hosts, or iteration noise.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

from .centrality import CentralitySpec, compute
from .conditions import (
    check_lagarias,
    check_spectral_directed,
    first_order_in_degree_term,
    growth_checks,
    lagarias_scan,
)
from .edgelist import format_edge_list, parse_edge_list
from .errors import (
    ConvergenceError,
    GraphError,
    ParameterError,
    TheoremViolationError,
)
from .explore import (
    exhaustive_lagarias_search,
    katz_alpha_sweep,
    random_theorem_suite,
    search_lagarias_violation,
)
from .generators import FamilySpec, _connected_mask_blocks, make, make_connected
from .graph import Graph, _side
from .paradox import directed_degree_report, paradox_report
from .reports import canonical_json, document, search_csv, sweep_csv
from .spectral import SeriesCoefficients, dominant_eigenpair

__all__ = ["build_parser", "run", "main"]

_MEASURES = ("degree", "eigenvector", "katz", "total", "odd", "even", "power-series")

_DEFAULT_BATTERY_DEPTH = 4


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="named generator (e.g. figure1, erdos_renyi)")
    p.add_argument("--n", type=int, help="node count for parametric families")
    p.add_argument("--k", type=int, help="degree for k_regular_random")
    p.add_argument("--p", type=float, help="edge probability for random families")
    p.add_argument("--m", type=int, help="attachments per node for barabasi_albert")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="edge-list file to read ('-' for stdin)")
    _add_family_flags(p)
    p.add_argument(
        "--one-based",
        action="store_true",
        help="node ids in the input file start at 1 (a %%one-based directive wins)",
    )


def _add_output_flags(p: argparse.ArgumentParser, formats=("json",)) -> None:
    p.add_argument("--out", help="write to this file instead of stdout "
                                 "(relative paths honor WALKPARADOX_OUT_DIR)")
    p.add_argument("--format", choices=formats, default="json",
                   help="output format (default json)")


def _add_measure_flags(p: argparse.ArgumentParser, default: str | None) -> None:
    p.add_argument("--measure", choices=_MEASURES, default=default,
                   required=default is None, help="node measure to evaluate")
    p.add_argument("--direction", choices=("auto", "undirected", "broadcast", "receive"),
                   default="auto", help="walk direction scored by the measure")
    p.add_argument("--alpha", type=float, help="attenuation for katz")
    p.add_argument("--beta", type=float, help="inverse temperature for total/odd/even")
    p.add_argument("--coeffs", help="comma-separated power-series coefficients c0,c1,...")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _family_spec(args) -> FamilySpec:
    return FamilySpec(family=args.family, n=args.n, k=args.k, p=args.p,
                      m=args.m, seed=args.seed)


def _load_graph(args) -> Graph:
    if args.graph is not None and args.family is not None:
        raise ParameterError("give --graph or --family, not both")
    if args.graph is not None:
        try:
            if args.graph == "-":
                text = sys.stdin.read()
            else:
                with open(args.graph, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{args.graph}: not UTF-8 text ({exc.reason} "
                             f"at byte {exc.start})") from None
        return parse_edge_list(text, one_based=args.one_based)
    if args.family is not None:
        return make(_family_spec(args))
    raise ParameterError("a graph is required: pass --graph FILE or --family NAME")


def _resolve_out(path: str) -> str:
    base = os.environ.get("WALKPARADOX_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _seed_of(args):
    return args.seed if getattr(args, "family", None) is not None else None


def _parse_coeffs(text: str) -> SeriesCoefficients:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"could not parse --coeffs {text!r}; "
                             "expected numbers like 1,0.5,0.25") from None
    return SeriesCoefficients(values)


def _measure_spec(args, direction: str, tol: float | None = None) -> CentralitySpec:
    coeffs = _parse_coeffs(args.coeffs) if args.coeffs is not None else None
    return CentralitySpec(
        kind=args.measure.replace("-", "_"),
        direction=direction,
        alpha=args.alpha,
        beta=args.beta,
        coeffs=coeffs,
        tol=tol,
    )


# Each handler returns (graph or None, reports, exit code, text or None);
# run() alone writes the one output: the JSON document of the reports
# under --format json, the text otherwise (edge list or CSV table).
def _cmd_generate(args) -> tuple:
    spec = _family_spec(args) if args.family else None
    if spec is None:
        raise ParameterError("generate requires --family")
    note = [f"{name}={getattr(spec, name)}"
            for name in ("n", "k", "p", "m") if getattr(spec, name) is not None]
    if args.connected:
        g, attempts = make_connected(spec)
        note.append(f"seed={spec.seed} connected-after={attempts}")
    else:
        g = make(spec)
        note.append(f"seed={spec.seed}")
    comment = " ".join([f"family={spec.family}"] + note)
    return g, [], 0, format_edge_list(g, one_based=args.one_based, comments=(comment,))


def _cmd_centrality(args) -> tuple:
    g = _load_graph(args)
    direction = args.direction
    if direction == "auto":
        direction = "broadcast" if g.directed else "undirected"
    spec = _measure_spec(args, direction, tol=args.tol)
    if spec.kind == "eigenvector":
        tol_kw = {} if spec.tol is None else {"tol": spec.tol}
        result = dominant_eigenpair(g, side=_side(g, direction), **tol_kw)
    else:
        result = compute(g, spec)
    return g, [result], 0, None


def _cmd_paradox(args) -> tuple:
    g = _load_graph(args)
    mode = args.mode
    if mode == "auto":
        mode = "out" if g.directed else "undirected"
    direction = args.direction
    if direction == "auto":
        if not g.directed:
            direction = "undirected"
        elif args.measure == "degree":
            # sampling by out-degrees pairs with the out-degree measure
            direction = "broadcast" if mode == "out" else "receive"
        else:
            # walk measures pair the other way round: the left/receive
            # quantities are the ones tied to out-degree sampling
            direction = "receive" if mode == "out" else "broadcast"
    x = compute(g, _measure_spec(args, direction))
    rep = paradox_report(g, x, mode=mode, tol=args.tol)
    return g, [rep], 0 if rep.holds else 1, None


def _cmd_directed_paradox(args) -> tuple:
    g = _load_graph(args)
    rep = directed_degree_report(g, tol=args.tol)
    return g, [rep], 0 if all(r.holds for r in rep.reports.values()) else 1, None


def _cmd_conditions(args) -> tuple:
    if args.max_k is not None and args.max_k < 1:
        raise ParameterError("--max-k must be >= 1")
    g = _load_graph(args)
    reports: list = []

    if args.r is not None or args.s is not None:
        if args.r is None or args.s is None:
            raise ParameterError("--r and --s go together")
        reports.append(check_lagarias(g, args.r, args.s))
    if args.scan is not None:
        reports.extend(lagarias_scan(g, args.scan))

    depth = args.max_k or (_DEFAULT_BATTERY_DEPTH if args.mixed else None)
    first_order = args.first_order
    if not (reports or depth or args.spectral or first_order):
        # the default battery
        depth, first_order = _DEFAULT_BATTERY_DEPTH, g.directed
    if depth:
        if g.directed or args.mixed:
            reports.extend(growth_checks(g, range(1, depth + 1), mixed=True))
        if not g.directed:
            reports.extend(growth_checks(g, range(1, depth + 1)))
    if args.spectral:
        reports.append(check_spectral_directed(g, side="left"))
        reports.append(check_spectral_directed(g, side="right"))
    if first_order:
        reports.append({"type": "first_order_term",
                        "value": first_order_in_degree_term(g)})

    failed = any(getattr(r, "holds", True) is False for r in reports)
    return g, reports, 1 if failed else 0, None


def _cmd_sweep(args) -> tuple:
    g = _load_graph(args)
    res = katz_alpha_sweep(g, grid_size=args.grid, tol=args.tol)
    return g, [res], 1 if res.violations else 0, sweep_csv(res)


def _cmd_search(args) -> tuple:
    # --seed is not refused: its default 0 cannot be told from an explicit 0
    if args.exhaustive:
        for flag in ("family", "n", "k", "p", "m", "trials"):
            if getattr(args, flag) is not None:
                raise ParameterError(f"--exhaustive replaces --{flag}")
        if args.max_n is None:
            raise ParameterError("--exhaustive requires --max-n")
        res = exhaustive_lagarias_search(args.max_n, args.r, args.s)
    else:
        if args.max_n is not None:
            raise ParameterError("--max-n requires --exhaustive")
        if args.family is None:
            raise ParameterError("search requires --family or --exhaustive")
        trials = 100 if args.trials is None else args.trials
        res = search_lagarias_violation(_family_spec(args), args.r, args.s, trials=trials)
    return None, [res], 1 if res.violations else 0, search_csv(res)


def _cmd_enumerate(args) -> tuple:
    counts = Counter()
    for n, _, masks in _connected_mask_blocks(args.max_n):
        counts[n] += len(masks)
    payload = {
        "type": "enumeration",
        "max_n": args.max_n,
        "counts": {str(n): counts[n] for n in sorted(counts)},
        "total": sum(counts.values()),
    }
    return None, [payload], 0, None


def _cmd_suite(args) -> tuple:
    if args.family is None:
        raise ParameterError("suite requires --family")
    res = random_theorem_suite(_family_spec(args), trials=args.trials, tol=args.tol)
    return None, [res], 1 if res.failures else 0, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkparadox",
        description="Walk-based centralities and neighbour-average paradox checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a named graph as edge-list text")
    _add_family_flags(p)
    p.add_argument("--connected", action="store_true",
                   help="redraw random samples until connected")
    p.add_argument("--one-based", action="store_true",
                   help="write node ids starting at 1")
    p.add_argument("--out", help="write to this file instead of stdout "
                                 "(relative paths honor WALKPARADOX_OUT_DIR)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("centrality", help="evaluate one node measure")
    _add_graph_source(p)
    _add_measure_flags(p, default=None)
    p.add_argument("--tol", type=_finite_float, default=None,
                   help="solver tolerance (measure-specific default)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("paradox", help="neighbour average vs node average for a measure")
    _add_graph_source(p)
    _add_measure_flags(p, default="degree")
    p.add_argument("--mode", choices=("auto", "undirected", "out", "in"),
                   default="auto", help="which degrees weight the neighbour average")
    p.add_argument("--tol", type=_finite_float, default=1e-9,
                   help="nonnegativity tolerance for the gap (default 1e-9)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_paradox)

    p = sub.add_parser("directed-paradox",
                       help="all four out/in degree pairings on a directed graph")
    _add_graph_source(p)
    p.add_argument("--tol", type=_finite_float, default=1e-12,
                   help="nonnegativity tolerance (default 1e-12)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_directed_paradox)

    p = sub.add_parser("conditions", help="walk-count and spectral condition checks")
    _add_graph_source(p)
    p.add_argument("--r", type=int, help="first order for the product inequality")
    p.add_argument("--s", type=int, help="second order for the product inequality")
    p.add_argument("--scan", type=int, metavar="ORDER",
                   help="all product-inequality instances with r+s up to ORDER")
    p.add_argument("--max-k", type=int,
                   help="growth checks for k = 1..MAX_K (default battery depth 4)")
    p.add_argument("--mixed", action="store_true",
                   help="use the mixed out-degree-weighted growth check")
    p.add_argument("--spectral", action="store_true",
                   help="compare the dominant eigenvalue to the mean degree "
                        "(directed, strongly connected)")
    p.add_argument("--first-order", action="store_true",
                   help="report the small-alpha in-degree gap coefficient")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_conditions)

    p = sub.add_parser("sweep", help="Katz paradox gap across an alpha grid")
    _add_graph_source(p)
    p.add_argument("--grid", type=int, default=20,
                   help="number of alpha grid points (default 20)")
    p.add_argument("--tol", type=_finite_float, default=1e-9,
                   help="violation threshold for the gap (default 1e-9)")
    _add_output_flags(p, formats=("json", "csv"))
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("search",
                       help="hunt for odd-order product-inequality violations")
    _add_family_flags(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep every connected graph up to --max-n instead of sampling")
    p.add_argument("--max-n", type=int, help="node cap for --exhaustive (2..7)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int,
                   help="samples to draw from the family (default 100)")
    _add_output_flags(p, formats=("json", "csv"))
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("enumerate", help="count connected graphs up to a node bound")
    p.add_argument("--max-n", type=int, required=True, help="largest node count (2..7)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("suite", help="run every guaranteed check on random samples")
    _add_family_flags(p)
    p.add_argument("--trials", type=int, default=20,
                   help="number of sampled graphs (default 20)")
    p.add_argument("--tol", type=_finite_float, default=1e-9,
                   help="tolerance handed to each check (default 1e-9)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        g, reports, code, text = args.handler(args)
        if getattr(args, "format", None) == "json":
            tolerances = {"tol": args.tol} if hasattr(args, "tol") else {}
            text = canonical_json(document(argv, g, reports, seed=_seed_of(args),
                                           tolerances=tolerances))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(_resolve_out(args.out), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return code
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        if exc.dump:
            print(f"witness: {exc.dump!r}", file=sys.stderr)
        return 3
    except (GraphError, ParameterError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
