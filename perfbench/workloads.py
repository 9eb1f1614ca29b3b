"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), lists the jobs
of one pass (``jobs``) and checks every job's output against oracles the
benchmark computes itself.  Checks run outside the timed region; a check
that fails raises ``CheckFailed`` and the job counts as failed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import walkparadox as wp

from spans import read_child_spans

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


class CheckFailed(Exception):
    """A job's output disagreed with the benchmark's oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    budget_s: float


# ---------------------------------------------------------------------------
# small_exhaustive: many tiny graphs, pure-Python per-call overhead
# ---------------------------------------------------------------------------

ENUM_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
ENUM_TOTAL = sum(ENUM_COUNTS.values())
BATTERY_GRAPHS = 1000
EIGEN_ORACLE_GRAPHS = 20
SUITE_TRIALS = 100
SMALL_EIGEN_MAX_ITER = 10_000
GAP_FLOOR = -1e-9
REGULAR_GAP = 1e-8


def _walk_totals(adj: np.ndarray, kmax: int) -> list[int]:
    x = np.ones(adj.shape[0], dtype=np.int64)
    out = [int(x.sum())]
    for _ in range(kmax):
        x = adj @ x
        out.append(int(x.sum()))
    return out


@dataclass
class SmallGraph:
    n: int
    edges: tuple
    eigen_oracle: bool

    @property
    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        for s, t in self.edges:
            adj[s, t] = adj[t, s] = 1
        return adj


@dataclass
class SmallInputs:
    graphs: list
    suite: object
    suite_trials: int
    search_max_n: int
    search_trials: int
    problems: list = field(default_factory=list)


class SmallExhaustive:
    name = "small_exhaustive"
    min_passes = 3
    warmup = True

    def setup(self, seed: int) -> SmallInputs:
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(ENUM_TOTAL), BATTERY_GRAPHS))
        oracle = set(rng.sample(range(BATTERY_GRAPHS), EIGEN_ORACLE_GRAPHS))
        counts: Counter = Counter()
        graphs = []
        for index, g in enumerate(wp.enumerate_connected(6)):
            counts[g.n] += 1
            if len(graphs) < len(picks) and index == picks[len(graphs)]:
                edges = tuple((s, t) for s, t, _ in g.edges())
                graphs.append(SmallGraph(g.n, edges, len(graphs) in oracle))
        problems = []
        if dict(counts) != ENUM_COUNTS:
            problems.append(f"enumerate_connected(6) counts {dict(counts)} != {ENUM_COUNTS}")
        suite = wp.FamilySpec("erdos_renyi", n=8, p=0.4, seed=rng.randrange(2**31))
        return SmallInputs(graphs, suite, SUITE_TRIALS, 6, ENUM_TOTAL, problems)

    def warmup_inputs(self, inputs: SmallInputs) -> SmallInputs:
        trials = sum(c for n, c in ENUM_COUNTS.items() if n <= 5)
        return SmallInputs(inputs.graphs[:100], inputs.suite, 10, 5, trials)

    def jobs(self, inputs: SmallInputs) -> list[Job]:
        jobs = [Job("search",
                    lambda: wp.exhaustive_lagarias_search(inputs.search_max_n, 1, 2),
                    lambda out: self.check_search(out, inputs.search_trials), 60.0)]
        for sg in inputs.graphs:
            jobs.append(Job("battery", lambda sg=sg: self.battery(sg),
                            lambda out, sg=sg: self.check_battery(sg, out), 5.0))
        jobs.append(Job("suite",
                        lambda: wp.random_theorem_suite(inputs.suite, inputs.suite_trials),
                        lambda out: self.check_suite(out, inputs.suite_trials), 30.0))
        return jobs

    @staticmethod
    def battery(sg: SmallGraph):
        g = wp.build(sg.n, sg.edges)
        classic = wp.classic_friendship_paradox(g)
        eig = wp.dominant_eigenpair(g, max_iter=SMALL_EIGEN_MAX_ITER)
        eig_report = wp.paradox_report(g, eig.vector)
        odd_report = wp.paradox_report(g, wp.odd_action(g, 1.0))
        growth = [wp.check_walk_growth(g, k) for k in range(1, 5)]
        return classic, eig, eig_report, odd_report, growth

    @staticmethod
    def check_battery(sg: SmallGraph, out) -> None:
        classic, eig, eig_report, odd_report, growth = out
        adj = sg.adjacency
        deg = adj.sum(axis=1)
        gap = Fraction(int(deg @ deg), int(deg.sum())) - Fraction(int(deg.sum()), sg.n)
        require(classic.exact is not None and classic.exact["gap"] == gap,
                f"classic gap {classic.exact} != {gap} on {sg.edges}")
        for label, rep in (("eigenvector", eig_report), ("odd", odd_report)):
            require(rep.gap >= GAP_FLOOR, f"{label} gap {rep.gap} < {GAP_FLOOR} on {sg.edges}")
            if int(deg.min()) == int(deg.max()):
                require(abs(rep.gap) <= REGULAR_GAP,
                        f"regular graph {label} gap {rep.gap} on {sg.edges}")
        x = eig.vector.values
        residual = float(np.linalg.norm(adj @ x - eig.eigenvalue * x))
        require(residual <= 1e-9, f"eigen residual {residual} on {sg.edges}")
        if sg.eigen_oracle:
            dense = float(np.linalg.eigvalsh(adj.astype(float))[-1])
            require(abs(dense - eig.eigenvalue) <= 1e-8,
                    f"eigenvalue {eig.eigenvalue} != eigvalsh {dense} on {sg.edges}")
        w = _walk_totals(adj, 5)
        for k, rep in enumerate(growth, start=1):
            require(rep.exact["lhs"] == w[k + 1] and rep.exact["rhs"] == Fraction(w[k] * w[1], sg.n),
                    f"walk growth k={k} disagrees with dense walk totals on {sg.edges}")

    @staticmethod
    def check_search(out, trials: int) -> None:
        require(out.trials == trials, f"search saw {out.trials} graphs, expected {trials}")
        require(not out.violations, f"search reported {len(out.violations)} violations")

    @staticmethod
    def check_suite(out, trials: int) -> None:
        require(out.failures == 0 and out.trials == trials, f"suite summary {out}")
        for name in ("classic_paradox", "eigenvector_paradox", "odd_series_paradox"):
            require(out.checks.get(name) == trials, f"suite ran {out.checks} checks")


# ---------------------------------------------------------------------------
# large_sparse: one large graph of each kind, numpy kernels and iterations
# ---------------------------------------------------------------------------

LARGE_N = 10_000
WARMUP_N = 2_000
BA_M = 3
EXTRA_ARCS = 3
LARGE_EIGEN_MAX_ITER = 20_000
KATZ_MAX_ITER = 50_000
SWEEP_GRID = 20


@dataclass
class SparseInput:
    key: str
    directed: bool
    n: int
    src: np.ndarray
    dst: np.ndarray
    text: str

    def matvec(self, x: np.ndarray, transposed: bool = False) -> np.ndarray:
        """A x (or A^T x) from the benchmark's own edge arrays."""
        src, dst = (self.dst, self.src) if transposed else (self.src, self.dst)
        y = np.bincount(src, weights=x[dst], minlength=self.n)
        if not self.directed:
            y += np.bincount(dst, weights=x[src], minlength=self.n)
        return y

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        d_out = np.bincount(self.src, minlength=self.n)
        d_in = np.bincount(self.dst, minlength=self.n)
        if not self.directed:
            d_out = d_in = d_out + d_in
        return d_out, d_in


def _edge_text(src: np.ndarray, dst: np.ndarray, directed: bool) -> tuple:
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    lines = [f"{s} {t}" for s, t in zip(src.tolist(), dst.tolist())]
    head = ["%directed"] if directed else []
    return src, dst, "\n".join(head + lines) + "\n"


def preferential_attachment(n: int, m: int, rng: np.random.Generator) -> SparseInput:
    """Barabasi-Albert graph drawn by the benchmark: node t >= m attaches to
    m distinct earlier nodes chosen in proportion to degree."""
    ends = np.empty(2 * m * n, dtype=np.int64)
    ends[:m] = m
    ends[m:2 * m] = np.arange(m)
    filled = 2 * m
    lo = list(range(m))
    hi = [m] * m
    draws = rng.random((n, 4 * m))
    for t in range(m + 1, n):
        row = draws[t]
        picked: set = set()
        i = 0
        while len(picked) < m:
            u = row[i] if i < row.size else rng.random()
            i += 1
            picked.add(int(ends[int(u * filled)]))
        targets = sorted(picked)
        lo.extend(targets)
        hi.extend([t] * m)
        ends[filled:filled + m] = t
        ends[filled + m:filled + 2 * m] = targets
        filled += 2 * m
    src, dst, text = _edge_text(np.array(lo), np.array(hi), False)
    return SparseInput("ba", False, n, src, dst, text)


def cycle_plus_random_arcs(n: int, extra: int, rng: np.random.Generator) -> SparseInput:
    """Strongly connected digraph: the cycle i -> i+1 plus about extra*n
    uniform random arcs (self-loops and repeats dropped)."""
    src = np.concatenate([np.arange(n), rng.integers(0, n, extra * n)])
    dst = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, extra * n)])
    keys = np.unique(src[src != dst] * n + dst[src != dst])
    src, dst, text = _edge_text(keys // n, keys % n, True)
    return SparseInput("dg", True, n, src, dst, text)


def _taylor_oracle(spec: SparseInput, parity: int | None) -> np.ndarray:
    """sum_k A^k 1 / k! (only odd k when parity == 1), summed until the
    terms are below double precision of the total."""
    term = np.ones(spec.n)
    total = term.copy() if parity is None else np.zeros(spec.n)
    for k in range(1, 5000):
        term = spec.matvec(term) / k
        if parity is None or k % 2 == parity:
            total += term
        if k > 4 and float(term.max()) <= 1e-17 * float(total.max()):
            return total
    raise CheckFailed(f"{spec.key} Taylor oracle did not settle")


@dataclass
class LargeInputs:
    graphs: list
    problems: list = field(default_factory=list)


class LargeSparse:
    name = "large_sparse"
    min_passes = 2
    warmup = True

    def setup(self, seed: int, n: int = LARGE_N) -> LargeInputs:
        rng = np.random.default_rng(seed)
        return LargeInputs([preferential_attachment(n, BA_M, rng),
                            cycle_plus_random_arcs(n, EXTRA_ARCS, rng)])

    def warmup_inputs(self, inputs: LargeInputs) -> LargeInputs:
        return self.setup(0, WARMUP_N)

    def jobs(self, inputs: LargeInputs) -> list[Job]:
        jobs: list[Job] = []
        for spec in inputs.graphs:
            jobs += self.graph_jobs(spec)
        return jobs

    def graph_jobs(self, spec: SparseInput) -> list[Job]:
        st: dict = {}
        key = spec.key

        def keep(name, value):
            st[name] = value
            return value

        def katz(factor):
            rho = st["eig_right"].eigenvalue
            return wp.katz_action(st["g"], factor / rho, spectral_radius=rho,
                                  max_iter=KATZ_MAX_ITER)

        def job(name, run, check, budget=60.0):
            return Job(f"{name}.{key}", run, check, budget)

        jobs = [
            job("parse", lambda: keep("g", wp.parse_edge_list(spec.text)),
                lambda g: require(g.n == spec.n and g.edge_count == spec.src.size
                                  and g.directed == spec.directed, f"parsed {g}")),
            job("validate", lambda: wp.validate_graph(st["g"]), lambda out: None),
            job("connectivity",
                lambda: (wp.is_strongly_connected if spec.directed else wp.is_connected)(st["g"]),
                lambda ok: require(ok is True, "graph reported disconnected")),
            job("eigen_right",
                lambda: keep("eig_right", wp.dominant_eigenpair(
                    st["g"], max_iter=LARGE_EIGEN_MAX_ITER)),
                lambda eig: self.check_eigen(spec, eig, transposed=False)),
        ]
        if spec.directed:
            jobs.append(job("eigen_left",
                            lambda: keep("eig_left", wp.dominant_eigenpair(
                                st["g"], side="left", max_iter=LARGE_EIGEN_MAX_ITER)),
                            lambda eig: self.check_eigen(spec, eig, transposed=True)))
        jobs += [
            job("katz_0.5", lambda: katz(0.5),
                lambda x: self.check_katz(spec, x, 0.5 / st["eig_right"].eigenvalue)),
            job("katz_0.99", lambda: katz(0.99),
                lambda x: self.check_katz(spec, x, 0.99 / st["eig_right"].eigenvalue)),
            job("exp", lambda: wp.exp_action(st["g"], 1.0),
                lambda x: self.check_series(spec, x, None)),
            job("odd", lambda: wp.odd_action(st["g"], 1.0),
                lambda x: self.check_series(spec, x, 1)),
            job("walks", lambda: wp.walk_counts_through(st["g"], 8),
                lambda w: self.check_walks(spec, w)),
        ]
        if spec.directed:
            jobs += [
                job("directed_report", lambda: keep("report", wp.directed_degree_report(st["g"])),
                    lambda rep: self.check_directed_report(spec, rep)),
                job("spectral_left", lambda: wp.check_spectral_directed(st["g"], "left"),
                    lambda rep: self.check_spectral(spec, rep, st["eig_left"])),
                job("spectral_right", lambda: wp.check_spectral_directed(st["g"], "right"),
                    lambda rep: self.check_spectral(spec, rep, st["eig_right"])),
            ]
        else:
            jobs.append(job("sweep", lambda: keep("report", wp.katz_alpha_sweep(st["g"], SWEEP_GRID)),
                            lambda res: self.check_sweep(spec, res, st["eig_right"])))
        jobs += [
            job("json", lambda: wp.canonical_json(wp.document(
                    ["perfbench", key], st["g"], [st["eig_right"], st["report"]])),
                lambda text: self.check_json(spec, text, st["eig_right"])),
            job("format", lambda: wp.format_edge_list(st["g"]),
                lambda text: require(text == spec.text, "edge list does not round-trip")),
        ]
        return jobs

    @staticmethod
    def check_eigen(spec: SparseInput, eig, transposed: bool) -> None:
        x = eig.vector.values
        residual = float(np.linalg.norm(spec.matvec(x, transposed) - eig.eigenvalue * x))
        require(residual <= 1e-9, f"{spec.key} eigen residual {residual} from own arrays")
        require(bool(np.all(x > 0)) and abs(float(x.sum()) - spec.n) <= 1e-6 * spec.n,
                f"{spec.key} eigenvector not positive or not scaled to sum n")

    @staticmethod
    def check_katz(spec: SparseInput, vec, alpha: float) -> None:
        x = vec.values
        residual = float(np.linalg.norm(x - alpha * spec.matvec(x) - 1.0))
        require(residual <= 1e-9 * max(1.0, float(np.linalg.norm(x))),
                f"{spec.key} katz residual {residual} at alpha {alpha}")

    @staticmethod
    def check_series(spec: SparseInput, vec, parity) -> None:
        ref = _taylor_oracle(spec, parity)
        err = float(np.max(np.abs(vec.values - ref) / ref))
        require(err <= 1e-9, f"{spec.key} series action off by {err} relative")

    @staticmethod
    def check_walks(spec: SparseInput, totals) -> None:
        x = np.ones(spec.n)
        for k in range(1, 9):
            x = spec.matvec(x)
            ref = float(x.sum())
            require(abs(totals[k] - ref) <= 1e-12 * ref, f"{spec.key} walk total k={k}")

    @staticmethod
    def check_directed_report(spec: SparseInput, rep) -> None:
        d_out, d_in = spec.degrees()
        gap = Fraction(int(d_out @ d_in), int(d_out.sum())) - Fraction(int(d_in.sum()), spec.n)
        out_in = rep.reports["out_in"]
        require(out_in.exact is not None and out_in.exact["gap"] == gap,
                f"out_in gap {out_in.gap} != {float(gap)}")
        require(rep.reports["out_out"].holds and rep.reports["in_in"].holds,
                "universal directed paradox reported failing")

    @staticmethod
    def check_spectral(spec: SparseInput, rep, eig) -> None:
        require(rep.rhs == spec.src.size / spec.n, f"mean degree {rep.rhs}")
        require(abs(rep.lhs - eig.eigenvalue) <= 1e-9 * eig.eigenvalue,
                f"spectral condition eigenvalue {rep.lhs} != {eig.eigenvalue}")

    @staticmethod
    def check_sweep(spec: SparseInput, res, eig) -> None:
        rho = eig.eigenvalue
        require(len(res.gaps) == SWEEP_GRID and abs(res.spectral_radius - rho) <= 1e-9 * rho,
                f"sweep grid {len(res.gaps)} / radius {res.spectral_radius}")
        alpha = res.alphas[0]
        require(abs(alpha * (SWEEP_GRID + 1) * rho - 1.0) <= 1e-9, f"first alpha {alpha}")
        x = np.ones(spec.n)
        for _ in range(50):  # contraction factor alpha * rho = 1/21
            x = 1.0 + alpha * spec.matvec(x)
        d, _ = spec.degrees()
        gap = float(d @ x) / float(d.sum()) - float(x.mean())
        require(abs(gap - res.gaps[0]) <= 1e-9 * max(1.0, abs(gap)),
                f"sweep gap {res.gaps[0]} != own Katz gap {gap}")

    @staticmethod
    def check_json(spec: SparseInput, text: str, eig) -> None:
        doc = wp.parse_document(text)
        require(wp.canonical_json(doc) == text, "document does not round-trip")
        require(doc["graph_summary"]["n"] == spec.n and len(doc["reports"]) == 2,
                "document summary")
        require(doc["reports"][0]["eigenvalue"] == eig.eigenvalue, "document eigenvalue")


# ---------------------------------------------------------------------------
# cli_session: one process per invocation, start-up and serialization
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 60.0
CENTRALITY_N = 1000
CORPUS_TRIALS = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _exit_matches_holds(code: int, holds: list) -> None:
    require(code == (0 if all(holds) else 1), f"exit {code} with holds {holds}")


@dataclass
class CliCall:
    name: str
    argv: list
    stdin: str = ""
    expect: Callable = lambda out, code: None


@dataclass
class CliInputs:
    calls: list
    problems: list = field(default_factory=list)


class CliSession:
    name = "cli_session"
    min_passes = 3
    warmup = False

    def __init__(self):
        self.tracer = None
        self.first_stdout: dict = {}
        self.env = _child_env()

    def setup(self, seed: int) -> CliInputs:
        rng = random.Random(seed)
        s = [str(rng.randrange(2**31)) for _ in range(6)]
        edges = wp.format_edge_list(wp.barabasi_albert(CENTRALITY_N, 2, seed=int(s[0])))
        calls = [
            CliCall("import", ["-c", "import walkparadox"], expect=self.expect_empty),
            CliCall("paradox_figure1", ["paradox", "--family", "figure1", "--measure", "degree"],
                    expect=self.expect_figure1),
            CliCall("paradox_eigen", ["paradox", "--family", "barabasi_albert", "--n", "300",
                                      "--m", "2", "--seed", s[1], "--measure", "eigenvector"],
                    expect=self.expect_paradox_holds),
            CliCall("paradox_odd", ["paradox", "--family", "barabasi_albert", "--n", "300",
                                    "--m", "2", "--seed", s[1], "--measure", "odd"],
                    expect=self.expect_paradox_holds),
            CliCall("directed_hub_cycle", ["directed-paradox", "--family", "hub_cycle", "--n", "10"],
                    expect=self.expect_hub_cycle),
            CliCall("directed_er", ["directed-paradox", "--family", "erdos_renyi_directed",
                                    "--n", "40", "--p", "0.1", "--seed", s[2]],
                    expect=self.expect_directed),
            CliCall("import", ["-c", "import walkparadox"], expect=self.expect_empty),
            CliCall("conditions", ["conditions", "--family", "erdos_renyi", "--n", "12",
                                   "--p", "0.5", "--seed", s[3], "--max-k", "6"],
                    expect=self.expect_conditions),
            CliCall("sweep_csv", ["sweep", "--family", "barabasi_albert", "--n", "200",
                                  "--m", "2", "--seed", s[4], "--format", "csv"],
                    expect=self.expect_sweep_csv),
            CliCall("centrality_katz", ["centrality", "--graph", "-", "--measure", "katz"],
                    stdin=edges, expect=self.expect_vector),
            CliCall("centrality_eigen", ["centrality", "--graph", "-", "--measure", "eigenvector"],
                    stdin=edges, expect=self.expect_eigen_stdin(edges)),
            CliCall("suite_er", ["suite", "--family", "erdos_renyi", "--n", "45", "--p", "0.12",
                                 "--seed", s[5], "--trials", str(CORPUS_TRIALS)],
                    expect=self.expect_suite),
            CliCall("suite_directed", ["suite", "--family", "erdos_renyi_directed", "--n", "30",
                                       "--p", "0.1", "--seed", s[5], "--trials", str(CORPUS_TRIALS)],
                    expect=self.expect_suite),
            CliCall("import", ["-c", "import walkparadox"], expect=self.expect_empty),
            CliCall("search_exhaustive", ["search", "--exhaustive", "--max-n", "5",
                                          "--r", "1", "--s", "2"],
                    expect=self.expect_search),
            CliCall("enumerate", ["enumerate", "--max-n", "5"], expect=self.expect_enumerate),
        ]
        return CliInputs(calls)

    def jobs(self, inputs: CliInputs) -> list[Job]:
        return [Job(call.name, lambda i=i, call=call: self.invoke(call),
                    lambda out, i=i, call=call: self.check(i, call, out), CLI_TIMEOUT_S)
                for i, call in enumerate(inputs.calls)]

    def invoke(self, call: CliCall):
        if self.tracer is None:
            if call.argv[0] == "-c":
                argv = [sys.executable] + call.argv
            else:
                argv = [sys.executable, "-m", "walkparadox.cli"] + call.argv
            return subprocess.run(argv, input=call.stdin, capture_output=True, text=True,
                                  env=self.env, timeout=CLI_TIMEOUT_S, cwd=ROOT)
        spans_file = SCRATCH / "child-spans.json"
        rest = ["--import-only"] if call.argv[0] == "-c" else call.argv
        argv = [sys.executable, str(Path(__file__).with_name("child.py")), str(spans_file)] + rest
        start = time.perf_counter()
        proc = subprocess.run(argv, input=call.stdin, capture_output=True, text=True,
                              env=self.env, timeout=CLI_TIMEOUT_S, cwd=ROOT)
        end = time.perf_counter()
        tracer = self.tracer
        parent = tracer.add("cli.process", start, end, tracer.stack[-1] if tracer.stack else -1)
        spans, counts = read_child_spans(spans_file)
        spans_file.unlink()
        base = len(tracer.spans)
        for name, s0, s1, p, _ in spans:
            tracer.add(name, s0, s1, parent if p < 0 else base + p)
        tracer.counts.update(counts)
        return proc

    def check(self, index: int, call: CliCall, proc) -> None:
        first = self.first_stdout.setdefault(index, proc.stdout)
        require(proc.stdout == first, f"{call.name}: stdout differs from the first run")
        if call.argv[0] != "-c" and "--format" not in call.argv:
            doc = wp.parse_document(proc.stdout)
            require(wp.canonical_json(doc) == proc.stdout, f"{call.name}: document does not round-trip")
            require(doc["provenance"]["command"] == call.argv, f"{call.name}: provenance")
            call.expect(doc, proc.returncode)
        else:
            call.expect(proc.stdout, proc.returncode)

    # -- expectations -----------------------------------------------------

    @staticmethod
    def expect_empty(out, code):
        require(code == 0 and out == "", f"bare import exited {code}")

    @staticmethod
    def expect_figure1(doc, code):
        rep = doc["reports"][0]
        require(code == 0 and rep["exact"]["gap"] == "5/8", f"figure1 exit {code} gap {rep}")

    @staticmethod
    def expect_paradox_holds(doc, code):
        rep = doc["reports"][0]
        require(code == 0 and rep["holds"] and rep["gap"] >= GAP_FLOOR,
                f"guaranteed paradox exit {code} gap {rep['gap']}")

    @staticmethod
    def expect_hub_cycle(doc, code):
        gaps = doc["reports"][0]["gaps"]
        require(code == 1 and gaps["out_in"]["exact"]["gap"] == "-71/190",
                f"hub_cycle(10) exit {code} out_in {gaps['out_in']['exact']}")

    @staticmethod
    def expect_directed(doc, code):
        gaps = doc["reports"][0]["gaps"]
        require(gaps["out_out"]["holds"] and gaps["in_in"]["holds"], "universal pairings")
        _exit_matches_holds(code, [g["holds"] for g in gaps.values()])

    @staticmethod
    def expect_conditions(doc, code):
        reps = doc["reports"]
        require(len(reps) == 6, f"{len(reps)} condition reports")
        require(all(r["holds"] for r in reps[0::2]), "odd-order walk growth failed")
        _exit_matches_holds(code, [r["holds"] for r in reps])

    @staticmethod
    def expect_sweep_csv(text, code):
        rows = text.splitlines()
        require(rows[0] == "alpha,gap" and len(rows) == 21, f"sweep csv has {len(rows)} rows")
        gaps = [float(r.split(",")[1]) for r in rows[1:]]
        alphas = [float(r.split(",")[0]) for r in rows[1:]]
        require(alphas == sorted(alphas), "sweep alphas not increasing")
        require(code == (1 if min(gaps) < GAP_FLOOR else 0), f"sweep exit {code}")

    @staticmethod
    def expect_vector(doc, code):
        values = doc["reports"][0]["values"]
        require(code == 0 and len(values) == CENTRALITY_N and min(values) >= 1.0,
                f"katz vector exit {code}")

    @staticmethod
    def expect_eigen_stdin(edges: str):
        pairs = np.array([line.split() for line in edges.splitlines()
                          if line and not line.startswith("#")], dtype=np.int64)
        spec = SparseInput("stdin", False, CENTRALITY_N, pairs[:, 0], pairs[:, 1], edges)

        def expect(doc, code):
            rep = doc["reports"][0]
            x = np.array(rep["vector"])
            residual = float(np.linalg.norm(spec.matvec(x) - rep["eigenvalue"] * x))
            require(code == 0 and residual <= 1e-9, f"eigen exit {code} residual {residual}")

        return expect

    @staticmethod
    def expect_suite(doc, code):
        rep = doc["reports"][0]
        require(code == 0 and rep["failures"] == 0 and rep["trials"] == CORPUS_TRIALS,
                f"suite exit {code} report {rep}")

    @staticmethod
    def expect_search(doc, code):
        rep = doc["reports"][0]
        require(rep["trials"] == 771, f"search saw {rep['trials']} graphs")
        require(code == (1 if rep["violations"] else 0), f"search exit {code}")

    @staticmethod
    def expect_enumerate(doc, code):
        counts = doc["reports"][0]["counts"]
        require(code == 0 and counts == {"2": 1, "3": 4, "4": 38, "5": 728},
                f"enumerate exit {code} counts {counts}")


WORKLOADS = {w.name: w for w in (SmallExhaustive, LargeSparse, CliSession)}
