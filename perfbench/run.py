"""walkparadox benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is small_exhaustive, large_sparse or cli_session (see README.md in
this directory).  One closed-loop client runs the workload's job list
one job after another, pass after pass, until S seconds of jobs have been
timed and the workload's minimum pass count is reached.  Every output is
checked outside the timed region.  With --trace 0 the last stdout line is
a JSON object carrying the end-to-end metrics; with --trace 1 it carries
the per-layer metrics from spans.  ``--workload all`` runs every workload
untraced and traced and prints all metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("small_exhaustive", "large_sparse", "cli_session")

# BLAS and OpenMP pools are pinned to one thread: the client is single
# and the thread count changes the last bits of numpy reductions.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
SETUP_REPEATS = 5
# No run may outlive this; later jobs are recorded as failed instead.
HARD_LIMIT_S = 150.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class JobTimeout(Exception):
    """Raised by the alarm when a job outlives its budget."""


class Deadline:
    """Arms SIGALRM for one job so no call can wedge the run."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise JobTimeout(f"over its {self.seconds:.3g} s budget")

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, else p50."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def harrell_davis(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A beta-weighted mean of all order statistics.  Job latencies form one
    cluster per job kind, and one or two order statistics jump between
    clusters from run to run; this estimate moves smoothly instead.
    """
    import numpy as np

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = (n + 1) * p / 100.0, (n + 1) * (1.0 - p / 100.0)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], grid]), cdf)
    return float(np.diff(edges) @ x)


def import_seconds() -> float:
    """Time of `import walkparadox` in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import walkparadox; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    return float(proc.stdout)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


def execute(job, tracer, job_id: str, deadline_at: float, record):
    """Run one job under its budget, then check its output untimed."""
    budget = min(job.budget_s, deadline_at - time.perf_counter())
    if budget <= 0:
        record(job, None, "not started: run time limit reached")
        return None
    if tracer is not None:
        tracer.job = job_id
        tracer.open("job." + job.name)
        depth = len(tracer.stack)
        tracer.active = True
    error = None
    out = None
    start = time.perf_counter()
    try:
        with Deadline(budget):
            out = job.run()
    except Exception as exc:  # any failure of the program is a failed job
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
        while len(tracer.stack) >= depth:  # spans a timeout left open
            tracer.close(tracer.stack[-1])
    if error is None and elapsed > job.budget_s:
        error = f"took {elapsed:.3g} s, over its {job.budget_s:.3g} s budget"
    if error is None:
        try:
            job.check(out)
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    record(job, elapsed, error)
    return elapsed


def run_workload(args) -> int:
    started = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import walkparadox
    except ImportError as exc:
        print(f"cannot import walkparadox from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(walkparadox.__file__).resolve().parent.parent != SRC:
        print(f"walkparadox imported from {walkparadox.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from spans import METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    wl = WORKLOADS[args.workload]()

    import_s, generate_s = [], []

    def set_up():
        import_s.append(import_seconds())
        t0 = time.perf_counter()
        made = wl.setup(args.seed)
        generate_s.append(time.perf_counter() - t0)
        return made

    # The host changes speed for tens of seconds at a time, so the set-up
    # repeats are spread over the run: one here, then one after each pass.
    inputs = set_up()
    deadline_at = started + HARD_LIMIT_S

    latencies: list[float] = []
    by_job: dict[str, list[float]] = {}
    by_slot: dict[int, list[float]] = {}
    pass_walls: list[float] = []
    failures: list[str] = list(inputs.problems)
    attempted = len(failures)
    jobs_per_pass = 0

    def record(job, elapsed, error, slot=None):
        nonlocal attempted
        attempted += 1
        if error:
            failures.append(f"{job.name}: {error}")
        elif elapsed is not None:
            latencies.append(elapsed)
            by_job.setdefault(job.name, []).append(elapsed)
            by_slot.setdefault(slot, []).append(elapsed)

    if wl.warmup:
        for job in wl.jobs(wl.warmup_inputs(inputs)):
            execute(job, None, "warmup", deadline_at,
                    lambda j, e, err: record(j, None, err and f"warm-up: {err}"))

    tracer = None
    if args.trace:
        SCRATCH.mkdir(exist_ok=True)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer

    measured = 0.0
    passes = 0
    while True:
        jobs = wl.jobs(inputs)
        jobs_per_pass = len(jobs)
        wall = 0.0
        for i, job in enumerate(jobs):
            elapsed = execute(job, tracer, f"p{passes}.j{i}", deadline_at,
                              lambda j, e, err, i=i: record(j, e, err, i))
            wall += elapsed or 0.0
        passes += 1
        pass_walls.append(wall)
        measured += wall
        if len(generate_s) < SETUP_REPEATS:
            set_up()
        if measured >= args.seconds and passes >= wl.min_passes:
            break
        if time.perf_counter() - started > HARD_LIMIT_S * 0.6:
            break

    while len(generate_s) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(import_s) + statistics.median(generate_s)
    failed = len(failures)
    wall_s = statistics.median(pass_walls)
    # A job's latency is its median over the passes, so a stall that hits
    # one repetition moves no percentile; percentiles are taken over the
    # jobs of a pass, and a repetition is not counted as another sample.
    job_ms = [1000.0 * statistics.median(t) for t in by_slot.values()] or [0.0]
    tail_p = tail_percentile(jobs_per_pass)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs_per_s": len(latencies) / measured if measured else 0.0,
        "job_p50_ms": harrell_davis(job_ms, 50.0),
        "job_tail_ms": harrell_davis(job_ms, tail_p),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh imports {statistics.median(import_s):.4f} s"
                   f" + median of {SETUP_REPEATS} input generations",
        "wall_s": f"median of {passes} passes of {jobs_per_pass} jobs: "
                  + ", ".join(f"{w:.4g}" for w in pass_walls),
        "jobs_per_s": f"{len(latencies)} jobs completed in {measured:.3f} s",
        "job_p50_ms": f"{len(job_ms)} jobs, each the median of its runs",
        "job_tail_ms": f"p{tail_p:g} of {len(job_ms)} jobs"
                       + ("" if len(job_ms) * (100.0 - tail_p) / 100.0 >= 10
                          else ", the lowest ladder step: no step has ten jobs beyond it"),
        "peak_rss_mb": "largest child process" if usage == resource.RUSAGE_CHILDREN
                       else "benchmark process",
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes, {attempted} jobs attempted")
    for name, times in by_job.items():
        print(f"job {name} median {1000 * statistics.median(times):.4g} ms over {len(times)}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted})")

    if tracer is not None:
        metrics = layer_metrics(tracer, passes, wall_s)
        tracer.write(SCRATCH / f"spans-{args.workload}.tsv")
        for name, unit in METRICS:
            print(f"{name} {metrics[name]['value']:.6g} {unit}")
        print(f"spans {len(tracer.spans)} written to {SCRATCH.name}/spans-{args.workload}.tsv")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name} {values[name]:.6g} {unit} ({notes[name]})")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, as separate processes."""
    from spans import METRICS

    SCRATCH.mkdir(exist_ok=True)
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                break
            if trace == 0:
                summary["environment"] = json.loads(lines[0].split(" ", 1)[1])
            results[trace] = json.loads(lines[-1])
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        entry = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "tracing_overhead_s": traced_wall - wall,
            "tracing_overhead_share": (traced_wall - wall) / wall,
        }
        summary["workloads"][name] = entry
        print(f"== {name}: correct={entry['correct']} "
              f"failed_frac {entry['failed_frac']:.6g} ratio "
              f"({plain['failed']} of {plain['attempted']})")
        for metric, unit in END_TO_END:
            print(f"  {metric} {plain['metrics'][metric]['value']:.6g} {unit}")
        for metric, unit in METRICS:
            print(f"  {metric} {traced['metrics'][metric]['value']:.6g} {unit}")
        print(f"  tracing overhead {entry['tracing_overhead_s']:.4g} s "
              f"({100 * entry['tracing_overhead_share']:.3g}% of wall_s)")
    out = SCRATCH / f"summary-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
