"""Golden documents: exact stdout bytes of the CLI for a fixed set of argvs.

Each CLI case is an argv, an optional fixture fed on stdin through
``--graph -`` (so the recorded ``provenance.command`` holds no file
path) and the expected exit code; its stdout must equal
``tests/golden/<name>.out`` byte for byte.  Report objects the CLI cannot
reach are checked the same way through ``canonical_json(payload(...))``
against ``tests/golden/<name>.json``, and each script in ``demos/``, run
in-process with no arguments, must print ``tests/golden/demo_<stem>.out``.

The files pin the documents' layout and numbers on one machine; after a
deliberate change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.  With ``--check`` the script
writes nothing: for each file whose bytes would change it prints the
largest relative change of any float token and every other token that
changed (keys, strings, integers, booleans and ``"p/q"`` fields), and it
exits 1 if any file would change.
"""

from __future__ import annotations

import difflib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

import walkparadox as wp
import walkparadox.cli as cli
from walkparadox import canonical_json, payload
from walkparadox.explore import SearchOutcome, ViolationRecord

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
DEMOS = Path(__file__).parent.parent / "demos"

BA60 = ["--family", "barabasi_albert", "--n", "60", "--m", "2", "--seed", "3"]
ER8 = ["--family", "erdos_renyi", "--n", "8", "--p", "0.5", "--seed", "1"]

# name: (argv, stdin fixture or None, exit code)
CLI_CASES = {
    "paradox_degree_figure1": (["paradox", "--family", "figure1"], None, 0),
    "paradox_eigenvector_ba60": (["paradox", *BA60, "--measure", "eigenvector"], None, 0),
    "paradox_odd_ba60": (["paradox", *BA60, "--measure", "odd", "--beta", "0.2"], None, 0),
    "paradox_katz_hub_cycle": (
        ["paradox", "--family", "hub_cycle", "--n", "10", "--measure", "katz"], None, 1),
    "paradox_power_series_weighted": (
        ["paradox", "--graph", "-", "--measure", "power-series", "--coeffs", "1,0.5,0.25"],
        "weighted_violator.edges", 0),
    "paradox_degree_weighted": (["paradox", "--graph", "-", "--measure", "degree"],
                                "weighted_violator.edges", 0),
    "paradox_power_series_integer_figure1": (
        ["paradox", "--family", "figure1", "--measure", "power-series", "--coeffs", "1,1,2"],
        None, 0),
    "directed_paradox_hub_cycle": (["directed-paradox", "--graph", "-"], "hub_cycle_10.edges", 1),
    "directed_paradox_weighted": (["directed-paradox", "--graph", "-"],
                                  "weighted_hub_cycle.edges", 1),
    "conditions_max_k": (["conditions", "--family", "figure1", "--max-k", "3"], None, 0),
    "conditions_mixed_weighted": (["conditions", "--graph", "-", "--mixed"],
                                  "weighted_violator.edges", 1),
    "conditions_scan_rs": (
        ["conditions", "--family", "figure1", "--scan", "4", "--r", "1", "--s", "2"], None, 0),
    "conditions_default_figure1": (["conditions", "--family", "figure1"], None, 0),
    "conditions_default_hub_cycle": (["conditions", "--family", "hub_cycle", "--n", "6"],
                                     None, 0),
    "conditions_mixed_hub_cycle": (
        ["conditions", "--family", "hub_cycle", "--n", "6", "--mixed", "--max-k", "5"],
        None, 0),
    "conditions_scan_figure1": (["conditions", "--family", "figure1", "--scan", "6"], None, 0),
    "conditions_spectral_first_order": (
        ["conditions", "--graph", "-", "--spectral", "--first-order"], "three_node.edges", 1),
    "sweep_json": (["sweep", "--family", "figure1", "--grid", "5"], None, 0),
    "sweep_csv": (["sweep", "--family", "figure1", "--grid", "5", "--format", "csv"], None, 0),
    "search_json": (["search", *ER8, "--r", "1", "--s", "2", "--trials", "6"], None, 0),
    "search_csv": (["search", *ER8, "--r", "1", "--s", "2", "--trials", "6",
                    "--format", "csv"], None, 0),
    "search_exhaustive": (["search", "--exhaustive", "--max-n", "4", "--r", "1", "--s", "2"],
                          None, 0),
    "search_exhaustive_n6": (
        ["search", "--exhaustive", "--max-n", "6", "--r", "1", "--s", "4"], None, 0),
    "enumerate": (["enumerate", "--max-n", "4"], None, 0),
    "enumerate_n6": (["enumerate", "--max-n", "6"], None, 0),
    "suite_undirected": (["suite", "--family", "erdos_renyi", "--n", "10", "--p", "0.4",
                          "--seed", "2", "--trials", "3"], None, 0),
    "suite_directed": (["suite", "--family", "erdos_renyi_directed", "--n", "10", "--p", "0.3",
                        "--seed", "2", "--trials", "3"], None, 0),
    "centrality_eigenvector_broadcast": (
        ["centrality", "--graph", "-", "--measure", "eigenvector", "--direction", "broadcast"],
        "hub_cycle_10.edges", 0),
    "centrality_eigenvector_receive": (
        ["centrality", "--graph", "-", "--measure", "eigenvector", "--direction", "receive"],
        "hub_cycle_10.edges", 0),
    "centrality_degree_receive": (
        ["centrality", "--graph", "-", "--measure", "degree", "--direction", "receive"],
        "star_out_5.edges", 0),
    "centrality_katz_receive": (
        ["centrality", "--graph", "-", "--measure", "katz", "--direction", "receive"],
        "hub_cycle_10.edges", 0),
    "centrality_total_figure1": (
        ["centrality", "--family", "figure1", "--measure", "total", "--beta", "0.5"], None, 0),
    "generate_connected": (["generate", *ER8, "--connected"], None, 0),
}


def _search_with_violation():
    rec = ViolationRecord(trial=3, n=3, directed=False, edges=((0, 1, 1.0), (1, 2, 0.5)),
                          condition_id="lagarias(r=1,s=2)", slack=-0.25)
    return SearchOutcome(r=1, s=2, trials=10, violations=(rec,), min_slack=-0.25,
                         family="f", seed=0)


# name: zero-argument callable returning a report object
PAYLOAD_CASES = {
    "katz_degree_limit_figure1": lambda: wp.katz_degree_limit_check(wp.figure1()),
    "katz_degree_limit_hub_cycle_receive": lambda: wp.katz_degree_limit_check(
        wp.hub_cycle(10), direction="receive"),
    "katz_eigenvector_limit_hub_cycle": lambda: wp.katz_eigenvector_limit_check(
        wp.hub_cycle(10), side="left"),
    "search_with_violation": _search_with_violation,
    "centrality_vector_degree": lambda: wp.compute_centrality(
        wp.figure1(), wp.CentralitySpec("degree", "undirected")),
}


def _run_cli(argv, fixture):
    """Run one CLI case in-process; returns (exit code, stdout text)."""
    stdin = sys.stdin
    if fixture is not None:
        sys.stdin = io.StringIO((FIXTURES / fixture).read_text(encoding="utf-8"))
    out = io.StringIO()
    stdout, sys.stdout = sys.stdout, out
    try:
        code = cli.run(argv)
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_document_matches_golden(name, capsys, monkeypatch):
    argv, fixture, expected_code = CLI_CASES[name]
    if fixture is not None:
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == expected_code, captured.err
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert captured.out.encode("utf-8") == expected


@pytest.mark.parametrize("name", sorted(PAYLOAD_CASES))
def test_payload_matches_golden(name):
    text = canonical_json(payload(PAYLOAD_CASES[name]()))
    assert text.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


def _run_demo(stem):
    """Run demos/<stem>.py in-process with no arguments; returns its stdout text."""
    script = DEMOS / f"{stem}.py"
    argv, stdout = sys.argv, sys.stdout
    sys.argv, sys.stdout = [str(script)], io.StringIO()
    try:
        runpy.run_path(str(script), run_name="__main__")
        return sys.stdout.getvalue()
    finally:
        sys.argv, sys.stdout = argv, stdout


DEMO_CASES = sorted(p.stem for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("stem", DEMO_CASES)
def test_demo_output_matches_golden(stem):
    text = _run_demo(stem)
    assert text.encode("utf-8") == (GOLDEN / f"demo_{stem}.out").read_bytes()


def _cli_bytes(name):
    argv, fixture, expected_code = CLI_CASES[name]
    code, text = _run_cli(argv, fixture)
    if code != expected_code:
        raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
    return text.encode("utf-8")


def _cases() -> dict:
    """Golden file name -> a callable giving the bytes its case produces now."""
    out = {f"{name}.out": lambda name=name: _cli_bytes(name) for name in sorted(CLI_CASES)}
    for name, make_report in sorted(PAYLOAD_CASES.items()):
        out[f"{name}.json"] = lambda make=make_report: canonical_json(
            payload(make())).encode("utf-8")
    for stem in DEMO_CASES:
        out[f"demo_{stem}.out"] = lambda stem=stem: _run_demo(stem).encode("utf-8")
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# a JSON string, a number, a word or one other character
_TOKEN = re.compile(rf'"(?:[^"\\]|\\.)*"|{_NUMBER.pattern}|\w+|[^\s\w]')


def _is_float(token: str) -> bool:
    return bool(_NUMBER.fullmatch(token)) and any(c in token for c in ".eE")


def _compare(old: str, new: str) -> tuple[float, list[str]]:
    """The largest relative change of a float token between two texts,
    and every other token that changed, as "old -> new", "- old" or "+ new"."""
    a, b = _TOKEN.findall(old), _TOKEN.findall(new)
    drift, changed = 0.0, []
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if op == "equal":
            continue
        if op == "replace" and i2 - i1 == j2 - j1:
            for x, y in zip(a[i1:i2], b[j1:j2]):
                if _NUMBER.fullmatch(x) and _NUMBER.fullmatch(y) and (
                        _is_float(x) or _is_float(y)):
                    fx, fy = float(x), float(y)
                    if fx != fy:
                        drift = max(drift, abs(fx - fy) / max(abs(fx), abs(fy)))
                else:
                    changed.append(f"{x} -> {y}")
            continue
        changed += [f"- {x}" for x in a[i1:i2]] + [f"+ {y}" for y in b[j1:j2]]
    return drift, changed


def test_golden_directory_holds_exactly_the_named_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(_cases())


def test_compare_reports_float_drift_and_changed_tokens():
    old = '{"exact": "5/8", "gap": 0.625, "n": 8, "x": [1.0, 2e-05, 0.0]}\n'
    new = '{"exact": "5/9", "gap": 0.625, "n": 9, "x": [1.0000000000000002, 2.00002e-05, -0.0]}\n'
    drift, changed = _compare(old, new)
    assert drift == pytest.approx(1e-5 / 1.00001, rel=1e-9)
    assert changed == ['"5/8" -> "5/9"', "8 -> 9"]
    assert _compare(old, old) == (0.0, [])
    # a float written as an integer still compares as a number
    assert _compare("x 2.5 y", "x 2 y") == (0.2, [])
    assert _compare("true, 1", "false, 1, null") == (0.0, ["true -> false", "+ ,", "+ null"])


def _check() -> int:
    """Print how each golden file would change; 1 if any would."""
    moved = 0
    for name, produce in _cases().items():
        data, path = produce(), GOLDEN / name
        old = path.read_bytes() if path.exists() else b""
        if old == data:
            continue
        moved += 1
        drift, changed = _compare(old.decode("utf-8"), data.decode("utf-8"))
        print(f"{name}: largest relative float change {drift:.3g}")
        for line in changed:
            print(f"  {line}")
    print(f"{moved} golden file(s) would change")
    return 1 if moved else 0


def _rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in _cases().items():
        (GOLDEN / name).write_bytes(produce())


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    _rewrite()
