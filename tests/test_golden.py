"""Golden documents: exact stdout bytes of the CLI for a fixed set of argvs.

Each CLI case is an argv, an optional fixture fed on stdin through
``--graph -`` (so the recorded ``provenance.command`` holds no file
path) and the expected exit code; its stdout must equal
``tests/golden/<name>.out`` byte for byte.  Report objects the CLI cannot
reach are checked the same way through ``canonical_json(payload(...))``
against ``tests/golden/<name>.json``.

The files pin the documents' layout and numbers on one machine; after a
deliberate change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

import walkparadox as wp
import walkparadox.cli as cli
from walkparadox import canonical_json, payload
from walkparadox.explore import SearchOutcome, ViolationRecord

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

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
    "directed_paradox_hub_cycle": (["directed-paradox", "--graph", "-"], "hub_cycle_10.edges", 1),
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
    "enumerate": (["enumerate", "--max-n", "4"], None, 0),
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


def _rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, fixture, expected_code) in sorted(CLI_CASES.items()):
        code, text = _run_cli(argv, fixture)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(text.encode("utf-8"))
    for name, make_report in sorted(PAYLOAD_CASES.items()):
        text = canonical_json(payload(make_report()))
        (GOLDEN / f"{name}.json").write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    _rewrite()
