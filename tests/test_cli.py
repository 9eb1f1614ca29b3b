"""Command-line behaviour: exit codes, output routing, determinism."""

import ast
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import walkparadox as wp
import walkparadox.cli as cli
from walkparadox import TheoremViolationError, parse_edge_list


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_paradox_exit_zero_and_payload(capsys):
    code, doc = run_json(capsys, ["paradox", "--family", "figure1"])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["type"] == "paradox"
    assert rep["gap"] == 0.625
    assert rep["holds"] is True
    assert rep["exact"]["gap"] == "5/8"
    assert doc["provenance"]["seed"] == 0
    assert doc["graph_summary"]["n"] == 8


def test_paradox_failing_pairing_exits_one(capsys):
    code, doc = run_json(capsys, [
        "paradox", "--family", "hub_cycle", "--n", "10",
        "--measure", "degree", "--mode", "out", "--direction", "receive",
    ])
    assert code == 1
    rep = doc["reports"][0]
    assert rep["holds"] is False
    assert rep["exact"]["gap"] == "-71/190"


def test_directed_paradox_finding(capsys):
    code, doc = run_json(capsys, ["directed-paradox", "--family", "hub_cycle", "--n", "10"])
    assert code == 1
    gaps = doc["reports"][0]["gaps"]
    assert gaps["out_out"]["holds"] is True
    assert gaps["in_in"]["holds"] is True
    assert gaps["out_in"]["holds"] is False
    assert doc["reports"][0]["covariance_exact"] == "-71/100"


def test_centrality_degree_and_eigenvector(capsys):
    code, doc = run_json(capsys, [
        "centrality", "--family", "figure1", "--measure", "degree",
    ])
    assert code == 0
    assert doc["reports"][0]["values"] == [4, 1, 1, 1, 3, 2, 3, 1]

    code, doc = run_json(capsys, [
        "centrality", "--family", "figure1", "--measure", "eigenvector",
    ])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["type"] == "eigenpair"
    assert rep["eigenvalue"] == pytest.approx(2.4465045374154455, abs=1e-9)
    assert sum(rep["vector"]) == pytest.approx(8.0, abs=1e-9)


def test_centrality_direction_validation(capsys):
    code = cli.run(["centrality", "--family", "three_node",
                    "--measure", "eigenvector", "--direction", "undirected"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["paradox", "--family", "figure1", "--measure", "katz", "--beta", "2"],
    ["paradox", "--family", "figure1", "--measure", "katz", "--coeffs", "1,2"],
    ["centrality", "--family", "cycle", "--n", "5", "--measure", "degree", "--alpha", "0.3"],
    ["centrality", "--family", "cycle", "--n", "5", "--measure", "eigenvector", "--beta", "2"],
    ["centrality", "--family", "cycle", "--n", "5", "--measure", "power-series",
     "--coeffs", "1,2", "--tol", "1e-9"],
])
def test_measure_flags_it_never_reads_are_refused(argv, capsys):
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_conditions_default_batteries(capsys):
    code, doc = run_json(capsys, ["conditions", "--family", "figure1"])
    assert code == 0
    ids = [r["condition_id"] for r in doc["reports"]]
    assert ids == [f"walk_growth(k={k})" for k in (1, 2, 3, 4)]

    code, doc = run_json(capsys, ["conditions", "--family", "hub_cycle", "--n", "6"])
    assert code == 0
    types = [r["type"] for r in doc["reports"]]
    assert types == ["condition"] * 4 + ["first_order_term"]
    assert all("mixed" in r["condition_id"] for r in doc["reports"][:4])


def test_conditions_spectral_finding(capsys):
    code, doc = run_json(capsys, ["conditions", "--family", "three_node", "--spectral"])
    assert code == 1
    assert all(r["holds"] is False for r in doc["reports"])


def test_conditions_flag_pairing(capsys):
    code = cli.run(["conditions", "--family", "figure1", "--r", "1"])
    assert code == 2
    assert "--r and --s go together" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["conditions", "--family", "complete", "--n", "50", "--max-k", "200"],
    ["conditions", "--family", "figure1", "--scan", "1000"],
], ids=["growth", "scan"])
def test_walk_totals_past_float_range_exit_two(argv, capsys):
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the float range" in err
    assert "Traceback" not in err


def test_series_overflow_exits_two(capsys):
    argv = ["paradox", "--family", "complete", "--n", "4", "--measure", "odd", "--beta", "300"]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beta * lambda_1 = 900; use a smaller beta" in err


def test_search_even_order_rejected(capsys):
    code = cli.run(["search", "--family", "erdos_renyi", "--n", "8", "--p", "0.5",
                    "--r", "1", "--s", "1"])
    assert code == 2
    assert "even order" in capsys.readouterr().err


def test_search_exhaustive(capsys):
    code, doc = run_json(capsys, ["search", "--exhaustive", "--max-n", "4",
                                  "--r", "1", "--s", "2"])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["trials"] == 43
    assert rep["violations"] == []
    assert rep["min_slack"] == 0


def test_search_flag_conflicts(capsys):
    exhaustive = ["search", "--exhaustive", "--max-n", "4", "--r", "1", "--s", "2"]
    for argv in (
        ["search", "--r", "1", "--s", "2"],
        ["search", "--exhaustive", "--r", "1", "--s", "2"],
        exhaustive + ["--family", "cycle"],
        # each sampling flag is refused, not ignored, by the exhaustive mode
        exhaustive + ["--trials", "5"],
        exhaustive + ["--n", "5"],
        exhaustive + ["--k", "2"],
        exhaustive + ["--p", "0.5"],
        exhaustive + ["--m", "2"],
        # and --max-n by the sampled mode
        ["search", "--family", "cycle", "--n", "5", "--max-n", "3",
         "--r", "1", "--s", "2", "--trials", "2"],
    ):
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_graph_source_flags_the_source_never_reads(capsys):
    for argv in (
        ["paradox", "--family", "figure1", "--n", "50", "--p", "0.3"],
        ["paradox", "--family", "figure1", "--one-based"],
        ["paradox", "--graph", "tests/fixtures/figure1.edges", "--n", "9"],
        ["conditions", "--graph", "tests/fixtures/figure1.edges", "--m", "2"],
        ["search", "--family", "cycle", "--n", "5", "--p", "0.3",
         "--r", "1", "--s", "2", "--trials", "2"],
        ["generate", "--family", "erdos_renyi", "--n", "5", "--p", "0.3", "--k", "2"],
    ):
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_centrality_refuses_an_unseparated_perron_root(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1 1.0\n1 2 1e-20\n2 3 1.0\n"))
    assert cli.run(["centrality", "--graph", "-", "--measure", "eigenvector"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dense eigensolver cannot separate")


def test_enumerate(capsys):
    code, doc = run_json(capsys, ["enumerate", "--max-n", "4"])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["counts"] == {"2": 1, "3": 4, "4": 38}
    assert rep["total"] == 43
    assert doc["graph_summary"] is None


def test_suite(capsys):
    code, doc = run_json(capsys, ["suite", "--family", "erdos_renyi", "--n", "14",
                                  "--p", "0.3", "--seed", "2", "--trials", "4"])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["type"] == "suite" and rep["failures"] == 0


def test_missing_graph_source(capsys):
    code = cli.run(["paradox"])
    assert code == 2
    assert "graph is required" in capsys.readouterr().err


def test_both_graph_sources(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text("0 1\n")
    code = cli.run(["paradox", "--graph", str(f), "--family", "figure1"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_unknown_family(capsys):
    code = cli.run(["paradox", "--family", "moebius"])
    assert code == 2
    assert "known:" in capsys.readouterr().err


def test_missing_file(capsys):
    code = cli.run(["paradox", "--graph", "/nonexistent/g.edges"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"0 1\n\xff 2\n",
    b"0 100000000000000000000000000000\n",
    b"%nodes 100000000000000000000000000000\n0 1\n",
    b"%nodes 4611686018427387904\n0 1\n",
    "%nodes \u00b2\n0 1\n".encode(),
    b"%nodes " + b"9" * 5000 + b"\n0 1\n",
    # 8 EiB of indptr: no 64-bit address space can hold it
    b"%nodes 1152921504606846974\n0 1\n",
    b"0 1152921504606846973\n",
    b"0 " + b"1" * 5000 + b"\n",
    b"0 " + b"9" * 4300 + b"\n",
], ids=["not-utf8", "node-id-past-int64", "node-count-past-int64", "node-count-past-numpy",
        "node-count-superscript-digit", "node-count-past-int-digit-limit",
        "node-count-past-memory", "node-id-past-memory", "node-id-past-int-digit-limit",
        "node-id-at-int-digit-limit"])
def test_malformed_edge_list_is_an_input_error(content, tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_bytes(content)
    assert cli.run(["paradox", "--graph", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_from_argparse(capsys):
    assert cli.run([]) == 2
    assert cli.run(["centrality", "--family", "figure1"]) == 2  # --measure required
    assert cli.run(["centrality", "--family", "figure1", "--measure", "degree",
                    "--format", "csv"]) == 2  # csv not offered here
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "walkparadox" in capsys.readouterr().out


def test_csv_outputs(capsys):
    code = cli.run(["sweep", "--family", "figure1", "--grid", "5", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,gap" and len(lines) == 6

    code = cli.run(["search", "--exhaustive", "--max-n", "3", "--r", "1", "--s", "2",
                    "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "trial,slack,edges\n"


def test_stdin_graph(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, doc = run_json(capsys, ["paradox", "--graph", "-"])
    assert code == 0
    assert doc["graph_summary"]["n"] == 3
    assert doc["provenance"]["seed"] is None


def test_one_based_input(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text("1 2\n2 3\n")
    code, doc = run_json(capsys, ["centrality", "--graph", str(f), "--one-based",
                                  "--measure", "degree"])
    assert code == 0
    assert doc["reports"][0]["values"] == [1, 2, 1]


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "cycle6.edges"
    code = cli.run(["generate", "--family", "cycle", "--n", "6", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# family=cycle n=6 seed=0\n")
    assert parse_edge_list(text) == wp.cycle(6)


def test_generate_connected_note(capsys):
    code = cli.run(["generate", "--family", "erdos_renyi", "--n", "25", "--p", "0.12",
                    "--seed", "3", "--connected"])
    assert code == 0
    text = capsys.readouterr().out
    assert "connected-after=" in text
    assert wp.is_connected(parse_edge_list(text))


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WALKPARADOX_OUT_DIR", str(tmp_path))
    code = cli.run(["paradox", "--family", "figure1", "--out", "report.json"])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["reports"][0]["gap"] == 0.625
    # absolute paths bypass the env override
    target = tmp_path / "abs.json"
    code = cli.run(["paradox", "--family", "figure1", "--out", str(target)])
    assert code == 0
    assert target.exists()


def test_byte_determinism(capsys):
    argv = ["conditions", "--family", "figure1", "--scan", "4"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == first


def test_theorem_violation_exit_code(capsys, monkeypatch):
    def boom(g, r, s):
        raise TheoremViolationError("forced", dump={"edges": []})

    monkeypatch.setattr(cli, "check_lagarias", boom)
    code = cli.run(["conditions", "--family", "figure1", "--r", "1", "--s", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "theorem violation: forced" in err
    assert "witness:" in err


def test_theorem_violation_witness_replays_stdin_graph(capsys, monkeypatch):
    text = "%directed\n%nodes 6\n0 1\n1 2\n2 0\n"

    def negative(*args, **kwargs):
        return replace(real(*args, **kwargs), holds=False)

    real = wp.paradox.paradox_report
    monkeypatch.setattr(wp.paradox, "paradox_report", negative)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.run(["directed-paradox", "--graph", "-"]) == 3
    line = next(l for l in capsys.readouterr().err.splitlines() if l.startswith("witness: "))
    dump = ast.literal_eval(line[len("witness: "):])
    assert wp.build(dump["n"], dump["edges"], directed=dump["directed"]) == parse_edge_list(text)


def test_provenance_records_argv(capsys):
    argv = ["paradox", "--family", "cycle", "--n", "5"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["provenance"]["command"] == argv
    assert doc["provenance"]["version"] == wp.__version__


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("argv", [
    ["suite", "--family", "erdos_renyi", "--n", "8", "--p", "0.5"],
    ["paradox", "--family", "figure1"],
    ["directed-paradox", "--family", "hub_cycle", "--n", "5"],
    ["sweep", "--family", "figure1", "--grid", "3"],
    ["centrality", "--family", "figure1", "--measure", "katz"],
])
def test_non_finite_tol_is_a_usage_error(argv, value, capsys):
    assert cli.run([*argv, f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_conditions_rejects_nonpositive_max_k(depth, capsys):
    assert cli.run(["conditions", "--family", "figure1", "--max-k", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-k must be >= 1" in captured.err


# One argv per document subcommand, plus both CSV formats.
_DOCUMENT_ARGVS = {
    "centrality": ["centrality", "--family", "figure1", "--measure", "eigenvector"],
    "paradox": ["paradox", "--family", "hub_cycle", "--n", "10", "--measure", "katz"],
    "directed-paradox": ["directed-paradox", "--family", "hub_cycle", "--n", "10"],
    "conditions": ["conditions", "--family", "figure1", "--scan", "4"],
    "sweep": ["sweep", "--family", "figure1", "--grid", "5"],
    "sweep-csv": ["sweep", "--family", "figure1", "--grid", "5", "--format", "csv"],
    "search": ["search", "--family", "erdos_renyi", "--n", "8", "--p", "0.5", "--seed", "1",
               "--r", "1", "--s", "2", "--trials", "6"],
    "search-csv": ["search", "--family", "erdos_renyi", "--n", "8", "--p", "0.5",
                   "--seed", "1", "--r", "1", "--s", "2", "--trials", "6",
                   "--format", "csv"],
    "search-exhaustive": ["search", "--exhaustive", "--max-n", "4", "--r", "1", "--s", "2"],
    "enumerate": ["enumerate", "--max-n", "4"],
    "suite": ["suite", "--family", "erdos_renyi", "--n", "10", "--p", "0.4", "--seed", "2",
              "--trials", "3"],
}


def _expected_file_text(stdout: str, argv) -> str:
    """The stdout bytes as they read with argv in provenance.command.

    CSV tables carry no argv and are expected unchanged.  A document is
    re-encoded, after checking that re-encoding it unchanged gives back
    the exact stdout bytes.
    """
    if "--format" in argv:
        return stdout
    doc = json.loads(stdout)
    assert wp.canonical_json(doc) == stdout
    doc["provenance"]["command"] = list(argv)
    return wp.canonical_json(doc)


@pytest.mark.parametrize("name", sorted(_DOCUMENT_ARGVS))
def test_out_file_gets_the_stdout_bytes(name, tmp_path, capsys):
    argv = _DOCUMENT_ARGVS[name]
    code = cli.run(argv)
    stdout = capsys.readouterr().out
    assert stdout
    target = tmp_path / "result.txt"
    out_argv = [*argv, "--out", str(target)]
    assert cli.run(out_argv) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == _expected_file_text(stdout, out_argv).encode("utf-8")


@pytest.mark.parametrize("name", ["paradox", "sweep-csv"])
def test_unwritable_out_is_a_usage_error(name, tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    assert cli.run([*_DOCUMENT_ARGVS[name], "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert not target.parent.exists()


def test_runtime_imports_numpy_only():
    # the test-only oracles (scipy, networkx) and the test runner must not
    # leak into what `import walkparadox.cli` loads
    package_root = str(Path(wp.__file__).resolve().parents[1])
    probe = ("import sys, walkparadox, walkparadox.cli; "
             "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "numpy" in loaded and "walkparadox" in loaded
    assert loaded.isdisjoint({"scipy", "networkx", "pytest", "hypothesis"})
