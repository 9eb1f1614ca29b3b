"""Canonical serialization and report document assembly."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import walkparadox as wp
from walkparadox import (
    SCHEMA_VERSION,
    canonical_json,
    document,
    graph_summary,
    parse_document,
    payload,
    search_csv,
    sweep_csv,
)
from walkparadox.explore import SearchOutcome, ViolationRecord


def test_scalar_encodings():
    assert canonical_json(True) == "true\n"
    assert canonical_json(False) == "false\n"
    assert canonical_json(None) == "null\n"
    assert canonical_json(7) == "7\n"
    assert canonical_json("a\nb") == '"a\\nb"\n'
    assert canonical_json(Fraction(5, 8)) == '"5/8"\n'
    assert canonical_json(0.1) == "0.10000000000000001\n"
    assert canonical_json(1.0) == "1\n"


def test_key_order_is_insertion_independent():
    a = canonical_json({"z": 1, "a": 2, "m": [3, {"y": 4, "x": 5}]})
    b = canonical_json({"m": [3, {"x": 5, "y": 4}], "a": 2, "z": 1})
    assert a == b
    assert a.index('"a"') < a.index('"m"') < a.index('"z"')


def test_rendered_text_is_parseable_json():
    doc = {"ints": [1, 2], "frac": Fraction(1, 3), "nested": {"ok": True}}
    parsed = json.loads(canonical_json(doc))
    assert parsed == {"ints": [1, 2], "frac": "1/3", "nested": {"ok": True}}


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_float_round_trip(x):
    text = canonical_json(x)
    assert float(json.loads(text)) == x


def test_rejects_unserializable_content():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": math.inf})
    with pytest.raises(ValueError, match="non-finite number in report: nan"):
        canonical_json({"x": [1.0, math.nan, math.inf]})  # a float list, checked at once
    with pytest.raises(ValueError, match="non-finite number in report: -inf"):
        canonical_json([1, -math.inf])
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_json({1: "x"})
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"x": {3, 4}})


def test_float_lists_and_mixed_lists_share_one_layout():
    floats = canonical_json({"v": [0.1, 1.0, -2.5e-300]})
    assert floats == '{\n  "v": [\n    0.10000000000000001,\n    1,\n    -2.5e-300\n  ]\n}\n'
    mixed = canonical_json({"v": [0.1, 1, [2.0], True]})
    assert mixed == ('{\n  "v": [\n    0.10000000000000001,\n    1,\n    [\n      2\n    ],\n'
                     '    true\n  ]\n}\n')


def test_empty_containers():
    assert canonical_json({}) == "{}\n"
    assert canonical_json([]) == "[]\n"


def test_paradox_payload_shape():
    rep = wp.classic_friendship_paradox(wp.figure1())
    p = payload(rep)
    assert p["type"] == "paradox"
    assert p["gap"] == 0.625
    assert p["holds"] is True
    assert p["exact"]["gap"] == Fraction(5, 8)
    text = canonical_json(p)
    assert '"5/8"' in text


def test_condition_and_directed_payloads():
    c = payload(wp.check_walk_growth(wp.figure1(), 1))
    assert c["type"] == "condition" and c["condition_id"] == "walk_growth(k=1)"
    d = payload(wp.directed_degree_report(wp.hub_cycle(10)))
    assert d["type"] == "directed_degree"
    assert set(d["gaps"]) == {"out_out", "out_in", "in_out", "in_in"}
    assert d["gaps"]["in_in"]["exact"]["gap"] == Fraction(9, 190)
    assert d["gaps"]["out_in"]["exact"]["gap"] == Fraction(-71, 190)


def test_eigen_and_vector_payloads():
    res = wp.dominant_eigenpair(wp.figure1(), tol=1e-10)
    e = payload(res)
    assert e["type"] == "eigenpair"
    assert len(e["vector"]) == 8
    v = payload(wp.compute_centrality(wp.figure1(), wp.CentralitySpec("degree", "undirected")))
    assert v["type"] == "centrality" and v["n"] == 8
    assert v["values"] == [4, 1, 1, 1, 3, 2, 3, 1]


def test_payload_passthrough_and_rejection():
    assert payload({"type": "custom"}) == {"type": "custom"}
    with pytest.raises(TypeError, match="no payload mapping"):
        payload(object())


def test_graph_summary_fields():
    s = graph_summary(wp.cycle(5))
    assert s == {
        "n": 5,
        "edge_count": 5,
        "directed": False,
        "weighted": False,
        "regular": True,
        "common_degree": 2.0,
    }
    s = graph_summary(wp.figure1())
    assert s["regular"] is False and "common_degree" not in s
    s = graph_summary(wp.directed_cycle(4))
    assert s["regular_out"] and s["regular_in"]
    assert s["common_out_degree"] == 1.0 and s["common_in_degree"] == 1.0
    s = graph_summary(wp.star_out(4))
    assert not s["regular_out"] and "common_out_degree" not in s


def test_document_structure_and_determinism():
    g = wp.figure1()
    reports = [wp.classic_friendship_paradox(g)]
    doc = document(["paradox", "--family", "figure1"], g, reports, seed=None, tolerances={"tol": 1e-12})
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["graph_summary"]["n"] == 8
    assert doc["provenance"]["command"] == ["paradox", "--family", "figure1"]
    assert doc["provenance"]["version"] == wp.__version__
    text = canonical_json(doc)
    assert text == canonical_json(document(
        ["paradox", "--family", "figure1"], g, reports, seed=None, tolerances={"tol": 1e-12}
    ))
    assert parse_document(text)["provenance"]["tolerances"] == {"tol": 1e-12}
    # nothing clock- or host-shaped anywhere
    assert "time" not in text and "host" not in text


def test_document_without_graph():
    doc = document(["enumerate"], None, [{"type": "enumeration"}])
    assert doc["graph_summary"] is None


def test_sweep_csv_format():
    res = wp.katz_alpha_sweep(wp.figure1(), grid_size=4)
    text = sweep_csv(res)
    lines = text.splitlines()
    assert lines[0] == "alpha,gap"
    assert len(lines) == 5
    first_alpha = float(lines[1].split(",")[0])
    assert first_alpha == res.alphas[0]


def test_search_csv_format():
    rec = ViolationRecord(
        trial=3,
        n=3,
        directed=False,
        edges=((0, 1, 1.0), (1, 2, 0.5)),
        condition_id="lagarias(r=1,s=2)",
        slack=-0.25,
    )
    out = SearchOutcome(
        r=1, s=2, trials=10, violations=(rec,), min_slack=-0.25, family="f", seed=0
    )
    text = search_csv(out)
    assert text.splitlines()[0] == "trial,slack,edges"
    assert text.splitlines()[1] == '3,-0.25,"0-1;1-2-0.5"'
    empty = SearchOutcome(r=1, s=2, trials=5, violations=(), min_slack=1.0, family="f", seed=0)
    assert search_csv(empty) == "trial,slack,edges\n"
