"""Every theorem-violation witness replays its graph.

Each case forces one violation in one module and rebuilds the graph
from nothing but the dump, which must also survive a repr round trip.
"""

import ast
from dataclasses import replace

import pytest

import walkparadox as wp
from walkparadox import FamilySpec, TheoremViolationError
from walkparadox import conditions, explore, paradox

# node 4 and node 5 have no arcs, so only the dump's n can bring them back
ISOLATED_TAIL = wp.build(6, [(0, 1), (1, 2), (2, 0), (0, 2), (3, 1)], directed=True)


def _shifted(real, **changes):
    def fake(*args, **kwargs):
        return replace(real(*args, **kwargs), **changes)
    return fake


CASES = {
    "conditions_verdict": (
        ISOLATED_TAIL, conditions, "_verdict", lambda *args: False,
        lambda: wp.check_mixed_walk_growth(ISOLATED_TAIL, 1)),
    "conditions_spectral": (
        wp.three_node(), conditions, "paradox_report",
        _shifted(paradox.paradox_report, gap=1.0),
        lambda: wp.check_spectral_directed(wp.three_node(), "left")),
    "paradox_directed": (
        ISOLATED_TAIL, paradox, "paradox_report",
        _shifted(paradox.paradox_report, holds=False),
        lambda: wp.directed_degree_report(ISOLATED_TAIL)),
    "explore_suite": (
        wp.directed_cycle(5), explore, "paradox_report",
        _shifted(paradox.paradox_report, gap=1.0),
        lambda: wp.random_theorem_suite(FamilySpec("directed_cycle", n=5), trials=1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forced_violation_dump_rebuilds_graph(case, monkeypatch):
    g, module, name, fake, call = CASES[case]
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(TheoremViolationError) as info:
        call()
    dump = info.value.dump
    assert ast.literal_eval(repr(dump)) == dump
    assert wp.build(dump["n"], dump["edges"], directed=dump["directed"]) == g

