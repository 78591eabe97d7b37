"""A sweep's points share one contract-market breakpoint search.

``equilibrium._solve_sweep`` solves the points that a premium-scale or
capital-cost sweep derives from one scenario.  The demands of every
point's premium knots at its pi* are one search (plain floats per knot
for premiums of at most two knots, one array search for all table
knots), an epsilon sweep solves ``srt`` once, and every result is the
same bits as a fresh ``solve_all`` of its point.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solarmkt import equilibrium, ordering_report, solve_all
from solarmkt.cli import DEFAULT_EPSILON_GRID
from solarmkt.equilibrium import _solve_sweep
from conftest import random_empirical_premium, random_scenario
from test_brackets import scenarios

#: The desk workload's epsilon sweep.
DESK_EPSILON_SWEEP = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@settings(max_examples=30, deadline=None)
@given(scenarios(),
       st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
       st.lists(st.floats(0.2, 1.5), min_size=1, max_size=3))
def test_a_sweep_is_its_fresh_solves_bit_for_bit(scn, scales, shares):
    sweeps = {"epsilon": (scn.with_epsilon, [0.0, *scales]),
              "pi0": (scn.with_pi0, [share * scn.pi0 for share in shares])}
    for param, (derive, values) in sweeps.items():
        got = _solve_sweep(scn, param, values)
        want = [solve_all(derive(v)) for v in values]
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(got) == repr(want), param


@pytest.mark.parametrize("param,mechanisms", [("epsilon", ("cb", "xyz")),
                                              ("xyz", ("cb",))])
def test_a_sweep_checks_its_names_before_solving(desk, search_calls, param,
                                                 mechanisms):
    with pytest.raises(ValueError, match="unknown"):
        _solve_sweep(desk, param, [0.5], mechanisms)
    assert not search_calls


def _empirical():
    rng = np.random.default_rng(4)
    return replace(random_scenario(rng, 0.6),
                   premium=random_empirical_premium(rng, 0.6))


def test_ordering_report_searches_table_breakpoints_once(search_calls):
    # four positive grid scales and the two of gap_k: one array search
    # for all of their table knots (six, one per scale, before)
    report = ordering_report(_empirical(), DEFAULT_EPSILON_GRID)
    assert report.gap_k is not None
    assert search_calls["array"] == 1


def test_analytic_premium_reports_make_no_array_search(desk, search_calls):
    ordering_report(desk, DEFAULT_EPSILON_GRID)
    assert search_calls["float"] and not search_calls["array"]


def test_an_epsilon_sweep_solves_srt_once(desk, search_calls, monkeypatch):
    solved = Counter()
    solve = equilibrium._solve_characteristic
    monkeypatch.setattr(equilibrium, "_solve_characteristic",
                        lambda scn, m: solved.update([m]) or solve(scn, m))
    _solve_sweep(desk, "epsilon", DESK_EPSILON_SWEEP)
    # one srt search (eight before), prt per value
    assert solved == Counter(srt=1, prt=len(DESK_EPSILON_SWEEP))
    search_calls.clear()
    _solve_sweep(desk.with_pi0(0.1), "epsilon", DESK_EPSILON_SWEEP, ("srt",))
    assert search_calls == Counter(float=1)
    # a capital-cost sweep moves pi*, so srt is its own search per value
    solved.clear()
    _solve_sweep(desk, "pi0", [0.05, 0.1, 0.125], ("srt", "cb"))
    assert solved == Counter(srt=3)
