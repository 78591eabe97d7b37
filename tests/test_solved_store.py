"""Each scenario solves each design at most once.

A scenario and its distributions are immutable, so ``solve_ne`` keeps
its results on the scenario instance: a repeat call returns the stored
result, and ``opt`` reads ``prt``'s search.  A derived scenario starts
with no results, and equality and repr ignore the store.  The guard at
the end keeps every module but ``equilibrium`` out of it, and within
``equilibrium`` every function but ``solve_ne`` and ``_solve_sweep``.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import solarmkt
from solarmkt import Scenario, solve_all, solve_ne
from solarmkt.equilibrium import SOLVE_MECHANISMS
from conftest import desk_scenario, random_empirical_premium, random_scenario

SRC = Path(solarmkt.__file__).parent


def _tabulated():
    return random_scenario(np.random.default_rng(3), 0.8, "tabulated", 2)


def _empirical_premium():
    rng = np.random.default_rng(4)
    return replace(random_scenario(rng, 0.6),
                   premium=random_empirical_premium(rng, 0.6))


SCENARIOS = {"desk": desk_scenario, "tabulated": _tabulated,
             "empirical": _empirical_premium}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_call_per_mechanism_is_solve_all_bit_for_bit(name):
    make = SCENARIOS[name]
    one_by_one = [solve_ne(make(), m) for m in SOLVE_MECHANISMS]
    together = solve_all(make())
    assert list(together) == list(SOLVE_MECHANISMS)
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(one_by_one) == repr(list(together.values()))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_opt_after_prt_makes_no_search(name, search_calls):
    scn = SCENARIOS[name]()
    prt = solve_ne(scn, "prt")
    assert search_calls
    search_calls.clear()
    opt = solve_ne(scn, "opt")
    assert not search_calls
    assert opt.mechanism == "opt"
    assert (opt.capacity, opt.bracket, opt.iterations) == \
        (prt.capacity, prt.bracket, prt.iterations)
    assert opt == replace(prt, mechanism="opt")


def test_a_repeat_solve_returns_the_stored_result(desk, search_calls):
    first = solve_all(desk)
    search_calls.clear()
    again = {m: solve_ne(desk, m) for m in ("srt", "prt", "cb")}
    assert not search_calls
    assert all(again[m] is first[m] for m in again)


def test_derived_scenarios_solve_afresh(desk, search_calls):
    solve_all(desk)
    derived = {
        "with_epsilon": (desk.with_epsilon(0.5), desk_scenario(0.5)),
        "with_pi0": (desk.with_pi0(0.2), desk_scenario().with_pi0(0.2)),
        "replace": (replace(desk, t_tilde=1.5),
                    Scenario(periods=desk.periods, premium=desk.premium,
                             pi0=desk.pi0, t_tilde=1.5)),
    }
    for name, (scn, fresh) in derived.items():
        search_calls.clear()
        got = solve_all(scn)
        assert search_calls, name
        assert got == solve_all(fresh), name
        assert got["prt"].capacity != solve_ne(desk, "prt").capacity, name
    search_calls.clear()
    copy = replace(desk)
    assert solve_ne(copy, "prt") == solve_ne(desk, "prt")
    assert search_calls


def test_equality_hash_and_repr_ignore_the_store(desk):
    before = repr(desk)
    twin = replace(desk)
    solve_all(desk)
    assert desk == twin and hash(desk) == hash(twin)
    assert repr(desk) == before == repr(twin)
    with pytest.raises(TypeError):
        Scenario(periods=desk.periods, premium=desk.premium, pi0=desk.pi0,
                 t_tilde=desk.t_tilde, _solved={})


# ----------------------------------------------------------------- the guard

STORE = "_solved"


def _store_uses(tree):
    """(line, how) for each read or write of the store: an attribute
    access, or the name as a string (getattr, setattr, replace)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == STORE:
            yield node.lineno, f".{STORE}"
        elif isinstance(node, ast.Constant) and node.value == STORE:
            yield node.lineno, repr(STORE)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                         if p.stem != "equilibrium"),
                         ids=lambda p: p.name)
def test_only_equilibrium_touches_the_stored_solves(path):
    uses = [f"{path.name}:{line} uses {how}" for line, how in
            _store_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert not uses, "only equilibrium may use the store: " + \
        "; ".join(uses)


def test_the_guard_sees_equilibrium_use_the_store():
    # within equilibrium, solve_ne and the sweep entry point, which stores
    # the cb and srt results of its points before solving them, and no
    # other function
    tree = ast.parse((SRC / "equilibrium.py").read_text(encoding="utf-8"))
    users = {fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and list(_store_uses(fn))}
    assert len(list(_store_uses(tree))) >= 2
    assert users == {"solve_ne", "_solve_sweep"}
