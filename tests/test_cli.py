"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import solarmkt
from solarmkt import (equilibrium, load_scenario, ordering_report, solve_all,
                      solve_ne)
from solarmkt import cli, markets
from solarmkt.cli import DEFAULT_EPSILON_GRID, main
from test_acceptance import _write_california_fixtures

DESK_CONFIG = {
    "pi0_usd_per_kw": 0.125,
    "t_tilde": 1.0,
    "epsilon": 1.0,
    "premium": {"kind": "uniform", "v_bar": 0.6},
    "periods": [
        {"load_gwh": 1.0, "utility_price_usd_per_kwh": 1.0,
         "generation": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}
    ],
}


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(DESK_CONFIG), encoding="utf-8")
    return path


def _config_with(tmp_path, name, **overrides):
    config = dict(DESK_CONFIG, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ----------------------------------------------------------------------- solve

def test_solve_writes_desk_capacities(desk_config, tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert main(["solve", "--config", str(desk_config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    caps = payload["capacities_gw"]
    assert caps["srt"] == pytest.approx(2.0, rel=1e-9)
    assert caps["prt"] == pytest.approx(2.1908902300206643, rel=1e-9)
    assert caps["cb"] == pytest.approx(2.2752393389061403, rel=1e-8)
    assert caps["opt"] == caps["prt"]
    assert payload["viability"]["viable"]
    assert payload["expansion"]["lambda"] == pytest.approx(2.0 / 3.0)
    assert payload["flatness"]["delta"] == 0.0
    # stdout shows 6-significant-digit capacities
    assert "prt=2.19089" in capsys.readouterr().out


def test_solve_zero_scale_collapses(tmp_path):
    config = _config_with(tmp_path, "eps0.json", epsilon=0.0)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    caps = json.loads(out.read_text())["capacities_gw"]
    values = list(caps.values())
    assert max(values) - min(values) <= 1e-6 * max(values)


def test_solve_at_the_viability_boundary(tmp_path):
    # eps=0, pi0=0.5: the capital cost equals the backstop value of the
    # mean output, which the truncated mean keeps up to capacity 1, so
    # every design invests exactly 1; the cb capacity sits on the flat
    # stretch of the demand curve
    config = _config_with(tmp_path, "boundary.json", epsilon=0.0,
                          pi0_usd_per_kw=0.5)
    scenario = load_scenario(config)
    for mech in ("srt", "prt", "cb", "opt"):
        assert solve_ne(scenario, mech).capacity == pytest.approx(1.0, rel=1e-9)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    caps = json.loads(out.read_text())["capacities_gw"]
    assert all(c == pytest.approx(1.0, rel=1e-9) for c in caps.values())


def test_solve_unattractive_cost_reports_nonviable(tmp_path):
    config = _config_with(tmp_path, "dear.json", pi0_usd_per_kw=0.6)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["capacities_gw"]["srt"] == 0.0
    assert payload["viable"]["srt"] is False
    assert not payload["viability"]["viable"]


def test_solve_dead_market_reports_expansion_unavailable(tmp_path):
    # past every choke price the expansion point does not exist; the
    # solve still succeeds and says why the coefficients are missing
    config = _config_with(tmp_path, "dead.json", pi0_usd_per_kw=0.9)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all(v == 0.0 for v in payload["capacities_gw"].values())
    assert payload["expansion"] is None
    assert "not viable" in payload["expansion_error"]


def test_solve_bad_config_fails_cleanly(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_deterministic_bytes(desk_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--config", str(desk_config), "--out", str(out1)])
    main(["solve", "--config", str(desk_config), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# ----------------------------------------------------------------------- sweep

def test_sweep_epsilon_rows_and_widening_gap(desk_config, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(desk_config), "--param", "epsilon",
                 "--values", "0,0.5,1", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 12
    assert [r["value"] for r in rows[:4]] == ["0.0"] * 4
    assert [r["mechanism"] for r in rows[:4]] == ["srt", "prt", "cb", "opt"]
    gaps = []
    for value in ("0.0", "0.5", "1.0"):
        by_mech = {r["mechanism"]: float(r["capacity_gw"])
                   for r in rows if r["value"] == value}
        gaps.append(by_mech["cb"] - by_mech["prt"])
    assert gaps[0] == pytest.approx(0.0, abs=1e-9)
    assert gaps[0] < gaps[1] < gaps[2]


def test_sweep_pi0_past_viability_threshold(desk_config, tmp_path):
    out = tmp_path / "sweep.csv"
    # viability boundary sits at 0.5 here; beyond it srt drops to zero
    # and the prt/cb ordering may flip (reported, not failed)
    assert main(["sweep", "--config", str(desk_config), "--param", "pi0",
                 "--values", "0.2,0.4,0.55,0.7", "--out", str(out)]) == 0
    rows = _read_csv(out)
    srt = {r["value"]: float(r["capacity_gw"])
           for r in rows if r["mechanism"] == "srt"}
    assert srt["0.2"] > 0.0 and srt["0.4"] > 0.0
    assert srt["0.55"] == 0.0 and srt["0.7"] == 0.0
    caps = {(r["value"], r["mechanism"]): float(r["capacity_gw"]) for r in rows}
    assert caps[("0.55", "prt")] > 0.0 and caps[("0.55", "cb")] > 0.0
    # capacities decline monotonically in the capital cost
    for mech in ("prt", "cb"):
        series = [caps[(v, mech)] for v in ("0.2", "0.4", "0.55", "0.7")]
        assert all(a >= b for a, b in zip(series, series[1:]))


def test_sweep_rejects_bad_values(desk_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(desk_config), "--param", "epsilon",
                 "--values=-1,0.5", "--out", str(tmp_path / "s.csv")]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_sweep_rejects_a_zero_cost(desk_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(desk_config), "--param", "pi0",
                 "--values", "0", "--out", str(tmp_path / "s.csv")]) == 1
    assert "pi0 sweep values must be positive" in capsys.readouterr().err


def test_sweep_mechanism_list_skips_empty_fields(desk_config, tmp_path, capsys):
    def sweep(mechanisms, out):
        return main(["sweep", "--config", str(desk_config), "--param", "epsilon",
                     "--mechanisms", mechanisms, "--values", "0.5",
                     "--out", str(tmp_path / out)])

    assert sweep("srt,prt", "plain.csv") == 0
    assert sweep("srt,prt,", "trailing.csv") == 0
    assert sweep(" srt,,prt ", "spaced.csv") == 0
    plain = (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "trailing.csv").read_bytes() == plain
    assert (tmp_path / "spaced.csv").read_bytes() == plain
    capsys.readouterr()
    assert sweep(",", "none.csv") == 1
    assert "no values in ','" in capsys.readouterr().err


def test_sweep_deterministic_bytes(desk_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        main(["sweep", "--config", str(desk_config), "--param", "epsilon",
              "--values", "0,0.25,0.5,0.75,1", "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------- verify

def test_verify_passes_at_equilibrium(desk_config, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(desk_config), "--mechanism", "prt",
                 "--samples", "500", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_deviation_gain"] <= 1e-6


def test_verify_perturbed_price_fails(desk_config, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(desk_config), "--mechanism", "prt",
                 "--samples", "200", "--seed", "7", "--perturb-price", "0.01",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_verify_cb_at_solved_price(desk_config, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(desk_config), "--mechanism", "cb",
                 "--samples", "1", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["details"]["cb_argmax_gap"] <= payload["details"]["cb_grid_step"]


@pytest.mark.parametrize("name", ["desk", "california", "empirical"])
def test_verify_cb_clears_in_two_demand_evaluations(tmp_path, monkeypatch,
                                                    name):
    # verify used to search the clearing price afresh, in 10-12 demand
    # evaluations; at the long-run capacity, the demand at the
    # cost-recovering price pi*, two evaluations certify pi* itself
    if name == "california":
        config = _write_california_fixtures(tmp_path)
    elif name == "empirical":
        samples = np.random.default_rng(2).exponential(0.2, 300).tolist()
        config = _config_with(tmp_path, "empirical.json", premium={
            "kind": "empirical", "samples": samples})
    else:
        config = _config_with(tmp_path, "desk.json")
    calls = []
    demand = markets.aggregate_demand_cb
    monkeypatch.setattr(markets, "aggregate_demand_cb",
                        lambda scn, pi: calls.append(pi) or demand(scn, pi))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--mechanism", "cb",
                 "--samples", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    pi_star = load_scenario(config).cost_recovering_price
    assert len(calls) == 2 and calls[0] == pi_star
    assert payload["details"]["cb_price"] == pi_star
    assert payload["max_clearing_violation"] == 0.0


def test_verify_cb_at_the_viability_boundary(tmp_path):
    # eps=0, pi0=0.5: cb invests the whole flat top and clears at the
    # buyers' common choke value; this exited 1 on a demand residual of -1
    config = _config_with(tmp_path, "boundary.json", epsilon=0.0,
                          pi0_usd_per_kw=0.5)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--mechanism", "cb",
                 "--samples", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["details"]["cb_price"] <= 0.5
    assert main(["verify", "--config", str(config), "--mechanism", "cb",
                 "--samples", "1", "--perturb-price", "0.01",
                 "--out", str(out)]) == 1


def test_verify_without_a_positive_capacity_fails(tmp_path, capsys):
    # at pi0 = 0.6 selling at the backstop price never recovers the cost
    config = _config_with(tmp_path, "dear.json", pi0_usd_per_kw=0.6)
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(config), "--mechanism", "srt",
                 "--samples", "10", "--out", str(out)]) == 1
    assert "no positive equilibrium capacity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mechanism", ["srt", "prt"])
@pytest.mark.parametrize("flag,value,message", [
    ("--perturb-price", "nan", "price_perturbation must be finite"),
    ("--perturb-price", "inf", "price_perturbation must be finite"),
    ("--tol", "nan", "tolerance must be finite and non-negative"),
    ("--tol", "-1", "tolerance must be finite and non-negative")])
def test_verify_rejects_a_bad_perturbation_or_tolerance(
        desk_config, tmp_path, capsys, mechanism, flag, value, message):
    # a NaN or infinite perturbation passed, and a NaN or negative
    # tolerance failed an equilibrium that holds: both are input errors
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(desk_config), "--mechanism",
                 mechanism, "--samples", "50", flag, value,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------- report

def test_report_exits_1_when_a_hard_check_fails(desk_config, tmp_path,
                                                monkeypatch, capsys):
    def failing(*args, **kwargs):
        return replace(ordering_report(*args, **kwargs), passed=False)

    monkeypatch.setattr(cli, "ordering_report", failing)
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(desk_config),
                 "--out-dir", str(out_dir)]) == 1
    assert "hard ordering checks FAILED" in capsys.readouterr().err
    assert (out_dir / "ordering_report.csv").exists()


def test_report_writes_table_and_ordering(desk_config, tmp_path):
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(desk_config),
                 "--out-dir", str(out_dir)]) == 0
    table = _read_csv(out_dir / "capacity_table.csv")
    assert [r["epsilon"] for r in table] == ["1.0", "0.0"]
    top = table[0]
    assert float(top["c_srt_gw"]) < float(top["c_prt_gw"]) \
        < float(top["c_cb_gw"])
    assert float(top["c_prt_gw"]) == float(top["c_opt_gw"])
    bottom = [float(table[1][k]) for k in
              ("c_srt_gw", "c_prt_gw", "c_cb_gw", "c_opt_gw")]
    assert max(bottom) - min(bottom) <= 1e-6 * max(bottom)
    ordering = _read_csv(out_dir / "ordering_report.csv")
    assert len(ordering) == 5
    assert all(r["srt_le_prt"] == "True" for r in ordering)
    assert all(r["prt_eq_opt"] == "True" for r in ordering)


def test_report_deterministic_bytes(desk_config, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in outs:
        main(["report", "--config", str(desk_config), "--out-dir", str(out_dir)])
    for name in ("capacity_table.csv", "ordering_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_report_grid_always_gains_scales_0_and_1(desk_config, desk, tmp_path):
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(desk_config),
                 "--epsilon-grid", "0.25,0.5", "--out-dir", str(out_dir)]) == 0
    ordering = _read_csv(out_dir / "ordering_report.csv")
    assert [r["epsilon"] for r in ordering] == ["0.25", "0.5", "0.0", "1.0"]
    for row in _read_csv(out_dir / "capacity_table.csv"):
        scn = desk.with_epsilon(float(row["epsilon"]))
        for m in ("srt", "prt", "cb", "opt"):
            assert row[f"c_{m}_gw"] == repr(solve_ne(scn, m).capacity)
    # a trailing comma leaves an empty field, which is skipped as in sweep
    comma_dir = tmp_path / "comma"
    assert main(["report", "--config", str(desk_config),
                 "--epsilon-grid", "0.25,0.5,", "--out-dir", str(comma_dir)]) == 0
    for name in ("ordering_report.csv", "capacity_table.csv"):
        assert (comma_dir / name).read_bytes() == (out_dir / name).read_bytes()


# ------------------------------------------------------------ search counts

def test_each_command_runs_each_level_set_search_once(desk, desk_config,
                                                      tmp_path, monkeypatch):
    # the one capacity search of markets, as equilibrium calls it for the
    # real-time designs (a cb demand calls it from markets itself)
    calls = []
    search = equilibrium._capacity_search
    monkeypatch.setattr(equilibrium, "_capacity_search",
                        lambda *a, **k: calls.append(1) or search(*a, **k))

    def searches(run):
        calls.clear()
        run()
        return len(calls)

    # srt once for every row, for the expansion and for prt at scale 0,
    # prt per positive scale (opt shares it) and two gap_k scales; solve
    # runs srt and prt only; an epsilon sweep runs srt once, which its
    # scale-0 point reads for prt, and prt per positive value
    assert searches(lambda: ordering_report(desk, DEFAULT_EPSILON_GRID)) == 7
    assert searches(lambda: main(["solve", "--config", str(desk_config),
                                  "--out", str(tmp_path / "s.json")])) == 2
    assert searches(lambda: main(["sweep", "--config", str(desk_config),
                                  "--param", "epsilon",
                                  "--values", "0,0.25,0.5,0.75,1",
                                  "--out", str(tmp_path / "s.csv")])) == 5
    assert searches(lambda: solve_all(desk, ("prt", "opt"))) == 1
    calls.clear()
    with pytest.raises(ValueError, match="unknown mechanism 'xyz'"):
        solve_all(desk, ("prt", "xyz"))
    assert calls == []


# ---------------------------------------------------------------------- import

def test_importing_the_cli_leaves_scipy_unloaded():
    src = str(Path(solarmkt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, solarmkt.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
