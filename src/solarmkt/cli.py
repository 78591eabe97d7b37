"""Command-line front end: solve, sweep, verify, report.

All science inputs come from the JSON scenario config; the only
environment control is SOLARMKT_LOG_LEVEL for log verbosity.  Outputs
are deterministic given (config, seed): sweeps solve their points in
increasing value order, with the contract market's breakpoints at all
of them searched together, each distinct (knot premium, price) pair
once.  An epsilon sweep, and ``report``, search ``srt`` once; at scale
0 ``prt`` and ``opt`` are that search relabelled.

``main(argv)`` may be called any number of times in one process.  Every
call reuses the one parser built when this module is imported, reads
SOLARMKT_LOG_LEVEL afresh, and logs to the ``sys.stderr`` current during
that call, unless the host program gave the root logger handlers of its
own.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .asymptotics import (expansion_coefficients, flatness_fit,
                          ordering_report)
from .equilibrium import (SOLVE_MECHANISMS, _solve_sweep, check_viability,
                          solve_all, solve_ne)
from .markets import verify_ce
from .numerics import ConvergenceError, NoEquilibriumError
from .pipeline import ScenarioConfigError, load_scenario

logger = logging.getLogger(__name__)

DEFAULT_EPSILON_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to whatever ``sys.stderr`` is when a
    record is emitted, so a redirected stderr gets its own call's records."""

    def __init__(self):
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_LOG_HANDLER = _StderrHandler()


def _configure_logging():
    """Log to the current stderr at SOLARMKT_LOG_LEVEL, unless the host
    program gave the root logger handlers of its own, which stand (as
    ``logging.basicConfig`` leaves them)."""
    root = logging.getLogger()
    if not root.handlers:
        root.addHandler(_LOG_HANDLER)
    if root.handlers == [_LOG_HANDLER]:
        # an int only for a level name; any other name reads as WARNING
        level = logging.getLevelName(
            os.environ.get("SOLARMKT_LOG_LEVEL", "WARNING").upper())
        root.setLevel(level if isinstance(level, int) else logging.WARNING)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_fields(text: str) -> list[str]:
    """The fields of a comma-separated list, stripped; empty ones are skipped."""
    fields = [f.strip() for f in text.split(",") if f.strip() != ""]
    if not fields:
        raise ValueError(f"no values in {text!r}")
    return fields


def _parse_values(text: str) -> list[float]:
    """Floats from a comma-separated list; empty fields are skipped."""
    return [float(v) for v in _parse_fields(text)]


def cmd_solve(args) -> int:
    scenario = load_scenario(args.config)
    results = solve_all(scenario)
    viable, margin = check_viability(scenario)
    payload = {
        "config": str(args.config),
        "capacities_gw": {m: r.capacity for m, r in results.items()},
        "residuals": {m: r.residual for m, r in results.items()},
        "iterations": {m: r.iterations for m, r in results.items()},
        "viable": {m: r.viable for m, r in results.items()},
        "viability": {"viable": viable, "margin_usd_per_kw": margin},
        "flatness": None,
        "expansion": None,
    }
    try:
        coeffs = expansion_coefficients(scenario)
        payload["expansion"] = {
            "c0": coeffs.c0, "prt_slope": coeffs.prt_slope,
            "cb_slope": coeffs.cb_slope, "lambda": coeffs.lam,
            "beta": coeffs.beta,
        }
        flat = flatness_fit(scenario)
        payload["flatness"] = {"r0": list(flat.r0), "delta": flat.delta,
                               "per_period_delta": list(flat.per_period_delta)}
    except ValueError as exc:
        payload["expansion_error"] = str(exc)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")
    line = "  ".join(f"{m}={_fmt(r.capacity)}" for m, r in results.items())
    print(f"capacities (GW): {line}")
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    values = sorted(_parse_values(args.values))
    if any(v < 0.0 for v in values):
        raise ValueError("sweep values must be non-negative")
    if args.param == "pi0" and any(v <= 0.0 for v in values):
        raise ValueError("pi0 sweep values must be positive")
    mechanisms = tuple(_parse_fields(args.mechanisms))

    rows = [(value, m, result)
            for value, results in zip(values, _solve_sweep(
                scenario, args.param, values, mechanisms))
            for m, result in results.items()]

    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "mechanism", "capacity_gw", "residual"])
        for value, mechanism, result in rows:
            writer.writerow([repr(value), mechanism,
                             repr(result.capacity), repr(result.residual)])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    scenario = load_scenario(args.config)
    solved = solve_ne(scenario, args.mechanism)
    if not solved.viable or solved.capacity <= 0.0:
        raise NoEquilibriumError(
            f"{args.mechanism} has no positive equilibrium capacity here")
    report = verify_ce(scenario, args.mechanism, solved.capacity, args.samples,
                       deviation_grid_size=args.grid, seed=args.seed,
                       price_perturbation=args.perturb_price,
                       tolerance=args.tol)
    payload = {
        "mechanism": report.mechanism,
        "capacity_gw": report.capacity,
        "samples": report.sample_count,
        "deviation_grid_size": report.deviation_grid_size,
        "seed": report.seed,
        "max_deviation_gain": report.max_deviation_gain,
        "max_clearing_violation": report.max_clearing_violation,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "details": dict(report.details),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")
    status = "pass" if report.passed else "FAIL"
    print(f"{args.mechanism}: max deviation gain {report.max_deviation_gain:.3g}, "
          f"max clearing violation {report.max_clearing_violation:.3g} -> {status}")
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    scenario = load_scenario(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _parse_values(args.epsilon_grid)
    # the capacity table reads scales 1 and 0, so the grid always has them
    report = ordering_report(
        scenario, grid + [e for e in (0.0, 1.0) if e not in grid])

    table_path = out_dir / "capacity_table.csv"
    by_eps = {row.epsilon: row for row in report.rows}
    with table_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epsilon", "c_srt_gw", "c_prt_gw", "c_cb_gw", "c_opt_gw"])
        for eps in (1.0, 0.0):
            row = by_eps[eps]
            writer.writerow([repr(eps), repr(row.c_srt), repr(row.c_prt),
                             repr(row.c_cb), repr(row.c_opt)])

    ordering_path = out_dir / "ordering_report.csv"
    with ordering_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epsilon", "c_srt_gw", "c_prt_gw", "c_cb_gw",
                         "c_opt_gw", "srt_le_prt", "prt_eq_opt", "prt_le_cb",
                         "prt_le_cb_informational", "eps0_all_equal",
                         "gap_abs_err", "gap_check"])
        for row in report.rows:
            writer.writerow([
                repr(row.epsilon), repr(row.c_srt), repr(row.c_prt),
                repr(row.c_cb), repr(row.c_opt), row.srt_le_prt,
                row.prt_eq_opt, row.prt_le_cb, row.prt_le_cb_informational,
                "" if row.eps0_all_equal is None else row.eps0_all_equal,
                "" if row.gap_abs_err is None else repr(row.gap_abs_err),
                "" if row.gap_check is None else row.gap_check,
            ])
    print(f"wrote {table_path} and {ordering_path}")
    if not report.passed:
        print("hard ordering checks FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarmkt",
        description="Solar market equilibria and investment capacities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve all equilibrium capacities")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and solve")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=("epsilon", "pi0"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--mechanisms", default=",".join(SOLVE_MECHANISMS))
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="Monte-Carlo equilibrium check")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--mechanism", required=True,
                          choices=("srt", "prt", "cb"))
    p_verify.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid", type=int, default=201)
    p_verify.add_argument("--tol", type=float, default=1e-6,
                          help="relative tolerance: gains per backstop bill, "
                               "clearing violations per load or capacity")
    p_verify.add_argument("--perturb-price", type=float, default=0.0,
                          help="debug: corrupt the clearing price by this "
                               "relative amount to confirm detection")
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="capacity table and ordering report")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out-dir", required=True)
    p_report.add_argument("--epsilon-grid",
                          default=",".join(str(v) for v in DEFAULT_EPSILON_GRID))
    p_report.set_defaults(func=cmd_report)
    return parser


# built once, at import, so that repeated main() calls only parse
_PARSER = build_parser()


def main(argv=None) -> int:
    _configure_logging()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioConfigError, NoEquilibriumError, ConvergenceError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
