#!/usr/bin/env python3
"""Benchmark of solarmkt: the CLI and library end to end, and per layer.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The program is imported from ``src/`` of
the checkout the script sits in; nothing needs installing.  Each run
builds its inputs from ``--seed`` under ``.bench_work/``, computes the
references, then repeats the workload's pass of operations (one caller,
closed loop, in this process) for ``--seconds`` seconds.  Every
operation is checked against its reference and against the bytes the
same operation wrote earlier in the run.  Every end-to-end time is
rescaled by a host-speed probe taken around it (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes under the outside-in tracer and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The script exits
2 when the program cannot be imported from the checkout and 3 when a
reference cannot be computed, without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("desk", "california", "units")
MECHANISMS = ("srt", "prt", "cb", "opt")

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

#: Monte-Carlo draws per verify command, as in the acceptance suite.
VERIFY_SAMPLES = 1000
#: Fresh interpreters timed for setup_s (after one untimed warm-up).
SETUP_PROCESSES = 3
#: Children timed with -X importtime for the import metrics.
IMPORT_PROCESSES = 3
#: Relative tolerances of the reference checks.
DESK_RTOL = 1e-9
#: Tighter than the 1e-6 room left for a new contract-market quadrature,
#: so that a capacity moved by 1e-6 is caught in either direction.
CALIFORNIA_RTOL = 5e-7
UNITS_RTOL = 1e-10


class BenchmarkError(Exception):
    """The benchmark itself cannot run: no result is printed."""

    exit_code = 2


class ReferenceFailed(BenchmarkError):
    """A reference could not be computed, so no result could be checked."""

    exit_code = 3


def import_program():
    if not (SRC / "solarmkt" / "__init__.py").is_file():
        raise BenchmarkError(f"no solarmkt package under {SRC}")
    sys.path.insert(0, str(SRC))
    # keep the expected point-mass warnings of the flatness fit off stderr
    os.environ.setdefault("SOLARMKT_LOG_LEVEL", "ERROR")
    import solarmkt
    import solarmkt.cli
    if Path(solarmkt.__file__).resolve().parent != SRC / "solarmkt":
        raise BenchmarkError(f"solarmkt imported from {solarmkt.__file__}, "
                             f"not from {SRC}")
    return solarmkt


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation of a pass.

    ``execute`` is the timed work.  ``collect`` turns its result into the
    output bytes and parsed data, and ``check`` returns the problems it
    finds in them; both run outside the timed region.  ``solves`` is the
    number of solve_ne results the op produces (CSV rows for a sweep).
    """

    kind: str
    key: str
    execute: Callable[[], object]
    collect: Callable[[object], tuple[bytes, object]]
    check: Callable[[object], list[str]]
    solves: int = 0


def run_cli(sm, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return sm.cli.main(argv)


def read_csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def compare_caps(where: str, caps: dict, ref: dict, rtol: float) -> list[str]:
    problems = []
    for mech, value in caps.items():
        err = reference.rel_err(value, ref[mech])
        if not err <= rtol:
            problems.append(f"{where}: {mech}={value!r} vs reference "
                            f"{ref[mech]!r} (rel err {err:.3g} > {rtol:g})")
    return problems


class CliOps:
    """The four CLI commands on one config, with their output files."""

    def __init__(self, sm, config: Path, out_dir: Path, verify_seed: int):
        self.sm, self.config, self.out, self.verify_seed = sm, config, out_dir, verify_seed

    def solve(self, check_caps) -> Op:
        out = self.out / "solve.json"
        argv = ["solve", "--config", str(self.config), "--out", str(out)]

        def collect(rc):
            data = out.read_bytes() if rc == 0 else b""
            return data + f"rc={rc}".encode(), (rc, json.loads(data) if data else None)

        def check(parsed):
            rc, payload = parsed
            if rc != 0:
                return [f"solve exited {rc}"]
            return check_caps("solve", payload)

        return Op("solve", "solve", lambda: run_cli(self.sm, argv), collect, check)

    def sweep(self, param: str, values, check_rows) -> Op:
        out = self.out / f"sweep_{param}.csv"
        argv = ["sweep", "--config", str(self.config), "--param", param,
                "--values", ",".join(repr(float(v)) for v in values),
                "--out", str(out)]

        def collect(rc):
            data = out.read_bytes() if rc == 0 else b""
            return data + f"rc={rc}".encode(), (rc, read_csv_rows(out) if data else [])

        def check(parsed):
            rc, rows = parsed
            if rc != 0:
                return [f"sweep {param} exited {rc}"]
            if len(rows) != 4 * len(values):
                return [f"sweep {param} wrote {len(rows)} rows"]
            caps = {(float(r["value"]), r["mechanism"]): float(r["capacity_gw"])
                    for r in rows}
            return check_rows(param, caps)

        return Op("sweep", f"sweep_{param}", lambda: run_cli(self.sm, argv),
                  collect, check, solves=4 * len(values))

    def verify_set(self, perturb: float = 0.0, mechanisms=("srt", "prt", "cb"),
                   samples: int = VERIFY_SAMPLES, kind: str = "verify") -> Op:
        runs = []
        for mech in mechanisms:
            out = self.out / f"{kind}_{mech}.json"
            argv = ["verify", "--config", str(self.config), "--mechanism", mech,
                    "--samples", str(samples), "--seed", str(self.verify_seed),
                    "--out", str(out)]
            if perturb:
                argv += ["--perturb-price", repr(perturb)]
            runs.append((mech, out, argv))
        expected_rc = 1 if perturb else 0

        def execute():
            return [run_cli(self.sm, argv) for _, _, argv in runs]

        def collect(rcs):
            blob, parsed = b"", []
            for (mech, out, _), rc in zip(runs, rcs):
                data = out.read_bytes() if out.exists() else b""
                blob += data + f"rc={rc}".encode()
                parsed.append((mech, rc, json.loads(data) if data else None))
            return blob, parsed

        def check(parsed):
            problems = []
            for mech, rc, payload in parsed:
                if rc != expected_rc or payload is None \
                        or payload["passed"] is not (expected_rc == 0):
                    problems.append(f"{kind} {mech}: exit {rc}, passed="
                                    f"{None if payload is None else payload['passed']}")
            return problems

        return Op(kind, kind, execute, collect, check)

    def report(self, check_report) -> Op:
        out_dir = self.out / "report"
        argv = ["report", "--config", str(self.config), "--out-dir", str(out_dir)]
        files = ("capacity_table.csv", "ordering_report.csv")

        def collect(rc):
            blob = b"".join((out_dir / f).read_bytes() for f in files
                            if (out_dir / f).exists())
            if rc != 0:
                return blob + f"rc={rc}".encode(), (rc, None, None)
            return blob + f"rc={rc}".encode(), (
                rc, read_csv_rows(out_dir / files[0]), read_csv_rows(out_dir / files[1]))

        def check(parsed):
            rc, table, ordering = parsed
            if rc != 0:
                return [f"report exited {rc}"]
            return check_report(table, ordering)

        return Op("report", "report", lambda: run_cli(self.sm, argv), collect, check)


def negative_control(cli: CliOps) -> Op:
    """A verify with the price corrupted by 1%: it must exit 1."""
    return cli.verify_set(perturb=0.01, mechanisms=("prt",), samples=200,
                          kind="negative")


def between(op: Op, others: list[Op]) -> list[Op]:
    """A pass that runs ``op`` before each of ``others``.

    A run then holds as many samples of the short ``solve`` as of the
    sweeps, verify and report together, so that its median is as steady.
    """
    return [x for other in others for x in (op, other)]


def table_caps(row: dict) -> dict:
    return {m: float(row[f"c_{m}_gw"]) for m in MECHANISMS}


def check_sweep_against(ref_of: Callable[[str, float], dict], rtol: float):
    def check(param, caps):
        problems = []
        for (value, mech), cap in caps.items():
            problems += compare_caps(f"sweep {param}={value!r}", {mech: cap},
                                     ref_of(param, value), rtol)
        return problems
    return check


def check_report_against(ref_of_eps: Callable[[float], dict], rtol: float):
    def check(table, ordering):
        problems = []
        for row in list(table) + list(ordering):
            eps = float(row["epsilon"])
            problems += compare_caps(f"report eps={eps!r}", table_caps(row),
                                     ref_of_eps(eps), rtol)
        return problems
    return check


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    ops: list[Op]                 # one pass, in order
    setup_configs: list[Path]     # what setup_s loads in a fresh interpreter
    negative: Op                  # a corrupted verify that must be caught
    probes: list[tuple[str, Callable[[], tuple[bool, str]]]] = field(default_factory=list)
    untimed: list[Op] = field(default_factory=list)  # checked once, after the timed loop


def desk_workload(sm, work: Path, seed: int) -> Workload:
    config = inputs.write_config(work / "desk.json", inputs.desk_config())
    cli = CliOps(sm, config, work, seed)
    pi0 = inputs.DESK_PI0

    def check_solve(where, payload):
        problems = compare_caps(where, payload["capacities_gw"],
                                reference.desk_capacities(1.0, pi0), DESK_RTOL)
        expansion = payload["expansion"] or {}
        for key, expected in (("prt_slope", 0.2), ("cb_slope", 0.3),
                              ("lambda", 2.0 / 3.0), ("beta", 0.04)):
            if not abs(expansion.get(key, float("nan")) - expected) <= 1e-6:
                problems.append(f"{where}: {key}={expansion.get(key)!r}, expected {expected}")
        return problems

    def ref_of(param, value):
        if param == "epsilon":
            return reference.desk_capacities(value, pi0)
        return reference.desk_capacities(1.0, value)

    ops = between(cli.solve(check_solve), [
        cli.sweep("epsilon", inputs.DESK_EPSILON_SWEEP,
                  check_sweep_against(ref_of, DESK_RTOL)),
        cli.verify_set(),
        cli.report(check_report_against(
            lambda eps: reference.desk_capacities(eps, pi0), DESK_RTOL)),
    ])
    # checked on every run but not timed, as on california
    untimed = [cli.sweep("pi0", inputs.DESK_PI0_SWEEP, check_sweep_against(ref_of, DESK_RTOL))]
    boundary = inputs.write_config(work / "desk_boundary.json",
                                   inputs.desk_config(epsilon=0.0, pi0=0.5))

    def boundary_probe():
        out = work / "boundary.json"
        rc = run_cli(sm, ["solve", "--config", str(boundary), "--out", str(out)])
        if rc != 0:
            return False, f"exit {rc}"
        caps = json.loads(out.read_text())["capacities_gw"]
        problems = compare_caps("boundary", caps,
                                reference.desk_capacities(0.0, 0.5), DESK_RTOL)
        return not problems, "; ".join(problems) or "exit 0, capacities match"

    return Workload("desk", ops, [config], negative_control(cli),
                    [("desk.solve eps=0 pi0=0.5 (all capacities 1)", boundary_probe)],
                    untimed)


def california_workload(sm, work: Path, seed: int) -> Workload:
    config = inputs.write_california_fixtures(work, seed)
    try:
        ref = reference.CaliforniaReference(config)
        points = {(e, inputs.CALIFORNIA_PI0) for e in inputs.CALIFORNIA_EPSILON_SWEEP}
        points |= {(1.0, p) for p in inputs.CALIFORNIA_PI0_SWEEP}
        refs = {pt: ref.capacities(*pt) for pt in points}
    except (OSError, ValueError, RuntimeError) as exc:
        raise ReferenceFailed(f"California reference failed: {exc}") from exc
    cli = CliOps(sm, config, work, seed)
    pi0 = inputs.CALIFORNIA_PI0
    rtol = CALIFORNIA_RTOL

    def ordering(where, caps, eps):
        problems = []
        if caps["prt"] != caps["opt"]:
            problems.append(f"{where}: prt != opt")
        if eps == 1.0 and not caps["srt"] < caps["prt"] < caps["cb"]:
            problems.append(f"{where}: expected srt < prt < cb")
        if eps == 0.0 and max(caps.values()) - min(caps.values()) > 1e-6 * max(caps.values()):
            problems.append(f"{where}: capacities differ at eps=0")
        return problems

    def check_solve(where, payload):
        caps = payload["capacities_gw"]
        return compare_caps(where, caps, refs[(1.0, pi0)], rtol) + ordering(where, caps, 1.0)

    reference_rows = check_sweep_against(
        lambda param, value: refs[(value, pi0) if param == "epsilon" else (1.0, value)],
        rtol)

    def check_rows(param, caps):
        problems = reference_rows(param, caps)
        if param == "pi0":
            for mech in ("srt", "prt", "cb", "opt"):
                series = [caps[(v, mech)] for v in inputs.CALIFORNIA_PI0_SWEEP]
                if any(a < b for a, b in zip(series, series[1:])):
                    problems.append(f"sweep pi0: {mech} not declining in pi0")
            if not (caps[(3000.0, "srt")] > 0.0 and caps[(3300.0, "srt")] == 0.0
                    and caps[(3300.0, "prt")] > 0.0 and caps[(3300.0, "cb")] > 0.0):
                problems.append("sweep pi0: srt should die first, between 3000 and 3300")
        return problems

    def check_report(table, ordering_rows):
        problems = check_report_against(lambda eps: refs[(eps, pi0)], rtol)(
            table, ordering_rows)
        for row in table:
            eps = float(row["epsilon"])
            problems += ordering(f"report eps={eps!r}", table_caps(row), eps)
        return problems

    ops = between(cli.solve(check_solve), [
        cli.sweep("epsilon", inputs.CALIFORNIA_EPSILON_SWEEP, check_rows),
        cli.verify_set(),
        cli.report(check_report),
    ])
    # Checked on every run but not timed: with both sweeps a pass is too
    # long for a run to hold enough samples of verify and report.
    untimed = [cli.sweep("pi0", inputs.CALIFORNIA_PI0_SWEEP, check_rows)]
    return Workload("california", ops, [config], negative_control(cli), untimed=untimed)


def build_scenario(sm, config: dict):
    """A fresh Scenario (cold caches) from a config dict, via the library API."""
    def generation(spec):
        if spec["kind"] == "uniform":
            return sm.GenerationDistribution.uniform(spec["lo"], spec["hi"])
        return sm.GenerationDistribution.from_density_grid(spec["grid"], spec["density"])

    prem = config["premium"]
    eps = config["epsilon"]
    if prem["kind"] == "uniform":
        premium = sm.PremiumDistribution.uniform(prem["v_bar"], epsilon=eps)
    elif prem["kind"] == "truncated_exponential":
        premium = sm.PremiumDistribution.truncated_exponential(
            prem["rate"], prem["v_bar"], epsilon=eps)
    else:
        premium = sm.PremiumDistribution.empirical(prem["samples"], epsilon=eps)
    periods = tuple(sm.PeriodProfile(load=p["load_gwh"],
                                     utility_price=p["utility_price_usd_per_kwh"],
                                     generation=generation(p["generation"]),
                                     weight=p["weight"])
                    for p in config["periods"])
    return sm.Scenario(periods=periods, premium=premium,
                       pi0=config["pi0_usd_per_kw"], t_tilde=config["t_tilde"])



def units_workload(sm, work: Path, seed: int) -> Workload:
    configs = inputs.units_configs(seed)
    paths = [inputs.write_config(work / f"units_{i}.json", c)
             for i, c in enumerate(configs)]
    base: dict[int, dict] = {}   # c(1) per scenario, from its k=1 op

    def solve_op(index: int, k: float) -> Op:
        scaled = inputs.scaled_config(configs[index], k)

        def execute():
            scn = build_scenario(sm, scaled)
            return [sm.solve_ne(scn, m) for m in MECHANISMS]

        def collect(results):
            return repr(results).encode(), {r.mechanism: r for r in results}

        def check(results):
            caps = {m: r.capacity for m, r in results.items()}
            if k == 1.0:
                problems = []
                if not all(r.viable and r.capacity > 0.0 for r in results.values()):
                    problems.append(f"units[{index}]: a mechanism is not viable")
                if not caps["srt"] <= caps["prt"] * (1.0 + 1e-9) or caps["prt"] != caps["opt"]:
                    problems.append(f"units[{index}]: expected srt <= prt == opt")
                base.setdefault(index, caps)
                return problems
            if index not in base:
                return [f"units[{index}]: no k=1 result to compare with"]
            return compare_caps(f"units[{index}] k={k:g} (c(k)/k vs c(1))",
                                {m: c / k for m, c in caps.items()}, base[index],
                                UNITS_RTOL)

        return Op("solves", f"units[{index}] k={k!r}", execute, collect, check,
                  solves=len(MECHANISMS))

    cli_config = inputs.units_cli_config()
    cli_path = inputs.write_config(work / "units_cli.json", cli_config)
    cli = CliOps(sm, cli_path, work, seed)

    # The CLI scenario's capacities, and the report's eps=1 row (the same
    # scenario at premium scale 1), solved here once through the library.
    def library_caps(config):
        scenario = build_scenario(sm, config)
        return {m: sm.solve_ne(scenario, m).capacity for m in MECHANISMS}

    cli_caps = library_caps(cli_config)
    eps1_caps = library_caps(dict(cli_config, epsilon=1.0))

    def check_cli_solve(where, payload):
        return compare_caps(where, payload["capacities_gw"], cli_caps, 1e-12)

    def check_report(table, ordering_rows):
        problems = []
        for row in table:
            if float(row["epsilon"]) == 1.0:
                problems += compare_caps("report eps=1.0", table_caps(row),
                                         eps1_caps, 1e-12)
        return problems

    # each scenario's scaled solves, then two of the CLI commands in turn,
    # so that a run holds several samples of each command
    commands = [cli.solve(check_cli_solve), cli.verify_set(), cli.report(check_report)]
    ops = [op for i in range(len(configs))
           for op in [*(solve_op(i, k) for k in inputs.UNITS_SCALES),
                      commands[2 * i % 3], commands[(2 * i + 1) % 3]]]

    def scale_probe(k: float):
        def probe():
            scn = build_scenario(sm, inputs.scaled_config(configs[probe_index], k))
            caps = {m: sm.solve_ne(scn, m).capacity / k for m in MECHANISMS}
            errs = {m: reference.rel_err(caps[m], base[probe_index][m]) for m in MECHANISMS}
            bad = {m: e for m, e in errs.items() if not e <= UNITS_RTOL}
            detail = ", ".join(f"{m} rel err {e:.2g}" for m, e in bad.items())
            return not bad, detail or "all within 1e-10"
        return probe

    probe_index = inputs.UNITS_PROBE_SCENARIO
    probes = [(f"units[{probe_index}] k={k:g} (c(k)/k vs c(1))", scale_probe(k))
              for k in inputs.UNITS_PROBE_SCALES]
    return Workload("units", ops, [*paths, cli_path], negative_control(cli), probes)


MAKE_WORKLOAD = {"desk": desk_workload, "california": california_workload,
            "units": units_workload}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One timed op, with the host-speed probe taken around it."""

    kind: str
    key: str
    seconds: float
    solves: int
    probe_s: float
    at: float = 0.0   # perf_counter when the op ended

    @property
    def scaled(self) -> float:
        """The op's seconds on a host where the probe takes REFERENCE_S."""
        return self.seconds * calibrate.REFERENCE_S / self.probe_s


class Runner:
    """Runs ops, times them, and checks each output."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.first_bytes: dict[str, bytes] = {}

    def run(self, op: Op) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.execute()
            elapsed = time.perf_counter() - start
            blob, parsed = op.collect(result)
            problems = op.check(parsed)
        except Exception as exc:  # an op that raises, or whose output is unreadable
            self.failed.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        first = self.first_bytes.setdefault(op.key, blob)
        if first != blob:
            problems.append("output bytes differ from this op's earlier output")
        if problems:
            self.failed.append(f"{op.key}: " + "; ".join(problems))
        return elapsed


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(samples: list[Sample], pass_keys: list[str]) -> dict:
    """name -> (value, unit, the samples it summarizes), from rescaled times.

    solves_per_s is the solves of one pass of the batch ops divided by the
    sum of their median times; wall_s, the time of one whole pass, is the
    sum over the pass's ops of each op's median.  Both use every sample of
    the run, including those of the last, unfinished pass.
    """
    by_kind: dict[str, list[float]] = {}
    by_key: dict[str, list[float]] = {}
    solves: dict[str, int] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.scaled)
        by_key.setdefault(s.key, []).append(s.scaled)
        if s.kind in ("sweep", "solves"):
            solves[s.key] = s.solves
    out = {name: (median(by_kind[kind]), "s", by_kind[kind])
           for name, kind in (("solve_s", "solve"), ("verify_s", "verify"),
                              ("report_s", "report"))}
    out["solves_per_s"] = (sum(solves.values()) / sum(median(by_key[k]) for k in solves),
                           "solves/s", [n / t for k, n in solves.items() for t in by_key[k]])
    out["wall_s"] = (sum(median(by_key[k]) for k in pass_keys), "s",
                     [s.scaled for s in samples])
    return out


def raw_medians(samples: list[Sample]) -> dict[str, float]:
    """Median unscaled seconds per op kind, and of the host probe."""
    by_kind: dict[str, list[float]] = {"probe": [s.probe_s for s in samples]}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.seconds)
    return {kind: median(v) for kind, v in by_kind.items()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CHILD = """
import sys, time
start = time.perf_counter()
import solarmkt.cli
from solarmkt.pipeline import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
print(repr(time.perf_counter() - start))
"""


def measure_setup(configs: list[Path]) -> list[float]:
    """Import plus load_scenario time in fresh interpreters, one at a time.

    Each time is rescaled by the host-speed probes taken just before and
    after its interpreter, as the ops' times are.
    """
    times = []
    before = calibrate.probe()
    for index in range(SETUP_PROCESSES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *map(str, configs)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()}")
        after = calibrate.probe()
        if index:  # the first one only warms the bytecode cache
            seconds = float(proc.stdout.strip().splitlines()[-1])
            times.append(seconds * calibrate.REFERENCE_S / (0.5 * (before + after)))
        before = after
    return times


def measure_imports() -> dict[str, list[float]]:
    """Cumulative import seconds of solarmkt.pipeline and solarmkt.cli."""
    out: dict[str, list[float]] = {"pipeline.import_s": [], "cli.import_s": []}
    modules = {"solarmkt.pipeline": "pipeline.import_s", "solarmkt.cli": "cli.import_s"}
    for _ in range(IMPORT_PROCESSES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import solarmkt.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"import child failed: {proc.stderr.strip()}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in modules:
                out[modules[parts[2]]].append(int(parts[1]) * 1e-6)
    return out


def environment(sweep_threads) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "sweep_threads": sweep_threads}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def measure_untraced(workload: Workload, runner: Runner, seconds: float):
    """Cycle through the pass until the time is up and one pass is whole."""
    runner.run(workload.ops[0])  # warm-up: fills lazy caches, not timed
    samples: list[Sample] = []
    before = calibrate.probe()
    deadline = time.perf_counter() + seconds
    while len(samples) < len(workload.ops) or time.perf_counter() < deadline:
        op = workload.ops[len(samples) % len(workload.ops)]
        elapsed = runner.run(op)
        after = calibrate.probe()
        samples.append(Sample(op.kind, op.key, elapsed, op.solves, 0.5 * (before + after),
                              time.perf_counter()))
        before = after
    return samples


def _solve_mechanism(args, kwargs):
    return kwargs.get("mechanism", args[1] if len(args) > 1 else "?")


def tracer_for(sm):
    import importlib
    import numpy as np
    from tracer import Hook, Tracer
    layers = ["numerics", "distributions", "markets", "equilibrium",
              "asymptotics", "pipeline", "cli"]
    modules = [importlib.import_module(f"solarmkt.{name}") for name in layers]
    hooks = {
        "numerics.bisect_decreasing": Hook(measure={"iters": lambda a, k, r: r[1]}),
        "numerics.sup_level_set": Hook(count_fn_arg=0),
        "numerics.grow_bracket": Hook(count_fn_arg=0),
        # methods: args[0] is the distribution itself
        "distributions.truncated_mean": Hook(measure={"elems": lambda a, k, r: np.size(a[1])}),
        "distributions.complementary_quantile": Hook(
            measure={"elems": lambda a, k, r: np.size(a[1])}),
        "distributions.quad_nodes": Hook(measure={"points": lambda a, k, r: r[0].size}),
        "pipeline.load_irradiation_csv": Hook(measure={"rows": lambda a, k, r: len(r)}),
        "pipeline.load_premium_survey": Hook(measure={"rows": lambda a, k, r: len(r)}),
        "equilibrium.solve_ne": Hook(suffix=_solve_mechanism),
    }
    return Tracer(modules, [sm, *modules], hooks), layers


#: Per-layer metrics: (span, stat) read from one traced pass.  Times are
#: listed only for spans that every workload reaches; the pipeline's file
#: and fit steps run on California alone, so they are counted, and their
#: time shows in pipeline.load_scenario and the pipeline layer total.
LAYER_METRICS = [
    ("numerics.bisect_decreasing", "calls"), ("numerics.bisect_decreasing", "iters"),
    ("numerics.sup_level_set", "calls"), ("numerics.sup_level_set", "fn_evals"),
    ("numerics.sup_level_set", "self_s"), ("numerics.grow_bracket", "fn_evals"),
    ("distributions.truncated_mean", "calls"), ("distributions.truncated_mean", "elems"),
    ("distributions.truncated_mean", "self_s"),
    ("distributions.partial_first_moment", "self_s"),
    ("distributions.quad_nodes", "calls"), ("distributions.quad_nodes", "points"),
    ("distributions.quad_nodes", "self_s"),
    ("distributions.complementary_quantile", "calls"),
    ("distributions.complementary_quantile", "elems"),
    ("distributions.complementary_quantile", "self_s"),
    ("distributions.survival", "calls"),
    ("markets.clear_cb", "calls"), ("markets.clear_cb", "total_s"),
    ("markets.aggregate_demand_cb", "calls"), ("markets.aggregate_demand_cb", "self_s"),
    ("markets.cb_unit_value", "calls"),
    ("markets.unit_revenue_rt", "calls"), ("markets.unit_revenue_rt", "self_s"),
    ("markets.clear_rt", "calls"), ("markets.clear_rt", "total_s"),
    ("markets.verify_ce", "calls"), ("markets.verify_ce", "self_s"),
    *[(f"equilibrium.solve_ne.{m}", stat) for m in MECHANISMS
      for stat in ("calls", "total_s")],
    *[(f"asymptotics.{fn}", stat)
      for fn in ("ordering_report", "expansion_coefficients", "flatness_fit")
      for stat in ("calls", "self_s", "total_s")],
    ("pipeline.load_scenario", "calls"), ("pipeline.load_scenario", "total_s"),
    ("pipeline.load_irradiation_csv", "calls"), ("pipeline.load_premium_survey", "calls"),
    ("pipeline.fit_generation_kde", "calls"),
    ("pipeline.fit_truncated_exponential", "calls"),
]
LAYER_UNITS = {"self_s": "s", "total_s": "s"}


def layer_values(stats: dict, layers: list[str]) -> dict[str, float]:
    values = {}
    for span, stat in LAYER_METRICS:
        values[f"{span}.{stat}"] = stats.get(span, {}).get(stat, 0)
    values["pipeline.csv_rows"] = sum(stats.get(f"pipeline.{fn}", {}).get("rows", 0)
                                      for fn in ("load_irradiation_csv",
                                                 "load_premium_survey"))
    for layer in layers:
        values[f"{layer}.self_s"] = sum(row["self_s"] for span, row in stats.items()
                                        if span.startswith(f"{layer}."))
    return values


def measure_traced(sm, workload: Workload, runner: Runner, seconds: float):
    """Alternate untraced and traced passes; per-layer stats per traced pass."""
    tracer, layers = tracer_for(sm)
    runner.run(workload.ops[0])  # warm-up, as in the untraced mode
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    traced_seconds: list[float] = []
    edges: dict = {}
    sweep_threads = 0
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(sum(runner.run(op) for op in workload.ops))
            continue
        tracer.reset()
        elapsed = 0.0
        with tracer:
            for op in workload.ops:
                before = tracer.threads_seen()
                elapsed += runner.run(op)
                if op.kind == "sweep":  # pool threads are new for each sweep
                    sweep_threads = max(sweep_threads, tracer.threads_seen() - before)
        stats, edges = tracer.snapshot()
        traced.append(layer_values(stats, layers))
        traced_seconds.append(elapsed)
    values = {}
    for name in traced[0]:
        series = [t[name] for t in traced]
        values[name] = median(series) if name.endswith("_s") else series[0]
    counts_repeat = all(t[name] == traced[0][name] for t in traced
                        for name in t if not name.endswith("_s"))
    values["trace.overhead_s"] = median(traced_seconds) - median(plain)
    return values, len(traced), counts_repeat, edges, sweep_threads


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def traced_metrics(sm, workload: Workload, runner: Runner, seconds: float,
                   work: Path):
    """Per-layer metrics, name -> (value, unit, samples), and the sweep width."""
    imports = measure_imports()
    values, n_traced, counts_repeat, edges, sweep_threads = measure_traced(
        sm, workload, runner, seconds)
    for key, series in imports.items():
        values[key] = median(series)
    metrics = {}
    for key, value in values.items():
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (value, unit, imports.get(key) or [value] * n_traced)
    (work / "trace_edges.json").write_text(json.dumps(
        [{"parent": p, "span": s, "calls": c, "total_s": t}
         for (p, s), (c, t) in sorted(edges.items(), key=lambda kv: -kv[1][1])],
        indent=1), encoding="utf-8")
    print(f"counts repeat across traced passes: {counts_repeat}")
    return metrics, sweep_threads


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sm = import_program()
    # Run on one CPU, children included.  With two, the sweep's thread pool
    # hands the interpreter lock across CPUs, and on a shared host its
    # throughput then varied 2x between runs where single-threaded
    # commands varied by 13%.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = MAKE_WORKLOAD[name](sm, work, seed)
    runner = Runner()
    if trace:
        metrics, sweep_threads = traced_metrics(sm, workload, runner, seconds, work)
    else:
        setup = measure_setup(workload.setup_configs)
        samples = measure_untraced(workload, runner, seconds)
        metrics = end_to_end(samples, [op.key for op in workload.ops])
        print("unscaled medians (s): " + json.dumps(raw_medians(samples)))
        (work / "samples.json").write_text(json.dumps(
            [dataclasses.asdict(s) for s in samples]), encoding="utf-8")
        metrics["setup_s"] = (median(setup), "s", setup)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB", [peak])
        # the CLI sizes its sweep thread pool as min(8, number of values)
        sweep_threads = {op.key: min(8, op.solves // len(MECHANISMS))
                         for op in [*workload.ops, *workload.untimed] if op.kind == "sweep"}
    # checks that run once, outside the timed loop
    for op in [*workload.untimed, workload.negative]:
        runner.run(op)
    for label, probe in workload.probes:
        try:
            ok, detail = probe()
        except Exception as exc:  # the known failures include exceptions
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"known-failure probe: {label}: {'passes' if ok else 'FAILS'} ({detail})")
    print("env: " + json.dumps({**environment(sweep_threads), "pinned_cpu": cpu}))
    for failure in runner.failed:
        print(f"FAILED {failure}")
    print(f"fail_frac = {len(runner.failed)}/{runner.attempted}")
    for key, (value, unit, series) in metrics.items():
        spread = "" if trace else f"  min {min(series):.4g} max {max(series):.4g}"
        print(f"{name:>10} {key:<45} {value:>14.6g} {unit:<9} n={len(series)}{spread}")
    if not trace:
        print("samples: " + json.dumps({k: v[2] for k, v in metrics.items()}))
    return {"correct": not runner.failed, "attempted": runner.attempted,
            "failed": len(runner.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds",
                                   repr(args.seconds), "--trace", str(args.trace)],
                                  cwd=ROOT, timeout=600)
            status = status or proc.returncode
        return status
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
