"""Tests of the benchmark itself: python -m pytest benchmarks -q"""

import sys
import time
import types

import pytest

import calibrate
import run
from tracer import Tracer

sm = run.import_program()


def _busy(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_tracer_self_time_on_nested_toy_call():
    toy = types.ModuleType("toy")
    exec("def inner():\n    _busy(0.02)\n"
         "def outer():\n    _busy(0.03)\n    inner()\n    inner()\n",
         toy.__dict__)
    toy._busy = _busy
    importer = types.ModuleType("importer")  # as after `from toy import inner`
    importer.inner = toy.inner
    original_inner = toy.inner
    with Tracer([toy], [toy, importer]) as tracer:
        assert importer.inner is not original_inner
        toy.outer()
        importer.inner()
        stats, edges = tracer.snapshot()
    assert toy.inner is original_inner and importer.inner is original_inner
    outer, inner = stats["toy.outer"], stats["toy.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 3)
    assert edges[("toy.outer", "toy.inner")][0] == 2
    assert edges[(None, "toy.inner")][0] == 1
    child = edges[("toy.outer", "toy.inner")][1]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - child, abs=1e-12)
    assert outer["self_s"] == pytest.approx(0.03, rel=0.3)
    assert inner["self_s"] == pytest.approx(inner["total_s"], abs=1e-12)


def test_wrappers_are_removed_afterwards():
    tracer, _ = run.tracer_for(sm)
    namespaces = tracer.namespaces
    before = {ns.__name__: dict(vars(ns)) for ns in namespaces}
    classes = {cls: dict(vars(cls)) for _, cls, _, _ in tracer.targets()
               if isinstance(cls, type)}
    with tracer:
        # names bound by `from .x import y` are replaced too
        assert sm.cli.solve_ne is not before["solarmkt"]["solve_ne"]
        assert sm.asymptotics.solve_ne is sm.cli.solve_ne
        assert sm.markets.sup_level_set is not \
            before["solarmkt.numerics"]["sup_level_set"]
        assert sm.GenerationDistribution.truncated_mean is not \
            classes[sm.GenerationDistribution]["truncated_mean"]
    for ns in namespaces:
        saved = before[ns.__name__]
        assert all(vars(ns)[name] is value for name, value in saved.items())
    for cls, saved in classes.items():
        assert all(vars(cls)[name] is value for name, value in saved.items())


def _perturbed_checks(op, perturb):
    """Problems found in op's own output, then with every capacity moved."""
    result = op.execute()
    _, parsed = op.collect(result)
    clean = op.check(parsed)
    moved = []
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        moved.append(op.check(perturb(parsed, factor)))
    return clean, moved


def _scale_solve_payload(parsed, factor):
    rc, payload = parsed
    caps = {m: c * factor for m, c in payload["capacities_gw"].items()}
    return rc, dict(payload, capacities_gw=caps)


@pytest.mark.parametrize("name", ["desk", "california"])
def test_reference_checks_catch_a_1e6_relative_error(name, tmp_path):
    workload = run.MAKE_WORKLOAD[name](sm, tmp_path, 3)
    solve = next(op for op in workload.ops if op.kind == "solve")
    clean, moved = _perturbed_checks(solve, _scale_solve_payload)
    assert clean == []
    assert all(problems for problems in moved)


def test_units_scale_check_catches_a_1e6_relative_error(tmp_path):
    workload = run.units_workload(sm, tmp_path, 3)
    base_op, scaled_op = workload.ops[0], workload.ops[1]
    assert base_op.key.endswith("k=1.0") and not scaled_op.key.endswith("k=1.0")
    assert base_op.check(base_op.collect(base_op.execute())[1]) == []

    def scale(results, factor):
        return {m: r.__class__(**{**r.__dict__, "capacity": r.capacity * factor})
                for m, r in results.items()}

    clean, moved = _perturbed_checks(scaled_op, scale)
    assert clean == []
    assert all(problems for problems in moved)


def test_perturbed_price_verify_is_caught(tmp_path):
    workload = run.desk_workload(sm, tmp_path, 3)
    runner = run.Runner()
    runner.run(workload.negative)
    assert runner.failed == [] and runner.attempted == 1
    # the same command without the corruption passes, so the op would fail
    honest = run.CliOps(sm, tmp_path / "desk.json", tmp_path, 3).verify_set(
        mechanisms=("prt",), samples=200, kind="negative")
    _, parsed = honest.collect(honest.execute())
    assert workload.negative.check(parsed) != []


def test_changed_bytes_count_as_a_failure():
    outputs = iter([b"a", b"a", b"b"])
    op = run.Op("solve", "toy", lambda: None, lambda _: (next(outputs), None),
                lambda _: [])
    runner = run.Runner()
    for _ in range(3):
        runner.run(op)
    assert runner.attempted == 3 and len(runner.failed) == 1


def test_times_are_rescaled_by_the_host_probe():
    ref = calibrate.REFERENCE_S
    samples = [run.Sample("solve", "solve", 1.0, 0, 2 * ref),   # slow host: 0.5
               run.Sample("solve", "solve", 3.0, 0, ref),
               run.Sample("sweep", "sweep_epsilon", 2.0, 20, ref),
               run.Sample("verify", "verify", 4.0, 0, 4 * ref),
               run.Sample("report", "report", 1.5, 0, ref / 2)]
    metrics = run.end_to_end(samples, ["solve", "sweep_epsilon", "solve",
                                       "verify", "report"])
    assert metrics["solve_s"][0] == pytest.approx(1.75)
    assert metrics["solves_per_s"][0] == pytest.approx(10.0)
    assert metrics["verify_s"][0] == pytest.approx(1.0)
    assert metrics["report_s"][0] == pytest.approx(3.0)
    assert metrics["wall_s"][0] == pytest.approx(1.75 + 2.0 + 1.75 + 1.0 + 3.0)


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "desk", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
