"""``main()`` called many times in one process, and once in a fresh one.

The parser is built once, when ``solarmkt.cli`` is imported; each call
only configures logging, parses and dispatches.  Logging follows the
``sys.stderr`` and the ``SOLARMKT_LOG_LEVEL`` of the call in progress.
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solarmkt
from solarmkt import cli
from solarmkt.cli import build_parser, main
from test_cli import DESK_CONFIG
from test_output_bytes import COMMANDS, DIGESTS


@pytest.fixture
def desk_dir(tmp_path, monkeypatch):
    """A scratch directory holding ``desk.json``, made the working one,
    so that every command runs as the byte pins ran it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk.json").write_text(json.dumps(DESK_CONFIG),
                                        encoding="utf-8")
    return tmp_path


def _run_pinned(name):
    argv, outputs = COMMANDS[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv[:1] + ["--config", "desk.json"] + argv[1:]) == 0
    return [hashlib.sha256(Path(out).read_bytes()).hexdigest()
            for out in outputs]


# ------------------------------------------------------------------ parser

def test_main_builds_no_parser(desk_dir, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # the counter sees a build: the top parser and one per command
    build_parser()
    assert len(built) == 5
    built.clear()
    for name in COMMANDS:
        assert _run_pinned(name) == DIGESTS[name]
    assert built == []


@pytest.mark.parametrize("argv, code", [
    (["solve", "--config", "desk.json"], 2),           # --out is missing
    (["verify", "--config", "desk.json", "--mechanism", "opt",
      "--samples", "1", "--out", "v.json"], 2),        # not a choice
    (["bogus"], 2),                                    # no such command
    (["--help"], 0),
    (["report", "--help"], 0)])
def test_a_failed_parse_or_help_leaves_the_parser_usable(desk_dir, argv, code):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    for name in COMMANDS:
        assert _run_pinned(name) == DIGESTS[name]


def test_the_module_entry_point_writes_the_pinned_solve(desk_dir):
    # a fresh interpreter: the import-time parser, then __main__
    src = str(Path(solarmkt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "solarmkt.cli", "solve", "--config", "desk.json",
         "--out", "solve.json"], cwd=desk_dir, env=env, capture_output=True,
        text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("capacities (GW): srt=2 ")
    digest = hashlib.sha256((desk_dir / "solve.json").read_bytes()).hexdigest()
    assert [digest] == DIGESTS["solve"]


# ----------------------------------------------------------------- logging

BOGUS_WARNING = ("WARNING solarmkt.pipeline: premium: unknown setting 'bogus' "
                 "is ignored\n")


@pytest.fixture
def solve_bogus(desk_dir):
    """Runs ``solve`` on a config with an unknown premium setting, with
    stderr redirected for that call alone; returns what it got."""
    config = dict(DESK_CONFIG, premium=dict(DESK_CONFIG["premium"], bogus=1))
    (desk_dir / "bogus.json").write_text(json.dumps(config), encoding="utf-8")

    def solve():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert main(["solve", "--config", "bogus.json",
                         "--out", "solve.json"]) == 0
        return err.getvalue()

    root = logging.getLogger()
    level = root.level
    try:
        yield solve
    finally:
        root.setLevel(level)


def test_each_call_logs_to_its_own_stderr_at_its_own_level(solve_bogus,
                                                           monkeypatch):
    root = logging.getLogger()
    # a process whose root logger has no handlers, as outside the suite
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.delenv("SOLARMKT_LOG_LEVEL", raising=False)
    assert solve_bogus() == BOGUS_WARNING
    assert solve_bogus() == BOGUS_WARNING
    monkeypatch.setenv("SOLARMKT_LOG_LEVEL", "error")
    assert solve_bogus() == ""
    monkeypatch.setenv("SOLARMKT_LOG_LEVEL", "WARNING")
    assert solve_bogus() == BOGUS_WARNING
    # a name that is no level reads as the default
    monkeypatch.setenv("SOLARMKT_LOG_LEVEL", "Formatter")
    assert solve_bogus() == BOGUS_WARNING
    assert root.handlers == [cli._LOG_HANDLER]


@pytest.mark.parametrize("level", ["basic_format", "BASIC_FORMAT",
                                   "nonsense"])
def test_a_level_logging_does_not_name_reads_as_the_default(solve_bogus,
                                                            monkeypatch,
                                                            level):
    # logging.BASIC_FORMAT is an attribute of logging but no level
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.setenv("SOLARMKT_LOG_LEVEL", level)
    assert solve_bogus() == BOGUS_WARNING
    assert root.level == logging.WARNING


def test_a_root_logger_the_host_configured_is_left_alone(solve_bogus,
                                                         monkeypatch):
    root = logging.getLogger()
    own = io.StringIO()
    handler = logging.StreamHandler(own)
    monkeypatch.setattr(root, "handlers", [handler])
    root.setLevel(logging.WARNING)
    monkeypatch.setenv("SOLARMKT_LOG_LEVEL", "ERROR")
    assert solve_bogus() == ""
    assert own.getvalue() == "premium: unknown setting 'bogus' is ignored\n"
    assert root.handlers == [handler]
    assert root.level == logging.WARNING
