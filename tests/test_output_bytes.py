"""Byte pins of the desk command outputs.

A refactor keeps every output byte, or lists each move in CHANGES.md
and re-takes the digest here.  The commands run on the desk config in
a scratch directory with relative paths, so ``solve``'s ``config``
field reads ``desk.json`` wherever the suite runs.  The digests are of
the bytes the suite's numpy produces; a numpy change that moves a last
bit shows here as well.
"""

import hashlib
import json

import pytest

from solarmkt.cli import main
from test_cli import DESK_CONFIG

COMMANDS = {
    "solve": (["solve", "--out", "solve.json"], ["solve.json"]),
    "sweep epsilon": (["sweep", "--param", "epsilon",
                       "--values", "0,0.25,0.5,0.75,1", "--out", "sweep.csv"],
                      ["sweep.csv"]),
    "report": (["report", "--out-dir", "report"],
               ["report/capacity_table.csv", "report/ordering_report.csv"]),
    "verify cb": (["verify", "--mechanism", "cb", "--samples", "1",
                   "--seed", "1", "--out", "verify.json"], ["verify.json"]),
}

DIGESTS = {
    "solve": ["f09e8b8ff2f695d182d3384496e61983049f8b8a0b4c2ef303018afd0f03e1cc"],
    "sweep epsilon":
        ["20cb6796630d7b5899e65aef7b8884f4237ade5fa1d2342370eecf92dda5b963"],
    "report": ["76e0ef86fbdd054a7d467bfccf1f51ad54d8c5569beb589f091f810412046f9f",
               "a956b9d337b51d15f630198b782c4084a4def1f3695702e2119bf74324040807"],
    "verify cb":
        ["88880768d09908f759091ec5a6c6cbea4836f0fa69b4209656cfc97dc1606d2c"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_desk_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk.json").write_text(json.dumps(DESK_CONFIG),
                                        encoding="utf-8")
    argv, outputs = COMMANDS[name]
    assert main(argv[:1] + ["--config", "desk.json"] + argv[1:]) == 0
    digests = [hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
               for out in outputs]
    assert digests == DIGESTS[name]
