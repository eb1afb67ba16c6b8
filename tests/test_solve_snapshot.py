"""Replay of ``auxfield solve`` against a committed snapshot.

``tests/snapshots/solve.json`` holds the exit code and the exact stdout of
``auxfield solve`` for every family (exp at k = 20 and 200) in both bases
over a few states, one of them with l >= 20 and one with n >= 20, exit-2
payloads included.  The tables reach only the linear family's closed-form
trial states; this file pins the trial states of all three families.

A change that moves an entry on purpose rewrites the snapshot with
``PYTHONPATH=src python tests/test_solve_snapshot.py`` and names the entry
in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from auxfield.cli import main

pytestmark = pytest.mark.pin

SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "solve.json"

FAMILIES = (("linear",), ("log",), ("exp", "--k", "20"), ("exp", "--k", "200"))
STATES = ((0, 0), (1, 0), (0, 1), (2, 3), (5, 2), (3, 24), (21, 1))
COMMANDS = [["solve", family[0], aux, str(n), str(l), *family[1:]]
            for family in FAMILIES for aux in ("coulomb", "quadratic")
            for n, l in STATES]


def _replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": " ".join(argv), "code": code, "stdout": out.getvalue()}


def test_snapshot_covers_every_command():
    entries = json.loads(SNAPSHOT.read_text())
    assert [e["argv"] for e in entries] == [" ".join(a) for a in COMMANDS]
    assert {e["code"] for e in entries} == {0, 2}


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(a) for a in COMMANDS])
def test_solve_matches_the_snapshot(index):
    entry = json.loads(SNAPSHOT.read_text())[index]
    assert _replay(COMMANDS[index]) == entry


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([_replay(a) for a in COMMANDS], indent=1) + "\n")
