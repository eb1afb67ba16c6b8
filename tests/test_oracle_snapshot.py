"""Replay of ``auxfield oracle`` against a committed snapshot.

``tests/snapshots/oracle.json`` holds the exit code, stderr and stdout of
``auxfield oracle`` for each family at a few states, the near-threshold
exp k = 1.5 (0, 0), exp k = 20 (2, 0), whose state carries a tail past
r = 80, the two domains cut short enough that the tail is refused (exit
70), an exit-2 and an exit-64 payload.  Exit codes, stderr and stdout's
keys must match exactly; its numbers agree within 1e-12 relative, the
corrector's stop, so that the last bits of the LAPACK build do not count.

A change that moves an entry on purpose rewrites the snapshot with
``PYTHONPATH=src python tests/test_oracle_snapshot.py`` and names the
entry in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from auxfield.cli import main

pytestmark = pytest.mark.pin

SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "oracle.json"

COMMANDS = [argv.split() for argv in (
    "oracle linear 0 0",
    "oracle linear 1 0",
    "oracle linear 2 1 --grid-points 2000",
    "oracle log 0 0",
    "oracle log 0 1",
    "oracle log 2 1",
    "oracle exp 0 0 --k 20",
    "oracle exp 1 0 --k 20",
    "oracle exp 0 2 --k 200",
    "oracle exp 0 0 --k 1.5",
    "oracle exp 2 0 --k 20",
    "oracle exp 0 0 --k 20 --r-max 4",
    "oracle linear 0 0 --r-max 5",
    "oracle exp 1 0 --k 5",
    "oracle log 0 0 --grid-points 100",
)]


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": " ".join(argv), "code": code, "stderr": err.getvalue(),
            "stdout": out.getvalue()}


def _close(got, ref):
    if isinstance(ref, float) and isinstance(got, float):
        return abs(got - ref) <= 1e-12 * abs(ref)
    return type(got) is type(ref) and got == ref


def test_snapshot_covers_every_command():
    entries = json.loads(SNAPSHOT.read_text())
    assert [e["argv"] for e in entries] == [" ".join(a) for a in COMMANDS]
    assert {e["code"] for e in entries} == {0, 2, 64, 70}


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(a) for a in COMMANDS])
def test_oracle_matches_the_snapshot(index):
    entry = json.loads(SNAPSHOT.read_text())[index]
    got = _replay(COMMANDS[index])
    assert (got["code"], got["stderr"]) == (entry["code"], entry["stderr"])
    if not entry["stdout"]:
        assert got["stdout"] == ""
        return
    payload, ref = json.loads(got["stdout"]), json.loads(entry["stdout"])
    assert sorted(payload) == sorted(ref)
    for key, value in ref.items():
        assert _close(payload[key], value), (key, payload[key], value)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([_replay(a) for a in COMMANDS], indent=1) + "\n")
