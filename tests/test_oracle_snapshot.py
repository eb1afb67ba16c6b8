"""Replay of ``auxfield oracle`` against a committed snapshot.

``tests/snapshots/oracle.json`` holds the exit code, stderr and stdout of
``auxfield oracle`` for each family at a few states, the near-threshold
exp k = 1.5 (0, 0), exp k = 20 (2, 0), whose state reaches to r = 394,
two commands passing the ``--r-max`` the oracle no longer has (exit 64),
a level refused by the mesh cap (exit 70), an exit-2 and an exit-64
payload.  Exit codes, stderr and stdout's keys must match exactly; its
numbers agree within 1e-12 relative, so that the last bits of the LAPACK
build do not count.  ``--grid-points`` is accepted, range-checked by the
CLI and ignored.

A change that moves an entry on purpose rewrites the snapshot with
``PYTHONPATH=src python tests/test_oracle_snapshot.py``, which first
prints each code, stderr and number that moves, and names the entry in
CHANGES.md.
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
    "oracle log 691 0",
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


def test_grid_points_is_accepted_and_ignored():
    # the benchmark's cold workload runs oracle commands with --grid-points 2000
    # and expects exit 0, and --grid-points 100 as its usage error: the CLI
    # still range-checks the value, an integer, before any solve, and within
    # range it changes no byte of stdout
    plain = _replay("oracle linear 2 1".split())
    assert plain["code"] == 0 and plain["stderr"] == ""
    for points in ("2000", "2000000"):
        got = _replay(f"oracle linear 2 1 --grid-points {points}".split())
        assert (got["code"], got["stderr"], got["stdout"]) == (0, "", plain["stdout"]), points
    for points in ("100", "1999", "2000001", "100000000"):
        refused = _replay(f"oracle log 0 0 --grid-points {points}".split())
        assert (refused["code"], refused["stdout"]) == (64, ""), points
        assert refused["stderr"] == ("auxfield: error: grid_points must be between 2000 and "
                                     "2000000\n"), points
    for points in ("3000.0", "nan"):
        refused = _replay(f"oracle log 0 0 --grid-points {points}".split())
        assert (refused["code"], refused["stdout"]) == (64, ""), points
        assert f"--grid-points: invalid int value: '{points}'" in refused["stderr"], points


def _moves(old, new):
    """Lines naming what a rewrite changes in one entry: its exit code or
    stderr, and each stdout number that moved by more than 1e-12 relative."""
    lines = [f"{new['argv']}: {key} {old.get(key)!r} -> {new[key]!r}"
             for key in ("code", "stderr") if old.get(key) != new[key]]
    was = json.loads(old["stdout"]) if old.get("stdout") else {}
    now = json.loads(new["stdout"]) if new["stdout"] else {}
    for key in sorted(set(was) | set(now)):
        if not _close(now.get(key), was.get(key)):
            lines.append(f"{new['argv']}: {key} {was.get(key)!r} -> {now.get(key)!r}")
    return lines


if __name__ == "__main__":
    # print what the rewrite moves, entry by entry, then write the snapshot
    old = {e["argv"]: e for e in json.loads(SNAPSHOT.read_text())}
    entries = [_replay(a) for a in COMMANDS]
    for entry in entries:
        for line in _moves(old.get(entry["argv"], {}), entry):
            print(line)
    SNAPSHOT.write_text(json.dumps(entries, indent=1) + "\n")
