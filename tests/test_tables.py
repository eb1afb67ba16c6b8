"""Table serialization: the JSON encoder against json's indented one, strict
JSON, and a snapshot of every table cell but the ``diff`` column.

A change that moves a 4-digit cell on purpose rewrites the snapshot with
``PYTHONPATH=src python tests/test_tables.py`` and names the cell in
CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from auxfield import tables
from auxfield.afm import PotentialModel
from auxfield.errors import NumericalFailure
from auxfield.exact import QuantumNumbers
from auxfield.tables import TABLE_IDS, Row, build_table, format_rows

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"


def _payload(rows):
    """The records format_rows serializes: the labels, and the golden
    columns when any row of the table has a published value or tolerance."""
    graded = any(r.published is not None or r.tol is not None for r in rows)
    return [dict(r.labels, **({"computed": r.computed, "published": r.published,
                               "diff": r.diff, "ok": r.ok} if graded else {}))
            for r in rows]


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_json_is_indented_dumps_byte_for_byte(table_id):
    header, rows = build_table(table_id)
    expected = json.dumps(_payload(rows), indent=1, sort_keys=True) + "\n"
    assert format_rows(header, rows, "json") == expected


def test_json_of_no_rows():
    assert format_rows(["n"], [], "json") == json.dumps([], indent=1) + "\n"


_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(["\n", '"', "},\n  {", "{\n  \n }", "ψ(0)²", "r ≥ 0"]))
_VALUE = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 1e308, -1e308, 5e-324]))


@given(st.lists(st.dictionaries(_TEXT, _VALUE, max_size=5), max_size=5))
def test_json_of_flat_records_is_indented_dumps(records):
    rows = [Row(rec, None, None, None) for rec in records]
    assert format_rows([], rows, "json") == json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_non_finite_value_is_a_numeric_failure(monkeypatch):
    for bad in (math.nan, math.inf):
        row = Row({"trial": "hy0", "column": "overlap"}, bad, "0.99", 0.003)
        with pytest.raises(NumericalFailure):
            format_rows(["trial", "column"], [row], "json")
        assert format_rows(["trial", "column"], [row], "csv").splitlines()[1].startswith(
            f"hy0,overlap,{bad},0.99,")


def test_a_failing_state_fails_only_its_own_rows(monkeypatch):
    # one error rule for the tables that compare against the oracle: a state
    # or basis whose AFM or oracle side raises gets None cells, its rows are
    # marked failed, and the table goes on
    before = {table_id: build_table(table_id) for table_id in ("exp-results", "log-results")}
    exp_state = (PotentialModel.exponential(10.0), QuantumNumbers(0, 0))
    # exp k = 20 (0, 0) loses its oracle side: its energy row fails too
    oracle_failures = [(PotentialModel.exponential(20.0), QuantumNumbers(0, 0)),
                       (PotentialModel.logarithmic(), QuantumNumbers(1, 1))]
    afm_solve, oracle_state = tables.afm_solve, tables.oracle_state

    def afm_failing(v, kind, q):
        if (v, q) == exp_state:
            raise NumericalFailure("injected")
        return afm_solve(v, kind, q)

    def oracle_failing(v, q):
        if (v, q) in oracle_failures:
            raise NumericalFailure("injected")
        return oracle_state(v, q)

    monkeypatch.setattr(tables, "afm_solve", afm_failing)
    monkeypatch.setattr(tables, "oracle_state", oracle_failing)
    failed = {"exp-results": lambda lab: (lab["k"], lab["n"], lab["l"]) == (10, 0, 0)
              and lab["basis"] != "" or (lab["k"], lab["n"], lab["l"]) == (20, 0, 0),
              "log-results": lambda lab: (lab["n"], lab["l"]) == (1, 1)}
    for table_id, (header, old_rows) in before.items():
        _, rows = build_table(table_id)
        assert [r.labels for r in rows] == [r.labels for r in old_rows]
        hit = [failed[table_id](r.labels) for r in rows]
        assert sum(hit) == {"exp-results": 8 + 9, "log-results": 8}[table_id]
        for row, old, is_hit in zip(rows, old_rows, hit):
            if is_hit:
                assert row.computed is None and row.ok is False, (table_id, row.labels)
            else:
                for fmt in ("csv", "json"):
                    assert (format_rows(header, [row], fmt)
                            == format_rows(header, [old], fmt)), (table_id, row.labels)


def _cells(table_id):
    """The table's CSV without its diff column: every computed, published
    and ok cell, or the whole of a table with no published values."""
    header, rows = build_table(table_id)
    lines = [line.split(",") for line in format_rows(header, rows, "csv").splitlines()]
    if "diff" in lines[0]:
        col = lines[0].index("diff")
        lines = [line[:col] + line[col + 1:] for line in lines]
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.pin
@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_table_cells_match_the_snapshot(table_id):
    assert _cells(table_id) == (SNAPSHOTS / f"{table_id}.csv").read_text()


def _numbers(table_id):
    """The labels and the computed value of every row of the table, as JSON has them."""
    return json.loads(json.dumps([{"labels": r.labels, "computed": r.computed}
                                  for r in build_table(table_id)[1]]))


def _numbers_text():
    """tables.json: per table, one line per row."""
    return "{\n" + ",\n".join(
        f"{json.dumps(table_id)}: [\n" + ",\n".join(json.dumps(row, sort_keys=True)
                                                    for row in _numbers(table_id)) + "\n]"
        for table_id in TABLE_IDS) + "\n}\n"


@pytest.mark.pin
@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_table_numbers_match_the_snapshot(table_id):
    # every computed value within 1e-12 relative of tables.json and None
    # exactly, with the same labels; diff and ok follow from computed
    ref = json.loads((SNAPSHOTS / "tables.json").read_text())[table_id]
    got = _numbers(table_id)
    assert [row["labels"] for row in got] == [row["labels"] for row in ref]
    for row, old in zip(got, ref):
        if old["computed"] is None:
            assert row["computed"] is None, row["labels"]
        else:
            assert abs(row["computed"] - old["computed"]) <= 1e-12 * abs(old["computed"]), (
                row["labels"], row["computed"], old["computed"])


def test_linear_overlaps_match_a_fine_simpson_reference():
    # the Gauss-Laguerre sample of the exact linear state against a
    # 96001-point Simpson rule over [0, |alpha_n| + 16]: within 5e-14 for
    # n <= 20 in both bases (measured); the 12001-point Simpson sample it
    # replaced was up to 2.0e-10 off
    from auxfield.afm import afm_solve
    from auxfield.exact import linear_s_state
    from auxfield.oracle import _simpson
    from auxfield.overlaps import numeric_overlap, sample_radial
    v = PotentialModel.linear()
    for n in range(21):
        state, q = linear_s_state(v.m, v.a, n), QuantumNumbers(n, 0)
        grid = np.linspace(0.0, abs(state.alpha_n) + 16.0, 96001)
        wts = _simpson(grid.shape[0], float(grid[1] - grid[0]))
        exact = sample_radial(lambda r: math.sqrt(4.0 * math.pi) * state.wavefunction(r), grid, wts)
        for key, kind in tables._KINDS.items():
            trial = sample_radial(afm_solve(v, kind, q).scale.radial(q), grid, wts)
            ref = numeric_overlap(exact, trial) ** 2
            assert abs(tables.linear_afm_overlap_sq(key, n) - ref) <= 1e-13, (key, n)


if __name__ == "__main__":
    for table_id in TABLE_IDS:
        (SNAPSHOTS / f"{table_id}.csv").write_text(_cells(table_id))
    (SNAPSHOTS / "tables.json").write_text(_numbers_text())
