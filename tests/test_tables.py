"""Table serialization: the JSON encoder against json's indented one, strict
JSON, and a snapshot of every table cell but the ``diff`` column.

A change that moves a 4-digit cell on purpose rewrites the snapshot with
``PYTHONPATH=src python tests/test_tables.py``, which first prints each
CSV line and each computed value (more than 1e-12 relative) that moves,
and names the cell in CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from auxfield import tables
from auxfield.afm import PotentialModel, afm_solve
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


def _disagreeing_rows():
    """README's rows for the compared cells whose computed value lies more than half a
    printed unit from the paper's: table, k, (n, l), basis, quantity, ours to one digit
    past the paper's, the paper's, the printed units between them and diff/tol."""
    lines = []
    for table_id in TABLE_IDS:
        for r in build_table(table_id)[1]:
            if r.computed is None or r.published is None:
                continue
            unit = tables._last_digit_tol(r.published)
            if r.diff <= 0.5 * unit:
                continue
            labels, places = r.labels, 1 - round(math.log10(unit))
            lines.append(f"| `{table_id}` | {labels.get('k', '–')} | ({labels['n']}, {labels['l']}) "
                         f"| {labels['basis']} | `{labels['quantity']}` | {r.computed:.{places}f} "
                         f"| {r.published} | {r.diff / unit:.3f} | {r.diff / r.tol:.3f} |")
    return lines


@pytest.mark.pin
def test_readme_lists_the_rows_that_disagree_with_the_paper():
    # the 17 of 294 compared rows that do not round to the paper's printed
    # digits, each inside its tolerance, are listed in README, which is
    # recomputed here so that a row that moves shows in the list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    listed = [line for line in readme if line.startswith(("| `log-results`", "| `exp-results`"))]
    assert listed == _disagreeing_rows()


def _readme_disagreeing_rows():
    """README's list of the rows that do not round to the paper's digits, as (table, k,
    n, l, basis, quantity, paper) with k None for the log table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = []
    for line in readme:
        if line.startswith(("| `log-results`", "| `exp-results`")):
            table, k, nl, basis, quantity, _, paper = (c.strip(" `") for c in line.split("|")[1:8])
            n, l = (int(x) for x in nl.strip("()").split(","))
            rows.append((table, None if k == "–" else float(k), n, l, basis, quantity, paper))
    return rows


def test_disagreeing_rows_hold_to_independent_references():
    # both sides of each row README lists, recomputed without the oracle or
    # the closed-form moments: the exact state is the Numerov state on a
    # domain its tail leaves at e^-20 (step 0.005; an exp S-state takes its
    # energy from the Bessel zero), <p^2> is 2m (E - <V>) on it, the trial
    # <r^2> and <p^2> are mpmath quadratures of the textbook trial state and
    # the overlap its Simpson sum on the Numerov nodes.  Each table cell lies
    # within 1e-8 of these (measured worst 1.1e-9, exp k = 20 (1, 1) hy rp2)
    rows = _readme_disagreeing_rows()
    states = {(table, k, n, l) for table, k, n, l, *_ in rows}
    assert (len(rows), len(states)) == (17, 11)
    cells = {}
    for table_id in ("log-results", "exp-results"):
        for r in build_table(table_id)[1]:
            labels = r.labels
            cells[table_id, labels.get("k"), labels["n"], labels["l"], labels["basis"],
                  labels["quantity"]] = r.computed
    for table, k, n, l in sorted(states, key=str):
        v = PotentialModel.logarithmic() if k is None else PotentialModel.exponential(k)
        q = QuantumNumbers(n, l)
        r_max = reference.reference_r_max(v, q)
        if k is not None:   # past the well, the exp tail decays as e^(-sqrt(-E) r)
            r_max += 20.0 / math.sqrt(-reference.numerov_state(v, q, r_max, 4001).energy)
        f = reference.numerov_state(v, q, r_max, int(r_max / 0.005) + 1)
        energy = f.energy
        if k is not None and l == 0:
            energy = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-energy))
        r, u, wts = f.grid, f.values, f.weights
        pot = np.zeros_like(r)
        pot[1:] = v.v(r[1:])
        r2, p2 = wts @ (u * u * r * r), v.kinetic_2m * (energy - wts @ (u * u * pot))
        for table_id, k_row, n_row, l_row, basis, quantity, _ in rows:
            if (table_id, k_row, n_row, l_row) != (table, k, n, l):
                continue
            scale = afm_solve(v, tables._KINDS[basis], q).scale
            if quantity == "overlap":
                closure = (reference.hydrogen_radial_closure if basis == "hy"
                           else reference.oscillator_radial_closure)(scale, q)
                expected = float(wts @ (u * r * closure(r))) ** 2
            else:
                trial_r2, trial_p2 = reference.trial_r2_p2_mp(scale, q)
                expected = trial_r2 / r2 if quantity == "rr2" else trial_p2 / p2
            key = (table, None if k is None else int(k), n, l, basis, quantity)
            assert abs(cells[key] - expected) <= 1e-8, (key, cells[key], expected)


@pytest.mark.pin
def test_no_shared_hydrogen_scale_brings_the_exp_rr2_rows_to_the_paper():
    # rr2 of a hydrogen trial state goes as eta^-2: one factor on the trial
    # scale eta of every exp row would need a factor on rr2 that rounds each
    # of the six hy rr2 rows README lists to the paper's digits; the five
    # rows above the paper and exp k = 20 (2, 0), below it, admit none, and
    # neither do the three k = 20 rows above it alone
    computed = {(r.labels["k"], r.labels["n"], r.labels["l"]): r.computed
                for r in build_table("exp-results")[1]
                if (r.labels["basis"], r.labels["quantity"]) == ("hy", "rr2")}
    spans = {}
    for _, k, n, l, basis, quantity, paper in _readme_disagreeing_rows():
        if k is not None and (basis, quantity) == ("hy", "rr2"):
            half = 0.5 * tables._last_digit_tol(paper)
            ours = computed[int(k), n, l]
            spans[k, n, l] = ((float(paper) - half) / ours, (float(paper) + half) / ours)
    assert len(spans) == 6
    for chosen in (spans, {key: span for key, span in spans.items()
                           if key[0] == 20.0 and span[0] < 1.0}):
        assert max(lo for lo, _ in chosen.values()) > min(hi for _, hi in chosen.values())


def test_linear_overlaps_match_a_fine_simpson_reference():
    # the Gauss-Laguerre sample of the exact linear state against a
    # 96001-point Simpson rule over [0, |alpha_n| + 16]: within 5e-14 for
    # n <= 20 in both bases (measured); the 12001-point Simpson sample it
    # replaced was up to 2.0e-10 off
    from auxfield.afm import afm_solve
    from auxfield.exact import linear_s_state
    from reference import simpson_weights
    from auxfield.overlaps import numeric_overlap, sample_radial
    v = PotentialModel.linear()
    for n in range(21):
        state, q = linear_s_state(v.m, v.a, n), QuantumNumbers(n, 0)
        grid = np.linspace(0.0, abs(state.alpha_n) + 16.0, 96001)
        wts = simpson_weights(grid.shape[0], float(grid[1] - grid[0]))
        exact = sample_radial(lambda r: math.sqrt(4.0 * math.pi) * state.wavefunction(r), grid, wts)
        for key, kind in tables._KINDS.items():
            trial = sample_radial(afm_solve(v, kind, q).scale.radial(q), grid, wts)
            ref = numeric_overlap(exact, trial) ** 2
            assert abs(tables.linear_afm_overlap_sq(key, n) - ref) <= 1e-13, (key, n)


def _moved(old, new):
    """Whether a computed value moved: None on one side only, or more than
    1e-12 relative."""
    if old is None or new is None:
        return old is not new
    return abs(new - old) > 1e-12 * abs(old)


def test_gauss_sampled_linear_psi_is_the_airy_state():
    # psi between the Gauss-Laguerre nodes of the exact linear sample is its
    # Lagrange expansion: within 1e-11 of the Airy closed form (measured
    # 1.1e-12), also below the first node, where interpolation held u at its
    # first value and gave 1.298 for 0.282 at r = 1e-3
    from auxfield.exact import linear_s_state
    v = PotentialModel.linear()
    r = np.array([1e-3, 0.01, 0.5, 1.0, 3.0, 7.0])
    for n in (0, 1, 5):
        exact = linear_s_state(v.m, v.a, n).wavefunction(r)
        assert np.max(np.abs(tables.linear_exact_function(n).psi(r) - exact)) <= 1e-11, n


if __name__ == "__main__":
    # print each CSV line and each computed value that the rewrite moves
    # (more than 1e-12 relative), then write the snapshots
    old = json.loads((SNAPSHOTS / "tables.json").read_text())
    for table_id in TABLE_IDS:
        path = SNAPSHOTS / f"{table_id}.csv"
        cells = _cells(table_id)
        for before, after in zip(path.read_text().splitlines(), cells.splitlines()):
            if before != after:
                print(f"{table_id}.csv: {before} -> {after}")
        path.write_text(cells)
        for was, row in zip(old[table_id], _numbers(table_id)):
            if _moved(was["computed"], row["computed"]):
                print(f"{table_id} {json.dumps(row['labels'], sort_keys=True)}: "
                      f"{was['computed']!r} -> {row['computed']!r}")
    (SNAPSHOTS / "tables.json").write_text(_numbers_text())
