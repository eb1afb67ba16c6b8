import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from auxfield import cli
from auxfield.afm import PotentialModel
from auxfield.cli import main
from auxfield.exact import QuantumNumbers
from auxfield.tables import TABLE_IDS, oracle_state


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_linear_quadratic_ground(self, capsys):
        code, out, _ = _run(capsys, "solve", "linear", "quadratic", "0", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["energy"] == pytest.approx(2.4764, abs=1e-3)
        assert rec["bound"] == "upper"
        assert rec["scale_kind"] == "lambda"
        assert rec["r_moment_2"] > 0

    def test_log_coulomb_ground(self, capsys):
        code, out, _ = _run(capsys, "solve", "log", "coulomb", "0", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["energy"] == pytest.approx(0.15343, abs=1e-5)
        assert rec["bound"] == "lower"
        assert rec["p2"] == pytest.approx(2.0, rel=1e-12)

    def test_exp_not_allowed_exits_2(self, capsys):
        code, out, _ = _run(capsys, "solve", "exp", "coulomb", "1", "0",
                            "--k", "5")
        assert code == 2
        rec = json.loads(out)
        assert rec["error"] == "no-bound-state"
        assert rec["reason"] == "state-not-allowed"

    def test_exp_requires_k(self, capsys):
        code, _, err = _run(capsys, "solve", "exp", "coulomb", "0", "0")
        assert code == 64
        assert "--k" in err


class TestUsageErrors:
    def test_unknown_family(self, capsys):
        code, _, _ = _run(capsys, "solve", "cubic", "coulomb", "0", "0")
        assert code == 64

    def test_missing_command(self, capsys):
        assert _run(capsys)[0] == 64

    def test_unknown_table(self, capsys):
        code, _, _ = _run(capsys, "table", "no-such-table")
        assert code == 64

    def test_help_units(self, capsys):
        code, out, _ = _run(capsys, "--help-units")
        assert code == 0
        assert "p^2" in out and "reduced" in out.lower()


class TestTable:
    def test_csv_deterministic(self, capsys):
        _, out1, _ = _run(capsys, "table", "overlap-hy")
        _, out2, _ = _run(capsys, "table", "overlap-hy")
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "n,n_prime,l,computed,published,diff,ok"

    def test_strict_passes_on_good_table(self, capsys):
        code, _, _ = _run(capsys, "table", "obs-hy", "--strict")
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, "table", "eckart", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert all(r["ok"] for r in rows)

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_every_table_is_strict_json(self, table_id, capsys):
        code, out, _ = _run(capsys, "table", table_id, "--format", "json")
        assert code == 0
        rows = _strict_loads(out)
        assert rows
        assert all(type(r["ok"]) is bool for r in rows if "ok" in r)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        code, out, _ = _run(capsys, "table", "overlap-ho", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,n_prime,l,")


class TestWavefunction:
    def test_normalization(self, capsys):
        code, out, _ = _run(capsys, "wavefunction", "linear", "exact", "0", "0",
                            "--r-max", "14", "--samples", "2000")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        r = np.array([float(a) for a, _ in rows])
        psi = np.array([float(b) for _, b in rows])
        dr = r[1] - r[0]
        total = np.sum(4 * math.pi * psi ** 2 * r ** 2 * dr)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_quadratic_close_to_exact(self, capsys):
        # the pointwise gap peaks at the origin, where the published
        # |psi(0)|^2 ratio of 0.921 already implies a ~4% amplitude gap
        _, out_e, _ = _run(capsys, "wavefunction", "linear", "exact", "0", "0")
        _, out_q, _ = _run(capsys, "wavefunction", "linear", "quadratic", "0", "0")
        psi_e = np.array([float(l.split(",")[1]) for l in out_e.splitlines()[1:]])
        psi_q = np.array([float(l.split(",")[1]) for l in out_q.splitlines()[1:]])
        assert np.max(np.abs(psi_e - psi_q)) < 0.05 * np.max(np.abs(psi_e))

    def test_coulomb_visibly_off_for_excited(self, capsys):
        _, out_e, _ = _run(capsys, "wavefunction", "linear", "exact", "1", "0")
        _, out_c, _ = _run(capsys, "wavefunction", "linear", "coulomb", "1", "0")
        psi_e = np.array([float(l.split(",")[1]) for l in out_e.splitlines()[1:]])
        psi_c = np.array([float(l.split(",")[1]) for l in out_c.splitlines()[1:]])
        assert np.max(np.abs(psi_e - psi_c)) > 0.05 * np.max(np.abs(psi_e))

    def test_far_linear_exact_samples_write_nothing_to_stderr(self):
        # Ai(r - alpha) at r ~ 1e6 ran its asymptotic series into an
        # overflowing zeta**k, which printed RuntimeWarnings
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "auxfield.cli", "wavefunction",
                               "linear", "exact", "0", "0", "--r-max", "1e6"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "1e+06,0"

    def test_exact_oracle_path(self, capsys):
        code, out, _ = _run(capsys, "wavefunction", "log", "exact", "0", "1",
                            "--r-max", "10", "--samples", "301")
        assert code == 0
        assert len(out.splitlines()) == 302

    def test_exact_oracle_path_value_at_origin(self, capsys):
        _, out, _ = _run(capsys, "oracle", "log", "0", "0")
        psi0 = math.sqrt(json.loads(out)["psi0_sq"])
        _, out, _ = _run(capsys, "wavefunction", "log", "exact", "0", "0",
                         "--samples", "3")
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(psi0, rel=1e-3)
        _, out, _ = _run(capsys, "wavefunction", "exp", "exact", "0", "1",
                         "--k", "20", "--samples", "3")
        assert out.splitlines()[1] == "0,0"

    def test_exact_oracle_path_solves_on_the_oracle_domain(self, capsys):
        # exp k = 20 (2, 0) extends its domain to r ~ 268; boxed at r = 30
        # it loses 0.8% of its mass and u is 0.4% too large
        code, out, _ = _run(capsys, "wavefunction", "exp", "exact", "2", "0",
                            "--k", "20", "--samples", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        r = np.array([float(a) for a, _ in rows])
        psi = np.array([float(b) for _, b in rows])
        f = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(2, 0))[0]
        ref = np.empty_like(r)
        ref[1:] = np.interp(r[1:], f.grid, f.values) / r[1:]
        ref[0] = f.slope_at_origin()
        assert np.max(np.abs(psi - ref / math.sqrt(4.0 * math.pi))) <= 1e-6
        # an --r-max beyond the oracle's domain is solved on [0, --r-max]
        code, out, _ = _run(capsys, "wavefunction", "log", "exact", "0", "1",
                            "--r-max", "200", "--samples", "5")
        assert code == 0
        assert out.splitlines()[-1].startswith("200,")

    def test_exact_oracle_path_positive_at_origin(self, capsys):
        # the oracle state has the sign of the closed forms: u > 0 before
        # its first node
        _, out, _ = _run(capsys, "wavefunction", "log", "exact", "1", "0",
                         "--samples", "3")
        assert float(out.splitlines()[1].split(",")[1]) > 0.0


class TestOracleCommand:
    def test_linear_json(self, capsys):
        code, out, _ = _run(capsys, "oracle", "linear", "0", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["energy"] == pytest.approx(2.338107, abs=1e-5)
        assert rec["p2"] == pytest.approx(rec["energy"] / 3, rel=1e-6)

    def test_exp_no_state_exit_2(self, capsys):
        code, out, _ = _run(capsys, "oracle", "exp", "1", "0", "--k", "5")
        assert code == 2
        assert json.loads(out)["error"] == "no-bound-state"


class TestBoundaries:
    def test_infinite_depth_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "solve", "exp", "coulomb", "0", "0",
                              "--k", "inf")
        assert code == 64
        assert out == ""
        assert "finite" in err

    def test_overflowing_depth_is_numeric_failure(self, capsys):
        # k = 1e308 is finite but overflows the closed form; no Infinity in JSON
        code, out, err = _run(capsys, "solve", "exp", "coulomb", "0", "0",
                              "--k", "1e308")
        assert code == 70
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("family", ["linear", "log"])
    def test_depth_for_non_exp_family_is_usage_error(self, family, capsys):
        code, out, err = _run(capsys, "solve", family, "coulomb", "0", "0",
                              "--k", "5")
        assert code == 64
        assert out == ""
        assert "--k" in err

    @pytest.mark.parametrize("samples", ["-3", "0", "1"])
    def test_too_few_samples_is_usage_error(self, samples, capsys):
        code, out, err = _run(capsys, "wavefunction", "linear", "coulomb", "0",
                              "0", "--samples", samples)
        assert code == 64
        assert out == ""
        assert "--samples" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "linear", "0", "0", "--r-max", "inf", "--grid-points", "2000"),
        ("wavefunction", "linear", "coulomb", "0", "0", "--r-max", "inf"),
        ("wavefunction", "log", "exact", "0", "0", "--r-max", "nan"),
    ])
    def test_non_finite_r_max_is_usage_error(self, argv, capsys):
        code, out, err = _run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "finite" in err

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "t.csv"
        code, out, err = _run(capsys, "table", "overlap-ho", "--out", str(target))
        assert code == 64
        assert out == ""
        assert "cannot write" in err

    def test_unexpected_exception_maps_to_70(self, monkeypatch, capsys):
        def boom(args):
            raise KeyError("defect")
        monkeypatch.setattr(cli, "_cmd_solve", boom)
        code, out, err = _run(capsys, "solve", "linear", "coulomb", "0", "0")
        assert code == 70
        assert out == ""
        assert "KeyError" in err

    def test_grid_too_coarse_for_deep_well_is_numeric_failure(self, capsys):
        # h^2 w/12 > 1/2 at every point up to the matching index
        code, out, err = _run(capsys, "oracle", "exp", "0", "0", "--k", "1e6",
                              "--grid-points", "2000")
        assert code == 70
        assert out == ""
        assert "numeric failure" in err
        assert "2000 points" in err

    def test_r_max_inside_allowed_region_is_numeric_failure(self, capsys):
        # the turning point of linear (0, 0) is near r = 2.3, beyond r_max
        code, out, err = _run(capsys, "oracle", "linear", "0", "0", "--r-max", "1")
        assert code == 70
        assert out == ""
        assert "r_max = 1 ends inside the classically allowed region" in err
        assert "turning point" in err
        # grid steps whose 3-point matrix leaves the float range of the
        # Sturm count, down to one whose 1/h^2 divides by zero
        for r_max in ("1e-100", "1e-155", "1e-160"):
            code, out, err = _run(capsys, "oracle", "linear", "0", "0", "--r-max", r_max)
            assert code == 70, (r_max, err)
            assert out == ""
            assert "numeric failure" in err and "grid step" in err, (r_max, err)
            assert "internal error" not in err, (r_max, err)

    def test_fine_grid_oracle_converges(self, capsys):
        code, out, err = _run(capsys, "oracle", "exp", "1", "1", "--k", "20",
                              "--grid-points", "320000")
        assert code == 0, err
        energy = _strict_loads(out)["energy"]
        f, _ = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(1, 1))
        default = f.energy
        assert abs(energy - default) <= 1e-9 * abs(default)

    @pytest.mark.parametrize("aux", ["coulomb", "quadratic"])
    @pytest.mark.parametrize("k", ["1e150", "1e200", "1e250", "1e308"])
    def test_deep_exp_well_is_numeric_failure(self, k, aux, capsys):
        # the moments (p4 ~ k^(4/3)), the <V> integrand or the closed form
        # itself leave the float range; only Coulomb at 1e150 still fits
        code, out, err = _run(capsys, "solve", "exp", aux, "0", "0", "--k", k)
        assert "internal error" not in err
        if (k, aux) == ("1e150", "coulomb"):
            assert code == 0
            assert math.isfinite(_strict_loads(out)["mean_h"])
        else:
            assert code == 70
            assert out == ""
            assert "numeric failure" in err

    def test_nonpositive_r_max_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "wavefunction", "linear", "coulomb", "0",
                              "0", "--r-max", "-1")
        assert code == 64
        assert out == ""
        assert "--r-max" in err


_COLD_SCRIPT = """
import contextlib, io, json, sys
import auxfield
from auxfield import cli
codes = []
for argv in (["--help-units"],
             ["solve", "linear", "coulomb", "2", "1"],
             ["solve", "linear", "quadratic", "0", "3"],
             ["solve", "log", "coulomb", "1", "2"],
             ["solve", "log", "quadratic", "3", "0"],
             ["solve", "exp", "coulomb", "1", "2", "--k", "200"],
             ["solve", "exp", "quadratic", "0", "1", "--k", "20"],
             ["table", "overlap-hy", "--format", "json"],
             ["wavefunction", "linear", "exact", "1", "0"],
             ["wavefunction", "exp", "coulomb", "0", "0", "--k", "20"],
             ["solve", "exp", "quadratic", "0", "0", "--k", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
closed_form = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
f = auxfield.solve_radial(auxfield.PotentialModel.linear(),
                          auxfield.QuantumNumbers(0, 0),
                          auxfield.SolverConfig(grid_points=2000))
auxfield.numeric_observables(f, auxfield.PotentialModel.linear())
overlap = auxfield.numeric_overlap(f, f)
print(json.dumps({"codes": codes, "closed_form": closed_form,
                  "oracle_loads_scipy": "scipy.linalg" in sys.modules,
                  "integrate": sorted(m for m in sys.modules
                                      if m.startswith("scipy.integrate")),
                  "energy": f.energy, "overlap": overlap}))
"""


class TestColdStart:
    def test_closed_form_commands_do_not_import_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        rec = json.loads(proc.stdout)
        assert rec["codes"] == [0] * 10 + [2]
        assert rec["closed_form"] == []
        assert rec["oracle_loads_scipy"]
        # the oracle and numeric_overlap integrate without scipy.integrate
        assert rec["integrate"] == []
        assert rec["overlap"] == pytest.approx(1.0, rel=1e-12)
        # Numerov eigenvalue of linear (0, 0) on 2000 points
        assert rec["energy"] == pytest.approx(2.3381074103757413, rel=1e-12)
