import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from auxfield import cli, oracle, tables
from auxfield.afm import LinearPotential, PotentialModel
from auxfield.cli import main
from auxfield.exact import QuantumNumbers
from auxfield.oracle import numeric_observables, solve_radial
from auxfield.tables import TABLE_IDS, oracle_state

import reference


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

    @pytest.mark.parametrize("argv", [
        ("solve", "linear", "quadratic", "400", "400"),
        ("solve", "log", "coulomb", "0", "150"),
        ("solve", "log", "coulomb", "150", "0"),
        ("solve", "log", "quadratic", "150", "0"),
        ("solve", "exp", "coulomb", "150", "0", "--k", "1e6"),
        ("solve", "log", "coulomb", "400", "0"),
        ("solve", "log", "quadratic", "400", "0"),
        ("solve", "exp", "coulomb", "400", "0", "--k", "1e9"),
        ("solve", "exp", "quadratic", "400", "0", "--k", "1e9"),
    ], ids=" ".join)
    def test_high_quantum_numbers_are_strict_finite_json(self, argv, capsys):
        # the moment sums cost O(n), and the trial state's x^l and its
        # normalization are one exponential, so neither leaves the float
        # range; that exponential rides through the Laguerre recurrence,
        # so L does not overflow where it underflows; the <V> quadrature
        # takes more panels for more nodes
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        assert _strict_loads(out)["l"] == int(argv[4])

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

    def test_strict_exits_1_on_a_missing_row_and_still_prints_the_table(
            self, monkeypatch, capsys):
        # a row whose state the solver did not give (computed None) misses
        # its tolerance: --strict exits 1, after the table is written
        rows = [tables.Row({"trial": "hy0", "column": "overlap"}, 0.99, "0.99", 0.003),
                tables.Row({"trial": "ho0", "column": "overlap"}, None, "0.99", 0.003)]
        monkeypatch.setitem(tables._BUILDERS, "eckart", lambda: (["trial", "column"], rows))
        code, out, err = _run(capsys, "table", "eckart", "--strict")
        assert (code, err) == (1, "")
        assert out == tables.format_rows(["trial", "column"], rows, "csv")
        assert out.splitlines()[-1].endswith(",false")
        code, out, _ = _run(capsys, "table", "eckart")
        assert code == 0 and out.splitlines()[-1].endswith(",false")

    def test_non_finite_cell_exits_70_in_json_and_prints_in_csv(self, monkeypatch, capsys):
        row = tables.Row({"trial": "hy0", "column": "overlap"}, math.nan, "0.99", 0.003)
        monkeypatch.setitem(tables._BUILDERS, "eckart", lambda: (["trial", "column"], [row]))
        code, out, err = _run(capsys, "table", "eckart", "--format", "json")
        assert (code, out) == (70, "")
        assert err == "auxfield: numeric failure: non-finite value in the table\n"
        code, out, _ = _run(capsys, "table", "eckart")
        assert (code, out) == (0, "trial,column,computed,published,diff,ok\n"
                                  "hy0,overlap,nan,0.99,nan,false\n")

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

    @pytest.mark.parametrize("family,aux,n,l,r_max,k", [
        pytest.param(family, aux, n, l, r_max, "300" if family == "exp" else None,
                     id=f"{family}-{aux}-{n}-{l}-{r_max}")
        for family, aux, (n, l), r_max in itertools.product(
            ["linear", "log", "exp"], ["coulomb", "quadratic", "exact"],
            [(0, 0), (1, 1), (2, 0), (3, 2)], ["1e100", "1e200", "1e300", "1.7e308"])
    ] + [
        # live up to the end of its domain (r = 80), past which its tail decays
        pytest.param("exp", "exact", 2, 0, "1e100", "20", id="exp-exact-2-0-1e100-k20"),
    ])
    def test_far_samples_are_finite_and_silent(self, family, aux, n, l, r_max, k, capsys):
        # every state has underflowed past r = 0; any overflow warning
        # would be an exception here, so exit 70
        depth = ("--k", k) if k else ()
        code, out, err = _run(capsys, "wavefunction", family, aux, str(n), str(l),
                              "--r-max", r_max, "--samples", "5", *depth)
        assert (code, err) == (0, "")
        psi = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(psi) == 5 and all(math.isfinite(p) for p in psi)
        assert psi[1:] == [0.0] * 4

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
        # exp k = 20 (2, 0) is solved on the domain its decay action fits,
        # [0, 394]; boxed at r = 30 it would lose 0.8% of its mass
        code, out, _ = _run(capsys, "wavefunction", "exp", "exact", "2", "0",
                            "--k", "20", "--samples", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        r = np.array([float(a) for a, _ in rows])
        psi = np.array([float(b) for _, b in rows])
        f, obs = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(2, 0))
        assert f.grid[-1] > 300.0
        # psi(0) is the root of |psi(0)|^2 by the force identity
        assert np.max(np.abs(psi - f.psi(r, obs.psi0_sq))) <= 1e-6
        # an --r-max beyond the oracle's domain reads 0 past the state's end
        code, out, _ = _run(capsys, "wavefunction", "log", "exact", "0", "1",
                            "--r-max", "200", "--samples", "5")
        assert code == 0
        assert out.splitlines()[-1] == "200,0"

    def test_exact_oracle_path_reads_zero_or_the_tail_past_the_state_end(
            self, monkeypatch, capsys):
        # log (0, 0) ends well before r = 60: psi is the Lagrange expansion of
        # its own ladder's state, solve_radial (the CLI's path, not the table
        # state's wave), below 3e-11 of its peak past the state's end
        # (measured 3.5e-12), not a solve on [0, 60]
        def samples(out):
            rows = [line.split(",") for line in out.splitlines()[1:]]
            return np.array([float(a) for a, _ in rows]), np.array([float(b) for _, b in rows])

        code, out, _ = _run(capsys, "wavefunction", "log", "exact", "0", "0",
                            "--r-max", "60")
        assert code == 0
        r, psi = samples(out)
        log = PotentialModel.logarithmic()
        f = solve_radial(log, QuantumNumbers(0, 0))
        obs = numeric_observables(f, log)
        assert f.grid[-1] < 60.0
        past = r > f.grid[-1]
        assert past.any() and np.max(np.abs(psi[past])) <= 3e-11 * np.max(psi)
        assert np.allclose(psi, f.psi(r, obs.psi0_sq), rtol=1e-5, atol=0.0)   # 6 digits printed
        # exp k = 20 (2, 0) reaches to r = 394:
        # on [0, 300] it is that one solve, whose decaying tail is positive up
        # to r = 200, where psi is 1e-11, and then below 1e-13 (the zeroed nodes)
        v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
        g = solve_radial(v, q)
        g_obs = numeric_observables(g, v)
        assert g.grid[-1] > 300.0
        solves = []
        monkeypatch.setattr(tables, "solve_radial",
                            lambda *a: solves.append(a) or solve_radial(*a))
        code, out, _ = _run(capsys, "wavefunction", "exp", "exact", "2", "0",
                            "--k", "20", "--r-max", "300")
        assert (code, len(solves)) == (0, 1)
        r, psi = samples(out)
        assert np.all(psi[(r > 80.0) & (r <= 200.0)] > 0.0)
        assert np.max(np.abs(psi[r > 250.0])) <= 1e-13
        assert np.allclose(psi, g.psi(r, g_obs.psi0_sq), rtol=1e-5, atol=0.0)

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
        assert rec["p2"] == pytest.approx(rec["energy"] / 3, rel=4e-11)   # measured 4.0e-12

    def test_exp_no_state_exit_2(self, capsys):
        code, out, _ = _run(capsys, "oracle", "exp", "1", "0", "--k", "5")
        assert code == 2
        assert json.loads(out)["error"] == "no-bound-state"

    def test_help_states_the_measured_range(self, capsys):
        # the l = 0 limit README measured, and the first rung above which a
        # level is refused at once, the last below the cap but one
        code, out, _ = _run(capsys, "oracle", "--help")
        text = " ".join(out.split())
        assert code == 0
        assert "At l = 0 linear and log answer every n <= 690" in text
        assert f"first mesh rung needs more than {oracle._LADDER[-3]} points" in text
        assert "refused at once (exit 70)" in text

    def test_readme_states_the_ladder_the_help_does(self):
        # README's mentions of that first rung, of the rung after it and of
        # the last rung, which passes the cap, follow the ladder as the help does
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text().split())
        first, second, last = oracle._LADDER[-3:]
        assert f"as far as a ladder from {first} nodes allows (ΣN³ of {first} and {second}," in text
        assert f"the phase bound), lies above {first} points is refused at once" in text
        assert f"`oracle linear 691 0` names {last} points" in text


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

    @pytest.mark.parametrize("argv", [
        ("solve", "exp", "coulomb", "0", "0"), ("solve", "exp", "quadratic", "0", "0"),
        ("wavefunction", "exp", "quadratic", "0", "0", "--samples", "3"),
        ("wavefunction", "exp", "coulomb", "0", "0", "--samples", "3")], ids=" ".join)
    def test_smallest_depth_has_no_bound_state(self, argv, capsys):
        # m k underflows to 0 at k = 5e-324: N^2/m/k overflows instead
        code, out, err = _run(capsys, *argv, "--k", "5e-324")
        assert (code, err) == (2, "")
        assert json.loads(out) == {"error": "no-bound-state", "reason": "state-not-allowed"}

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

    @pytest.mark.parametrize("samples", ["2000001", "1000000000000"])
    def test_too_many_samples_is_usage_error(self, samples, capsys):
        # refused before np.linspace allocates the grid
        code, out, err = _run(capsys, "wavefunction", "linear", "coulomb", "0",
                              "0", "--samples", samples)
        assert code == 64
        assert out == ""
        assert "--samples" in err and "2000000" in err

    @pytest.mark.parametrize("argv", [
        ("wavefunction", "exp", "quadratic", "0", "0", "--k", "20", "--r-max=-inf"),
        ("wavefunction", "linear", "coulomb", "0", "0", "--r-max", "inf"),
        ("wavefunction", "log", "exact", "0", "0", "--r-max", "nan"),
    ])
    def test_non_finite_r_max_is_usage_error(self, argv, capsys):
        code, out, err = _run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "auxfield: error: --r-max must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "linear", "coulomb", "99999999999999999999", "0"),
        ("solve", "linear", "coulomb", "10000000", "0"),
        ("solve", "log", "quadratic", "0", "100001"),
        ("solve", "exp", "coulomb", "100001", "0", "--k", "1e12"),
        ("oracle", "linear", "100001", "0"),
        ("wavefunction", "linear", "coulomb", "0", "100001"),
    ], ids=" ".join)
    def test_quantum_numbers_above_the_cap_are_usage_errors(self, argv, capsys):
        # the closed forms take time and memory linear in n + l (10^7 took
        # 47 s and 411 MB, and 10^20 overflowed a Gamma argument): refused
        # before any work
        code, out, err = _run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "above 100000" in err

    def test_quantum_numbers_at_the_cap_are_answered(self, capsys):
        code, out, err = _run(capsys, "solve", "linear", "quadratic", "0", "100000")
        assert code == 0, err
        assert _strict_loads(out)["l"] == 100000

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_is_numeric_failure(self, bad, monkeypatch, capsys):
        # V is non-finite at one node alone, node 14 of the first rung's 40,
        # on the domain fitted from the sound V: the oracle names that r
        # instead of failing later
        class Poisoned(LinearPotential):
            def _v(self, r):
                out = self.a * r
                if np.ndim(out) and out.shape[0] == 40:   # the first rung's nodes
                    out[13] = bad
                return out

        monkeypatch.setattr(PotentialModel, "from_name",
                            staticmethod(lambda name, k=None: Poisoned()))
        code, out, err = _run(capsys, "oracle", "linear", "0", "0",
                              "--grid-points", "2000")
        r_a, r_b = oracle._fit_domain(LinearPotential(), QuantumNumbers(0, 0))[:2]
        x = oracle.gauss_laguerre(40)[0]
        assert code == 70
        assert out == ""
        assert "numeric failure" in err
        assert f"non-finite at r = {r_a + (r_b - r_a) / x[-1] * x[13]:.6g}" in err

    @pytest.mark.pin
    @pytest.mark.parametrize("argv,points", [
        (("linear", "2000", "0", "--grid-points", "2000"), 4040),
        (("linear", "100000", "0"), 200040),
    ])
    def test_level_above_the_mesh_cap_is_refused_before_lapack(self, capfd, argv, points):
        # LAPACK writes its own error text to the process's stdout, which
        # capsys does not see; the refusal names the first rung's mesh, the
        # phase bound of the domain fitted at the WKB level (above 2n + 40 =
        # points), and that domain, before any mesh is built
        named = {4040: "4105.15 points on [0, 527.796]",
                 200040: "203865 points on [0, 7091.27]"}[points]
        code = main(["oracle", *argv])
        out, err = capfd.readouterr()
        assert (code, out) == (70, "")
        assert f"needs a Lagrange mesh of {named}, above the cap of 2000" in err
        assert "DSTEBZ" not in err and "LAPACK" not in err

    def test_deep_well_on_a_coarse_grid_is_answered(self, capsys):
        # the Numerov grid of 2000 points had h^2 w/12 > 1/2 at every point up
        # to the matching index; the mesh sets its own size and --grid-points
        # is ignored: within 1e-12 of the exact energy -nu^2/4, J_nu(2000) = 0
        # (measured 1.4e-15)
        import mpmath
        code, out, err = _run(capsys, "oracle", "exp", "0", "0", "--k", "1e6",
                              "--grid-points", "2000")
        assert code == 0, err
        energy = _strict_loads(out)["energy"]
        with mpmath.workdps(30):
            nu = mpmath.findroot(lambda t: mpmath.besselj(t, 2000), 2.0 * math.sqrt(-energy))
        assert abs(energy + float(nu) ** 2 / 4.0) <= 1e-12 * abs(energy)

    def test_oracle_r_max_is_an_unknown_flag(self, capsys):
        # the oracle fits its domain from V alone: the library keyword and the
        # oracle flag are gone, while wavefunction keeps --r-max, its sampling range
        with pytest.raises(TypeError, match="r_max"):
            solve_radial(LinearPotential(), QuantumNumbers(0, 0), r_max=1.0)
        code, out, err = _run(capsys, "oracle", "linear", "0", "0", "--r-max", "5")
        assert (code, out) == (64, "")
        assert "auxfield: error: unrecognized arguments: --r-max 5" in err
        assert "Traceback" not in err
        assert "--r-max" not in _run(capsys, "oracle", "--help")[1]
        assert "--r-max" in _run(capsys, "wavefunction", "--help")[1]

    def test_well_below_the_first_rung_is_numeric_failure(self, capsys):
        # at k = 1e48 the first rung's level, -k to rounding, lies nowhere above
        # 2m V on the WKB rows, so no domain can be fitted at it
        code, out, err = _run(capsys, "oracle", "exp", "0", "0", "--k", "1e48")
        assert (code, out) == (70, "")
        assert err == ("auxfield: numeric failure: the first rung's level n = 0, l = 0, at the "
                       "energy -1e+48, is nowhere above 2m V + l(l+1)/r^2\n")

    def test_fine_grid_oracle_converges(self, capsys):
        code, out, err = _run(capsys, "oracle", "exp", "1", "1", "--k", "20",
                              "--grid-points", "320000")
        assert code == 0, err
        energy = _strict_loads(out)["energy"]
        f, _ = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(1, 1))
        default = f.energy
        assert abs(energy - default) <= 1e-9 * abs(default)

    def test_fine_grids_stop_at_their_rounding_scale(self, capsys):
        # --grid-points is ignored, so the Numerov oracle's fine grids and
        # their rounding scale eps/(2m h^2) are gone: these commands answer
        # within 1e-13 of the exact energy (measured 9.5e-15 and 3.6e-14), and
        # exp 0 2 --k 20 and the log ground state at 320000 points are the
        # CLI's default solves, solve_radial
        def energy(*argv):
            code, out, err = _run(capsys, "oracle", *argv)
            assert code == 0, (argv, err)
            return _strict_loads(out)["energy"]

        for k, n, argv in [(20.0, 2, ("--grid-points", "160000")), (1.5, 0, ())]:
            e = energy("exp", str(n), "0", "--k", str(k), *argv)
            exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-e))
            assert abs(e - exact) <= 1e-13, (k, n)
        default = solve_radial(PotentialModel.exponential(20.0), QuantumNumbers(0, 2)).energy
        assert energy("exp", "0", "2", "--k", "20", "--grid-points", "320000") == default
        default = solve_radial(PotentialModel.logarithmic(), QuantumNumbers(0, 0)).energy
        assert energy("log", "0", "0", "--grid-points", "320000") == default

    @pytest.mark.parametrize("aux", ["coulomb", "quadratic"])
    @pytest.mark.parametrize("k", ["1e150", "1e200", "1e250", "1e308"])
    def test_deep_exp_well_is_numeric_failure(self, k, aux, capsys):
        # the moments (p4 ~ k^(4/3)) or the closed form itself leave the
        # float range; Coulomb at 1e150 and 1e200 still fits, since the
        # trial <V> is closed-form and no <V> integrand can overflow
        code, out, err = _run(capsys, "solve", "exp", aux, "0", "0", "--k", k)
        assert "internal error" not in err
        if (k, aux) in (("1e150", "coulomb"), ("1e200", "coulomb")):
            assert code == 0
            assert math.isfinite(_strict_loads(out)["mean_h"])
        else:
            assert code == 70
            assert out == ""
            assert "numeric failure" in err

    def test_nonpositive_r_max_is_usage_error(self, capsys):
        # wavefunction's sampling range, refused by the command, not by argparse
        code, out, err = _run(capsys, "wavefunction", "linear", "coulomb", "0",
                              "0", "--r-max", "-1")
        assert code == 64
        assert out == ""
        assert err == "auxfield: error: --r-max must be positive and finite\n"


_COLD_SCRIPT = """
import contextlib, io, json, sys
import auxfield
numpy = ["numpy" in sys.modules]
from auxfield import cli, tables
codes, polynomial = [], []
numpy.append("numpy" in sys.modules)
for argv in (["--help-units"],
             ["solve", "linear", "coulomb", "2", "1"],
             ["solve", "linear", "quadratic", "0", "3"],
             ["solve", "log", "coulomb", "1", "2"],
             ["solve", "log", "quadratic", "3", "0"],
             ["solve", "exp", "quadratic", "0", "0", "--k", "2"],
             ["solve", "linear", "cubic", "0", "0"],
             ["solve", "exp", "coulomb", "0", "0"],
             ["table", "no-such-table"],
             ["oracle", "log", "0", "0", "--grid-points", "100"],
             ["table", "overlap-hy", "--format", "json"],
             ["solve", "exp", "coulomb", "1", "2", "--k", "200"],
             ["solve", "exp", "quadratic", "0", "1", "--k", "20"],
             ["wavefunction", "linear", "exact", "1", "0"],
             ["wavefunction", "exp", "coulomb", "0", "0", "--k", "20"]):
    polynomial.append(any(m.startswith("numpy.polynomial") for m in sys.modules))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
    numpy.append("numpy" in sys.modules)
closed_form = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial.append(any(m.startswith("numpy.polynomial") for m in sys.modules))
f = auxfield.solve_radial(auxfield.PotentialModel.linear(), auxfield.QuantumNumbers(0, 0))
auxfield.numeric_observables(f, auxfield.PotentialModel.linear())
overlap = auxfield.numeric_overlap(f, f)
print(json.dumps({"codes": codes, "closed_form": closed_form,
                  "polynomial": polynomial, "numpy": numpy,
                  "oracle_modules": [m in sys.modules for m in (
                      "scipy.linalg._flapack", "scipy.linalg", "scipy._lib._array_api",
                      "numpy.f2py")],
                  "integrate": sorted(m for m in sys.modules
                                      if m.startswith("scipy.integrate")),
                  "energy": f.energy, "overlap": overlap}))
"""


_QUADRATURE_SCRIPT = """
import json, math, sys
import numpy as np
import auxfield
from auxfield.exact import linear_s_observables, linear_s_state
v = auxfield.PotentialModel.linear()
state = linear_s_state(v.m, v.a, 1)
grid = np.linspace(0.0, 20.0, 4001)
u = math.sqrt(4.0 * math.pi) * grid * state.wavefunction(grid)
weights = np.full(4001, 0.005 / 3.0)   # composite Simpson, step 0.005
weights[1:-1:2], weights[2:-1:2] = 4.0 * 0.005 / 3.0, 2.0 * 0.005 / 3.0
f = auxfield.RadialFunction(grid=grid, values=u, weights=weights, energy=state.energy,
                            q=auxfield.QuantumNumbers(1, 0))
obs = auxfield.numeric_observables(f, v)
exact = linear_s_observables(v.m, v.a, 1)
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "norm": auxfield.numeric_overlap(f, f),
                  "r1": [obs.r_moments[1], exact.r_moments[1]],
                  "psi0": [obs.psi0_sq, exact.psi0_sq]}))
"""


_IMPORT_ORDER_SCRIPT = """
import json, sys
import numpy as np
import auxfield
from auxfield import oracle
def solve():
    return auxfield.solve_radial(auxfield.PotentialModel.linear(),
                                 auxfield.QuantumNumbers(0, 0)).energy
if sys.argv[1] == "oracle-first":
    energy = solve()
    import scipy.linalg
else:
    import scipy.linalg
    energy = solve()
import scipy.linalg.lapack
flapack = sys.modules["scipy.linalg._flapack"]
# the tridiagonal system 2 x0 + x1 = 3, x0 + 2 x1 + x2 = 4, x1 + 2 x2 = 3
*_, x, info = scipy.linalg.lapack.dgtsv(np.ones(2), np.full(3, 2.0), np.ones(2),
                                        np.array([3.0, 4.0, 3.0]))
print(json.dumps({"energy": energy,
                  "shared": [oracle._lapack() is flapack,
                             scipy.linalg.lapack._flapack is flapack,
                             scipy.linalg.lapack.dgtsv is flapack.dgtsv],
                  "dgtsv": [x.tolist(), info]}))
"""


class TestColdStart:
    @pytest.mark.pin
    def test_closed_form_commands_do_not_import_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        rec = json.loads(proc.stdout)
        assert rec["codes"] == [0] * 5 + [2] + [64] * 4 + [0] * 5
        assert rec["closed_form"] == []
        # the imports, --help-units, the linear and log solves, the exp state
        # refused by its Lambert argument and the cold workload's four usage
        # errors run with math alone; the Laplace sum of the overlap table
        # is the first to load numpy
        assert rec["numpy"] == [False] * 12 + [True] * 5
        # every family's trial <V> is closed-form, so numpy.polynomial
        # loads neither at import nor for any solve, table or wavefunction
        assert rec["polynomial"] == [False] * 16
        # the oracle loads scipy's LAPACK extension alone, not the
        # scipy.linalg package with its array-API layer and numpy.f2py
        assert rec["oracle_modules"] == [True, False, False, False]
        # the oracle and numeric_overlap integrate without scipy.integrate
        assert rec["integrate"] == []
        assert rec["overlap"] == pytest.approx(1.0, rel=1e-12)
        # linear (0, 0) is -a_1, the first Airy zero, whatever --grid-points says
        assert rec["energy"] == pytest.approx(2.338107410459767, rel=1e-12)

    def test_quadrature_of_a_given_state_does_not_import_scipy(self):
        # only solve_radial loads scipy.linalg: numeric_observables and
        # numeric_overlap of a hand-built state (the exact linear (1, 0)
        # state on 4001 points) need numpy alone
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _QUADRATURE_SCRIPT], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        rec = json.loads(proc.stdout)
        assert rec["scipy"] == []
        assert rec["norm"] == pytest.approx(1.0, rel=1e-12)
        assert rec["r1"][0] == pytest.approx(rec["r1"][1], rel=1e-10)
        assert rec["psi0"][0] == pytest.approx(rec["psi0"][1], rel=1e-7)

    @pytest.mark.pin
    @pytest.mark.parametrize("order", ["oracle-first", "scipy-first"])
    def test_oracle_and_scipy_linalg_share_one_lapack_module(self, order):
        # the oracle's LAPACK extension is the one scipy.linalg uses, in
        # either import order, and scipy.linalg.lapack keeps working
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER_SCRIPT, order],
                              check=True, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        rec = json.loads(proc.stdout)
        assert rec["shared"] == [True, True, True]
        assert rec["dgtsv"] == [[1.0, 1.0, 1.0], 0]
        assert rec["energy"] == pytest.approx(2.338107410459767, rel=1e-12)
