import math

import numpy as np
import pytest

from auxfield import oracle
from auxfield.afm import PotentialModel
from auxfield.errors import AuxFieldError, DomainError, NoBoundState
from auxfield.exact import QuantumNumbers
from auxfield.oracle import (RadialFunction, SolverConfig, numeric_observables,
                             solve_radial)
from auxfield.specfun import airy_zero
from auxfield.tables import oracle_state

LINEAR = PotentialModel.linear()

# Energies of the 37 states the tables solve (default 20000-point grid),
# as the earlier two-sweep Numerov assembly gave them.
TABLE_STATE_ENERGIES = {
    ("linear", 0.0, 0, 0): 2.338107410462119,
    ("linear", 0.0, 1, 0): 4.087949444130844,
    ("linear", 0.0, 2, 0): 5.520559828095662,
    ("linear", 0.0, 3, 0): 6.7867080900716275,
    ("linear", 0.0, 4, 0): 7.944133587119943,
    ("linear", 0.0, 5, 0): 9.02265085333696,
    ("linear", 0.0, 0, 1): 3.36125452297568,
    ("linear", 0.0, 1, 1): 4.884451844097047,
    ("linear", 0.0, 2, 1): 6.20762329369246,
    ("linear", 0.0, 3, 1): 7.4056654355215406,
    ("linear", 0.0, 4, 1): 8.515234302554605,
    ("linear", 0.0, 5, 1): 9.557615912816061,
    ("linear", 0.0, 0, 2): 4.248182257153203,
    ("linear", 0.0, 1, 2): 5.629708376961398,
    ("linear", 0.0, 2, 2): 6.8688826894040504,
    ("linear", 0.0, 3, 2): 8.009702922677777,
    ("linear", 0.0, 4, 2): 9.07700305076061,
    ("linear", 0.0, 5, 2): 10.086459801785155,
    ("log", 0.0, 0, 0): 0.35118508918225294,
    ("log", 0.0, 1, 0): 1.1542954011931106,
    ("log", 0.0, 2, 0): 1.5964685348463492,
    ("log", 0.0, 0, 1): 0.9479941559592427,
    ("log", 0.0, 1, 1): 1.457799607413536,
    ("log", 0.0, 2, 1): 1.797795031131166,
    ("log", 0.0, 0, 2): 1.3201614614947563,
    ("log", 0.0, 1, 2): 1.6942856699058704,
    ("log", 0.0, 2, 2): 1.9693448601451606,
    ("exp", 5.0, 0, 0): -0.5503161029352848,
    ("exp", 10.0, 0, 0): -2.1824076313956193,
    ("exp", 10.0, 0, 1): -0.3340547192375848,
    ("exp", 10.0, 1, 0): -0.06963158683395972,
    ("exp", 20.0, 0, 0): -6.62410352661536,
    ("exp", 20.0, 0, 1): -2.7148175108952275,
    ("exp", 20.0, 1, 0): -1.4256208822926109,
    ("exp", 20.0, 0, 2): -0.4313647316577519,
    ("exp", 20.0, 1, 1): -0.1632651442792873,
    ("exp", 20.0, 2, 0): -0.00869451755377946,
}


def _nodes(f: RadialFunction) -> int:
    s = np.sign(f.values[1:])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


class TestLinearFamily:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_airy_zeros(self, n):
        f, _ = oracle_state("linear", 0.0, n, 0)
        exact = -airy_zero(n)
        assert abs(f.energy - exact) / exact < 1e-7

    def test_node_counts(self):
        for n, l in [(0, 0), (3, 0), (2, 2), (5, 1)]:
            f, _ = oracle_state("linear", 0.0, n, l)
            assert _nodes(f) == n

    def test_normalization(self):
        from scipy.integrate import simpson
        f, _ = oracle_state("linear", 0.0, 2, 1)
        assert simpson(f.values ** 2, x=f.grid) == pytest.approx(1.0, abs=1e-9)

    def test_observables_vs_closed_forms(self):
        f, obs = oracle_state("linear", 0.0, 0, 0)
        a0 = abs(airy_zero(0))
        assert obs.r_moments[2] == pytest.approx(8 * a0 ** 2 / 15, rel=1e-7)
        assert obs.p2 == pytest.approx(a0 / 3, rel=1e-7)
        assert obs.p4 == pytest.approx(a0 ** 2 / 5, rel=1e-7)
        assert obs.psi0_sq == pytest.approx(1 / (4 * math.pi), rel=1e-6)


class TestLogFamily:
    @pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (2, 0), (0, 2), (2, 2)])
    def test_virial_p2(self, n, l):
        _, obs = oracle_state("log", 0.0, n, l)
        assert obs.p2 == pytest.approx(2.0, abs=1e-6)

    def test_spectrum_ordering(self):
        energies = [oracle_state("log", 0.0, n, 0)[0].energy for n in range(3)]
        assert energies[0] < energies[1] < energies[2]


class TestExponentialFamily:
    def test_published_energies(self):
        f, _ = oracle_state("exp", 5.0, 0, 0)
        assert f.energy == pytest.approx(-0.550, abs=0.001)
        f, _ = oracle_state("exp", 20.0, 2, 0)
        assert f.energy == pytest.approx(-0.009, abs=0.001)

    def test_near_threshold_state_resolved(self):
        f, obs = oracle_state("exp", 20.0, 2, 0)
        assert _nodes(f) == 2
        assert f.grid[-1] > 150.0  # auto-extended domain

    def test_no_bound_state(self):
        with pytest.raises(NoBoundState):
            solve_radial(PotentialModel.exponential(5.0), QuantumNumbers(1, 0))

    def test_published_ratio_value(self):
        # R(r^2) for k=10 ground with the Coulomb trial state
        from auxfield.afm import AuxiliaryKind, afm_solve
        from auxfield.observables import afm_observable_set
        v = PotentialModel.exponential(10.0)
        q = QuantumNumbers(0, 0)
        sol = afm_solve(v, AuxiliaryKind.COULOMB, q)
        obs = afm_observable_set(v, sol, q)
        _, oobs = oracle_state("exp", 10.0, 0, 0)
        assert obs.r_moments[2] / oobs.r_moments[2] == pytest.approx(1.136,
                                                                     abs=0.012)


class TestConvergenceAndConfig:
    def test_grid_convergence(self):
        for model, q in [(LINEAR, QuantumNumbers(0, 0)),
                         (PotentialModel.exponential(5.0), QuantumNumbers(0, 0))]:
            f1 = solve_radial(model, q)
            cfg = SolverConfig(r_max=2 * float(f1.grid[-1]), grid_points=40000)
            f2 = solve_radial(model, q, cfg)
            assert abs(f2.energy - f1.energy) < 1e-10

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(grid_points=100)
        with pytest.raises(DomainError):
            SolverConfig(r_max=-1.0)

    def test_l1_origin_row_has_no_grid_error(self):
        # same r_max with a 4x finer step: the l = 1 row at the origin
        # (a[0] u[0] -> -u[1]/6) must not add an error beyond Numerov's
        v = PotentialModel.exponential(20.0)
        q = QuantumNumbers(0, 1)
        f1 = solve_radial(v, q)
        f2 = solve_radial(v, q, SolverConfig(r_max=float(f1.grid[-1]),
                                             grid_points=80000))
        assert abs(f2.energy - f1.energy) <= 1e-9 * abs(f1.energy)

    def test_table_state_energies_pinned(self):
        for (family, k, n, l), energy in TABLE_STATE_ENERGIES.items():
            f, _ = oracle_state(family, k, n, l)
            assert abs(f.energy - energy) <= 1e-9 * abs(energy), (family, k, n, l)

    def test_tail_mass_flagged(self):
        # a deliberately truncated domain must be rejected by observables
        from auxfield.errors import QuadratureFailure
        v = PotentialModel.exponential(20.0)
        f = solve_radial(v, QuantumNumbers(2, 0), SolverConfig(r_max=60.0))
        with pytest.raises(QuadratureFailure):
            numeric_observables(f, v)


class TestVariationalConsistency:
    def test_afm_bounds_bracket_oracle(self):
        from auxfield.afm import AuxiliaryKind, afm_solve
        for n in range(4):
            for l in range(3):
                q = QuantumNumbers(n, l)
                f, _ = oracle_state("linear", 0.0, n, l)
                lo = afm_solve(LINEAR, AuxiliaryKind.COULOMB, q).energy
                hi = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q).energy
                assert lo <= f.energy + 1e-6
                assert hi >= f.energy - 1e-6


@pytest.mark.parametrize("family", ["linear", "log"])
@pytest.mark.parametrize("n,l", [(0, 10), (2, 11), (0, 40), (3, 20), (5, 40)])
def test_high_l_bracketed_by_afm_bounds(family, n, l):
    # the unknowns of the banded solve must start where h^2 w/12 <= 1/2
    from auxfield.afm import AuxiliaryKind, afm_solve
    v = LINEAR if family == "linear" else PotentialModel.logarithmic()
    q = QuantumNumbers(n, l)
    f = solve_radial(v, q)
    assert type(f.energy) is float
    assert _nodes(f) == n
    assert afm_solve(v, AuxiliaryKind.COULOMB, q).energy <= f.energy
    assert f.energy <= afm_solve(v, AuxiliaryKind.QUADRATIC, q).energy


@pytest.mark.parametrize("points", [2000, 2001, 12001, 20000])
@pytest.mark.parametrize("spacing", ["uniform", "quadratic"])
def test_simpson_weights_match_scipy(points, spacing):
    from scipy.integrate import simpson
    rng = np.random.default_rng(points)
    x = np.linspace(0.0, 37.5, points)
    if spacing == "quadratic":
        x = x * x / 37.5
    y = rng.random(points)
    ref = simpson(y, x=x)
    assert abs(oracle._simpson_weights(x) @ y - ref) <= 1e-14 * abs(ref)


def _full_grid_start(w0, h, n):
    """Eigenvalue n of the 3-point Dirichlet matrix on the whole grid."""
    from scipy.linalg import eigh_tridiagonal
    diag = w0[1:-1] + 2.0 / (h * h)
    off = np.full(diag.shape[0] - 1, -1.0 / (h * h))
    lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(n, n))
    return float(lam[0])


def _window_states():
    """Seeded (family, k, n, l, grid points): 150 draws plus three hard wells."""
    rng = np.random.default_rng(20261018)
    critical = math.e ** 2 / 4.0
    states = []
    for i in range(150):
        family = ("linear", "log", "exp")[i % 3]
        n, l = int(rng.integers(0, 11)), int(rng.integers(0, 41))
        k = None
        if family == "exp":
            k = float(rng.uniform(2.0, 30.0) * critical * (2 * n + l + 1.5) ** 2)
        states.append((family, k, n, l, int(rng.choice([2000, 8000, 20000]))))
    # two deep wells the default grid under-resolves, one near threshold
    states += [("exp", 33265.0, 10, 3, 20000), ("exp", 8659.0, 5, 1, 20000),
               ("exp", 1.6, 0, 0, 20000)]
    return states


def test_windowed_start_matches_full_grid(monkeypatch):
    # the window changes only where the bisection runs: its start stays
    # within the bisection noise of the full-grid start, and the solve
    # from it agrees with the solve from the full-grid start
    windowed = oracle._sturm_start
    starts = []

    def full_grid_reference(w0, h, n):
        full = _full_grid_start(w0, h, n)
        starts.append((windowed(w0, h, n), full))
        return full

    for family, k, n, l, points in _window_states():
        v = PotentialModel.from_name(family, k)
        q = QuantumNumbers(n, l)
        cfg = SolverConfig(grid_points=points)
        outcomes = []
        for start in (windowed, full_grid_reference):
            monkeypatch.setattr(oracle, "_sturm_start", start)
            try:
                outcomes.append(solve_radial(v, q, cfg).energy)
            except AuxFieldError as exc:
                outcomes.append(type(exc))
        got, ref = outcomes
        if isinstance(ref, float):
            assert isinstance(got, float), (family, k, n, l, points, got)
            assert abs(got - ref) <= 1e-11 * abs(ref), (family, k, n, l, points)
        else:
            assert got is ref, (family, k, n, l, points, got, ref)
    assert len(starts) >= 153
    for lam, full in starts:
        assert abs(lam - full) <= 1e-8 * max(1.0, abs(full))


def test_window_grows_when_the_guess_misleads():
    # a one-point dip on a guess grid point: the stride-10 guess sees a wide,
    # deep well and sizes a window that ends before the real ground state;
    # the window's own eigenvalue then has allowed points beyond its end
    grid = np.linspace(0.0, 100.0, 2001)
    h = float(grid[1])
    w0 = (grid - 20.0) ** 2
    w0[200] = -200.0
    lam = oracle._sturm_start(w0, h, 0)
    full = _full_grid_start(w0, h, 0)
    assert 0.0 < full < 2.0  # the harmonic ground state, not the dip's
    assert abs(lam - full) <= 1e-8 * max(1.0, abs(full))


def test_windowed_start_bisects_under_half_the_grid(monkeypatch):
    # guards against a silent fall-back to the full grid on the table states;
    # the rows include the guess's
    import scipy.linalg
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal
    windowed = oracle._sturm_start
    rows, grid_rows = [], []

    def bisect(d, e, **kwargs):
        rows.append(d.shape[0])
        return eigh_tridiagonal(d, e, **kwargs)

    def start(w0, h, n):
        grid_rows.append(w0.shape[0] - 2)
        return windowed(w0, h, n)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bisect)
    monkeypatch.setattr(oracle, "_sturm_start", start)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(PotentialModel.from_name(family, k or None), QuantumNumbers(n, l))
    assert len(grid_rows) == 38  # exp k = 20 (2, 0) extends its domain once
    assert sum(rows) < 0.5 * sum(grid_rows)
