import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from auxfield import oracle
from auxfield.afm import PotentialModel
from auxfield.errors import AuxFieldError, DomainError, NoBoundState, NumericalFailure
from auxfield.exact import QuantumNumbers
from auxfield.oracle import (RadialFunction, SolverConfig, numeric_observables,
                             solve_radial)
from auxfield.specfun import airy_zero
from auxfield.tables import oracle_state
import reference
from auxfield.observables import p2_p4_from_potential
from reference import numerov_assemble_banded

LINEAR = PotentialModel.linear()

# Energies of the 37 states the tables solve (default 20000-point grid),
# as the earlier two-sweep Numerov assembly gave them; exp k = 20 (2, 0) as
# its one solve on [0, 80] gives it, 1.4e-9 off the exact energy.
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
    ("exp", 20.0, 2, 0): -0.00869451607352125,
}


def _table_state(family, k, n, l):
    """(model, quantum numbers) of a TABLE_STATE_ENERGIES key."""
    return PotentialModel.from_name(family, k or None), QuantumNumbers(n, l)


def _nodes(f: RadialFunction) -> int:
    s = np.sign(f.values[1:])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


class TestLinearFamily:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_airy_zeros(self, n):
        f, _ = oracle_state(LINEAR, QuantumNumbers(n, 0))
        exact = -airy_zero(n)
        # 10x the worst error, 1.84e-12 at n = 8
        assert abs(f.energy - exact) / exact < 2e-11

    def test_node_counts(self):
        for n, l in [(0, 0), (3, 0), (2, 2), (5, 1)]:
            f, _ = oracle_state(LINEAR, QuantumNumbers(n, l))
            assert _nodes(f) == n

    def test_normalization(self):
        from scipy.integrate import simpson
        f, _ = oracle_state(LINEAR, QuantumNumbers(2, 1))
        assert simpson(f.values ** 2, x=f.grid) == pytest.approx(1.0, abs=1e-9)

    def test_observables_vs_closed_forms(self):
        f, obs = oracle_state(LINEAR, QuantumNumbers(0, 0))
        a0 = abs(airy_zero(0))
        # 10x the measured errors: 3.0e-12, 4.4e-12, 4.1e-12 and 7.8e-12
        assert obs.r_moments[2] == pytest.approx(8 * a0 ** 2 / 15, rel=3e-11)
        assert obs.p2 == pytest.approx(a0 / 3, rel=4.4e-11)
        assert obs.p4 == pytest.approx(a0 ** 2 / 5, rel=4.1e-11)
        assert obs.psi0_sq == pytest.approx(1 / (4 * math.pi), rel=7.8e-11)


class TestLogFamily:
    @pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (2, 0), (0, 2), (2, 2)])
    def test_virial_p2(self, n, l):
        _, obs = oracle_state(PotentialModel.logarithmic(), QuantumNumbers(n, l))
        assert obs.p2 == pytest.approx(2.0, abs=1e-6)

    def test_spectrum_ordering(self):
        log = PotentialModel.logarithmic()
        energies = [oracle_state(log, QuantumNumbers(n, 0))[0].energy for n in range(3)]
        assert energies[0] < energies[1] < energies[2]


class TestExponentialFamily:
    def test_published_energies(self):
        f, _ = oracle_state(PotentialModel.exponential(5.0), QuantumNumbers(0, 0))
        assert f.energy == pytest.approx(-0.550, abs=0.001)
        f, _ = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(2, 0))
        assert f.energy == pytest.approx(-0.009, abs=0.001)

    def test_near_threshold_state_resolved(self):
        # one solve on [0, 80], where V has reached the continuum; the
        # decaying tail past r = 80 is part of the state
        f, obs = oracle_state(PotentialModel.exponential(20.0), QuantumNumbers(2, 0))
        assert _nodes(f) == 2
        exact = reference.exp_s_energy(20.0, 2, 2.0 * math.sqrt(-f.energy))
        assert abs(f.energy - exact) <= 5e-9 * abs(exact)

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
        _, oobs = oracle_state(PotentialModel.exponential(10.0), QuantumNumbers(0, 0))
        assert obs.r_moments[2] / oobs.r_moments[2] == pytest.approx(1.136,
                                                                     abs=0.012)


class TestConvergenceAndConfig:
    def test_grid_convergence(self):
        for model, q in [(LINEAR, QuantumNumbers(0, 0)),
                         (PotentialModel.exponential(5.0), QuantumNumbers(0, 0))]:
            f1 = solve_radial(model, q)
            cfg = SolverConfig(r_max=2 * model.default_r_max(q), grid_points=40000)
            f2 = solve_radial(model, q, cfg)
            assert abs(f2.energy - f1.energy) < 1e-10

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(grid_points=100)
        with pytest.raises(DomainError):
            SolverConfig(r_max=-1.0)
        # an oversized grid is refused before anything is allocated
        # (1e8 points used to run 45 s before failing)
        for points in (2_000_001, 100_000_000):
            with pytest.raises(DomainError, match="2000000"):
                SolverConfig(grid_points=points)
        assert SolverConfig(grid_points=2_000_000).grid_points == 2_000_000

    def test_l1_origin_row_has_no_grid_error(self):
        # same r_max with a 4x finer step: the l = 1 row at the origin
        # (a[0] u[0] -> -u[1]/6) must not add an error beyond Numerov's
        v = PotentialModel.exponential(20.0)
        q = QuantumNumbers(0, 1)
        f1 = solve_radial(v, q)
        f2 = solve_radial(v, q, SolverConfig(r_max=v.default_r_max(q),
                                             grid_points=80000))
        assert abs(f2.energy - f1.energy) <= 1e-9 * abs(f1.energy)

    def test_table_state_energies_pinned(self):
        for (family, k, n, l), energy in TABLE_STATE_ENERGIES.items():
            f, _ = oracle_state(*_table_state(family, k, n, l))
            assert abs(f.energy - energy) <= 1e-9 * abs(energy), (family, k, n, l)

    def test_tail_mass_flagged(self):
        # a domain cut where V has not vanished must be rejected by
        # observables: exp k = 20 (0, 0) past its turning point r = 1.1, where
        # V = -1.0 and the tail holds 5e-5, and linear (0, 0) at r = 5
        from auxfield.errors import QuadratureFailure
        for v, r_max in [(PotentialModel.exponential(20.0), 3.0), (LINEAR, 5.0)]:
            f = solve_radial(v, QuantumNumbers(0, 0), SolverConfig(r_max=r_max))
            with pytest.raises(QuadratureFailure, match="tail mass"):
                numeric_observables(f, v)

    def test_state_cut_in_the_continuum_keeps_its_tail(self):
        # exp k = 20 (2, 0) cut at r = 60, where V = -1.7e-25, carries a tail
        # of mass 2.9e-5 and agrees with its solve on [0, 80].  The tail's
        # share of r^-1 and r^-2 is f(r_end) times its mass, an upper bound,
        # which for this tail puts <r^-1> 2.1e-7 high
        v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
        f, obs = oracle_state(v, q)
        cut = solve_radial(v, q, SolverConfig(r_max=60.0))
        assert cut.grid[-1] == 60.0 and cut.values[-1] ** 2 / (2 * cut.decay_rate(v)) > 1e-5
        cut_obs = numeric_observables(cut, v)
        assert abs(cut.energy - f.energy) <= 2e-9 * abs(f.energy)
        for key in (1, 2, 3, 4):
            assert abs(cut_obs.r_moments[key] - obs.r_moments[key]) <= 2e-9 * obs.r_moments[key]
        for key in (-2, -1):
            assert 0.0 < cut_obs.r_moments[key] - obs.r_moments[key] <= 3e-7 * obs.r_moments[key]
        for got, ref in [(cut_obs.p2, obs.p2), (cut_obs.p4, obs.p4)]:
            assert abs(got - ref) <= 2e-9 * ref


class TestVariationalConsistency:
    def test_afm_bounds_bracket_oracle(self):
        from auxfield.afm import AuxiliaryKind, afm_solve
        for n in range(4):
            for l in range(3):
                q = QuantumNumbers(n, l)
                f, _ = oracle_state(LINEAR, QuantumNumbers(n, l))
                lo = afm_solve(LINEAR, AuxiliaryKind.COULOMB, q).energy
                hi = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q).energy
                assert lo <= f.energy
                assert hi >= f.energy


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


@pytest.mark.parametrize("k,n", [(20.0, 2), (35.403505370140465, 3)])
def test_near_threshold_state_is_solved_once(monkeypatch, k, n):
    # one Sturm start and one corrector solve, on the default domain, where
    # the state is live up to the grid end and carries its tail
    calls = []
    for name in ("_sturm_start", "_solve_on_grid"):
        shipped = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, _f=shipped, _name=name: calls.append(_name) or _f(*args))
    v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
    f = solve_radial(v, q)
    assert calls == ["_sturm_start", "_solve_on_grid"]
    assert f.grid[-1] == v.default_r_max(q) and f.values[-1] != 0.0
    exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
    assert abs(f.energy - exact) <= 1e-7 * abs(exact)


def _exp_s_states():
    """Seeded exp S-states (k, n): the table's, the state the removed domain
    extension moved most, k = 2, two deep wells and 30 draws with k
    log-uniform on [2, 4e4] and n <= 15."""
    rng = np.random.default_rng(20261025)
    draws = [(float(math.exp(rng.uniform(math.log(2.0), math.log(4e4)))),
              int(rng.integers(0, 16))) for _ in range(30)]
    table = [(k, n) for family, k, n, l in TABLE_STATE_ENERGIES if family == "exp" and l == 0]
    return table + [(35.403505370140465, 3), (2.0, 0), (33265.0, 10), (8659.0, 5)] + draws


def test_exp_s_states_match_the_exact_energy():
    # 2 sqrt(k) is the (n+1)-th zero of J_nu and E = -nu^2/4.  Wells the
    # default grid resolves (phase step h sqrt(k) <= 0.1 at the bottom) hold
    # 3e-8, worst 2.2e-8 at k = 35.4 (3, 0); deeper wells keep Numerov's grid
    # error, worst 2.6e-5.  A state whose 2 sqrt(k) lies below the (n+1)-th
    # zero of J_0 does not exist
    regimes = {True: [], False: []}
    for k, n in _exp_s_states():
        v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
        if mpmath.besseljzero(0, n + 1) >= 2.0 * math.sqrt(k):
            with pytest.raises(NoBoundState):
                solve_radial(v, q)
            continue
        f = solve_radial(v, q)
        exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
        resolved = float(f.grid[1]) * math.sqrt(k) <= 0.1
        regimes[resolved].append((abs(f.energy - exact) / abs(exact), k, n))
    assert len(regimes[True]) >= 10 and len(regimes[False]) >= 10
    assert max(regimes[True]) <= (3e-8,), max(regimes[True])
    assert max(regimes[False]) <= (3e-5,), max(regimes[False])


def _sampled(grid):
    return RadialFunction(grid=grid, values=grid, energy=math.nan, q=QuantumNumbers(0, 0))


@pytest.mark.parametrize("points", [3, 4, 5, 6, 2000, 2001, 12001, 20000],
                         ids="uniform-{}".format)
def test_simpson_weights_match_scipy(points):
    from scipy.integrate import simpson
    rng = np.random.default_rng(points)
    x = np.linspace(0.0, 37.5, points)
    y = rng.random(points)
    ref = simpson(y, x=x)
    assert abs(_sampled(x).weights() @ y - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("points", [3, 4, 5, 6, 7, 8, 2000, 2001])
def test_simpson_weights_exact_on_quadratics(points):
    # Simpson is exact on cubics; Cartwright's last interval, for an even
    # count, on quadratics
    x = np.linspace(0.0, 2.5, points)
    y = 1.5 - 0.75 * x + 2.0 * x * x
    exact = 1.5 * 2.5 - 0.375 * 2.5 ** 2 + 2.0 * 2.5 ** 3 / 3.0
    assert abs(_sampled(x).weights() @ y - exact) <= 4e-15 * exact


@pytest.mark.parametrize("grid", [np.linspace(0.0, 6.0, 101) ** 2 / 6.0,
                                  np.linspace(6.0, 0.0, 101),
                                  np.array([0.0, 1.0, 2.0, 3.5]),
                                  np.linspace(0.0, 1.0, 2),
                                  np.array([0.0, 1.0, math.nan])])
def test_non_uniform_grid_is_refused(grid):
    from auxfield.overlaps import sample_radial
    with pytest.raises(DomainError):
        _sampled(grid)
    with pytest.raises(DomainError):
        sample_radial(np.exp, grid)


def _padded(f, grid):
    """f zero-padded to the grid that its own grid is a prefix of."""
    assert np.array_equal(f.grid, grid[:f.grid.shape[0]])
    values = np.zeros(grid.shape[0])
    values[:f.values.shape[0]] = f.values
    return RadialFunction(grid=grid, values=values, energy=f.energy, q=f.q)


def _assert_integrals_match_padded(v, q, f, grid):
    # norm, moments and the overlap with a trial state over the state's
    # own grid against the same integrals over the full grid
    from auxfield.afm import AuxiliaryKind
    from auxfield.overlaps import numeric_overlap
    from auxfield.tables import afm_trial_function
    full = _padded(f, grid)
    norm = f.weights() @ (f.values * f.values)
    ref = full.weights() @ (full.values * full.values)
    assert abs(norm - ref) <= 1e-15 * ref
    obs, obs_ref = numeric_observables(f, v), numeric_observables(full, v)
    for key, value in obs_ref.r_moments.items():
        assert abs(obs.r_moments[key] - value) <= 1e-15 * abs(value), key
    assert abs(obs.p2 - obs_ref.p2) <= 1e-15 * abs(obs_ref.p2)
    kind = AuxiliaryKind.COULOMB
    got = numeric_overlap(f, afm_trial_function(v, kind, q, f.grid))
    ref = numeric_overlap(full, afm_trial_function(v, kind, q, grid))
    assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("points", [2000, 2001, 20000])
def test_state_integrals_match_the_zero_padded_full_grid(points):
    # a state's grid ends at the first zero past its live rows; Simpson
    # over that grid gives the full grid's integrals of the padded state,
    # also when its length is even (Cartwright's last-interval correction)
    lengths = set()
    for family, k, n, l in [("linear", None, 2, 1), ("log", None, 0, 0),
                            ("exp", 20.0, 0, 1), ("exp", 20.0, 1, 0)]:
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        f = solve_radial(v, q, SolverConfig(grid_points=points))
        assert f.values.shape == f.grid.shape and f.values[-1] == 0.0
        assert f.grid.shape[0] < points
        lengths.add(f.grid.shape[0] % 2)
        _assert_integrals_match_padded(
            v, q, f, np.linspace(0.0, v.default_r_max(q), points))
    assert lengths == {0, 1}


def test_state_reaching_the_grid_end_keeps_the_whole_grid():
    # exp k = 20 (2, 0) is live up to the end of its domain, r = 80
    v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
    f = solve_radial(v, q)
    assert f.grid.shape[0] == SolverConfig().grid_points and f.values[-1] != 0.0
    _assert_integrals_match_padded(v, q, f, f.grid)


def _full_grid_start(w0, h, n):
    """Eigenvalue n of the 3-point Dirichlet matrix on the whole grid."""
    diag = w0[1:-1] + 2.0 / (h * h)
    off = np.full(diag.shape[0] - 1, -1.0 / (h * h))
    lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(n, n))
    return float(lam[0])


def _draws(seed, count):
    """Seeded (family, k, n, l, grid points): n <= 10, l <= 40, exp depths
    2-30 times critical, 2000, 8000 or 20000 points."""
    rng = np.random.default_rng(seed)
    critical = math.e ** 2 / 4.0
    states = []
    for i in range(count):
        family = ("linear", "log", "exp")[i % 3]
        n, l = int(rng.integers(0, 11)), int(rng.integers(0, 41))
        k = None
        if family == "exp":
            k = float(rng.uniform(2.0, 30.0) * critical * (2 * n + l + 1.5) ** 2)
        states.append((family, k, n, l, int(rng.choice([2000, 8000, 20000]))))
    return states


def _start_states():
    """Seeded (family, k, n, l, grid points): 150 draws plus three hard wells."""
    # two deep wells the default grid under-resolves, one near threshold
    return _draws(20261018, 150) + [("exp", 33265.0, 10, 3, 20000),
                                    ("exp", 8659.0, 5, 1, 20000),
                                    ("exp", 1.6, 0, 0, 20000)]


@pytest.fixture
def traced_start(monkeypatch):
    """Patch the oracle's start to log each call.

    An entry holds the start's value, the interior rows of its grid and
    the rows it bisected on that grid (``fine``) and on the stride-10
    guess grid (``guess``).  Each bisection is one dstebz call, intercepted
    where the oracle gets its LAPACK module, so that scipy's own
    eigh_tridiagonal, the tests' reference, stays untraced.
    """
    lapack = oracle._lapack()
    dstebz = lapack.dstebz
    shipped = oracle._sturm_start
    log = []

    def bisect(d, e, *args, **kwargs):
        # the off-diagonal is -1/step^2: the grid's own step or the guess's
        entry = log[-1]
        entry["fine" if -e[0] * entry["h"] ** 2 > 0.5 else "guess"].append(d.shape[0])
        return dstebz(d, e, *args, **kwargs)

    def start(w0, h, n):
        entry = {"h": h, "grid_rows": w0.shape[0] - 2, "fine": [], "guess": []}
        log.append(entry)
        entry["value"] = shipped(w0, h, n)
        return entry["value"]

    monkeypatch.setattr(oracle, "_lapack", lambda: SimpleNamespace(
        dgtsv=lapack.dgtsv, dstebz=bisect))
    monkeypatch.setattr(oracle, "_sturm_start", start)
    return log


def _solve_outcome(v, q, cfg):
    try:
        return solve_radial(v, q, cfg).energy
    except AuxFieldError as exc:
        return type(exc)


def _assert_solves_match_full_grid_start(monkeypatch, log, states):
    """The solve from the traced start equals the solve from the full-grid start.

    Equal means energies within 1e-11 relative or the same error class.
    Returns (log entry, full-grid start) for each start of the reference
    solves, which evaluate the traced start and discard it.
    """
    traced = oracle._sturm_start
    starts = []

    def full_grid_reference(w0, h, n):
        traced(w0, h, n)
        starts.append((log[-1], _full_grid_start(w0, h, n)))
        return starts[-1][1]

    for family, k, n, l, points in states:
        v = PotentialModel.from_name(family, k)
        q = QuantumNumbers(n, l)
        cfg = SolverConfig(grid_points=points)
        monkeypatch.setattr(oracle, "_sturm_start", traced)
        got = _solve_outcome(v, q, cfg)
        monkeypatch.setattr(oracle, "_sturm_start", full_grid_reference)
        ref = _solve_outcome(v, q, cfg)
        if isinstance(ref, float):
            assert isinstance(got, float), (family, k, n, l, points, got)
            assert abs(got - ref) <= 1e-11 * abs(ref), (family, k, n, l, points)
        else:
            assert got is ref, (family, k, n, l, points, got, ref)
    return starts


def test_rejected_starts_are_the_full_grid_start(monkeypatch, traced_start):
    # the solve from the shipped start agrees with the solve from the
    # full-grid start, and every start that ran a fine bisection is the
    # full-grid start itself; the deep wells fail the resolution gate, so
    # the identity covers at least that many starts
    states = _start_states()
    starts = _assert_solves_match_full_grid_start(monkeypatch, traced_start, states)
    assert len(starts) >= 153
    rejected = [(entry, full) for entry, full in starts if entry["fine"]]
    deep_wells = sum(1 for family, k, n, l, _ in states if family == "exp"
                     and k >= 2.0 * math.e ** 2 / 4.0 * (2 * n + l + 1.5) ** 2)
    assert len(rejected) >= deep_wells
    for entry, full in rejected:
        assert entry["fine"] == [entry["grid_rows"]], entry
        assert entry["value"] == full, entry


def _gate_states():
    """Seeded (family, k, n, l, grid points) over a wider range than the start set."""
    rng = np.random.default_rng(20261019)
    critical = math.e ** 2 / 4.0
    states = []
    for i in range(150):
        family = ("linear", "log", "exp")[i % 3]
        n, l = int(rng.integers(0, 41)), int(rng.integers(0, 61))
        k = None
        if family == "exp":
            k = float(rng.uniform(1.0, 40.0) * critical * (2 * n + l + 1.5) ** 2)
        states.append((family, k, n, l, int(rng.choice([2000, 5000, 8000, 20000]))))
    return states


def test_resolution_gate_matches_full_grid(monkeypatch, traced_start):
    # a start taken from the stride-10 guess must lead the corrector to the
    # same Numerov eigenvalue (or the same failure) as the full-grid start;
    # both sides of the gate are exercised
    starts = _assert_solves_match_full_grid_start(monkeypatch, traced_start,
                                                  _gate_states())
    assert any(not entry["fine"] for entry, _ in starts)
    assert any(entry["guess"] and entry["fine"] for entry, _ in starts)


def test_gate_rejects_a_misleading_guess(traced_start):
    # a one-point dip on a guess grid point: the stride-10 guess sees a
    # wide, deep well far below the real ground state; the gate rejects it
    # (rho = 0.16) and the start bisects the whole interior instead
    grid = np.linspace(0.0, 100.0, 2001)
    h = float(grid[1])
    w0 = (grid - 20.0) ** 2
    w0[200] = -200.0
    lam = oracle._sturm_start(w0, h, 0)
    full = _full_grid_start(w0, h, 0)
    assert 0.0 < full < 2.0  # the harmonic ground state, not the dip's
    [entry] = traced_start
    assert entry["guess"] == [199] and entry["fine"] == [1999], entry
    assert lam == full


def test_table_starts_bisect_only_the_guess_grid(traced_start):
    # guards against a silent fall-back to a full-grid bisection on the
    # table states: their stride-10 grid resolves them, so each start
    # bisects only that grid, about a tenth of the rows
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert len(traced_start) == 37  # one start per state
    for entry in traced_start:
        assert entry["fine"] == [], entry
        assert sum(entry["guess"]) <= 0.11 * entry["grid_rows"], entry


def test_tolerant_guess_keeps_its_level_and_decisions(monkeypatch):
    # the stride-10 guess is bisected only to 1e-10 of its grid's 3-point
    # scale 4/H^2, far below its O(H^2) distance from the Numerov
    # eigenvalue; it must lie within that tolerance of the machine-precision
    # guess, still be eigenvalue n of its grid, and lead to the same
    # resolution-gate and bound-state decisions; the full-grid count keeps
    # LAPACK's machine-precision default.  Every count is one dstebz call
    # with eigh_tridiagonal's arguments (range 2, il = iu = n + 1, order E),
    # intercepted where the oracle gets its LAPACK module
    lapack = oracle._lapack()
    dstebz = lapack.dstebz
    shipped = oracle._sturm_start
    calls, starts, starts_with_guess = [], [], []

    def bisect(d, e, rng, vl, vu, il, iu, tol, order):
        out = dstebz(d, e, rng, vl, vu, il, iu, tol, order)
        calls.append((d, e, (rng, vl, vu, il, iu, order), tol, out))
        return out

    def machine_precision(d, e, rng, vl, vu, il, iu, tol, order):
        return dstebz(d, e, rng, vl, vu, il, iu, 0.0, order)

    def start(w0, h, n):
        del calls[:]
        value = shipped(w0, h, n)
        assert calls
        for *_, select, _, _ in calls:
            assert select == (2, 0.0, 1.0, n + 1, n + 1, "E"), (n, select)
        guesses = [c for c in calls if c[3] > 0.0]
        assert len(guesses) <= 1 and all(c[3] == 0.0 for c in calls[len(guesses):])
        tol = 0.0
        if guesses:
            [(d, e, _, tol, out)] = guesses
            assert tol == pytest.approx(-4e-10 * e[0], rel=1e-12)  # e = -1/H^2
            lo, hi = max(n - 1, 0), min(n + 1, d.shape[0] - 1)
            lam = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                   select_range=(lo, hi))
            guess = float(out[1][0])
            # the direct call gives what eigh_tridiagonal gives at that tolerance
            assert guess == float(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                                   select_range=(n, n), tol=tol)[0])
            assert abs(guess - lam[n - lo]) <= tol, (n, guess, lam)
            assert all(guess > x for x in lam[:n - lo]), (n, guess, lam)
            assert all(guess < x for x in lam[n - lo + 1:]), (n, guess, lam)
            starts_with_guess.append(n)
        with monkeypatch.context() as exact:
            exact.setattr(oracle, "_lapack", lambda: SimpleNamespace(
                dgtsv=lapack.dgtsv, dstebz=machine_precision))
            reference = shipped(w0, h, n)
        # the gate takes the same branch: the guess, or the same full-grid start
        assert abs(value - reference) <= tol, (n, value, reference)
        starts.append((value, reference))
        return value

    monkeypatch.setattr(oracle, "_lapack", lambda: SimpleNamespace(
        dgtsv=lapack.dgtsv, dstebz=bisect))
    monkeypatch.setattr(oracle, "_sturm_start", start)
    states = [(family, k or None, n, l, SolverConfig().grid_points)
              for family, k, n, l in TABLE_STATE_ENERGIES] + _start_states()
    for family, k, n, l, points in states:
        v = PotentialModel.from_name(family, k)
        del starts[:], starts_with_guess[:]
        _solve_outcome(v, QuantumNumbers(n, l), SolverConfig(grid_points=points))
        assert starts, (family, k, n, l, points)
        # n <= 10 on at least 2000 points: every start has a stride-10 guess
        assert len(starts_with_guess) == len(starts), (family, k, n, l, points)
        if v.continuum_threshold is not None:
            for value, reference in starts:
                c = v.kinetic_2m
                assert ((value / c < v.continuum_threshold)
                        == (reference / c < v.continuum_threshold)), (family, k, n, l)


def test_corrector_assemblies_on_table_states(monkeypatch):
    # a start that lets the corrector wander shows as a repeatable count of
    # Numerov assemblies, not as timing noise (121 for the 37 solves)
    assemble = oracle._numerov_assemble
    calls = []

    def counted(*args):
        calls.append(None)
        return assemble(*args)

    monkeypatch.setattr(oracle, "_numerov_assemble", counted)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert len(calls) <= 130


def test_returned_vector_is_the_assembly_at_the_returned_energy(monkeypatch):
    # the corrector stops once its step is rounding noise and returns the
    # energy its last vector was assembled at, not that energy less the step
    assemble = oracle._numerov_assemble
    last = []

    def recorded(w, h, l, m):
        u = assemble(w, h, l, m)
        last[:] = [w.copy(), m, u.copy()]
        return u

    monkeypatch.setattr(oracle, "_numerov_assemble", recorded)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        v, q = _table_state(family, k, n, l)
        f = solve_radial(v, q)
        w, m, u = last
        w_at_energy = oracle._base_w(v, f.grid, q)[:w.size] - v.kinetic_2m * f.energy
        assert np.array_equal(w, w_at_energy), (family, k, n, l)
        scaled = f.values[:u.size] * (u[m] / f.values[m])
        assert np.allclose(scaled, u, rtol=1e-14, atol=0.0), (family, k, n, l)


def test_assembly_solves_its_numerov_system_in_place(monkeypatch):
    # dgtsv writes the solution into the tail of the vector it returns; were
    # that right-hand side ever copied, the vector would silently stay e_m
    assemble = oracle._numerov_assemble
    checked = []

    def checked_assemble(w, h, l, m):
        u = assemble(w, h, l, m)
        n, c = w.shape[0], h * h / 12.0
        coarse = np.nonzero(c * w[1:m + 1] > 0.5)[0]
        start = int(coarse[-1]) + 2 if coarse.size else 1
        assert not u[:start].any(), (h, l, m)
        a, b = 1.0 - c * w, 2.0 + 10.0 * c * w
        if start == 1 and l == 1:
            b[1] += 1.0 / 6.0
        i = np.arange(start, n - 1)
        terms = np.stack((a[i - 1] * u[i - 1], -b[i] * u[i], a[i + 1] * u[i + 1]))
        delta = (i == m).astype(float)
        scale = np.abs(terms).sum(axis=0) + delta
        assert np.all(np.abs(terms.sum(axis=0) - delta) <= 1e-12 * scale), (h, l, m)
        tail = (u[n - 2], -math.exp(math.sqrt(max(w[n - 1], 1e-30)) * h) * u[n - 1])
        assert abs(sum(tail)) <= 1e-12 * sum(map(abs, tail)), (h, l, m)
        checked.append(m)
        return u

    monkeypatch.setattr(oracle, "_numerov_assemble", checked_assemble)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert len(checked) >= len(TABLE_STATE_ENERGIES)


def _moment_sets(monkeypatch, f, v):
    """The eight integrals of f, with its p2 and p4, from the shipped
    product and from the per-moment reference; <V> and <V^2> as each
    passes them to the virial relations."""
    passed = []

    def virial(energy, mean_v, mean_v2, m):
        passed.append({"V": mean_v, "V2": mean_v2})
        return p2_p4_from_potential(energy, mean_v, mean_v2, m)

    monkeypatch.setattr(oracle, "p2_p4_from_potential", virial)
    monkeypatch.setattr(reference, "p2_p4_from_potential", virial)
    sets = []
    for observables in (numeric_observables, reference.numeric_observables_per_moment):
        obs = observables(f, v)
        sets.append({**obs.r_moments, **passed.pop(), "p2": obs.p2, "p4": obs.p4,
                     "psi0": obs.psi0_sq})
    return sets


def _assert_fused_moments_match(monkeypatch, f, v, case):
    """Each of the eight integrals within 1e-14 relative of the reference;
    p2 and p4, which the virial relations form from E, <V> and <V^2> with
    cancellation, within 1e-14 of the size of their terms."""
    got, ref = _moment_sets(monkeypatch, f, v)
    assert got["psi0"] == ref["psi0"], case
    for key in (-2, -1, 1, 2, 3, 4, "V", "V2"):
        assert abs(got[key] - ref[key]) <= 1e-14 * abs(ref[key]), (case, key)
    e, c = f.energy, 2.0 * v.mass
    terms = {"p2": c * (abs(e) + abs(ref["V"])),
             "p4": c * c * (e * e + 2.0 * abs(e * ref["V"]) + ref["V2"])}
    for key, size in terms.items():
        assert abs(got[key] - ref[key]) <= 1e-14 * size, (case, key)
    return got, ref


def test_fused_moments_match_per_moment_on_table_states(monkeypatch):
    for key in TABLE_STATE_ENERGIES:
        v = _table_state(*key)[0]
        got, ref = _assert_fused_moments_match(
            monkeypatch, oracle_state(*_table_state(*key))[0], v, key)
        for name in ("p2", "p4"):
            assert abs(got[name] - ref[name]) <= 1e-14 * abs(ref[name]), (key, name)


def test_fused_moments_match_per_moment_on_drawn_states(monkeypatch):
    families = set()
    for family, k, n, l, points in _draws(20261021, 90):
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        try:
            f = solve_radial(v, q, SolverConfig(grid_points=points))
        except AuxFieldError:
            continue
        _assert_fused_moments_match(monkeypatch, f, v, (family, k, n, l, points))
        families.add(family)
    assert families == {"linear", "log", "exp"}


def test_table_assemblies_solve_only_live_rows(monkeypatch):
    # guards against a return to full-grid assembly: past the live window
    # of each table state u is 0 and no row is assembled (0.565 of the
    # grid rows are)
    assemble = oracle._numerov_assemble
    rows = []

    def counted(w, h, l, m):
        rows.append(w.shape[0])
        return assemble(w, h, l, m)

    monkeypatch.setattr(oracle, "_numerov_assemble", counted)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert sum(rows) <= 0.6 * SolverConfig().grid_points * len(rows)


def test_table_states_store_only_live_rows(monkeypatch):
    # guards against a return to zero-padded full-grid states: the 37 table
    # states hold 0.541 of the grid points on average, and the trial states
    # of the log and exp tables are sampled on the oracle state's own grid
    from auxfield import tables
    points = [oracle_state(*_table_state(*key))[0].grid.shape[0]
              for key in TABLE_STATE_ENERGIES]
    assert sum(points) <= 0.6 * SolverConfig().grid_points * len(points)
    shipped = tables.afm_trial_function
    sampled = []

    def trial(v, kind, q, grid):
        sampled.append((v, q, grid))
        return shipped(v, kind, q, grid)

    monkeypatch.setattr(tables, "afm_trial_function", trial)
    for table_id in ("log-results", "exp-results"):
        tables.build_table(table_id)
    assert len(sampled) >= 30
    for v, q, grid in sampled:
        assert grid is oracle_state(v, q)[0].grid, (v, q)


def _state_outcome(v, q, cfg):
    """(state, observables) of a solve, or the error it raised."""
    try:
        f = solve_radial(v, q, cfg)
        return f, numeric_observables(f, v)
    except AuxFieldError as exc:
        return exc


def _off_by_grid_error(v, q, f, cfg):
    """Whether the energy of f, solved with cfg on the default domain,
    differs from a 160000-point solve on that domain by Numerov's h^4
    error: 16/15 of its step to a twice finer grid."""
    r_max, points = v.default_r_max(q), cfg.grid_points
    assert np.array_equal(f.grid, np.linspace(0.0, r_max, points)[:f.grid.shape[0]])
    finer = solve_radial(v, q, SolverConfig(r_max=r_max, grid_points=2 * points)).energy
    fine = solve_radial(v, q, SolverConfig(r_max=r_max, grid_points=160000)).energy
    return abs(f.energy - fine) <= 1.1 * abs(f.energy - finer)


def test_live_window_matches_full_system(monkeypatch):
    # past the live window |u| < e^-30 (about 9e-14) of its turning-point
    # value, the vector's own rounding noise, so the full-system solve
    # (every grid row, scipy's band solver) has the same energy to rounding
    # and the same moments to that noise.  The
    # one change of outcome: the full system fails the node check on deep
    # wells whose extra nodes all lie past the window, where h^2 W/12 > 1
    # lets the Numerov recursion oscillate; the windowed state is then
    # the level's Numerov eigenvalue, as its grid error shows
    changed = 0
    for family, k, n, l, points in _draws(20261020, 240):
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        cfg = SolverConfig(grid_points=points)
        got = _state_outcome(v, q, cfg)
        with monkeypatch.context() as full:
            full.setattr(oracle, "_LIVE_ACTION", math.inf)
            full.setattr(oracle, "_numerov_assemble", numerov_assemble_banded)
            ref = _state_outcome(v, q, cfg)
        case = (family, k, n, l, points, got, ref)
        if isinstance(ref, AuxFieldError) and not isinstance(got, AuxFieldError):
            assert isinstance(ref, NumericalFailure) and "nodes" in str(ref), case
            assert _nodes(got[0]) == n and _off_by_grid_error(v, q, got[0], cfg), case
            changed += 1
        elif isinstance(ref, AuxFieldError):
            assert type(got) is type(ref), case
        else:
            (f, obs), (f_ref, obs_ref) = got, ref
            assert abs(f.energy - f_ref.energy) <= 1e-14 * max(1.0, abs(f_ref.energy)), case
            for key, value in obs_ref.r_moments.items():
                assert abs(obs.r_moments[key] - value) <= 1e-12 * abs(value), (case, key)
            assert abs(obs.p2 - obs_ref.p2) <= 1e-12 * abs(obs_ref.p2), case
    assert changed > 0


@pytest.mark.parametrize("k,l", [(70076.0, 36), (52978.0, 39)])
def test_deep_well_ignores_tail_oscillation(k, l):
    # at 8000 points h^2 W/12 > 1 past the live window of these ground
    # states; the full system oscillates there and fails the node check
    v, q = PotentialModel.exponential(k), QuantumNumbers(0, l)
    f = solve_radial(v, q, SolverConfig(grid_points=8000))
    fine = solve_radial(v, q, SolverConfig(r_max=v.default_r_max(q), grid_points=160000))
    assert _nodes(f) == 0
    assert abs(f.energy - fine.energy) <= 1e-5 * abs(fine.energy)


def _positive_before_first_node(u):
    positive, negative = np.flatnonzero(u > 0.0), np.flatnonzero(u < 0.0)
    return positive.size > 0 and (negative.size == 0 or positive[0] < negative[0])


def test_oracle_vector_positive_before_first_node():
    # like the Airy, hydrogen and oscillator closed forms; the banded solve
    # alone gives u the sign of 1/(lambda - E), which depends on the start
    for family, k, n, l in TABLE_STATE_ENERGIES:
        f, _ = oracle_state(*_table_state(family, k, n, l))
        assert _positive_before_first_node(f.values), (family, k, n, l)
        if l == 0:
            assert f.slope_at_origin() > 0.0, (family, k, n, l)
    for v in (LINEAR, PotentialModel.logarithmic()):
        f = solve_radial(v, QuantumNumbers(2, 40))
        assert _positive_before_first_node(f.values), v
