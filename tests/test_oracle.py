import math

import mpmath
import numpy as np
import pytest

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
        # the oracle normalizes by the same Simpson rule: measured error 0.0
        assert simpson(f.values ** 2, x=f.grid) == pytest.approx(1.0, abs=1e-14)

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
        # 10x the worst error, 7.6e-9 at (0, 0)
        assert obs.p2 == pytest.approx(2.0, abs=8e-8)

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

    def test_non_integer_grid_points_refused(self):
        # np.linspace used to raise a bare TypeError for 3000.0 in the solve;
        # a numpy integer is an integer
        for points in (3000.0, float("nan"), "3000"):
            with pytest.raises(DomainError, match="grid_points must be an integer"):
                SolverConfig(grid_points=points)
        f = solve_radial(LINEAR, QuantumNumbers(0, 0), SolverConfig(grid_points=np.int64(3000)))
        assert f.energy == solve_radial(LINEAR, QuantumNumbers(0, 0),
                                        SolverConfig(grid_points=3000)).energy

    def test_l1_origin_row_has_no_grid_error(self):
        # same r_max with a 4x finer step: the l = 1 row at the origin
        # (a[0] u[0] -> -u[1]/6) must not add an error beyond Numerov's
        v = PotentialModel.exponential(20.0)
        q = QuantumNumbers(0, 1)
        f1 = solve_radial(v, q)
        f2 = solve_radial(v, q, SolverConfig(r_max=v.default_r_max(q),
                                             grid_points=80000))
        assert abs(f2.energy - f1.energy) <= 1e-9 * abs(f1.energy)

    @pytest.mark.pin
    def test_table_state_energies_pinned(self):
        for (family, k, n, l), energy in TABLE_STATE_ENERGIES.items():
            f, _ = oracle_state(*_table_state(family, k, n, l))
            assert abs(f.energy - energy) <= 1e-9 * abs(energy), (family, k, n, l)

    # The log S-state meshes are no reference: ln r is singular at the
    # origin, so they converge algebraically, and N and 1.25 N disagree by
    # 2.0e-11 to 3.3e-11 there (the oracle is 7.3e-10 to 2.2e-9 off them)
    _NOT_MESH_REFERENCES = {("log", 0.0, 0, 0), ("log", 0.0, 1, 0), ("log", 0.0, 2, 0)}

    def test_table_state_energies_against_the_mesh(self):
        # the oracle's error at its defaults, relative to max(1, |E|), under
        # about twice each family's worst: linear 4.3e-13 at (0, 0), log
        # 1.5e-12 at (2, 1) and exp 7.0e-11 at k = 20 (1, 0)
        bounds = {"linear": 1e-12, "log": 3e-12, "exp": 1.5e-10}
        no_reference = set()
        for key in TABLE_STATE_ENERGIES:
            v, q = _table_state(*key)
            level = reference.lagrange_mesh_level(v.v, v.mass, q, 2 * q.n + 120,
                                                  v.default_r_max(q))
            if not level.is_reference(None if v.continuum_threshold is None else 0.0):
                no_reference.add(key)
                continue
            f, _ = oracle_state(v, q)
            assert abs(f.energy - level.energy) <= bounds[key[0]] * max(1.0, abs(level.energy)), key
        assert no_reference == self._NOT_MESH_REFERENCES

    def test_tail_mass_flagged(self, monkeypatch):
        # a domain cut where V has not vanished is refused where the state
        # is made: exp k = 20 (0, 0) past its turning point r = 1.1, at r = 3,
        # where V = -1.0 and the tail holds 5e-5, and at r = 4, where
        # V = -0.37 and it holds 3.5e-7, and linear (0, 0) and (0, 1) at r = 5.
        # The rule reads V(r_end) off the solve's 2m V + l(l+1)/r^2, so each
        # solve still evaluates V once on its Numerov grid (the start's mesh
        # passes evaluate it on their own nodes, at most _MESH_CAP of them)
        calls, v_of = [], PotentialModel.v
        monkeypatch.setattr(PotentialModel, "v", lambda model, r: calls.append(r) or v_of(model, r))
        exp20 = PotentialModel.exponential(20.0)
        cases = [(exp20, 0, 3.0, ""), (exp20, 0, 4.0, "3.54e-07 "),
                 (LINEAR, 0, 5.0, "9.39e-05 "), (LINEAR, 1, 5.0, "")]
        for v, l, r_max, mass in cases:
            with pytest.raises(NumericalFailure, match=f"tail mass {mass}"):
                solve_radial(v, QuantumNumbers(0, l), SolverConfig(r_max=r_max))
        on_grid = [r for r in calls if r.shape[0] == SolverConfig().grid_points - 1]
        assert len(on_grid) == len(cases)
        assert all(r.shape[0] <= oracle._MESH_CAP for r in calls if r.shape[0] != on_grid[0].shape[0])

    def test_state_cut_in_the_continuum_keeps_its_tail(self):
        # exp k = 20 (2, 0) cut at r = 60, where V = -1.7e-25, carries a tail
        # of mass 2.9e-5 and agrees with its solve on [0, 80].  The tail's
        # share of r^-1 and r^-2 is f(r_end) times its mass, an upper bound,
        # which for this tail puts <r^-1> 2.1e-7 high
        v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
        f, obs = oracle_state(v, q)
        cut = solve_radial(v, q, SolverConfig(r_max=60.0))
        assert cut.grid[-1] == 60.0 and cut.values[-1] ** 2 / (2 * cut.kappa) > 1e-5
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
    # one mesh start and one corrector solve, on the default domain, where
    # the state is live up to the grid end and carries its tail
    calls = []
    for name in ("_mesh_start", "_solve_on_grid"):
        shipped = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, _f=shipped, _name=name: calls.append(_name) or _f(*args))
    v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
    f = solve_radial(v, q)
    assert calls == ["_mesh_start", "_solve_on_grid"]
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


def test_table_states_converge_on_fine_grids():
    # a seeded draw of table states (3 linear, 2 log, 3 exp) solved at
    # 80000, 160000 and 320000 points: each converges, keeps its node count
    # and agrees with the default solve.  Over all 37 states the worst
    # differences, relative to max(1, |E|), at 80k / 160k / 320k points are
    # linear 6.2e-12 / 2.2e-11 / 3.6e-11, exp 7.0e-11 / 8.2e-11 / 7.9e-11
    # and log 2.3e-9 on every grid, the default log S state's own error; the
    # bounds are about 10x those.  Linear moves away from the default as the
    # grid gets finer: the residual's second difference rounds at
    # eps/(2m h^2), which grows as h shrinks, so the 80k bound stays tight
    bounds = {"linear": (6e-11, 2e-10, 4e-10), "log": (2e-8, 2e-8, 2e-8),
              "exp": (7e-10, 8e-10, 8e-10)}
    rng = np.random.default_rng(20261019)
    for family, count in (("linear", 3), ("log", 2), ("exp", 3)):
        keys = [key for key in TABLE_STATE_ENERGIES if key[0] == family]
        for i in rng.choice(len(keys), count, replace=False):
            v, q = _table_state(*keys[i])
            default = oracle_state(v, q)[0].energy
            for points, bound in zip((80000, 160000, 320000), bounds[family]):
                f = solve_radial(v, q, SolverConfig(grid_points=points))
                assert _nodes(f) == q.n, (keys[i], points)
                assert abs(f.energy - default) <= bound * max(1.0, abs(default)), (keys[i], points)


def test_exp_mean_potential_obeys_hellmann_feynman():
    # dE/dk = <dH/dk> = -<e^-r> = <V>/k with <V> = E - <p^2> (2m = 1): the
    # central difference of the solves at k (1 +- 1e-4) against the oracle's
    # own <V>.  On the 15 bound states below the measured worst is 2.4e-8
    # relative, at the near-threshold k = 20 (2, 0); all others are within 1.1e-8
    errors = []
    for k in (5.0, 20.0, 100.0, 1000.0):
        for n, l in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 2)]:
            v, q, delta = PotentialModel.exponential(k), QuantumNumbers(n, l), 1e-4 * k
            try:
                f = solve_radial(v, q)
            except NoBoundState:
                continue
            up, down = (solve_radial(PotentialModel.exponential(k + s), q).energy
                        for s in (delta, -delta))
            mean_v = f.energy - numeric_observables(f, v).p2
            errors.append((abs((up - down) / (2.0 * delta) - mean_v / k) * k / abs(mean_v), k, n, l))
    assert len(errors) == 15
    assert max(errors) <= (2.5e-7,), max(errors)


def _uniform_simpson(grid):
    return oracle._simpson(grid.shape[0], float(grid[1] - grid[0]))


@pytest.mark.parametrize("points", [3, 4, 5, 6, 2000, 2001, 12001, 20000],
                         ids="uniform-{}".format)
def test_simpson_weights_match_scipy(points):
    from scipy.integrate import simpson
    rng = np.random.default_rng(points)
    x = np.linspace(0.0, 37.5, points)
    y = rng.random(points)
    ref = simpson(y, x=x)
    assert abs(_uniform_simpson(x) @ y - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("points", [3, 4, 5, 6, 7, 8, 2000, 2001])
def test_simpson_weights_exact_on_quadratics(points):
    # Simpson is exact on cubics; Cartwright's last interval, for an even
    # count, on quadratics
    x = np.linspace(0.0, 2.5, points)
    y = 1.5 - 0.75 * x + 2.0 * x * x
    exact = 1.5 * 2.5 - 0.375 * 2.5 ** 2 + 2.0 * 2.5 ** 3 / 3.0
    assert abs(_uniform_simpson(x) @ y - exact) <= 4e-15 * exact


@pytest.mark.parametrize("grid, refused", [(np.linspace(0.0, 6.0, 101) ** 2 / 6.0, False),
                                           (np.linspace(6.0, 0.0, 101), True),
                                           (np.array([0.0, 1.0, 2.0, 3.5]), False),
                                           (np.linspace(0.0, 1.0, 2), False),
                                           (np.array([0.0, 1.0, math.nan]), True)],
                         ids=[f"grid{i}" for i in range(5)])
def test_non_uniform_grid_is_refused(grid, refused):
    # a state's nodes need only increase, its sampler giving the weights:
    # a decreasing or NaN grid is refused, directly and by sample_radial
    from auxfield.overlaps import sample_radial
    weights = np.ones_like(grid)
    for build in (lambda: RadialFunction(grid=grid, values=grid, weights=weights,
                                         energy=math.nan, q=QuantumNumbers(0, 0)),
                  lambda: sample_radial(np.exp, grid, weights)):
        if refused:
            with pytest.raises(DomainError):
                build()
        else:
            f = build()
            assert f.grid is grid and f.weights is weights


@pytest.mark.parametrize("shape", ["short-weights", "short-values", "2-d", "empty"])
def test_mismatched_state_arrays_are_refused(shape):
    grid = np.linspace(0.0, 1.0, 5)
    arrays = {"short-weights": (grid, grid, grid[:4]), "short-values": (grid, grid[1:], grid),
              "2-d": (grid[None], grid[None], grid[None]), "empty": (grid[:0],) * 3}[shape]
    with pytest.raises(DomainError):
        RadialFunction(grid=arrays[0], values=arrays[1], weights=arrays[2],
                       energy=math.nan, q=QuantumNumbers(0, 0))


def test_closed_form_sample_carries_no_tail():
    # a sample has kappa = inf: no tail, so its r-moments are the Simpson
    # sums, finite though it has no energy, and psi reads the closed form on
    # the grid, the given |psi(0)|^2's root at 0 and 0 past the end.  For an
    # S-state of the model it is integrated with, |psi(0)|^2 is the force
    # identity m <V'>/(2 pi), m a/(2 pi) for the Airy state of the linear model
    from auxfield.exact import linear_s_observables, linear_s_state
    from auxfield.overlaps import sample_radial
    state, norm = linear_s_state(LINEAR.m, LINEAR.a, 0), math.sqrt(4.0 * math.pi)
    grid = np.linspace(0.0, 20.0, 4001)
    f = sample_radial(lambda r: norm * state.wavefunction(r), grid, _uniform_simpson(grid))
    assert f.kappa == math.inf and f.tail_mass == 0.0
    obs, exact = numeric_observables(f, LINEAR), linear_s_observables(LINEAR.m, LINEAR.a, 0)
    for k, value in exact.r_moments.items():     # measured worst 1.3e-11
        assert abs(obs.r_moments[k] - value) <= 1.5e-10 * value, k
    assert abs(obs.psi0_sq - exact.psi0_sq) <= 3e-14 * exact.psi0_sq   # measured 2.1e-15
    r = f.grid[1:]
    assert np.allclose(f.psi(r), state.wavefunction(r), rtol=1e-15, atol=0.0)
    psi = f.psi(np.array([0.0, 20.0, 20.5, 1e300]), obs.psi0_sq)
    assert psi[0] == math.sqrt(obs.psi0_sq) and f.psi(np.zeros(1))[0] == 0.0
    assert psi[1] > 0.0 and psi[2] == psi[3] == 0.0


def _padded(f, grid):
    """f zero-padded to the grid that its own grid is a prefix of."""
    assert np.array_equal(f.grid, grid[:f.grid.shape[0]])
    values = np.zeros(grid.shape[0])
    values[:f.values.shape[0]] = f.values
    return RadialFunction(grid=grid, values=values, weights=_uniform_simpson(grid),
                          energy=f.energy, q=f.q, kappa=f.kappa)


def _assert_integrals_match_padded(v, q, f, grid):
    # norm, moments and the overlap with a trial state over the state's
    # own grid against the same integrals over the full grid
    from auxfield.afm import AuxiliaryKind, afm_solve
    from auxfield.overlaps import numeric_overlap, sample_radial
    full = _padded(f, grid)
    norm = f.weights @ (f.values * f.values)
    ref = full.weights @ (full.values * full.values)
    assert abs(norm - ref) <= 1e-15 * ref
    obs, obs_ref = numeric_observables(f, v), numeric_observables(full, v)
    for key, value in obs_ref.r_moments.items():
        assert abs(obs.r_moments[key] - value) <= 1e-15 * abs(value), key
    assert abs(obs.p2 - obs_ref.p2) <= 1e-15 * abs(obs_ref.p2)
    trial = afm_solve(v, AuxiliaryKind.COULOMB, q).scale.radial(q)
    got = numeric_overlap(f, sample_radial(trial, f.grid, f.weights))
    ref = numeric_overlap(full, sample_radial(trial, grid, full.weights))
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


def test_s_state_psi0_is_the_force_identity():
    # |psi(0)|^2 = m <V'>/(2 pi), u^2 V' -> 0 at the origin: linear S-states are
    # m a/(2 pi) (measured within 8.9e-16), and the log S-states, whose default
    # 5-point slope u'(0)^2/(4 pi) was 3.2e-6 off, agree with that slope on
    # 320000 points within 2.2e-8, its own O(h^2) error
    for n in range(9):
        obs = oracle_state(LINEAR, QuantumNumbers(n, 0))[1]
        assert abs(obs.psi0_sq - LINEAR.m * LINEAR.a / (2 * math.pi)) <= 1e-11 * obs.psi0_sq, n
    log = PotentialModel.logarithmic()
    for n in range(3):
        obs = oracle_state(log, QuantumNumbers(n, 0))[1]
        f = solve_radial(log, QuantumNumbers(n, 0), SolverConfig(grid_points=320000))
        u, h = f.values, float(f.grid[1])
        slope = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
        assert abs(obs.psi0_sq - slope ** 2 / (4 * math.pi)) <= 1e-7 * obs.psi0_sq, n


@pytest.mark.pin
def test_exp_s_state_psi0_matches_the_bessel_solution():
    # u(r) = J_nu(2 sqrt(k) e^(-r/2)) is the exact S-state (reference.exp_s_psi0_sq).
    # Measured relative errors of m <V'>/(2 pi) on the default grid: k = 5 (0, 0)
    # 3.7e-11; k = 20 (0, 0), (1, 0), (2, 0) 1.8e-10, 3.2e-10, 1.0e-9; k = 100 (0, 0)
    # 1.0e-9; k = 1000 (3, 0) 8.0e-8.  Each k is held at 10x its worst
    for k, levels, bound in [(5.0, [0], 4e-10), (20.0, [0, 1, 2], 1e-8),
                             (100.0, [0], 1e-8), (1000.0, [3], 8e-7)]:
        for n in levels:
            f, obs = oracle_state(PotentialModel.exponential(k), QuantumNumbers(n, 0))
            exact = reference.exp_s_psi0_sq(k, n, 2.0 * math.sqrt(-f.energy))
            assert abs(obs.psi0_sq - exact) <= bound * exact, (k, n, obs.psi0_sq, exact)


@pytest.mark.parametrize("points, bound", [(40, 3e-12), (200, 7e-11)])
def test_gauss_laguerre_rule_integrates_x_to_the_k_e_to_the_minus_x(points, bound):
    # sum w_i e^(-x_i) x_i^k = k! for k < 40, measured within 2.8e-13 (N = 40)
    # and 7.2e-12 (N = 200) relative, bounded at 10x; every weight is positive
    x, w = oracle.gauss_laguerre(points)
    assert x.shape == w.shape == (points,) and np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    for k in range(40):
        got = float(np.sum(w * np.exp(-x) * x ** k))
        assert abs(got - math.factorial(k)) <= bound * math.factorial(k), k


def test_gauss_sampled_state_has_no_origin_node():
    # the exact linear state sampled on Gauss-Laguerre nodes has no node at
    # r = 0, so every node is integrated and no r^-2 origin term is added;
    # its observables match the closed forms within 4.5e-14 (measured, n <= 20)
    from auxfield.exact import linear_s_observables
    from auxfield.tables import linear_exact_function
    for n in (0, 1, 5, 14, 20):
        f = linear_exact_function(n)
        assert f.grid[0] > 0.0
        obs, exact = numeric_observables(f, LINEAR), linear_s_observables(LINEAR.m, LINEAR.a, n)
        for k, value in exact.r_moments.items():
            assert abs(obs.r_moments[k] - value) <= 5e-13 * value, (n, k)
        for got, value in ((obs.psi0_sq, exact.psi0_sq), (obs.p2, exact.p2), (obs.p4, exact.p4)):
            assert abs(got - value) <= 5e-13 * value, n


def test_non_real_r_max_is_refused():
    # "5" used to raise a bare TypeError from the comparison with 0
    for r_max in ("5", 1j, [5.0]):
        with pytest.raises(DomainError, match="r_max"):
            SolverConfig(r_max=r_max)
    assert SolverConfig(r_max=np.float64(5.0)).r_max == 5.0 and SolverConfig(r_max=5).r_max == 5


def _level_states():
    """Seeded (family, k, n, l, grid points): 40 linear and log states with n, l
    <= 40, 30 exp wells up to k = 7e4 with l <= 40, 15 near-threshold exp
    S-states 5-50% deeper than the (n+1)-th zero of J_0 needs, and 30 states
    like perfbench's cold oracle commands: n, l <= 3, exp 2-8 times critical,
    2000 points."""
    rng = np.random.default_rng(20261031)
    critical = math.e ** 2 / 4.0
    states = [(("linear", "log")[i % 2], None, int(rng.integers(0, 41)), int(rng.integers(0, 41)),
               20000) for i in range(40)]
    for _ in range(30):
        n, l = int(rng.integers(0, 11)), int(rng.integers(0, 41))
        k = min(float(rng.uniform(2.0, 30.0) * critical * (2 * n + l + 1.5) ** 2), 7e4)
        states.append(("exp", k, n, l, 20000))
    for _ in range(15):
        n = int(rng.integers(0, 4))
        k = (float(mpmath.besseljzero(0, n + 1)) / 2.0) ** 2 * float(rng.uniform(1.05, 1.5))
        states.append(("exp", k, n, 0, 20000))
    for i in range(30):
        n, l = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        k = float(rng.uniform(2.0, 8.0)) * critical * (2 * n + l + 1.5) ** 2 if i % 3 == 2 else None
        states.append((("linear", "log", "exp")[i % 3], k, n, l, 2000))
    return states


def test_oracle_returns_level_n_from_a_start_below_level_n_plus_1(monkeypatch):
    # the full-grid Sturm count of the 3-point matrix is the level reference:
    # the converged energy lies strictly between its levels n - 1 and n + 1,
    # and so does the mesh start, below level n + 1
    shipped, starts = oracle._mesh_start, []
    monkeypatch.setattr(oracle, "_mesh_start",
                        lambda *args: starts.append(shipped(*args)) or starts[-1])
    states = _level_states()
    assert len(states) >= 100
    for family, k, n, l, points in states:
        v, q, case = PotentialModel.from_name(family, k), QuantumNumbers(n, l), (family, k, n, l, points)
        f = solve_radial(v, q, SolverConfig(grid_points=points))
        grid = np.linspace(0.0, v.default_r_max(q), points)
        w0, h = oracle._base_w(v, grid, q), float(grid[1])
        below = reference.sturm_level(w0, h, n - 1) if n > 0 else -math.inf
        above = reference.sturm_level(w0, h, n + 1)
        assert _nodes(f) == n and below < v.kinetic_2m * f.energy < above, case
        assert below < starts[-1] < above, case


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


@pytest.mark.pin
def test_returned_vector_is_the_assembly_at_the_returned_energy(monkeypatch):
    # the corrector stops once its step is rounding noise and returns the
    # energy its last vector was assembled at, not that energy less the step
    assemble = oracle._numerov_assemble
    last = []

    def recorded(w, h, l, m, kappa):
        u = assemble(w, h, l, m, kappa)
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

    def checked_assemble(w, h, l, m, kappa):
        u = assemble(w, h, l, m, kappa)
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
    """Each of the eight integrals, and |psi(0)|^2 = m <V'>/(2 pi) of an
    S-state, within 1e-14 relative of the reference; p2 and p4, which the
    virial relations form from E, <V> and <V^2> with cancellation, within
    1e-14 of the size of their terms."""
    got, ref = _moment_sets(monkeypatch, f, v)
    assert (got["psi0"] is None) == (ref["psi0"] is None) == (f.q.l > 0), case
    if f.q.l == 0:
        assert abs(got["psi0"] - ref["psi0"]) <= 1e-14 * ref["psi0"], case
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

    def counted(w, h, l, m, kappa):
        rows.append(w.shape[0])
        return assemble(w, h, l, m, kappa)

    monkeypatch.setattr(oracle, "_numerov_assemble", counted)
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert sum(rows) <= 0.6 * SolverConfig().grid_points * len(rows)


def test_table_states_store_only_live_rows(monkeypatch):
    # guards against a return to zero-padded full-grid states: the 37 table
    # states hold 0.541 of the grid points on average, and the trial states
    # of the log and exp tables are sampled on the oracle state's own nodes
    # and weights
    from auxfield import overlaps, tables
    states = [oracle_state(*_table_state(*key))[0] for key in TABLE_STATE_ENERGIES]
    points = [f.grid.shape[0] for f in states]
    assert sum(points) <= 0.6 * SolverConfig().grid_points * len(points)
    rules = {(id(f.grid), id(f.weights)) for f in states}
    shipped = overlaps.sample_radial
    sampled = []

    def trial(radial, grid, weights, **kwargs):
        sampled.append((grid, weights))
        return shipped(radial, grid, weights, **kwargs)

    monkeypatch.setattr(overlaps, "sample_radial", trial)
    for table_id in ("log-results", "exp-results"):
        tables.build_table(table_id)
    assert len(sampled) >= 30
    for grid, weights in sampled:
        assert (id(grid), id(weights)) in rules


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
            assert f.values[1] > 0.0, (family, k, n, l)
    for v in (LINEAR, PotentialModel.logarithmic()):
        f = solve_radial(v, QuantumNumbers(2, 40))
        assert _positive_before_first_node(f.values), v
