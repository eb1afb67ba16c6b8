import math

import mpmath
import numpy as np
import pytest

from auxfield import oracle, tables
from auxfield.afm import PotentialModel
from auxfield.errors import AuxFieldError, DomainError, NoBoundState, NumericalFailure
from auxfield.exact import QuantumNumbers
from auxfield.oracle import (RadialFunction, SolverConfig, numeric_observables,
                             solve_radial, solve_wave)
from auxfield.specfun import airy_zero
from auxfield.tables import oracle_state
import reference
from auxfield.observables import p2_p4_from_potential

LINEAR = PotentialModel.linear()

# Energies of the 37 states the tables solve, as the Lagrange-mesh oracle
# gives them: the linear and exp S-states within 2.3e-13 and 9.5e-15 of their
# exact energies, the l > 0 states within 2.5e-13 of the reference mesh.
TABLE_STATE_ENERGIES = {
    ("linear", 0.0, 0, 0): 2.3381074104597914,
    ("linear", 0.0, 1, 0): 4.087949444130944,
    ("linear", 0.0, 2, 0): 5.520559828095596,
    ("linear", 0.0, 3, 0): 6.786708090071779,
    ("linear", 0.0, 4, 0): 7.944133587120866,
    ("linear", 0.0, 5, 0): 9.022650853340966,
    ("linear", 0.0, 0, 1): 3.361254522976216,
    ("linear", 0.0, 1, 1): 4.88445184409654,
    ("linear", 0.0, 2, 1): 6.207623293692701,
    ("linear", 0.0, 3, 1): 7.405665435520135,
    ("linear", 0.0, 4, 1): 8.515234302558985,
    ("linear", 0.0, 5, 1): 9.557615912819815,
    ("linear", 0.0, 0, 2): 4.248182257153811,
    ("linear", 0.0, 1, 2): 5.629708376959159,
    ("linear", 0.0, 2, 2): 6.8688826894031205,
    ("linear", 0.0, 3, 2): 8.00970292267901,
    ("linear", 0.0, 4, 2): 9.077003050763503,
    ("linear", 0.0, 5, 2): 10.0864598017869,
    ("log", 0.0, 0, 0): 0.3511850869108472,
    ("log", 0.0, 1, 0): 1.1542953997550212,
    ("log", 0.0, 2, 0): 1.5964685336836868,
    ("log", 0.0, 0, 1): 0.9479941559589563,
    ("log", 0.0, 1, 1): 1.4577996074134514,
    ("log", 0.0, 2, 1): 1.7977950311323645,
    ("log", 0.0, 0, 2): 1.3201614614948243,
    ("log", 0.0, 1, 2): 1.6942856699066882,
    ("log", 0.0, 2, 2): 1.9693448601466104,
    ("exp", 5.0, 0, 0): -0.550316102944818,
    ("exp", 10.0, 0, 0): -2.182407631435662,
    ("exp", 10.0, 0, 1): -0.33405471923710667,
    ("exp", 10.0, 1, 0): -0.06963158683358206,
    ("exp", 20.0, 0, 0): -6.624103526770403,
    ("exp", 20.0, 0, 1): -2.7148175109041723,
    ("exp", 20.0, 1, 0): -1.4256208821929874,
    ("exp", 20.0, 0, 2): -0.43136473164413797,
    ("exp", 20.0, 1, 1): -0.16326514427015174,
    ("exp", 20.0, 2, 0): -0.00869451606130307,
}


def _table_state(family, k, n, l):
    """(model, quantum numbers) of a TABLE_STATE_ENERGIES key."""
    return PotentialModel.from_name(family, k or None), QuantumNumbers(n, l)


def _uniform_simpson(grid):
    return reference.simpson_weights(grid.shape[0], float(grid[1] - grid[0]))


def _nodes(f: RadialFunction) -> int:
    s = np.sign(f.values[1:])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


class TestLinearFamily:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_airy_zeros(self, n):
        f, _ = oracle_state(LINEAR, QuantumNumbers(n, 0))
        exact = -airy_zero(n)
        # 10x the worst error, 2.2e-14 at n = 4
        assert abs(f.energy - exact) / exact < 3e-13

    def test_node_counts(self):
        for n, l in [(0, 0), (3, 0), (2, 2), (5, 1)]:
            f, _ = oracle_state(LINEAR, QuantumNumbers(n, l))
            assert _nodes(f) == n

    def test_normalization(self):
        f, _ = oracle_state(LINEAR, QuantumNumbers(2, 1))
        # the state's Gauss weights give the eigenvector's norm: measured error 4.4e-16
        assert f.weights @ f.values ** 2 == pytest.approx(1.0, abs=1e-14)

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
            cfg = SolverConfig(r_max=2 * reference.reference_r_max(model, q), grid_points=40000)
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
        f2 = solve_radial(v, q, SolverConfig(r_max=reference.reference_r_max(v, q),
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
        # the oracle's error, relative to max(1, |E|), under about 10x each
        # family's worst: linear 7.0e-14, log 2.5e-13 (l > 0) and exp 1.7e-13
        # (the Numerov oracle's were 4.3e-13, 1.5e-12 and 7.0e-11)
        bounds = {"linear": 1e-12, "log": 3e-12, "exp": 2e-12}
        no_reference = set()
        for key in TABLE_STATE_ENERGIES:
            v, q = _table_state(*key)
            level = reference.lagrange_mesh_level(v.v, v.mass, q, 2 * q.n + 120,
                                                  reference.reference_r_max(v, q))
            if not level.is_reference(None if v.continuum_threshold is None else 0.0):
                no_reference.add(key)
                continue
            f, _ = oracle_state(v, q)
            assert abs(f.energy - level.energy) <= bounds[key[0]] * max(1.0, abs(level.energy)), key
        assert no_reference == self._NOT_MESH_REFERENCES

    def test_tail_mass_flagged(self):
        # a domain cut short by r_max is refused where the state is made, by the
        # mass past r_max that the mesh's last node gives, u_end^2 over twice the
        # WKB decay rate: exp k = 20 (0, 0) past its turning point r = 1.1, at
        # r = 3 and r = 4, linear (0, 0) and (0, 1) at r = 5, and exp k = 20
        # (2, 0) at r = 60, where V has reached the continuum but the mesh has no
        # tail to carry the rest.  Each estimate lies within a factor of 3 of the
        # mass past r_max of the reference Numerov state on a long domain
        # (measured 0.44 to 0.82 of it)
        import re
        exp20 = PotentialModel.exponential(20.0)
        cases = [(exp20, 0, 0, 3.0, 40.0), (exp20, 0, 0, 4.0, 40.0), (LINEAR, 0, 0, 5.0, 30.0),
                 (LINEAR, 0, 1, 5.0, 30.0), (exp20, 2, 0, 60.0, 600.0)]
        for v, n, l, r_max, long in cases:
            q = QuantumNumbers(n, l)
            match = f"tail mass .* beyond r_max = {r_max:g}"
            with pytest.raises(NumericalFailure, match=match) as info:
                solve_radial(v, q, SolverConfig(r_max=r_max))
            estimate = float(re.search(r"tail mass (\S+)", str(info.value)).group(1))
            ref = reference.numerov_state(v, q, long, 200001)
            past = ref.grid >= r_max
            mass = float(ref.weights[past] @ ref.values[past] ** 2)
            assert mass / 3.0 <= estimate <= 3.0 * mass, (v, q, r_max, estimate, mass)


    def test_state_cut_in_the_continuum_keeps_its_tail(self):
        # exp k = 20 (2, 0) cut at r = 60, where V = -1.7e-25, is refused for the
        # mass past 60 (test_tail_mass_flagged); solved on the domain the decay
        # action fits, [0, 394], the state keeps that tail: the mass of its
        # Lagrange functions past r = 60, 2.88e-5 by Simpson's rule, is within
        # 1.8e-13 of the reference Numerov state's on [0, 600] (bound 10x)
        v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
        f, _ = oracle_state(v, q)
        r = np.linspace(60.0, float(f.grid[-1]), 20001)
        mass = float(_uniform_simpson(r) @ (f.psi(r) * math.sqrt(4.0 * math.pi) * r) ** 2)
        ref = reference.numerov_state(v, q, 600.0, 200001)
        past = ref.grid >= 60.0
        ref_mass = float(_uniform_simpson(ref.grid[past]) @ ref.values[past] ** 2)
        assert f.grid[-1] > 300.0 and abs(mass - ref_mass) <= 2e-12


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


def _trace_mesh(monkeypatch):
    """Every mesh pass of the solves that follow, as (q, r_start, r_end, N); a pass made
    while _fit_domain fits the first rung's domain fails the test: that fit reads V alone."""
    level, fit, passes, fitting = oracle._mesh_level, oracle._fit_domain, [], []

    def traced_level(v, q, r_start, r_end, points, lo):
        assert not fitting, "_fit_domain solved a mesh"
        out = level(v, q, r_start, r_end, points, lo)
        passes.append((q, r_start, r_end, out[1].shape[0]))
        return out

    def traced_fit(*args):
        fitting.append(None)
        try:
            return fit(*args)
        finally:
            fitting.clear()

    monkeypatch.setattr(oracle, "_mesh_level", traced_level)
    monkeypatch.setattr(oracle, "_fit_domain", traced_fit)
    return passes


@pytest.mark.parametrize("k,n", [(20.0, 2), (35.403505370140465, 3)])
def test_near_threshold_state_is_solved_once(monkeypatch, k, n):
    # the WKB level lies far from these states (-1.7e-3 against -8.7e-3 at
    # k = 20; at k = 35.4 the rule puts it above the threshold, which stands
    # in), so the first rung's level fits the domain once more: every later
    # rung climbs on that one domain, which the state ends at, past r = 300;
    # it matches the exact energy within 10x the worst measured error,
    # 3.7e-14 at k = 35.4 (3, 0)
    passes = _trace_mesh(monkeypatch)
    v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
    f = solve_radial(v, q)
    domains = {(r_start, r_end) for _, r_start, r_end, _ in passes[1:]}
    assert len(domains) == 1 and f.grid[-1] == domains.pop()[1] > 300.0
    assert passes[0][2] != f.grid[-1]
    exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
    assert abs(f.energy - exact) <= 4e-13


@pytest.mark.parametrize("family,k,n,l,error", [
    ("exp", 100.0, 50, 0, NoBoundState), ("exp", 100.0, 7, 0, NoBoundState),
    ("exp", 5.0, 0, 40, NoBoundState), ("linear", None, 691, 0, NumericalFailure),
    ("log", None, 700, 0, NumericalFailure), ("linear", None, 100000, 0, NumericalFailure)])
def test_refused_before_any_mesh(monkeypatch, family, k, n, l, error):
    # the Langer-WKB count at the threshold refuses exp k = 100 S-levels above
    # it, less 1/2, plus 1 (the count is 5.56, the last bound level n = 5), and
    # exp k = 5 at l = 40 has no row below the threshold; the cap refuses a
    # state whose first two rungs would pass 2000 points (1776 and 2220 for
    # linear (691, 0)): each with no mesh solved
    passes = _trace_mesh(monkeypatch)
    with pytest.raises(error):
        solve_radial(PotentialModel.from_name(family, k), QuantumNumbers(n, l))
    assert passes == []


def test_level_above_the_count_but_within_one_is_left_to_the_mesh(monkeypatch):
    # exp k = 100 (6, 0) lies within 1 of the WKB count, 5.56: the mesh decides.
    # Its first rung lies above the threshold, so the domain widens at the
    # threshold as far as the cap allows, and the cap's finest rung, 1776
    # nodes, still lies above it
    passes = _trace_mesh(monkeypatch)
    with pytest.raises(NoBoundState):
        solve_radial(PotentialModel.exponential(100.0), QuantumNumbers(6, 0))
    assert [points for *_, points in passes] == [62, 1421, 1776]


@pytest.mark.parametrize("k,n,widened", [
    (1.45, 0, False), (1.455, 0, False), (7.6185773674741135, 1, True),
    (81.64900231690542, 5, True)])
def test_near_threshold_s_state_is_never_denied(monkeypatch, k, n, widened):
    # bound S-states within 3e-3 of their threshold k (E = -1.3e-6 to -8e-8).
    # k = 1.45 and 1.455 solve their first rung below the threshold, and the
    # first rungs of the refitted ladder on [0, 5.5e4], which miss the well
    # (+3e-9 at 191 and 238 nodes), climb on until it shows; the other two
    # solve it above the threshold and widen their domain.  Each matches the
    # exact energy within the ladder's 1e-10 (measured 1.2e-11 at most)
    passes = _trace_mesh(monkeypatch)
    f = solve_radial(PotentialModel.exponential(k), QuantumNumbers(n, 0))
    exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
    assert abs(f.energy - exact) <= 1e-10
    assert (passes[1][3] == 1421) == widened


def test_state_nearer_the_threshold_than_the_cap_resolves_is_refused(monkeypatch):
    # exp k = 1.4472, 1.001 times the first threshold 1.4458, has E = -1.05e-7;
    # the widened domain's ladder passes the cap below the threshold: a numeric
    # failure, not "no bound state"
    with pytest.raises(NumericalFailure, match="above the cap of 2000"):
        solve_radial(PotentialModel.exponential(1.4472422872274329), QuantumNumbers(0, 0))


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
    # 2 sqrt(k) is the (n+1)-th zero of J_nu and E = -nu^2/4.  The worst
    # relative error is 3.0e-11, at the near-threshold k = 35.4 (3, 0), where
    # E = -1.2e-3 and the error, 3.7e-14, is the eigensolver's rounding; the
    # bound is 10x that (the Numerov oracle's deep wells were 2.6e-5 off).  A
    # state whose 2 sqrt(k) lies below the (n+1)-th zero of J_0 does not exist
    errors = []
    for k, n in _exp_s_states():
        v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
        if mpmath.besseljzero(0, n + 1) >= 2.0 * math.sqrt(k):
            with pytest.raises(NoBoundState):
                solve_radial(v, q)
            continue
        f = solve_radial(v, q)
        exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
        errors.append((abs(f.energy - exact) / abs(exact), k, n))
    assert len(errors) >= 20
    assert max(errors) <= (3e-10,), max(errors)


def _mesh_frame(f):
    """(r_a, h) of a state on the nodes r_a + h x_i of an N-point Laguerre mesh."""
    x = oracle.gauss_laguerre(f.grid.shape[0])[0]
    h = float(f.grid[-1] - f.grid[0]) / float(x[-1] - x[0])
    return float(f.grid[0]) - h * float(x[0]), h


def test_table_states_converge_on_fine_grids():
    # every table state meets the ladder's tolerance against the next, finer
    # rung on its own domain too: |E(N) - E(1.25 N)| <= 1e-10 max(1, |E|);
    # the worst, relative to max(1, |E|), is 3.3e-11 for the log S-states,
    # which converge algebraically, and 1.4e-12 for every other state
    worst = {}
    for key in TABLE_STATE_ENERGIES:
        v, q = _table_state(*key)
        f = oracle_state(v, q)[0]
        r_a = _mesh_frame(f)[0]
        finer = oracle._mesh_level(v, q, r_a, float(f.grid[-1]),
                                   oracle._rung(f.grid.shape[0] + 1), q.n)[0][0] / v.kinetic_2m
        error = abs(finer - f.energy) / max(1.0, abs(f.energy))
        assert error <= oracle._MESH_TOL, (key, error)
        kind = "log S" if key[0] == "log" and q.l == 0 else "other"
        worst[kind] = max(worst.get(kind, 0.0), error)
    assert worst["other"] <= 1e-11, worst


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
    # a sample is its nodes, values and weights and nothing past them: its
    # r-moments are the Simpson sums, finite though it has no energy.  For an
    # S-state of the model it is integrated with, |psi(0)|^2 is the force
    # identity m <V'>/(2 pi), m a/(2 pi) for the Airy state of the linear model.
    # psi reads the nodes of a Lagrange-Laguerre mesh only: on the uniform grid
    # it is refused, and on the Gauss-Laguerre sample it is the closed form
    from auxfield.exact import linear_s_observables, linear_s_state
    from auxfield.overlaps import sample_radial
    from auxfield.tables import linear_exact_function
    state, norm = linear_s_state(LINEAR.m, LINEAR.a, 0), math.sqrt(4.0 * math.pi)
    grid = np.linspace(0.0, 20.0, 4001)
    f = sample_radial(lambda r: norm * state.wavefunction(r), grid, _uniform_simpson(grid))
    assert not hasattr(f, "kappa") and not hasattr(f, "tail_mass")
    obs, exact = numeric_observables(f, LINEAR), linear_s_observables(LINEAR.m, LINEAR.a, 0)
    for k, value in exact.r_moments.items():     # measured worst 1.3e-11
        assert abs(obs.r_moments[k] - value) <= 1.5e-10 * value, k
    assert abs(obs.psi0_sq - exact.psi0_sq) <= 3e-14 * exact.psi0_sq   # measured 2.1e-15
    with pytest.raises(DomainError, match="Lagrange-Laguerre mesh"):
        f.psi(grid[1:])
    g = linear_exact_function(0)
    r = g.grid
    assert np.allclose(g.psi(r), state.wavefunction(r), rtol=1e-15, atol=0.0)
    psi = g.psi(np.array([0.0, 20.0, 1e300]), obs.psi0_sq)
    assert psi[0] == math.sqrt(obs.psi0_sq) and g.psi(np.zeros(1))[0] == 0.0
    assert abs(psi[1]) <= 1e-15 and psi[2] == 0.0   # past the sample's end at r = 18.3


def _assert_integrals_match_the_sampled_psi(v, q, f, grid):
    """Norm, moments and the overlap with a trial state by the state's Gauss
    rule against the same integrals of its Lagrange functions (f.psi) sampled on
    ``grid`` and integrated by Simpson; returns the worst relative difference."""
    from auxfield.afm import AuxiliaryKind, afm_solve
    from auxfield.overlaps import numeric_overlap, sample_radial
    psi0 = numeric_observables(f, v).psi0_sq
    full = sample_radial(lambda r: f.psi(r, psi0) * math.sqrt(4.0 * math.pi), grid,
                         _uniform_simpson(grid), energy=f.energy, q=q)
    diffs = [abs(f.weights @ f.values ** 2 - full.weights @ full.values ** 2)]
    obs, obs_ref = numeric_observables(f, v), numeric_observables(full, v)
    diffs += [abs(obs.r_moments[k] - value) / abs(value) for k, value in obs_ref.r_moments.items()]
    diffs.append(abs(obs.p2 - obs_ref.p2) / abs(obs_ref.p2))
    trial = afm_solve(v, AuxiliaryKind.COULOMB, q).scale.radial(q)
    got = numeric_overlap(f, sample_radial(trial, f.grid, f.weights))
    ref = numeric_overlap(full, sample_radial(trial, grid, full.weights))
    diffs.append(abs(got - ref) / abs(ref))
    return max(diffs)


@pytest.mark.parametrize("points", [2000, 2001, 20000])
def test_state_integrals_match_the_zero_padded_full_grid(points):
    # a state's integrals by its own Gauss rule are those of its Lagrange
    # functions over the full uniform grid of the reference domain,
    # Simpson's rule, also for an even count (Cartwright's last interval): the
    # worst relative difference is Simpson's own error, 6.2e-6 at 2000 and 2001
    # points and 6.1e-9 at 20000 (log (0, 0), whose u'' is singular at the
    # origin); the bounds are 10x those
    bound = {2000: 7e-5, 2001: 7e-5, 20000: 7e-8}[points]
    for family, k, n, l in [("linear", None, 2, 1), ("log", None, 0, 0),
                            ("exp", 20.0, 0, 1), ("exp", 20.0, 1, 0)]:
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        f = solve_radial(v, q, SolverConfig(grid_points=points))
        grid = np.linspace(0.0, reference.reference_r_max(v, q), points)
        assert f.grid[-1] < grid[-1]
        worst = _assert_integrals_match_the_sampled_psi(v, q, f, grid)
        assert worst <= bound, (family, n, l, worst)


def test_state_reaching_the_grid_end_keeps_the_whole_grid():
    # exp k = 20 (2, 0) reaches to r = 394, past the reference domain (80):
    # the state keeps its whole domain, whose integrals match its Lagrange
    # functions on 20001 points over it (measured 3.1e-7: Simpson's error)
    v, q = PotentialModel.exponential(20.0), QuantumNumbers(2, 0)
    f = solve_radial(v, q)
    assert f.grid[-1] > reference.reference_r_max(v, q)
    grid = np.linspace(0.0, float(f.grid[-1]), 20001)
    assert _assert_integrals_match_the_sampled_psi(v, q, f, grid) <= 4e-6


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
    # m a/(2 pi) (measured within 8.9e-16), and the log S-states agree with the
    # 5-point slope u'(0)^2/(4 pi) of the reference Numerov state on 320000
    # points of the reference domain within 2.2e-8, the slope's own O(h^2) error
    for n in range(9):
        obs = oracle_state(LINEAR, QuantumNumbers(n, 0))[1]
        assert abs(obs.psi0_sq - LINEAR.m * LINEAR.a / (2 * math.pi)) <= 1e-11 * obs.psi0_sq, n
    log = PotentialModel.logarithmic()
    for n in range(3):
        obs = oracle_state(log, QuantumNumbers(n, 0))[1]
        q = QuantumNumbers(n, 0)
        f = reference.numerov_state(log, q, reference.reference_r_max(log, q), 320000)
        u, h = f.values, float(f.grid[1])
        slope = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
        assert abs(obs.psi0_sq - slope ** 2 / (4 * math.pi)) <= 1e-7 * obs.psi0_sq, n


@pytest.mark.pin
def test_exp_s_state_psi0_matches_the_bessel_solution():
    # u(r) = J_nu(2 sqrt(k) e^(-r/2)) is the exact S-state (reference.exp_s_psi0_sq).
    # Measured relative errors of m <V'>/(2 pi): k = 5 (0, 0) 4.9e-14; k = 20
    # (0, 0), (1, 0), (2, 0) 2.3e-14, 2.7e-14, 2.1e-15; k = 100 (0, 0) 1.6e-15;
    # k = 1000 (3, 0) 6.5e-15 (the Numerov oracle's were 3.7e-11 to 8.0e-8).
    # Each k is held at 10x its worst
    for k, levels, bound in [(5.0, [0], 5e-13), (20.0, [0, 1, 2], 3e-13),
                             (100.0, [0], 2e-14), (1000.0, [3], 7e-14)]:
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


def test_oracle_energy_lies_between_sturm_levels_n_minus_1_and_n_plus_1():
    # the Sturm count of the 3-point matrix on 20000 points of the state's own
    # domain is the level reference: the returned energy, level n of the mesh,
    # lies strictly between its levels n - 1 and n + 1, whatever the WKB level
    # that started the domain gave (far above level n in near-threshold wells)
    states = _level_states()
    assert len(states) >= 100
    for family, k, n, l, points in states:
        v, q, case = PotentialModel.from_name(family, k), QuantumNumbers(n, l), (family, k, n, l, points)
        f = solve_radial(v, q, SolverConfig(grid_points=points))
        grid = np.linspace(0.0, float(f.grid[-1]), 20000)
        w0 = np.zeros_like(grid)
        w0[1:] = v.kinetic_2m * v.v(grid[1:]) + q.big_l / grid[1:] ** 2
        h = float(grid[1])
        below = reference.sturm_level(w0, h, n - 1) if n > 0 else -math.inf
        above = reference.sturm_level(w0, h, n + 1)
        assert _nodes(f) == n and below < v.kinetic_2m * f.energy < above, case


def test_mesh_calls_on_table_states(monkeypatch):
    # a domain or ladder that wanders shows as a repeatable count of mesh
    # solves, not as timing noise.  One ladder per state (solve_radial, the CLI
    # path) takes 87 solves and 37 domain fits, sum N^3 (the dsyevr work)
    # 34.4e6.  The tables read 11 partial waves from one ladder each, fitted
    # at the wave's top level, and the three log S-states from their own
    # ladders: 42 solves, each rung giving every level of its wave, 14 fits and
    # sum N^3 27.9e6, 19% less
    passes, fits, fit = _trace_mesh(monkeypatch), [], oracle._fit_domain
    monkeypatch.setattr(oracle, "_fit_domain", lambda *args: fits.append(args[1]) or fit(*args))
    for family, k, n, l in TABLE_STATE_ENERGIES:
        solve_radial(*_table_state(family, k, n, l))
    assert (len(passes), len(fits)) == (87, 37)
    assert sum(points ** 3 for *_, points in passes) == 34_422_747
    passes.clear(), fits.clear(), tables._wave.cache_clear(), oracle_state.cache_clear()
    for family, k, n, l in TABLE_STATE_ENERGIES:
        oracle_state(*_table_state(family, k, n, l))
    assert (len(passes), len(fits)) == (42, 14)
    assert sum(points ** 3 for *_, points in passes) == 27_935_379


def test_table_states_from_their_wave_match_their_own_ladders():
    # a level read from its partial wave's ladder, on the domain fitted at the
    # wave's top level, is its own ladder's state within 1e-12 relative in E
    # and <r^2> (measured 2.2e-13 and 3.8e-13); the log S-states are their own
    # ladders' states
    for key in TABLE_STATE_ENERGIES:
        v, q = _table_state(*key)
        (f, obs), own = oracle_state(v, q), solve_radial(v, q)
        r2 = numeric_observables(own, v).r_moments[2]
        assert f.q == q and abs(f.energy - own.energy) <= 1e-12 * abs(own.energy), key
        assert abs(obs.r_moments[2] - r2) <= 1e-12 * r2, key


def test_levels_of_a_failing_wave_take_their_own_ladders(monkeypatch):
    # a wave whose ladder fails at its top level empties no lower level's rows:
    # each takes its own ladder, as outside the declared waves
    def failing(*args, **kwargs):
        raise NumericalFailure("injected")

    monkeypatch.setattr(tables, "solve_wave", failing)
    tables._wave.cache_clear(), oracle_state.cache_clear()
    try:
        v, q = _table_state("exp", 20.0, 0, 0)
        assert oracle_state(v, q)[0].energy == solve_radial(v, q).energy
    finally:
        tables._wave.cache_clear(), oracle_state.cache_clear()


def test_wave_returns_its_levels_in_order():
    # levels lo .. n, each with its quantum numbers and n of them its nodes
    wave = solve_wave(LINEAR, QuantumNumbers(4, 1), 2)
    assert [f.q for f in wave] == [QuantumNumbers(n, 1) for n in (2, 3, 4)]
    assert [_nodes(f) for f in wave] == [2, 3, 4]
    assert all(a.energy < b.energy for a, b in zip(wave, wave[1:]))
    for lo in (-1, 5, 1.0):
        with pytest.raises(DomainError, match="lowest level"):
            solve_wave(LINEAR, QuantumNumbers(4, 1), lo)


def _blas_threads():
    """The (get, set) thread count of scipy's OpenBLAS, skipping where it exposes none."""
    get, put = oracle._blas_threads()
    if not hasattr(get, "argtypes"):   # the oracle's pool-of-one stand-in, not a C function
        pytest.skip("this LAPACK build exposes no OpenBLAS thread count")
    return get, put


def test_blas_pool_is_restored_after_each_solve(monkeypatch):
    # a small mesh runs dsyevr on one OpenBLAS thread, and the pool is given
    # back after a table-state solve, after one refused past a mesh (a tail
    # beyond r_max) and after one whose dsyevr raises
    get, put = _blas_threads()
    pool, lapack, seen = get(), oracle._lapack(), []
    try:
        put(2)   # a pool to hold on any host
        oracle_state.cache_clear()
        oracle_state(*_table_state("exp", 20.0, 2, 0))
        assert get() == 2
        with pytest.raises(NumericalFailure, match="tail mass"):
            solve_radial(PotentialModel.exponential(20.0), QuantumNumbers(0, 0),
                         SolverConfig(r_max=3.0))
        assert get() == 2

        def failing(*args, **kwargs):
            seen.append(get())
            raise NumericalFailure("injected")

        monkeypatch.setattr(lapack, "dsyevr", failing)
        with pytest.raises(NumericalFailure, match="injected"):
            solve_radial(LINEAR, QuantumNumbers(0, 0))
        assert seen == [1] and get() == 2
    finally:
        put(pool)


def test_oracle_solves_without_a_blas_thread_api(monkeypatch):
    # where the LAPACK build exports neither thread-count API, the pool is
    # taken as one thread that no call changes
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    oracle._blas_threads.cache_clear()
    try:
        get, put = oracle._blas_threads()
        assert not hasattr(get, "argtypes") and get() == 1 and put(2) is None and get() == 1
        f = solve_radial(LINEAR, QuantumNumbers(1, 0))
        assert abs(f.energy + airy_zero(1)) <= 3e-13 * f.energy
    finally:
        oracle._blas_threads.cache_clear()


def test_large_rung_is_not_held(monkeypatch):
    # from 373 nodes up dsyevr keeps the whole pool, where two threads win:
    # the 298-node rung runs on one thread, the 373-node rung on two
    get, put = _blas_threads()
    pool, lapack, seen = get(), oracle._lapack(), []
    dsyevr = lapack.dsyevr

    def traced(ham, **kwargs):
        seen.append((ham.shape[0], get()))
        return dsyevr(ham, **kwargs)

    monkeypatch.setattr(lapack, "dsyevr", traced)
    try:
        put(2)
        for points in (298, 300):
            oracle._mesh_level(LINEAR, QuantumNumbers(0, 0), 0.0, 20.0, points, 0)
        assert seen == [(298, 1), (373, 2)] and get() == 2
    finally:
        put(pool)


@pytest.mark.pin
def test_returned_vector_is_the_assembly_at_the_returned_energy():
    # the returned state is eigenvector n of the mesh Hamiltonian assembled on
    # its own nodes, T/h^2 + 2m V(r_i) + l(l+1)/r_i^2, at the returned energy:
    # numpy's eigh of that matrix gives the level within 1e-12 max(1, |E|)
    # (measured 2.0e-13) and c_i = sqrt(w_i) u_i within the larger of 4 eps
    # max|H| over the level's gap and 1e-9 of its largest component, below
    # which the oracle zeroes a component
    for family, k, n, l in TABLE_STATE_ENERGIES:
        v, q = _table_state(family, k, n, l)
        f = solve_radial(v, q)
        h = _mesh_frame(f)[1]
        t = oracle._mesh(f.grid.shape[0])[0]
        ham = t / h / h + np.diag(v.kinetic_2m * v.v(f.grid) + q.big_l / f.grid ** 2)
        levels, vectors = np.linalg.eigh(ham)
        c, ref = np.sqrt(f.weights) * f.values, vectors[:, n]
        ref *= np.sign(ref @ c)
        gap = min(abs(levels[n] - levels[n + 1]), abs(levels[n] - levels[n - 1]) if n else math.inf)
        assert abs(levels[n] / v.kinetic_2m - f.energy) <= 1e-12 * max(1.0, abs(f.energy))
        noise = 4.0 * np.finfo(float).eps * np.max(np.abs(ham)) / gap
        noise = max(noise, 1e-9 * np.max(np.abs(c)))
        assert np.max(np.abs(c - ref)) <= 2.0 * noise, (family, k, n, l)


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


def test_table_ladders_climb_on_the_state_domain(monkeypatch):
    # guards against meshes on more than the state: every rung of a table
    # state's ladder after the first, whose level fits it, is solved on its
    # own domain [r_a, r_b], where the decay
    # action ends, so the last node holds a zeroed tail, and the zeroed tail
    # is at most a sixth of the nodes (measured 0.065 to 0.16)
    passes = _trace_mesh(monkeypatch)
    for key in TABLE_STATE_ENERGIES:
        v, q = _table_state(*key)
        f = solve_radial(v, q)
        (_, r_a, r_b), = {(q, r_start, r_end) for q, r_start, r_end, _ in passes[1:]}
        assert abs(r_b - f.grid[-1]) <= 1e-12 * r_b, key
        assert abs(r_a - _mesh_frame(f)[0]) <= 1e-12 * r_b, key
        assert f.values[-1] == 0.0 and np.mean(f.values == 0.0) <= 1.0 / 6.0, key
        passes.clear()


def test_table_states_store_only_live_rows(monkeypatch):
    # guards against a return to zero-padded full-grid states: the 37 table
    # states hold the 50 to 153 nodes of the ladder rungs they stop at, and
    # the trial states of the log and exp tables are sampled on the oracle
    # state's own nodes and weights
    from auxfield import overlaps, tables
    states = [oracle_state(*_table_state(*key))[0] for key in TABLE_STATE_ENERGIES]
    assert max(f.grid.shape[0] for f in states) <= 153
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


def test_level_holds_on_a_longer_finer_mesh():
    # past the domain's end, where the decay action reaches 36, u is below
    # e^-36 of its turning-point value, rounding: the level on a domain half as
    # long again, two rungs finer, agrees within 1e-9 max(1, |E|) over a seeded
    # draw of 240 states (measured worst 9.3e-11, a deep exp well at l = 23;
    # the log S-states, which converge algebraically, 2.7e-11)
    solved = 0
    for family, k, n, l, points in _draws(20261020, 240):
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        try:
            f = solve_radial(v, q, SolverConfig(grid_points=points))
        except AuxFieldError:
            continue
        r_a = _mesh_frame(f)[0]
        longer = oracle._mesh_level(v, q, r_a, r_a + 1.5 * (float(f.grid[-1]) - r_a),
                                    oracle._rung(oracle._rung(f.grid.shape[0] + 1) + 1), q.n)[0][0]
        assert abs(longer / v.kinetic_2m - f.energy) <= 1e-9 * max(1.0, abs(f.energy)), (
            family, k, n, l)
        solved += 1
    assert solved >= 200


@pytest.mark.parametrize("k,l", [(70076.0, 36), (52978.0, 39)])
def test_deep_high_l_well_matches_the_reference_mesh(k, l):
    # deep exp wells at high l: the ground state has no node and matches the
    # reference mesh of 120 points on the domain the state ends at, measured
    # 1.5e-15 (l = 36) and 3.0e-15 (l = 39) relative, rounding; bound 10x
    v, q = PotentialModel.exponential(k), QuantumNumbers(0, l)
    f = solve_radial(v, q)
    level = reference.lagrange_mesh_level(v.v, v.mass, q, 2 * q.n + 120, float(f.grid[-1]))
    assert _nodes(f) == 0 and level.is_reference(0.0)
    assert abs(f.energy - level.energy) <= 3e-14 * abs(level.energy)


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


@pytest.mark.pin
def test_l_positive_tail_moments_match_the_numerov_reference():
    # exp k = 17.26 (1, 1) decays slowly (E = -0.01); the Numerov oracle's tail
    # kept the decay rate of r_end, too fast for l > 0, and its <r^3> and <r^4>
    # were 4.3e-7 and 2.1e-6 off.  The mesh state against the reference Numerov
    # state on [0, 400] at h = 0.001: measured 1.1e-10 and 1.8e-10, bounded at 10x
    v, q = PotentialModel.exponential(17.26005587466796), QuantumNumbers(1, 1)
    obs = oracle_state(v, q)[1]
    ref = numeric_observables(reference.numerov_state(v, q, 400.0, 400001), v)
    for k, bound in ((3, 1.1e-9), (4, 1.8e-9)):
        assert abs(obs.r_moments[k] / ref.r_moments[k] - 1.0) <= bound, k


def test_log_s_states_approach_the_converged_mesh():
    # ln r is singular at the origin and the log S-states converge only
    # algebraically; the ladder's 1e-10 stop leaves them 1.1e-11, 1.1e-11 and
    # 4.6e-11 from the reference mesh on 500 points, at least 10x closer than
    # the Numerov oracle's 2.3e-9, 1.4e-9 and 1.2e-9
    log = PotentialModel.logarithmic()
    for n, parent in enumerate((2.3e-9, 1.4e-9, 1.2e-9)):
        q = QuantumNumbers(n, 0)
        level = reference.lagrange_mesh_level(log.v, log.mass, q, 400,
                                              reference.reference_r_max(log, q))
        assert level.error <= 2e-12, (n, level)
        assert abs(oracle_state(log, q)[0].energy - level.finer) <= parent / 10.0, n


@pytest.mark.parametrize("family, k, n, l, bound", [("log", None, 0, 0, 7e-8),
                                                     ("log", None, 2, 1, 3e-9),
                                                     ("exp", 20.0, 1, 1, 4e-10)])
def test_oracle_u_matches_the_numerov_reference(family, k, n, l, bound):
    # u(r) = sqrt(4 pi) r psi(r) of the oracle state, its Lagrange functions
    # between the nodes, against the reference Numerov state on 320000 points
    # of the reference domain, on (0, 12]: measured 7.2e-9, 2.4e-10 and 4.1e-11,
    # bounded at about 10x; linear interpolation on the nodes is 4e-4, 8.8e-3
    # and 1.4e-2 off
    v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
    f = oracle_state(v, q)[0]
    ref = reference.numerov_state(v, q, reference.reference_r_max(v, q), 320000)
    near = (ref.grid > 0.0) & (ref.grid <= 12.0)
    r = ref.grid[near]
    u = f.psi(r) * math.sqrt(4.0 * math.pi) * r
    assert np.max(np.abs(u - ref.values[near])) <= bound


def test_exact_energies_within_1e_12():
    # linear S-states against the Airy zeros (measured worst 2.3e-13) and exp
    # S-states, the table's and k = 100 (0, 0), 1000 (3, 0) and 20000 (0, 0),
    # against the Bessel zeros (measured worst 1.4e-13 relative; k = 20 (2, 0),
    # E = -8.7e-3, is 9.5e-15 off, 1.1e-12 of |E|, the eigensolver's rounding),
    # within 1e-12 max(1, |E|)
    for n in range(9):
        f = oracle_state(LINEAR, QuantumNumbers(n, 0))[0]
        assert abs(f.energy + airy_zero(n)) <= 1e-12 * max(1.0, f.energy), n
    states = [(k, n) for family, k, n, l in TABLE_STATE_ENERGIES if family == "exp" and l == 0]
    for k, n in states + [(100.0, 0), (1000.0, 3), (20000.0, 0)]:
        f = oracle_state(PotentialModel.exponential(k), QuantumNumbers(n, 0))[0]
        exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-f.energy))
        assert abs(f.energy - exact) <= 1e-12 * max(1.0, abs(exact)), (k, n)
