import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from auxfield.afm import AuxiliaryKind, PotentialModel, afm_solve
from auxfield.errors import DomainError, NoBoundState, NumericalFailure
from auxfield.exact import (QuantumNumbers, hydrogen_observables,
                            linear_s_observables)
from auxfield.observables import (afm_observable_set, eckart_bound,
                                  mean_hamiltonian, mean_potential,
                                  p2_p4_from_potential)
from auxfield.specfun import airy_zero
from auxfield.tables import oracle_state
import reference
from reference import power_law_moments, psi0_from_force, quadrature_mean_potential

LINEAR = PotentialModel.linear()
LOG = PotentialModel.logarithmic()


class TestAfmObservables:
    def test_psi0_ratio_is_two(self):
        q = QuantumNumbers(0, 0)
        sol = afm_solve(LINEAR, AuxiliaryKind.COULOMB, q)
        obs = afm_observable_set(LINEAR, sol, q)
        assert obs.psi0_sq == pytest.approx(1.0 / (2 * math.pi), rel=1e-13)
        exact = linear_s_observables(0.5, 1.0, 0)
        assert obs.psi0_sq / exact.psi0_sq == pytest.approx(2.0, rel=1e-13)

    def test_r2_quadratic_ratio(self):
        q = QuantumNumbers(0, 0)
        sol = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q)
        obs = afm_observable_set(LINEAR, sol, q)
        assert obs.r_moments[2] == pytest.approx(4 * 0.75 ** (4 / 3), rel=1e-13)
        exact = linear_s_observables(0.5, 1.0, 0)
        assert obs.r_moments[2] / exact.r_moments[2] == pytest.approx(0.935,
                                                                      abs=5e-4)

    def test_log_p2(self):
        for kind in AuxiliaryKind:
            q = QuantumNumbers(1, 1)
            sol = afm_solve(LOG, kind, q)
            obs = afm_observable_set(LOG, sol, q)
            assert obs.p2 == pytest.approx(2.0, rel=1e-13)


class TestMeanHamiltonian:
    def test_linear_table_values(self):
        cases = [(AuxiliaryKind.COULOMB, 0, 1.078),
                 (AuxiliaryKind.QUADRATIC, 1, 0.998),
                 (AuxiliaryKind.QUADRATIC, 0, 1.004)]
        for kind, n, want in cases:
            q = QuantumNumbers(n, 0)
            sol = afm_solve(LINEAR, kind, q)
            ratio = mean_hamiltonian(LINEAR, sol, q) / linear_s_observables(
                0.5, 1.0, n).mean_h
            assert ratio == pytest.approx(want, abs=5e-4)

    def test_ritz_sandwich(self):
        q = QuantumNumbers(0, 0)
        sol = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q)
        mh = mean_hamiltonian(LINEAR, sol, q)
        e0 = linear_s_observables(0.5, 1.0, 0).mean_h
        assert e0 <= mh <= sol.energy

    def test_closed_form_matches_quadrature(self):
        # <p^2> + <r> recomputed from the sampled trial density
        for kind in AuxiliaryKind:
            q = QuantumNumbers(1, 0)
            sol = afm_solve(LINEAR, kind, q)
            radial = sol.scale.radial(q)
            r_hi = 40.0 if kind is AuxiliaryKind.COULOMB else 12.0
            grid = np.linspace(0.0, r_hi, 120001)
            u = grid * radial(grid)
            # u' by the 5-point central difference (2nd order at the ends)
            h = grid[1]
            du = np.gradient(u, h, edge_order=2)
            du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
            mean_r = simpson(u * u * grid, x=grid)
            mean_p2 = simpson(du * du, x=grid)
            closed = mean_hamiltonian(LINEAR, sol, q)
            assert mean_p2 + mean_r == pytest.approx(closed, rel=1e-8)

    def test_log_family_uses_quadrature(self):
        q = QuantumNumbers(0, 0)
        sol = afm_solve(LOG, AuxiliaryKind.COULOMB, q)
        mh = mean_hamiltonian(LOG, sol, q)
        # <ln r> for the hydrogenic ground density: psi(3) - ln(2 gamma)
        gam = sol.scale.eta
        mean_ln = (1.5 - 0.5772156649015329) - math.log(2.0 * gam)
        assert mh == pytest.approx(0.5 + mean_ln, rel=1e-9)



def _quad_mean_potential(v, sol, q):
    # adaptive-quadrature reference on the same [0, r_hi]
    radial = sol.scale.radial(q)
    r_hi = reference.trial_cutoff(sol.scale, q)

    def integrand(r):
        return float(v.v(r)) * float(radial(r)) ** 2 * r * r

    val, _ = quad(integrand, 0.0, r_hi, limit=200, epsabs=1e-13, epsrel=1e-11)
    return val


class TestMeanPotential:
    """The Gauss-Legendre reference (``reference.quadrature_mean_potential``)
    that the closed-form trial <V> is held to."""

    @pytest.mark.parametrize("v", [LOG] + [PotentialModel.exponential(k)
                                           for k in (5.0, 50.0, 1000.0)],
                             ids=["log", "exp5", "exp50", "exp1000"])
    @pytest.mark.parametrize("kind", list(AuxiliaryKind), ids=lambda k: k.value)
    def test_gauss_legendre_matches_adaptive_quadrature(self, v, kind):
        compared = 0
        for n in (0, 1, 5, 20):
            for l in (0, 1, 10, 40):
                q = QuantumNumbers(n, l)
                try:
                    sol = afm_solve(v, kind, q)
                except NoBoundState:
                    continue
                ref = _quad_mean_potential(v, sol, q)
                got = quadrature_mean_potential(v, sol, q)
                assert got == pytest.approx(ref, rel=1e-11)
                compared += 1
        assert compared >= 1  # states compared; exp5 binds only (0, 0)

    def test_under_resolved_rule_raises(self, monkeypatch):
        # 64 panels cannot resolve a density confined to 1e-6 of [0, r_hi]
        monkeypatch.setattr(reference, "trial_cutoff", lambda scale, q: 1e6)
        q = QuantumNumbers(0, 0)
        sol = afm_solve(LOG, AuxiliaryKind.COULOMB, q)
        with pytest.raises(NumericalFailure):
            quadrature_mean_potential(LOG, sol, q)


class TestPowerLawMoments:
    def test_reproduces_airy_closed_forms(self):
        for n in range(11):
            e_n = abs(airy_zero(n))
            mom = power_law_moments(1.0, 1.0, 0.5, e_n, QuantumNumbers(n, 0), 4)
            ref = linear_s_observables(0.5, 1.0, n).r_moments
            assert mom[1] == pytest.approx(2 * e_n / 3, rel=1e-14)
            for k in (1, 2, 3, 4):
                assert mom[k] == pytest.approx(ref[k], rel=1e-10)

    def test_second_and_third_lines(self):
        e0 = abs(airy_zero(0))
        mom = power_law_moments(1.0, 1.0, 0.5, e0, QuantumNumbers(0, 0), 3)
        assert mom[2] == pytest.approx(8 * e0 ** 2 / 15, rel=1e-13)
        assert mom[3] == pytest.approx((16 * e0 ** 3 + 15) / 35, rel=1e-13)

    def test_l1_chain_with_oracle_seed(self):
        f, obs = oracle_state(PotentialModel.linear(), QuantumNumbers(0, 1))
        mom = power_law_moments(1.0, 1.0, 0.5, f.energy, QuantumNumbers(0, 1), 4,
                                seeds={-1: obs.r_moments[-1]})
        for k in (1, 2, 3, 4):
            assert mom[k] == pytest.approx(obs.r_moments[k], rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_law_moments(0.5, 1.0, 0.5, 1.0, QuantumNumbers(0, 0), 3)
        with pytest.raises(DomainError):
            # l > 0 requires the <1/r> seed at the s = 1 step
            power_law_moments(1.0, 1.0, 0.5, 1.0, QuantumNumbers(0, 1), 3)


class TestP2P4:
    def test_linear_homogeneous_relation(self):
        for n in (0, 2):
            obs = linear_s_observables(0.5, 1.0, n)
            e_n = obs.mean_h
            p2, _ = p2_p4_from_potential(e_n, obs.r_moments[1], obs.r_moments[2],
                                         0.5)
            assert p2 == pytest.approx(2 * 0.5 * e_n / 3, rel=1e-13)
            assert p2 == pytest.approx(obs.p2, rel=1e-13)

    def test_hydrogen_relation(self):
        # lambda = -1: <V> = 2E so <p^2> = -2mE
        m, nu = 1.0, 1.0
        e0 = -0.5
        p2, _ = p2_p4_from_potential(e0, 2 * e0, 4 * e0 ** 2 * 1.25, m)
        assert p2 == pytest.approx(-2 * m * e0, rel=1e-14)

    def test_exp_p4_against_direct_quadrature(self):
        # the oracle's p4, from E, <V> and <V^2> by the virial relations, against
        # the integral of u''^2 of the reference Numerov state on 20000 points
        v, q = PotentialModel.exponential(5.0), QuantumNumbers(0, 0)
        obs = oracle_state(v, q)[1]
        f = reference.numerov_state(v, q, reference.reference_r_max(v, q), 20000)
        grid, u = f.grid, f.values
        h = grid[1] - grid[0]
        upp = np.zeros_like(u)
        upp[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1]
                     - u[4:]) / (12 * h * h)
        p4_direct = simpson(upp * upp, x=grid)
        vv = np.empty_like(u)
        vv[1:] = v.v(grid[1:])
        vv[0] = 0.0
        mean_v = simpson(u * u * vv, x=grid)
        mean_v2 = simpson(u * u * vv * vv, x=grid)
        _, p4 = p2_p4_from_potential(f.energy, mean_v, mean_v2, 0.5)
        assert p4 == pytest.approx(p4_direct, rel=1e-5)
        assert obs.p4 == pytest.approx(p4_direct, rel=1e-5)


class TestEckart:
    def test_exact_trial_gives_one(self):
        assert eckart_bound(1.0, 2.0, 2.0, 1.0) == 1.0

    def test_published_values(self):
        e0 = abs(airy_zero(0))
        e1 = abs(airy_zero(1))
        q = QuantumNumbers(0, 0)
        sol_hy = afm_solve(LINEAR, AuxiliaryKind.COULOMB, q)
        sol_ho = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q)
        eps1_hy = afm_solve(LINEAR, AuxiliaryKind.COULOMB, QuantumNumbers(1, 0)).energy
        eps1_ho = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, QuantumNumbers(1, 0)).energy
        h_hy = mean_hamiltonian(LINEAR, sol_hy, q)
        h_ho = mean_hamiltonian(LINEAR, sol_ho, q)
        assert eckart_bound(h_hy, e1, e1, e0) == pytest.approx(0.896, abs=5e-4)
        assert eckart_bound(h_hy, eps1_hy, eps1_ho, sol_hy.energy) == pytest.approx(
            0.195, abs=5e-4)
        assert eckart_bound(h_ho, e1, e1, e0) == pytest.approx(0.995, abs=5e-4)
        assert eckart_bound(h_ho, eps1_hy, eps1_ho, sol_hy.energy) == pytest.approx(
            0.265, abs=5e-4)

    def test_monotone_in_trial_energy(self):
        values = [eckart_bound(h, 3.0, 3.0, 1.0) for h in np.linspace(2.8, 1.0, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_vacuous_bound_returned_unclamped(self):
        assert eckart_bound(5.0, 2.0, 2.0, 1.0) < 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            eckart_bound(1.0, 2.0, 2.0, 2.0)

    @given(st.floats(-100.0, 100.0), st.floats(0.01, 100.0),
           st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4))
    def test_bounded_energies_never_beat_the_exact_bound(self, e0, gap, slack):
        # <H> <= E1^L <= E1 <= E1^U and E0^L <= E0 < E1 give B'_E <= B_E
        e1 = e0 + gap
        e1_lower, e1_upper, e0_lower = e1 - slack[0], e1 + slack[1], e0 - slack[2]
        h_trial = e1_lower - slack[3]
        assert (eckart_bound(h_trial, e1_lower, e1_upper, e0_lower)
                <= eckart_bound(h_trial, e1, e1, e0))


class TestTrialHamiltonian:
    @pytest.mark.parametrize("v", [LINEAR, LOG, PotentialModel.exponential(20.0)],
                             ids=["linear", "log", "exp20"])
    @pytest.mark.parametrize("kind", list(AuxiliaryKind), ids=lambda k: k.value)
    def test_trial_moment_set_carries_no_mean_h(self, v, kind):
        q = QuantumNumbers(0, 1)
        assert afm_observable_set(v, afm_solve(v, kind, q), q).mean_h is None

    @pytest.mark.parametrize("kind", list(AuxiliaryKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", range(3))
    def test_linear_mean_hamiltonian_is_p2_over_2m_plus_a_r(self, kind, n):
        # the six states of the obs-hy and obs-ho tables
        q = QuantumNumbers(n, 0)
        sol = afm_solve(LINEAR, kind, q)
        obs = afm_observable_set(LINEAR, sol, q)
        want = obs.p2 / (2.0 * LINEAR.m) + LINEAR.a * obs.r_moments[1]
        assert mean_hamiltonian(LINEAR, sol, q) == want


class TestPsi0FromForce:
    def test_linear_independent_of_n(self):
        assert psi0_from_force(0.5, 1.0) == pytest.approx(1 / (4 * math.pi),
                                                          rel=1e-14)

    def test_log_against_oracle(self):
        # <V'> = <1/r>; deviation reflects the trial-state quality
        for n, tol in [(0, 0.03), (1, 0.02)]:
            q = QuantumNumbers(n, 0)
            sol = afm_solve(LOG, AuxiliaryKind.COULOMB, q)
            mean_vp = hydrogen_observables(sol.scale, q).r_moments[-1]
            approx = psi0_from_force(2.0, mean_vp)
            _, obs = oracle_state(PotentialModel.logarithmic(), QuantumNumbers(n, 0))
            assert approx == pytest.approx(obs.psi0_sq, rel=tol)

    def test_exp_against_oracle(self):
        for k, tol in [(10.0, 0.02), (20.0, 0.03)]:
            v = PotentialModel.exponential(k)
            q = QuantumNumbers(0, 0)
            sol = afm_solve(v, AuxiliaryKind.COULOMB, q)
            mean_vp = -mean_potential(v, sol, q)  # V' = -V here
            approx = psi0_from_force(0.5, mean_vp)
            _, obs = oracle_state(PotentialModel.exponential(k), QuantumNumbers(0, 0))
            assert approx == pytest.approx(obs.psi0_sq, rel=tol)


class TestInequalities:
    def test_cauchy_schwarz_for_afm_states(self):
        from auxfield.errors import NoBoundState
        models = [LINEAR, LOG, PotentialModel.exponential(10.0),
                  PotentialModel.exponential(20.0)]
        for v in models:
            for kind in AuxiliaryKind:
                for n in range(6):
                    for l in range(3):
                        q = QuantumNumbers(n, l)
                        try:
                            sol = afm_solve(v, kind, q)
                        except NoBoundState:
                            continue
                        obs = afm_observable_set(v, sol, q)
                        assert obs.p4 >= obs.p2 ** 2 * (1 - 1e-12)
                        assert obs.r_moments[2] >= obs.r_moments[1] ** 2 * (1 - 1e-12)
