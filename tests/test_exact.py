import math

import numpy as np
import pytest
from scipy import integrate

from auxfield.errors import DomainError
from auxfield.exact import (HydrogenScale, OscillatorScale, QuantumNumbers,
                            hydrogen_observables, linear_s_observables, linear_s_state,
                            oscillator_observables)
from auxfield.specfun import airy_zero
from reference import hydrogen_r_moment, linear_s_psi_unclipped, oscillator_r_moment


def _norm_quad(radial, r_hi):
    val, err = integrate.quad(lambda r: radial(r) ** 2 * r * r, 0.0, r_hi,
                              limit=400)
    return val


def _count_radial_nodes(radial, r_hi):
    r = np.linspace(1e-6, r_hi, 4000)
    s = np.sign(radial(r))
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


class TestLinearSStates:
    def test_ground_energy(self):
        st = linear_s_state(0.5, 1.0, 0)
        assert st.energy == pytest.approx(2.338107, abs=1e-6)
        assert st.energy == pytest.approx(-airy_zero(0), rel=1e-14)

    def test_scaling_law(self):
        base = linear_s_state(0.5, 1.0, 3)
        for m, a in [(1.0, 1.0), (0.5, 2.0), (1.7, 0.3)]:
            st = linear_s_state(m, a, 3)
            assert st.energy == pytest.approx(
                (a * a / (2 * m)) ** (1 / 3) * base.energy, rel=1e-14)

    @pytest.mark.parametrize("n", range(6))
    def test_enex_approximation(self, n):
        # leading term of the zero expansion: 0.77% off at n = 0, inside
        # 0.2% from n = 1 on
        approx = (1.5 * math.pi) ** (2 / 3) * (n + 0.75) ** (2 / 3)
        st = linear_s_state(0.5, 1.0, n)
        assert abs(approx - st.energy) / st.energy < (0.008 if n == 0 else 0.002)

    def test_wavefunction_normalized(self):
        for n in (0, 2):
            st = linear_s_state(0.5, 1.0, n)
            val, _ = integrate.quad(
                lambda r: 4 * math.pi * st.wavefunction(r) ** 2 * r * r,
                0.0, abs(st.alpha_n) + 14.0, limit=300)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_value_at_origin(self):
        for m, a in [(0.5, 1.0), (1.0, 2.0)]:
            for n in (0, 1, 4):
                st = linear_s_state(m, a, n)
                assert st.wavefunction(0.0) ** 2 == pytest.approx(
                    m * a / (2 * math.pi), rel=1e-8)
                # the evaluator is continuous through the series/direct switch
                assert st.wavefunction(1e-4) ** 2 == pytest.approx(
                    st.wavefunction(2e-3) ** 2, rel=1e-4)

    def test_observables_closed_forms(self):
        obs = linear_s_observables(0.5, 1.0, 0)
        a0 = abs(airy_zero(0))
        assert obs.psi0_sq == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
        assert obs.r_moments[1] == pytest.approx(2 * a0 / 3, rel=1e-14)
        assert obs.r_moments[1] == pytest.approx(1.55874, abs=1e-5)
        # virial closure |a|/3 + 2|a|/3 = |a|
        assert obs.p2 + obs.r_moments[1] == pytest.approx(a0, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_observables_vs_quadrature(self, k):
        n = 2
        st = linear_s_state(0.5, 1.0, n)
        obs = linear_s_observables(0.5, 1.0, n)
        val, _ = integrate.quad(
            lambda r: 4 * math.pi * st.wavefunction(r) ** 2 * r ** (2 + k),
            0.0, abs(st.alpha_n) + 16.0, limit=300)
        assert val == pytest.approx(obs.r_moments[k], rel=1e-8)

    @pytest.mark.parametrize("m, a", [(0.5, 1.0), (4.0, 1.0), (0.01, 3.0)])
    def test_far_samples_are_zero_and_near_ones_unchanged(self, m, a):
        # x = (2 m a)^(1/3) r overflowed to inf (a warning, then DomainError)
        # up to the largest double; r is clipped at x = 2^300 instead, where
        # Ai has long underflowed.  Warnings are errors under pytest here
        psi = linear_s_state(m, a, 0).wavefunction
        far = np.geomspace(1e300, 1.7e308, 50)
        assert np.array_equal(psi(far), np.zeros_like(far))
        assert psi(1.7e308) == 0.0
        scale = (2.0 * m * a) ** (1.0 / 3.0)
        near = np.concatenate([np.linspace(0.0, 60.0, 2001),
                               np.geomspace(1e-12, 0.99 * 2.0 ** 300 / scale, 400)])
        assert np.array_equal(psi(near), linear_s_psi_unclipped(m, a, 0)(near))


class TestHydrogen:
    def test_ground_state_units(self):
        # m = nu = 1: E = <p^2>/2 - <1/r> = -1/2
        obs = hydrogen_observables(HydrogenScale(eta=1.0), QuantumNumbers(0, 0))
        assert obs.p2 / 2 - obs.r_moments[-1] == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("n,l", [(0, 0), (1, 1), (2, 3), (4, 3), (4, 0)])
    def test_node_count(self, n, l):
        q = QuantumNumbers(n, l)
        sc = HydrogenScale(eta=1.0)
        r_hi = 3.0 * (n + l + 1) ** 2 / sc.gamma(q) / (n + l + 1)
        assert _count_radial_nodes(sc.radial(q), r_hi) == n

    # at (0, 150) and (2, 300) norm underflows and x^l overflows on their own
    @pytest.mark.parametrize("n,l", [(0, 0), (2, 1), (5, 4), (3, 2),
                                     (0, 150), (2, 300)])
    def test_normalization(self, n, l):
        q = QuantumNumbers(n, l)
        sc = HydrogenScale(eta=1.0)
        r_hi = (45.0 + 16.0 * n + 6.0 * l) / sc.gamma(q)
        grid = np.linspace(0.0, r_hi, 60001)
        u = grid * sc.radial(q)(grid)
        assert integrate.simpson(u * u, x=grid) == pytest.approx(1.0, abs=1e-10)

    def test_textbook_moments(self):
        sc = HydrogenScale(eta=2.2)
        obs = hydrogen_observables(sc, QuantumNumbers(0, 0))
        assert obs.r_moments[1] == pytest.approx(1.5 / sc.eta, rel=1e-14)
        assert obs.p4 == pytest.approx(5.0 * sc.eta ** 4, rel=1e-14)

    def test_virial_identity(self):
        # <p^2>/2m = -E from the closed forms
        m, nu = 1.3, 0.7
        for n, l in [(0, 0), (3, 2)]:
            energy = -m * nu ** 2 / (2 * (n + l + 1) ** 2)
            obs = hydrogen_observables(HydrogenScale(eta=m * nu), QuantumNumbers(n, l))
            assert obs.p2 / (2 * m) == pytest.approx(-energy, rel=1e-14)

    def test_general_moment_matches_closed_forms(self):
        sc = HydrogenScale(eta=1.37)
        for n in range(5):
            for l in range(4):
                q = QuantumNumbers(n, l)
                obs = hydrogen_observables(sc, q)
                for k in (-2, -1, 1, 2, 3, 4):
                    assert hydrogen_r_moment(sc, q, k) == pytest.approx(
                        obs.r_moments[k], rel=1e-11)

    def test_general_moment_domain(self):
        with pytest.raises(DomainError):
            hydrogen_r_moment(HydrogenScale(1.0), QuantumNumbers(1, 0), -3)

    def test_moment_vs_quadrature_negative_k(self):
        sc = HydrogenScale(eta=1.0)
        q = QuantumNumbers(2, 1)
        radial = sc.radial(q)
        for k in (-2, -1):
            val, _ = integrate.quad(lambda r: radial(r) ** 2 * r ** (2 + k),
                                    0.0, 200.0, limit=400)
            assert val == pytest.approx(hydrogen_r_moment(sc, q, k), rel=1e-9)


class TestOscillator:
    def test_ground_state_units(self):
        # m = 1, nu = 1/2, lambda = (2 m nu)^(1/4) = 1: E = <p^2>/2 + <r^2>/2 = 3/2
        obs = oscillator_observables(OscillatorScale(lam=1.0), QuantumNumbers(0, 0))
        assert obs.p2 / 2 + obs.r_moments[2] / 2 == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("n,l", [(0, 0), (1, 2), (4, 3), (3, 0),
                                     (0, 150), (2, 300)])
    def test_node_count_and_norm(self, n, l):
        sc = OscillatorScale(lam=1.0)
        radial = sc.radial(QuantumNumbers(n, l))
        r_hi = math.sqrt(40 + 22 * n + 8 * l) / sc.lam
        assert _count_radial_nodes(radial, r_hi) == n
        grid = np.linspace(0.0, r_hi, 40001)
        u = grid * radial(grid)
        assert integrate.simpson(u * u, x=grid) == pytest.approx(1.0, abs=1e-10)

    def test_r2_and_momentum_scaling(self):
        sc = OscillatorScale(lam=1.31)
        obs = oscillator_observables(sc, QuantumNumbers(0, 0))
        assert obs.r_moments[2] == pytest.approx(1.5 / sc.lam ** 2, rel=1e-14)
        assert obs.p2 == pytest.approx(sc.lam ** 4 * obs.r_moments[2], rel=1e-14)
        assert obs.p4 == pytest.approx(sc.lam ** 8 * obs.r_moments[4], rel=1e-14)

    def test_virial_identity(self):
        m, nu = 0.7, 1.1
        sc = OscillatorScale(lam=(2 * m * nu) ** 0.25)
        for n, l in [(0, 0), (2, 2)]:
            energy = math.sqrt(2 * nu / m) * (2 * n + l + 1.5)
            obs = oscillator_observables(sc, QuantumNumbers(n, l))
            assert obs.p2 / (2 * m) == pytest.approx(energy / 2, rel=1e-13)

    def test_general_moment_matches_closed_forms(self):
        sc = OscillatorScale(lam=0.83)
        for n in range(5):
            for l in range(4):
                q = QuantumNumbers(n, l)
                obs = oscillator_observables(sc, q)
                for k in (1, 2, 3, 4):
                    assert oscillator_r_moment(sc, q, k) == pytest.approx(
                        obs.r_moments[k], rel=1e-11)

    def test_general_moment_domain(self):
        with pytest.raises(DomainError):
            oscillator_r_moment(OscillatorScale(1.0), QuantumNumbers(0, 0), -3)

    def test_psi0(self):
        sc = OscillatorScale(lam=1.2)
        obs = oscillator_observables(sc, QuantumNumbers(1, 0))
        radial = sc.radial(QuantumNumbers(1, 0))
        assert obs.psi0_sq == pytest.approx(radial(0.0) ** 2 / (4 * math.pi),
                                            rel=1e-12)


def test_moments_match_exact_rational_sums():
    # every <r^k> both bases report, from the one floating-point Laguerre
    # sum, against the exact-rational double sums on seeded n, l <= 40
    rng = np.random.default_rng(20261018)
    states = [(40, 40), *rng.integers(0, 41, size=(2, 2))]
    for n, l in states:
        q = QuantumNumbers(int(n), int(l))
        hy = HydrogenScale(eta=float(10.0 ** rng.uniform(-1.0, 1.0)))
        ho = OscillatorScale(lam=float(10.0 ** rng.uniform(-1.0, 1.0)))
        for scale, obs, reference in (
                (hy, hydrogen_observables(hy, q), hydrogen_r_moment),
                (ho, oscillator_observables(ho, q), oscillator_r_moment)):
            for k, got in obs.r_moments.items():
                want = reference(scale, q, k)
                assert abs(got / want - 1.0) <= 1e-13, (q, scale, k)


class TestMomentInequalities:
    def test_cauchy_schwarz_everywhere(self):
        sets = []
        for n in range(4):
            sets.append(linear_s_observables(0.5, 1.0, n))
            for l in range(3):
                q = QuantumNumbers(n, l)
                sets.append(hydrogen_observables(HydrogenScale(1.1), q))
                sets.append(oscillator_observables(OscillatorScale(0.9), q))
        for obs in sets:
            assert obs.r_moments[2] >= obs.r_moments[1] ** 2 * (1 - 1e-12)
            assert obs.p4 >= obs.p2 ** 2 * (1 - 1e-12)
            if obs.psi0_sq is not None:
                assert obs.psi0_sq >= 0.0

    def test_quantum_number_validation(self):
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 0)
        with pytest.raises(DomainError):
            HydrogenScale(eta=0.0)

    def test_fractional_quantum_number_refused(self):
        # afm_solve used to answer E = 3.481 for n = 1.5
        for q in [(1.5, 0), (0, 2.0), (1, 0.5)]:
            with pytest.raises(DomainError, match="must be integers"):
                QuantumNumbers(*q)

    def test_nan_quantum_number_refused(self):
        # it used to reach the oracle's Sturm count, which failed in LAPACK
        for q in [(float("nan"), 0), (0, float("nan")), (float("inf"), 0)]:
            with pytest.raises(DomainError, match="must be integers"):
                QuantumNumbers(*q)

    def test_numpy_integer_quantum_numbers_accepted(self):
        q = QuantumNumbers(np.int64(2), np.int32(1))
        assert q == QuantumNumbers(2, 1) and q.big_l == 2.0
        with pytest.raises(DomainError, match="non-negative"):
            QuantumNumbers(np.int64(-1), 0)
