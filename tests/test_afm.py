import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from auxfield.afm import (AuxiliaryKind, Bound, PotentialModel, _mean_point,
                          afm_solve, energy_at_aux, principal_number, tangent_check)
from auxfield.errors import AuxFieldError, DomainError, NoBoundState, NumericalFailure
from auxfield.exact import (HydrogenScale, OscillatorScale, QuantumNumbers,
                            hydrogen_observables, oscillator_observables)
from reference import (critical_coupling, hydrogen_r_moment, improved_linear_energy,
                       oscillator_r_moment, solve_w_power, tangent_sign_violations)

LINEAR = PotentialModel.linear()
LOG = PotentialModel.logarithmic()

ALL_MODELS = [LINEAR, LOG, PotentialModel.exponential(10.0),
              PotentialModel.exponential(20.0)]


def _solutions(models, n_max=3, l_max=3):
    for v in models:
        for kind in AuxiliaryKind:
            for n in range(n_max + 1):
                for l in range(l_max + 1):
                    q = QuantumNumbers(n, l)
                    try:
                        yield v, kind, q, afm_solve(v, kind, q)
                    except NoBoundState:
                        continue


class TestPrincipalNumber:
    def test_values(self):
        assert principal_number(AuxiliaryKind.COULOMB, QuantumNumbers(0, 0)) == 1.0
        assert principal_number(AuxiliaryKind.QUADRATIC, QuantumNumbers(0, 0)) == 1.5
        assert principal_number(AuxiliaryKind.QUADRATIC, QuantumNumbers(1, 2)) == 5.5


class TestLinearSolutions:
    def test_coulomb_ground(self):
        sol = afm_solve(LINEAR, AuxiliaryKind.COULOMB, QuantumNumbers(0, 0))
        assert sol.energy == pytest.approx(3.0 / 2 ** (2 / 3), rel=1e-14)
        assert sol.energy == pytest.approx(1.88988, abs=1e-5)
        assert sol.scale.eta == pytest.approx(2 ** (-1 / 3), rel=1e-14)
        assert sol.nu0 == pytest.approx(2 ** (2 / 3), rel=1e-14)
        assert sol.r0 == pytest.approx(math.sqrt(sol.nu0), rel=1e-14)
        assert sol.bound is Bound.LOWER

    def test_quadratic_ground(self):
        sol = afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, QuantumNumbers(0, 0))
        assert sol.energy == pytest.approx(3.0 * 0.75 ** (2 / 3), rel=1e-14)
        assert sol.bound is Bound.UPPER
        assert sol.scale.lam == pytest.approx(sol.nu0 ** 0.25, rel=1e-14)

    def test_general_mass_slope_scaling(self):
        ref = afm_solve(LINEAR, AuxiliaryKind.COULOMB, QuantumNumbers(2, 1))
        m, a = 1.7, 0.4
        sol = afm_solve(PotentialModel.linear(m, a), AuxiliaryKind.COULOMB,
                        QuantumNumbers(2, 1))
        se = (a * a / (2 * m)) ** (1 / 3)
        sr = (2 * m * a) ** (-1 / 3)
        assert sol.energy == pytest.approx(se * ref.energy, rel=1e-13)
        assert sol.r0 == pytest.approx(sr * ref.r0, rel=1e-13)
        assert sol.scale.eta == pytest.approx(ref.scale.eta / sr, rel=1e-13)


    def test_scale_ratios_of_the_overlap_tables(self):
        # the paper's dilation factors between two states of one l
        for n, npr, l in itertools.product(range(8), range(8), range(6)):
            q, q_prime = QuantumNumbers(n, l), QuantumNumbers(npr, l)
            eta = [afm_solve(LINEAR, AuxiliaryKind.COULOMB, s).scale.eta for s in (q, q_prime)]
            lam = [afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, s).scale.lam for s in (q, q_prime)]
            want = ((npr + l + 1) / (n + l + 1)) ** (4 / 3)
            assert abs(eta[1] / eta[0] - want) <= 1e-14 * want, (n, npr, l)
            want = ((4 * n + 2 * l + 3) / (4 * npr + 2 * l + 3)) ** (1 / 6)
            assert abs(lam[1] / lam[0] - want) <= 1e-14 * want, (n, npr, l)


class TestLogSolutions:
    def test_closed_forms(self):
        sol = afm_solve(LOG, AuxiliaryKind.COULOMB, QuantumNumbers(0, 0))
        assert sol.energy == pytest.approx(0.5 * (1 - math.log(2)), rel=1e-14)
        assert sol.scale.eta == pytest.approx(math.sqrt(2), rel=1e-14)
        sol = afm_solve(LOG, AuxiliaryKind.QUADRATIC, QuantumNumbers(0, 0))
        assert sol.scale.lam == pytest.approx(math.sqrt(2 / 1.5), rel=1e-14)
        assert sol.energy == pytest.approx(math.log(math.sqrt(math.e / 2) * 1.5),
                                           rel=1e-14)

    def test_p2_is_exactly_two(self):
        for kind in AuxiliaryKind:
            for n, l in [(0, 0), (2, 1), (1, 3)]:
                q = QuantumNumbers(n, l)
                sol = afm_solve(LOG, kind, q)
                if kind is AuxiliaryKind.COULOMB:
                    obs = hydrogen_observables(sol.scale, q)
                else:
                    obs = oscillator_observables(sol.scale, q)
                assert obs.p2 == pytest.approx(2.0, rel=1e-13)


class TestExponentialSolutions:
    def test_allowed_sets(self):
        for k, want in [(5.0, {(0, 0)}),
                        (10.0, {(0, 0), (1, 0), (0, 1)}),
                        (20.0, {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)})]:
            got = set()
            v = PotentialModel.exponential(k)
            for n in range(4):
                for l in range(4):
                    try:
                        afm_solve(v, AuxiliaryKind.COULOMB, QuantumNumbers(n, l))
                        got.add((n, l))
                    except NoBoundState:
                        pass
            assert got == want, k

    def test_failure_reasons(self):
        v = PotentialModel.exponential(10.0)
        with pytest.raises(NoBoundState) as exc:
            afm_solve(v, AuxiliaryKind.QUADRATIC, QuantumNumbers(0, 1))
        assert exc.value.reason == "nonnegative-energy"
        with pytest.raises(NoBoundState) as exc:
            afm_solve(v, AuxiliaryKind.QUADRATIC, QuantumNumbers(1, 0))
        assert exc.value.reason == "state-not-allowed"

    def test_scale_formulas_match_inversion_route(self):
        # nu0 recovered through the generic W(x) x^alpha inversion
        for k in (5.0, 10.0, 20.0):
            v = PotentialModel.exponential(k)
            for n in range(3):
                for l in range(3):
                    q = QuantumNumbers(n, l)
                    try:
                        sol = afm_solve(v, AuxiliaryKind.COULOMB, q)
                    except NoBoundState:
                        continue
                    big_n = n + l + 1
                    u0 = solve_w_power(-big_n ** 2 / (4 * k), 2.0)
                    assert 4 * k * u0 ** 2 == pytest.approx(sol.nu0, rel=1e-12)
                    try:
                        sol = afm_solve(v, AuxiliaryKind.QUADRATIC, q)
                    except NoBoundState:
                        continue
                    big_n = 2 * n + l + 1.5
                    u0 = solve_w_power((2 * big_n ** 2 / k) ** 0.25, -0.25)
                    assert k / (2 * u0) == pytest.approx(sol.nu0, rel=1e-12)


class TestBoundDirection:
    def test_classifications(self):
        assert LINEAR.bound(AuxiliaryKind.COULOMB,
                            QuantumNumbers(3, 1))[0] is Bound.LOWER
        assert LOG.bound(AuxiliaryKind.QUADRATIC,
                         QuantumNumbers(0, 0))[0] is Bound.UPPER
        v = PotentialModel.exponential(20.0)
        kind, met = v.bound(AuxiliaryKind.COULOMB, QuantumNumbers(0, 0))
        assert kind is Bound.CONDITIONAL and met is True
        assert math.sqrt(20.0 / (2 * math.e)) == pytest.approx(1.918, abs=1e-3)
        _, met = v.bound(AuxiliaryKind.COULOMB, QuantumNumbers(1, 0))
        assert met is False
        assert v.bound(AuxiliaryKind.QUADRATIC,
                       QuantumNumbers(0, 0))[0] is Bound.UPPER


# Exp Coulomb states outside the proven condition n + l + 1 <= sqrt(k/(2e))
# whose AFM energy lies above the converged one: the condition is needed
_COULOMB_VIOLATIONS = [(1.938, QuantumNumbers(0, 0)), (7.600, QuantumNumbers(0, 1)),
                       (29.80, QuantumNumbers(0, 3))]


def _bracket_states():
    """Seeded (model, q) with n, l <= 10: linear, log and exp, the exp depth
    log-uniform within a factor e of 2e (n+l+1)^2, where the Coulomb
    condition turns on, and every other exp draw an S-state."""
    rng = np.random.default_rng(20261026)
    draw = lambda: QuantumNumbers(*(int(x) for x in rng.integers(0, 11, 2)))
    states = [(v, draw()) for v in (LINEAR, LOG) for _ in range(8)]
    for i in range(20):
        q = draw() if i % 2 else QuantumNumbers(int(rng.integers(0, 11)), 0)
        k = 2.0 * math.e * (q.n + q.l + 1) ** 2 * math.exp(rng.uniform(-1.0, 1.0))
        states.append((PotentialModel.exponential(k), q))
    return states + [(PotentialModel.exponential(k), q) for k, q in _COULOMB_VIOLATIONS]


def test_bound_labels_bracket_the_converged_energy():
    # the smallest gap between an AFM bound and the converged energy is
    # 0.8% of max(1, |E|), far above the oracle's error, so no slack is taken
    from auxfield.tables import oracle_state
    from reference import exp_s_energy
    checked, unmet = {Bound.LOWER: 0, Bound.UPPER: 0, Bound.CONDITIONAL: 0}, {}
    for v, q in _bracket_states():
        try:
            energy = oracle_state(v, q)[0].energy
        except NoBoundState:
            energy = 0.0    # the continuum edge: no upper bound may exist
        if v.family == "exp" and q.l == 0 and energy < 0.0:
            energy = exp_s_energy(v.k, q.n, 2.0 * math.sqrt(-energy))
        for kind in AuxiliaryKind:
            try:
                afm = afm_solve(v, kind, q).energy
            except NoBoundState:
                continue
            bound, met = v.bound(kind, q)
            below = afm <= energy
            if met is False:
                unmet[(v, q)] = below
                continue
            assert below if bound is not Bound.UPPER else afm >= energy, (v, kind, q)
            checked[bound] += 1
    assert min(checked.values()) >= 8 and len(unmet) >= 8, (checked, len(unmet))
    assert [(v.k, q) for (v, q), below in unmet.items() if not below] == _COULOMB_VIOLATIONS


class TestConsistencyIdentities:
    def test_energy_reconstruction_from_basis_solver(self):
        for v, kind, q, sol in _solutions(ALL_MODELS):
            big_n = principal_number(kind, q)
            if kind is AuxiliaryKind.COULOMB:
                e_basis = -v.mass * sol.nu0 ** 2 / (2 * big_n ** 2)
            else:
                e_basis = math.sqrt(2 * sol.nu0 / v.mass) * big_n
            assert sol.energy == pytest.approx(e_basis + sol.offset, rel=1e-10)

    def test_mean_point_identity(self):
        # <P(r)> over the trial state equals P(r0)
        for v, kind, q, sol in _solutions(ALL_MODELS, n_max=4, l_max=4):
            if kind is AuxiliaryKind.COULOMB:
                got = hydrogen_observables(sol.scale, q).r_moments[-1]
                want = 1.0 / sol.r0
            else:
                got = oscillator_observables(sol.scale, q).r_moments[2]
                want = sol.r0 ** 2
            assert got == pytest.approx(want, rel=1e-10)

    def test_tangency_and_extremality(self):
        for v, kind, q, sol in _solutions(ALL_MODELS):
            samples = np.array([0.25, 0.6, 1.0, 1.8, 3.5]) * sol.r0
            report = tangent_check(v, kind, sol, samples)
            assert report.ok, (v.family, kind.value, q.n, q.l, report)
            assert report.extremality_residual < 1e-6

    @pytest.mark.parametrize("n,l,k", [(0, 2, 1000.0), (7, 2, 200.0), (8, 14, 1000.0),
                                       (6, 0, 100.0), (0, 6, 100.0), (15, 0, 473.0),
                                       (54, 0, 5588.0), (92, 0, 15977.0),
                                       (37, 40, 1e12), (37, 40, 11238.754337712273)])
    def test_tangency_of_deep_and_near_branch_end_exp_states(self, n, l, k):
        # a finite-difference slope lost digits to V ~ k, and a dE/dnu
        # stencil reached too close to the tangent branch's end, where the
        # mean point I(nu) is ill-conditioned; an absolute slope gate
        # failed on rounding in V'(r0) ~ 1e12, and a residual relative to
        # |E| failed just above k_c (1e-9 above it here), where E ~ -1.5e-6
        v, q = PotentialModel.exponential(k), QuantumNumbers(n, l)
        sol = afm_solve(v, AuxiliaryKind.COULOMB, q)
        report = tangent_check(v, AuxiliaryKind.COULOMB, sol,
                               sol.r0 * np.linspace(0.1, 3.0, 9))
        assert report.ok, report

    @pytest.mark.parametrize("kind", list(AuxiliaryKind))
    @pytest.mark.parametrize("v", [LINEAR, LOG, PotentialModel.exponential(20.0)],
                             ids=lambda v: v.family)
    def test_tangent_off_the_extremum_is_not_extremal(self, v, kind):
        # a tangent at I(nu) for nu a little past nu0: value and slope
        # match, but dE/dnu = <P>_nu - P(I(nu)) no longer vanishes
        q = QuantumNumbers(0, 0)
        sol = afm_solve(v, kind, q)
        nu = sol.nu0 * (1.0 + 1e-5)
        r = _mean_point(v, kind, nu)
        off = replace(sol, nu0=nu, r0=r, offset=float(v.v(r) - nu * kind.p(r)),
                      energy=energy_at_aux(v, kind, q, nu))
        report = tangent_check(v, kind, off, r * np.linspace(0.1, 3.0, 9))
        assert not report.ok, report
        assert report.extremality_residual >= 1e-6

    def test_sign_violations_match_the_per_sample_loop(self):
        # every bound direction, a conditional one met or not, on the
        # tangent and on it shifted up and down so that samples violate;
        # a 1e-9 shift is within the tolerance only where |V| > 10
        total = 0
        for v, kind, q, sol in _solutions(ALL_MODELS, n_max=2, l_max=2):
            samples = sol.r0 * np.linspace(0.0, 4.0, 17)
            for bound, met, shift in itertools.product(
                    Bound, (True, False), (0.0, 1e-9, -1e-9, 1e-3, -1e-3)):
                s = replace(sol, bound=bound, condition_met=met,
                            offset=sol.offset + shift)
                want = tangent_sign_violations(v, kind, s, samples)
                report = tangent_check(v, kind, s, samples)
                assert report.sign_checked == (want is not None)
                assert report.sign_violations == (want or 0)
                total += want or 0
        assert total > 0

    @pytest.mark.parametrize("kind", list(AuxiliaryKind))
    def test_exp_mean_point_closed_form(self, kind):
        v = PotentialModel.exponential(50.0)
        end = 4.0 * 50.0 / math.e ** 2 if kind is AuxiliaryKind.COULOMB else 1e4
        for nu in np.geomspace(1e-3, end, 40):
            r = _mean_point(v, kind, nu)
            assert v.v_prime(r) / kind.p_prime(r) == pytest.approx(nu, rel=1e-12)
        if kind is AuxiliaryKind.COULOMB:
            with pytest.raises(DomainError):
                _mean_point(v, kind, end * (1.0 + 1e-9))

    def test_energy_at_aux_is_extremal_value(self):
        for v, kind, q, sol in _solutions([LINEAR, LOG,
                                           PotentialModel.exponential(10.0)],
                                          n_max=2, l_max=2):
            assert energy_at_aux(v, kind, q, sol.nu0) == pytest.approx(
                sol.energy, rel=1e-12)


def _wide_states():
    """Seeded (model, kind, q) with n, l <= 40: linear with random (m, a),
    log, and exp with k log-spaced from just above the state's critical
    coupling up to 1e12."""
    rng = np.random.default_rng(20261020)
    kinds = list(AuxiliaryKind)
    states = []
    for i in range(64):
        kind = kinds[i % 2]
        q = QuantumNumbers(int(rng.integers(0, 41)), int(rng.integers(0, 41)))
        if i % 4 == 0:
            m, a = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            states.append((PotentialModel.linear(float(m), float(a)), kind, q))
        elif i % 4 == 1:
            states.append((LOG, kind, q))
        else:
            kc = critical_coupling(q, kind)
            states += [(PotentialModel.exponential(float(k)), kind, q)
                       for k in np.geomspace(kc * (1.0 + 1e-9), 1e12, 8)]
    return states


@lru_cache(maxsize=None)
def _unit_mean_p(kind, q):
    """<P> of level q of the basis at unit scale, from the exact moments."""
    if kind is AuxiliaryKind.COULOMB:
        return -hydrogen_r_moment(HydrogenScale(1.0), q, -1)
    return oscillator_r_moment(OscillatorScale(1.0), q, 2)


class TestWideSeededSet:
    """The defining identities over n, l <= 40 and k up to 1e12.

    Energy residuals are relative to |N^2/(2m r0^2)| + |V(r0)|, not to
    |E|, which cancels near threshold; each bound is 3-6 times the worst
    case measured on this set.
    """

    def test_defining_identities(self):
        for v, kind, q in _wide_states():
            sol = afm_solve(v, kind, q)
            r0, nu0, big_n = sol.r0, sol.nu0, sol.principal_n
            label = (v, kind.value, q.n, q.l)
            scale = big_n ** 2 / (2 * v.mass * r0 ** 2) + abs(float(v.v(r0)))
            report = tangent_check(v, kind, sol, r0 * np.linspace(0.1, 3.0, 9))
            assert report.sign_violations == 0, label
            assert report.value_gap <= 1e-15 * scale, label
            assert report.slope_gap <= 1e-15 * float(v.v_prime(r0)), label
            # <P>_nu0 = P(r0), with the moment rescaled from unit scale
            unit = _unit_mean_p(kind, q)
            mean_p = (unit * sol.scale.eta if kind is AuxiliaryKind.COULOMB
                      else unit / sol.scale.lam ** 2)
            assert abs(mean_p / kind.p(r0) - 1.0) <= 8e-15, label
            e_basis = kind.basis_energy(v.mass, big_n, nu0)
            assert abs(e_basis + sol.offset - sol.energy) <= 1e-15 * scale, label
            assert abs(energy_at_aux(v, kind, q, nu0) - sol.energy) <= 1e-15 * scale, label

    def test_deepest_finite_well(self):
        # the Coulomb extremum of k = 1e308 is finite (E ~ -k); the
        # quadratic one has nu0 = V'(r0)/(2 r0) beyond double precision
        v, q = PotentialModel.exponential(1e308), QuantumNumbers(0, 0)
        sol = afm_solve(v, AuxiliaryKind.COULOMB, q)
        assert all(math.isfinite(x) for x in (sol.energy, sol.nu0, sol.r0,
                                              sol.scale.eta, sol.offset))
        assert sol.energy == pytest.approx(-1e308, rel=1e-12)
        with pytest.raises(NumericalFailure):
            afm_solve(v, AuxiliaryKind.QUADRATIC, q)


class TestExtremeParameters:
    _SCALES = [5e-324, 1e-310] + [10.0 ** e for e in range(-300, 301, 25)] + [1.7e308]

    @pytest.mark.parametrize("m,a", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_radius_out_of_double_range_is_numerical_failure(self, m, a):
        # m a under- or overflows, so N^2/(m a) is 0 or infinite
        for kind in AuxiliaryKind:
            with pytest.raises(NumericalFailure, match="radius"):
                afm_solve(PotentialModel.linear(m, a), kind, QuantumNumbers(0, 0))

    def test_smallest_depth_has_no_bound_state(self):
        for kind in AuxiliaryKind:
            with pytest.raises(NoBoundState) as exc:
                afm_solve(PotentialModel.exponential(5e-324), kind, QuantumNumbers(0, 0))
            assert exc.value.reason == "state-not-allowed"

    def test_every_model_gives_a_finite_state_or_a_package_error(self):
        # a package error maps to a CLI exit code; any other is an internal error
        models = ([PotentialModel.linear(m, a) for m in self._SCALES for a in self._SCALES]
                  + [PotentialModel.exponential(k) for k in self._SCALES])
        for v, kind in itertools.product(models, AuxiliaryKind):
            for q in (QuantumNumbers(0, 0), QuantumNumbers(7, 3)):
                try:
                    sol = afm_solve(v, kind, q)
                except AuxFieldError:
                    continue
                assert math.isfinite(sol.energy) and 0.0 < sol.r0 < math.inf, (v, kind, q)


class TestImprovedEnergy:
    def test_reduces_to_zero_expansion_at_l0(self):
        for n in range(9):
            expect = (1.5 * math.pi) ** (2 / 3) * (n + 0.75) ** (2 / 3)
            assert improved_linear_energy(QuantumNumbers(n, 0)) == pytest.approx(
                expect, rel=1e-14)
        assert improved_linear_energy(QuantumNumbers(0, 0)) == pytest.approx(
            (9 * math.pi / 8) ** (2 / 3), rel=1e-14)
        assert improved_linear_energy(QuantumNumbers(0, 0)) == pytest.approx(
            2.3203, abs=1e-4)

    def test_l1_against_oracle(self):
        from auxfield.tables import oracle_state
        f, _ = oracle_state(LINEAR, QuantumNumbers(0, 1))
        value = improved_linear_energy(QuantumNumbers(0, 1))
        assert value == pytest.approx(3.35031, abs=1e-5)
        assert abs(value - f.energy) / f.energy < 0.015


class TestCriticalCoupling:
    @pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (0, 2)])
    def test_self_consistency_and_analytic_value(self, n, l):
        q = QuantumNumbers(n, l)
        kc = critical_coupling(q, AuxiliaryKind.COULOMB)
        big_n = n + l + 1
        assert kc == pytest.approx(big_n ** 2 * math.e ** 2 / 4.0, rel=1e-10)
        # defining property: the AFM energy vanishes at the critical depth
        sol = afm_solve(PotentialModel.exponential(kc * (1 + 1e-9)),
                        AuxiliaryKind.COULOMB, q)
        assert abs(sol.energy) < 1e-7

    def test_threshold_behavior(self):
        q = QuantumNumbers(1, 0)
        kc = critical_coupling(q, AuxiliaryKind.COULOMB)
        assert 5.0 < kc <= 10.0
        afm_solve(PotentialModel.exponential(kc * 1.01), AuxiliaryKind.COULOMB, q)
        with pytest.raises(NoBoundState):
            afm_solve(PotentialModel.exponential(kc * 0.99),
                      AuxiliaryKind.COULOMB, q)

    def test_quadratic_kind(self):
        q = QuantumNumbers(0, 0)
        kc = critical_coupling(q, AuxiliaryKind.QUADRATIC)
        assert kc == pytest.approx(1.5 ** 2 * math.e ** 2 / 4.0, rel=1e-10)


class TestValidation:
    def test_model_validation(self):
        with pytest.raises(DomainError):
            PotentialModel.exponential(-1.0)
        with pytest.raises(DomainError):
            PotentialModel.linear(m=0.0)
        with pytest.raises(DomainError):
            PotentialModel.from_name("coulomb")

    @pytest.mark.parametrize("name,k", [("linear", 5.0), ("log", 0.5), ("exp", None)])
    def test_name_constructor_takes_depth_only_for_exp(self, name, k):
        with pytest.raises(DomainError):
            PotentialModel.from_name(name, k)

    def test_families_are_classes(self):
        assert PotentialModel.from_name("logarithmic") == PotentialModel.logarithmic()
        assert PotentialModel.from_name("exp", 20.0).family == "exp"
        assert not hasattr(PotentialModel.logarithmic(), "k")


class TestScalarAndArrayPaths:
    # V and V' evaluate a Python float with math and an array with numpy,
    # from one formula per family: the two namespaces must not drift apart
    _R = np.concatenate([10.0 ** np.random.default_rng(23).uniform(-300.0, 3.0, 1000),
                         np.random.default_rng(24).uniform(1e-300, 1e3, 1000)]).tolist()

    @pytest.mark.parametrize("v,ulps", [
        (LINEAR, 0), (PotentialModel.linear(0.7, 3.3), 0), (LOG, 1),
        # math.exp and numpy's exp differ by at most 1 ulp, which the product
        # with k, rounded once more, can take to 2 ulp of V
        (PotentialModel.exponential(1.0), 1), (PotentialModel.exponential(20.0), 2),
        (PotentialModel.exponential(33265.0), 2)], ids=str)
    def test_a_float_and_a_one_element_array_agree(self, v, ulps):
        for f in (v.v, v.v_prime):
            for x in self._R:
                scalar, array = f(x), f(np.array([x]))[0]
                assert type(scalar) is float
                assert abs(scalar - array) <= ulps * math.ulp(array), (f.__name__, x)
