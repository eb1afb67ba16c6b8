import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from auxfield.errors import DomainError
from auxfield.specfun import airy_ai, airy_zero, airy_zero_estimate, lambert_w, laguerre
from reference import solve_w_power


class TestAiry:
    def test_value_at_origin(self):
        # power series constants evaluated independently
        c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
        c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
        v, d = airy_ai(0.0)
        assert v == pytest.approx(c1, rel=1e-14)
        assert d == pytest.approx(-c2, rel=1e-14)
        assert v == pytest.approx(0.3550280539, abs=1e-10)

    def test_decay_at_ten(self):
        v, _ = airy_ai(10.0)
        assert 0 < v < 1e-9

    def test_against_scipy_positive_axis(self):
        x = np.linspace(0.0, 40.0, 4001)
        v, d = airy_ai(x)
        ref_v, ref_d, _, _ = special.airy(x)
        assert np.max(np.abs(v - ref_v) / np.abs(ref_v)) < 1e-12
        assert np.max(np.abs(d - ref_d) / np.abs(ref_d)) < 1e-12

    def test_against_scipy_negative_axis(self):
        # near the zeros of Ai a strict relative error is meaningless;
        # compare against the oscillation modulus instead
        x = np.linspace(-40.0, -0.01, 8001)
        v, d = airy_ai(x)
        ref_v, ref_d, _, _ = special.airy(x)
        env = np.hypot(ref_v, ref_d / np.abs(x) ** 0.5)
        assert np.max(np.abs(v - ref_v) / env) < 1e-12
        assert np.max(np.abs(d - ref_d) / (env * np.abs(x) ** 0.5)) < 1e-12

    @pytest.mark.parametrize("as_array", [False, True])
    def test_far_arguments_are_finite_without_overflow_warnings(self, as_array):
        # zeta**k overflows for |x| >~ 2e5; the suite turns warnings into
        # errors, so this fails if the overflow still warns
        x = np.array([-1e6, -3e5, 3e5, 1e6])
        if as_array:
            v, d = airy_ai(x)
        else:
            v, d = map(np.array, zip(*(airy_ai(float(xi)) for xi in x)))
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(d))
        assert np.all(v[2:] == 0.0) and np.all(d[2:] == 0.0)
        # on the negative axis the phase zeta = (2/3)|x|^1.5 carries a
        # rounding error ~ zeta * eps (0.39 of it measured at x = -3e5)
        for xi, vi, di in zip(x[:2], v[:2], d[:2]):
            zeta = 2.0 / 3.0 * abs(xi) ** 1.5
            tol = zeta * np.finfo(float).eps / (math.sqrt(math.pi) * abs(xi) ** 0.25)
            assert abs(vi - _mp(mpmath.airyai, xi)) <= tol
            assert abs(di - _mp(mpmath.airyai, xi, derivative=1)) <= tol * abs(xi) ** 0.5

    def test_zero_estimate_first(self):
        assert airy_zero_estimate(0) == pytest.approx(
            -(9 * math.pi / 8) ** (2 / 3) * (1 + 5 / 48 * (9 * math.pi / 8) ** -2
                                             - 5 / 36 * (9 * math.pi / 8) ** -4),
            rel=1e-14)
        beta0 = (9 * math.pi / 8) ** (2 / 3)
        assert beta0 == pytest.approx(2.320251, abs=1e-6)

    def test_first_zero(self):
        assert airy_zero(0) == pytest.approx(-2.338107410, abs=1e-9)

    def test_zeros_interlace_and_vanish(self):
        zeros = [airy_zero(n) for n in range(31)]
        assert all(zeros[n + 1] < zeros[n] for n in range(30))
        for z in zeros:
            v, _ = airy_ai(z)
            assert abs(v) <= 1e-11

    def test_zeros_against_scipy(self):
        ref = special.ai_zeros(31)[0]
        mine = np.array([airy_zero(n) for n in range(31)])
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-10

    def test_zero_estimate_bound(self):
        for n in range(31):
            beta = (1.5 * math.pi * (n + 0.75)) ** (2 / 3)
            assert abs(airy_zero(n) + beta) <= 0.11 / beta ** 2


class TestLambert:
    def test_trivials(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(-math.exp(-1.0)) == -1.0

    def test_omega_constant(self):
        # fixed-point oracle w <- (w^2 + exp(-w)) / (w + 1)
        w = 0.5
        for _ in range(60):
            w = (w * w + math.exp(-w)) / (w + 1.0)
        assert lambert_w(1.0) == pytest.approx(w, rel=1e-14)
        assert lambert_w(1.0) == pytest.approx(0.5671432904, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w(-0.4)
        for x in (math.nan, math.inf, -math.inf):   # refused before any Halley step
            with pytest.raises(DomainError, match="finite argument"):
                lambert_w(x)

    @pytest.mark.parametrize("x", np.concatenate([
        np.linspace(-math.exp(-1) + 1e-12, 40.0, 301), [1e3, 1e6, 1e12]]))
    def test_residual_principal(self, x):
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w >= -1.0

    @pytest.mark.parametrize("x", np.linspace(-math.exp(-1) + 1e-12, -1e-8, 301))
    def test_residual_lower(self, x):
        # on (-1/e, 0) w e^w = x has a second root W_-1(x) < -1, the
        # non-physical one for the exponential well: lambert_w is W_0
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w > -1.0

    @given(st.floats(min_value=-0.367879, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, x):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))



def _mp(f, x, **kw):
    with mpmath.workdps(40):
        return float(f(mpmath.mpf(float(x)), **kw))


class TestAgainstMpmath:
    """Accuracy claims checked against mpmath at 40 significant digits."""

    def test_airy_negative_axis_relative_to_envelope(self):
        x = np.linspace(-40.0, -0.01, 161)
        v, d = airy_ai(x)
        ref_v = np.array([_mp(mpmath.airyai, t) for t in x])
        ref_d = np.array([_mp(mpmath.airyai, t, derivative=1) for t in x])
        env = np.hypot(ref_v, ref_d / np.abs(x) ** 0.5)
        assert np.max(np.abs(v - ref_v) / env) <= 1e-13
        assert np.max(np.abs(d - ref_d) / (env * np.abs(x) ** 0.5)) <= 1e-13

    def test_airy_positive_axis_relative(self):
        x = np.linspace(0.0, 40.0, 161)
        v, d = airy_ai(x)
        ref_v = np.array([_mp(mpmath.airyai, t) for t in x])
        ref_d = np.array([_mp(mpmath.airyai, t, derivative=1) for t in x])
        assert np.max(np.abs(v - ref_v) / np.abs(ref_v)) <= 1e-13
        assert np.max(np.abs(d - ref_d) / np.abs(ref_d)) <= 1e-13

    @pytest.mark.parametrize("x", [8.0, 8.0001, 8.5, 9.3, 12.0, 40.0])
    def test_airy_asymptotic_branch_within_docstring_bounds(self, x):
        # the fixed 32-term series is the optimal truncation at |x| = 8
        # and tighter beyond: 4e-14 relative for x > 0, 3e-14 of the
        # envelope for x < 0; a scalar gives the bits of a 1-element array
        v, d = airy_ai(x)
        assert abs(v - _mp(mpmath.airyai, x)) <= 4e-14 * abs(_mp(mpmath.airyai, x))
        ref_d = _mp(mpmath.airyai, x, derivative=1)
        assert abs(d - ref_d) <= 4e-14 * abs(ref_d)
        v, d = airy_ai(-x)
        ref_v, ref_d = _mp(mpmath.airyai, -x), _mp(mpmath.airyai, -x, derivative=1)
        env = math.hypot(ref_v, ref_d / math.sqrt(x))
        assert abs(v - ref_v) <= 3e-14 * env
        assert abs(d - ref_d) <= 3e-14 * env * math.sqrt(x)
        for xi in (x, -x):
            array = airy_ai(np.array([xi]))
            assert airy_ai(xi) == (array.value[0], array.derivative[0])

    def test_airy_zeros(self):
        for n in range(31):
            with mpmath.workdps(40):
                ref = float(mpmath.airyaizero(n + 1))
            assert abs(airy_zero(n) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("xs", [np.concatenate([
        -math.exp(-1) + np.logspace(-6, -0.44, 60), -np.logspace(-300, -1, 30),
        np.logspace(-300, 300, 61)])], ids=["W0"])
    def test_lambert_relative(self, xs):
        for x in xs:
            ref = _mp(mpmath.lambertw, x)
            assert abs(lambert_w(float(x)) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("k", [0], ids=["W0"])
    def test_lambert_near_branch_point_within_conditioning(self, k):
        # relative condition number 1/|1 + W| diverges at x = -1/e: the
        # error is bounded by a few ulps times it
        for d in np.logspace(-14, -6, 17):
            x = -math.exp(-1) + d
            ref = _mp(mpmath.lambertw, x, k=k)
            err = abs(lambert_w(x) - ref) / abs(ref)
            assert err * abs(1.0 + ref) <= 1e-15


class TestSolveWPower:
    def test_alpha_zero_closed_case(self):
        # z = e: x = z e^z = e e^e
        assert solve_w_power(math.e, 0.0) == pytest.approx(
            math.e * math.exp(math.e), rel=1e-14)
        assert solve_w_power(math.e, 0.0) == pytest.approx(41.19, abs=0.01)

    def test_alpha_minus_one(self):
        x = solve_w_power(2.0, -1.0)
        assert x == pytest.approx(0.5 * math.log(0.5), rel=1e-14)
        w = lambert_w(x)
        assert abs(w / x - 2.0) < 1e-12

    def test_simple_round_trip(self):
        w = lambert_w(1.0)
        assert solve_w_power(w, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, -2.0, -0.25])
    def test_round_trip_principal(self, alpha):
        for x in np.linspace(0.08, 25.0, 40):
            y = lambert_w(float(x))
            if alpha == -0.25 and y > 3.0:
                continue  # outside the injective window of W(x) x^alpha
            z = y * x ** alpha
            back = solve_w_power(z, alpha)
            assert abs(back - x) <= 1e-10 * x

    def test_round_trip_principal_negative_argument(self):
        # the branch used by the exponential-potential solver: alpha = 2, z < 0
        for x in np.linspace(-0.36, -0.01, 40):
            y = lambert_w(float(x))
            z = y * x ** 2
            back = solve_w_power(z, 2.0)
            assert abs(back - x) <= 1e-10 * abs(x)

    def test_returned_value_always_solves(self):
        # even where the inversion is ambiguous the defining relation holds
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(0.05, 30.0))
            alpha = float(rng.uniform(-0.95, 3.0))
            if abs(alpha) < 0.02:
                continue
            y = lambert_w(x)
            z = y * x ** alpha
            back = solve_w_power(z, alpha)
            w_back = lambert_w(back)
            assert abs(w_back * back ** alpha - z) <= 1e-9 * max(1.0, abs(z))

    def test_no_solution_even_root(self):
        with pytest.raises(DomainError):
            solve_w_power(-2.0, 1.0)  # needs sqrt of a negative number

    def test_domain_error_wrong_branch(self):
        with pytest.raises(DomainError):
            solve_w_power(-2.0, 0.0)  # W0 range is [-1, inf)


class TestLaguerre:
    def test_degree_zero_and_one(self):
        x = np.linspace(0.0, 10.0, 11)
        assert np.all(laguerre(0, 1.7, x) == 1.0)
        assert np.allclose(laguerre(1, 1.7, x), 1.0 + 1.7 - x, rtol=1e-15)

    def test_orthogonality(self):
        # Gauss-Laguerre quadrature oracle for the alpha-weighted product
        alpha = 1.0
        nodes, weights = special.roots_genlaguerre(40, alpha)
        val = np.sum(weights * laguerre(2, alpha, nodes) * laguerre(3, alpha, nodes))
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 3.0])
    def test_explicit_expansion(self, n, alpha):
        # L_n^a(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!
        xs = np.linspace(0.0, 8.0, 9)
        expect = np.zeros_like(xs)
        for k in range(n + 1):
            c = math.gamma(n + alpha + 1) / (
                math.gamma(k + alpha + 1) * math.factorial(n - k))
            expect += (-1.0) ** k * c * xs ** k / math.factorial(k)
        got = laguerre(n, alpha, xs)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)
