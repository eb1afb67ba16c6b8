"""Independent references the tests compare the package against.

The r-moments here are the general double sums over the Laguerre
expansion terms, evaluated in exact rational arithmetic; the package
computes the same moments from one floating-point sum of positive terms
(``exact._laguerre_moment``).  ``solve_w_power`` inverts z = W(x) x^alpha
for the Lambert round-trip checks, from both real branches of
``mpmath.lambertw``.  ``numerov_state`` is a second numeric opinion
on the oracle for the states without a closed form: the 4th-order Numerov
eigenvalue on a uniform grid, started from ``sturm_level``'s 3-point level
and refined by Cooley's corrector on ``numerov_assemble_banded``'s system,
normalized by the Simpson weights of ``simpson_weights``.  ``power_law_moments`` steps the generalized virial
recurrence and ``psi0_from_force`` gives |psi(0)|^2 from the mean
force, two relations the observables are checked against.
``tangent_sign_violations`` counts the AFM tangent's sign violations one
sample at a time.  ``numeric_observables_per_moment`` integrates a state's
moments one dot product with its weights at a time.
``hydrogen_radial_closure`` and ``oscillator_radial_closure`` are the two
separate radial evaluators the scale classes' one weighted-Laguerre
evaluator replaced, kept to hold it to them bit for bit.
``linear_s_psi_unclipped`` is the Airy S-state evaluator before r was
clipped where Ai underflows.  ``quadrature_mean_potential`` is the composite Gauss-Legendre rule that
gave the trial <V> before every family had it in closed form, on the
density cutoff ``trial_cutoff``; ``mean_exp_neg_r_mp`` is <e^-r> of a
trial state by ``mpmath.quad``, ``trial_r2_p2_mp`` its <r^2> and <p^2>
the same way, and ``dilated_overlap_mp`` the overlap of two dilated states
of one basis.  ``exp_s_energy`` is the exact energy of
an S-state of the exponential well, from a zero of a Bessel function.
``lagrange_mesh_level`` is a converged eigenvalue of any radial problem
from a Lagrange-Laguerre mesh, which shares no grid, domain cut or
corrector with the oracle, and ``reference_r_max`` the end of a domain that
holds a state for these references.
``improved_linear_energy`` is the refined linear-potential energy formula
and ``critical_coupling`` the depth at which an exponential-well AFM
energy crosses zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Dict, NamedTuple, Optional

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal, solve_banded

from auxfield.afm import AuxiliaryKind, Bound, principal_number
from auxfield.errors import DomainError, NumericalFailure
from auxfield.exact import HydrogenScale, ObservableSet, OscillatorScale, QuantumNumbers
from auxfield.observables import p2_p4_from_potential
from auxfield.specfun import airy_ai, airy_zero, laguerre


def hydrogen_r_moment(scale: HydrogenScale, q: QuantumNumbers, k: int) -> float:
    """<r^k> from the general double sum over Laguerre expansion terms.

    The alternating sum is evaluated in exact rational arithmetic (the
    summands are ratios of factorials), so the result is correctly
    rounded for any n; only the final scale factor is floating point.
    """
    n, l = q.n, q.l
    if k < -(2 * l + 2):
        raise DomainError(f"<r^{k}> diverges (or has negative factorials) at l={l}")
    big_n = n + l + 1
    acc = Fraction(0)
    for p in range(n + 1):
        for qq in range(n + 1):
            fact_arg = p + qq + k + 2 * l + 2
            if fact_arg < 0:
                raise DomainError("negative factorial argument in moment sum")
            term = Fraction(
                math.comb(n, p) * math.comb(n, qq) * math.factorial(fact_arg),
                math.factorial(p + 2 * l + 1) * math.factorial(qq + 2 * l + 1))
            acc += -term if (p + qq) % 2 else term
    acc *= Fraction(big_n) ** (k - 1) * Fraction(
        math.factorial(n + 2 * l + 1), 2 * math.factorial(n))
    return float(acc) / (2.0 * scale.eta) ** k


def _gamma_rational(twice_x: int):
    """Gamma(twice_x / 2) as (rational, power of sqrt(pi)); twice_x >= 1."""
    if twice_x % 2 == 0:
        return Fraction(math.factorial(twice_x // 2 - 1)), 0
    m = (twice_x - 1) // 2
    return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), 1


def oscillator_r_moment(scale: OscillatorScale, q: QuantumNumbers, k: int) -> float:
    """<r^k> from the general double sum for oscillator states.

    Half-integer gamma functions are carried as exact rationals times
    powers of sqrt(pi), making the alternating sum cancellation-free.
    """
    n, l = q.n, q.l
    if k <= -(2 * l + 3):
        raise DomainError(f"<r^{k}> diverges at l={l}")
    acc = Fraction(0)
    pi_power = None
    for p in range(n + 1):
        for qq in range(n + 1):
            num, s_num = _gamma_rational(2 * l + 2 * p + 2 * qq + k + 3)
            d1, s_d1 = _gamma_rational(2 * p + 2 * l + 3)
            d2, s_d2 = _gamma_rational(2 * qq + 2 * l + 3)
            term = num / (d1 * d2) * (math.comb(n, p) * math.comb(n, qq))
            pi_power = s_num - s_d1 - s_d2  # constant across the sum
            acc += -term if (p + qq) % 2 else term
    pref, s_pref = _gamma_rational(2 * n + 2 * l + 3)
    acc *= pref / math.factorial(n)
    total_pi = (s_pref + (pi_power if pi_power is not None else 0)) * 0.5
    return float(acc) * math.pi ** total_pi / scale.lam ** k


def _signed_root(z: float, alpha_plus_1: float) -> float:
    """Real z**(1/alpha_plus_1), allowing negative z for odd integer roots."""
    if z >= 0.0:
        return z ** (1.0 / alpha_plus_1)
    k = round(alpha_plus_1)
    if abs(alpha_plus_1 - k) < 1e-12 and k % 2 != 0:
        return -((-z) ** (1.0 / alpha_plus_1))
    raise DomainError(
        f"z**(1/(alpha+1)) undefined for z={z} with alpha+1={alpha_plus_1}")


_NEG_INV_E = -math.exp(-1.0)


def _lambert_w_real(x: float, branch: int) -> float:
    """Real W_branch(x), branch 0 or -1, from ``mpmath.lambertw``; an argument
    a few ulp below -1/e is taken as -1/e."""
    if x < _NEG_INV_E - 4e-16 or (branch == -1 and x >= 0.0):
        raise DomainError(f"x={x} outside the real domain of W_{branch}")
    with mpmath.workdps(30):
        return float(mpmath.re(mpmath.lambertw(max(x, _NEG_INV_E), branch)))


def solve_w_power(z: float, alpha: float) -> float:
    """Solve z = W_0(x) * x**alpha for x.

    Uses the closed-form cases alpha = 0 and alpha = -1, otherwise the
    substitution x = y e^y, which maps the problem onto an inner Lambert
    evaluation.  The branch of the inner evaluation is not always the
    principal one; both real branches are tried and each candidate is
    validated against the defining relation, so the returned x always
    satisfies W_0(x) x^alpha = z.  DomainError is raised when the inner
    argument leaves both branch domains (or the candidate W value leaves
    W_0's range, w >= -1), and when z^(1/(alpha+1)) does not exist for
    the sign of z.
    """
    z = float(z)
    alpha = float(alpha)
    if alpha == 0.0:
        # here z is the W value itself; enforce branch range
        if z < -1.0 - 1e-12:
            raise DomainError(f"z={z} outside the W_0 range")
        return z * math.exp(z)
    if alpha == -1.0:
        if z <= 0.0:
            raise DomainError("alpha = -1 requires z > 0")
        y = -math.log(z)
        if y < -1.0 - 1e-12:
            raise DomainError(f"z={z} outside the W_0 range for alpha=-1")
        return y / z
    roots = [_signed_root(z, alpha + 1.0)]
    k = round(alpha + 1.0)
    if z > 0.0 and abs(alpha + 1.0 - k) < 1e-12 and k % 2 == 0:
        roots.append(-roots[0])  # even integer root: both signs are real
    domain_failure = None
    for root in roots:
        inner = alpha / (alpha + 1.0) * root
        for inner_branch in (0, -1):
            try:
                u = _lambert_w_real(inner, inner_branch)
            except DomainError as exc:
                domain_failure = exc
                continue
            y = (alpha + 1.0) / alpha * u
            if y < -1.0 - 1e-12:
                continue
            # the candidate must reproduce z^(1/(alpha+1))
            recon = y * math.exp(alpha * y / (alpha + 1.0))
            if abs(recon - root) <= 1e-9 * max(abs(root), 1e-30):
                return y * math.exp(y)
    if domain_failure is not None:
        raise DomainError(
            f"inner Lambert argument outside both branch domains for z={z}, "
            f"alpha={alpha}") from domain_failure
    raise DomainError(
        f"no W_0 value solves z={z}, alpha={alpha}")


def numerov_assemble_banded(w, h, l, m):
    """Solution of the Numerov system A(E) u = e_m on all rows of w.

    Row i of the tridiagonal A is a[i-1] u[i-1] - b[i] u[i] + a[i+1] u[i+1]
    with a = 1 - h^2 w/12, b = 2 + 10 h^2 w/12 (and a[0] u[0] -> -u[1]/6
    for u ~ C r^2 at l = 1); the unknowns start after the last index up to
    m where h^2 w/12 > 1/2, and the last row is the decaying tail
    u[n-2] = exp(kappa h) u[n-1], kappa^2 = w[n-1].
    """
    n = w.shape[0]
    c = h * h / 12.0
    coarse = np.nonzero(c * w[1:m + 1] > 0.5)[0]
    start = int(coarse[-1]) + 2 if coarse.size else 1
    if start > m:
        raise NumericalFailure("h^2 w/12 > 1/2 at the matching point")
    a = 1.0 - c * w[start:]
    ab = np.zeros((3, n - start))
    ab[0, 1:] = a[1:]
    ab[1] = -2.0 - 10.0 * c * w[start:]
    ab[2, :-1] = a[:-1]
    if start == 1 and l == 1:
        ab[1, 0] -= 1.0 / 6.0
    ab[1, -1] = -math.exp(math.sqrt(max(w[n - 1], 1e-30)) * h)
    ab[2, -2] = 1.0
    rhs = np.zeros(n - start)
    rhs[m - start] = 1.0
    u = np.zeros(n)
    u[start:] = solve_banded((1, 1), ab, rhs)
    return u


def power_law_moments(lambda_exp: float, a: float, m: float, energy: float,
                      q: QuantumNumbers, s_max: int,
                      seeds: Optional[Dict[int, float]] = None) -> Dict[int, float]:
    """Moments <r^s> from the generalized virial recurrence.

    For V(r) = sgn(lambda) a r^lambda the relation
    2(s+1) E <r^s> - sgn(lambda) a (2s+lambda+2) <r^{lambda+s}>
    + s/(4m) (s^2 - 1 - 4 l(l+1)) <r^{s-2}> = 0
    is stepped forward from s = 0.  For l > 0 (and lambda > 1) some low
    moments cannot be generated and must be supplied through ``seeds``.
    """
    if abs(lambda_exp - round(lambda_exp)) > 1e-12:
        raise DomainError("the moment recurrence closes only for integer exponents")
    lam = int(round(lambda_exp))
    if lam < 1:
        raise DomainError("forward moment chain requires a positive exponent")
    moments: Dict[int, float] = {0: 1.0}
    if seeds:
        moments.update(seeds)
    big_l = q.big_l
    for s in range(0, s_max - lam + 1):
        target = lam + s
        if target in moments:
            continue
        coeff_back = s / (4.0 * m) * (s * s - 1.0 - 4.0 * big_l)
        back = 0.0
        if coeff_back != 0.0:
            if s - 2 not in moments:
                raise DomainError(
                    f"moment <r^{s - 2}> required as a seed for l={q.l}")
            back = coeff_back * moments[s - 2]
        if s not in moments:
            raise DomainError(f"moment <r^{s}> required as a seed")
        moments[target] = (2.0 * (s + 1) * energy * moments[s] + back) / (
            a * (2.0 * s + lam + 2.0))
    return {s: moments[s] for s in sorted(moments) if s <= s_max}


def simpson_weights(points: int, h: float) -> np.ndarray:
    """Weights of ``points`` >= 3 nodes spaced h, w @ y = scipy.integrate.simpson(y, dx=h):
    composite Simpson, for an even count with Cartwright's correction on the last interval."""
    wts = np.full(points, 2.0 * h / 3.0)
    wts[1::2] = 4.0 * h / 3.0
    wts[0] = wts[-1] = h / 3.0
    if points % 2 == 0:
        wts[-3:] = (5.0 * h / 4.0, h, 5.0 * h / 12.0)
    return wts


def numerov_state(v, q: QuantumNumbers, r_max: float, points: int):
    """Level q.n of partial wave q.l of ``v`` on ``points`` uniform nodes over [0, r_max]:
    the Numerov eigenvalue, from ``sturm_level`` by Cooley's corrector (Math. Comp. 15
    (1961) 363), whose step u[m] R[m] / (2m sum u^2) reads the Numerov residual R at the
    outer turning point m of the vector ``numerov_assemble_banded`` returns; it stops at
    a step below 1e-12 |E| or, past the grid's rounding scale eps/(2m h^2), one that no
    longer falls.  The state, a RadialFunction with the Simpson weights that normalize
    it, is positive before its first node; nothing past r_max is kept.  A domain so
    long that u's decaying tail falls below the smallest normal double, where its rows
    no longer hold the recurrence, raises NumericalFailure naming the radius."""
    from auxfield.oracle import RadialFunction
    grid = np.linspace(0.0, r_max, points)
    h, c = float(grid[1]), v.kinetic_2m
    w0 = np.zeros(points)
    w0[1:] = c * np.asarray(v.v(grid[1:]), dtype=float) + q.big_l / grid[1:] ** 2
    energy, last = sturm_level(w0, h, q.n) / c, math.inf
    noise = np.finfo(float).eps / (c * h * h)
    for _ in range(30):
        w = w0 - c * energy
        allowed = np.flatnonzero(w[1:] < 0.0)
        m = int(min(max(allowed[-1] + 1, 4), points - 5))
        u = numerov_assemble_banded(w, h, q.l, m)
        y = (1.0 - h * h * w[m - 1:m + 2] / 12.0) * u[m - 1:m + 2]
        resid = (y[2] - 2.0 * y[1] + y[0]) / (h * h) - w[m] * u[m]
        step = u[m] * resid / (c * float(u @ u))
        if abs(step) <= 1e-12 * abs(energy) or (
                abs(step) <= noise * max(1.0, abs(energy)) and abs(step) >= abs(last)):
            break
        energy, last = energy - step, step
    else:
        raise NumericalFailure("Cooley's corrector did not converge")
    wts = simpson_weights(points, h)
    norm = math.sqrt(wts @ (u * u))
    peak = int(np.argmax(np.abs(u)))   # the tail, solved or normalized, stays normal
    under = np.flatnonzero(np.abs(u[peak:]) < np.finfo(float).tiny * max(1.0, norm))
    if under.size:
        raise NumericalFailure(f"u underflows past r = {grid[peak + under[0]]:.6g}: "
                               f"[0, {r_max:.6g}] is too long for the state")
    u /= math.copysign(norm, next(x for x in u if x))
    return RadialFunction(grid=grid, values=u, weights=wts, energy=float(energy), q=q)


def sturm_level(w0, h: float, n: int) -> float:
    """Eigenvalue n of the 3-point Dirichlet matrix -D2 + diag(w0) on every
    interior row of a uniform grid of step h: one LAPACK dstebz Sturm count
    (scipy's eigh_tridiagonal, select "i"), to machine precision, so its
    index is exactly the level n.  On a grid that resolves the state it lies
    O(h^2) below the level's energy times 2m."""
    diag = np.asarray(w0[1:-1], dtype=float) + 2.0 / (h * h)
    off = np.full(diag.shape[0] - 1, -1.0 / (h * h))
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                  select_range=(n, n))[0])


def psi0_from_force(m: float, mean_vprime: float) -> float:
    """|psi(0)|^2 of an l = 0 state from the mean force, m <V'> / (2 pi)."""
    return m * mean_vprime / (2.0 * math.pi)


def tangent_sign_violations(v, kind, sol, r_samples) -> Optional[int]:
    """Samples r > 0 where V~ = nu0 P + offset lies on the wrong side of V
    for the bound direction; None when no side is expected (a conditional
    bound whose condition is not met)."""
    if sol.bound is Bound.CONDITIONAL and not sol.condition_met:
        return None
    expect = 1.0 if sol.bound is Bound.UPPER else -1.0
    count = 0
    for r in r_samples:
        if r > 0:
            diff = float(sol.nu0 * kind.p(r) + sol.offset - v.v(r))
            if expect * diff < -1e-10 * max(1.0, abs(float(v.v(r)))):
                count += 1
    return count


def numeric_observables_per_moment(f, v) -> ObservableSet:
    """``oracle.numeric_observables`` with each moment, <V>, <V^2> and, for
    l = 0, <V'> its own dot product of the state's weights with u^2 times the
    integrand, skipping a node at the origin, where the r^-2 term is
    4 pi |psi(0)|^2 times its weight; |psi(0)|^2 by ``psi0_from_force``."""
    grid, u, wts = f.grid, f.values, f.weights
    at0 = int(grid[0] == 0.0)
    r, u2, wts_r = grid[at0:], u[at0:] * u[at0:], wts[at0:]
    inv = 1.0 / r
    powers = {-2: inv * inv, -1: inv, 1: r, 2: r * r}
    powers[3] = powers[2] * r
    powers[4] = powers[2] * powers[2]
    r_mom = {k: float(wts_r @ (u2 * rk)) for k, rk in powers.items()}
    vv = v.v(r)
    vu2 = u2 * vv
    mean_v = float(wts_r @ vu2)
    mean_v2 = float(wts_r @ (vu2 * vv))
    psi0 = None
    if f.q.l == 0:   # the force identity; u'(0)^2 = 4 pi |psi(0)|^2 at the origin of <r^-2>
        psi0 = psi0_from_force(v.mass, float(wts_r @ (u2 * v.v_prime(r))))
        if at0:
            r_mom[-2] += float(wts[0]) * 4.0 * math.pi * psi0
    p2, p4 = p2_p4_from_potential(f.energy, mean_v, mean_v2, v.mass)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0,
                         mean_h=f.energy)


def hydrogen_radial_closure(scale: HydrogenScale, q: QuantumNumbers):
    """R(r) of a hydrogen-like state as one exponential prefactor, the
    weight of the Laguerre recurrence, in x = 2 gamma r."""
    n, l = q.n, q.l
    gam = scale.gamma(q)
    big_n = n + l + 1
    log_norm = 1.5 * math.log(2.0 * gam) + 0.5 * (
        math.lgamma(n + 1.0) - math.log(2.0 * big_n)
        - math.lgamma(n + 2 * l + 2.0))

    def radial(r):
        r = np.asarray(r, dtype=float)
        x = 2.0 * gam * r
        with np.errstate(divide="ignore"):  # l ln(0) = -inf gives 0
            power = l * np.log(x) if l else 0.0
        return laguerre(n, 2 * l + 1, x, log_norm + power - 0.5 * x)

    return radial


def oscillator_radial_closure(scale: OscillatorScale, q: QuantumNumbers):
    """R(r) of an oscillator state, as ``hydrogen_radial_closure``, in
    t = (lambda r)^2."""
    n, l = q.n, q.l
    lam = scale.lam
    log_norm = 1.5 * math.log(lam) + 0.5 * (
        math.log(2.0) + math.lgamma(n + 1.0) - math.lgamma(n + l + 1.5))
    alpha = l + 0.5

    def radial(r):
        r = np.asarray(r, dtype=float)
        x = lam * r
        t = x * x
        with np.errstate(divide="ignore"):  # l ln(0) = -inf gives 0
            power = l * np.log(x) if l else 0.0
        return laguerre(n, alpha, t, log_norm + power - 0.5 * t)

    return radial


def linear_s_psi_unclipped(m: float, a: float, n: int):
    """psi(r) of ``exact.linear_s_state(m, a, n)`` with x = (2 m a)^(1/3) r
    unclipped, which overflows to inf for r near the largest double."""
    alpha = airy_zero(n)
    scale = (2.0 * m * a) ** (1.0 / 3.0)
    _, aip_at_zero = airy_ai(alpha)
    norm = scale ** 0.5 / (math.sqrt(4.0 * math.pi) * aip_at_zero)

    def psi(r):
        x = scale * np.asarray(r, dtype=float)
        out = np.empty_like(x)
        small = x < 1e-3
        if np.any(~small):
            out[~small] = norm * airy_ai(x[~small] + alpha)[0] / x[~small]
        if np.any(small):
            d = x[small]
            out[small] = norm * aip_at_zero * (1.0 + alpha * d * d / 6.0 + d ** 3 / 12.0)
        out *= scale
        return out if out.ndim else float(out)

    return psi


def trial_cutoff(scale, q: QuantumNumbers) -> float:
    """Radius beyond which the trial density is < ~1e-14 of its peak."""
    if isinstance(scale, HydrogenScale):
        return (40.0 + 14.0 * q.n + 6.0 * q.l) / (2.0 * scale.gamma(q))
    return math.sqrt(45.0 + 25.0 * q.n + 8.0 * q.l) / scale.lam


@cache
def _gauss_legendre_24():
    return leggauss(24)


def _composite_gauss_legendre(f, panels: int) -> float:
    """Integral of the vectorized f over [0, 1] by ``panels`` equal
    panels of the 24-node Gauss-Legendre rule."""
    nodes, weights = _gauss_legendre_24()
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    return 0.5 / panels * float(np.dot(np.tile(weights, panels), f(t)))


def quadrature_mean_potential(v, sol, q: QuantumNumbers) -> float:
    """<V> over the trial density by composite Gauss-Legendre
    quadrature in t, r = r_hi t^2 (nodes cluster at the origin, where
    ln r is singular); the error is the change from 32 ceil((n+1)/32)
    panels, 32 for n < 32, to twice that, accepted below 1e-9 relative
    (1e-12 absolute) and raised as ``NumericalFailure`` above."""
    radial = sol.scale.radial(q)
    r_hi = trial_cutoff(sol.scale, q)

    def integrand(t):
        r = r_hi * t * t
        with np.errstate(over="ignore", invalid="ignore"):
            f = v.v(r) * radial(r) ** 2 * r * r * (2.0 * r_hi * t)
        if not np.all(np.isfinite(f)):
            raise NumericalFailure("<V> integrand is non-finite")
        return f

    panels = 32 * math.ceil((q.n + 1) / 32)
    coarse = _composite_gauss_legendre(integrand, panels)
    val = _composite_gauss_legendre(integrand, 2 * panels)
    err = abs(val - coarse)
    if err > max(1e-9 * abs(val), 1e-12):
        raise NumericalFailure(
            f"<V> quadrature error {err:.2e} for value {val:.6e}")
    return val


def mean_exp_neg_r_mp(scale, q: QuantumNumbers, dps: int = 30):
    """<e^-r> of a trial state by ``mpmath.quad`` at ``dps`` digits, in
    y = 2 gamma r (density y^(alpha+1) e^-y L^2, e^-r = e^(-c y)) or
    y = lambda r (density 2 y^(2 alpha+1) e^(-y^2) L^2 at y^2,
    e^-r = e^(-c y)), with L = L_n^alpha from its power series, over the
    span where the integrand exceeds e^-80 of its peak (widened by 2 and
    1.5), broken at octaves for the rise from y = 0 and into n + 16 equal
    pieces for the oscillations."""
    n, l = q.n, q.l
    hydrogen = isinstance(scale, HydrogenScale)
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(2 * l + 1) if hydrogen else l + mpmath.mpf(1) / 2
        coef = [(-1) ** j * mpmath.binomial(n + alpha, n - j) / mpmath.factorial(j)
                for j in range(n, -1, -1)]
        norm = mpmath.gamma(n + alpha + 1) / mpmath.factorial(n)
        if hydrogen:
            norm *= 2 * n + alpha + 1
            c = 1 / (2 * mpmath.mpf(scale.gamma(q)))
            power, top = alpha + 1, 4 * n + 2 * alpha + 200
            log_w = lambda y: power * mpmath.log(y) - y * (1 + c)
            poly = lambda y: mpmath.polyval(coef, y)
        else:
            norm /= 2
            c = 1 / mpmath.mpf(scale.lam)
            power, top = 2 * alpha + 1, mpmath.sqrt(4 * n + 2 * alpha + 200)
            log_w = lambda y: power * mpmath.log(y) - y * (y + c)
            poly = lambda y: mpmath.polyval(coef, y * y)

        def log_f(y):
            return log_w(y) + 2 * mpmath.log(abs(poly(y)) + mpmath.mpf(10) ** -300)

        scan = [top * mpmath.mpf(2) ** (-j / 4) for j in range(400)]
        logs = [log_f(y) for y in scan]
        peak = max(logs)
        live = [y for y, lf in zip(scan, logs) if lf > peak - 80]
        lo, hi = min(live) / 2, max(live) * 1.5
        octaves = [lo * mpmath.mpf(2) ** j for j in range(int(mpmath.log(hi / lo, 2)))]
        pts = sorted(set(octaves + [lo + (hi - lo) * j / (n + 16) for j in range(n + 17)]))
        # mpmath stops on an absolute error of 10^-dps: scale the peak to 1
        f = lambda y: mpmath.exp(log_w(y) - peak) * poly(y) ** 2
        return mpmath.quad(f, pts, method="gauss-legendre") * mpmath.exp(peak) / norm



def dilated_overlap_mp(hydrogen: bool, n: int, n_prime: int, l: int, a: float,
                       dps: int = 40):
    """<n l|n' l> of two hydrogen-like (``hydrogen``) or oscillator states of
    scales 1 and a, by Gauss-Legendre ``mpmath.quad`` at ``dps`` digits of
    r^2 R R', each R from its textbook form, with L from its power series:
    N x^l e^(-x/2) L_n^(2l+1)(x), x = 2 eta r/(n+l+1), or N (lambda r)^l
    e^(-(lambda r)^2/2) L_n^(l+1/2)((lambda r)^2).  The product decays as e^-y
    in y = s r, s the sum of the two gamma, or as e^(-y^2), s^2 the mean of the
    two lambda^2: [0, y_top] in y, e^-200 past the peak, is cut into
    (n + n')//4 + 4 equal pieces."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        alpha = mpmath.mpf(2 * l + 1) if hydrogen else l + mpmath.mpf(1) / 2

        def laguerre_mp(m):
            coef = [(-1) ** j * mpmath.binomial(m + alpha, m - j) / mpmath.factorial(j)
                    for j in range(m, -1, -1)]
            return lambda x: mpmath.polyval(coef, x)

        if hydrogen:
            def radial(eta, m):
                gam, lag = eta / (m + l + 1), laguerre_mp(m)
                norm = mpmath.sqrt((2 * gam) ** 3 * mpmath.factorial(m)
                                   / (2 * (m + l + 1) * mpmath.gamma(m + 2 * l + 2)))
                return lambda r: (norm * (2 * gam * r) ** l * mpmath.exp(-gam * r)
                                  * lag(2 * gam * r))

            s = 1 / mpmath.mpf(n + l + 1) + a / (n_prime + l + 1)
            y_top = 4 * max(n, n_prime) + 2 * alpha + 200
        else:
            def radial(lam, m):
                lag = laguerre_mp(m)
                norm = mpmath.sqrt(2 * lam ** 3 * mpmath.factorial(m)
                                   / mpmath.gamma(m + l + mpmath.mpf(3) / 2))
                return lambda r: (norm * (lam * r) ** l * mpmath.exp(-(lam * r) ** 2 / 2)
                                  * lag((lam * r) ** 2))

            s = mpmath.sqrt((1 + a * a) / 2)
            y_top = mpmath.sqrt(4 * max(n, n_prime) + 2 * alpha + 200)
        f, g = radial(mpmath.mpf(1), n), radial(a, n_prime)
        pieces = (n + n_prime) // 4 + 4
        pts = [y_top / s * j / pieces for j in range(pieces + 1)]
        return mpmath.quad(lambda r: r * r * f(r) * g(r), pts, method="gauss-legendre")


def trial_r2_p2_mp(scale, q: QuantumNumbers, dps: int = 20):
    """<r^2> and <p^2> = int (u'^2 + l(l+1) u^2/r^2) dr of a hydrogen-like or
    oscillator trial state by Gauss-Legendre ``mpmath.quad`` at ``dps`` digits,
    u = r R from the textbook forms of ``dilated_overlap_mp`` and u' from them
    term by term, L and L' from L's power series (``mpmath.polyval``), on
    n + 8 equal pieces of [0, y_top / s], y = s r, as there."""
    n, l = q.n, q.l
    hydrogen = isinstance(scale, HydrogenScale)
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(2 * l + 1) if hydrogen else l + mpmath.mpf(1) / 2
        coef = [(-1) ** j * mpmath.binomial(n + alpha, n - j) / mpmath.factorial(j)
                for j in range(n, -1, -1)]
        if hydrogen:   # exponent e(r) = gamma r, argument x(r) = 2 gamma r of L
            gam = mpmath.mpf(scale.gamma(q))
            c, top = 2 * gam, (4 * n + 2 * alpha + 200) / (2 * gam)
            norm = mpmath.sqrt(c ** 3 * mpmath.factorial(n)
                               / (2 * (n + l + 1) * mpmath.gamma(n + 2 * l + 2)))
            parts = lambda r: (gam * r, gam, c * r, c)
        else:          # e(r) = (lambda r)^2 / 2, x(r) = (lambda r)^2
            c = lam = mpmath.mpf(scale.lam)
            top = mpmath.sqrt(4 * n + 2 * alpha + 200) / lam
            norm = mpmath.sqrt(2 * lam ** 3 * mpmath.factorial(n)
                               / mpmath.gamma(n + l + mpmath.mpf(3) / 2))
            parts = lambda r: ((lam * r) ** 2 / 2, lam * lam * r, (lam * r) ** 2, 2 * lam * lam * r)

        def u_du(r):   # u = N c^l r^(l+1) e^-e(r) L(x(r)) and its derivative
            e, de, x, dx = parts(r)
            lag, dlag = mpmath.polyval(coef, x, derivative=True)
            w = norm * c ** l * r ** l * mpmath.exp(-e)
            return w * r * lag, w * ((l + 1) * lag + r * (dlag * dx - de * lag))

        def kinetic(r):
            u, du = u_du(r)
            return du * du + (l * (l + 1) * u * u / (r * r) if l else 0)

        pts = [top * j / (n + 8) for j in range(n + 9)]
        r2 = mpmath.quad(lambda r: (r * u_du(r)[0]) ** 2, pts, method="gauss-legendre")
        return float(r2), float(mpmath.quad(kinetic, pts, method="gauss-legendre"))


def exp_s_energy(k: float, n: int, nu: float) -> float:
    """Exact energy of S-state n of H = p^2 - k e^-r, the textbook exponential
    well (Flugge, Practical Quantum Mechanics, 1971).

    x = 2 sqrt(k) e^(-r/2) turns the radial equation into Bessel's equation
    of order nu = 2 sqrt(-E), and u(0) = 0 makes 2 sqrt(k) the (n+1)-th zero
    of J_nu, so E = -nu^2/4.  ``mpmath.findroot`` finds the root of
    nu -> J_nu(2 sqrt(k)) from the approximate ``nu``; n sign changes of J_nu
    below 2 sqrt(k) confirm its level.  No zero of J_nu lies below nu, and
    consecutive zeros lie more than 3 apart, so a step of 1 from nu to
    2 sqrt(k) - 1 sees each zero below 2 sqrt(k) once.
    """
    root = _exp_s_order(k, n, nu)
    return float(-root * root / 4)


def _exp_s_order(k: float, n: int, nu: float):
    """The order nu of ``exp_s_energy``, an mpmath number of 30 digits."""
    with mpmath.workdps(30):
        x = 2 * mpmath.sqrt(mpmath.mpf(k))
        root = mpmath.findroot(lambda t: mpmath.besselj(t, x), mpmath.mpf(nu))
        points = mpmath.linspace(root, x - 1, max(2, int(x - 1 - root) + 2))
        signs = [mpmath.sign(mpmath.besselj(root, t)) for t in points]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    if not (root > 0 and changes == n):
        raise NumericalFailure(f"J_nu(2 sqrt({k})) = 0 at nu = {root} is zero "
                               f"{changes + 1}, not {n + 1}")
    return root


def exp_s_psi0_sq(k: float, n: int, nu: float) -> float:
    """|psi(0)|^2 of the S-state of ``exp_s_energy``, whose reduced radial
    function is u(r) = J_nu(2 sqrt(k) e^(-r/2)): with x = 2 sqrt(k) e^(-r/2),
    dr = -2 dx/x, so |psi(0)|^2 = u'(0)^2/(4 pi int_0^inf u^2 dr)
    = k J_nu'(2 sqrt(k))^2 / (4 pi int_0^(2 sqrt(k)) J_nu(x)^2 (2/x) dx).
    The integral is mpmath's tanh-sinh rule at 30 digits on n + 2 equal
    panels.  The integrand goes as x^(2 nu - 1) at 0, singular for nu < 1/2,
    so the first panel [0, a] is taken in s = (x/a)^(2 nu), where it is
    J_nu(a s^(1/(2 nu)))^2/(nu s), finite at s = 0: on x the panels lost 1%
    at nu = 0.029 (k = 1.5), and 20 digits or Gauss-Legendre 1e-9 at k = 20."""
    root = _exp_s_order(k, n, nu)
    with mpmath.workdps(30):
        x = 2 * mpmath.sqrt(mpmath.mpf(k))
        slope = mpmath.besselj(root, x, derivative=1)
        edges = mpmath.linspace(0, x, n + 3)
        first = mpmath.quad(lambda s: mpmath.besselj(root, edges[1] * s ** (1 / (2 * root))) ** 2
                            / (root * s), [0, 1])
        norm = first + mpmath.quad(lambda t: 2 * mpmath.besselj(root, t) ** 2 / t, edges[1:])
        return float(k * slope * slope / (4 * mpmath.pi * norm))


class MeshLevel(NamedTuple):
    """A Lagrange-mesh eigenvalue on N points, the same level on 1.25 N
    points over the same domain, and that domain's radius."""

    energy: float
    finer: float
    r_max: float

    @property
    def error(self) -> float:
        """|E(N) - E(1.25 N)|, the estimate of the error of ``energy``."""
        return abs(self.energy - self.finer)

    def is_reference(self, threshold: Optional[float] = None) -> bool:
        """Whether the level can judge another solver: N and 1.25 N agree
        within 1e-12 relative to max(1, |E|), and both lie below the
        continuum ``threshold`` (None for a confining potential).  Near
        threshold both meshes can put a level in the continuum and agree."""
        below = threshold is None or max(self.energy, self.finer) < threshold
        return below and self.error <= 1e-12 * max(1.0, abs(self.energy))


def _mesh_eigenvalues(potential, mass: float, l: int, points: int, r_max: float):
    """Eigenvalues of p^2/(2m) + V on the x-regularized Lagrange-Laguerre mesh
    (Baye, Phys. Rep. 565 (2015) 1) with its last point at r_max.

    The mesh points x_i are the zeros of L_N, the eigenvalues of the Laguerre
    Jacobi matrix (laggauss overflows its weights above N = 180, and the
    weights are not needed), and r = h x with h = r_max / x_N.  The kinetic
    matrix of -d^2/dx^2 is T_ii = -(x_i^2 - 2(2N+1) x_i - 4)/(12 x_i^2) and
    T_ij = (-1)^(i-j) (x_i + x_j)/(sqrt(x_i x_j) (x_i - x_j)^2); the
    potential is diagonal, so H = T/h^2 + l(l+1)/r_i^2 + 2m V(r_i) and E is
    an eigenvalue of H over 2m."""
    i = np.arange(points)
    x = np.linalg.eigvalsh(np.diag(2.0 * i + 1.0) - np.diag(i[1:].astype(float), -1))
    h = r_max / x[-1]
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    sign = 1.0 - 2.0 * (np.add.outer(i, i) % 2)
    t = sign * (x[:, None] + x[None, :]) / (np.sqrt(np.outer(x, x)) * gap * gap)
    np.fill_diagonal(t, -(x * x - 2.0 * (2 * points + 1) * x - 4.0) / (12.0 * x * x))
    r = h * x
    ham = t / (h * h)
    ham[i, i] += l * (l + 1) / (r * r) + 2.0 * mass * np.asarray(potential(r), dtype=float)
    return np.linalg.eigvalsh(ham) / (2.0 * mass)


def _wkb_radius(potential, mass: float, l: int, energy: float, r_guess: float,
                action: float = 36.0) -> float:
    """The radius past the outer turning point at ``energy`` where the WKB
    decay action, the integral of sqrt(2m (V - E) + l(l+1)/r^2), reaches
    ``action`` (e^-36 = 2.3e-16, double rounding).  The turning point is the
    last classically allowed point of a grid on (0, r_guess]; r_guess is
    kept when the action never gets there, as at E >= 0 in a well."""
    def w(r):
        return 2.0 * mass * (np.asarray(potential(r), dtype=float) - energy) + l * (l + 1) / (r * r)

    r = np.linspace(0.0, r_guess, 20001)[1:]
    allowed = np.flatnonzero(w(r) < 0.0)
    r_turn = float(r[allowed[-1]]) if allowed.size else r_guess
    span = max(1.0, r_turn)
    while span < 1e8:
        r = np.linspace(r_turn, r_turn + span, 4001)
        s = np.sqrt(np.maximum(w(r), 0.0))
        walked = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(r))])
        if walked[-1] >= action:
            return float(np.interp(action, walked, r))
        span *= 2.0
    return r_guess


def lagrange_mesh_level(potential, mass: float, q: QuantumNumbers, points: int,
                        r_guess: float) -> MeshLevel:
    """Level q.n of partial wave q.l of p^2/(2m) + V, V = ``potential(r)`` on
    float arrays.  A first solve on (0, r_guess] gives the energy that sets
    the domain by ``_wkb_radius``; the level is then solved on N = ``points``
    and on 1.25 N mesh points over that domain.  The mesh converges
    spectrally for smooth V but only algebraically where V is singular at
    the origin (ln r at l = 0); near threshold it needs more points.  N must
    grow like 2n + 60."""
    first = _mesh_eigenvalues(potential, mass, q.l, points, r_guess)[q.n]
    r_max = _wkb_radius(potential, mass, q.l, float(first), r_guess)
    energy, finer = (float(_mesh_eigenvalues(potential, mass, q.l, size, r_max)[q.n])
                     for size in (points, round(1.25 * points)))
    return MeshLevel(energy, finer, r_max)


def reference_r_max(v, q: QuantumNumbers) -> float:
    """An end r_max of a reference domain [0, r_max] that holds state q of ``v`` and its
    tail: for the linear family max(30, 2.2 E + 12) in units of (2ma)^(-1/3), E = 3.3
    (N/2)^(2/3), N = 2n + l + 3/2; for log max(30, 1.3 r_t + 45), r_t = 1.2 sqrt(e/2) N;
    for exp max(30 + 5(n + l), 80).  These were the oracle's own default domains, so
    the references keep the domains they were measured on."""
    big_n = 2 * q.n + q.l + 1.5
    if v.family == "linear":
        e_red = 3.0 * (big_n / 2.0) ** (2.0 / 3.0) * 1.1
        return (2.0 * v.m * v.a) ** (-1.0 / 3.0) * max(30.0, 2.2 * e_red + 12.0)
    if v.family == "log":
        return max(30.0, 1.3 * (1.2 * math.sqrt(math.e / 2.0) * big_n) + 45.0)
    return max(30.0 + 5.0 * (q.n + q.l), 80.0)


def improved_linear_energy(q: QuantumNumbers) -> float:
    """Refined linear-potential energy formula (reduced units 2m = a = 1)."""
    base = q.n + math.sqrt(3.0) / math.pi * q.l + 0.75
    return (1.5 * math.pi) ** (2.0 / 3.0) * base ** (2.0 / 3.0)


def critical_coupling(q: QuantumNumbers, kind: AuxiliaryKind) -> float:
    """Depth k = e^2 N^2 / 4 at which the exponential-potential AFM energy
    crosses zero (there W0(T) = -2/3)."""
    big_n = principal_number(kind, q)
    return math.e ** 2 * big_n * big_n / 4.0
