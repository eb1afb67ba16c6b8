"""Independent references the tests compare the package against.

The r-moments here are the general double sums over the Laguerre
expansion terms, evaluated in exact rational arithmetic; the package
computes the same moments from one floating-point sum of positive terms
(``exact._laguerre_moment``).  ``solve_w_power`` inverts z = W(x) x^alpha
for the Lambert round-trip checks.  ``numerov_assemble_banded`` solves
the oracle's Numerov system on every row it is given, through scipy's
band-storage solver.  ``power_law_moments`` steps the generalized virial
recurrence and ``psi0_from_force`` gives |psi(0)|^2 from the mean
force, two relations the observables are checked against.
``tangent_sign_violations`` counts the AFM tangent's sign violations one
sample at a time.  ``numeric_observables_per_moment`` integrates an oracle
state's moments one Simpson dot product at a time.
``hydrogen_radial_closure`` and ``oscillator_radial_closure`` are the two
separate radial evaluators the scale classes' one weighted-Laguerre
evaluator replaced, kept to hold it to them bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional

import numpy as np
from scipy.linalg import solve_banded

from auxfield.afm import Bound
from auxfield.errors import DomainError, NumericalFailure
from auxfield.exact import HydrogenScale, ObservableSet, OscillatorScale, QuantumNumbers
from auxfield.observables import p2_p4_from_potential
from auxfield.oracle import _simpson_weights
from auxfield.specfun import WBranch, laguerre, lambert_w


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


def _in_branch_range(branch: WBranch, y: float) -> bool:
    if branch is WBranch.PRINCIPAL:
        return y >= -1.0 - 1e-12
    return y <= -1.0 + 1e-12


def solve_w_power(z: float, alpha: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Solve z = W(x) * x**alpha for x, with W on the requested branch.

    Uses the closed-form cases alpha = 0 and alpha = -1, otherwise the
    substitution x = y e^y, which maps the problem onto an inner Lambert
    evaluation.  The branch of the inner evaluation is not always the
    requested one; both are tried and each candidate is validated against
    the defining relation, so the returned x always satisfies
    W_branch(x) x^alpha = z.  DomainError is raised when the inner
    argument leaves both branch domains (or the candidate W value leaves
    the requested branch's range), and when z^(1/(alpha+1)) does not
    exist for the sign of z.
    """
    z = float(z)
    alpha = float(alpha)
    if alpha == 0.0:
        # here z is the W value itself; enforce branch range
        if not _in_branch_range(branch, z):
            raise DomainError(f"z={z} outside the {branch.name} range")
        return z * math.exp(z)
    if alpha == -1.0:
        if z <= 0.0:
            raise DomainError("alpha = -1 requires z > 0")
        y = -math.log(z)
        if not _in_branch_range(branch, y):
            raise DomainError(f"z={z} outside the {branch.name} range for alpha=-1")
        return y / z
    roots = [_signed_root(z, alpha + 1.0)]
    k = round(alpha + 1.0)
    if z > 0.0 and abs(alpha + 1.0 - k) < 1e-12 and k % 2 == 0:
        roots.append(-roots[0])  # even integer root: both signs are real
    other = WBranch.LOWER if branch is WBranch.PRINCIPAL else WBranch.PRINCIPAL
    domain_failure = None
    for root in roots:
        inner = alpha / (alpha + 1.0) * root
        for inner_branch in (branch, other):
            try:
                u = lambert_w(inner_branch, inner)
            except DomainError as exc:
                domain_failure = exc
                continue
            y = (alpha + 1.0) / alpha * u
            if not _in_branch_range(branch, y):
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
        f"no W value on the {branch.name} branch solves z={z}, alpha={alpha}")


def numerov_assemble_banded(w, h, l, m):
    """Solution of the oracle's Numerov system A(E) u = e_m on all rows of w.

    The rows are those of ``oracle._numerov_assemble``: a = 1 - h^2 w/12
    off the diagonal, -(2 + 10 h^2 w/12) on it, unknowns after the last
    index up to m where h^2 w/12 > 1/2, and the decaying tail
    u[n-2] = exp(kappa h) u[n-1] as the last row.
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
    """``oracle.numeric_observables`` with each moment, <V> and <V^2> its
    own dot product of the Simpson weights with u^2 times the integrand
    (no tail-mass check)."""
    grid, u = f.grid, f.values
    wts = _simpson_weights(grid)
    r = grid[1:]
    u2 = u[1:] * u[1:]
    inv = 1.0 / r
    powers = {-2: inv * inv, -1: inv, 1: r, 2: r * r}
    powers[3] = powers[2] * r
    powers[4] = powers[2] * powers[2]
    r_mom = {k: float(wts[1:] @ (u2 * rk)) for k, rk in powers.items()}
    psi0 = None
    if f.q.l == 0:
        slope_sq = f.slope_at_origin() ** 2
        r_mom[-2] += float(wts[0]) * slope_sq
        psi0 = slope_sq / (4.0 * math.pi)
    vv = v.v(r)
    vu2 = u2 * vv
    mean_v = float(wts[1:] @ vu2)
    mean_v2 = float(wts[1:] @ (vu2 * vv))
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
