"""Closed-form solutions for the three solvable reference systems.

Linear-potential S states (Airy), hydrogen-like systems and harmonic
oscillators, with their moment sets.  All radial evaluators return the
reduced radial part normalized as integral(R^2 r^2 dr) = 1; spherical
harmonics are dropped throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional

import numpy as np

from . import specfun
from .errors import DomainError

__all__ = [
    "QuantumNumbers",
    "HydrogenScale",
    "OscillatorScale",
    "ObservableSet",
    "LinearSState",
    "linear_s_state",
    "linear_s_observables",
    "hydrogen_observables",
    "hydrogen_r_moment",
    "hydrogen_radial",
    "oscillator_observables",
    "oscillator_r_moment",
    "oscillator_radial",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n and orbital angular momentum l."""

    n: int
    l: int = 0

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise DomainError("quantum numbers must be non-negative")

    @property
    def big_l(self) -> float:
        return float(self.l * (self.l + 1))


@dataclass(frozen=True)
class HydrogenScale:
    """Inverse-length scale eta of a hydrogen-like family."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0.0:
            raise DomainError("eta must be positive")

    def gamma(self, q: QuantumNumbers) -> float:
        """Per-state decay constant eta / (n + l + 1)."""
        return self.eta / (q.n + q.l + 1)


@dataclass(frozen=True)
class OscillatorScale:
    """Inverse-length scale lambda of a harmonic-oscillator family."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise DomainError("lambda must be positive")


@dataclass
class ObservableSet:
    """Bundle of radial moments and momentum moments for one state.

    ``r_moments`` maps the integer exponent k to <r^k>; ``psi0_sq`` is
    |psi(0)|^2 and is present only for l = 0 states.
    """

    r_moments: Dict[int, float]
    p2: float
    p4: float
    psi0_sq: Optional[float] = None
    mean_h: Optional[float] = None


# ----------------------------------------------------------------------
# Linear potential, S states (Airy solutions)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSState:
    energy: float
    wavefunction: Callable[[np.ndarray], np.ndarray]
    n: int
    alpha_n: float = field(repr=False, default=0.0)


def linear_s_state(m: float, a: float, n: int) -> LinearSState:
    """Exact l = 0 eigenstate of H = p^2/(2m) + a*r.

    The returned evaluator is the full wavefunction psi(r) (so the radial
    probability density is 4 pi r^2 psi^2); psi(0) is finite and handled
    by a local series.
    """
    if m <= 0 or a <= 0:
        raise DomainError("mass and slope must be positive")
    alpha = specfun.airy_zero(n)
    scale = (2.0 * m * a) ** (1.0 / 3.0)
    energy = -((a * a / (2.0 * m)) ** (1.0 / 3.0)) * alpha
    _, aip_at_zero = specfun.airy_ai(alpha)
    # phase chosen so psi(0+) > 0, matching the Laguerre-family convention
    norm = scale ** 0.5 / (math.sqrt(4.0 * math.pi) * aip_at_zero)

    def psi(r):
        r = np.asarray(r, dtype=float)
        x = scale * r
        out = np.empty_like(x)
        small = x < 1e-3
        if np.any(~small):
            ai, _ = specfun.airy_ai(x[~small] + alpha)
            out[~small] = norm * ai / x[~small]
        if np.any(small):
            # Ai(alpha + d) = Ai'(alpha) * (d + alpha d^3/6 + d^4/12 + ...)
            d = x[small]
            out[small] = norm * aip_at_zero * (
                1.0 + alpha * d * d / 6.0 + d ** 3 / 12.0)
        out *= scale
        return out if out.ndim else float(out)

    return LinearSState(energy=energy, wavefunction=psi, n=n, alpha_n=alpha)


def linear_s_observables(m: float, a: float, n: int) -> ObservableSet:
    """Closed-form moments of the linear-potential S states."""
    if m <= 0 or a <= 0:
        raise DomainError("mass and slope must be positive")
    al = abs(specfun.airy_zero(n))
    s = 2.0 * m * a
    r_mom = {
        1: 2.0 * al / (3.0 * s ** (1.0 / 3.0)),
        2: 8.0 * al ** 2 / (15.0 * s ** (2.0 / 3.0)),
        3: (16.0 * al ** 3 + 15.0) / (35.0 * s),
        4: 16.0 * (8.0 * al ** 4 + 25.0 * al) / (315.0 * s ** (4.0 / 3.0)),
    }
    p2 = s ** (2.0 / 3.0) * al / 3.0
    p4 = s ** (4.0 / 3.0) * al ** 2 / 5.0
    energy = (a * a / (2.0 * m)) ** (1.0 / 3.0) * al
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4,
                         psi0_sq=m * a / (2.0 * math.pi), mean_h=energy)


# ----------------------------------------------------------------------
# Hydrogen-like systems
# ----------------------------------------------------------------------

def hydrogen_radial(scale: HydrogenScale, q: QuantumNumbers):
    """Normalized radial function R(r) for the given eta."""
    n, l = q.n, q.l
    gam = scale.gamma(q)
    big_n = n + l + 1
    log_norm = 1.5 * math.log(2.0 * gam) + 0.5 * (
        math.lgamma(n + 1.0) - math.log(2.0 * big_n)
        - math.lgamma(n + 2 * l + 2.0))
    norm = math.exp(log_norm)

    def radial(r):
        r = np.asarray(r, dtype=float)
        x = 2.0 * gam * r
        out = norm * x ** l * np.exp(-0.5 * x) * specfun.laguerre(n, 2 * l + 1, x)
        return out if out.ndim else float(out)

    return radial


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


def hydrogen_observables(scale: HydrogenScale, q: QuantumNumbers) -> ObservableSet:
    """Closed-form moment set of a hydrogen-like state."""
    n, l = q.n, q.l
    eta = scale.eta
    big_n = float(n + l + 1)
    big_l = q.big_l
    r_mom = {
        -1: eta / big_n ** 2,
        -2: 2.0 * eta ** 2 / ((2 * l + 1) * big_n ** 3),
        1: (3.0 * big_n ** 2 - big_l) / (2.0 * eta),
        2: big_n ** 2 * (5.0 * big_n ** 2 - 3.0 * big_l + 1.0) / (2.0 * eta ** 2),
        3: big_n ** 2 * (35.0 * big_n ** 4 + 5.0 * big_n ** 2 * (5.0 - 6.0 * big_l)
                         + 3.0 * big_l * (big_l - 2.0)) / (8.0 * eta ** 3),
        4: big_n ** 4 * (63.0 * big_n ** 4 + 35.0 * big_n ** 2 * (3.0 - 2.0 * big_l)
                         + 5.0 * big_l * (3.0 * big_l - 10.0) + 12.0) / (8.0 * eta ** 4),
    }
    p2 = eta ** 2 / big_n ** 2
    p4 = eta ** 4 * (8 * n + 2 * l + 5) / ((2 * l + 1) * big_n ** 4)
    psi0 = eta ** 3 / (math.pi * (n + 1) ** 3) if l == 0 else None
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0)


# ----------------------------------------------------------------------
# Harmonic oscillator
# ----------------------------------------------------------------------

def oscillator_radial(scale: OscillatorScale, q: QuantumNumbers):
    """Normalized radial function R(r) for the given lambda."""
    n, l = q.n, q.l
    lam = scale.lam
    log_norm = 1.5 * math.log(lam) + 0.5 * (
        math.log(2.0) + math.lgamma(n + 1.0) - math.lgamma(n + l + 1.5))
    norm = math.exp(log_norm)
    alpha = l + 0.5

    def radial(r):
        r = np.asarray(r, dtype=float)
        x = lam * r
        t = x * x
        out = norm * x ** l * np.exp(-0.5 * t) * specfun.laguerre(n, alpha, t)
        return out if out.ndim else float(out)

    return radial


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


def oscillator_observables(scale: OscillatorScale, q: QuantumNumbers) -> ObservableSet:
    """Closed-form moment set of an oscillator state."""
    n, l = q.n, q.l
    lam = scale.lam
    big_n = 2 * n + l + 1.5
    big_l = q.big_l
    if l == 0:
        gr = math.exp(math.lgamma(n + 1.5) - math.lgamma(n + 1.0))
        r1 = 4.0 * gr / (math.pi * lam)
        r3 = 8.0 * (4 * n + 3) * gr / (3.0 * math.pi * lam ** 3)
        psi0 = lam ** 3 * 2.0 * gr / (math.pi ** 2)
    else:
        r1 = oscillator_r_moment(scale, q, 1)
        r3 = oscillator_r_moment(scale, q, 3)
        psi0 = None
    r_mom = {
        1: r1,
        2: big_n / lam ** 2,
        3: r3,
        4: (6.0 * big_n ** 2 - 2.0 * big_l + 1.5) / (4.0 * lam ** 4),
    }
    p2 = lam ** 4 * r_mom[2]
    p4 = lam ** 8 * r_mom[4]
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0)
