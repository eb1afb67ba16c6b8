"""Auxiliary-field engine.

Builds the tangent auxiliary Hamiltonian for the linear, logarithmic and
exponential potentials with a Coulomb (-1/r) or quadratic (r^2) basis
potential, extremizes over the auxiliary parameter and returns scaled
trial states, energies and variational bound classifications.

Reduced units per family: linear defaults to 2m = a = 1 but accepts
general (m, a) through the exact scaling laws; the logarithmic family is
fixed to H = p^2/4 + ln r and the exponential one to H = p^2 - k e^{-r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import brentq

from . import specfun
from .errors import DomainError, NoBoundState, NumericalFailure
from .exact import HydrogenScale, OscillatorScale, QuantumNumbers

__all__ = [
    "AuxiliaryKind",
    "PotentialModel",
    "Bound",
    "AfmSolution",
    "TangentReport",
    "principal_number",
    "afm_solve",
    "bound_direction",
    "improved_linear_energy",
    "critical_coupling",
    "tangent_check",
    "energy_at_aux",
]

_W0 = specfun.WBranch.PRINCIPAL
# W0(T) = -2/3 marks zero AFM energy for the exponential potential
_T_ZERO_ENERGY = -(2.0 / 3.0) * math.exp(-2.0 / 3.0)
_NEG_INV_E = -math.exp(-1.0)


class AuxiliaryKind(Enum):
    """Choice of the solvable basis potential P(r)."""

    COULOMB = "coulomb"      # P(r) = -1/r
    QUADRATIC = "quadratic"  # P(r) = r^2

    def p(self, r):
        return -1.0 / r if self is AuxiliaryKind.COULOMB else r * r

    def p_prime(self, r):
        return 1.0 / (r * r) if self is AuxiliaryKind.COULOMB else 2.0 * r


class Bound(Enum):
    LOWER = "lower"
    UPPER = "upper"
    CONDITIONAL = "conditional"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PotentialModel:
    """One of the three Hamiltonian families in reduced units.

    family "linear":  H = p^2/(2m) + a r   (m, a configurable)
    family "log":     H = p^2/4 + ln r     (no parameters)
    family "exp":     H = p^2 - k exp(-r)  (depth k > 0)
    """

    family: str
    m: float = 0.5
    a: float = 1.0
    k: float = 0.0

    def __post_init__(self):
        if self.family not in ("linear", "log", "exp"):
            raise DomainError(f"unknown family {self.family!r}")
        if not all(math.isfinite(x) for x in (self.m, self.a, self.k)):
            raise DomainError("potential parameters m, a and k must be finite")
        if self.family == "linear" and (self.m <= 0 or self.a <= 0):
            raise DomainError("linear family requires m > 0 and a > 0")
        if self.family == "exp" and not self.k > 0:
            raise DomainError("exponential family requires depth k > 0")

    @classmethod
    def linear(cls, m: float = 0.5, a: float = 1.0) -> "PotentialModel":
        return cls(family="linear", m=m, a=a)

    @classmethod
    def logarithmic(cls) -> "PotentialModel":
        return cls(family="log")

    @classmethod
    def exponential(cls, k: float) -> "PotentialModel":
        return cls(family="exp", k=k)

    @property
    def mass(self) -> float:
        if self.family == "linear":
            return self.m
        return 2.0 if self.family == "log" else 0.5

    @property
    def kinetic_2m(self) -> float:
        """Coefficient 2m multiplying (V - E) in the reduced radial equation."""
        return 2.0 * self.mass

    def v(self, r):
        if self.family == "linear":
            return self.a * np.asarray(r, dtype=float)
        if self.family == "log":
            return np.log(r)
        return -self.k * np.exp(-np.asarray(r, dtype=float))

    def v_prime(self, r):
        if self.family == "linear":
            return self.a * np.ones_like(np.asarray(r, dtype=float))
        if self.family == "log":
            return 1.0 / np.asarray(r, dtype=float)
        return self.k * np.exp(-np.asarray(r, dtype=float))


@dataclass(frozen=True)
class AfmSolution:
    """Result of the extremization for one state."""

    nu0: float
    r0: float
    scale: Union[HydrogenScale, OscillatorScale]
    energy: float
    offset: float
    bound: Bound
    principal_n: float
    condition_met: Optional[bool] = None


def principal_number(kind: AuxiliaryKind, q: QuantumNumbers) -> float:
    """Global quantum number N entering the AFM energy formulas."""
    if kind is AuxiliaryKind.COULOMB:
        return float(q.n + q.l + 1)
    return 2.0 * q.n + q.l + 1.5


def bound_direction(v: PotentialModel, kind: AuxiliaryKind,
                    q: QuantumNumbers):
    """Variational direction from the convexity of g in V = g(P).

    Returns (Bound, condition_met); condition_met is None except for the
    exponential potential with the Coulomb basis, whose lower-bound proof
    only covers n + l + 1 <= sqrt(k / (2 e)).
    """
    if v.family in ("linear", "log"):
        if kind is AuxiliaryKind.COULOMB:
            return Bound.LOWER, None
        return Bound.UPPER, None
    if kind is AuxiliaryKind.QUADRATIC:
        return Bound.UPPER, None
    met = (q.n + q.l + 1) <= math.sqrt(v.k / (2.0 * math.e))
    return Bound.CONDITIONAL, met


def _exp_lambert_factor(k: float, big_n: float) -> tuple[float, float]:
    """(T, W0(T)) for the exponential family; raises NoBoundState."""
    t_arg = -((2.0 * big_n * big_n / k) ** (1.0 / 3.0)) / 3.0
    if t_arg < _NEG_INV_E:
        raise NoBoundState("state-not-allowed",
                           f"N={big_n}: Lambert argument {t_arg:.6f} < -1/e")
    return t_arg, specfun.lambert_w(_W0, t_arg)


def afm_solve(v: PotentialModel, kind: AuxiliaryKind,
              q: QuantumNumbers) -> AfmSolution:
    """Extremize the auxiliary parameter and return the closed-form solution."""
    big_n = principal_number(kind, q)
    bound, met = bound_direction(v, kind, q)

    if v.family == "linear":
        m, a = v.m, v.a
        sigma_e = (a * a / (2.0 * m)) ** (1.0 / 3.0)
        sigma_r = (2.0 * m * a) ** (-1.0 / 3.0)
        energy = 3.0 * big_n ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0) * sigma_e
        if kind is AuxiliaryKind.COULOMB:
            nu_red = 2.0 ** (2.0 / 3.0) * big_n ** (4.0 / 3.0)
            r0 = math.sqrt(nu_red) * sigma_r
            nu0 = nu_red * sigma_e * sigma_r
            scale = HydrogenScale(eta=(nu_red / 2.0) / sigma_r)
        else:
            nu_red = 2.0 ** (-4.0 / 3.0) * big_n ** (-2.0 / 3.0)
            r0 = sigma_r / (2.0 * nu_red)
            nu0 = nu_red * sigma_e / sigma_r ** 2
            scale = OscillatorScale(lam=nu_red ** 0.25 / sigma_r)
    elif v.family == "log":
        energy = 0.5 + math.log(big_n) - 0.5 * math.log(2.0)
        if kind is AuxiliaryKind.COULOMB:
            nu0 = big_n / math.sqrt(2.0)
            r0 = nu0
            scale = HydrogenScale(eta=math.sqrt(2.0) * big_n)
        else:
            nu0 = 1.0 / big_n ** 2
            r0 = 1.0 / math.sqrt(2.0 * nu0)
            scale = OscillatorScale(lam=math.sqrt(2.0 / big_n))
    else:
        k = v.k
        t_arg, w = _exp_lambert_factor(k, big_n)
        energy = -k * t_arg ** 3 * (1.0 / w ** 3 + 1.5 / w ** 2)
        if energy >= 0.0:
            raise NoBoundState("nonnegative-energy",
                               f"N={big_n}: AFM energy {energy:.6f} >= 0")
        r0 = -3.0 * w
        if kind is AuxiliaryKind.COULOMB:
            eta = 4.5 * k * t_arg ** 3 / w
            nu0 = 2.0 * eta
            scale = HydrogenScale(eta=eta)
        else:
            nu0 = -(k / 6.0) * t_arg ** 3 / w ** 4
            scale = OscillatorScale(lam=nu0 ** 0.25)

    offset = float(v.v(r0) - nu0 * kind.p(r0))
    return AfmSolution(nu0=nu0, r0=r0, scale=scale, energy=energy,
                       offset=offset, bound=bound, principal_n=big_n,
                       condition_met=met)


def improved_linear_energy(q: QuantumNumbers) -> float:
    """Refined linear-potential energy formula (reduced units 2m = a = 1)."""
    base = q.n + math.sqrt(3.0) / math.pi * q.l + 0.75
    return (1.5 * math.pi) ** (2.0 / 3.0) * base ** (2.0 / 3.0)


def critical_coupling(q: QuantumNumbers, kind: AuxiliaryKind) -> float:
    """Depth k at which the exponential-potential AFM energy crosses zero."""
    big_n = principal_number(kind, q)
    # the energy formula only exists for k >= k_min (Lambert argument >= -1/e)
    k_min = 2.0 * big_n * big_n * math.e ** 3 / 27.0

    def eps(k):
        t_arg = -((2.0 * big_n * big_n / k) ** (1.0 / 3.0)) / 3.0
        w = specfun.lambert_w(_W0, max(t_arg, _NEG_INV_E))
        return -k * t_arg ** 3 * (1.0 / w ** 3 + 1.5 / w ** 2)

    lo = max(k_min * (1.0 + 1e-9), 1e-6)
    hi = 1e6
    if eps(lo) * eps(hi) > 0.0:
        raise NumericalFailure("no sign change of the AFM energy in [1e-6, 1e6]")
    return brentq(eps, lo, hi, xtol=1e-12, rtol=8.9e-16)


# ----------------------------------------------------------------------
# E(nu) off the extremum, and the tangency report
# ----------------------------------------------------------------------

def _mean_point(v: PotentialModel, kind: AuxiliaryKind, nu: float) -> float:
    """I(nu): radius where V'(r)/P'(r) equals nu."""
    if nu <= 0:
        raise DomainError("auxiliary parameter must be positive")
    if v.family == "linear":
        if kind is AuxiliaryKind.COULOMB:
            return math.sqrt(nu / v.a)
        return v.a / (2.0 * nu)
    if v.family == "log":
        if kind is AuxiliaryKind.COULOMB:
            return nu
        return 1.0 / math.sqrt(2.0 * nu)
    k = v.k
    if kind is AuxiliaryKind.COULOMB:
        # k r^2 e^{-r} = nu, increasing branch r in (0, 2)
        f = lambda r: k * r * r * math.exp(-r) - nu
        if f(2.0) < 0.0:
            raise DomainError("auxiliary parameter outside the tangent branch")
        return brentq(f, 1e-14, 2.0, xtol=1e-14, rtol=8.9e-16)
    # (k/2) e^{-r} / r = nu, decreasing on r > 0
    f = lambda r: 0.5 * k * math.exp(-r) / r - nu
    hi = 2.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NumericalFailure("mean-point bracketing failed")
    return brentq(f, 1e-14, hi, xtol=1e-14, rtol=8.9e-16)


def _energy_at_aux_n(v: PotentialModel, kind: AuxiliaryKind,
                     big_n: float, nu: float) -> float:
    m = v.mass
    if kind is AuxiliaryKind.COULOMB:
        e_basis = -m * nu * nu / (2.0 * big_n * big_n)
    else:
        e_basis = math.sqrt(2.0 * nu / m) * big_n
    r_i = _mean_point(v, kind, nu)
    return float(e_basis + v.v(r_i) - nu * kind.p(r_i))


def energy_at_aux(v: PotentialModel, kind: AuxiliaryKind,
                  q: QuantumNumbers, nu: float) -> float:
    """E(nu) = E_A(nu) + V(I(nu)) - nu P(I(nu)) away from the extremum."""
    return _energy_at_aux_n(v, kind, principal_number(kind, q), nu)


@dataclass(frozen=True)
class TangentReport:
    value_gap: float
    slope_gap: float
    sign_violations: int
    sign_checked: bool
    extremality_residual: float
    ok: bool


def tangent_check(v: PotentialModel, kind: AuxiliaryKind, sol: AfmSolution,
                  r_samples: Sequence[float]) -> TangentReport:
    """Verify tangency at r0, the bound-direction sign pattern and extremality.

    Reports violations instead of raising.
    """
    r0, nu0 = sol.r0, sol.nu0
    v_tilde = lambda r: nu0 * kind.p(r) + sol.offset
    value_gap = abs(float(v_tilde(r0) - v.v(r0)))
    h = 1e-5 * r0
    slope_num = (v_tilde(r0 + h) - v_tilde(r0 - h) - (v.v(r0 + h) - v.v(r0 - h))) / (2 * h)
    slope_gap = abs(float(slope_num))

    expect = None
    if sol.bound is Bound.LOWER:
        expect = -1.0
    elif sol.bound is Bound.UPPER:
        expect = 1.0
    elif sol.bound is Bound.CONDITIONAL and sol.condition_met:
        expect = -1.0
    violations = 0
    if expect is not None:
        for r in r_samples:
            if r <= 0:
                continue
            diff = float(v_tilde(r) - v.v(r))
            if expect * diff < -1e-10 * max(1.0, abs(v.v(r))):
                violations += 1

    dnu = 1e-4 * nu0
    try:
        deriv = (_energy_at_aux_n(v, kind, sol.principal_n, nu0 + dnu)
                 - _energy_at_aux_n(v, kind, sol.principal_n, nu0 - dnu)) / (2.0 * dnu)
        residual = abs(deriv) * nu0 / abs(sol.energy)  # dimensionless
    except (DomainError, NumericalFailure):
        residual = math.inf  # reported, never raised
    ok = (value_gap <= 1e-10 * max(1.0, abs(v.v(r0)))
          and slope_gap <= 1e-8
          and violations == 0
          and residual <= 1e-6)
    return TangentReport(value_gap=value_gap, slope_gap=slope_gap,
                         sign_violations=violations,
                         sign_checked=expect is not None,
                         extremality_residual=residual, ok=ok)
