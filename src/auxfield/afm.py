"""Auxiliary-field engine.

Builds the tangent auxiliary Hamiltonian for the linear, logarithmic and
exponential potentials with a Coulomb (-1/r) or quadratic (r^2) basis
potential, extremizes over the auxiliary parameter and returns scaled
trial states, energies and variational bound classifications.

Each family is one ``PotentialModel`` subclass in reduced units:
``LinearPotential`` defaults to 2m = a = 1 but accepts general (m, a);
``LogPotential`` is fixed to H = p^2/4 + ln r and ``ExpPotential`` to
H = p^2 - k e^{-r}.  A family defines the AFM only through
``afm_radius(N)``, the r0 solving m r0^3 V'(r0) = N^2; for both bases the
extremum is then E = N^2/(2m r0^2) + V(r0) with nu0 = V'(r0)/P'(r0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional, Sequence, Union

from ._numpy import np
from . import specfun
from .errors import DomainError, NoBoundState, NumericalFailure
from .exact import HydrogenScale, OscillatorScale, QuantumNumbers, linear_s_state

__all__ = [
    "AuxiliaryKind",
    "PotentialModel",
    "LinearPotential",
    "LogPotential",
    "ExpPotential",
    "Bound",
    "AfmSolution",
    "TangentReport",
    "principal_number",
    "afm_solve",
    "tangent_check",
    "energy_at_aux",
]

_NEG_INV_E = -math.exp(-1.0)


def _xp(r):
    """The namespace of a family's V and V' formula: math at a float r,
    numpy at an array."""
    return math if isinstance(r, float) else np


class AuxiliaryKind(Enum):
    """Choice of the solvable basis potential P(r)."""

    COULOMB = "coulomb"      # P(r) = -1/r
    QUADRATIC = "quadratic"  # P(r) = r^2

    def p(self, r):
        return -1.0 / r if self is AuxiliaryKind.COULOMB else r * r

    def p_prime(self, r):
        return 1.0 / (r * r) if self is AuxiliaryKind.COULOMB else 2.0 * r

    def basis_energy(self, m: float, big_n: float, nu: float) -> float:
        """E_A(nu): level N of p^2/(2m) + nu P(r)."""
        return (-m * nu * nu / (2.0 * big_n * big_n) if self is AuxiliaryKind.COULOMB
                else math.sqrt(2.0 * nu / m) * big_n)

    def basis_slope(self, m: float, big_n: float, nu: float) -> float:
        """<P>_nu = dE_A/dnu, the mean of P in that level (Hellmann-Feynman)."""
        return (-m * nu / (big_n * big_n) if self is AuxiliaryKind.COULOMB
                else self.basis_energy(m, big_n, nu) / (2.0 * nu))

    def scale(self, m: float, nu: float) -> Union[HydrogenScale, OscillatorScale]:
        """Length scale of the eigenstates of p^2/(2m) + nu P(r); one that
        under- or overflows raises NumericalFailure."""
        value = m * nu if self is AuxiliaryKind.COULOMB else (2.0 * m * nu) ** 0.25
        if not 0.0 < value < math.inf:
            raise NumericalFailure(f"the trial scale {value} at nu = {nu} "
                                   "is outside double precision")
        return (HydrogenScale(eta=value) if self is AuxiliaryKind.COULOMB
                else OscillatorScale(lam=value))


class Bound(Enum):
    LOWER = "lower"
    UPPER = "upper"
    CONDITIONAL = "conditional"


@dataclass(frozen=True)
class PotentialModel:
    """Base of the three Hamiltonian families in reduced units.

    Each family is one subclass that holds its own parameters and their
    validation, V and V' (``_v``, ``_v_prime``: one formula each, for a
    Python float and a float array alike), the mass, ``afm_radius(N)``,
    the r0 solving m r0^3 V'(r0) = N^2 in closed form,
    ``mean_point(kind, nu)`` = I(nu), the radius where V'/P' equals nu > 0,
    ``trial_mean_v(scale, q, obs)``, the closed-form <V> of trial state q
    (moment set ``obs``), the bound direction, and the oracle's
    ``continuum_threshold``: None when V confines, else the largest energy
    below E = 0 the oracle accepts as a bound state.  The oracle fits its
    domain from V, centred on the Langer well's bottom ``afm_radius(l + 1/2)``.

    ``LinearPotential(m, a)``:  H = p^2/(2m) + a r   (m, a configurable)
    ``LogPotential()``:         H = p^2/4 + ln r     (no parameters)
    ``ExpPotential(k)``:        H = p^2 - k exp(-r)  (depth k > 0)
    """

    family: ClassVar[str]
    continuum_threshold: ClassVar[Optional[float]] = None

    @classmethod
    def linear(cls, m: float = 0.5, a: float = 1.0) -> "LinearPotential":
        return LinearPotential(m, a)

    @classmethod
    def logarithmic(cls) -> "LogPotential":
        return LogPotential()

    @classmethod
    def exponential(cls, k: float) -> "ExpPotential":
        return ExpPotential(k)

    @staticmethod
    def from_name(name: str, k: Optional[float] = None) -> "PotentialModel":
        """Reduced-unit model of the family called ``name``; ``k`` is the
        depth of the exponential family, given for it and only for it."""
        family = _FAMILIES.get(name)
        if family is None:
            raise DomainError(f"unknown family {name!r}; choose from {list(_FAMILIES)}")
        if (k is not None) != (family is ExpPotential):
            raise DomainError("the depth k (--k) is required for the exponential "
                              "family and rejected for the others")
        return family() if k is None else family(k)

    @property
    def kinetic_2m(self) -> float:
        """Coefficient 2m multiplying (V - E) in the reduced radial equation."""
        return 2.0 * self.mass

    def v(self, r):
        """V(r); the single entry point that evaluates the potential: with
        ``math`` at a Python float, else with numpy on a float array."""
        return self._v(r if isinstance(r, float) else np.asarray(r, dtype=float))

    def v_prime(self, r):
        return self._v_prime(r if isinstance(r, float) else np.asarray(r, dtype=float))

    def bound(self, kind: AuxiliaryKind, q: QuantumNumbers):
        """(Bound, condition_met) from the convexity of g in V = g(P).

        For the linear and logarithmic potentials g is convex in the
        Coulomb basis (a lower bound) and concave in the quadratic one
        (an upper bound).
        """
        if kind is AuxiliaryKind.COULOMB:
            return Bound.LOWER, None
        return Bound.UPPER, None

    def tangent_branch_end(self, kind: AuxiliaryKind) -> float:
        """Largest nu for which the mean point I(nu) exists."""
        return math.inf

    def exact_wavefunction(self, q: QuantumNumbers):
        """psi(r) of the exact eigenstate when it is known in closed form."""
        return None


@dataclass(frozen=True)
class LinearPotential(PotentialModel):
    """H = p^2/(2m) + a r with configurable mass and slope."""

    family: ClassVar[str] = "linear"
    m: float = 0.5
    a: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.m, self.a)):
            raise DomainError("linear family requires finite m > 0 and a > 0")

    @property
    def mass(self) -> float:
        return self.m

    def _v(self, r):
        return self.a * r

    def _v_prime(self, r):
        return self.a * r ** 0.0   # a, shaped like r

    def afm_radius(self, big_n: float) -> float:
        # divided in turn: m a may underflow to 0 where N^2/m/a overflows
        return (big_n * big_n / self.m / self.a) ** (1.0 / 3.0)

    def mean_point(self, kind: AuxiliaryKind, nu: float) -> float:
        if kind is AuxiliaryKind.COULOMB:
            return math.sqrt(nu / self.a)
        return self.a / (2.0 * nu)

    def trial_mean_v(self, scale, q: QuantumNumbers, obs) -> float:
        return self.a * obs.r_moments[1]

    def exact_wavefunction(self, q: QuantumNumbers):
        if q.l != 0:
            return None
        return linear_s_state(self.m, self.a, q.n).wavefunction


@dataclass(frozen=True)
class LogPotential(PotentialModel):
    """H = p^2/4 + ln r in its fixed reduced form."""

    family: ClassVar[str] = "log"
    mass: ClassVar[float] = 2.0

    def _v(self, r):
        return _xp(r).log(r)

    def _v_prime(self, r):
        return 1.0 / r

    def afm_radius(self, big_n: float) -> float:
        return big_n / math.sqrt(self.mass)

    def mean_point(self, kind: AuxiliaryKind, nu: float) -> float:
        if kind is AuxiliaryKind.COULOMB:
            return nu
        return 1.0 / math.sqrt(2.0 * nu)

    def trial_mean_v(self, scale, q: QuantumNumbers, obs) -> float:
        return scale.mean_log_r(q)


@dataclass(frozen=True)
class ExpPotential(PotentialModel):
    """H = p^2 - k exp(-r), solved through the Lambert W function."""

    family: ClassVar[str] = "exp"
    mass: ClassVar[float] = 0.5
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError("exponential family requires a finite depth k > 0")

    @property
    def continuum_threshold(self) -> float:
        return -1e-12 * max(1.0, self.k)

    def _v(self, r):
        return -self.k * _xp(r).exp(-r)

    def _v_prime(self, r):
        return self.k * _xp(r).exp(-r)

    def bound(self, kind: AuxiliaryKind, q: QuantumNumbers):
        """The Coulomb lower-bound proof only covers n + l + 1 <= sqrt(k / (2 e))."""
        if kind is AuxiliaryKind.QUADRATIC:
            return Bound.UPPER, None
        met = (q.n + q.l + 1) <= math.sqrt(self.k / (2.0 * math.e))
        return Bound.CONDITIONAL, met

    def afm_radius(self, big_n: float) -> float:
        """Root r0 e^{-r0/3} = (N^2/(m k))^(1/3) on W0's branch r0 <= 3;
        E = N^2 (r0 - 2)/(2m r0^3) there, so the state is bound for r0 < 2.
        N^2/m/k is divided in turn: m k underflows to 0 at k = 5e-324."""
        t_arg = -((big_n * big_n / self.mass / self.k) ** (1.0 / 3.0)) / 3.0
        if t_arg < _NEG_INV_E:
            raise NoBoundState("state-not-allowed",
                               f"N={big_n}: Lambert argument {t_arg:.6f} < -1/e")
        r0 = -3.0 * specfun.lambert_w(t_arg)
        if r0 >= 2.0:
            raise NoBoundState("nonnegative-energy",
                               f"N={big_n}: AFM radius {r0:.6f} >= 2, so E >= 0")
        return r0

    def mean_point(self, kind: AuxiliaryKind, nu: float) -> float:
        if kind is AuxiliaryKind.COULOMB:
            # k r^2 e^{-r} = nu on the increasing branch r in (0, 2]
            return -2.0 * specfun.lambert_w(-0.5 * math.sqrt(nu / self.k))
        # (k/2) e^{-r} / r = nu, i.e. r e^r = k / (2 nu)
        return specfun.lambert_w(self.k / (2.0 * nu))

    def tangent_branch_end(self, kind: AuxiliaryKind) -> float:
        """k r^2 e^{-r} peaks at 4k/e^2 (r = 2), where W0's argument is -1/e."""
        if kind is AuxiliaryKind.COULOMB:
            return 4.0 * self.k / math.e ** 2
        return math.inf

    def trial_mean_v(self, scale, q: QuantumNumbers, obs) -> float:
        return -self.k * scale.mean_exp_neg_r(q)


_FAMILIES = {"linear": LinearPotential, "log": LogPotential, "logarithmic": LogPotential,
             "exp": ExpPotential, "exponential": ExpPotential}


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


def afm_solve(v: PotentialModel, kind: AuxiliaryKind,
              q: QuantumNumbers) -> AfmSolution:
    """Extremize the auxiliary parameter: E = N^2/(2m r0^2) + V(r0) at
    r0 = v.afm_radius(N), and nu0 = V'(r0)/P'(r0) sets the trial scale."""
    big_n = principal_number(kind, q)
    bound, met = v.bound(kind, q)
    r0 = v.afm_radius(big_n)
    if not 0.0 < r0 < math.inf:
        raise NumericalFailure(
            f"{v}: the AFM radius r0 = {r0} is outside double precision")
    v0 = float(v.v(r0))
    energy = big_n * big_n / (2.0 * v.mass * r0 * r0) + v0
    nu0 = float(v.v_prime(r0)) / kind.p_prime(r0)
    if not (math.isfinite(energy) and math.isfinite(nu0)):
        raise NumericalFailure(
            f"{v}: the AFM extremum is non-finite in double precision")
    scale = kind.scale(v.mass, nu0)
    offset = v0 - nu0 * kind.p(r0)
    return AfmSolution(nu0=nu0, r0=r0, scale=scale, energy=energy,
                       offset=offset, bound=bound, principal_n=big_n,
                       condition_met=met)


# ----------------------------------------------------------------------
# E(nu) off the extremum, and the tangency report
# ----------------------------------------------------------------------

def _mean_point(v: PotentialModel, kind: AuxiliaryKind, nu: float) -> float:
    """I(nu): radius where V'(r)/P'(r) equals nu."""
    if not 0 < nu <= v.tangent_branch_end(kind):
        raise DomainError(f"auxiliary parameter {nu} outside the tangent branch")
    return v.mean_point(kind, nu)


def energy_at_aux(v: PotentialModel, kind: AuxiliaryKind,
                  q: QuantumNumbers, nu: float) -> float:
    """E(nu) = E_A(nu) + V(I(nu)) - nu P(I(nu)) away from the extremum."""
    r_i = _mean_point(v, kind, nu)
    e_basis = kind.basis_energy(v.mass, principal_number(kind, q), nu)
    return float(e_basis + v.v(r_i) - nu * kind.p(r_i))


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

    Reports violations instead of raising.  The value and slope gaps are
    judged relative to max(1, |V(r0)|) and max(1, |V'(r0)|).  The
    extremality residual is |<P>_nu0 - P(r0)| / |P(r0)|, dE/dnu at nu0
    scaled by nu0 |P(r0)| rather than by |E|, which vanishes at threshold.
    """
    r0, nu0 = sol.r0, sol.nu0
    v_tilde = lambda r: nu0 * kind.p(r) + sol.offset
    value_gap = abs(float(v_tilde(r0) - v.v(r0)))
    slope_gap = abs(float(nu0 * kind.p_prime(r0) - v.v_prime(r0)))

    # sign of V~ - V on r > 0: a conditional bound is a lower one when met
    expect = {Bound.LOWER: -1.0, Bound.UPPER: 1.0,
              Bound.CONDITIONAL: -1.0 if sol.condition_met else None}[sol.bound]
    violations = 0
    if expect is not None:
        r = np.asarray(r_samples, dtype=float)
        r = r[r > 0]
        v_r = v.v(r)
        violations = int(np.count_nonzero(
            expect * (v_tilde(r) - v_r) < -1e-10 * np.maximum(1.0, np.abs(v_r))))

    # dE/dnu = <P>_nu - P(I(nu)) because V'(I) = nu P'(I); the slope gap
    # already holds r0 at I(nu0), so extremality is <P>_nu0 = P(r0)
    mean_p = kind.basis_slope(v.mass, sol.principal_n, nu0)
    p0 = float(kind.p(r0))
    residual = abs(mean_p - p0) / abs(p0)
    ok = (value_gap <= 1e-10 * max(1.0, abs(v.v(r0)))
          and slope_gap <= 1e-8 * max(1.0, abs(v.v_prime(r0)))
          and violations == 0
          and residual <= 1e-6)
    return TangentReport(value_gap=value_gap, slope_gap=slope_gap,
                         sign_violations=violations,
                         sign_checked=expect is not None,
                         extremality_residual=residual, ok=ok)
