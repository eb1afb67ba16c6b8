"""Observables of AFM trial states: moment sets, <H> re-evaluation,
the generalized virial recurrence and Eckart overlap bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .afm import AfmSolution, PotentialModel
from .errors import DomainError, NumericalFailure, QuadratureFailure
from .exact import (HydrogenScale, ObservableSet, QuantumNumbers,
                    hydrogen_observables, hydrogen_radial,
                    oscillator_observables, oscillator_radial)

__all__ = [
    "EckartInput",
    "afm_observable_set",
    "trial_radial",
    "mean_hamiltonian",
    "mean_potential",
    "power_law_moments",
    "p2_p4_from_potential",
    "eckart_bound",
    "psi0_from_force",
]


@dataclass(frozen=True)
class EckartInput:
    """Energies feeding the Eckart overlap bounds.

    ``e0``/``e1`` are the exact ground and first-excited energies (for
    B_E); ``e1`` doubles as the lower bound on E_1 when the coarser
    bound B'_E is requested together with ``e1_upper`` and ``e0_lower``.
    """

    h_trial: float
    e0: Optional[float] = None
    e1: Optional[float] = None
    e1_upper: Optional[float] = None
    e0_lower: Optional[float] = None


def afm_observable_set(v: PotentialModel, sol: AfmSolution,
                       q: QuantumNumbers) -> ObservableSet:
    """Moment set of the AFM trial state behind ``sol``.

    <H> = <p^2>/(2m) + <V> is filled in when the model gives <V> in
    closed form (the linear family); the other families get it from
    ``mean_hamiltonian``.
    """
    try:
        if isinstance(sol.scale, HydrogenScale):
            obs = hydrogen_observables(sol.scale, q)
        else:
            obs = oscillator_observables(sol.scale, q)
    except OverflowError as exc:
        raise NumericalFailure(
            "moments of the trial state are non-finite in double precision") from exc
    mean_v = v.trial_mean_v(obs)
    if mean_v is not None:
        obs.mean_h = obs.p2 / v.kinetic_2m + mean_v
    return obs


def trial_radial(sol: AfmSolution, q: QuantumNumbers):
    """Radial evaluator R(r) of the trial state behind an AfmSolution."""
    if isinstance(sol.scale, HydrogenScale):
        return hydrogen_radial(sol.scale, q)
    return oscillator_radial(sol.scale, q)


def _density_cutoff(sol: AfmSolution, q: QuantumNumbers) -> float:
    """Radius beyond which the trial density is < ~1e-14 of its peak."""
    if isinstance(sol.scale, HydrogenScale):
        gam = sol.scale.gamma(q)
        return (40.0 + 14.0 * q.n + 6.0 * q.l) / (2.0 * gam)
    lam = sol.scale.lam
    return math.sqrt(45.0 + 25.0 * q.n + 8.0 * q.l) / lam


_GL_NODES, _GL_WEIGHTS = leggauss(24)


def _composite_gauss_legendre(f, panels: int) -> float:
    """Integral of the vectorized f over [0, 1] by ``panels`` equal
    panels of the 24-node Gauss-Legendre rule."""
    t = ((np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) / panels).ravel()
    return 0.5 / panels * float(np.dot(np.tile(_GL_WEIGHTS, panels), f(t)))


def mean_potential(v: PotentialModel, sol: AfmSolution, q: QuantumNumbers,
                   power: int = 1) -> float:
    """<V^power> over the trial density by composite Gauss-Legendre
    quadrature in t, r = r_hi t^2 (nodes cluster at the origin, where
    ln r is singular); the error is the change from 32 to 64 panels."""
    radial = trial_radial(sol, q)
    r_hi = _density_cutoff(sol, q)

    def integrand(t):
        r = r_hi * t * t
        with np.errstate(over="ignore", invalid="ignore"):
            f = v.v(r) ** power * radial(r) ** 2 * r * r * (2.0 * r_hi * t)
        if not np.all(np.isfinite(f)):
            raise QuadratureFailure(f"<V^{power}> integrand is non-finite")
        return f

    coarse = _composite_gauss_legendre(integrand, 32)
    val = _composite_gauss_legendre(integrand, 64)
    err = abs(val - coarse)
    if err > max(1e-9 * abs(val), 1e-12):
        raise QuadratureFailure(
            f"<V^{power}> quadrature error {err:.2e} for value {val:.6e}")
    return val


def mean_hamiltonian(v: PotentialModel, sol: AfmSolution,
                     q: QuantumNumbers) -> float:
    """<H> of the trial state: kinetic part from closed forms, potential
    part analytic for the linear family and by quadrature otherwise."""
    obs = afm_observable_set(v, sol, q)
    if obs.mean_h is not None:
        return obs.mean_h
    return obs.p2 / v.kinetic_2m + mean_potential(v, sol, q, power=1)


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


def p2_p4_from_potential(energy: float, mean_v: float, mean_v2: float,
                         m: float) -> Tuple[float, float]:
    """<p^2> and <p^4> from the virial relations for H = p^2/(2m) + V."""
    p2 = 2.0 * m * (energy - mean_v)
    p4 = 4.0 * m * m * (energy * energy - 2.0 * energy * mean_v + mean_v2)
    return p2, p4


def eckart_bound(inp: EckartInput) -> Tuple[Optional[float], Optional[float]]:
    """Eckart lower bounds (B_E, B'_E) on the squared ground-state overlap.

    Either bound may come out negative (vacuous); values are returned
    unclamped.  Bounds whose inputs are missing are returned as None.
    """
    b_e = None
    b_e_prime = None
    if inp.e0 is not None and inp.e1 is not None:
        denom = inp.e1 - inp.e0
        if denom == 0.0:
            raise DomainError("degenerate E1 - E0 in the Eckart bound")
        b_e = (inp.e1 - inp.h_trial) / denom
    if inp.e1 is not None and inp.e1_upper is not None and inp.e0_lower is not None:
        denom = inp.e1_upper - inp.e0_lower
        if denom == 0.0:
            raise DomainError("degenerate E1^U - E0^L in the Eckart bound")
        b_e_prime = (inp.e1 - inp.h_trial) / denom
    return b_e, b_e_prime


def psi0_from_force(m: float, mean_vprime: float) -> float:
    """|psi(0)|^2 of an l = 0 state from the mean force, m <V'> / (2 pi)."""
    return m * mean_vprime / (2.0 * math.pi)
