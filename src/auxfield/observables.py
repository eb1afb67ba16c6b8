"""Observables of AFM trial states, whose scale class in ``exact`` owns
their moment sets: the trial <H> (formed only by ``mean_hamiltonian``),
the virial <p^2>/<p^4> and the Eckart bound (E1^L - <H>)/(E1^U - E0^L),
one formula for B_E (exact E0, E1) and B'_E (AFM bounds on them)."""

from __future__ import annotations

import math
from functools import cache
from typing import Tuple

import numpy as np

from .afm import AfmSolution, PotentialModel
from .errors import DomainError, NumericalFailure, QuadratureFailure
from .exact import ObservableSet, QuantumNumbers

__all__ = [
    "afm_observable_set",
    "mean_hamiltonian",
    "mean_potential",
    "p2_p4_from_potential",
    "eckart_bound",
]


def afm_observable_set(v: PotentialModel, sol: AfmSolution,
                       q: QuantumNumbers) -> ObservableSet:
    """Moment set of the AFM trial state behind ``sol`` (``mean_h`` is
    None: the trial <H> comes from ``mean_hamiltonian``)."""
    try:
        return sol.scale.moments(q)
    except OverflowError as exc:
        raise NumericalFailure(
            "moments of the trial state are non-finite in double precision") from exc


@cache
def _gauss_legendre_24():
    from numpy.polynomial.legendre import leggauss  # on first use: not at import
    return leggauss(24)


def _composite_gauss_legendre(f, panels: int) -> float:
    """Integral of the vectorized f over [0, 1] by ``panels`` equal
    panels of the 24-node Gauss-Legendre rule."""
    nodes, weights = _gauss_legendre_24()
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    return 0.5 / panels * float(np.dot(np.tile(weights, panels), f(t)))


def mean_potential(v: PotentialModel, sol: AfmSolution, q: QuantumNumbers) -> float:
    """<V> over the trial density by composite Gauss-Legendre
    quadrature in t, r = r_hi t^2 (nodes cluster at the origin, where
    ln r is singular); the error is the change from 32 ceil((n+1)/32)
    panels, 32 for n < 32, to twice that."""
    radial = sol.scale.radial(q)
    r_hi = sol.scale.cutoff(q)

    def integrand(t):
        r = r_hi * t * t
        with np.errstate(over="ignore", invalid="ignore"):
            f = v.v(r) * radial(r) ** 2 * r * r * (2.0 * r_hi * t)
        if not np.all(np.isfinite(f)):
            raise QuadratureFailure("<V> integrand is non-finite")
        return f

    panels = 32 * math.ceil((q.n + 1) / 32)
    coarse = _composite_gauss_legendre(integrand, panels)
    val = _composite_gauss_legendre(integrand, 2 * panels)
    err = abs(val - coarse)
    if err > max(1e-9 * abs(val), 1e-12):
        raise QuadratureFailure(
            f"<V> quadrature error {err:.2e} for value {val:.6e}")
    return val


def mean_hamiltonian(v: PotentialModel, sol: AfmSolution,
                     q: QuantumNumbers) -> float:
    """<H> = <p^2>/(2m) + <V> of the trial state: <p^2> in closed form,
    <V> from ``v.trial_mean_v`` where the family has it (linear, log) and
    by quadrature otherwise."""
    obs = afm_observable_set(v, sol, q)
    mean_v = v.trial_mean_v(sol.scale, q, obs)
    if mean_v is None:
        mean_v = mean_potential(v, sol, q)
    return obs.p2 / v.kinetic_2m + mean_v


def p2_p4_from_potential(energy: float, mean_v: float, mean_v2: float,
                         m: float) -> Tuple[float, float]:
    """<p^2> and <p^4> from the virial relations for H = p^2/(2m) + V."""
    p2 = 2.0 * m * (energy - mean_v)
    p4 = 4.0 * m * m * (energy * energy - 2.0 * energy * mean_v + mean_v2)
    return p2, p4


def eckart_bound(h_trial: float, e1_lower: float, e1_upper: float,
                 e0_lower: float) -> float:
    """Eckart lower bound (E1^L - <H>)/(E1^U - E0^L) on the squared
    ground-state overlap of a trial state with energy ``h_trial``.

    Exact E0, E1 (E1^L = E1^U = E1) give B_E; bounds on them give B'_E.
    The value is unclamped: a negative bound is vacuous.
    """
    denom = e1_upper - e0_lower
    if denom == 0.0:
        raise DomainError("degenerate E1^U - E0^L in the Eckart bound")
    return (e1_lower - h_trial) / denom
