"""Observables of AFM trial states, whose scale class in ``exact`` owns
their moment sets: the closed-form trial <V> and <H> (formed only by
``mean_hamiltonian``), the virial <p^2>/<p^4> and the Eckart bound
(E1^L - <H>)/(E1^U - E0^L), one formula for B_E and B'_E."""

from __future__ import annotations

from typing import Optional, Tuple

from .afm import AfmSolution, PotentialModel
from .errors import DomainError, NumericalFailure
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


def mean_potential(v: PotentialModel, sol: AfmSolution, q: QuantumNumbers,
                   obs: Optional[ObservableSet] = None) -> float:
    """Closed-form <V> of the trial state, ``v.trial_mean_v``; ``obs`` is
    its moment set when the caller holds it."""
    obs = obs or afm_observable_set(v, sol, q)
    return v.trial_mean_v(sol.scale, q, obs)


def mean_hamiltonian(v: PotentialModel, sol: AfmSolution, q: QuantumNumbers,
                     obs: Optional[ObservableSet] = None) -> float:
    """<H> = <p^2>/(2m) + <V> of the trial state, both in closed form;
    ``obs`` is its moment set when the caller holds it."""
    obs = obs or afm_observable_set(v, sol, q)
    return obs.p2 / v.kinetic_2m + mean_potential(v, sol, q, obs)


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
