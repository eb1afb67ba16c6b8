"""Overlaps of AFM trial states, plus numeric overlap quadrature between
sampled radial functions.

The dilated overlap F_{n,n',l}(a), the scalar product of two same-family
radial states whose length scales differ by the factor a, is the scale
class's ``overlap``: the signed cross term of the Laguerre
multiplication-theorem sum that also gives <e^-r>, at mu + mu' = 2.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ._numpy import np
from .afm import AuxiliaryKind, PotentialModel, afm_solve
from .errors import DomainError
from .exact import QuantumNumbers
from .oracle import RadialFunction

__all__ = [
    "afm_pair_overlap",
    "numeric_overlap",
    "sample_radial",
]


def afm_pair_overlap(kind: AuxiliaryKind, n: int, n_prime: int, l: int) -> float:
    """Overlap of two AFM trial states of the linear potential."""
    q, q_prime = QuantumNumbers(n, l), QuantumNumbers(n_prime, l)
    v = PotentialModel.linear()
    return afm_solve(v, kind, q).scale.overlap(q, afm_solve(v, kind, q_prime).scale, q_prime)


# ----------------------------------------------------------------------
# numeric overlap
# ----------------------------------------------------------------------

def sample_radial(radial: Callable, grid: np.ndarray, *, energy: float = math.nan,
                  q: Optional[QuantumNumbers] = None,
                  from_psi: bool = False) -> RadialFunction:
    """Sample a radial evaluator into a reduced RadialFunction u = r R(r).

    ``from_psi`` interprets the callable as the full wavefunction psi(r)
    (then u = sqrt(4 pi) r psi).  A non-uniform grid raises DomainError.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(radial(grid), dtype=float)
    u = grid * vals
    if from_psi:
        u = u * math.sqrt(4.0 * math.pi)
    return RadialFunction(grid=grid, values=u, energy=energy,
                          q=q if q is not None else QuantumNumbers(0, 0))


def numeric_overlap(f: RadialFunction, g: RadialFunction) -> float:
    """integral of u_f u_g dr (== integral R_f R_g r^2 dr), f.weights() @ (u_f u_g).

    Both functions must be sampled on one grid; raises DomainError otherwise.
    """
    if f.grid is not g.grid and not np.array_equal(f.grid, g.grid):
        raise DomainError("numeric_overlap needs both functions on one grid")
    return float(f.weights() @ (f.values * g.values))
