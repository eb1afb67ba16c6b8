"""Dilated-overlap formulas for hydrogen-like and oscillator families,
plus numeric overlap quadrature between sampled radial functions.

F_{n,n',l}(a) is the scalar product of two same-family radial states
whose length scales differ by the factor a; both analytic formulas are
evaluated in log space with signs tracked separately, and the removable
singularity of the hydrogen formula at a = N'/N is cancelled
algebraically (every term carries an explicit power of Q(a) = aN - N').
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .afm import AuxiliaryKind
from .errors import DomainError
from .exact import QuantumNumbers
from .oracle import RadialFunction, _simpson_weights

__all__ = [
    "overlap_hydrogen_dilated",
    "overlap_oscillator_dilated",
    "afm_pair_overlap",
    "numeric_overlap",
    "sample_radial",
]


def _log_sum(terms):
    """Stable sum of sign * exp(logmag) pairs."""
    finite = [(s, lm) for s, lm in terms if s != 0.0 and lm != -math.inf]
    if not finite:
        return 0.0
    m = max(lm for _, lm in finite)
    acc = math.fsum(s * math.exp(lm - m) for s, lm in finite)
    return acc * math.exp(m)


def overlap_hydrogen_dilated(n: int, n_prime: int, l: int, a: float) -> float:
    """Overlap of hydrogen-like radial states (n,l) and (n',l) with scale ratio a."""
    if a <= 0.0:
        raise DomainError("dilation factor must be positive")
    if min(n, n_prime, l) < 0:
        raise DomainError("quantum numbers must be non-negative")
    big_n = n + l + 1
    big_np = n_prime + l + 1
    q_a = a * big_n - big_np
    s_a = a * big_n + big_np
    log_q = math.log(abs(q_a)) if q_a != 0.0 else -math.inf
    sign_q = 1.0 if q_a >= 0.0 else -1.0
    log4ann = math.log(4.0 * a * big_n * big_np)

    base = (0.5 * (math.log(a) + math.lgamma(n + 1.0) + math.lgamma(big_n + l + 1.0)
                   + math.lgamma(n_prime + 1.0) + math.lgamma(big_np + l + 1.0))
            + big_n * log4ann - (big_n + big_np + 1.0) * math.log(s_a))

    terms = []
    for k in range(0, n + 1):
        shift = n_prime - n + k
        if shift + 1 < 0:
            continue  # 1/(negative factorial) = 0
        denom = (math.lgamma(k + 1.0) + math.lgamma(n - k + 1.0)
                 + math.lgamma(big_n - k + l + 1.0) + math.lgamma(shift + 2.0))
        k_sign = -1.0 if k % 2 else 1.0
        common = base - k * log4ann - denom
        # piece 1: 2 (N-k)(n'-n+k+1) * Q^(n'-n+2k)
        c1 = 2.0 * (big_n - k) * (shift + 1.0)
        # piece 2: (n-k)(N-k+l)/(2 a N) * Q^(n'-n+2k+1)
        c2 = (n - k) * (big_n - k + l) / (2.0 * a * big_n)
        # piece 3: (n'-n+k)(n'-n+k+1) * 2 a N * Q^(n'-n+2k-1)
        c3 = shift * (shift + 1.0) * 2.0 * a * big_n
        for coeff, power in ((c1, n_prime - n + 2 * k),
                             (c2, n_prime - n + 2 * k + 1),
                             (c3, n_prime - n + 2 * k - 1)):
            if coeff == 0.0:
                continue
            if log_q == -math.inf and power > 0:
                continue
            logmag = common + math.log(abs(coeff)) + (power * log_q if power else 0.0)
            sign = k_sign * math.copysign(1.0, coeff) * (sign_q ** (power % 2))
            terms.append((sign, logmag))
    total = _log_sum(terms)
    return ((-1.0) ** (n + n_prime)) * total


def overlap_oscillator_dilated(n: int, n_prime: int, l: int, a: float) -> float:
    """Overlap of oscillator radial states (n,l) and (n',l) with scale ratio a."""
    if a <= 0.0:
        raise DomainError("dilation factor must be positive")
    if min(n, n_prime, l) < 0:
        raise DomainError("quantum numbers must be non-negative")
    d = 1.0 - a * a
    log_d = math.log(abs(d)) if d != 0.0 else -math.inf
    sign_d = 1.0 if d >= 0.0 else -1.0
    log2a = math.log(2.0 * a)
    base = (0.5 * (math.lgamma(n + 1.0) + math.lgamma(n_prime + 1.0)
                   + math.lgamma(n + l + 1.5) + math.lgamma(n_prime + l + 1.5))
            + (2 * n + l + 1.5) * log2a
            - (n + n_prime + l + 1.5) * math.log(1.0 + a * a))
    terms = []
    for k in range(0, n + 1):
        shift = n_prime - n + k
        if shift < 0:
            continue
        power = n_prime - n + 2 * k
        if log_d == -math.inf and power > 0:
            continue
        logmag = (base + (power * log_d if power else 0.0) - 2.0 * k * log2a
                  - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
                  - math.lgamma(shift + 1.0) - math.lgamma(n - k + l + 1.5))
        sign = (-1.0 if k % 2 else 1.0) * (sign_d ** (power % 2))
        terms.append((sign, logmag))
    return _log_sum(terms)


def afm_pair_overlap(kind: AuxiliaryKind, n: int, n_prime: int, l: int) -> float:
    """Overlap of two AFM trial states of the linear potential."""
    if kind is AuxiliaryKind.COULOMB:
        a = ((n_prime + l + 1) / (n + l + 1)) ** (4.0 / 3.0)
        return overlap_hydrogen_dilated(n, n_prime, l, a)
    a = ((4 * n + 2 * l + 3) / (4 * n_prime + 2 * l + 3)) ** (1.0 / 6.0)
    return overlap_oscillator_dilated(n, n_prime, l, a)


# ----------------------------------------------------------------------
# numeric overlap
# ----------------------------------------------------------------------

def sample_radial(radial: Callable, grid: np.ndarray, *, energy: float = math.nan,
                  q: Optional[QuantumNumbers] = None,
                  from_psi: bool = False) -> RadialFunction:
    """Sample a radial evaluator into a reduced RadialFunction u = r R(r).

    ``from_psi`` interprets the callable as the full wavefunction psi(r)
    (then u = sqrt(4 pi) r psi).
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(radial(grid), dtype=float)
    u = grid * vals
    if from_psi:
        u = u * math.sqrt(4.0 * math.pi)
    return RadialFunction(grid=grid, values=u, energy=energy,
                          q=q if q is not None else QuantumNumbers(0, 0))


def numeric_overlap(f: RadialFunction, g: RadialFunction) -> float:
    """integral of u_f u_g dr (== integral R_f R_g r^2 dr) by Simpson
    over their grid.

    Both functions must be sampled on the same grid; raises DomainError
    otherwise.
    """
    if f.grid is not g.grid and not np.array_equal(f.grid, g.grid):
        raise DomainError("numeric_overlap needs both functions on one grid")
    return float(_simpson_weights(f.grid) @ (f.values * g.values))
