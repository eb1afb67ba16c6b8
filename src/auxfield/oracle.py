"""Independent numeric radial eigensolver (Sturm count plus Cooley corrector).

Solves -u'' + [2m (V(r) - E) + l(l+1)/r^2] u = 0 on a uniform grid for
the three potential families.  The start value is the eigenvalue with
index n of the 3-point Dirichlet Hamiltonian on the same grid, found by
LAPACK's Sturm-sequence bisection (Barth, Martin & Wilkinson, Numer.
Math. 9 (1967) 386), so the node count is exact by construction.
Cooley's corrector (Math. Comp. 15 (1961) 363) then moves it to the
eigenvalue of the 4th-order Numerov equation, reading the residual at the
outer classical turning point m of the vector that one banded LAPACK
solve of the Numerov system A(E) u = e_m returns (B. R. Johnson, J. Chem.
Phys. 67 (1977) 4086).  Quadrature observables for the converged states
are provided as the reference side of every table comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .afm import PotentialModel
from .errors import DomainError, NoBoundState, NumericalFailure, QuadratureFailure
from .exact import ObservableSet, QuantumNumbers
from .observables import p2_p4_from_potential

__all__ = ["RadialFunction", "SolverConfig", "solve_radial", "numeric_observables"]

_CORRECTOR_TOL = 1e-12     # converged step, relative to max(1, |E|)
_CORRECTOR_MAX_ITER = 20


@dataclass(frozen=True)
class RadialFunction:
    """Reduced radial function u(r) = r R(r) sampled on a uniform grid."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    energy: float
    q: QuantumNumbers

    def slope_at_origin(self) -> float:
        """u'(0) from the one-sided 5-point formula."""
        u = self.values
        h = float(self.grid[1] - self.grid[0])
        return (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2]
                + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)


@dataclass(frozen=True)
class SolverConfig:
    r_max: Optional[float] = None     # None: the family's default domain
    grid_points: int = 20000

    def __post_init__(self):
        if self.r_max is not None and not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise DomainError("r_max must be positive and finite")
        if self.grid_points < 2000:
            raise DomainError("grid_points must be >= 2000")


# ----------------------------------------------------------------------
# Numerov kernel.  W is the full coefficient array of u'' = W u.
# ----------------------------------------------------------------------

def _numerov_assemble(w, h, l, m):
    """Matched solution (unnormalized): the solution of A(E) u = e_m.

    Row i of the tridiagonal A is a[i-1] u[i-1] - b[i] u[i] + a[i+1] u[i+1]
    with a = 1 - h^2 w/12, b = 2 + 10 h^2 w/12.  The unknowns start after
    the last index up to m where h^2 w/12 > 1/2 (none left is a
    NumericalFailure), u = 0 before them; the last row is the decaying
    tail u[n-2] = exp(kappa h) u[n-1].
    """
    from scipy.linalg import solve_banded

    n = w.shape[0]
    c = h * h / 12.0
    coarse = np.nonzero(c * w[1:m + 1] > 0.5)[0]
    start = int(coarse[-1]) + 2 if coarse.size else 1
    if start > m:
        raise NumericalFailure(
            f"grid of {n} points with h = {h:.3g} is too coarse: h^2 w/12 > 1/2 "
            "up to the matching point")
    a = 1.0 - c * w[start:]
    ab = np.zeros((3, n - start))
    ab[0, 1:] = a[1:]                    # a[i+1] above the diagonal
    ab[1] = -2.0 - 10.0 * c * w[start:]  # -b[i] on it
    ab[2, :-1] = a[:-1]                  # a[i-1] below it
    if start == 1 and l == 1:
        ab[1, 0] -= 1.0 / 6.0            # a[0] u[0] -> -u[1]/6 for u ~ C r^2
    kappa = math.sqrt(max(w[n - 1], 1e-30))
    ab[1, -1] = -math.exp(kappa * h)
    ab[2, -2] = 1.0
    rhs = np.zeros(n - start)
    rhs[m - start] = 1.0
    u = np.zeros(n)
    u[start:] = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
    return u


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _effective_w(v: PotentialModel, grid: np.ndarray, q: QuantumNumbers,
                 energy: float) -> np.ndarray:
    c = v.kinetic_2m
    w = np.empty_like(grid)
    w[1:] = c * (v.v(grid[1:]) - energy)
    if q.l > 0:
        w[1:] += q.big_l / grid[1:] ** 2
    w[0] = 0.0  # never used: u[0] = 0 by construction
    return w


def _match_index(w: np.ndarray) -> int:
    allowed = np.nonzero(w < 0.0)[0]
    if allowed.size == 0:
        return -1
    return int(min(max(allowed[-1], 4), w.shape[0] - 5))


def _sturm_start(v: PotentialModel, q: QuantumNumbers, grid: np.ndarray) -> float:
    """Eigenvalue q.n of the 3-point Dirichlet Hamiltonian on the grid."""
    from scipy.linalg import eigh_tridiagonal

    h = float(grid[1] - grid[0])
    diag = _effective_w(v, grid, q, 0.0)[1:-1] + 2.0 / (h * h)
    off = np.full(diag.shape[0] - 1, -1.0 / (h * h))
    lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(q.n, q.n))
    return float(lam[0]) / v.kinetic_2m


def _solve_on_grid(v, q, grid, energy):
    """Cooley's corrector from the start energy, then the normalized vector."""
    from scipy.integrate import simpson

    h = float(grid[1] - grid[0])
    m = _match_index(_effective_w(v, grid, q, energy))
    if m < 0:
        raise NumericalFailure("no classically allowed region at the start energy")
    for _ in range(_CORRECTOR_MAX_ITER):
        w = _effective_w(v, grid, q, energy)
        u = _numerov_assemble(w, h, q.l, m)
        y = (1.0 - h * h * w[m - 1:m + 2] / 12.0) * u[m - 1:m + 2]
        resid = (y[2] - 2.0 * y[1] + y[0]) / (h * h) - w[m] * u[m]
        step = u[m] * resid / (v.kinetic_2m * float(np.dot(u, u)))
        energy -= step
        if abs(step) <= _CORRECTOR_TOL * max(1.0, abs(energy)):
            break
    else:
        raise NumericalFailure("Cooley corrector did not converge")
    norm = simpson(u * u, x=grid)
    if not norm > 0:
        raise NumericalFailure("degenerate norm after assembly")
    u /= math.sqrt(norm)
    return energy, u


def _interior_nodes(u: np.ndarray) -> int:
    s = np.sign(u[1:])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def solve_radial(v: PotentialModel, q: QuantumNumbers,
                 cfg: SolverConfig = SolverConfig()) -> RadialFunction:
    """Eigenpair with exactly q.n radial nodes for the given family.

    The Sturm count of the 3-point Hamiltonian on the grid gives the
    start energy of level q.n; Cooley's corrector refines it to the
    Numerov eigenvalue.  A potential with a continuum requires that start
    below the model's continuum threshold and, on its default domain,
    extends the domain for near-threshold states.
    """
    r_max = cfg.r_max or v.default_r_max(q)
    threshold = v.continuum_threshold
    for _ in range(4):
        grid = np.linspace(0.0, r_max, cfg.grid_points)
        start = _sturm_start(v, q, grid)
        if threshold is not None and not start < threshold:
            raise NoBoundState(
                "not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")
        energy, u = _solve_on_grid(v, q, grid, start)
        if threshold is None or cfg.r_max is not None:
            break
        # twenty decay lengths 1/sqrt(2m |E|) below the continuum at E = 0
        needed = 20.0 / math.sqrt(v.kinetic_2m * -energy) if energy < 0 else math.inf
        if needed <= r_max or not math.isfinite(needed):
            break
        r_max = min(needed * 1.25, 4000.0)
    if _interior_nodes(u) != q.n:
        raise NumericalFailure(
            f"converged solution has {_interior_nodes(u)} nodes, expected {q.n}")
    return RadialFunction(grid=grid, values=u, energy=float(energy), q=q)


# ----------------------------------------------------------------------
# observables by quadrature
# ----------------------------------------------------------------------

def numeric_observables(f: RadialFunction, v: PotentialModel) -> ObservableSet:
    """Simpson moments, virial <p^2>/<p^4> and |psi(0)|^2 for an oracle state."""
    from scipy.integrate import simpson

    grid, u = f.grid, f.values
    u2 = u * u
    # extrapolated probability mass beyond the grid end
    w_end = float(_effective_w(v, grid, f.q, f.energy)[-1])
    kappa = math.sqrt(max(w_end, 1e-12))
    tail = u2[-1] / (2.0 * kappa)
    if tail > 1e-8:
        raise QuadratureFailure(
            f"tail mass {tail:.2e} beyond r_max: state under-resolved")

    r_mom = {}
    for k in (-2, -1, 1, 2, 3, 4):
        integrand = np.empty_like(u2)
        integrand[1:] = u2[1:] * grid[1:] ** float(k)
        if k >= -1:
            integrand[0] = 0.0
        else:
            integrand[0] = f.slope_at_origin() ** 2 if f.q.l == 0 else 0.0
        r_mom[k] = float(simpson(integrand, x=grid))

    vv = np.empty_like(u2)
    vv[1:] = v.v(grid[1:])
    vv[0] = 0.0  # u^2 V -> 0 at the origin for all three families
    mean_v = float(simpson(u2 * vv, x=grid))
    mean_v2 = float(simpson(u2 * vv * vv, x=grid))
    p2, p4 = p2_p4_from_potential(f.energy, mean_v, mean_v2, v.mass)
    psi0 = None
    if f.q.l == 0:
        psi0 = f.slope_at_origin() ** 2 / (4.0 * math.pi)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0,
                         mean_h=f.energy)
