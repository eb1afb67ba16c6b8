"""Independent numeric radial eigensolver (Sturm count plus Cooley corrector).

Solves -u'' + [2m (V(r) - E) + l(l+1)/r^2] u = 0 on a uniform grid for
the three potential families.  The start value is the eigenvalue with
index n of a 3-point Dirichlet Hamiltonian, found by LAPACK's
Sturm-sequence bisection (Barth, Martin & Wilkinson, Numer. Math. 9
(1967) 386), so its level is exact by construction.  The first count
runs on every 10th grid point (step H), bisected only to 1e-10 of that
grid's 3-point scale 4/H^2.  When that grid resolves the state, its
eigenvalue is the start: it is then O(H^2) away from the Numerov
eigenvalue, well within the corrector's reach, and the node check of the
converged vector stays a hard failure.  Otherwise (deep wells) the count
runs on the full grid, to machine precision.  Cooley's corrector (Math.
Comp. 15 (1961) 363) then moves the start to the eigenvalue of the
4th-order Numerov equation, reading the residual at the outer classical
turning point m of the vector that one LAPACK tridiagonal solve (dgtsv)
of the Numerov system A(E) u = e_m returns (B. R. Johnson, J. Chem.
Phys. 67 (1977) 4086); that vector is signed positive before its first
node, like the closed forms.  The system holds only the live rows: those
up to where the WKB decay action past m, at the start energy, reaches
_LIVE_ACTION = 30, so that |u| has fallen below e^-30 (about 9e-14) of
its value at m, the vector's own rounding noise.  The state ends there:
its grid holds the live rows and the first zero past them, or the whole
grid when the live rows reach its end.  Its eight moments, the reference
side of each table comparison, are one product with the density wts u^2,
wts = f.weights(), the state's uniform Simpson weights.  Both LAPACK
routines, dstebz and dgtsv, are called directly from scipy's f2py
extension, which _lapack loads without the import-heavy scipy.linalg package.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib import machinery, util
from typing import Optional

import numpy as np

from .afm import PotentialModel
from .errors import DomainError, NoBoundState, NumericalFailure, QuadratureFailure
from .exact import ObservableSet, QuantumNumbers
from .observables import p2_p4_from_potential

__all__ = ["RadialFunction", "SolverConfig", "solve_radial", "numeric_observables"]

_CORRECTOR_TOL = 1e-12     # converged step, relative to max(1, |E|)
_CORRECTOR_MAX_ITER = 20
_GUESS_STRIDE = 10         # grid stride of the Sturm count that guesses the start
_GUESS_RESOLVED = 0.1      # largest resolution number rho at which the guess is the start
_GUESS_TOL = 1e-10         # bisection tolerance of the guess, relative to its 3-point scale 4/H^2
_LIVE_ACTION = 30.0        # WKB decay action past the matching point beyond which u is 0


def _lapack():
    """scipy's f2py LAPACK extension without scipy.linalg's __init__, whose
    array-API layer imports numpy.f2py, numpy.testing and numpy's other lazy
    submodules (about 0.1 s and 23 MB per process, none of it used here).
    Registered under its own name, so a later `import scipy.linalg` reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy  # cheap: scipy's own __init__ and distributor hook
        spec = machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _simpson(n: int, h: float) -> np.ndarray:
    """Weights of n >= 3 points spaced h, w @ y = scipy.integrate.simpson(y, dx=h):
    composite Simpson, for even n with Cartwright's correction on the last interval."""
    wts = np.full(n, 2.0 * h / 3.0)
    wts[1::2] = 4.0 * h / 3.0
    wts[0] = wts[-1] = h / 3.0
    if n % 2 == 0:
        wts[-3:] = (5.0 * h / 4.0, h, 5.0 * h / 12.0)
    return wts


@dataclass(frozen=True)
class RadialFunction:
    """Reduced radial function u(r) = r R(r) sampled on a uniform grid.

    At least 3 points whose steps agree to 8 eps times the extent, as
    np.linspace's do, else DomainError.  An oracle state's grid stops at
    the first zero past its live rows.
    """

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    energy: float
    q: QuantumNumbers

    def __post_init__(self):
        g = self.grid
        if not (g.ndim == 1 and g.shape[0] >= 3 and g[1] > g[0] and np.ptp(g[1:] - g[:-1])
                <= 8.0 * np.finfo(float).eps * max(abs(g[0]), abs(g[-1]))):
            raise DomainError("RadialFunction needs a uniform increasing grid of >= 3 points")

    def weights(self) -> np.ndarray:
        """Simpson weights of the grid: w @ y integrates samples y over it."""
        return _simpson(self.grid.shape[0], float(self.grid[1] - self.grid[0]))

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
        if not 2000 <= self.grid_points <= 2_000_000:
            raise DomainError("grid_points must be between 2000 and 2000000")


# ----------------------------------------------------------------------
# Numerov kernel.  W is the full coefficient array of u'' = W u.
# ----------------------------------------------------------------------

def _numerov_assemble(w, h, l, m):
    """Matched solution (unnormalized): the solution of A(E) u = e_m.

    Row i of the tridiagonal A is a[i-1] u[i-1] - b[i] u[i] + a[i+1] u[i+1]
    with a = 1 - h^2 w/12, b = 2 + 10 h^2 w/12.  The unknowns start after
    the last index up to m where h^2 w/12 > 1/2, u = 0 before them; the
    last row is the decaying tail u[n-2] = exp(kappa h) u[n-1].  One
    LAPACK dgtsv call solves the system.
    """
    n = w.shape[0]
    c = h * h / 12.0
    coarse = np.nonzero(c * w[1:m + 1] > 0.5)[0]
    start = int(coarse[-1]) + 2 if coarse.size else 1
    if start > m:
        raise NumericalFailure(
            f"h = {h:.3g} is too coarse: h^2 w/12 > 1/2 at the matching point")
    cw = c * w[start:]
    du = 1.0 - cw                        # a[i+1] above it, from du[1:]
    dl = du[:-1].copy()                  # a[i-1] below it
    d = np.subtract(-2.0, np.multiply(10.0, cw, out=cw), out=cw)   # -b[i], in cw's buffer
    if start == 1 and l == 1:
        d[0] -= 1.0 / 6.0                # a[0] u[0] -> -u[1]/6 for u ~ C r^2
    d[-1] = -math.exp(math.sqrt(max(w[n - 1], 1e-30)) * h)
    dl[-1] = 1.0
    u = np.zeros(n)
    u[m] = 1.0                           # dgtsv overwrites the tail u[start:] with x
    *_, info = _lapack().dgtsv(dl, d, du[1:], u[start:], overwrite_dl=1, overwrite_d=1,
                               overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"LAPACK dgtsv failed on the Numerov system (info = {info})")
    return u


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _base_w(v: PotentialModel, grid: np.ndarray, q: QuantumNumbers) -> np.ndarray:
    """2m V + l(l+1)/r^2 on the grid, so that W(E) = w0 - 2m E off the origin."""
    w0 = np.empty_like(grid)
    w0[1:] = v.kinetic_2m * v.v(grid[1:])
    if q.l > 0:
        w0[1:] += q.big_l / grid[1:] ** 2
    w0[0] = 0.0  # never used: u[0] = 0 by construction
    return w0


def _match_index(w: np.ndarray) -> int:
    allowed = np.nonzero(w[1:] < 0.0)[0]
    if allowed.size == 0:
        return -1
    return int(min(max(allowed[-1] + 1, 4), w.shape[0] - 5))


def _sturm_start(w0: np.ndarray, h: float, n: int) -> float:
    """Eigenvalue n of a 3-point Dirichlet matrix -D2 + diag(w0), the start.

    A Sturm count on every _GUESS_STRIDE-th grid point (step H), bisected
    to _GUESS_TOL of its 3-point scale 4/H^2, gives a guess.  Its resolution
    number rho = H^2 max(guess - w0) (n + 1) / 12 is the guess grid's
    relative error in the largest local kinetic energy, scaled by the
    level spacing (about 1/(n + 1)); when rho is at most _GUESS_RESOLVED
    the guess is returned.  This assumes w0 smooth on the guess grid, as
    the three families are.  Otherwise, and when the guess grid has no
    row n, the count runs on the full grid, to machine precision.  Each
    count is one direct LAPACK dstebz call (range 2, il = iu = n + 1, order
    E); the overflow check, which also rejects non-finite w0, is its input check.
    """
    dstebz = _lapack().dstebz

    def eigenvalue(diag_w, step, rel_tol=0.0):
        # the Sturm count squares the entries; peak is the largest times step^2
        peak = float(np.max(np.abs(diag_w))) * step * step + 2.0
        if not peak < step * step * math.sqrt(sys.float_info.max):
            raise NumericalFailure(
                f"the 3-point matrix on the grid step {step:.3g} has entries up to "
                f"{peak:.3g}/step^2, whose squares overflow in the Sturm count")
        diag = diag_w + 2.0 / (step * step)
        off = np.full(diag.shape[0] - 1, -1.0 / (step * step))
        m, w, *_, info = dstebz(diag, off, 2, 0.0, 1.0, n + 1, n + 1,
                                tol=4 * rel_tol / step**2, order="E")
        if info != 0 or m != 1:
            raise NumericalFailure(f"LAPACK dstebz failed (info = {info}, m = {m})")
        return float(w[0])

    coarse = w0[_GUESS_STRIDE:-1:_GUESS_STRIDE]
    if coarse.shape[0] > n:
        step = _GUESS_STRIDE * h
        guess = eigenvalue(coarse, step, _GUESS_TOL)
        if step * step * float(np.max(guess - w0[1:])) * (n + 1) / 12.0 <= _GUESS_RESOLVED:
            return guess
    return eigenvalue(w0[1:-1], h)


def _live_end(w: np.ndarray, h: float, m: int) -> int:
    """End of the rows that carry the state: 4 rows past the first row
    beyond m where the WKB decay action of w reaches _LIVE_ACTION, capped
    at the grid end.  There |u| < exp(-_LIVE_ACTION) of u[m], rounding noise."""
    action = np.maximum(w[m:], 0.0)
    np.cumsum(np.sqrt(action, out=action), out=action)
    action *= h
    return min(m + int(np.searchsorted(action, _LIVE_ACTION)) + 4, w.shape[0])


def _solve_on_grid(w0, grid, q, c, energy):
    """Cooley's corrector from the start energy, then the normalized vector and its energy.

    The corrector assembles only the rows up to the live end found at the
    start energy; u holds those rows and the first zero past them.
    """
    h = float(grid[1] - grid[0])
    w = w0 - c * energy
    if w[-1] < 0.0:
        raise NumericalFailure(
            f"r_max = {grid[-1]:.6g} ends inside the classically allowed region: "
            f"the outer turning point at the start energy {energy:.6g} lies "
            "beyond it")
    m = _match_index(w)
    if m < 0:
        raise NumericalFailure("no classically allowed region at the start energy")
    if h * h / 12.0 * w[m] > 0.5:
        raise NumericalFailure(
            f"grid of {grid.shape[0]} points with h = {h:.3g} is too coarse: "
            "h^2 w/12 > 1/2 up to the matching point")
    live = _live_end(w, h, m)
    w0 = w0[:live]
    for _ in range(_CORRECTOR_MAX_ITER):
        w = np.subtract(w0, c * energy, out=w[:live])
        u = _numerov_assemble(w, h, q.l, m)
        y = (1.0 - h * h * w[m - 1:m + 2] / 12.0) * u[m - 1:m + 2]
        resid = (y[2] - 2.0 * y[1] + y[0]) / (h * h) - w[m] * u[m]
        step = u[m] * resid / (c * float(np.dot(u, u)))
        if abs(step) <= _CORRECTOR_TOL * max(1.0, abs(energy - step)):
            break  # the last step is rounding noise: keep u's own energy
        energy -= step
    else:
        raise NumericalFailure("Cooley corrector did not converge")
    u = np.append(u, 0.0)[:grid.shape[0]]
    norm = _simpson(u.shape[0], h) @ (u * u)
    if not norm > 0:
        raise NumericalFailure("degenerate norm after assembly")
    # the solve's sign is that of 1/(lambda - E); make u > 0 before its first node
    return energy, np.divide(u, math.copysign(math.sqrt(norm), next(x for x in u if x)), out=u)


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
    c = v.kinetic_2m
    for _ in range(4):
        grid = np.linspace(0.0, r_max, cfg.grid_points)
        w0 = _base_w(v, grid, q)
        finite = np.isfinite(w0)
        if not finite.all():
            raise NumericalFailure(
                f"2m V + l(l+1)/r^2 is non-finite at r = {grid[np.argmin(finite)]:.6g}")
        start = _sturm_start(w0, float(grid[1] - grid[0]), q.n) / c
        if threshold is not None and not start < threshold:
            raise NoBoundState(
                "not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")
        energy, u = _solve_on_grid(w0, grid, q, c, start)
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
    # a copy: a view of the prefix would keep the whole grid alive in caches
    return RadialFunction(grid=grid[:u.shape[0]].copy(), values=u,
                          energy=float(energy), q=q)


# ----------------------------------------------------------------------
# observables by quadrature
# ----------------------------------------------------------------------

def numeric_observables(f: RadialFunction, v: PotentialModel) -> ObservableSet:
    """Simpson moments, virial <p^2>/<p^4> and |psi(0)|^2 for an oracle state,
    the eight integrals one product with the density u^2 times Simpson weights."""
    grid, u = f.grid, f.values
    # extrapolated probability mass beyond the grid end
    r_end = float(grid[-1])
    w_end = (v.kinetic_2m * (float(v.v(r_end)) - f.energy)
             + f.q.big_l / r_end ** 2)
    kappa = math.sqrt(max(w_end, 1e-12))
    tail = u[-1] * u[-1] / (2.0 * kappa)
    if tail > 1e-8:
        raise QuadratureFailure(
            f"tail mass {tail:.2e} beyond r_max: state under-resolved")

    wts = f.weights()
    r = grid[1:]
    density = u[1:] * u[1:]
    density *= wts[1:]            # wts u^2 off the origin, where u^2 V -> 0 for all three families
    rows = np.empty((8, r.shape[0]))                  # r^-2, r^-1, r .. r^4, V, V^2
    rows[1], rows[2], rows[6] = 1.0 / r, r, v.v(r)
    np.multiply(rows[1], rows[1], out=rows[0])
    np.multiply(rows[2], rows[2], out=rows[3])
    np.multiply(rows[3], rows[2:4], out=rows[4:6])
    np.multiply(rows[6], rows[6], out=rows[7])
    moments = (rows @ density).tolist()
    r_mom = dict(zip((-2, -1, 1, 2, 3, 4), moments[:6]))
    psi0 = None
    # every integrand vanishes at the origin but u^2/r^2 -> u'(0)^2 for l = 0
    if f.q.l == 0:
        slope_sq = f.slope_at_origin() ** 2
        r_mom[-2] += float(wts[0]) * slope_sq
        psi0 = slope_sq / (4.0 * math.pi)

    p2, p4 = p2_p4_from_potential(f.energy, moments[6], moments[7], v.mass)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0,
                         mean_h=f.energy)
