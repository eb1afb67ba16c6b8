"""Independent numeric radial eigensolver (Lagrange-mesh start plus Cooley corrector).

Solves -u'' + [2m (V(r) - E) + l(l+1)/r^2] u = 0 on a uniform grid for the
three potential families.  The start is eigenvalue n of the x-regularized
Lagrange-Laguerre mesh Hamiltonian (Baye, Phys. Rep. 565 (2015) 1), from two
passes (_mesh_start), the first on the grid's [0, r_max], the second on the
rows that carry the state at the first energy, where the WKB decay action
beyond the turning points stays below _MESH_ACTION = 36; a mesh above
_MESH_CAP points is refused before it is built.  Cooley's corrector (Math.
Comp. 15 (1961) 363) takes one step at least from it to the eigenvalue of the
4th-order Numerov equation, reading the residual at the outer classical
turning point m of the vector that one LAPACK dgtsv solve of the Numerov
system A(E) u = e_m returns (B. R. Johnson, J. Chem. Phys. 67 (1977) 4086),
signed positive before its first node.  The system holds only the live rows,
up to where the WKB decay action past m reaches _LIVE_ACTION = 30, so |u| is
below e^-30 of u[m] there, rounding noise.  The state ends there, or at the
grid end with the decaying tail u_end e^(-kappa (r - r_end)) of the last
Numerov row, whose mass u_end^2/(2 kappa) is part of the norm; solve_radial
refuses a tail above 1e-8 before the continuum.  Its moments, the reference
side of each table comparison, are one product with the density wts u^2
(f.weights, the Simpson rule of its norm) plus the tail's share; |psi(0)|^2 of
an S-state is the force identity m <V'>/(2 pi).  dsterf, dsyevr and dgtsv are called from
scipy's f2py extension, which _lapack loads without the scipy.linalg package.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import machinery, util
from typing import Optional

from ._numpy import np
from .afm import PotentialModel
from .errors import DomainError, NoBoundState, NumericalFailure
from .exact import ObservableSet, QuantumNumbers
from .observables import p2_p4_from_potential
from .specfun import laguerre

__all__ = ["RadialFunction", "SolverConfig", "solve_radial", "numeric_observables",
           "gauss_laguerre"]

_CORRECTOR_TOL = 1e-12     # converged step, relative to |E|
_CORRECTOR_MAX_ITER = 20
_LIVE_ACTION = 30.0        # WKB decay action past the matching point beyond which u is 0
_MESH_ACTION = 36.0        # the same where the start's mesh ends, both sides: e^-36, rounding
_MESH_CAP = 2000           # largest start mesh; its dsyevr takes about 0.5 s on 2 BLAS threads


def _lapack():
    """scipy's f2py LAPACK extension without scipy.linalg's __init__, whose array-API layer
    imports numpy.f2py, numpy.testing and numpy's other lazy submodules (about 0.1 s and
    23 MB per process, none used here); registered so a later `import scipy.linalg` reuses it."""
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
    """Reduced radial function u(r) = r R(r) at increasing nodes, with the weights of the
    rule its sampler chose, weights @ y integrating samples y; nodes that do not increase,
    or arrays that are not non-empty, 1-D and of one length, raise DomainError.  An oracle
    state's grid stops at the first zero past its live rows."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    energy: float
    q: QuantumNumbers
    kappa: float = math.inf   # decay rate of the tail past the grid end; inf: no tail

    def __post_init__(self):
        g = self.grid
        if not (g.ndim == 1 and g.shape == self.values.shape == self.weights.shape and g.size
                and np.all(g[1:] > g[:-1])):
            raise DomainError("RadialFunction needs increasing nodes and 1-D arrays of one length")

    @property
    def tail_mass(self) -> float:
        """Mass of the tail u_end e^(-kappa (r - r_end)) past the grid end."""
        return _tail_mass(float(self.values[-1]), self.kappa)

    def psi(self, r: np.ndarray, psi0_sq: Optional[float] = None) -> np.ndarray:
        """psi(r) = u(r) / (sqrt(4 pi) r) at radii r >= 0 (an array): u interpolated on the
        grid, the tail past its end (0 for kappa = inf), and at r = 0 the root of psi0_sq,
        numeric_observables' |psi(0)|^2 of an S-state (0 when None)."""
        norm, r = math.sqrt(4.0 * math.pi), np.asarray(r, dtype=float)
        u, past = np.interp(r, self.grid, self.values), r > self.grid[-1]
        with np.errstate(over="ignore"):   # the tail factor, capped at e^-1000 = 0
            u[past] *= np.exp(-np.minimum(self.kappa * (r[past] - self.grid[-1]), 1e3))
        psi = np.divide(u / norm, r, out=np.zeros_like(u), where=r > 0.0)
        psi[r == 0.0] = math.sqrt(psi0_sq or 0.0)
        return psi


@dataclass(frozen=True)
class SolverConfig:
    r_max: Optional[float] = None     # None: the family's default domain
    grid_points: int = 20000

    def __post_init__(self):
        if self.r_max is not None and not (isinstance(self.r_max, numbers.Real)
                                           and self.r_max > 0 and math.isfinite(self.r_max)):
            raise DomainError("r_max must be a positive and finite real number")
        if not hasattr(type(self.grid_points), "__index__"):   # operator.index's test
            raise DomainError("grid_points must be an integer")
        if not 2000 <= self.grid_points <= 2_000_000:
            raise DomainError("grid_points must be between 2000 and 2000000")


def _tail_mass(u_end: float, kappa: float) -> float:
    """u_end^2/(2 kappa), the mass of the tail u_end e^(-kappa (r - r_end))."""
    return u_end * u_end * (0.5 / kappa)


def _numerov_assemble(w, h, l, m, kappa):
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
        raise NumericalFailure(f"h = {h:.3g} is too coarse: h^2 w/12 > 1/2 at the matching "
                               "point; more grid points (--grid-points) may resolve it")
    cw = c * w[start:]
    du = 1.0 - cw                        # a[i+1] above it, from du[1:]
    dl = du[:-1].copy()                  # a[i-1] below it
    d = np.subtract(-2.0, np.multiply(10.0, cw, out=cw), out=cw)   # -b[i], in cw's buffer
    if start == 1 and l == 1:
        d[0] -= 1.0 / 6.0                # a[0] u[0] -> -u[1]/6 for u ~ C r^2
    d[-1] = -math.exp(kappa * h)
    dl[-1] = 1.0
    u = np.zeros(n)
    u[m] = 1.0                           # dgtsv overwrites the tail u[start:] with x
    *_, info = _lapack().dgtsv(dl, d, du[1:], u[start:], overwrite_dl=1, overwrite_d=1,
                               overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"LAPACK dgtsv failed on the Numerov system (info = {info})")
    return u


def _base_w(v: PotentialModel, grid: np.ndarray, q: QuantumNumbers) -> np.ndarray:
    """2m V + l(l+1)/r^2 on the grid, so that W(E) = w0 - 2m E off the origin."""
    w0 = np.empty_like(grid)
    with np.errstate(over="ignore", divide="ignore"):   # solve_radial refuses a non-finite w0
        w0[1:] = v.kinetic_2m * v.v(grid[1:])
        if q.l > 0:
            w0[1:] += q.big_l / grid[1:] ** 2
    w0[0] = 0.0  # never used: u[0] = 0 by construction
    return w0


def _match_index(w: np.ndarray) -> int:
    allowed = np.nonzero(w[1:] < 0.0)[0]
    if allowed.size == 0:
        raise NumericalFailure(f"no classically allowed row on the grid of {w.shape[0]} points at "
                               "the start energy; more points (--grid-points) may resolve it")
    return int(min(max(allowed[-1] + 1, 4), w.shape[0] - 5))


@lru_cache(maxsize=8)
def _mesh(points: int):
    """Nodes x_i of the N-point mesh, the zeros of L_N (dsterf on the Laguerre
    Jacobi matrix), its kinetic matrix T of -d^2/dx^2 (both read-only), T_ii =
    (4 + 2(2N+1) x_i - x_i^2)/(12 x_i^2), T_ij = (-1)^(i-j) (x_i + x_j)/(sqrt(x_i x_j)
    (x_i - x_j)^2), and max |T_ij|."""
    i = np.arange(points, dtype=float)
    x, info = _lapack().dsterf(2.0 * i + 1.0, i[1:])
    if info != 0:
        raise NumericalFailure(f"LAPACK dsterf failed on the Laguerre nodes (info = {info})")
    t = np.subtract.outer(x, x)
    np.fill_diagonal(t, 1.0)
    t *= t
    t *= np.sqrt(np.multiply.outer(x, x))
    np.divide(np.add.outer(x, x), t, out=t)
    t[1::2, ::2] *= -1.0
    t[::2, 1::2] *= -1.0
    np.fill_diagonal(t, (4.0 + (4 * points + 2 - x) * x) / (12.0 * x * x))
    t.flags.writeable = x.flags.writeable = False
    return x, t, float(np.max(np.abs(t)))


def gauss_laguerre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i (_mesh's) and weights w_i > 0 of the N-point Gauss-Laguerre rule sum_i
    w_i g(x_i) ~ int_0^inf g(x) dx, exact for g e^x a polynomial of degree < 2N, with w_i =
    x_i/((N+1) e^(-x_i/2) L_(N+1)(x_i))^2: e^x_i times the Jacobi weight fails above N ~ 80."""
    x = _mesh(points)[0]
    return x, x / ((points + 1) * laguerre(points + 1, 0.0, x, -0.5 * x)) ** 2


def _mesh_level(v: PotentialModel, q: QuantumNumbers, r_start: float, r_end: float,
                points: float) -> float:
    """Eigenvalue q.n (2m E, the scale of w0) of T/h^2 + 2m V(r_i) + l(l+1)/r_i^2
    on the mesh of ceil(``points``) nodes r_i = r_start + h x_i ending at r_end, the cap
    checked first.  dsyevr's bisection squares the entries: the largest must stay below
    the root of the largest double, which also rejects a non-finite V."""
    if not points <= _MESH_CAP:   # inf too: an overflowing estimate
        raise NumericalFailure(f"level n = {q.n}, l = {q.l} needs a Lagrange mesh of {points:.6g} "
                               f"points on [{r_start:.6g}, {r_end:.6g}], above the cap of "
                               f"{_MESH_CAP}")
    x, t, peak = _mesh(points := math.ceil(points))
    h = (r_end - r_start) / float(x[-1])
    r, peak = r_start + h * x, peak / h / h   # Python floats: inf, not a warning, past the range
    if peak < math.sqrt(sys.float_info.max):   # then r * r > 0
        diag = v.kinetic_2m * v.v(r) + (q.big_l / r / r if q.l > 0 else 0.0)
        peak += float(np.max(np.abs(diag)))
    if not peak < math.sqrt(sys.float_info.max):
        raise NumericalFailure(f"the Lagrange mesh on [{r_start:.3g}, {r_end:.3g}] (grid step "
                               f"h = {h:.3g}) has entries up to {peak:.3g}, whose squares overflow")
    ham = np.multiply(t, 1.0 / h / h)
    ham.flat[::points + 1] += diag
    w, _, m, _, info = _lapack().dsyevr(ham, compute_v=0, range="I", il=q.n + 1, iu=q.n + 1,
                                        abstol=2.0 * sys.float_info.min, overwrite_a=1)
    if info != 0 or m != 1:
        raise NumericalFailure(f"LAPACK dsyevr failed on the mesh (info = {info}, m = {m})")
    return float(w[0])


def _mesh_start(v: PotentialModel, q: QuantumNumbers, w0: np.ndarray, grid: np.ndarray) -> float:
    """Start 2m E of level q.n: N = 2n + 40 points on the grid's [0, r_max], then on
    the rows that carry the state at that energy, from where the WKB decay action
    inward of the inner turning point r_in reaches _MESH_ACTION (0 unless l is large)
    to where it does outward of the outer one (_live_end).  There N is at least
    max p sqrt((r - r_a)(r_b - r)) over the allowed rows, p the local wavenumber, as
    the mesh on [r_a, r_b] has about (2N/(pi (r_b - r_a))) sqrt((r_b - r_a)/(r - r_a) - 1)
    points per unit length (deep wells)."""
    if w0.shape[0] < q.n + 3:  # one level per interior point: refused before any mesh
        raise NumericalFailure(f"level n = {q.n} needs at least {q.n + 3} grid points (--grid-points)")
    points, h, rows = 2 * q.n + 40, float(grid[1] - grid[0]), w0.shape[0]
    w = w0 - _mesh_level(v, q, 0.0, float(grid[-1]), points)
    m, first = _match_index(w), int(np.argmax(w[1:] < 0.0)) + 1   # first: the row of r_in
    r_a = float(grid[rows - _live_end(w[::-1], h, rows - 1 - first, _MESH_ACTION)])
    r_b = float(grid[_live_end(w, h, m, _MESH_ACTION) - 1])
    r = grid[first:m]
    with np.errstate(over="ignore"):   # an overflow is an infinite mesh, refused by the cap
        phase = float(np.max(np.maximum(-w[first:m], 0.0) * (r - r_a) * (r_b - r), initial=0.0))
    return _mesh_level(v, q, r_a, r_b, max(points, math.sqrt(phase)))


def _live_end(w: np.ndarray, h: float, m: int, action: float) -> int:
    """End of the rows that carry the state: 4 rows past the first row beyond m where
    the WKB decay action of w reaches ``action`` (|u| < e^-action of u[m]), or the grid end."""
    walked = np.maximum(w[m:], 0.0)
    np.cumsum(np.sqrt(walked, out=walked), out=walked)   # the action over h: no overflow
    return min(m + int(np.searchsorted(walked, action / h)) + 4, w.shape[0])


def _solve_on_grid(w0, grid, q, c, energy):
    """Cooley's corrector from the start energy, one step at least: the normalized
    state on the rows up to the live end at the start energy and the first zero past them."""
    h = float(grid[1] - grid[0])
    w = w0 - c * energy
    if w[-1] < 0.0:
        raise NumericalFailure(
            f"r_max = {grid[-1]:.6g} ends inside the classically allowed region: "
            f"the outer turning point at the start energy {energy:.6g} lies "
            "beyond it")
    if h * h * -float(np.min(w[1:])) >= 6.0:
        raise NumericalFailure(
            f"grid of {grid.shape[0]} points: h = {h:.3g} is too coarse: h^2 |W| reaches 6 in the "
            "allowed region at the start energy, where Numerov's recursion no longer oscillates")
    m = _match_index(w)
    live, last = _live_end(w, h, m, _LIVE_ACTION), math.inf
    w0 = w0[:live]
    for _ in range(_CORRECTOR_MAX_ITER):
        w = np.subtract(w0, c * energy, out=w[:live])
        kappa = math.sqrt(max(w[-1], 1e-12))   # the tail's decay rate, at least 1e-6
        try:
            u = _numerov_assemble(w, h, q.l, m, kappa)
        except NumericalFailure as exc:
            raise NumericalFailure(f"grid of {grid.shape[0]} points: {exc}") from None
        y = (1.0 - h * h * w[m - 1:m + 2] / 12.0) * u[m - 1:m + 2]
        resid = (y[2] - 2.0 * y[1] + y[0]) / (h * h) - w[m] * u[m]
        step = u[m] * resid / (c * float(np.dot(u, u) + _tail_mass(u[-1], kappa) / h))
        noise = sys.float_info.epsilon / (c * h * h) * max(1.0, abs(energy))
        # one step at least: the mesh start is off the Numerov eigenvalue by the grid's error
        if last < math.inf and (abs(step) <= _CORRECTOR_TOL * abs(energy - step) or (
                abs(step) <= noise and abs(step) >= abs(last))):
            break  # converged, or stalled at the grid's rounding scale: keep u's own energy
        energy, last = energy - step, step
    else:
        raise NumericalFailure("Cooley corrector did not converge")
    u = np.append(u, 0.0)[:grid.shape[0]]
    norm = (wts := _simpson(u.shape[0], h)) @ (u * u) + _tail_mass(u[-1], kappa)
    if not norm > 0:
        raise NumericalFailure("degenerate norm after assembly")
    # the solve's sign is that of 1/(lambda - E); make u > 0 before its first node
    u /= math.copysign(math.sqrt(norm), next(x for x in u if x))
    u += 0.0   # -0.0 + 0.0 = 0.0: no negative zeros outside the solved rows
    # a copy: a view of the prefix would keep the whole grid alive in caches
    return RadialFunction(grid=grid[:u.shape[0]].copy(), values=u, weights=wts,
                          energy=float(energy), q=q, kappa=kappa)


def _interior_nodes(u: np.ndarray) -> int:
    s = np.sign(u[1:])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def solve_radial(v: PotentialModel, q: QuantumNumbers,
                 cfg: SolverConfig = SolverConfig()) -> RadialFunction:
    """Eigenpair with exactly q.n radial nodes for the given family.

    Two mesh passes over the domain of cfg.r_max, or of the family's default domain,
    start level q.n, below the continuum threshold if the model has one; Cooley's
    corrector refines it to the Numerov eigenvalue on that domain's grid.  A state live
    up to the grid end carries its decaying tail, refused (NumericalFailure) above 1e-8
    mass unless |V(r_end)| <= -continuum_threshold.
    """
    r_max = cfg.r_max or v.default_r_max(q)
    grid = np.linspace(0.0, r_max, cfg.grid_points)
    w0 = _base_w(v, grid, q)
    finite = np.isfinite(w0)
    if not finite.all():
        raise NumericalFailure(f"2m V + l(l+1)/r^2 is non-finite at r = "
                               f"{grid[np.argmin(finite)]:.6g}")
    c = v.kinetic_2m
    start = _mesh_start(v, q, w0, grid) / c
    if v.continuum_threshold is not None and not start < v.continuum_threshold:
        raise NoBoundState("not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")
    f = _solve_on_grid(w0, grid, q, c, start)
    if _interior_nodes(f.values) != q.n:
        raise NumericalFailure(
            f"converged solution has {_interior_nodes(f.values)} nodes, expected {q.n}, on "
            f"{cfg.grid_points} grid points up to r_max = {r_max:.6g}; the grid may be "
            "too coarse for the state, and more points (--grid-points) may resolve it")
    r_end, bound = float(f.grid[-1]), v.continuum_threshold
    v_end = (w0[f.grid.shape[0] - 1] - q.big_l / r_end ** 2) / c   # V(r_end), read off w0
    if f.tail_mass > 1e-8 and not (bound is not None and abs(v_end) <= -bound):
        raise NumericalFailure(f"tail mass {f.tail_mass:.2e} beyond r_max = {r_end:.6g}, where "
                               "V has not reached the continuum: state under-resolved")
    return f


def numeric_observables(f: RadialFunction, v: PotentialModel) -> ObservableSet:
    """Moments, virial <p^2>/<p^4> and |psi(0)|^2 of a state by its own rule: eight
    integrals (nine with <V'> for l = 0), one product with the density wts u^2, plus the
    tail's share, exact for r^1 .. r^4, else the integrand at r_end times the tail's mass.
    |psi(0)|^2 of an S-state is m <V'>/(2 pi), exact for an eigenstate of v."""
    grid, u, wts = f.grid, f.values, f.weights
    at0 = int(grid[0] == 0.0)     # a node at the origin is skipped, and its r^-2 term added
    r = grid[at0:]
    density = u[at0:] * u[at0:]
    density *= wts[at0:]          # wts u^2 off the origin, where u^2 V -> 0 for all three families
    rows = np.empty((8 + (f.q.l == 0), r.shape[0]))   # r^-2, r^-1, r .. r^4, V, V^2, V'
    rows[1], rows[2], rows[6] = 1.0 / r, r, v.v(r)
    if f.q.l == 0:
        rows[8] = v.v_prime(r)
    np.multiply(rows[1], rows[1], out=rows[0])
    np.multiply(rows[2], rows[2], out=rows[3])
    np.multiply(rows[3], rows[2:4], out=rows[4:6])
    np.multiply(rows[6], rows[6], out=rows[7])
    r_end, s, tail = float(grid[-1]), 0.5 / f.kappa, f.tail_mass   # u_end e^(-(r - r_end)/(2 s))
    shares = rows[:, -1].tolist()
    for k in range(1, 5):   # int_0^inf (r_end + x)^k e^(-x/s) dx / s
        shares[k + 1] = sum(math.perm(k, j) * r_end ** (k - j) * s ** j for j in range(k + 1))
    moments = [x + tail * share for x, share in zip((rows @ density).tolist(), shares)]
    r_mom = dict(zip((-2, -1, 1, 2, 3, 4), moments[:6]))
    psi0 = v.mass * moments[8] / (2.0 * math.pi) if f.q.l == 0 else None
    if psi0 is not None and at0:   # every integrand vanishes at 0 but u^2/r^2 -> 4 pi psi0
        r_mom[-2] += float(wts[0]) * 4.0 * math.pi * psi0
    p2, p4 = p2_p4_from_potential(f.energy, moments[6], moments[7], v.mass)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0,
                         mean_h=f.energy)
