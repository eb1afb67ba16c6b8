"""Independent numeric radial eigensolver: the x-regularized Lagrange-Laguerre mesh.

Solves -u'' + [2m (V(r) - E) + l(l+1)/r^2] u = 0 for the three potential families
on the mesh of N nodes r_i = r_a + h x_i, x_i the zeros of L_N, whose Hamiltonian
T/h^2 + 2m V(r_i) + l(l+1)/r_i^2 (Baye, Phys. Rep. 565 (2015) 1) has level n as
its eigenvalue n.  Every mesh size is a rung of the ladder round(40 * 1.25^k), so
that the cached meshes and Gauss weights serve many states.  A first pass of at
least 2n + 40 nodes on [0, r_max] gives the energy at which the domain [r_a, r_b]
is set, where the WKB decay action beyond the turning points reaches
_MESH_ACTION = 36 (e^-36: rounding); a domain the action does not fit doubles, at
most _DOUBLINGS times, unless r_max is given.  N then climbs the ladder from the
phase bound until two rungs agree within _MESH_TOL relative to max(1, |E|), and
the finer rung's eigenvector c_i is the state: u(r_i) = c_i / sqrt(h lambda_i) at
the nodes, integrated by the Gauss weights h lambda_i, and the Lagrange functions
between them.  A mesh above _MESH_CAP nodes is refused before it is built.  Its
moments, the reference side of each table comparison, are one product with the
density h lambda_i u_i^2; |psi(0)|^2 of an S-state is the force identity
m <V'>/(2 pi).  dsterf and dsyevd are called from scipy's f2py extension, which
_lapack loads without the scipy.linalg package.
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

_MESH_ACTION = 36.0    # WKB decay action where the domain ends, both sides: e^-36, rounding
_MESH_CAP = 2000       # largest mesh; its dsyevd takes about 1 s on 2 BLAS threads
_MESH_TOL = 1e-10      # two rungs of the ladder agree within this, relative to max(1, |E|)
_DOUBLINGS = 8         # a domain the action does not fit doubles at most this often
_LADDER = tuple(round(40 * 1.25 ** k) for k in range(19))   # mesh sizes 40, 50, 62, .. 2220


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


@dataclass(frozen=True)
class RadialFunction:
    """Reduced radial function u(r) = r R(r) at increasing nodes, with the weights of the
    rule its sampler chose, weights @ y integrating samples y; nodes that do not increase,
    or arrays that are not non-empty, 1-D and of one length, raise DomainError."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    energy: float
    q: QuantumNumbers

    def __post_init__(self):
        g = self.grid
        if not (g.ndim == 1 and g.shape == self.values.shape == self.weights.shape and g.size
                and np.all(g[1:] > g[:-1])):
            raise DomainError("RadialFunction needs increasing nodes and 1-D arrays of one length")

    def psi(self, r: np.ndarray, psi0_sq: Optional[float] = None) -> np.ndarray:
        """psi(r) = u(r) / (sqrt(4 pi) r) at radii r >= 0 (an array), for nodes r_a + h x_i
        of an N-point Lagrange-Laguerre mesh (DomainError otherwise): u = sum_j u_j l_j(t),
        t = (r - r_a)/h, in the cardinal functions l_j(t) = t e^(-t/2) L_N(t) / ((t - x_j)
        (-N) e^(-x_j/2) L_(N-1)(x_j)); the node's value within 8 ulp of a node, 0 before r_a
        and past t = 10^4 x_N, where every l_j has underflowed, and at r = 0 the root of
        psi0_sq, numeric_observables' |psi(0)|^2 of an S-state (0 when None).  L_N(t) is
        the product (-1)^N prod_k (t - x_k) / N!, whose factor t - x_j cancels exactly:
        near a node the recurrence's value keeps only its rounding."""
        points, r = self.grid.shape[0], np.asarray(r, dtype=float)
        x = gauss_laguerre(points)[0]
        h = float(self.grid[-1] - self.grid[0]) / float(x[-1] - x[0]) if points > 1 else 0.0
        r_a = float(self.grid[0]) - h * float(x[0])
        if not (h > 0.0 and np.allclose(r_a + h * x, self.grid, rtol=1e-12, atol=0.0)):
            raise DomainError("psi needs the nodes of a Lagrange-Laguerre mesh")
        with np.errstate(over="ignore"):   # an infinite t is past the cut below
            t = (r - r_a) / h
        live = np.flatnonzero((t >= 0.0) & (t <= 1e4 * float(x[-1])))
        gap = t[live, None] - x
        row, col = np.nonzero(np.abs(gap) <= 8.0 * sys.float_info.epsilon * x)   # at a node
        gap[row, col] = 1.0
        log_lag = np.log(np.abs(gap)).sum(axis=1) - 0.5 * t[live] - math.lgamma(points + 1)
        lag = (-1) ** points * np.prod(np.sign(gap), axis=1) * np.exp(log_lag)   # e^(-t/2) L_N(t)
        coef = self.values / (-points * laguerre(points - 1, 0.0, x, -0.5 * x))
        u = np.zeros_like(t)
        u[live] = t[live] * lag * (coef / gap).sum(axis=1)
        u[live[row]] = self.values[col]
        u += 0.0   # -0.0 + 0.0 = 0.0: an underflowed negative l_j prints as 0
        psi = np.divide(u / math.sqrt(4.0 * math.pi), r, out=np.zeros_like(u), where=r > 0.0)
        psi[r == 0.0] = math.sqrt(psi0_sq or 0.0)
        return psi


@dataclass(frozen=True)
class SolverConfig:
    r_max: Optional[float] = None     # None: the family's default domain, doubled as needed
    # accepted and range-checked but ignored: the mesh sets its own size; the benchmark's
    # cold commands still pass --grid-points 2000 and expect --grid-points 100 refused
    grid_points: int = 20000

    def __post_init__(self):
        if self.r_max is not None and not (isinstance(self.r_max, numbers.Real)
                                           and self.r_max > 0 and math.isfinite(self.r_max)):
            raise DomainError("r_max must be a positive and finite real number")
        if not hasattr(type(self.grid_points), "__index__"):   # operator.index's test
            raise DomainError("grid_points must be an integer")
        if not 2000 <= self.grid_points <= 2_000_000:
            raise DomainError("grid_points must be between 2000 and 2000000")


@lru_cache(maxsize=16)
def gauss_laguerre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i, the zeros of L_N (dsterf on the Laguerre Jacobi matrix), and weights
    w_i > 0 of the N-point Gauss-Laguerre rule sum_i w_i g(x_i) ~ int_0^inf g(x) dx, exact
    for g e^x a polynomial of degree < 2N, with w_i = x_i/((N+1) e^(-x_i/2) L_(N+1)(x_i))^2:
    e^x_i times the Jacobi weight fails above N ~ 80.  Both read-only."""
    i = np.arange(points, dtype=float)
    x, info = _lapack().dsterf(2.0 * i + 1.0, i[1:])
    if info != 0:
        raise NumericalFailure(f"LAPACK dsterf failed on the Laguerre nodes (info = {info})")
    w = x / ((points + 1) * laguerre(points + 1, 0.0, x, -0.5 * x)) ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=16)
def _mesh(points: int):
    """The kinetic matrix T of -d^2/dx^2 on the N-point mesh (read-only), T_ii =
    (4 + 2(2N+1) x_i - x_i^2)/(12 x_i^2), T_ij = (-1)^(i-j) (x_i + x_j)/(sqrt(x_i x_j)
    (x_i - x_j)^2), and max |T_ij|."""
    x = gauss_laguerre(points)[0]
    t = np.subtract.outer(x, x)
    np.fill_diagonal(t, 1.0)
    t *= t
    t *= np.sqrt(np.multiply.outer(x, x))
    np.divide(np.add.outer(x, x), t, out=t)
    t[1::2, ::2] *= -1.0
    t[::2, 1::2] *= -1.0
    np.fill_diagonal(t, (4.0 + (4 * points + 2 - x) * x) / (12.0 * x * x))
    t.flags.writeable = False
    return t, float(np.max(np.abs(t)))


def _rung(points: float) -> int:
    """The first size round(40 * 1.25^k) of the ladder at or above ``points`` <= 2220."""
    return next(size for size in _LADDER if size >= points)


def _mesh_level(v: PotentialModel, q: QuantumNumbers, r_start: float, r_end: float,
                points: float, vector: bool = False):
    """Eigenvalue q.n (2m E, the scale of W) of T/h^2 + 2m V(r_i) + l(l+1)/r_i^2 on the
    mesh of the ladder's first size at or above ``points`` (at most _MESH_CAP, checked
    first), nodes r_i = r_start + h x_i ending at r_end, and with ``vector`` also the
    nodes, h and eigenvector q.n, zero where rounding is all it holds.  dsyevd solves the
    whole matrix from its lower triangle: an eigenvalue picked by index reaches only
    eps ||H||, and the upper triangle's vectors put the level up to 1e-11 off.  Entries
    whose squares overflow (near 1e154: a domain far too short or long) are refused, and
    so is a non-finite V."""
    if not points <= _MESH_CAP:   # inf too: an overflowing estimate
        raise NumericalFailure(f"level n = {q.n}, l = {q.l} needs a Lagrange mesh of {points:.6g} "
                               f"points on [{r_start:.6g}, {r_end:.6g}], above the cap of "
                               f"{_MESH_CAP}")
    points = min(_rung(points), _MESH_CAP)
    x, (t, peak) = gauss_laguerre(points)[0], _mesh(points)
    h = (r_end - r_start) / float(x[-1])
    r, peak = r_start + h * x, peak / h / h   # Python floats: inf, not a warning, past the range
    if peak < math.sqrt(sys.float_info.max):   # then r * r > 0
        diag = v.kinetic_2m * v.v(r) + (q.big_l / r / r if q.l > 0 else 0.0)
        finite = np.isfinite(diag)
        if not finite.all():
            raise NumericalFailure(f"2m V + l(l+1)/r^2 is non-finite at r = "
                                   f"{r[np.argmin(finite)]:.6g}")
        peak += float(np.max(np.abs(diag)))
    if not peak < math.sqrt(sys.float_info.max):
        raise NumericalFailure(f"the Lagrange mesh on [{r_start:.3g}, {r_end:.3g}] (grid step "
                               f"h = {h:.3g}) has entries up to {peak:.3g}, whose squares overflow")
    ham = np.multiply(t, 1.0 / h / h)
    ham.flat[::points + 1] += diag
    w, z, info = _lapack().dsyevd(ham, compute_v=int(vector), lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalFailure(f"LAPACK dsyevd failed on the mesh (info = {info})")
    if not vector:
        return float(w[q.n])
    # components below the vector's rounding error, 4 eps max|H| over the level's gap
    # to the others, or below 1e-9 of its largest, the last nodes' e^-36 tail, are
    # zeroed: noise flips their signs, and the state's signs are its nodes
    vec, gap = z[:, q.n], float(np.min(np.abs(np.delete(w, q.n) - w[q.n])))
    noise = 4.0 * sys.float_info.epsilon * peak / gap
    vec[np.abs(vec) <= max(1e-9 * np.max(np.abs(vec)), noise)] = 0.0
    return float(w[q.n]), r, h, vec


def _domain(v: PotentialModel, q: QuantumNumbers, level: float, r_end: float):
    """[r_a, r_b] of the state at 2m E = ``level`` and the phase bound of its mesh, on
    4000 rows over (0, r_end]: from where the WKB decay action inward of the inner
    turning point reaches _MESH_ACTION (0 unless l is large) to where it does outward of
    the outer one (r_end when it does not, None when r_end is classically allowed), and
    max p^2 (r - r_a)(r_b - r) over the allowed rows, p the local wavenumber, as the mesh
    on [r_a, r_b] has about (2N/(pi (r_b - r_a))) sqrt((r_b - r_a)/(r - r_a) - 1) nodes
    per unit length (deep wells); None when no row is classically allowed."""
    r = np.linspace(0.0, r_end, 4000)[1:]
    with np.errstate(over="ignore", invalid="ignore"):   # an inf is a row far from the state
        w = v.kinetic_2m * v.v(r) - level
        if q.l > 0:
            w += q.big_l / r / r
        allowed = np.flatnonzero(w < 0.0)
        if allowed.size == 0:
            return None
        first, last = int(allowed[0]), int(allowed[-1])
        walked = [np.cumsum(np.sqrt(np.maximum(side, 0.0))) * float(r[0])
                  for side in (w[first::-1], w[last:])]   # the action over each row, inward and out
        ends = [int(np.searchsorted(s, _MESH_ACTION)) for s in walked]
        r_a = float(r[first - ends[0]]) if ends[0] < walked[0].shape[0] else 0.0
        r_b = float(r[last + ends[1]]) if ends[1] < walked[1].shape[0] else r_end
        live = r[first:last + 1]
        phase = float(np.max(-w[first:last + 1] * (live - r_a) * (r_b - live)))
    return r_a, (None if last == r.shape[0] - 1 else r_b), phase


def _fit_domain(v: PotentialModel, q: QuantumNumbers, r_max: Optional[float]):
    """[r_a, r_b] and phase bound (_domain) of level q.n at the energy of a first mesh of
    2n + 40 nodes on [0, r_max], or on the family's default domain.  A first mesh coarser
    than the phase bound at its energy (at the continuum threshold, if above it) is solved
    again that fine; the domain doubles, with sqrt(2) times the nodes (as many near the
    origin), while the decay action does not fit it or the level is not below the
    threshold.  NoBoundState once that fails _DOUBLINGS times, the next mesh would pass
    _MESH_CAP or nothing is classically allowed at the threshold, or at once for a given
    r_max, whose end may also be capped."""
    r_end, points, c = r_max or v.default_r_max(q), 2 * q.n + 40, v.kinetic_2m
    bound, doublings = v.continuum_threshold, 0
    while True:
        level = _mesh_level(v, q, 0.0, r_end, points)
        below = bound is None or level < c * bound
        fit = _domain(v, q, level if below else c * bound, r_end)
        if fit is None and below:
            raise NumericalFailure(f"no classically allowed row on [0, {r_end:.6g}] at the "
                                   f"energy {level / c:.6g}")
        if fit is None:
            break
        r_a, r_b, phase = fit
        if math.sqrt(phase) > min(_rung(points), _MESH_CAP):   # a first mesh too coarse
            points = math.sqrt(phase)
            continue
        if below and r_max is not None and r_b is None:
            raise NumericalFailure(
                f"r_max = {r_end:.6g} ends inside the classically allowed region: the outer "
                f"turning point at the energy {level / c:.6g} lies beyond it")
        if below and (r_max is not None or (r_b is not None and r_b < r_end)):
            return r_a, r_b, phase
        if r_max is not None or doublings == _DOUBLINGS or math.sqrt(2.0) * points > _MESH_CAP:
            break
        r_end, points, doublings = 2.0 * r_end, math.sqrt(2.0) * points, doublings + 1
    raise NoBoundState("not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")


def solve_radial(v: PotentialModel, q: QuantumNumbers,
                 cfg: SolverConfig = SolverConfig()) -> RadialFunction:
    """Level q.n of partial wave q.l: its eigenvalue on the Lagrange mesh over the domain
    that _fit_domain fits, climbed up the ladder until two rungs agree, below the continuum
    threshold if the model has one (else NoBoundState).  A domain that cfg.r_max caps is
    refused (NumericalFailure) at the first rung whose state has a mass above 1e-8 past
    r_max, u_end^2 over twice its WKB decay rate there: the mesh has no tail to carry it.
    cfg.grid_points is ignored."""
    c, bound = v.kinetic_2m, v.continuum_threshold
    r_a, r_b, phase = _fit_domain(v, q, cfg.r_max)
    start = max(2 * q.n + 40, math.sqrt(phase))
    coarse, size = _mesh_level(v, q, r_a, r_b, start), min(_rung(start), _MESH_CAP)
    w_end = c * float(v.v(r_b)) + q.big_l / r_b ** 2
    while True:
        size = _rung(size + 1)
        level, r, h, vec = _mesh_level(v, q, r_a, r_b, size, vector=True)
        wts = h * gauss_laguerre(size)[1]
        u = vec / np.sqrt(wts)
        mass = float(u[-1]) ** 2 * (0.5 / math.sqrt(max(w_end - level, 1e-12)))
        if r_b == cfg.r_max and mass > 1e-8:
            raise NumericalFailure(f"tail mass {mass:.2e} beyond r_max = {r_b:.6g}: state "
                                   "under-resolved")
        if abs(level - coarse) <= _MESH_TOL * max(c, abs(level)):
            break
        coarse = level
    if bound is not None and not level < c * bound:
        raise NoBoundState("not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")
    u *= math.copysign(1.0, u[np.argmax(u != 0.0)])   # u > 0 before its first node
    return RadialFunction(grid=r, values=u, weights=wts, energy=level / c, q=q)


def numeric_observables(f: RadialFunction, v: PotentialModel) -> ObservableSet:
    """Moments, virial <p^2>/<p^4> and |psi(0)|^2 of a state by its own rule: eight
    integrals (nine with <V'> for l = 0), one product with the density wts u^2.
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
    moments = (rows @ density).tolist()
    r_mom = dict(zip((-2, -1, 1, 2, 3, 4), moments[:6]))
    psi0 = v.mass * moments[8] / (2.0 * math.pi) if f.q.l == 0 else None
    if psi0 is not None and at0:   # every integrand vanishes at 0 but u^2/r^2 -> 4 pi psi0
        r_mom[-2] += float(wts[0]) * 4.0 * math.pi * psi0
    p2, p4 = p2_p4_from_potential(f.energy, moments[6], moments[7], v.mass)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0,
                         mean_h=f.energy)
