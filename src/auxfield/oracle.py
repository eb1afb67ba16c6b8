"""Independent numeric radial eigensolver: the x-regularized Lagrange-Laguerre mesh.

Solves -u'' + [2m (V(r) - E) + l(l+1)/r^2] u = 0 on the mesh of N nodes r_i = r_a + h x_i,
x_i the zeros of L_N, whose Hamiltonian T/h^2 + 2m V(r_i) + l(l+1)/r_i^2 (Baye, Phys. Rep.
565 (2015) 1) has level n as its eigenvalue n; N is a rung of the ladder round(40 * 1.25^k),
so that the cached meshes and Gauss weights serve many states.  The domain comes from V
alone: [r_a, r_b] where the WKB decay action beyond the turning points reaches _MESH_ACTION
= 36 (e^-36: rounding) at level n of the Langer-WKB rule (1/pi) int sqrt(max(0, 2m (E - V)
- (l + 1/2)^2/r^2)) dr = n + 1/2 (Langer, Phys. Rev. 51 (1937) 669), fitted once more at
the first rung's level.  N climbs from the phase bound until two rungs agree within
_MESH_TOL relative to max(1, |E|), and the finer rung's eigenvector c_i is the state:
u(r_i) = c_i / sqrt(h lambda_i) at the nodes, integrated by the Gauss weights h lambda_i,
and the Lagrange functions between them.  Its moments, the reference side of each table
comparison, are one product with the density h lambda_i u_i^2; |psi(0)|^2 of an S-state is
the force identity m <V'>/(2 pi).  dsterf and dsyevr, one call per mesh, come from scipy's
f2py extension, which _lapack loads without the scipy.linalg package.
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

__all__ = ["RadialFunction", "SolverConfig", "solve_radial", "solve_wave", "numeric_observables",
           "gauss_laguerre"]

_MESH_ACTION = 36.0    # WKB decay action where the domain ends, both sides: e^-36, rounding
_MESH_CAP = 2000       # largest mesh; its dsyevr takes about 0.5 s on 2 BLAS threads
_MESH_TOL = 1e-10      # two rungs of the ladder agree within this, relative to max(1, |E|)
_LADDER = tuple(round(40 * 1.25 ** k) for k in range(19))   # mesh sizes 40, 50, 62, .. 2220
_BLAS_SERIAL = 373     # dsyevr below this size on one OpenBLAS thread; two win from 373 nodes
#   (3 levels, 2-vCPU Xeon, 1 against 2 threads: 1.9/1.9 ms at 298, 3.2/3.0 at 373, 5.2/4.8 at 466)


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


@lru_cache(maxsize=1)
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that _lapack's extension links (its idle
    worker spins on a vCPU, and sharing the main thread's stalls small dsyevr calls 30-45x), or
    of a pool of one that ignores setting where it exports neither API."""
    import ctypes   # kept out of `import auxfield`
    lib = ctypes.CDLL(_lapack().__file__)   # dlsym searches the libraries it links
    for api in ("scipy_openblas_", "openblas_"):
        if hasattr(lib, api + "get_num_threads") and hasattr(lib, api + "set_num_threads"):
            getattr(lib, api + "set_num_threads").argtypes = (ctypes.c_int,)
            return getattr(lib, api + "get_num_threads"), getattr(lib, api + "set_num_threads")
    return (lambda: 1), (lambda count: None)


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
    r_max: Optional[float] = None     # None: the domain ends where the WKB decay action does
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
    """The first size round(40 * 1.25^k) of the ladder at or above ``points`` <= 2220, less
    its rounding."""
    return next(size for size in _LADDER if size >= points * (1.0 - 1e-12))


def _mesh_level(v: PotentialModel, q: QuantumNumbers, r_start: float, r_end: float,
                points: float, lo: int):
    """Eigenvalues lo .. q.n (2m E) of T/h^2 + 2m V(r_i) + l(l+1)/r_i^2 on the ladder's first
    size at or above ``points`` (at most _MESH_CAP, checked first), nodes r_i = r_start + h x_i
    ending at r_end, with the nodes, h and eigenvectors (rows), zero where rounding is all
    they hold.  dsyevr finds levels lo - 1 .. n + 1 from the lower triangle, on one OpenBLAS
    thread below _BLAS_SERIAL nodes, bisecting to twice the smallest normal double (its
    default abstol, eps ||H||_1, left Airy levels 1.6e-11 off).  Entries whose squares
    overflow (near 1e154: a domain far too short or long) are refused, as is a non-finite V."""
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
    below = min(lo, 1)   # level lo - 1, when there is one, comes first
    get, put = _blas_threads()
    pool = get()
    put(1 if points < _BLAS_SERIAL else pool)
    try:
        w, z, _, _, info = _lapack().dsyevr(ham, range="I", il=lo - below + 1, iu=q.n + 2,
                                            abstol=2 * sys.float_info.min, lower=1, overwrite_a=1)
    finally:
        put(pool)
    if info != 0:
        raise NumericalFailure(f"LAPACK dsyevr failed on the mesh (info = {info})")
    # components below a vector's rounding error, 4 eps max|H| over its level's gap to
    # the neighbours, or below 1e-9 of its largest, the last nodes' e^-36 tail, are
    # zeroed: noise flips their signs, and a state's signs are its nodes
    levels, gaps = slice(below, below + q.n + 1 - lo), np.diff(w, prepend=-np.inf, append=np.inf)
    vec, gap = z[:, levels].T, np.fmin(gaps[:-1], gaps[1:])[levels]
    noise = np.fmax(1e-9 * np.max(np.abs(vec), axis=1), 4.0 * sys.float_info.epsilon * peak / gap)
    vec[np.abs(vec) <= noise[:, None]] = 0.0
    return w[levels], r, h, vec


def _unbound(v: PotentialModel, q: QuantumNumbers) -> NoBoundState:
    return NoBoundState("not-supported", f"{v} has no bound state with n={q.n}, l={q.l}")


def _domain(v: PotentialModel, q: QuantumNumbers, level: float, rows: np.ndarray,
            r_max: Optional[float], cap: float = math.inf):
    """(r_a, r_b, phase, r_turn) at 2m E = ``level``, None if no row or the last is
    allowed: the turning points of W = 2m V + l(l+1)/r^2 (chords), where the decay action
    beyond them reaches _MESH_ACTION (trapezoids; r_a = 0 where it never does; r_max and a
    phase bound of ``cap`` cap r_b), and the phase bound max p^2 (r - r_a)(r_b - r) on the
    allowed rows, p the local wavenumber, as the mesh on [r_a, r_b] has about (2N/(pi
    (r_b - r_a))) sqrt((r_b - r_a)/(r - r_a) - 1) nodes per unit length."""
    gap = v.kinetic_2m * v.v(rows) + q.big_l / rows / rows - level
    allowed = np.flatnonzero(gap < 0.0)
    if not allowed.size or allowed[-1] == rows.shape[0] - 1:
        return None

    def walk(k, step):   # the turning point before row k, and the action's end past it
        r, s = rows[k::step], np.sqrt(gap[k::step])
        edge = r[0] - (r[0] - rows[k - step]) * gap[k] / (gap[k] - gap[k - step])
        walked = np.cumsum(0.5 * (s[1:] + s[:-1]) * np.abs(np.diff(r)))
        walked += 0.5 * s[0] * abs(r[0] - edge)
        return edge, np.interp(_MESH_ACTION, walked, r[1:]) if walked[-1] > _MESH_ACTION else 0.0

    i, j = allowed[0], allowed[-1] + 1
    (r_turn, r_b), (_, r_a) = walk(j, 1), walk(i - 1, -1) if i else (0.0, 0.0)
    live, p2 = rows[i:j], -gap[i:j]
    r_b = min(r_b or math.inf, r_max or math.inf, float(np.min(live + cap / p2 / (live - r_a))))
    phase = np.max(p2 * (live - r_a) * (r_b - live)) if r_b < math.inf else r_b
    return r_a, r_b, max(float(phase), 0.0), r_turn


def _fit_domain(v: PotentialModel, q: QuantumNumbers, r_max: Optional[float]):
    """(r_a, r_b, phase, rows, top) of the first rung, top = 2m times the continuum
    threshold: _domain at the Langer-WKB level, bisected to 1e-2 of its height above or
    depth below top, on rows r0 e^-2^t (t = 6, 5.875, .. -30) and r0 + r0 2^t (t = -30,
    .. 29.875) around the bottom r0 of W_L = 2m V + (l + 1/2)^2/r^2, exact on its chords.
    Where the rule puts level n at or above top, top stands in on the domain whose phase
    bound is (n + 20)^2, half the first rung's nodes: the phase bound misses most of a
    well that holds part of a half-wave.  NoBoundState, before any mesh, when no row is
    allowed at top or n exceeds the count there, less 1/2, by more than 1.  [0, r_max]
    stands in for a domain whose outer turning point lies at or past r_max."""
    c, lg, target = v.kinetic_2m, (q.l + 0.5) ** 2, q.n + 0.5
    top = math.inf if v.continuum_threshold is None else c * v.continuum_threshold
    with np.errstate(all="ignore"):   # rows far from the well overflow harmlessly
        grid = 2.0 ** np.arange(-400.0, 400.0)
        for _ in range(2):   # W_L' r^3 = 2m V' r^3 - 2 (l + 1/2)^2 turns positive at r0
            if not (up := int(np.argmax(c * v.v_prime(grid) * grid * grid * grid > 2.0 * lg))):
                raise _unbound(v, q)
            grid = grid[up - 1] * (grid[up] / grid[up - 1]) ** (np.arange(257) / 256.0)
        t, r0 = 2.0 ** np.arange(-30.0, 30.0, 0.125), grid[-1]
        rows = np.concatenate((r0 * np.exp(-t[t < 64.0][::-1]), r0 + r0 * t))
        wl = c * v.v(rows) + lg / rows / rows
        slope, floor = np.diff(rows) / np.diff(wl), float(np.min(wl))
        rims = np.fmin(np.fmax.accumulate(wl[rows > r0]), top)   # the well's rim past each row
        if not floor < top:
            raise _unbound(v, q)

        def count(level):   # sqrt(2m E - W_L) integrated exactly on each chord, less n + 1/2
            g = np.fmax(level - wl, 0.0)
            return float(np.nansum(np.diff(g * np.sqrt(g)) * slope)) / (-1.5 * math.pi) - target

        if rims[-1] == top and q.n > count(top) + target + 0.5:
            raise _unbound(v, q)
        lo, hi = -1, rims.shape[0]   # hi: the first rim whose count reaches n + 1/2, if one does
        while hi - lo > 1:
            lo, hi = (mid, hi) if count(rims[mid := (lo + hi) // 2]) < 0.0 else (lo, mid)
        near, level = hi == rims.shape[0], rims[min(hi, rims.shape[0] - 1)]
        lo = rims[lo] if lo >= 0 else floor
        while (not near and level - lo > 1e-2 * min(level - floor, top - lo)
               and lo < (mid := 0.5 * (lo + level)) < level):
            lo, level = (mid, level) if count(mid) < 0.0 else (lo, mid)
        fit = _domain(v, q, level, rows, r_max, (q.n + 20.0) ** 2 if near else math.inf)
    if not fit or near and level < top:
        raise NumericalFailure(f"the well of level n = {q.n}, l = {q.l} is below the "
                               "rounding of 2m V")
    return (0.0 if r_max and fit[3] >= r_max else fit[0]), fit[1], fit[2], rows, top


def solve_wave(v: PotentialModel, q: QuantumNumbers, lo: int,
               cfg: SolverConfig = SolverConfig()) -> tuple[RadialFunction, ...]:
    """Levels lo .. q.n of partial wave q.l on one ladder of the Lagrange mesh (see the module
    docstring), fitted at level q.n, until every level meets _MESH_TOL.  The first rung's
    level q.n fits the domain once more, and joins the ladder where that domain's starts at
    its size.  A first rung at or above the continuum threshold widens its domain at the
    threshold instead, at its own node density near r_a, for a ladder from _LADDER[-3]
    nodes: NoBoundState where that ladder ends with level q.n at or above the threshold.
    cfg.r_max caps the domain: a turning point past it at the first rung's level is
    refused, as is a mass above 1e-8 past it, u_end^2 over twice the WKB decay rate there,
    at a later rung.  cfg.grid_points is ignored."""
    if not (hasattr(type(lo), "__index__") and 0 <= lo <= q.n):
        raise DomainError(f"the lowest level must be an integer from 0 to n = {q.n}")
    c, r_max = v.kinetic_2m, cfg.r_max
    r_a, r_b, phase, rows, top = _fit_domain(v, q, r_max)
    size = max(2 * q.n + 40, math.sqrt(phase))
    size = _LADDER[-1] if _LADDER[-3] < size <= _MESH_CAP else size   # its next rung passes the cap
    level, first, span = _mesh_level(v, q, r_a, r_b, size, lo)[0], _rung(size), r_b - r_a
    wide = span * (_LADDER[-3] / first) ** 2 if level[-1] >= top else math.inf
    with np.errstate(all="ignore"):
        fit = _domain(v, q, min(level[-1], top), rows, min(r_max or math.inf, r_a + wide))
    if not fit or fit[3] > (r_max or math.inf):
        raise NumericalFailure(f"r_max = {r_max or math.inf:.6g} ends inside the classically "
                               f"allowed region: the outer turning point at the energy "
                               f"{level[-1] / c:.6g} lies beyond it")
    r_a, r_b, phase, _ = fit
    w_end = c * float(v.v(r_b)) + q.big_l / r_b ** 2
    size = max(2 * q.n + 40, math.sqrt(phase), _LADDER[-3] if wide < math.inf else 0.0)
    coarse = level if level[-1] < top and _rung(min(size, _MESH_CAP)) <= first else None
    size = size if coarse is None else _rung(first + 1)
    while True:
        level, r, h, vec = _mesh_level(v, q, r_a, r_b, size, lo)
        wts = h * gauss_laguerre(r.shape[0])[1]
        u = vec / np.sqrt(wts)
        mass = float(np.max(u[:, -1] ** 2 * (0.5 / np.sqrt(np.fmax(w_end - level, 1e-12)))))
        if r_b == r_max and mass > 1e-8:
            raise NumericalFailure(f"tail mass {mass:.2e} beyond r_max = {r_b:.6g}: state "
                                   "under-resolved")
        # rungs above the threshold whose first rung lay below it missed the well: they
        # climb on; above it on the widened domain, the cap's finest rung ends the ladder
        if (coarse is not None and (level[-1] < top or wide < math.inf)
                and np.all(np.abs(level - coarse) <= _MESH_TOL * np.fmax(c, np.abs(level)))):
            break
        coarse, size = level, _rung(r.shape[0] + 1)
        if size > _MESH_CAP and not level[-1] < top and wide < math.inf:
            break
    if not level[-1] < top:
        raise _unbound(v, q)
    # each state u > 0 before its first node
    u *= np.copysign(1.0, u[np.arange(u.shape[0]), np.argmax(u != 0.0, axis=1)])[:, None]
    return tuple(RadialFunction(grid=r, values=row, weights=wts, energy=e / c,
                                q=QuantumNumbers(n, q.l))
                 for n, row, e in zip(range(lo, q.n + 1), u, level.tolist()))


def solve_radial(v: PotentialModel, q: QuantumNumbers,
                 cfg: SolverConfig = SolverConfig()) -> RadialFunction:
    """Level q.n of partial wave q.l: ``solve_wave`` from q.n, each rung solving n - 1 .. n + 1."""
    return solve_wave(v, q, q.n, cfg)[0]


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
