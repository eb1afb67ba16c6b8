"""Self-contained special-function kernel.

Provides the Airy function Ai and its zeros, both real branches of the
Lambert W function, generalized Laguerre polynomials and the inversion
of z = W(x) * x**alpha.  Everything
is double precision and free of external special-function libraries;
only numpy is used for vectorization.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoSolution, NumericalFailure

__all__ = [
    "WBranch",
    "AiryValue",
    "airy_ai",
    "airy_zero",
    "airy_zero_estimate",
    "lambert_w",
    "solve_w_power",
    "laguerre",
]

_NEG_INV_E = -math.exp(-1.0)

# Ai(0) and -Ai'(0)
_C1 = 0.35502805388781723926006318600418317640
_C2 = 0.25881940379280679840518356018920396348


class WBranch(Enum):
    """Real branches of the Lambert W function."""

    PRINCIPAL = 0   # W_0, defined for x >= -1/e, values >= -1
    LOWER = -1      # W_-1, defined for -1/e <= x < 0, values <= -1


class AiryValue(NamedTuple):
    value: float
    derivative: float


# ----------------------------------------------------------------------
# Airy function
#
# Evaluation regions:
#   [-6, 3]            Maclaurin series (cancellation stays below ~1e-13)
#   (3, 8), (-8, -6)   single Taylor step of the ODE y'' = x*y from a
#                      cached checkpoint table (spacing 0.25)
#   x >= 8, x <= -8    asymptotic expansions (optimal truncation is below
#                      double rounding there)
# The checkpoint table is seeded at x = 8 by the asymptotic branch and
# marched inward, which is the stable direction for Ai.
# ----------------------------------------------------------------------

_SERIES_LO = -6.0
_SERIES_HI = 3.0
_ASYM = 8.0
_STEP = 0.25


def _airy_series(x):
    """Maclaurin evaluation of (Ai, Ai'); x is an ndarray."""
    f = np.ones_like(x)
    g = x.copy()
    fp = np.zeros_like(x)
    gp = np.ones_like(x)
    ta = np.ones_like(x)          # terms of f
    tg = x.copy()                 # terms of g
    tb = 0.5 * x * x              # terms of f'
    tgp = np.ones_like(x)         # terms of g'
    fp = fp + tb
    x3 = x * x * x
    for k in range(45):
        ta = ta * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        tgp = tgp * x3 / ((3 * k + 1) * (3 * k + 3))
        f = f + ta
        g = g + tg
        gp = gp + tgp
        if k >= 1:
            tb = tb * x3 / ((3 * k) * (3 * k + 2))
            fp = fp + tb
    # f' series starts at k=1 with x^2/2; the loop above advances it from there
    return _C1 * f - _C2 * g, _C1 * fp - _C2 * gp


def _u_v_coefficients(nmax=40):
    u = np.empty(nmax + 1)
    v = np.empty(nmax + 1)
    u[0] = v[0] = 1.0
    for k in range(nmax):
        u[k + 1] = u[k] * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1))
    return u, v


_UK, _VK = _u_v_coefficients()


def _airy_asym_pos(x):
    """Asymptotic (Ai, Ai') for x >= 8, truncated at the smallest term."""
    zeta = (2.0 / 3.0) * x ** 1.5
    s = np.zeros_like(x)
    sp = np.zeros_like(x)
    stop = np.zeros(x.shape, dtype=bool)
    prev = np.full_like(x, np.inf)
    for k in range(_UK.size):
        term = _UK[k] / zeta ** k
        stop |= term > prev
        sgn = -1.0 if k % 2 else 1.0
        s = np.where(stop, s, s + sgn * term)
        sp = np.where(stop, sp, sp + sgn * _VK[k] / zeta ** k)
        prev = term
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pref * s / x ** 0.25, -pref * sp * x ** 0.25


def _airy_asym_neg(x):
    """Asymptotic (Ai, Ai') for x <= -8 (oscillatory phase form)."""
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    pc = np.zeros_like(z)   # cos sum for Ai
    ps = np.zeros_like(z)   # sin sum for Ai
    rc = np.zeros_like(z)   # sin sum for Ai'
    rs = np.zeros_like(z)   # cos sum for Ai'
    stop = np.zeros(z.shape, dtype=bool)
    prev = np.full_like(z, np.inf)
    for k in range(_UK.size // 2):
        t_even = _UK[2 * k] / zeta ** (2 * k)
        stop |= t_even > prev
        sgn = -1.0 if k % 2 else 1.0
        pc = np.where(stop, pc, pc + sgn * t_even)
        ps = np.where(stop, ps, ps + sgn * _UK[2 * k + 1] / zeta ** (2 * k + 1))
        rc = np.where(stop, rc, rc + sgn * _VK[2 * k] / zeta ** (2 * k))
        rs = np.where(stop, rs, rs + sgn * _VK[2 * k + 1] / zeta ** (2 * k + 1))
        prev = t_even
    arg = zeta - 0.25 * math.pi
    root_pi = math.sqrt(math.pi)
    ai = (np.cos(arg) * pc + np.sin(arg) * ps) / (root_pi * z ** 0.25)
    aip = (np.sin(arg) * rc - np.cos(arg) * rs) * z ** 0.25 / root_pi
    return ai, aip


def _taylor_ode(x0, y, yp, h, terms=20):
    """Advance y'' = x*y by h from x0; vectorized over points."""
    c_km1 = np.zeros_like(y)
    c_k = y
    c_kp1 = yp
    val = y + yp * h
    der = yp.copy()
    hpow = h.copy() if isinstance(h, np.ndarray) else np.full_like(y, h)
    hk = hpow.copy()
    for k in range(terms):
        c_kp2 = (x0 * c_k + c_km1) / ((k + 1) * (k + 2))
        hk = hk * hpow
        val = val + c_kp2 * hk
        der = der + c_kp2 * (k + 2) * hk / np.where(hpow == 0.0, 1.0, hpow)
        c_km1, c_k, c_kp1 = c_k, c_kp1, c_kp2
    return val, der


_BRIDGE_TABLE = None


def _bridge_table():
    """Checkpoint values of (Ai, Ai') on [3, 8] and [-8, -6], spacing 0.25."""
    global _BRIDGE_TABLE
    if _BRIDGE_TABLE is not None:
        return _BRIDGE_TABLE
    pos_x = np.arange(3.0, 8.0 + 1e-9, _STEP)
    neg_x = np.arange(-8.0, -6.0 + 1e-9, _STEP)

    pos_ai = np.empty_like(pos_x)
    pos_aip = np.empty_like(pos_x)
    ai, aip = _airy_asym_pos(np.array([8.0]))
    y, yp = float(ai[0]), float(aip[0])
    pos_ai[-1], pos_aip[-1] = y, yp
    for i in range(pos_x.size - 2, -1, -1):
        v, d = _taylor_ode(np.array([pos_x[i] + _STEP]), np.array([y]),
                           np.array([yp]), np.array([-_STEP]), terms=26)
        y, yp = float(v[0]), float(d[0])
        pos_ai[i], pos_aip[i] = y, yp

    neg_ai = np.empty_like(neg_x)
    neg_aip = np.empty_like(neg_x)
    ai, aip = _airy_series(np.array([-6.0]))
    y, yp = float(ai[0]), float(aip[0])
    neg_ai[-1], neg_aip[-1] = y, yp
    for i in range(neg_x.size - 2, -1, -1):
        v, d = _taylor_ode(np.array([neg_x[i] + _STEP]), np.array([y]),
                           np.array([yp]), np.array([-_STEP]), terms=26)
        y, yp = float(v[0]), float(d[0])
        neg_ai[i], neg_aip[i] = y, yp

    _BRIDGE_TABLE = (pos_x, pos_ai, pos_aip, neg_x, neg_ai, neg_aip)
    return _BRIDGE_TABLE


def _airy_bridge(x):
    """Single Taylor step from the nearest checkpoint; x in the gap regions."""
    pos_x, pos_ai, pos_aip, neg_x, neg_ai, neg_aip = _bridge_table()
    val = np.empty_like(x)
    der = np.empty_like(x)
    pos = x > 0
    if np.any(pos):
        idx = np.clip(np.rint((x[pos] - pos_x[0]) / _STEP).astype(int),
                      0, pos_x.size - 1)
        x0 = pos_x[idx]
        v, d = _taylor_ode(x0, pos_ai[idx].copy(), pos_aip[idx].copy(),
                           x[pos] - x0)
        val[pos], der[pos] = v, d
    if np.any(~pos):
        idx = np.clip(np.rint((x[~pos] - neg_x[0]) / _STEP).astype(int),
                      0, neg_x.size - 1)
        x0 = neg_x[idx]
        v, d = _taylor_ode(x0, neg_ai[idx].copy(), neg_aip[idx].copy(),
                           x[~pos] - x0)
        val[~pos], der[~pos] = v, d
    return val, der


def airy_ai(x):
    """Airy function Ai and derivative Ai'.

    Accepts a float or ndarray; returns an ``AiryValue`` pair (arrays in,
    arrays out).  Against mpmath at 40 digits on [-40, 40] the error is
    below 2e-13 relative to the oscillation envelope on the negative axis,
    and on the positive axis below 2e-13 relative to Ai and 4e-13
    relative to Ai'.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("airy_ai requires finite arguments")
    val = np.empty_like(xa)
    der = np.empty_like(xa)

    core = (xa >= _SERIES_LO) & (xa <= _SERIES_HI)
    hi = xa >= _ASYM
    lo = xa <= -_ASYM
    gap = ~(core | hi | lo)
    if np.any(core):
        val[core], der[core] = _airy_series(xa[core])
    if np.any(hi):
        val[hi], der[hi] = _airy_asym_pos(xa[hi])
    if np.any(lo):
        val[lo], der[lo] = _airy_asym_neg(xa[lo])
    if np.any(gap):
        val[gap], der[gap] = _airy_bridge(xa[gap])
    if scalar:
        return AiryValue(float(val[0]), float(der[0]))
    return AiryValue(val, der)


def airy_zero_estimate(n: int) -> float:
    """Three-term asymptotic estimate of the (n+1)-th negative zero of Ai."""
    if n < 0:
        raise DomainError("zero index must be >= 0")
    beta = (1.5 * math.pi * (n + 0.75)) ** (2.0 / 3.0)
    return -beta * (1.0 + 5.0 / 48.0 * beta ** -3 - 5.0 / 36.0 * beta ** -6)


def airy_zero(n: int) -> float:
    """(n+1)-th zero of Ai (a negative number), Newton-refined."""
    x = airy_zero_estimate(n)
    for _ in range(40):
        v, d = airy_ai(x)
        step = v / d
        x -= step
        if abs(step) <= 1e-15 * abs(x):
            return x
    raise NumericalFailure(f"airy zero {n} did not converge")


# ----------------------------------------------------------------------
# Lambert W
# ----------------------------------------------------------------------

def _halley_w(w: float, x: float) -> float:
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-15 * max(abs(x), 1e-290):
            return w
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w_next = w - f / denom
        if w_next == w:
            return w
        w = w_next
    if abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)):
        return w
    raise NumericalFailure(f"Lambert W iteration stalled at x={x}")


def lambert_w(branch: WBranch, x: float) -> float:
    """Real Lambert W on the requested branch, solving w*exp(w) = x."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("lambert_w requires a finite argument")
    # tolerate arguments a few ulp below the branch point
    if x < _NEG_INV_E:
        if x > _NEG_INV_E - 4e-16:
            x = _NEG_INV_E
        else:
            raise DomainError(f"x={x} below the branch point -1/e")
    if abs(x - _NEG_INV_E) <= 5e-17:
        return -1.0

    p2 = 2.0 * (math.e * x + 1.0)
    p = math.sqrt(max(p2, 0.0))
    if branch is WBranch.PRINCIPAL:
        if x < -0.28:
            w0 = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
        elif x < math.e:
            w0 = math.log1p(x) if x > -0.5 else x
        else:
            lx = math.log(x)
            w0 = lx - math.log(lx)
        return _halley_w(w0, x)
    if branch is WBranch.LOWER:
        if x >= 0.0:
            raise DomainError("lower branch requires -1/e <= x < 0")
        if x < -0.27:
            w0 = -1.0 - p - p * p / 3.0
        else:
            l1 = math.log(-x)
            w0 = l1 - math.log(-l1)
        return _halley_w(w0, x)
    raise DomainError(f"unknown branch {branch!r}")


def _signed_root(z: float, alpha_plus_1: float) -> float:
    """Real z**(1/alpha_plus_1), allowing negative z for odd integer roots."""
    if z >= 0.0:
        return z ** (1.0 / alpha_plus_1)
    k = round(alpha_plus_1)
    if abs(alpha_plus_1 - k) < 1e-12 and k % 2 != 0:
        return -((-z) ** (1.0 / alpha_plus_1))
    raise NoSolution(
        f"z**(1/(alpha+1)) undefined for z={z} with alpha+1={alpha_plus_1}")


def _in_branch_range(branch: WBranch, y: float) -> bool:
    if branch is WBranch.PRINCIPAL:
        return y >= -1.0 - 1e-12
    return y <= -1.0 + 1e-12


def solve_w_power(z: float, alpha: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Solve z = W(x) * x**alpha for x, with W on the requested branch.

    Uses the closed-form cases alpha = 0 and alpha = -1, otherwise the
    substitution x = y e^y, which maps the problem onto an inner Lambert
    evaluation.  The branch of the inner evaluation is not always the
    requested one; both are tried and each candidate is validated against
    the defining relation, so the returned x always satisfies
    W_branch(x) x^alpha = z.  DomainError is raised when the inner
    argument leaves both branch domains (or the candidate W value leaves
    the requested branch's range), NoSolution when z^(1/(alpha+1)) does
    not exist for the sign of z.
    """
    z = float(z)
    alpha = float(alpha)
    if alpha == 0.0:
        # here z is the W value itself; enforce branch range
        if not _in_branch_range(branch, z):
            raise DomainError(f"z={z} outside the {branch.name} range")
        return z * math.exp(z)
    if alpha == -1.0:
        if z <= 0.0:
            raise NoSolution("alpha = -1 requires z > 0")
        y = -math.log(z)
        if not _in_branch_range(branch, y):
            raise DomainError(f"z={z} outside the {branch.name} range for alpha=-1")
        return y / z
    roots = [_signed_root(z, alpha + 1.0)]
    k = round(alpha + 1.0)
    if z > 0.0 and abs(alpha + 1.0 - k) < 1e-12 and k % 2 == 0:
        roots.append(-roots[0])  # even integer root: both signs are real
    other = WBranch.LOWER if branch is WBranch.PRINCIPAL else WBranch.PRINCIPAL
    domain_failure = None
    for root in roots:
        inner = alpha / (alpha + 1.0) * root
        for inner_branch in (branch, other):
            try:
                u = lambert_w(inner_branch, inner)
            except DomainError as exc:
                domain_failure = exc
                continue
            y = (alpha + 1.0) / alpha * u
            if not _in_branch_range(branch, y):
                continue
            # the candidate must reproduce z^(1/(alpha+1))
            recon = y * math.exp(alpha * y / (alpha + 1.0))
            if abs(recon - root) <= 1e-9 * max(abs(root), 1e-30):
                return y * math.exp(y)
    if domain_failure is not None:
        raise DomainError(
            f"inner Lambert argument outside both branch domains for z={z}, "
            f"alpha={alpha}") from domain_failure
    raise DomainError(
        f"no W value on the {branch.name} branch solves z={z}, alpha={alpha}")


# ----------------------------------------------------------------------
# Laguerre polynomials and combinatorial helpers
# ----------------------------------------------------------------------

def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by the three-term recurrence."""
    if n < 0:
        raise DomainError("laguerre degree must be >= 0")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + alpha - x
    for k in range(1, n):
        l_next = ((2 * k + 1 + alpha - x) * l_cur - (k + alpha) * l_prev) / (k + 1)
        l_prev, l_cur = l_cur, l_next
    return l_cur if l_cur.ndim else float(l_cur)

