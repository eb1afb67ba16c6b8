"""Self-contained special-function kernel.

Provides the Airy function Ai and its zeros, both real branches of the
Lambert W function and generalized Laguerre polynomials.  Everything is
double precision and free of external special-function libraries; only
numpy is used for vectorization.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError, NumericalFailure

__all__ = [
    "WBranch",
    "AiryValue",
    "airy_ai",
    "airy_zero",
    "airy_zero_estimate",
    "lambert_w",
    "laguerre",
]

_NEG_INV_E = -math.exp(-1.0)


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
#   |x| < 8    one Taylor step of the ODE y'' = x*y (|h| <= 0.125) from the
#              nearest point of a cached checkpoint table on [-8, 8],
#              spacing 0.25
#   |x| >= 8   asymptotic expansions summed to a fixed 32 terms: term 31
#              is the smallest at |x| = 8 (5.7e-15), so this is the optimal
#              truncation there and tighter for larger |x|
# The checkpoint table is seeded at x = 8 by the asymptotic branch and
# marched down to x = -8, which is the stable direction for Ai.  Against
# mpmath at 40 digits, Ai and Ai' on [-8.5, 8.5] are within 5e-15.
# ----------------------------------------------------------------------

_ASYM = 8.0
_STEP = 0.25
_TAYLOR_TERMS = 26


@lru_cache(maxsize=1)
def _uv():
    """Rows u_k and v_k for k = 31, ..., 0 (np.polyval order), built at
    first use; in a row the odd k sit at [::2] and the even k at [1::2]."""
    u = np.empty(32)
    v = np.empty(32)
    u[0] = v[0] = 1.0
    for k in range(31):
        u[k + 1] = u[k] * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1))
    return np.array([u, v])[:, ::-1]


def _airy_asym_pos(x):
    """Asymptotic (Ai, Ai') for x >= 8: the series in -1/zeta.  Past x = 108
    exp(-zeta) underflows, so x is clipped at 128 and zeta cannot overflow."""
    x = np.minimum(x, 128.0)
    zeta = (2.0 / 3.0) * x ** 1.5
    t = -1.0 / zeta
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    u, v = _uv()
    return pref * np.polyval(u, t) / x ** 0.25, -pref * np.polyval(v, t) * x ** 0.25


def _airy_asym_neg(x):
    """Asymptotic (Ai, Ai') for x <= -8 (oscillatory phase form): the
    even and odd parts of the series, each in -1/zeta^2."""
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    t = -1.0 / (zeta * zeta)
    uv = _uv()
    (u_odd, v_odd), (u_even, v_even) = uv[:, ::2], uv[:, 1::2]
    arg = zeta - 0.25 * math.pi
    cos, sin = np.cos(arg), np.sin(arg)
    root_pi = math.sqrt(math.pi)
    ai = (cos * np.polyval(u_even, t) + sin * np.polyval(u_odd, t) / zeta) / (
        root_pi * z ** 0.25)
    aip = (sin * np.polyval(v_even, t)
           - cos * np.polyval(v_odd, t) / zeta) * z ** 0.25 / root_pi
    return ai, aip


def _taylor_ode(x0, y, yp, h):
    """Advance y'' = x*y by the array h from x0; vectorized over points."""
    c_km1 = np.zeros_like(y)
    c_k, c_kp1 = y, yp
    val = y + yp * h
    der = yp
    hk = h                          # h**(k+1)
    for k in range(_TAYLOR_TERMS):
        c_kp2 = (x0 * c_k + c_km1) / ((k + 1) * (k + 2))
        der = der + c_kp2 * (k + 2) * hk
        hk = hk * h
        val = val + c_kp2 * hk
        c_km1, c_k, c_kp1 = c_k, c_kp1, c_kp2
    return val, der


_CHECKPOINTS = None


def _checkpoints():
    """Checkpoint values (x, Ai, Ai') on [-8, 8], spacing 0.25."""
    global _CHECKPOINTS
    if _CHECKPOINTS is None:
        xs = np.arange(-_ASYM, _ASYM + 1e-9, _STEP)
        ai = np.empty_like(xs)
        aip = np.empty_like(xs)
        ai[-1:], aip[-1:] = _airy_asym_pos(xs[-1:])
        down = np.array([-_STEP])
        for i in range(xs.size - 2, -1, -1):
            ai[i:i + 1], aip[i:i + 1] = _taylor_ode(
                xs[i + 1], ai[i + 1:i + 2], aip[i + 1:i + 2], down)
        _CHECKPOINTS = (xs, ai, aip)
    return _CHECKPOINTS


def _airy_taylor(x):
    """Single Taylor step from the nearest checkpoint; |x| < 8."""
    xs, ai, aip = _checkpoints()
    idx = np.rint((x - xs[0]) / _STEP).astype(int)
    x0 = xs[idx]
    return _taylor_ode(x0, ai[idx], aip[idx], x - x0)


def airy_ai(x):
    """Airy function Ai and derivative Ai'.

    Accepts a float or ndarray; returns an ``AiryValue`` pair (arrays in,
    arrays out).  Against mpmath at 40 digits on [-40, 40] the error is
    below 3e-14 relative to the oscillation envelope on the negative axis
    and below 4e-14 relative to Ai and to Ai' on the positive axis.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("airy_ai requires finite arguments")
    val = np.empty_like(xa)
    der = np.empty_like(xa)

    hi = xa >= _ASYM
    lo = xa <= -_ASYM
    near = ~(hi | lo)
    if np.any(near):
        val[near], der[near] = _airy_taylor(xa[near])
    if np.any(hi):
        val[hi], der[hi] = _airy_asym_pos(xa[hi])
    if np.any(lo):
        val[lo], der[lo] = _airy_asym_neg(xa[lo])
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


def _newton_log_w(log_minus_x: float) -> float:
    """W_-1 by Newton on w + ln(-w) = ln(-x), which keeps full relative
    accuracy for |x| down to the smallest subnormal."""
    w = log_minus_x - math.log(-log_minus_x)
    for _ in range(60):
        step = w * (w + math.log(-w) - log_minus_x) / (w + 1.0)
        w -= step
        if abs(step) <= 4e-16 * abs(w):
            return w
    raise NumericalFailure(f"Lambert W_-1 iteration stalled at ln(-x)={log_minus_x}")


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
            return _halley_w(-1.0 - p - p * p / 3.0, x)
        return _newton_log_w(math.log(-x))
    raise DomainError(f"unknown branch {branch!r}")


# ----------------------------------------------------------------------
# Laguerre polynomials
# ----------------------------------------------------------------------

def laguerre(n: int, alpha: float, x, log_weight=0.0):
    """exp(log_weight) times the generalized Laguerre polynomial L_n^alpha(x),
    by the three-term recurrence.

    Whenever |L| passes 2^500, both recurrence terms are scaled by 2^-500,
    which is exact, and 500 ln 2 joins the weight's exponent; where the
    weight underflows and L overflows, their product stays finite.
    """
    if n < 0:
        raise DomainError("laguerre degree must be >= 0")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    l_cur = 1.0 + alpha - x if n else l_prev
    twos = np.zeros_like(x)             # L = l_cur * 2^twos
    for k in range(1, n):
        l_next = ((2 * k + 1 + alpha - x) * l_cur - (k + alpha) * l_prev) / (k + 1)
        l_prev, l_cur = l_cur, l_next
        big = np.abs(l_cur) > 2.0 ** 500
        if big.any():
            l_prev = np.where(big, l_prev * 2.0 ** -500, l_prev)
            l_cur = np.where(big, l_cur * 2.0 ** -500, l_cur)
            twos += 500.0 * big
    out = np.exp(log_weight + twos * math.log(2.0)) * l_cur
    return out if out.ndim else float(out)
