"""Closed-form solutions for the three solvable reference systems.

Linear-potential S states (Airy), and the hydrogen-like and oscillator
trial states, each owned by its scale class (``HydrogenScale``,
``OscillatorScale``): radial function, moment set, <ln r>, <e^-r> and the
overlap with a dilated state of the same l.  Every <r^k> of both bases is
one Laguerre moment sum; every <e^-r> and every dilated overlap is one
Laguerre multiplication-theorem sum, diagonal or cross; and both radial
functions come from one weighted-Laguerre evaluator, normalized as
integral(R^2 r^2 dr) = 1; spherical harmonics are dropped throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Optional

from ._numpy import np
from . import specfun
from .errors import DomainError

__all__ = [
    "QuantumNumbers",
    "HydrogenScale",
    "OscillatorScale",
    "ObservableSet",
    "LinearSState",
    "linear_s_state",
    "linear_s_observables",
    "hydrogen_observables",
    "oscillator_observables",
]


# Largest n and l accepted.  The closed forms take O(n + l) time: at 1e5
# the slowest command, solve exp quadratic, takes about 1.7 s on a 2-vCPU
# host, and at 1e6 about 19 s.
_MAX_QUANTUM_NUMBER = 100_000


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n and orbital angular momentum l, integers from 0
    to 100000; anything else is refused (DomainError) before any work."""

    n: int
    l: int = 0

    def __post_init__(self):
        if not all(hasattr(type(x), "__index__") for x in (self.n, self.l)):
            raise DomainError("quantum numbers must be integers")
        if self.n < 0 or self.l < 0:
            raise DomainError("quantum numbers must be non-negative")
        if max(self.n, self.l) > _MAX_QUANTUM_NUMBER:
            raise DomainError(f"quantum numbers above {_MAX_QUANTUM_NUMBER} are refused: "
                              "the closed forms take time and memory linear in n + l")

    @property
    def big_l(self) -> float:
        return float(self.l * (self.l + 1))


@dataclass(frozen=True)
class HydrogenScale:
    """Inverse-length scale eta of a hydrogen-like family."""

    eta: float
    label: ClassVar[str] = "eta"   # the printed name of ``value``
    value = property(lambda self: self.eta)

    def __post_init__(self):
        if not self.eta > 0.0:
            raise DomainError("eta must be positive")

    def gamma(self, q: QuantumNumbers) -> float:
        """Per-state decay constant eta / (n + l + 1)."""
        return self.eta / (q.n + q.l + 1)

    def radial(self, q: QuantumNumbers):
        """Normalized radial function R(r), in x = 2 gamma r."""
        n, l = q.n, q.l
        gam = self.gamma(q)
        log_norm = 1.5 * math.log(2.0 * gam) + 0.5 * (
            math.lgamma(n + 1.0) - math.log(2.0 * (n + l + 1))
            - math.lgamma(n + 2 * l + 2.0))
        return _laguerre_radial(n, 2 * l + 1, l, log_norm, 2.0 * gam, squared=False)

    def moments(self, q: QuantumNumbers) -> ObservableSet:
        return hydrogen_observables(self, q)

    def mean_log_r(self, q: QuantumNumbers) -> float:
        """<ln r> = psi(n + 2l + 2) + (2n + 1)/(2N) - ln(2 gamma)."""
        return (_digamma(q.n + 2 * q.l + 2) + (2 * q.n + 1) / (2.0 * (q.n + q.l + 1))
                - math.log(2.0 * self.gamma(q)))

    def mean_exp_neg_r(self, q: QuantumNumbers) -> float:
        """<e^-r> = <e^(-x/(2 gamma))>: the shifted Laplace sum times (n+2l+2)/(2N)."""
        return (float(_laplace_sum(q.n, 2 * q.l + 1, 0.5 / self.gamma(q), shifted=True))
                * (q.n + 2 * q.l + 2) / (2.0 * (q.n + q.l + 1)))

    def overlap(self, q: QuantumNumbers, other: HydrogenScale, q_other: QuantumNumbers) -> float:
        """<q|q_other> with a state of scale ``other`` and the same l: the shifted
        cross sum at mu = 2 gamma/s, mu' = 2 gamma'/s, s = gamma + gamma', times
        sqrt((n+2l+2)(n'+2l+2)/(4 N N')), to which both norms and the prefactor
        (mu mu')^l / s^3 of y = s r reduce."""
        n, n2, l = q.n, q_other.n, q.l
        return (_overlap(q, q_other, 2 * l + 1, True, other.gamma(q_other) / self.gamma(q))
                * math.sqrt((n + 2 * l + 2) * (n2 + 2 * l + 2) / (4.0 * (n + l + 1) * (n2 + l + 1))))


@dataclass(frozen=True)
class OscillatorScale:
    """Inverse-length scale lambda of a harmonic-oscillator family."""

    lam: float
    label: ClassVar[str] = "lambda"
    value = property(lambda self: self.lam)

    def __post_init__(self):
        if not self.lam > 0.0:
            raise DomainError("lambda must be positive")

    def radial(self, q: QuantumNumbers):
        """Normalized radial function R(r), in t = (lambda r)^2."""
        n, l = q.n, q.l
        log_norm = 1.5 * math.log(self.lam) + 0.5 * (
            math.log(2.0) + math.lgamma(n + 1.0) - math.lgamma(n + l + 1.5))
        return _laguerre_radial(n, l + 0.5, l, log_norm, self.lam, squared=True)

    def moments(self, q: QuantumNumbers) -> ObservableSet:
        return oscillator_observables(self, q)

    def mean_log_r(self, q: QuantumNumbers) -> float:
        """<ln r> = psi(n + l + 3/2)/2 - ln lambda."""
        return 0.5 * _digamma(q.n + q.l + 1.5) - math.log(self.lam)

    def mean_exp_neg_r(self, q: QuantumNumbers) -> float:
        """<e^-r> = pi^(-1/2) int u^(-1/2) e^-u <e^(-r^2/4u)> du (subordination),
        <e^(-r^2/4u)> the Laplace sum at beta = 1/(4 u lambda^2), by the
        trapezoid rule on 512 nodes in s = ln u (Trefethen & Weideman, SIAM
        Rev. 56 (2014) 385): exponentially convergent while the integrand
        peaks, at u ~ <r>/2, below ~40.  The window starts 37 below where
        <e^(-r^2/4u)> falls off (or at -90) and ends at u = <r^2>^(1/2) + 40."""
        n, lam = q.n, self.lam
        lo = max(-90.0, min(0.0, -math.log(4.0 * (n + 1) * lam * lam)) - 37.0)
        hi = math.log(math.sqrt(2 * n + q.l + 1.5) / lam + 40.0)
        s, h = np.linspace(lo, hi, 512, retstep=True)
        u = np.exp(s)
        f = np.sqrt(u) * np.exp(-u) * _laplace_sum(n, q.l + 0.5, 0.25 / (u * lam * lam), False)
        return h * float(f.sum()) / math.sqrt(math.pi)

    def overlap(self, q: QuantumNumbers, other: OscillatorScale, q_other: QuantumNumbers) -> float:
        """<q|q_other> with a state of scale ``other`` and the same l: the
        unshifted cross sum at mu = lambda^2/s, mu' = lambda'^2/s, s = (lambda^2
        + lambda'^2)/2, whose (mu mu')^(g/2) is all that is left of both norms
        and the prefactor (lambda lambda')^l / (2 s^(l+3/2)) of t = s r^2."""
        return _overlap(q, q_other, q.l + 0.5, False, (other.lam / self.lam) ** 2)


@dataclass(frozen=True)
class ObservableSet:
    """Bundle of radial moments and momentum moments for one state.

    ``r_moments`` maps the integer exponent k to <r^k>; ``psi0_sq`` is
    |psi(0)|^2 and is present only for l = 0 states.  ``mean_h`` is the
    eigenvalue of an exact or oracle set and None for a trial set, whose
    <H> comes from ``observables.mean_hamiltonian``.
    """

    r_moments: Dict[int, float]
    p2: float
    p4: float
    psi0_sq: Optional[float] = None
    mean_h: Optional[float] = None


# ----------------------------------------------------------------------
# Linear potential, S states (Airy solutions)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSState:
    energy: float
    wavefunction: Callable[[np.ndarray], np.ndarray]
    n: int
    alpha_n: float = field(repr=False, default=0.0)


def linear_s_state(m: float, a: float, n: int) -> LinearSState:
    """Exact l = 0 eigenstate of H = p^2/(2m) + a*r.

    The returned evaluator is the full wavefunction psi(r) (so the radial
    probability density is 4 pi r^2 psi^2); psi(0) is finite and handled
    by a local series.
    """
    if m <= 0 or a <= 0:
        raise DomainError("mass and slope must be positive")
    alpha = specfun.airy_zero(n)
    scale = (2.0 * m * a) ** (1.0 / 3.0)
    energy = -((a * a / (2.0 * m)) ** (1.0 / 3.0)) * alpha
    _, aip_at_zero = specfun.airy_ai(alpha)
    # phase chosen so psi(0+) > 0, matching the Laguerre-family convention
    norm = scale ** 0.5 / (math.sqrt(4.0 * math.pi) * aip_at_zero)

    r_far = 2.0 ** 300 / scale  # Ai underflows to 0 long before x = 2^300

    def psi(r):
        x = scale * np.minimum(np.asarray(r, dtype=float), r_far)
        out = np.empty_like(x)
        small = x < 1e-3
        if np.any(~small):
            ai, _ = specfun.airy_ai(x[~small] + alpha)
            out[~small] = norm * ai / x[~small]
        if np.any(small):
            # Ai(alpha + d) = Ai'(alpha) * (d + alpha d^3/6 + d^4/12 + ...)
            d = x[small]
            out[small] = norm * aip_at_zero * (
                1.0 + alpha * d * d / 6.0 + d ** 3 / 12.0)
        out *= scale
        return out if out.ndim else float(out)

    return LinearSState(energy=energy, wavefunction=psi, n=n, alpha_n=alpha)


def linear_s_observables(m: float, a: float, n: int) -> ObservableSet:
    """Closed-form moments of the linear-potential S states."""
    if m <= 0 or a <= 0:
        raise DomainError("mass and slope must be positive")
    al = abs(specfun.airy_zero(n))
    s = 2.0 * m * a
    r_mom = {
        1: 2.0 * al / (3.0 * s ** (1.0 / 3.0)),
        2: 8.0 * al ** 2 / (15.0 * s ** (2.0 / 3.0)),
        3: (16.0 * al ** 3 + 15.0) / (35.0 * s),
        4: 16.0 * (8.0 * al ** 4 + 25.0 * al) / (315.0 * s ** (4.0 / 3.0)),
    }
    p2 = s ** (2.0 / 3.0) * al / 3.0
    p4 = s ** (4.0 / 3.0) * al ** 2 / 5.0
    energy = (a * a / (2.0 * m)) ** (1.0 / 3.0) * al
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4,
                         psi0_sq=m * a / (2.0 * math.pi), mean_h=energy)


# ----------------------------------------------------------------------
# Hydrogen-like and oscillator trial states: one Laguerre moment sum and
# one weighted-Laguerre evaluator
# ----------------------------------------------------------------------

def _laguerre_moment(n: int, alpha: float, s: float) -> float:
    """<x^s> over the normalized density x^alpha e^-x [L_n^alpha(x)]^2.

    Expanding L_n^alpha in the L_j^(alpha+s) gives a sum of positive
    terms, sum_j C(s, n-j)^2 Gamma(alpha+s+j+1)/j! over
    Gamma(alpha+n+1)/n!, with C the generalized binomial.  The j = n term
    is Gamma(b+s)/Gamma(b), b = alpha+n+1: math.gamma at b - shift <= 150,
    below its overflow, then Gamma(x+1) = x Gamma(x) up to b.  Each lower
    term follows from the one above by their ratio.  Requires
    alpha + s > -1.
    """
    b = alpha + n + 1.0
    shift = max(0, math.ceil(b) - 150)
    term = math.gamma(b - shift + s) / math.gamma(b - shift)
    for i in range(shift):
        term *= (b - shift + i + s) / (b - shift + i)
    terms = [term]
    for j in range(n, 0, -1):  # term j - 1 from term j
        term *= ((s - n + j) / (n - j + 1)) ** 2 * j / (alpha + s + j)
        terms.append(term)
    return math.fsum(terms)


def _laplace_terms(n: int, alpha: float, g: float, beta, shifted: bool, top: int):
    """d_k sqrt(Gamma(k+g)/k!) over a_n for k = top down to 0 (0 above n), each
    with the exponents e taken out of a after it, or None.  a_k = c_k
    sqrt(Gamma(k+g)/k!) over a_n runs down from 1 by ratios, rescaled exactly
    by 2^-e when |a| passes 2^200; its terms alternate in sign when beta < 0."""
    yield from ((0.0, None) for _ in range(top - n))
    k = np.arange(n, 0, -1, dtype=float)
    root = np.sqrt(k / (k + g - 1.0))  # a_(k-1)/a_k = beta (alpha+k)/(n-k+1) root_k
    a = np.ones_like(beta)
    yield a, None
    for step, root_k in zip((alpha + k) / (n - k + 1.0) * root, root):
        prev, a = a, a * (step * beta)
        d = a - root_k * prev if shifted else a
        e = None
        if np.abs(a).max() > 2.0 ** 200:
            e = np.frexp(np.maximum(np.abs(a), 0.5))[1]
            a = np.ldexp(a, -e)
        yield d, e


def _laplace_sum(n: int, alpha: float, beta, shifted: bool, n2=None, beta2=None):
    """mu^(n+g/2) mu'^(n'+g/2) sum_k d_k(n, mu) d_k(n', mu') Gamma(k+g)/k! over
    sqrt(Gamma(n+g)/n! Gamma(n'+g)/n'!), mu = 1/(1+beta), at each beta of an
    array; d_k = c_k - c_(k+1) and g = alpha + 2, or unshifted d_k = c_k and
    g = alpha + 1; n' = n and beta' = beta when not given.  By L_n^alpha(mu y)
    = sum_k c_k L_k^alpha(y), c_k = C(n+alpha, n-k) mu^k (1-mu)^(n-k) (DLMF
    18.18(iii)), and L_k^alpha = L_k^(alpha+1) - L_(k-1)^(alpha+1) (DLMF 18.9),
    that is the integral of y^(g-1) e^-y L_n^alpha(mu y) L_n'^alpha(mu' y) over
    the same square roots times (mu mu')^(g/2).  At n' = n, mu' = mu it is
    <e^(-beta y)> over y^(g-1) e^-y [L_n^alpha(y)]^2 times Gamma(n+alpha+1)/Gamma(n+g);
    at mu + mu' = 2 it is a dilated overlap, mu' > 1 alternating in sign."""
    beta = np.asarray(beta, dtype=float)
    g = alpha + 1.0 + shifted
    if n2 is None:
        pairs = ((d, e, d, e) for d, e in _laplace_terms(n, alpha, g, beta, shifted, n))
        n2, beta2 = n, beta
    else:
        beta2 = np.asarray(beta2, dtype=float)
        top = max(n, n2)
        pairs = ((d, e, d2, e2) for (d, e), (d2, e2) in zip(
            _laplace_terms(n, alpha, g, beta, shifted, top),
            _laplace_terms(n2, alpha, g, beta2, shifted, top)))
    total, twos = np.zeros_like(beta), np.zeros_like(beta)
    for d, e, d2, e2 in pairs:
        total = total + d * d2
        if e is not None or e2 is not None:
            e = (0 if e is None else e) + (0 if e2 is None else e2)
            total, twos = np.ldexp(total, -e), twos + e
    return total * np.exp(math.log(2.0) * twos - ((n + g / 2) * np.log1p(beta)
                                                 + (n2 + g / 2) * np.log1p(beta2)))


def _overlap(q: QuantumNumbers, q_other: QuantumNumbers, alpha: float, shifted: bool,
             ratio: float) -> float:
    """The cross Laplace sum of two same-l states whose widths (gamma, or
    lambda^2) have the ratio w'/w, at 1/mu - 1 = (w'/w - 1)/2 and
    1/mu' - 1 = (w/w' - 1)/2: mu + mu' = 2."""
    if q.l != q_other.l:
        raise DomainError("an overlap needs two states of the same l")
    return float(_laplace_sum(q.n, alpha, (ratio - 1.0) / 2.0, shifted,
                              q_other.n, (1.0 - ratio) / (2.0 * ratio)))


def _digamma(x: float) -> float:
    """psi(x) at x = x0 + k, x0 = 1 or 1/2: psi(x0) + sum_(j<k) 1/(x0 + j),
    where psi(x0) = -gamma_E + 2 ln x0 holds at both."""
    x0 = x % 1.0 or 1.0
    return math.fsum([-0.5772156649015329, 2.0 * math.log(x0)]
                     + [1.0 / (x0 + j) for j in range(int(x - x0))])


def _laguerre_radial(n: int, alpha: float, l: int, log_norm: float,
                     k: float, squared: bool):
    """R(r) = norm x^l e^(-t/2) L_n^alpha(t), x = k r and t = x or x^2.  The
    prefactor is one exponential, the weight of ``specfun.laguerre``: no
    underflow of norm or overflow of x^l at high l, nor overflow of L at high n;
    r is clipped at t = 2^300, past which the weight underflows: R is 0 there."""
    r_far = (2.0 ** 150 if squared else 2.0 ** 300) / k
    def radial(r):
        x = k * np.minimum(np.asarray(r, dtype=float), r_far)
        t = x * x if squared else x
        with np.errstate(divide="ignore"):  # l ln(0) = -inf gives 0
            power = l * np.log(x) if l else 0.0
        return specfun.laguerre(n, alpha, t, log_norm + power - 0.5 * t)

    return radial


def hydrogen_observables(scale: HydrogenScale, q: QuantumNumbers) -> ObservableSet:
    """Closed-form moment set of a hydrogen-like state.

    r^2 R^2 is proportional to x^(alpha+1) e^-x [L_n^alpha(x)]^2 in
    x = 2 gamma r with alpha = 2l + 1, and <x> = 2N over the Laguerre
    density, so <r^k> = I(k+1) / (2N) / (2 gamma)^k.
    """
    n, l = q.n, q.l
    eta = scale.eta
    big_n = float(n + l + 1)
    inv_two_gamma = 1.0 / (2.0 * scale.gamma(q))
    r_mom = {k: _laguerre_moment(n, 2 * l + 1, k + 1) / (2.0 * big_n)
             * inv_two_gamma ** k for k in (-2, -1, 1, 2, 3, 4)}
    p2 = eta ** 2 / big_n ** 2
    p4 = eta ** 4 * (8 * n + 2 * l + 5) / ((2 * l + 1) * big_n ** 4)
    psi0 = eta ** 3 / (math.pi * (n + 1) ** 3) if l == 0 else None
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0)


def oscillator_observables(scale: OscillatorScale, q: QuantumNumbers) -> ObservableSet:
    """Closed-form moment set of an oscillator state.

    r^2 R^2 dr is proportional to t^alpha e^-t [L_n^alpha(t)]^2 dt in
    t = lambda^2 r^2 with alpha = l + 1/2, so <r^k> = I(k/2) / lambda^k.
    The state has the same form in momentum space: <p^k> = lambda^(2k) <r^k>.
    """
    n, l = q.n, q.l
    lam = scale.lam
    r_mom = {k: _laguerre_moment(n, l + 0.5, k / 2) * (1.0 / lam) ** k
             for k in (1, 2, 3, 4)}
    p2 = lam ** 4 * r_mom[2]
    p4 = lam ** 8 * r_mom[4]
    psi0 = (lam ** 3 * 2.0 * math.exp(math.lgamma(n + 1.5) - math.lgamma(n + 1.0))
            / math.pi ** 2 if l == 0 else None)
    return ObservableSet(r_moments=r_mom, p2=p2, p4=p4, psi0_sq=psi0)
