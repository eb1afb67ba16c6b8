"""Checks of ``tests/reference.py`` itself: the composite Simpson weights that
normalize the reference Numerov states, and the Numerov assembly that gives
them.  The oracle tests lean on both as a second opinion."""

import math

import mpmath
import numpy as np
import pytest

import reference
from auxfield.afm import PotentialModel
from auxfield.exact import QuantumNumbers
from auxfield.oracle import solve_radial

# the 37 states the tables solve: linear n <= 5 and log n <= 2, each with l <= 2, and 10 exp wells
TABLE_STATES = ([("linear", None, n, l) for l in range(3) for n in range(6)]
                + [("log", None, n, l) for l in range(3) for n in range(3)]
                + [("exp", 5.0, 0, 0), ("exp", 10.0, 0, 0), ("exp", 10.0, 0, 1),
                   ("exp", 10.0, 1, 0), ("exp", 20.0, 0, 0), ("exp", 20.0, 0, 1),
                   ("exp", 20.0, 1, 0), ("exp", 20.0, 0, 2), ("exp", 20.0, 1, 1),
                   ("exp", 20.0, 2, 0)])


def _uniform_simpson(grid):
    return reference.simpson_weights(grid.shape[0], float(grid[1] - grid[0]))


@pytest.mark.parametrize("points", [3, 4, 5, 6, 2000, 2001, 12001, 20000],
                         ids="uniform-{}".format)
def test_simpson_weights_match_scipy(points):
    from scipy.integrate import simpson
    rng = np.random.default_rng(points)
    x = np.linspace(0.0, 37.5, points)
    y = rng.random(points)
    ref = simpson(y, x=x)
    assert abs(_uniform_simpson(x) @ y - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("points", [3, 4, 5, 6, 7, 8, 2000, 2001])
def test_simpson_weights_exact_on_quadratics(points):
    # Simpson is exact on cubics; Cartwright's last interval, for an even
    # count, on quadratics
    x = np.linspace(0.0, 2.5, points)
    y = 1.5 - 0.75 * x + 2.0 * x * x
    exact = 1.5 * 2.5 - 0.375 * 2.5 ** 2 + 2.0 * 2.5 ** 3 / 3.0
    assert abs(_uniform_simpson(x) @ y - exact) <= 4e-15 * exact


def test_assembly_solves_its_numerov_system_in_place():
    # the reference Numerov assembly (the oracle's second opinion) solves its
    # system: every row of the banded solution satisfies the Numerov
    # recurrence and the tail row, at each table state's reference energy on
    # 20000 points of the state's domain
    checked = []
    for family, k, n, l in TABLE_STATES:
        v, q = PotentialModel.from_name(family, k), QuantumNumbers(n, l)
        ref = reference.numerov_state(v, q, float(solve_radial(v, q).grid[-1]), 20000)
        w = np.zeros_like(ref.grid)
        w[1:] = v.kinetic_2m * (v.v(ref.grid[1:]) - ref.energy) + q.big_l / ref.grid[1:] ** 2
        h, points = float(ref.grid[1]), w.shape[0]
        m = int(min(max(np.flatnonzero(w[1:] < 0.0)[-1] + 1, 4), points - 5))
        u = reference.numerov_assemble_banded(w, h, l, m)
        c = h * h / 12.0
        coarse = np.nonzero(c * w[1:m + 1] > 0.5)[0]
        start = int(coarse[-1]) + 2 if coarse.size else 1
        assert not u[:start].any(), (family, k, n, l)
        a, b = 1.0 - c * w, 2.0 + 10.0 * c * w
        if start == 1 and l == 1:
            b[1] += 1.0 / 6.0
        i = np.arange(start, points - 1)
        terms = np.stack((a[i - 1] * u[i - 1], -b[i] * u[i], a[i + 1] * u[i + 1]))
        delta = (i == m).astype(float)
        scale = np.abs(terms).sum(axis=0) + delta
        assert np.all(np.abs(terms.sum(axis=0) - delta) <= 1e-12 * scale), (family, k, n, l)
        tail = (u[points - 2], -math.exp(math.sqrt(max(w[-1], 1e-30)) * h) * u[points - 1])
        assert abs(sum(tail)) <= 1e-12 * sum(map(abs, tail)), (family, k, n, l)
        checked.append(m)
    assert len(checked) == len(TABLE_STATES) == 37


@pytest.mark.parametrize("nu", [0.029, 0.3, 1.2])
def test_exp_s_psi0_sq_is_the_force_identity(nu):
    # |psi(0)|^2 of the exact exp S-state u = J_nu(2 sqrt(k) e^(-r/2)), from
    # its slope at the origin, is the force identity m <V'>/(2 pi) (2m = 1),
    # both integrated by mpmath, the second in r: within 1e-8 down to
    # nu = 0.029, one part in 1e-3 of the well's depth below the threshold,
    # where the integrand's x^(2 nu - 1) had cost the first 1%
    with mpmath.workdps(30):
        k = (mpmath.besseljzero(nu, 1) / 2) ** 2
        u2 = lambda r: mpmath.besselj(nu, 2 * mpmath.sqrt(k) * mpmath.exp(-r / 2)) ** 2
        edges = [0, 10, 100, 1000, mpmath.inf]
        force = mpmath.quad(lambda r: u2(r) * k * mpmath.exp(-r), edges) / mpmath.quad(u2, edges)
        force = float(force / (4 * mpmath.pi))
    assert abs(reference.exp_s_psi0_sq(float(k), 0, nu) - force) <= 1e-8 * force
