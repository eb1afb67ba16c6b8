"""The Lagrange-mesh reference against the levels known in closed form.

Each bound is 10x the worst error measured over its cases.  Errors are
relative to max(1, |E|).
"""

import math

import pytest

from auxfield.afm import PotentialModel
from auxfield.exact import QuantumNumbers
from auxfield.specfun import airy_zero
from reference import exp_s_energy, lagrange_mesh_level, reference_r_max


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


@pytest.mark.parametrize("l", [0, 1, 3])
def test_oscillator_levels(l):
    # p^2 + r^2: E = 4n + 2l + 3; worst 1.6e-13, at (3, 3)
    for n in range(4):
        level = lagrange_mesh_level(lambda r: r * r, 0.5, QuantumNumbers(n, l), 60, 20.0)
        assert _rel(level.energy, 4 * n + 2 * l + 3) <= 2e-12, (n, l)


def test_hydrogen_s_levels():
    # p^2 - 1/r: E = -1/(4 (n + 1)^2); worst 1.1e-14, at n = 0
    for n in range(4):
        level = lagrange_mesh_level(lambda r: -1.0 / r, 0.5, QuantumNumbers(n, 0), 60, 50.0)
        assert _rel(level.energy, -0.25 / (n + 1) ** 2) <= 1.2e-13, n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 10, 20, 30, 40])
def test_linear_s_levels_are_the_airy_zeros(n):
    # worst 2.3e-14 on N = 2n + 60 points
    v, q = PotentialModel.linear(), QuantumNumbers(n, 0)
    level = lagrange_mesh_level(v.v, v.mass, q, 2 * n + 60, reference_r_max(v, q))
    assert _rel(level.energy, -airy_zero(n)) <= 2.4e-13


@pytest.mark.parametrize("k,n", [(5.0, 0), (10.0, 1), (20.0, 2), (400.0, 7),
                                 (2000.0, 0), (8659.0, 5), (33265.0, 10)])
def test_exp_s_levels_away_from_threshold(k, n):
    # worst 1.4e-13, at k = 5 (0, 0), on N = 2n + 120 points
    v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
    level = lagrange_mesh_level(v.v, v.mass, q, 2 * n + 120, reference_r_max(v, q))
    assert level.is_reference(0.0)
    exact = exp_s_energy(k, n, 2.0 * math.sqrt(-level.energy))
    assert _rel(level.energy, exact) <= 1.4e-12


@pytest.mark.parametrize("k,n", [(35.40, 3), (1.5, 0), (1.47, 0)])
def test_near_threshold_levels_are_flagged(k, n):
    # N and 1.25 N disagree (8.8e-7 and 1.9e-8 relative), or the level lies
    # in the continuum (k = 1.47), so none of them serves as a reference
    v, q = PotentialModel.exponential(k), QuantumNumbers(n, 0)
    level = lagrange_mesh_level(v.v, v.mass, q, 2 * n + 120, reference_r_max(v, q))
    assert not level.is_reference(0.0)
