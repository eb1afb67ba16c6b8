"""The scale classes as the one owner of a trial state at their scale:
radial function, moment set, density cutoff and <ln r>."""

import time

import mpmath
import numpy as np
import pytest

from auxfield import exact
from auxfield.afm import AuxiliaryKind, PotentialModel, afm_solve
from auxfield.cli import main
from auxfield.exact import HydrogenScale, OscillatorScale, QuantumNumbers
from auxfield.observables import afm_observable_set, mean_hamiltonian, mean_potential
from reference import hydrogen_radial_closure, oscillator_radial_closure


def _drawn_states(seed, count):
    """(scale, q) pairs with n <= 400, l <= 40 and the scale log-uniform
    in [1e-3, 1e3], led by the largest state in each basis."""
    rng = np.random.default_rng(seed)
    out = [(HydrogenScale(1.0), QuantumNumbers(400, 40)),
           (OscillatorScale(1.0), QuantumNumbers(400, 40))]
    for _ in range(count):
        q = QuantumNumbers(int(rng.integers(0, 401)), int(rng.integers(0, 41)))
        size = float(10.0 ** rng.uniform(-3.0, 3.0))
        out.append((HydrogenScale(size), q))
        out.append((OscillatorScale(size), q))
    return out


def test_radial_matches_the_separate_closures_bit_for_bit():
    # r from 0 to 1.5 cutoffs holds r = 0, the high-l underflow at the
    # origin and the density's tail, where laguerre rescales by 2^-500
    closures = {HydrogenScale: hydrogen_radial_closure,
                OscillatorScale: oscillator_radial_closure}
    for scale, q in _drawn_states(20261018, 40):
        r = np.linspace(0.0, 1.5 * scale.cutoff(q), 257)
        got = scale.radial(q)(r)
        want = closures[type(scale)](scale, q)(r)
        assert np.array_equal(got, want), (scale, q)
        assert scale.radial(q)(r[100]) == want[100], (scale, q)


def test_moment_sets_come_through_the_exact_module_names(monkeypatch):
    # per-layer tracing patches module bindings, not class attributes: the
    # moments methods must reach these two functions through exact's namespace
    calls = []
    for name in ("hydrogen_observables", "oscillator_observables"):
        def counted(scale, q, _fn=getattr(exact, name), _name=name):
            calls.append(_name)
            return _fn(scale, q)
        monkeypatch.setattr(exact, name, counted)
    v = PotentialModel.logarithmic()
    q = QuantumNumbers(1, 2)
    for kind in AuxiliaryKind:
        obs = afm_observable_set(v, afm_solve(v, kind, q), q)
        assert obs.p2 == pytest.approx(2.0, rel=1e-13)
    assert calls == ["hydrogen_observables", "oscillator_observables"]


def test_digamma_matches_mpmath():
    # every integer and half-integer up to 100, and a few up to 1e4
    points = [k / 2.0 for k in range(1, 201)] + [1e3, 1e3 + 0.5, 9999.5, 1e4]
    with mpmath.workdps(40):
        for x in points:
            want = mpmath.digamma(x)
            err = abs(mpmath.mpf(exact._digamma(x)) - want)
            assert err <= 3e-16 * max(1.0, abs(want)), x


def test_mean_log_r_matches_the_quadrature():
    # the closed form against mean_potential's Gauss-Legendre rule, within
    # the rule's own acceptance bound, on seeded states n, l <= 40
    v = PotentialModel.logarithmic()
    rng = np.random.default_rng(20261019)
    states = [(0, 0), (40, 40)] + [tuple(map(int, s)) for s in rng.integers(0, 41, (28, 2))]
    for n, l in states:
        q = QuantumNumbers(n, l)
        for kind in AuxiliaryKind:
            sol = afm_solve(v, kind, q)
            quad = mean_potential(v, sol, q)
            assert abs(sol.scale.mean_log_r(q) - quad) <= max(1e-9 * abs(quad), 1e-12), (q, kind)


def test_log_trial_energy_is_closed_form():
    v = PotentialModel.logarithmic()
    q = QuantumNumbers(3, 2)
    for kind in AuxiliaryKind:
        sol = afm_solve(v, kind, q)
        obs = afm_observable_set(v, sol, q)
        want = obs.p2 / v.kinetic_2m + sol.scale.mean_log_r(q)
        assert mean_hamiltonian(v, sol, q) == want


@pytest.mark.parametrize("argv", [["solve", "log", "coulomb", "2000", "0"],
                                  ["solve", "log", "quadratic", "5000", "5000"]],
                         ids=lambda a: " ".join(a))
def test_high_n_log_solve_answers_quickly(argv, capsys):
    # O(n) moment and digamma sums, where the quadrature took seconds
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert '"mean_h"' in capsys.readouterr().out
    assert elapsed < 0.3
