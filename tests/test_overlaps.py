import itertools
import math

import numpy as np
import pytest

from auxfield.afm import AuxiliaryKind
from auxfield.errors import DomainError
from auxfield.exact import HydrogenScale, OscillatorScale, QuantumNumbers
from auxfield.oracle import _simpson
from auxfield.overlaps import afm_pair_overlap, numeric_overlap, sample_radial
from reference import dilated_overlap_mp

A_GRID = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)


def _sampled(radial, grid, q):
    """``radial`` sampled on a uniform grid, integrated by that grid's Simpson rule."""
    return sample_radial(radial, grid, _simpson(grid.shape[0], float(grid[1] - grid[0])), q=q)


def _dilated(basis, n, n_prime, l, a):
    """F_{n,n',l}(a): the overlap of states (n,l) at scale 1 and (n',l) at
    scale a of one basis."""
    return basis(1.0).overlap(QuantumNumbers(n, l), basis(a), QuantumNumbers(n_prime, l))


class TestAnalyticProperties:
    def test_identity_at_unit_dilation(self):
        for n, npr, l in itertools.product(range(21), range(21), range(3)):
            want = 1.0 if n == npr else 0.0
            assert _dilated(HydrogenScale, n, npr, l, 1.0) == pytest.approx(
                want, abs=1e-12)
            assert _dilated(OscillatorScale, n, npr, l, 1.0) == pytest.approx(
                want, abs=1e-12)

    def test_bounded_and_symmetric(self):
        for n, npr, l in itertools.product(range(6), range(6), range(4)):
            for a in A_GRID:
                for basis in (HydrogenScale, OscillatorScale):
                    val = _dilated(basis, n, npr, l, a)
                    assert abs(val) <= 1.0 + 1e-12
                    swapped = _dilated(basis, npr, n, l, 1.0 / a)
                    assert swapped == pytest.approx(val, abs=1e-10)

    def test_vanishing_at_extreme_dilation(self):
        for n, npr, l in itertools.product(range(6), range(6), range(4)):
            for a in (1e-4, 1e4):
                assert abs(_dilated(HydrogenScale, n, npr, l, a)) < 1e-3
                assert abs(_dilated(OscillatorScale, n, npr, l, a)) < 1e-3

    def test_limit_toward_unit_dilation(self):
        for n, npr, l in [(0, 0, 0), (1, 1, 2), (0, 1, 0), (2, 3, 1)]:
            want = 1.0 if n == npr else 0.0
            val = _dilated(HydrogenScale, n, npr, l, 1.0 + 1e-8)
            assert val == pytest.approx(want, abs=1e-6)
            val = _dilated(OscillatorScale, n, npr, l, 1.0 - 1e-8)
            assert val == pytest.approx(want, abs=1e-6)

    def test_removable_singularity(self):
        # Q(a) = 0 at a = N'/N must evaluate finitely and continuously
        for n, npr, l in [(0, 1, 0), (1, 3, 0), (2, 3, 1), (0, 2, 2)]:
            a0 = (npr + l + 1) / (n + l + 1)
            center = _dilated(HydrogenScale, n, npr, l, a0)
            nearby = _dilated(HydrogenScale, n, npr, l, a0 * (1 + 1e-9))
            assert math.isfinite(center)
            assert center == pytest.approx(nearby, abs=1e-7)

    def test_squared_overlap_exchange_invariance(self):
        for n, npr, l in itertools.product(range(4), range(4), range(2)):
            for a in (0.7, 1.9):
                f1 = _dilated(HydrogenScale, n, npr, l, a) ** 2
                f2 = _dilated(HydrogenScale, npr, n, l, 1.0 / a) ** 2
                assert f1 == pytest.approx(f2, rel=1e-9, abs=1e-14)

    def test_overlap_needs_one_l(self):
        q, q_other = QuantumNumbers(1, 0), QuantumNumbers(1, 1)
        for scale in (HydrogenScale(1.0), OscillatorScale(1.0)):
            with pytest.raises(DomainError):
                scale.overlap(q, scale, q_other)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            _dilated(HydrogenScale, 0, 1, 0, -1.0)
        with pytest.raises(DomainError):
            _dilated(OscillatorScale, 0, 1, 0, 0.0)


class TestPublishedValues:
    def test_hydrogen_entries(self):
        val = _dilated(HydrogenScale, 0, 1, 0, 2.0 ** (4 / 3)) ** 2
        assert val == pytest.approx(0.43, abs=0.01)
        val = _dilated(HydrogenScale, 0, 1, 5, (7 / 6) ** (4 / 3)) ** 2
        assert val == pytest.approx(0.13, abs=0.01)

    def test_oscillator_entries(self):
        val = _dilated(OscillatorScale, 0, 1, 0, (3 / 7) ** (1 / 6)) ** 2
        assert val == pytest.approx(0.029, abs=0.001)
        val = afm_pair_overlap(AuxiliaryKind.QUADRATIC, 1, 3, 0) ** 2
        assert val == pytest.approx(0.0031, abs=0.0001)

    def test_pair_helper(self):
        for l in range(4):
            assert afm_pair_overlap(AuxiliaryKind.COULOMB, 0, 0, l) == pytest.approx(
                1.0, abs=1e-13)
        assert afm_pair_overlap(AuxiliaryKind.COULOMB, 2, 3, 0) ** 2 == pytest.approx(
            0.43, abs=0.01)
        assert afm_pair_overlap(AuxiliaryKind.QUADRATIC, 0, 2, 1) ** 2 == pytest.approx(
            0.0026, abs=0.0001)


class TestNumericAgreement:
    @pytest.mark.parametrize("n,npr,l,a", [
        (0, 1, 0, 2.0 ** (4 / 3)), (1, 2, 1, 1.3), (3, 4, 2, 0.7), (2, 2, 0, 1.5)])
    def test_hydrogen_formula_vs_quadrature(self, n, npr, l, a):
        eta = 1.1
        q1, q2 = QuantumNumbers(n, l), QuantumNumbers(npr, l)
        r1 = HydrogenScale(eta).radial(q1)
        r2 = HydrogenScale(eta * a).radial(q2)
        gam_min = eta * min(1.0, a) / (max(n, npr) + l + 1)
        grid = np.linspace(0.0, (45 + 15 * max(n, npr)) / gam_min, 24001)
        num = numeric_overlap(_sampled(r1, grid, q1),
                              _sampled(r2, grid, q2))
        assert num == pytest.approx(_dilated(HydrogenScale, n, npr, l, a),
                                    abs=1e-7)

    @pytest.mark.parametrize("n,npr,l,a", [
        (0, 1, 0, (3 / 7) ** (1 / 6)), (1, 3, 0, 1.2), (2, 4, 3, 0.8)])
    def test_oscillator_formula_vs_quadrature(self, n, npr, l, a):
        lam = 0.9
        q1, q2 = QuantumNumbers(n, l), QuantumNumbers(npr, l)
        r1 = OscillatorScale(lam).radial(q1)
        r2 = OscillatorScale(lam * a).radial(q2)
        grid = np.linspace(0.0, 15.0 / (lam * min(1.0, a)), 24001)
        num = numeric_overlap(_sampled(r1, grid, q1),
                              _sampled(r2, grid, q2))
        assert num == pytest.approx(_dilated(OscillatorScale, n, npr, l, a),
                                    abs=1e-7)


def _dilations(seed, count):
    """(n, n', l, a): the largest pairs at the ends of a's range, then drawn
    n, n' <= 12 and l <= 6, each at a log-uniform in [1e-3, 1e3] and at
    a = N'/N, where the two hydrogen decay constants agree."""
    rng = np.random.default_rng(seed)
    out = [(12, 12, 6, 1e-3), (12, 11, 6, 1e3)]
    for _ in range(count):
        n, npr, l = (int(x) for x in rng.integers(0, [13, 13, 7]))
        out += [(n, npr, l, float(10.0 ** rng.uniform(-3.0, 3.0))),
                (n, npr, l, (npr + l + 1) / (n + l + 1))]
    return out


@pytest.mark.parametrize("hydrogen,basis", [(True, HydrogenScale), (False, OscillatorScale)],
                         ids=["hydrogen", "oscillator"])
def test_dilated_overlap_matches_mpmath(hydrogen, basis):
    # 40-digit quadrature of the textbook radial functions.  This seed's
    # worst error is 6.4e-16; over seeds 1 to 40 of the same draw it was
    # 9.2e-15 (hydrogen) and 4.9e-15 (oscillator): the bound is about 2x that
    for n, npr, l, a in _dilations(20261018, 6):
        want = float(dilated_overlap_mp(hydrogen, n, npr, l, a))
        assert abs(_dilated(basis, n, npr, l, a) - want) <= 2e-14, (n, npr, l, a)


class TestNumericOverlap:
    def test_self_overlap(self):
        r1 = HydrogenScale(1.0).radial(QuantumNumbers(1, 0))
        grid = np.linspace(0.0, 80.0, 16001)
        f = _sampled(r1, grid, QuantumNumbers(1, 0))
        assert numeric_overlap(f, f) == pytest.approx(1.0, abs=1e-8)

    def test_grid_mismatch(self):
        q = QuantumNumbers(0, 0)
        r1 = HydrogenScale(1.0).radial(q)
        f = _sampled(r1, np.linspace(0.0, 60.0, 9001), q)
        g = _sampled(r1, np.linspace(0.0, 1.0, 101), q)
        with pytest.raises(DomainError):
            numeric_overlap(f, g)
