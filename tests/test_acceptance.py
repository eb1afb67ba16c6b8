"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The golden numbers live in auxfield/data/golden.json; tolerances are the
ones wired into the table builders (energy-ratio rows 0.002, observable
rows 0.003, overlap tables one unit of the printed digit, exponential
ratio columns 1 percent bounded below by print precision).
"""

import itertools
import math

import numpy as np

import auxfield.tables as tables
from auxfield.afm import (AuxiliaryKind, PotentialModel, afm_solve,
                          tangent_check)
from auxfield.errors import NoBoundState
from auxfield.exact import (HydrogenScale, OscillatorScale, QuantumNumbers,
                            hydrogen_observables, oscillator_observables)
from auxfield.overlaps import afm_pair_overlap
from auxfield.specfun import airy_zero, airy_zero_estimate, lambert_w
from auxfield.tables import linear_afm_overlap_sq, oracle_state
from reference import hydrogen_r_moment, oscillator_r_moment, solve_w_power

LINEAR = PotentialModel.linear()
LOG = PotentialModel.logarithmic()


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def _table_ok(table_id: str):
    header, rows = tables.build_table(table_id)
    bad = [r for r in rows if not r.ok]
    detail = "; ".join(
        f"{r.labels} computed={r.computed} published={r.published}" for r in bad[:4])
    return not bad, f"{len(rows)} rows" + (f"; bad: {detail}" if bad else "")


def test_criterion_1_coulomb_linear_tables():
    ok1, d1 = _table_ok("obs-hy")
    ok2, d2 = _table_ok("ratios-hy")
    _report("1 (Coulomb-basis linear tables)", ok1 and ok2, f"{d1} | {d2}")


def test_criterion_2_quadratic_linear_tables():
    ok1, d1 = _table_ok("obs-ho")
    ok2, d2 = _table_ok("ratios-ho")
    _report("2 (Quadratic-basis linear tables)", ok1 and ok2, f"{d1} | {d2}")


def test_criterion_3_overlap_tables():
    ok1, d1 = _table_ok("overlap-hy")
    ok2, d2 = _table_ok("overlap-ho")
    # l-sequences |<0,l|1,l>|^2 for l = 0..5
    gold = tables.golden()
    seq_ok = True
    for kind, key in ((AuxiliaryKind.COULOMB, "overlap_hy_lseq"),
                      (AuxiliaryKind.QUADRATIC, "overlap_ho_lseq")):
        for l, printed in enumerate(gold[key]):
            val = afm_pair_overlap(kind, 0, 1, l) ** 2
            tol = tables._last_digit_tol(printed)
            if abs(val - float(printed)) > tol:
                seq_ok = False
    _report("3 (overlap tables)", ok1 and ok2 and seq_ok, f"{d1} | {d2}")


def test_criterion_4_numeric_overlaps_with_exact_states():
    gold = tables.golden()["numeric_overlap_linear"]
    ok = True
    details = []
    for kind_key in ("hy", "ho"):
        for n, printed in enumerate(gold[kind_key]):
            val = linear_afm_overlap_sq(kind_key, n)
            details.append(f"{kind_key} n={n}: {val:.4f}")
            if abs(val - float(printed)) > 0.003:
                ok = False
    # threshold crossings of the quadratic-basis overlap
    seq = {n: linear_afm_overlap_sq("ho", n) for n in (5, 6, 13, 14)}
    crossings = (seq[5] >= 0.75 > seq[6]) and (seq[13] >= 0.25 > seq[14])
    _report("4 (numeric overlaps + thresholds)", ok and crossings,
            "; ".join(details) + f"; F2(6)={seq[6]:.3f} F2(14)={seq[14]:.3f}")


def test_criterion_5_eckart_table():
    ok, detail = _table_ok("eckart")
    _report("5 (Eckart bounds)", ok, detail)


def test_criterion_6_logarithmic_table():
    ok, detail = _table_ok("log-results")
    # AFM <p^2> is exactly 2; the oracle reproduces it to 1e-6
    machine_ok = True
    for kind in AuxiliaryKind:
        for n, l in itertools.product(range(3), range(3)):
            q = QuantumNumbers(n, l)
            sol = afm_solve(LOG, kind, q)
            if kind is AuxiliaryKind.COULOMB:
                p2 = hydrogen_observables(sol.scale, q).p2
            else:
                p2 = oscillator_observables(sol.scale, q).p2
            machine_ok &= abs(p2 - 2.0) < 1e-12
    oracle_ok = all(abs(oracle_state(LOG, QuantumNumbers(n, l))[1].p2 - 2.0) < 1e-6
                    for n, l in itertools.product(range(3), range(3)))
    _report("6 (logarithmic table)", ok and machine_ok and oracle_ok, detail)


def test_criterion_7_exponential_table():
    ok, detail = _table_ok("exp-results")
    # the "-" rows must map exactly onto NoBoundState outcomes
    marks_ok = True
    for rec in tables.golden()["exp_results"]:
        v = PotentialModel.exponential(float(rec["k"]))
        q = QuantumNumbers(rec["n"], rec["l"])
        for basis, kind in (("ho", AuxiliaryKind.QUADRATIC),
                            ("hy", AuxiliaryKind.COULOMB)):
            try:
                afm_solve(v, kind, q)
                exists = True
            except NoBoundState:
                exists = False
            marks_ok &= exists == (rec[basis] is not None)
    _report("7 (exponential table)", ok and marks_ok, detail)


def test_criterion_8_airy_machinery():
    exp_ok = all(
        abs(airy_zero(n) - airy_zero_estimate(n)) <= 1e-6 * abs(airy_zero(n))
        for n in range(3, 31))
    oracle_ok = True
    worst = 0.0
    for n in range(9):
        f, _ = oracle_state(LINEAR, QuantumNumbers(n, 0))
        rel = abs(f.energy + airy_zero(n)) / abs(airy_zero(n))
        worst = max(worst, rel)
        oracle_ok &= rel < 1e-7
    _report("8 (Airy machinery)", exp_ok and oracle_ok,
            f"worst oracle rel err {worst:.2e}")


def test_criterion_9_property_suites():
    models = [LINEAR, LOG, PotentialModel.exponential(10.0),
              PotentialModel.exponential(20.0)]
    # extremality and tangency
    extremal_ok = True
    for v in models:
        for kind in AuxiliaryKind:
            for n, l in itertools.product(range(4), range(4)):
                q = QuantumNumbers(n, l)
                try:
                    sol = afm_solve(v, kind, q)
                except NoBoundState:
                    continue
                rep = tangent_check(v, kind, sol,
                                    np.array([0.3, 0.8, 1.0, 2.0, 4.0]) * sol.r0)
                extremal_ok &= rep.ok and rep.extremality_residual < 1e-6

    # mean-point identity to 1e-10
    pro_ok = True
    for v in models:
        for kind in AuxiliaryKind:
            for n, l in itertools.product(range(5), range(5)):
                q = QuantumNumbers(n, l)
                try:
                    sol = afm_solve(v, kind, q)
                except NoBoundState:
                    continue
                if kind is AuxiliaryKind.COULOMB:
                    got = hydrogen_observables(sol.scale, q).r_moments[-1]
                    pro_ok &= abs(got * sol.r0 - 1.0) < 1e-10
                else:
                    got = oscillator_observables(sol.scale, q).r_moments[2]
                    pro_ok &= abs(got / sol.r0 ** 2 - 1.0) < 1e-10

    # bound directions against the oracle for every tabulated state
    bound_ok = True
    for n, l in itertools.product(range(6), range(3)):
        q = QuantumNumbers(n, l)
        e = oracle_state(LINEAR, q)[0].energy
        bound_ok &= afm_solve(LINEAR, AuxiliaryKind.COULOMB, q).energy <= e + 1e-6
        bound_ok &= afm_solve(LINEAR, AuxiliaryKind.QUADRATIC, q).energy >= e - 1e-6
    for n, l in itertools.product(range(3), range(3)):
        q = QuantumNumbers(n, l)
        e = oracle_state(LOG, q)[0].energy
        bound_ok &= afm_solve(LOG, AuxiliaryKind.COULOMB, q).energy <= e + 1e-6
        bound_ok &= afm_solve(LOG, AuxiliaryKind.QUADRATIC, q).energy >= e - 1e-6
    for rec in tables.golden()["exp_results"]:
        v = PotentialModel.exponential(float(rec["k"]))
        q = QuantumNumbers(rec["n"], rec["l"])
        e = oracle_state(v, q)[0].energy
        if rec["hy"] is not None:
            bound_ok &= afm_solve(v, AuxiliaryKind.COULOMB, q).energy <= e + 1e-6
        if rec["ho"] is not None:
            bound_ok &= afm_solve(v, AuxiliaryKind.QUADRATIC, q).energy >= e - 1e-6

    # overlap properties on the stated grids
    ov_ok = True
    for n, npr, l, basis in itertools.product(range(6), range(6), range(4),
                                              (HydrogenScale, OscillatorScale)):
        q, q_prime = QuantumNumbers(n, l), QuantumNumbers(npr, l)
        f = lambda a: basis(1.0).overlap(q, basis(a), q_prime)
        for a in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0):
            ov_ok &= abs(f(a)) <= 1.0 + 1e-12
            ov_ok &= abs(basis(1.0).overlap(q_prime, basis(1.0 / a), q) - f(a)) < 1e-9
        ov_ok &= abs(f(1.0) - (1.0 if n == npr else 0.0)) < 1e-12
        for a in (1e-4, 1e4):
            ov_ok &= abs(f(a)) < 1e-3

    # Lambert / inversion round trips to 1e-10
    lw_ok = True
    for x in np.linspace(-0.36, 25.0, 60):
        w = lambert_w(float(x))
        lw_ok &= abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
    for alpha in (0.5, 2.0, 3.0, -0.25):
        for x in np.linspace(0.1, 20.0, 25):
            y = lambert_w(float(x))
            if alpha == -0.25 and y > 3.0:
                continue
            back = solve_w_power(y * x ** alpha, alpha)
            lw_ok &= abs(back - x) <= 1e-10 * x
    for x in np.linspace(-0.36, -0.01, 25):
        y = lambert_w(float(x))
        back = solve_w_power(y * x ** 2, 2.0)
        lw_ok &= abs(back - x) <= 1e-10 * abs(x)

    # generic moment sums against closed forms to 1e-11
    mom_ok = True
    sc_h = HydrogenScale(eta=1.37)
    sc_o = OscillatorScale(lam=0.83)
    for n, l in itertools.product(range(5), range(4)):
        q = QuantumNumbers(n, l)
        oh = hydrogen_observables(sc_h, q)
        oo = oscillator_observables(sc_o, q)
        for k in (1, 2, 3, 4):
            mom_ok &= (abs(hydrogen_r_moment(sc_h, q, k) - oh.r_moments[k])
                       <= 1e-11 * abs(oh.r_moments[k]))
            mom_ok &= (abs(oscillator_r_moment(sc_o, q, k) - oo.r_moments[k])
                       <= 1e-11 * abs(oo.r_moments[k]))

    all_ok = extremal_ok and pro_ok and bound_ok and ov_ok and lw_ok and mom_ok
    _report("9 (property suites)", all_ok,
            f"extremal={extremal_ok} pro={pro_ok} bounds={bound_ok} "
            f"overlap={ov_ok} lambert={lw_ok} moments={mom_ok}")


def test_criterion_10_large_n_asymptotics():
    n = 200
    gold = tables.golden()["obs_ho_large_n"]
    ratios = tables._obs_ratios(AuxiliaryKind.QUADRATIC, n)
    ok = True
    details = []
    for key, constant in gold.items():
        diff = abs(ratios[key] - constant)
        details.append(f"{key}:{ratios[key]:.4f}")
        ok &= diff <= 0.002
    # Coulomb-basis rows carry 1/n corrections quoted in the same table
    gold_hy = tables.golden()["obs_hy_large_n"]
    ratios_hy = tables._obs_ratios(AuxiliaryKind.COULOMB, n)
    for key, (c0, c1) in gold_hy.items():
        ok &= abs(ratios_hy[key] - (c0 + c1 / n)) <= 0.002
    _report("10 (large-n asymptotics)", ok, " ".join(details))
