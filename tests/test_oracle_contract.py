"""Seeded contract test of ``auxfield oracle``, in process through ``cli.main``.

Commands are drawn from the command's grammar with its extremes: n and l
up to 100000 (the cap), the exponential depth k from 1e-300 to 1e308,
tiny and huge ``--r-max`` and ``--grid-points`` at 2000 and 2000000.
Every command must exit 0, 2, 64 or 70, print stdout that parses as JSON
with NaN and Infinity refused, leave no traceback and no RuntimeWarning,
and finish within ``WALL_BUDGET_S``.  A state whose first two rungs would
pass the cap is refused before any mesh is built.  The baseline commands, a
list of inputs that once failed, keep pinned exit codes, and those that
answer match an independent reference; any that still fail are named in
``KNOWN_DEFECTS`` with the reason.  A few commands also run as
``python -m auxfield.cli`` subprocesses.  Deep exponential wells (l up to
100000, S-states up to k = 1e14) are drawn too: an exit 2 where the
quadratic AFM energy, a proven upper bound, lies below the continuum
threshold fails, as does an energy above that bound.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import math

import numpy as np
import pytest

import reference
from auxfield import oracle
from auxfield.afm import AuxiliaryKind, PotentialModel, afm_solve
from auxfield.cli import main
from auxfield.errors import NoBoundState
from auxfield.exact import QuantumNumbers

WALL_BUDGET_S = 10.0    # slowest drawn command measured at about 2 s on a 2-vCPU host

# the baseline commands and the exit code each gives
BASELINE = {
    "oracle exp 13 24 --k 189407.0537243066": 0,
    "oracle exp 0 0 --k 20000 --grid-points 2000": 0,
    "oracle exp 0 20 --k 30000 --grid-points 2000": 0,
    "oracle exp 2 15 --k 9228.103945268922 --grid-points 2000": 0,
    "oracle exp 26 5 --k 10599.226324827208 --grid-points 2000": 0,
    "oracle exp 0 0 --k 1.47": 0,
    "oracle exp 0 0 --k 1.44": 2,
    "oracle linear 2000 0 --grid-points 200000": 70,
    "oracle log 1000 0 --grid-points 200000": 70,
}

# baseline commands whose exit code is a defect, and why (none left: the deep
# wells on coarse grids, which failed the Numerov oracle's node check, and the
# near-threshold k = 1.47, whose domain was once too short, now answer)
KNOWN_DEFECTS = {}

# baseline commands refused by the first mesh's cap before any mesh is built
MESH_CAPPED = ("oracle linear 2000 0 --grid-points 200000", "oracle log 1000 0 --grid-points 200000")


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=refuse)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall, [str(w.message) for w in caught]


def _draws(seed, count):
    """Seeded ``oracle`` argument lists over the grammar's extremes."""
    rng = np.random.default_rng(seed)

    def quantum():
        # small numbers most of the time, then up to the cap of 100000
        return str(int(rng.choice([rng.integers(0, 6), rng.integers(0, 41),
                                   int(10 ** rng.uniform(2.0, 5.0))])))

    commands = []
    for i in range(count):
        family = ("linear", "log", "exp")[i % 3]
        argv = ["oracle", family, quantum(), quantum()]
        if family == "exp":
            argv += ["--k", repr(float(10 ** rng.uniform(-300.0, 308.0)))
                     if rng.random() < 0.5 else repr(float(10 ** rng.uniform(0.0, 5.0)))]
        draw = rng.random()
        if draw < 0.2:
            argv += ["--r-max", repr(float(10 ** rng.uniform(-300.0, -2.0)))]
        elif draw < 0.4:
            argv += ["--r-max", repr(float(10 ** rng.uniform(3.0, 308.0)))]
        if i % 20 == 7:
            argv += ["--grid-points", "2000000"]
        elif rng.random() < 0.3:
            argv += ["--grid-points", "2000"]
        commands.append(argv)
    return commands


def _assert_contract(argv):
    code, out, err, wall, caught = _run(argv)
    case = (" ".join(argv), code, err)
    assert code in (0, 2, 64, 70), case
    if out:
        _strict_json(out)
    assert "Traceback" not in err and "RuntimeWarning" not in err, case
    assert not caught, (case, caught)
    assert wall <= WALL_BUDGET_S, (case, wall)
    return code, err, out


def test_drawn_oracle_commands_keep_the_contract():
    codes = {_assert_contract(argv)[0] for argv in _draws(20261031, 60)}
    assert {0, 2, 70} <= codes


def _deep_wells(seed):
    """Seeded exp states (k, n, l): 24 with l <= 100000 (log-uniform), k = c (l + 1.5)^2
    for c log-uniform on [2, 1e4] and n <= 5, and 16 S-states with k log-uniform on
    [2, 1e14] and n <= 50."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(24):
        l = int(10 ** rng.uniform(0.0, 5.0))
        c = 10 ** rng.uniform(math.log10(2.0), 4.0)
        states.append((float(c * (l + 1.5) ** 2), int(rng.integers(0, 6)), l))
    for _ in range(16):
        k = float(10 ** rng.uniform(math.log10(2.0), 14.0))
        states.append((k, int(rng.integers(0, 51)), 0))
    return states


def test_deep_wells_are_never_denied_a_proven_state():
    # the quadratic AFM energy is a proven upper bound (-k e^(-sqrt P) is
    # concave in P = r^2): where it lies below the continuum threshold the
    # state exists, so exit 2 contradicts it, and an energy the oracle returns
    # lies at or below it, and at or above the Coulomb AFM energy where that
    # lower bound's condition holds
    answered = 0
    for k, n, l in _deep_wells(20261046):
        v, q = PotentialModel.exponential(k), QuantumNumbers(n, l)
        case = f"oracle exp {n} {l} --k {k!r}"
        try:
            upper = afm_solve(v, AuxiliaryKind.QUADRATIC, q).energy
        except NoBoundState:
            upper = math.inf
        code, err, out = _assert_contract(case.split())
        assert not (code == 2 and upper < v.continuum_threshold), (case, upper)
        if code == 0:
            energy, lower = _strict_json(out)["energy"], afm_solve(v, AuxiliaryKind.COULOMB, q)
            assert energy <= upper, (case, energy, upper)
            assert not lower.condition_met or energy >= lower.energy, (case, energy, lower)
            answered += 1
    assert answered >= 36


@pytest.mark.parametrize("argv", [
    "oracle linear 0 0", "oracle exp 0 0 --k 1e-300", "oracle exp 0 0 --k 1e308",
    "oracle log 0 0 --r-max 1e-300", "oracle linear 0 0 --r-max 1e308",
    "oracle exp 3 2 --k 5e4 --r-max 1e-3", "oracle linear 100000 100000",
    "oracle log 3 100000 --grid-points 2000", "oracle exp 0 0 --k 1.47",
])
def test_extreme_oracle_commands_keep_the_contract(argv):
    _assert_contract(argv.split())


def test_state_above_the_mesh_cap_is_refused_before_the_mesh():
    # n = 100000 needs a first rung of the phase bound's 204141 points (above
    # 2n + 40 = 200040), a matrix of 333 GB; the refusal names the cap after
    # the WKB rows and 2m V + l(l+1)/r^2 on them exist, before any mesh is built
    tracemalloc.start()
    try:
        code, out, err, wall, caught = _run(["oracle", "linear", "100000", "0",
                                             "--grid-points", "2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, caught) == (70, "", [])
    assert ("needs a Lagrange mesh of 204141 points on [0, 7097.67], above the cap of 2000"
            in err), err
    assert wall <= WALL_BUDGET_S
    assert peak <= 100e6, peak    # measured 0.11 MB


@pytest.mark.parametrize("command", BASELINE)
def test_baseline_commands_keep_their_exit_codes(command, monkeypatch):
    build = oracle._mesh
    meshes = []
    monkeypatch.setattr(oracle, "_mesh", lambda points: meshes.append(points) or build(points))
    code, err, _ = _assert_contract(command.split())
    assert code == BASELINE[command], err
    if command in MESH_CAPPED:
        assert "above the cap of 2000" in err and not meshes
    # a command that fails is refused by the cap or is a named defect
    assert (command in KNOWN_DEFECTS) == (code not in (0, 2) and command not in MESH_CAPPED)


def _energy(command):
    code, out, err, _, _ = _run(command.split())
    assert code == 0, err
    return _strict_json(out)["energy"]


@pytest.mark.parametrize("k, n, l, bound", [(20000.0, 0, 0, 1e-12), (1.47, 0, 0, 1e-10),
                                            (30000.0, 0, 20, 1e-11),
                                            (9228.103945268922, 2, 15, 1e-10),
                                            (10599.226324827208, 26, 5, 1e-10)])
def test_baseline_energies_match_their_references(k, n, l, bound):
    # S-states against the exact Bessel-zero energy: k = 20000 within 1e-12
    # relative (measured 2.2e-15), k = 1.47 within 1e-10 absolute (the energy
    # is -4.2e-5; measured 1.1e-14); l > 0 against the reference mesh on N
    # and 1.25 N points: l = 20 within 1e-11, exp 2 15 and exp 26 5 within
    # 1e-10 relative (measured 7.7e-15, 7.7e-15 and 1.5e-14; the Numerov
    # oracle's 2000-point answer to exp 2 15 was 1.1e-3 off, and it refused
    # exp 26 5)
    command = f"oracle exp {n} {l} --k {k!r}" + (" --grid-points 2000" if k > 2 else "")
    energy = _energy(command)
    if l == 0:
        exact = reference.exp_s_energy(k, n, 2.0 * math.sqrt(-energy))
        error = abs(energy - exact) / (abs(exact) if k > 2 else 1.0)
    else:
        v, q = PotentialModel.exponential(k), QuantumNumbers(n, l)
        level = reference.lagrange_mesh_level(v.v, v.mass, q, 2 * n + 120,
                                              reference.reference_r_max(v, q))
        assert level.is_reference(0.0), level
        error = abs(energy - level.energy) / abs(level.energy)
    assert error <= bound, (command, energy, error)


@pytest.mark.parametrize("command", ["oracle exp 13 24 --k 189407.0537243066",
                                     "oracle exp 0 0 --k 1.47",
                                     "oracle linear 2000 0 --grid-points 200000",
                                     "oracle exp 0 0 --k 1.44"])
def test_baseline_commands_keep_the_contract_as_subprocesses(command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "auxfield.cli", *command.split()],
                          capture_output=True, text=True, env=env, timeout=WALL_BUDGET_S)
    assert proc.returncode == BASELINE[command], proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if proc.returncode == 70:
        assert proc.stdout == ""
    else:
        _strict_json(proc.stdout)
