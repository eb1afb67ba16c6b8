"""The three benchmark workloads.

Each workload is a seeded list of operations ("ops").  ``run(seed,
seconds)`` executes a fixed number of ops, sized from ``seconds`` so that
a run takes about that long on a 2-vCPU host, times each op around the
package calls only, checks every output, and returns an ``Outcome``.
The same seed and seconds give the same ops, so ``attempted`` and
``failed`` repeat exactly from run to run.  Failed checks are tallied by
class:
a class listed in ``KNOWN_DEFECTS`` is a documented defect of the package
that the benchmark records on purpose; any other class makes the run
incorrect.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import TRACE_MARK, merge

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

KNOWN_DEFECTS = {
    # afm.tangent_check: finite-difference false negatives
    "tangent-fd",
}


@dataclass
class Outcome:
    op_times: list = field(default_factory=list)   # every op, seconds
    ok_times: list = field(default_factory=list)   # successful ops
    failures: collections.Counter = field(default_factory=collections.Counter)
    tallies: collections.Counter = field(default_factory=collections.Counter)
    attempted: int = 0                               # checked outputs
    evals: list = field(default_factory=list)        # every timed evaluation
    snapshot: dict = field(default_factory=dict)     # merged child traces
    batch: int = 1          # ops per timing batch (see op_samples)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        return set(self.failures) <= KNOWN_DEFECTS

    def op_samples(self):
        """Per-op times for the median: successful ops one by one, or, for
        batched workloads, the mean op time of each whole batch."""
        if self.batch == 1:
            return self.ok_times or self.op_times
        b = self.batch
        return [sum(self.op_times[i:i + b]) / b
                for i in range(0, len(self.op_times) - b + 1, b)]

    def record(self, dt, failure=None):
        """One op: failed (``failure`` names the class) or a success."""
        self.op_times.append(dt)
        if failure is not None:
            self.failures[failure] += 1
        else:
            self.ok_times.append(dt)


def _blocks(seconds, block_seconds):
    """Whole blocks of ops that take about ``seconds`` on a 2-vCPU host."""
    return max(1, round(seconds / block_seconds))


def _stratified(rng, pools, key, values):
    """Next value for ``key``: every value once in seeded order, then again."""
    pool = pools.setdefault(key, [])
    if not pool:
        pool.extend(values)
        rng.shuffle(pool)
    return pool.pop()


def _best_of_passes(ops, measure, passes, batch=1):
    """Run every op ``passes`` times, each pass from empty package caches.

    ``measure(op)`` returns (seconds, failure class or None, tally names).
    An op's time is its fastest pass: the shared host has slow phases of
    seconds to tens of seconds, and passes spread over the whole run let
    each op meet a fast one.  An op fails if any pass fails it.
    """
    best = [math.inf] * len(ops)
    results = [None] * len(ops)
    out = Outcome(batch=batch)
    for _ in range(passes):
        clear_package_caches()
        for i, op in enumerate(ops):
            dt, failure, tallies = measure(op)
            out.evals.append(dt)
            best[i] = min(best[i], dt)
            if results[i] is None or results[i][0] is None:
                results[i] = (failure, tallies)
    for dt, (failure, tallies) in zip(best, results):
        out.record(dt, failure)
        out.tallies.update(tallies)
    out.attempted = len(ops)
    return out


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


# ----------------------------------------------------------------------
# tables: the paper reproduction
# ----------------------------------------------------------------------

def clear_package_caches():
    """Empty every functools cache held by an auxfield module."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("auxfield"):
            continue
        for value in vars(module).values():
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)   # look through trace spans
            if value is not None:
                value.cache_clear()


def _check_table(rows, csv_text, json_text):
    """Number of golden-backed rows and how many of them are not ok."""
    records = _strict_json(json_text)
    csv_lines = csv_text.splitlines()
    if len(records) != len(rows) or len(csv_lines) != len(rows) + 1:
        raise ValueError("formatted row count does not match the table")
    graded = [rec for rec in records if "ok" in rec]
    if graded and not csv_lines[0].endswith(",ok"):
        raise ValueError("CSV header lacks the ok column")
    bad = sum(1 for rec in graded if rec["ok"] is not True)
    bad_csv = sum(1 for line in csv_lines[1:] if graded and not line.endswith(",true"))
    return len(graded), max(bad, bad_csv)


TABLES_REPLAY_S = 20.0   # one replay; 22-31 s on a 2-vCPU host


def run_tables(seed, seconds):
    """Replays of all ten tables, each from empty package caches.

    The op is the whole reproduction; its time is the sum over tables of
    each table's fastest replay, which filters out the host's slow phases
    the way ``_best_of_passes`` does.  A row fails if any replay fails it.
    There is no generated input, so the seed is unused.
    """
    from auxfield import tables
    out = Outcome()
    best = dict.fromkeys(tables.TABLE_IDS, math.inf)
    graded, bad, rows_per_table = {}, collections.Counter(), {}
    for _ in range(_blocks(seconds, TABLES_REPLAY_S)):
        clear_package_caches()
        for table_id in tables.TABLE_IDS:
            t0 = time.perf_counter()
            header, rows = tables.build_table(table_id)
            csv_text = tables.format_rows(header, rows, "csv")
            json_text = tables.format_rows(header, rows, "json")
            dt = time.perf_counter() - t0
            out.evals.append(dt)
            best[table_id] = min(best[table_id], dt)
            graded[table_id], n_bad = _check_table(rows, csv_text, json_text)
            bad[table_id] = max(bad[table_id], n_bad)
            rows_per_table[table_id] = len(rows)
    total = sum(best.values())
    out.attempted = sum(graded.values())
    out.op_times.append(total)
    if sum(bad.values()):
        out.failures["table-row"] += sum(bad.values())
    else:
        out.ok_times.append(total)
    out.tallies["rows"] = sum(rows_per_table.values())
    return out


# ----------------------------------------------------------------------
# sweep: closed-form library traffic, no oracle
# ----------------------------------------------------------------------

SWEEP_K = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
SWEEP_BATCH = 24
SWEEP_BATCH_S = 0.25     # one pass over one batch
SWEEP_PASSES = 8


def sweep_inputs(seed):
    """Batches of 24 states: 4 per (family, basis) pair, in seeded order.

    Per pair, n, l and k are stratified: each pair walks through every n
    in 0..20, every l in 0..40 and every k once, in seeded order, before
    repeating one.  State cost grows steeply with n, so free draws would
    let the seed change a run's total cost by 10-20%.
    """
    rng = random.Random(f"sweep/{seed}")
    pools = {}
    cells = [(family, aux) for family in ("linear", "log", "exp")
             for aux in ("coulomb", "quadratic")] * (SWEEP_BATCH // 6)
    while True:
        rng.shuffle(cells)
        for cell in cells:
            yield (*cell, _stratified(rng, pools, (cell, "n"), range(21)),
                   _stratified(rng, pools, (cell, "l"), range(41)),
                   _stratified(rng, pools, (cell, "k"), SWEEP_K), rng.randint(0, 20))


def _model(af, family, k):
    if family == "linear":
        return af.PotentialModel.linear()
    if family == "log":
        return af.PotentialModel.logarithmic()
    return af.PotentialModel.exponential(k)


def _tangent_false_negative(af, v, kind, q, sol, rep):
    """True when tangent_check failed only on its finite-difference parts
    while an independent evaluation shows tangency and extremality hold."""
    if rep.sign_violations or rep.value_gap > 1e-10 * max(1.0, abs(float(v.v(sol.r0)))):
        return False
    slope = abs(sol.nu0 * float(kind.p_prime(sol.r0)) - float(v.v_prime(sol.r0)))
    if slope > 1e-8:
        return False
    if rep.extremality_residual <= 1e-6:
        return True
    for rel in (1e-5, 1e-6):   # 5-point stencil, step kept inside the branch
        d = rel * sol.nu0
        try:
            e = [af.energy_at_aux(v, kind, q, sol.nu0 + j * d) for j in (-2, -1, 1, 2)]
        except af.AuxFieldError:
            continue
        deriv = (8.0 * (e[2] - e[1]) - (e[3] - e[0])) / (12.0 * d)
        return abs(deriv) * sol.nu0 / abs(sol.energy) <= 1e-6
    return False


def _sweep_state(af, family, aux, n, l, k, n_prime):
    """One timed state: (seconds, failure class or None, tally names)."""
    kind = af.AuxiliaryKind(aux)
    v = _model(af, family, k)
    q = af.QuantumNumbers(n, l)
    clock = time.perf_counter
    t0 = clock()
    try:
        sol = af.afm_solve(v, kind, q)
        af.afm_observable_set(v, sol, q)
        mean_h = af.mean_hamiltonian(v, sol, q)
        samples = sol.r0 * np.linspace(0.1, 3.0, 9)
        rep = af.tangent_check(v, kind, sol, samples)
        if family == "linear" and l == 0:
            ref = af.linear_s_observables(0.5, 1.0, n)
            pair = af.afm_pair_overlap(kind, n, n_prime, 0)
    except af.NoBoundState:
        return clock() - t0, None, ("no_bound_state",)
    except Exception as exc:  # any exception from the package fails the op
        return clock() - t0, f"raised-{type(exc).__name__}", ()
    dt = clock() - t0
    failure = None
    if sol.bound is af.Bound.UPPER and not mean_h <= sol.energy + 1e-10 * abs(sol.energy):
        failure = "mean-h-above-upper-bound"
    elif family == "linear" and l == 0 and not (
            math.isfinite(ref.mean_h) and abs(pair) <= 1.0 + 1e-9):
        failure = "linear-s-state"
    elif not rep.ok:
        failure = ("tangent-fd" if _tangent_false_negative(af, v, kind, q, sol, rep)
                   else "tangent-check")
    return dt, failure, ()


def run_sweep(seed, seconds):
    """SWEEP_PASSES passes over one seeded list of states."""
    import auxfield as af
    count = SWEEP_BATCH * _blocks(seconds, SWEEP_PASSES * SWEEP_BATCH_S)
    states = list(itertools.islice(sweep_inputs(seed), count))
    return _best_of_passes(states, lambda state: _sweep_state(af, *state),
                           SWEEP_PASSES, batch=SWEEP_BATCH)


# ----------------------------------------------------------------------
# cold: one-shot CLI processes
# ----------------------------------------------------------------------

COLD_BLOCK = 8
COLD_BLOCK_S = 10.0      # one pass over one cycle of 8 commands
COLD_PASSES = 2


def cold_inputs(seed):
    """Cycles of eight commands: (argv, expected exit code, stdout check)."""
    rng = random.Random(f"cold/{seed}")
    e2 = math.e ** 2

    def small():
        return str(rng.randint(0, 4)), str(rng.randint(0, 4))

    def aux():
        return rng.choice(("coulomb", "quadratic"))

    while True:
        n, l = rng.randint(0, 3), rng.randint(0, 3)
        deep = rng.uniform(2.0, 8.0) * e2 * (2 * n + l + 1.5) ** 2 / 4.0
        shallow = rng.uniform(0.2, 0.9) * e2 * (2 * n + l + 1.5) ** 2 / 4.0
        oracle_family = rng.choice(("linear", "log", "exp"))
        oracle_k = ["--k", repr(deep)] if oracle_family == "exp" else []
        usage = rng.choice((["solve", "linear", "cubic", "0", "0"],
                            ["solve", "exp", "coulomb", "0", "0"],
                            ["table", "no-such-table"],
                            ["oracle", "log", "0", "0", "--grid-points", "100"]))
        cycle = [
            (["solve", "linear", aux(), *small()], 0, "solve"),
            (["solve", "log", aux(), *small()], 0, "solve"),
            (["solve", "exp", aux(), str(n), str(l), "--k", repr(deep)], 0, "solve"),
            (["--help-units"], 0, "units"),
            (["table", "overlap-hy", "--format", "json"], 0, "table"),
            (["oracle", oracle_family, str(n), str(l), *oracle_k,
              "--grid-points", "2000"], 0, "solve"),
            (usage, 64, "usage"),
            (["solve", "exp", "quadratic", str(n), str(l), "--k", repr(shallow)], 2,
             "no-state"),
        ]
        rng.shuffle(cycle)
        yield from cycle


def _check_cold(kind, stdout):
    if kind == "units":
        return stdout.startswith("Reduced units")
    if kind == "usage":
        return stdout == ""
    payload = _strict_json(stdout)
    if kind == "table":
        return bool(payload) and all(rec["ok"] is True for rec in payload)
    if kind == "no-state":
        return payload.get("error") == "no-bound-state"
    return math.isfinite(payload["energy"])


def child_env():
    """Environment of every child: sources from src/, bytecode caches on."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_cold(seed, seconds, traced=False):
    """COLD_PASSES passes over one seeded list of commands."""
    env = child_env()
    if traced:
        prefix = [sys.executable, str(HERE / "traced_cli.py")]
    else:
        prefix = [sys.executable, "-m", "auxfield.cli"]
    snapshot = {}

    def measure(command):
        argv, expect, kind = command
        t0 = time.perf_counter()
        proc = subprocess.run(prefix + argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        if traced:
            merge(snapshot, json.loads(proc.stderr.rpartition(TRACE_MARK)[2]))
        try:
            ok = proc.returncode == expect and _check_cold(kind, proc.stdout)
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
        return dt, None if ok else f"cli-{kind}", (f"exit_{proc.returncode}",)

    count = COLD_BLOCK * _blocks(seconds, COLD_PASSES * COLD_BLOCK_S)
    commands = list(itertools.islice(cold_inputs(seed), count))
    out = _best_of_passes(commands, measure, COLD_PASSES)
    out.snapshot = snapshot
    return out


WORKLOADS = {"tables": run_tables, "sweep": run_sweep, "cold": run_cold}
