"""Reproduction of the published comparison tables.

Every builder returns (header, rows) where each row carries the computed
value, the embedded published value, their absolute difference and a
per-row pass flag at the table's tolerance.  Rows are generated in a
fixed order and formatted to 4 significant digits (a CSV diff below 1e-9,
the oracle's rounding, as 0), so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Dict, List, Optional, Tuple

from ._numpy import np
from . import observables, overlaps
from .afm import AuxiliaryKind, PotentialModel, afm_solve
from .errors import AuxFieldError, DomainError, NumericalFailure
from .exact import QuantumNumbers, linear_s_observables, linear_s_state
from .oracle import RadialFunction, gauss_laguerre, numeric_observables, solve_radial, solve_wave

__all__ = ["TABLE_IDS", "Row", "golden", "build_table", "format_rows", "oracle_state",
           "linear_exact_function", "linear_afm_overlap_sq", "sample_psi", "wavefunction_samples"]

_KINDS = {"hy": AuxiliaryKind.COULOMB, "ho": AuxiliaryKind.QUADRATIC}


@lru_cache(maxsize=1)
def golden() -> dict:
    with resources.files("auxfield.data").joinpath("golden.json").open() as fh:
        return json.load(fh)


def _last_digit_tol(printed: str) -> float:
    if "." not in printed:
        return 1.0
    return 10.0 ** -(len(printed) - printed.index(".") - 1)


@dataclass
class Row:
    labels: Dict[str, object]
    computed: Optional[float]
    published: Optional[str]
    tol: Optional[float]

    @property
    def diff(self) -> Optional[float]:
        if self.computed is None or self.published is None:
            return None
        return abs(self.computed - float(self.published))

    @property
    def ok(self) -> bool:
        if self.computed is None and self.published is None:
            return True  # both sides agree the state does not exist
        if self.computed is None or self.published is None:
            return False
        return bool(self.diff <= self.tol)


# ----------------------------------------------------------------------
# shared state caches (pure recomputations, memoized for table reuse)
# ----------------------------------------------------------------------

_LINEAR = PotentialModel.linear()


@lru_cache(maxsize=1)
def _wave_tops() -> Dict[Tuple[PotentialModel, int], int]:
    """The top level the tables read of each oracle partial wave (v, l) but the log S-wave,
    which converges only algebraically: one ladder would move its lower levels by 1e-10."""
    gold, log = golden(), PotentialModel.logarithmic()
    states = [(_LINEAR, int(l), len(ns) - 1) for l, ns in gold["ratios_hy"]["eps"].items()]
    states += [(log, rec["l"], rec["n"]) for rec in gold["log_results"] if rec["l"]]
    states += [(PotentialModel.exponential(float(rec["k"])), rec["l"], rec["n"])
               for rec in gold["exp_results"]]
    return {(v, l): n for v, l, n in sorted(states, key=lambda state: state[2])}


@lru_cache(maxsize=None)
def _wave(v: PotentialModel, q: QuantumNumbers) -> Tuple[RadialFunction, ...]:
    """Levels 0 .. q.n of partial wave q.l from one oracle ladder, () where that ladder fails."""
    try:
        return solve_wave(v, q, 0)
    except AuxFieldError:
        return ()


@lru_cache(maxsize=None)
def oracle_state(v: PotentialModel, q: QuantumNumbers) -> Tuple[RadialFunction, object]:
    """Converged oracle eigenstate of ``v`` and its quadrature observables: level q.n of its
    wave's ladder, on the domain fitted at the wave's top level, or its own ladder above that
    level, outside the declared waves or where the wave's ladder fails."""
    top = _wave_tops().get((v, q.l), -1)
    wave = _wave(v, QuantumNumbers(top, q.l)) if q.n <= top else ()
    f = wave[q.n] if wave else solve_radial(v, q)
    return f, numeric_observables(f, v)


@lru_cache(maxsize=None)
def linear_exact_function(n: int) -> RadialFunction:
    """Exact linear-potential S state sampled for overlaps at the nodes of the
    2n + 40 point Gauss-Laguerre rule on [0, |alpha_n| + 16], its last node at the
    end; psi between the nodes is their Lagrange expansion."""
    state = linear_s_state(_LINEAR.m, _LINEAR.a, n)
    x, wts = gauss_laguerre(2 * n + 40)
    h = (abs(state.alpha_n) + 16.0) / float(x[-1])
    return overlaps.sample_radial(lambda r: math.sqrt(4.0 * math.pi) * state.wavefunction(r),
                                  h * x, h * wts, energy=state.energy, q=QuantumNumbers(n, 0))


@lru_cache(maxsize=None)
def linear_afm_overlap_sq(kind_key: str, n: int) -> float:
    """|<exact linear n | AFM trial n>|^2 (reduced units, l = 0)."""
    return _ratios(_LINEAR, _KINDS[kind_key], QuantumNumbers(n, 0),
                   linear_s_observables(_LINEAR.m, _LINEAR.a, n),
                   linear_exact_function(n))["overlap"]


def _ratios(v: PotentialModel, kind: AuxiliaryKind, q: QuantumNumbers,
            ref, fn: Optional[RadialFunction] = None) -> Dict[str, float]:
    """Every ratio a table prints of the AFM state (v, kind, q) over the
    reference state whose ObservableSet is ``ref`` (``ref.mean_h`` its
    energy): eps, mean_h, r1 .. r4, p2, p4, psi0 for l = 0 and, when the
    sampled reference ``fn`` is given, the squared overlap with it."""
    sol = afm_solve(v, kind, q)
    obs = observables.afm_observable_set(v, sol, q)
    out = {"eps": sol.energy / ref.mean_h,
           "mean_h": observables.mean_hamiltonian(v, sol, q, obs) / ref.mean_h,
           "p2": obs.p2 / ref.p2, "p4": obs.p4 / ref.p4}
    out.update((f"r{k}", obs.r_moments[k] / ref.r_moments[k]) for k in range(1, 5))
    if q.l == 0:
        out["psi0"] = obs.psi0_sq / ref.psi0_sq
    if fn is not None:
        trial = overlaps.sample_radial(sol.scale.radial(q), fn.grid, fn.weights, q=q)
        out["overlap"] = overlaps.numeric_overlap(fn, trial) ** 2
    return out


def _vs_oracle(v: PotentialModel, kind: AuxiliaryKind, q: QuantumNumbers,
               overlap: bool) -> Dict[str, float]:
    """``_ratios`` over the oracle state of (v, q), with the overlap when
    asked; {} when either side raises AuxFieldError, so that the row's
    cells are None, the row is marked failed and the table goes on."""
    try:
        fn, ref = oracle_state(v, q)
        return _ratios(v, kind, q, ref, fn if overlap else None)
    except AuxFieldError:
        return {}


def _tol(kind_key: str, key: str) -> float:
    """Tolerance of the obs-* and ratios-* rows."""
    return 0.002 if kind_key == "ho" or key in ("eps", "p2") else 0.003


# ----------------------------------------------------------------------
# table builders
# ----------------------------------------------------------------------

def _build_overlap(kind_key: str) -> Tuple[List[str], List[Row]]:
    rows = []
    for rec in golden()[f"overlap_{kind_key}"]:
        val = overlaps.afm_pair_overlap(_KINDS[kind_key], rec["n"],
                                        rec["n_prime"], rec["l"]) ** 2
        rows.append(Row({"n": rec["n"], "n_prime": rec["n_prime"], "l": rec["l"]},
                        val, rec["value"], _last_digit_tol(rec["value"])))
    return ["n", "n_prime", "l"], rows


def _build_obs(kind_key: str) -> Tuple[List[str], List[Row]]:
    gold = golden()[f"obs_{kind_key}"]
    ratios = [_ratios(_LINEAR, _KINDS[kind_key], QuantumNumbers(n, 0),
                      linear_s_observables(_LINEAR.m, _LINEAR.a, n)) for n in range(3)]
    rows = [Row({"observable": key, "n": n}, ratios[n][key], gold[key][n], _tol(kind_key, key))
            for key in ("psi0", "r1", "r2", "r3", "r4", "p2", "p4", "mean_h", "eps")
            for n in range(3)]
    return ["observable", "n"], rows


def _build_ratios(kind_key: str) -> Tuple[List[str], List[Row]]:
    gold = golden()[f"ratios_{kind_key}"]
    states = [QuantumNumbers(n, l) for l in range(3) for n in range(6)]
    ratios = {q: _vs_oracle(_LINEAR, _KINDS[kind_key], q, False) for q in states}
    rows = [Row({"quantity": key, "l": q.l, "n": q.n}, ratios[q].get(key),
                gold[key][str(q.l)][q.n], _tol(kind_key, key))
            for key in ("eps", "r1") for q in states]
    return ["quantity", "l", "n"], rows


def _build_eckart() -> Tuple[List[str], List[Row]]:
    gold = golden()["eckart"]
    v = _LINEAR
    e0, e1 = (linear_s_observables(v.m, v.a, n).mean_h for n in (0, 1))
    q0 = QuantumNumbers(0, 0)
    eps0_hy = afm_solve(v, AuxiliaryKind.COULOMB, q0).energy
    eps1_hy = afm_solve(v, AuxiliaryKind.COULOMB, QuantumNumbers(1, 0)).energy
    eps1_ho = afm_solve(v, AuxiliaryKind.QUADRATIC, QuantumNumbers(1, 0)).energy
    rows = []
    for trial_key in ("hy0", "ho0"):
        kind = _KINDS[trial_key[:2]]
        sol = afm_solve(v, kind, q0)
        h_trial = observables.mean_hamiltonian(v, sol, q0)
        # B'_E only sees the AFM two-sided bounds, not the exact energies
        values = {"overlap": linear_afm_overlap_sq(trial_key[:2], 0),
                  "b_e": observables.eckart_bound(h_trial, e1, e1, e0),
                  "b_e_prime": observables.eckart_bound(h_trial, eps1_hy,
                                                        eps1_ho, eps0_hy)}
        for col in ("overlap", "b_e", "b_e_prime"):
            rows.append(Row({"trial": trial_key, "column": col}, values[col],
                            gold[trial_key][col], 0.003))
    return ["trial", "column"], rows


# the published columns of the log and exp tables, as keys of _ratios
_RATIO_COLS = {"re": "eps", "rr2": "r2", "rp2": "p2", "overlap": "overlap"}


def _build_log() -> Tuple[List[str], List[Row]]:
    v = PotentialModel.logarithmic()
    rows = []
    for rec in golden()["log_results"]:
        n, l, basis = rec["n"], rec["l"], rec["basis"]
        ratios = _vs_oracle(v, _KINDS[basis], QuantumNumbers(n, l), True)
        for col, key in _RATIO_COLS.items():
            rows.append(Row({"l": l, "n": n, "basis": basis, "quantity": col},
                            ratios.get(key), rec[col], 0.003))
    return ["l", "n", "basis", "quantity"], rows


def _exp_tol(col: str, printed: str) -> float:
    if col == "overlap":
        return _last_digit_tol(printed)
    val = abs(float(printed))
    if val >= 50.0:
        return 0.5
    # 1% relative, but never tighter than the print precision itself
    return max(0.01 * val, _last_digit_tol(printed))


def _build_exp() -> Tuple[List[str], List[Row]]:
    rows = []
    for rec in golden()["exp_results"]:
        n, l = rec["n"], rec["l"]
        v = PotentialModel.exponential(float(rec["k"]))
        q = QuantumNumbers(n, l)
        try:
            energy = oracle_state(v, q)[0].energy
        except AuxFieldError:
            energy = None
        e_tol = 0.001 if abs(float(rec["energy"])) < 0.1 else 0.002
        rows.append(Row({"k": rec["k"], "l": l, "n": n, "basis": "",
                         "quantity": "energy"}, energy, rec["energy"], e_tol))
        for basis in ("ho", "hy"):
            ratios = _vs_oracle(v, _KINDS[basis], q, True) if energy is not None else {}
            gold_cols = rec[basis] or dict.fromkeys(_RATIO_COLS)
            for col, key in _RATIO_COLS.items():
                printed = gold_cols[col]
                tol = _exp_tol(col, printed) if printed is not None else None
                rows.append(Row({"k": rec["k"], "l": l, "n": n, "basis": basis,
                                 "quantity": col}, ratios.get(key), printed, tol))
    return ["k", "l", "n", "basis", "quantity"], rows


def sample_psi(v: PotentialModel, aux: str, q: QuantumNumbers,
               grid: np.ndarray) -> np.ndarray:
    """psi(r) on ``grid`` of the AFM trial state (``aux`` 'coulomb' or
    'quadratic') or of the exact state ('exact'): the closed form where one
    exists, else the oracle state's own psi, its Lagrange expansion."""
    if aux in ("coulomb", "quadratic"):
        sol = afm_solve(v, AuxiliaryKind(aux), q)
        return np.asarray(sol.scale.radial(q)(grid)) / math.sqrt(4.0 * math.pi)
    if aux != "exact":
        raise DomainError("aux must be 'coulomb', 'quadratic' or 'exact'")
    exact = v.exact_wavefunction(q)
    if exact is not None:
        return np.asarray(exact(grid))
    f = solve_radial(v, q)
    return f.psi(grid, numeric_observables(f, v).psi0_sq)


def wavefunction_samples() -> Tuple[List[str], List[Row]]:
    """Radial wavefunction curves behind the two published figures."""
    grid = np.linspace(0.0, 12.0, 601)
    cols: Dict[str, np.ndarray] = {"r": grid}
    for n in (0, 1):
        q = QuantumNumbers(n, 0)
        cols[f"exact_n{n}"] = sample_psi(_LINEAR, "exact", q, grid)
        for key, kind in _KINDS.items():
            cols[f"{key}_n{n}"] = sample_psi(_LINEAR, kind.value, q, grid)
    rows = [Row({key: float(col[i]) for key, col in cols.items()}, None, None, None)
            for i in range(grid.size)]
    return list(cols), rows


_BUILDERS = {
    "overlap-hy": partial(_build_overlap, "hy"),
    "obs-hy": partial(_build_obs, "hy"),
    "ratios-hy": partial(_build_ratios, "hy"),
    "overlap-ho": partial(_build_overlap, "ho"),
    "obs-ho": partial(_build_obs, "ho"),
    "ratios-ho": partial(_build_ratios, "ho"),
    "eckart": _build_eckart,
    "log-results": _build_log,
    "exp-results": _build_exp,
    "fig-wavefunctions": wavefunction_samples,
}
TABLE_IDS = tuple(_BUILDERS)


def build_table(table_id: str) -> Tuple[List[str], List[Row]]:
    if table_id not in _BUILDERS:
        raise ValueError(f"unknown table id {table_id!r}; choose from {TABLE_IDS}")
    return _BUILDERS[table_id]()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def format_rows(header: List[str], rows: List[Row], fmt: str) -> str:
    """Render a built table as CSV or JSON text (deterministic).  The JSON is
    strict, a non-finite value raising NumericalFailure, and json's C encoder
    output re-indented to json.dumps(payload, indent=1, sort_keys=True), byte for byte."""
    with_golden = any(r.published is not None or r.tol is not None for r in rows)
    if fmt == "csv":
        lines = []
        if with_golden:
            lines.append(",".join(header + ["computed", "published", "diff", "ok"]))
            for r in rows:
                lines.append(",".join(
                    [_fmt(r.labels[h]) for h in header]
                    + [_fmt(r.computed), r.published if r.published is not None else "-",
                       _fmt(0.0 if r.diff is not None and r.diff < 1e-9 else r.diff),
                       str(r.ok).lower()]))
        else:
            lines.append(",".join(header))
            for r in rows:
                lines.append(",".join(_fmt(r.labels[h]) for h in header))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = []
        for r in rows:
            rec = dict(r.labels)
            if with_golden:
                rec.update(computed=r.computed, published=r.published, diff=r.diff, ok=r.ok)
            payload.append(rec)
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",\n  ", ": "))
        except ValueError:
            raise NumericalFailure("non-finite value in the table") from None
        if payload:  # escaped strings hold no raw newline, so "},\n  {" is a record join
            text = ("[\n {\n  " + text[2:-2].replace("},\n  {", "\n },\n {\n  ")
                    + "\n }\n]").replace("{\n  \n }", "{}")
        return text + "\n"
    raise ValueError(f"unknown format {fmt!r}")
