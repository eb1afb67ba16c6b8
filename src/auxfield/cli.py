"""Command-line reproduction harness.

Subcommands::

    auxfield solve <family> <aux> <n> <l> [--k K]
    auxfield table <id> [--format csv|json] [--strict] [--out PATH]
    auxfield wavefunction <family> <aux|exact> <n> <l> [--r-max R] [--samples N]
    auxfield oracle <family> <n> <l> [--k K] [--r-max R] [--grid-points N]

Exit codes: 0 success, 2 no bound state (machine-readable reason on
stdout), 64 usage error, 70 numeric failure.  All data streams are
deterministic; units are reduced per family (see --help-units).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import observables, tables
from .afm import AuxiliaryKind, PotentialModel, afm_solve
from .errors import (AuxFieldError, DomainError, NoBoundState, NoSolution,
                     NumericalFailure)
from .exact import HydrogenScale, QuantumNumbers, linear_s_state
from .oracle import SolverConfig, numeric_observables, solve_radial

EX_OK = 0
EX_NOSTATE = 2
EX_USAGE = 64
EX_SOFTWARE = 70

_UNITS_TEXT = """\
Reduced units per potential family:
  linear   H = p^2 + r          (2m = a = 1; energies in (a^2/2m)^(1/3),
                                 lengths in (2 m a)^(-1/3) for general m, a)
  log      H = p^2/4 + ln r     (fixed form; the relative spectrum is
                                 mass independent)
  exp      H = p^2 - k e^(-r)   (depth k > 0; lengths in units of the
                                 screening radius)
All CLI output is in these reduced units.
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _family(value: str) -> str:
    aliases = {"linear": "linear", "log": "log", "logarithmic": "log",
               "exp": "exp", "exponential": "exp"}
    if value not in aliases:
        raise argparse.ArgumentTypeError(
            f"family must be one of {sorted(set(aliases))}")
    return aliases[value]


def _model(family: str, k: Optional[float]) -> PotentialModel:
    if family == "exp":
        if k is None:
            raise DomainError("the exponential family requires --k")
        return PotentialModel.exponential(k)
    if family == "log":
        return PotentialModel.logarithmic()
    return PotentialModel.linear()


def _aux(value: str) -> AuxiliaryKind:
    if value == "coulomb":
        return AuxiliaryKind.COULOMB
    if value == "quadratic":
        return AuxiliaryKind.QUADRATIC
    raise argparse.ArgumentTypeError("aux must be 'coulomb' or 'quadratic'")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(record) -> str:
    """Strict JSON text: a non-finite number is a numeric failure, not output."""
    try:
        return json.dumps(record, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalFailure("non-finite value in the result") from None


def _cmd_solve(args) -> int:
    v = _model(args.family, args.k)
    q = QuantumNumbers(args.n, args.l)
    sol = afm_solve(v, args.aux, q)
    obs = observables.afm_observable_set(v, sol, q)
    mean_h = (obs.mean_h if obs.mean_h is not None
              else observables.mean_hamiltonian(v, sol, q))
    record = {
        "family": args.family,
        "aux": args.aux.value,
        "n": args.n,
        "l": args.l,
        "nu0": sol.nu0,
        "r0": sol.r0,
        "scale_kind": "eta" if isinstance(sol.scale, HydrogenScale) else "lambda",
        "scale": (sol.scale.eta if isinstance(sol.scale, HydrogenScale)
                  else sol.scale.lam),
        "energy": sol.energy,
        "offset": sol.offset,
        "bound": sol.bound.value,
        "condition_met": sol.condition_met,
        "principal_n": sol.principal_n,
        "p2": obs.p2,
        "p4": obs.p4,
        "psi0_sq": obs.psi0_sq,
        "mean_h": mean_h,
    }
    if args.family == "exp":
        record["k"] = args.k
    for k_exp, val in sorted(obs.r_moments.items()):
        record[f"r_moment_{k_exp}"] = val
    _emit(_json(record), args.out)
    return EX_OK


def _cmd_table(args) -> int:
    header, rows = tables.build_table(args.id)
    _emit(tables.format_rows(header, rows, args.format), args.out)
    if args.strict and not all(r.ok for r in rows):
        return 1
    return EX_OK


def _cmd_wavefunction(args) -> int:
    if not args.r_max > 0:
        raise DomainError("--r-max must be positive")
    samples = args.samples
    grid = np.linspace(0.0, args.r_max, samples)
    if args.aux == "exact":
        if args.family == "linear" and args.l == 0:
            state = linear_s_state(0.5, 1.0, args.n)
            psi = np.asarray(state.wavefunction(grid))
        else:
            v = _model(args.family, args.k)
            f = solve_radial(v, QuantumNumbers(args.n, args.l),
                             SolverConfig(r_max=max(args.r_max, 30.0)))
            u_interp = np.interp(grid, f.grid, f.values)
            psi = np.empty_like(grid)
            psi[1:] = u_interp[1:] / (grid[1:] * math.sqrt(4.0 * math.pi))
            psi[0] = psi[1]
    else:
        if args.aux not in ("coulomb", "quadratic"):
            raise DomainError("aux must be 'coulomb', 'quadratic' or 'exact'")
        v = _model(args.family, args.k)
        q = QuantumNumbers(args.n, args.l)
        sol = afm_solve(v, _aux(args.aux), q)
        radial, _ = observables.trial_radial(sol, q)
        psi = np.asarray(radial(grid)) / math.sqrt(4.0 * math.pi)
    lines = ["r,psi"]
    for r, p in zip(grid, psi):
        lines.append(f"{r:.6g},{p:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_oracle(args) -> int:
    v = _model(args.family, args.k)
    cfg = SolverConfig(r_max=args.r_max, grid_points=args.grid_points)
    f = solve_radial(v, QuantumNumbers(args.n, args.l), cfg)
    obs = numeric_observables(f, v)
    record = {
        "family": args.family,
        "n": args.n,
        "l": args.l,
        "energy": f.energy,
        "p2": obs.p2,
        "p4": obs.p4,
        "psi0_sq": obs.psi0_sq,
    }
    if args.family == "exp":
        record["k"] = args.k
    for k_exp, val in sorted(obs.r_moments.items()):
        record[f"r_moment_{k_exp}"] = val
    _emit(_json(record), args.out)
    return EX_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="auxfield",
                     description="Auxiliary-field bound-state calculator")
    parser.add_argument("--help-units", action="store_true",
                        help="describe the reduced units and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="closed-form AFM solution as JSON")
    p.add_argument("family", type=_family)
    p.add_argument("aux", type=_aux)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("id", choices=tables.TABLE_IDS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any row misses its tolerance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("wavefunction", help="sample a wavefunction as CSV")
    p.add_argument("family", type=_family)
    p.add_argument("aux", help="'coulomb', 'quadratic' or 'exact'")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--r-max", type=float, default=12.0)
    p.add_argument("--samples", type=int, default=601)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("oracle", help="numeric eigensolver result as JSON")
    p.add_argument("family", type=_family)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=20000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    if args.help_units:
        sys.stdout.write(_UNITS_TEXT)
        return EX_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except NoBoundState as exc:
        sys.stdout.write(json.dumps(
            {"error": "no-bound-state", "reason": exc.reason}, allow_nan=False) + "\n")
        return EX_NOSTATE
    except (DomainError, NoSolution) as exc:
        print(f"auxfield: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except NumericalFailure as exc:
        print(f"auxfield: numeric failure: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except AuxFieldError as exc:  # unexpected domain failure
        print(f"auxfield: error: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
