"""Command-line reproduction harness.

Subcommands::

    auxfield solve <family> <aux> <n> <l> [--k K]
    auxfield table <id> [--format csv|json] [--strict] [--out PATH]
    auxfield wavefunction <family> <aux|exact> <n> <l> [--r-max R] [--samples N]
    auxfield oracle <family> <n> <l> [--k K] [--grid-points N]

Exit codes: 0 success, 1 a row missed its tolerance under ``table
--strict`` (the table is still written), 2 no bound state
(machine-readable reason on stdout), 64 usage error, 70 numeric failure
or any other internal error.  All data streams are deterministic; units
are reduced per family (see --help-units).  ``--k`` is the exponential
depth and is rejected for the other families.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import observables, tables
from .afm import AuxiliaryKind, PotentialModel, afm_solve
from .errors import DomainError, NoBoundState, NumericalFailure
from .exact import QuantumNumbers
from .oracle import numeric_observables, solve_radial

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


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_record(record: dict, obs, args) -> int:
    """Add --k and the r moments, then emit strict JSON: a non-finite
    number is a numeric failure, not output."""
    if args.k is not None:
        record["k"] = args.k
    for k_exp, val in sorted(obs.r_moments.items()):
        record[f"r_moment_{k_exp}"] = val
    try:
        text = json.dumps(record, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalFailure("non-finite value in the result") from None
    _emit(text, args.out)
    return EX_OK


def _cmd_solve(args) -> int:
    v = PotentialModel.from_name(args.family, args.k)
    q = QuantumNumbers(args.n, args.l)
    sol = afm_solve(v, AuxiliaryKind(args.aux), q)
    obs = observables.afm_observable_set(v, sol, q)
    record = {
        "family": v.family,
        "aux": args.aux,
        "n": args.n,
        "l": args.l,
        "nu0": sol.nu0,
        "r0": sol.r0,
        "scale_kind": sol.scale.label,
        "scale": sol.scale.value,
        "energy": sol.energy,
        "offset": sol.offset,
        "bound": sol.bound.value,
        "condition_met": sol.condition_met,
        "principal_n": sol.principal_n,
        "p2": obs.p2,
        "p4": obs.p4,
        "psi0_sq": obs.psi0_sq,
        "mean_h": observables.mean_hamiltonian(v, sol, q, obs),
    }
    return _emit_record(record, obs, args)


def _cmd_table(args) -> int:
    header, rows = tables.build_table(args.id)
    _emit(tables.format_rows(header, rows, args.format), args.out)
    if args.strict and not all(r.ok for r in rows):
        return 1
    return EX_OK


def _cmd_wavefunction(args) -> int:
    if not (args.r_max > 0 and math.isfinite(args.r_max)):
        raise DomainError("--r-max must be positive and finite")
    if not 2 <= args.samples <= 2_000_000:
        raise DomainError("--samples must be between 2 and 2000000")
    v = PotentialModel.from_name(args.family, args.k)
    q = QuantumNumbers(args.n, args.l)
    import numpy as np  # local: cli has no __all__; probing its names must not load numpy
    grid = np.linspace(0.0, args.r_max, args.samples)
    psi = tables.sample_psi(v, args.aux, q, grid)
    lines = ["r,psi"]
    for r, p in zip(grid, psi):
        lines.append(f"{r:.6g},{p:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_oracle(args) -> int:
    v = PotentialModel.from_name(args.family, args.k)
    if not 2000 <= args.grid_points <= 2_000_000:
        raise DomainError("grid_points must be between 2000 and 2000000")
    f = solve_radial(v, QuantumNumbers(args.n, args.l))
    obs = numeric_observables(f, v)
    record = {
        "family": v.family,
        "n": args.n,
        "l": args.l,
        "energy": f.energy,
        "p2": obs.p2,
        "p4": obs.p4,
        "psi0_sq": obs.psi0_sq,
    }
    return _emit_record(record, obs, args)


def _build_parser() -> _Parser:
    parser = _Parser(prog="auxfield",
                     description="Auxiliary-field bound-state calculator")
    parser.add_argument("--help-units", action="store_true",
                        help="describe the reduced units and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="closed-form AFM solution as JSON")
    p.add_argument("family")
    p.add_argument("aux", choices=[kind.value for kind in AuxiliaryKind])
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("id", choices=tables.TABLE_IDS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any row misses its tolerance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("wavefunction", help="sample a wavefunction as CSV")
    p.add_argument("family")
    p.add_argument("aux", help="'coulomb', 'quadratic' or 'exact'")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--r-max", type=float, default=12.0)
    p.add_argument("--samples", type=int, default=601)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("oracle", help="numeric eigensolver result as JSON", description=(
        "Lagrange-mesh eigenstate as JSON.  At l = 0 linear and log answer every n <= 690; a level "
        "whose first mesh rung needs more than 1421 points is refused at once (exit 70)."))
    p.add_argument("family")
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=20000,
                   help="ignored (the mesh sets its own size), but must lie in [2000, 2000000]")
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
    except DomainError as exc:
        print(f"auxfield: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except NumericalFailure as exc:
        print(f"auxfield: numeric failure: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except Exception as exc:  # any other failure is a defect, never a traceback
        print(f"auxfield: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
