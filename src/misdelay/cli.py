"""Command line front end.

Subcommands: characterize (fit parameters from measured extremal
delays), delay-curve (tabulate the four delay families over a
separation grid), verify (sweep closed forms against the trajectory
and ODE oracles), simulate (run a netlist to VCD + stats).

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
Failures emit a one-line JSON diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .characterize import (InvalidMeasurementsError, characterize_cgate,
                           characterize_nor)
from .fileio import (SchemaError, _dumps, _read_document, atomic_write,
                     list_fixtures, load_fixture, parse_measured,
                     parse_netlist, parse_params, serialize_params,
                     serialize_stats, write_curve_csv, write_vcd)
from .gates import (DelayQuery, ParamError, _kind_of, _output_families,
                    nor_delay)
from .numerics import (ConvergenceError, DomainError, NoCrossingError,
                       NoSignChangeError, StepUnderflowError)
from .sim import CausalityError, LivelockError, NetlistError, run
from .trajectories import delay_by_inversion, delay_by_ode

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class CliUsageError(ValueError):
    """A flag combination or value that cannot be acted on."""


_VALIDATION_ERRORS = (CliUsageError, SchemaError, ParamError,
                      InvalidMeasurementsError, NetlistError)
# OverflowError: an oracle trajectory of extreme parameters leaves the
# float range ("math range error")
_NUMERICAL_ERRORS = (DomainError, NoSignChangeError, NoCrossingError,
                     ConvergenceError, StepUnderflowError,
                     CausalityError, LivelockError, OverflowError)


def _diagnostic(category: str, exc: BaseException) -> None:
    doc: Dict[str, object] = {
        "error": category,
        "type": type(exc).__name__,
        "message": str(exc),
    }
    problems = getattr(exc, "problems", None)
    if problems:
        doc["problems"] = list(problems)
    path = getattr(exc, "path", None)
    if path:
        doc["path"] = path
    print(json.dumps(doc), file=sys.stderr)


# -- characterize -----------------------------------------------------------

def _cmd_characterize(args: argparse.Namespace) -> int:
    m = parse_measured(_read_document(args.measured), c_chosen=args.c,
                       delta_min=args.delta_min)
    if args.gate == "nor2":
        if args.r5 is not None:
            raise CliUsageError("--r5 applies to C gates only")
        params = characterize_nor(m)
    else:
        r5 = args.r5 if args.r5 is not None else 0.0
        params = characterize_cgate(m, r5_choice=r5)
    atomic_write(args.output, serialize_params(params))
    return EXIT_OK


# -- delay-curve --------------------------------------------------------------

_FAMILY_AXES = (("falling", "down_plus", "down_minus"),
                ("rising", "up_plus", "up_minus"))


def _cmd_delay_curve(args: argparse.Namespace) -> int:
    params = parse_params(_read_document(args.params))
    if not (math.isfinite(args.dmin) and math.isfinite(args.dmax)):
        raise CliUsageError("--dmin/--dmax must be finite")
    if args.dmax <= args.dmin:
        raise CliUsageError("--dmax must exceed --dmin")
    if args.steps < 2:
        raise CliUsageError("--steps must be at least 2")
    if not math.isfinite((args.dmax - args.dmin) * (args.steps - 1)):
        raise CliUsageError("(--dmax - --dmin) * (--steps - 1) overflows; "
                            "the grid points would not be finite")
    span = args.dmax - args.dmin
    grid = [args.dmin + i * span / (args.steps - 1) for i in range(args.steps)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise CliUsageError("--dmax must exceed --dmin by enough for "
                            "--steps distinct grid points")

    kind = _kind_of(params)
    sources: List[Tuple[str, Callable[[str, float], float]]] = [
        ("closed_form", lambda d, x: nor_delay(params, DelayQuery(d, x)))]
    if args.oracle == "trajectory":
        sources.append(("trajectory_oracle",
                        lambda d, x: delay_by_inversion(kind, d, x, params)))
    elif args.oracle == "ode":
        sources.append(("ode_oracle",
                        lambda d, x: delay_by_ode(kind, d, x, params)))

    rows = []
    for source, fn in sources:
        for direction, fam_pos, fam_neg in _FAMILY_AXES:
            for delta in grid:
                family = fam_pos if delta >= 0.0 else fam_neg
                rows.append((delta, fn(direction, delta), family, source))
    atomic_write(args.output, write_curve_csv(rows))
    return EXIT_OK


# -- verify -------------------------------------------------------------------

_EXACT_GRID = 25        # points per exact falling family
_LINEAR_GRID = 21       # interior points per linearized family
_ODE_FRACTIONS = (0.0, 0.5, 1.5)   # of the family's MIS scale


def _verify_params(params) -> Dict[str, Dict[str, float]]:
    """Max deviations of the closed forms from the oracles, per family.

    exact_s: absolute deviation from the trajectory oracle where the
    closed form claims exactness (the whole falling NOR family; the
    zero-separation point and clamped limits of linearized families).
    linearized_rel: relative deviation inside linearized families.
    ode_rel: relative deviation of the trajectory oracle from full
    time-varying-divider ODE integration of the same parameter set.
    That ODE keeps the transient coefficients as given, so it is the
    gap to the same-alpha exact-divider gate, a different gate, not an
    approximation error: the constant divider equals the exact divider
    once those coefficients are scaled by (r5 + R_s)/R_s.
    """
    kind = _kind_of(params)
    exact: Dict[str, float] = {}
    linearized: Dict[str, float] = {}
    ode: Dict[str, float] = {}
    for direction, fam_pos, fam_neg in _FAMILY_AXES:
        # the family table is bound once per direction; evaluate(table, d)
        # is what nor_delay returns for DelayQuery(direction, d)
        evaluate, table = _output_families(params)[direction == "rising"]
        is_exact = kind == "nor2" and direction == "falling"
        # each point is inverted and integrated once; keyed on the
        # float, so -0.0 and 0.0 (which both oracles treat alike) share
        # an entry
        inversion = functools.cache(
            lambda d: delay_by_inversion(kind, direction, d, params))
        integration = functools.cache(
            lambda d: delay_by_ode(kind, direction, d, params))

        # the grids span the MIS region
        for family, sign, bp in ((fam_pos, 1.0, table.bp0_plus),
                                 (fam_neg, -1.0, table.bp0_minus)):
            if is_exact:
                grid = [sign * 2.0 * bp * i / (_EXACT_GRID - 1)
                        for i in range(_EXACT_GRID)]
                exact[family] = max(
                    abs(evaluate(table, d) - inversion(d)) for d in grid)
            else:
                anchors = (0.0, sign * math.inf)
                exact[family] = max(
                    abs(evaluate(table, d) - inversion(d))
                    for d in anchors)
                interior = [sign * bp * i / (_LINEAR_GRID + 1)
                            for i in range(1, _LINEAR_GRID + 1)]
                dev = 0.0
                for d in interior:
                    ref = inversion(d)
                    dev = max(dev, abs(evaluate(table, d) - ref) / ref)
                linearized[family] = dev
            dev = 0.0
            for frac in _ODE_FRACTIONS:
                d = sign * frac * bp
                full = integration(d)
                ref = inversion(d)
                dev = max(dev, abs(ref - full) / full)
            ode[family] = dev
    return {"exact_s": exact, "linearized_rel": linearized, "ode_rel": ode}


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, tol in (("--tol-exact", args.tol_exact),
                      ("--tol-linearized", args.tol_linearized),
                      ("--tol-ode", args.tol_ode)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise CliUsageError(f"{flag} must be finite and non-negative, "
                                f"got {tol!r}")
    if args.params:
        stems = [Path(p).stem for p in args.params]
        for stem in stems:
            if stems.count(stem) > 1:
                raise CliUsageError(f"--params stem {stem!r} given more than "
                                    f"once; report blocks are keyed by stem")
        targets = [(stem, parse_params(_read_document(p)))
                   for stem, p in zip(stems, args.params)]
    else:
        targets = [(name, load_fixture(name)) for name in list_fixtures()]
    if not targets:
        raise CliUsageError("no parameter sets to verify")

    report: Dict[str, object] = {
        "tolerances": {"exact_s": args.tol_exact,
                       "linearized_rel": args.tol_linearized,
                       "ode_rel": args.tol_ode},
        "fixtures": {},
    }
    all_ok = True
    for name, params in targets:
        block = _verify_params(params)
        ok = (max(block["exact_s"].values()) <= args.tol_exact
              and max(block["linearized_rel"].values(),
                      default=0.0) <= args.tol_linearized
              and max(block["ode_rel"].values()) <= args.tol_ode)
        entry = dict(block)
        entry["kind"] = _kind_of(params)
        entry["pass"] = ok
        report["fixtures"][name] = entry
        all_ok = all_ok and ok
    report["pass"] = all_ok
    print(_dumps(report), end="")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# -- simulate -----------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.t_end is not None and not args.t_end >= 0.0:
        raise CliUsageError("--t-end must be a non-negative time")
    nl, library = parse_netlist(_read_document(args.netlist))
    result = run(nl, library, t_end=args.t_end)
    atomic_write(args.output, write_vcd(result.trace, nl.nets))
    atomic_write(args.stats, serialize_stats(result.stats))
    return EXIT_OK


# -- parser -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # stock argparse only recognizes plain decimals as negative-number
        # values; delta grids are quoted in seconds ("-50e-12")
        self._negative_number_matcher = re.compile(
            r"^-\d*\.?\d+(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message: str):
        print(json.dumps({"error": "usage", "message": message}),
              file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the misdelay command line."""
    parser = _Parser(prog="misdelay",
                     description="MIS delay models: characterization, "
                                 "delay curves, and event-driven simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="fit gate parameters from six extremal delays")
    p.add_argument("--gate", choices=("nor2", "cgate"), required=True)
    p.add_argument("--measured", required=True, metavar="FILE",
                   help="measured-delay JSON document")
    p.add_argument("--c", type=float, required=True, metavar="FARADS",
                   help="load capacitance chosen for the fit")
    p.add_argument("--delta-min", type=float, default=0.0, metavar="SECONDS",
                   help="interconnect transport delay (default 0)")
    p.add_argument("--r5", type=float, default=None, metavar="OHMS",
                   help="series resistance convention (C gate only)")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_characterize)

    p = sub.add_parser("delay-curve",
                       help="tabulate the four delay families over a grid")
    p.add_argument("--params", required=True, metavar="FILE")
    p.add_argument("--dmin", type=float, required=True, metavar="SECONDS")
    p.add_argument("--dmax", type=float, required=True, metavar="SECONDS")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--oracle", choices=("none", "trajectory", "ode"),
                   default="none",
                   help="also tabulate an oracle delay per grid point")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_delay_curve)

    p = sub.add_parser("verify",
                       help="sweep closed forms against the oracles")
    p.add_argument("--params", action="append", metavar="FILE",
                   help="parameter file; repeatable (default: all bundled "
                        "fixtures)")
    p.add_argument("--tol-exact", type=float, default=1e-12,
                   metavar="SECONDS",
                   help="bound for exact families and anchor points")
    p.add_argument("--tol-linearized", type=float, default=0.30,
                   help="relative bound inside linearized families")
    p.add_argument("--tol-ode", type=float, default=0.25,
                   help="relative bound against full ODE integration")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="run a netlist to VCD and stats")
    p.add_argument("--netlist", required=True, metavar="FILE")
    p.add_argument("-o", "--output", required=True, metavar="VCD")
    p.add_argument("--stats", required=True, metavar="FILE")
    p.add_argument("--t-end", type=float, default=None, metavar="SECONDS")
    p.set_defaults(handler=_cmd_simulate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on first use rather than at import, which would add its cost
    # to every import of the package
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one misdelay command; return its exit code.

    argv defaults to sys.argv[1:].  main is re-entrant: it keeps no
    state between calls except the parser, which is built on the first
    call and reused by every later one (parsing leaves it unchanged).
    build_parser() returns a fresh parser for callers that want their
    own.  Usage errors and --help return their exit code (2, 0) rather
    than raising SystemExit.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _VALIDATION_ERRORS as exc:
        _diagnostic("validation", exc)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        _diagnostic("numerical", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        _diagnostic("io", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
