"""Differential fuzz of the two oracles and of the command line.

Draws parameter sets by mutating the bundled fixtures and holds each to
three contracts:

* oracle agreement: `delay_by_inversion` and `delay_by_ode(exact_f=
  False)` describe the same gate, so where both return a delay they
  agree within 1e-5 * ode + 2e-17 s.  The separation is drawn
  log-uniformly over +-[1e-20, 1e-6] s.  An exception that the command
  line would not report as a numerical failure (exit 3) is a failure.
* guided bisection: each oracle's bisection, guided by its estimate of
  the crossing (`bisect_threshold_crossing`'s near), gives the same
  delay to the bit, or raises the same exception, as with near=None.
* CLI exit contract: `verify --params`, `delay-curve` under each
  `--oracle` value, `simulate` on a valid netlist of the set (a short
  `build_cross_coupled_chain`, of inverted C gates for a C gate,
  written by `serialize_netlist`) and `characterize` on the set's own
  six extremal delays exit 0, 2 or 3; an exception out of `main` (exit
  1 with a traceback) is a failure.  A set whose extremal delays raise
  a numerical error has nothing to characterize, and skips that
  command.  The summary counts each command's exit codes.

Each set mutates one to three float fields of a random fixture by one
of three kinds: an extreme value (5e-324, 1e-300, 1e300 or 1.7e308),
a wide scaling by 10^U(-30, 30) or a plausible scaling by 10^U(-4, 4).
Every contract is checked on every set.  Each distinct failure
(contract, outcome, gate kind, direction or command) is shrunk by
restoring the mutated fields one at a time while it persists, and
printed once as a reproducer.  Run from the repository root:

    python tests/fuzz.py --seconds 60 --seed 1

The run stops drawing sets after the given seconds.  This is a tool,
not a test: pytest does not collect it.
"""

import argparse
import contextlib
import dataclasses
import io
import math
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from helpers import EXTREME_VALUES  # noqa: E402
from misdelay import cli, trajectories  # noqa: E402
from misdelay.characterize import MeasuredDelays  # noqa: E402
from misdelay.fileio import (list_fixtures, load_fixture,  # noqa: E402
                             serialize_measured, serialize_netlist,
                             serialize_params)
from misdelay.gates import (DelayQuery, NorGateParams,  # noqa: E402
                            ParamError, nor_delay)
from misdelay.sim import build_cross_coupled_chain  # noqa: E402
from misdelay.trajectories import (delay_by_inversion,  # noqa: E402
                                   delay_by_ode)

KINDS = ("extreme", "wide", "plausible")   # the mutation kinds
REL, ABS = 1e-5, 2e-17
_GUIDED = trajectories.bisect_threshold_crossing
# what each command reads, for the reproducers
_INPUTS = {
    "verify": "write serialize_params(p) to p.json",
    "delay-curve": "write serialize_params(p) to p.json",
    "simulate": "write tests/fuzz.py's _netlist(p) to n.json",
    "characterize": "write the six extremal delays of p to m.json",
}


def _mutate(rng, base, kind):
    """A dict of one to three float fields of base, mutated by kind."""
    names = [f.name for f in dataclasses.fields(base)
             if isinstance(getattr(base, f.name), float)]
    changes = {}
    for name in rng.sample(names, rng.randint(1, 3)):
        if kind == "extreme":
            changes[name] = rng.choice(EXTREME_VALUES)
        else:
            span = 30.0 if kind == "wide" else 4.0
            changes[name] = getattr(base, name) * 10.0 ** rng.uniform(
                -span, span)
    return changes


def _gate(p):
    return "nor2" if isinstance(p, NorGateParams) else "cgate"


def _oracles(p, direction, delta):
    """Each oracle's outcome: its delay, or the exception it raised."""
    outcomes = []
    for oracle, extra in ((delay_by_inversion, {}),
                          (delay_by_ode, {"exact_f": False})):
        try:
            outcomes.append(oracle(_gate(p), direction, delta, p, **extra))
        except Exception as exc:  # judged by the contracts
            outcomes.append(exc)
    return outcomes


def _agreement(outcomes):
    """(failure, gap): failure is None or (class, detail) for outcomes
    that break the agreement contract; gap is |inversion - ode| over
    the bound, or None where an oracle raised."""
    for out in outcomes:
        if isinstance(out, cli._NUMERICAL_ERRORS):
            return None, None
        if isinstance(out, Exception):
            return (f"raises {type(out).__name__}", str(out)), None
    inv, ode = outcomes
    gap = abs(inv - ode) / (REL * ode + ABS)
    if gap <= 1.0:
        return None, gap
    return ("apart", f"inversion {inv!r} s, ode {ode!r} s"), gap


def _plain_bisection(*args, near=None):
    # the oracles' bisection with its estimate of the crossing dropped
    return _GUIDED(*args)


def _shown(outcome):
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


def _guidance(p, direction, delta, guided):
    """None, or (class, detail) where an oracle's outcome differs from
    its outcome with the bisection's near set to None; guided holds
    the outcomes with it."""
    trajectories.bisect_threshold_crossing = _plain_bisection
    try:
        plain = _oracles(p, direction, delta)
    finally:
        trajectories.bisect_threshold_crossing = _GUIDED
    for name, a, b in zip(("inversion", "ode"), guided, plain):
        if _shown(a) != _shown(b):
            return (f"{name} guided != plain",
                    f"guided {_shown(a)}, plain {_shown(b)}")
    return None


def _netlist(p):
    """A short chain of the set's gates driven from both sources: NOR
    gates, or inverted C gates, which keep the chain's steady levels."""
    nl = build_cross_coupled_chain(3, params_ref="g", mu=5e-11,
                                   sigma=3e-11, n_transitions=20, seed=1)
    if not isinstance(p, NorGateParams):
        p = dataclasses.replace(p, inverted=True)
        nl = dataclasses.replace(nl, gates=tuple(
            dataclasses.replace(g, kind="cgate") if g.kind == "nor2" else g
            for g in nl.gates))
    return serialize_netlist(nl, {"g": p})


def _extremal_delays(p):
    """The six delays a characterization starts from, or None where one
    raises a numerical error."""
    delays = {}
    try:
        for direction, tag in (("falling", "down"), ("rising", "up")):
            for delta, which in ((-math.inf, "minus_inf"), (0.0, "zero"),
                                 (math.inf, "inf")):
                delays[f"d_{tag}_{which}"] = nor_delay(
                    p, DelayQuery(direction, delta))
    except cli._NUMERICAL_ERRORS:
        return None
    return MeasuredDelays(delta_min=p.delta_min, c_chosen=p.c_load,
                          **delays)


def _argvs(tmp, delta):
    """Each command; the file it reads follows its first flag."""
    mag = abs(delta)
    params, csv = str(tmp / "p.json"), str(tmp / "c.csv")
    yield ["verify", "--params", params]
    for oracle in ("none", "trajectory", "ode"):
        yield ["delay-curve", "--params", params, "--dmin", repr(-mag),
               "--dmax", repr(mag), "--steps", "3", "--oracle", oracle,
               "-o", csv]
    yield ["simulate", "--netlist", str(tmp / "n.json"),
           "-o", str(tmp / "o.vcd"), "--stats", str(tmp / "s.json")]
    yield ["characterize", "--measured", str(tmp / "m.json"),
           "-o", str(tmp / "f.json")]


def _command(p, argv):
    """argv with the flags it takes from the set, and the text of the
    file it reads; None where the set has nothing for it to read."""
    if argv[0] == "simulate":
        return argv, _netlist(p)
    if argv[0] != "characterize":
        return argv, serialize_params(p)
    measured = _extremal_delays(p)
    if measured is None:
        return None
    argv = [*argv, "--gate", _gate(p), "--c", repr(p.c_load),
            "--delta-min", repr(p.delta_min)]
    if not isinstance(p, NorGateParams):
        argv += ["--r5", repr(p.r5)]
    return argv, serialize_measured(measured)


def _exit_contract(p, argv):
    """(code, failure): the exit code, None where the command has nothing
    to run on; failure is None or (class, detail) for an outcome that
    breaks the exit contract."""
    command = _command(p, argv)
    if command is None:
        return None, None
    argv, text = command
    Path(argv[2]).write_text(text)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # an exception out of main is exit 1
        return 1, (f"exit 1, {type(exc).__name__}", str(exc))
    return code, None if code in (0, 2, 3) else (f"exit {code}", "")


def _shrink(changes, fails):
    """The changes left after restoring, one at a time, each field whose
    restoring keeps the failure."""
    changes = dict(changes)
    for name in list(changes):
        trial = {k: v for k, v in changes.items() if k != name}
        try:
            if trial and fails(trial):
                changes = trial
        except ParamError:
            pass
    return changes


def _same(failure, other):
    return failure is not None and failure[0] == other[0]


def _reproducer(fixture, changes, calls, failure):
    fields = ", ".join(f"{k}={v!r}" for k, v in changes.items())
    lines = [f"p = replace(load_fixture({fixture!r}), {fields})", *calls,
             f"# {failure[0]}: {failure[1]}"]
    return "\n".join("    " + line for line in lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    fixtures = list_fixtures()
    failures = {}   # key -> [count, reproducer]
    counts = dict.fromkeys(("sets", "agreement", "guidance", "cli",
                            "invalid", *KINDS), 0)
    exits = {}      # command -> {exit code: count}
    worst = (0.0, None)
    deadline = time.monotonic() + args.seconds
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        while time.monotonic() < deadline:
            fixture = rng.choice(fixtures)
            base = load_fixture(fixture)
            kind = rng.choice(KINDS)
            changes = _mutate(rng, base, kind)
            direction = rng.choice(("falling", "rising"))
            delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0,
                                                                   -6.0)
            try:
                p = dataclasses.replace(base, **changes)
            except ParamError:
                counts["invalid"] += 1
                continue
            counts["sets"] += 1
            counts[kind] += 1
            gate = _gate(p)

            def note(key, failure, fails, calls):
                if key not in failures:
                    failures[key] = [0, _reproducer(
                        fixture, _shrink(changes, fails), calls, failure)]
                failures[key][0] += 1

            def retried(c):
                q = dataclasses.replace(base, **c)
                return q, _oracles(q, direction, delta)

            args_ = f"{gate!r}, {direction!r}, {delta!r}, p"
            calls = [f"delay_by_inversion({args_})",
                     f"delay_by_ode({args_}, exact_f=False)"]
            outcomes = _oracles(p, direction, delta)
            counts["agreement"] += 1
            failure, gap = _agreement(outcomes)
            if gap is not None and gap > worst[0]:
                worst = (gap, f"{fixture} {changes} {direction} "
                              f"delta={delta!r}")
            if failure is not None:
                note(("agreement", failure[0], gate, direction), failure,
                     lambda c: _same(_agreement(retried(c)[1])[0], failure),
                     calls)

            counts["guidance"] += 1
            failure = _guidance(p, direction, delta, outcomes)
            if failure is not None:
                def unguided(c):
                    q, guided = retried(c)
                    return _same(_guidance(q, direction, delta, guided),
                                 failure)

                note(("guidance", failure[0], gate, direction), failure,
                     unguided,
                     [*calls, "# each again with trajectories."
                      "bisect_threshold_crossing given near=None"])

            for cmd in _argvs(tmp, delta):
                name = cmd[0] + (f" --oracle {cmd[-3]}"
                                 if cmd[0] == "delay-curve" else "")
                code, failure = _exit_contract(p, cmd)
                if code is None:
                    continue
                counts["cli"] += 1
                by_code = exits.setdefault(name, {})
                by_code[code] = by_code.get(code, 0) + 1
                if failure is not None:
                    shown = " ".join(Path(a).name if a.startswith(str(tmp))
                                     else a for a in _command(p, cmd)[0])
                    note(("cli", failure[0], gate, name), failure,
                         lambda c: _same(_exit_contract(
                             dataclasses.replace(base, **c), cmd)[1],
                             failure),
                         [f"# {_INPUTS[cmd[0]]}, then", f"# misdelay {shown}"])

    kinds = ", ".join(f"{counts[k]} {k}" for k in KINDS)
    print(f"fuzz seed {args.seed}, {args.seconds:g} s: {counts['sets']} sets "
          f"({kinds}; {counts['invalid']} invalid draws skipped), "
          f"{counts['agreement']} agreement checks, {counts['guidance']} "
          f"guidance checks, {counts['cli']} commands")
    print("exit codes: " + "; ".join(
        f"{name} " + ", ".join(f"{code}: {n}" for code, n in sorted(by.items()))
        for name, by in exits.items()))
    print(f"worst agreement gap: {worst[0]:.3g} x the bound"
          + (f" ({worst[1]})" if worst[1] else ""))
    print(f"{len(failures)} distinct failures, "
          f"{sum(n for n, _ in failures.values())} failing checks")
    for key, (n, text) in sorted(failures.items()):
        print(f"{' / '.join(key)}: {n} times; minimal reproducer:")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
