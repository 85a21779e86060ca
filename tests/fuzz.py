"""Differential fuzz of the two oracles and of the command line.

Draws parameter sets by mutating the bundled fixtures and holds each to
two contracts:

* oracle agreement: `delay_by_inversion` and `delay_by_ode(exact_f=
  False)` describe the same gate, so where both return a delay they
  agree within 1e-5 * ode + 2e-17 s.  The separation is drawn
  log-uniformly over +-[1e-20, 1e-6] s.  An exception that the command
  line would not report as a numerical failure (exit 3) is a failure.
* CLI exit contract: `verify --params` and `delay-curve` under each
  `--oracle` value exit 0, 2 or 3; an exception out of `main` (exit 1
  with a traceback) is a failure.

Each set mutates one to three float fields of a random fixture by one
of three kinds: an extreme value (5e-324, 1e-300, 1e300 or 1.7e308),
a wide scaling by 10^U(-30, 30) or a plausible scaling by 10^U(-4, 4).
Both arms run on every set.  Each distinct failure (arm, outcome, gate
kind, direction or command) is shrunk by restoring the mutated fields
one at a time while it persists, and printed once as a reproducer.
Run from the repository root:

    python tests/fuzz.py --seconds 60 --seed 1

The run stops drawing sets after the given seconds.  This is a tool,
not a test: pytest does not collect it.
"""

import argparse
import contextlib
import dataclasses
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from helpers import EXTREME_VALUES  # noqa: E402
from misdelay import cli  # noqa: E402
from misdelay.fileio import (list_fixtures, load_fixture,  # noqa: E402
                             serialize_params)
from misdelay.gates import NorGateParams, ParamError  # noqa: E402
from misdelay.trajectories import (delay_by_inversion,  # noqa: E402
                                   delay_by_ode)

KINDS = ("extreme", "wide", "plausible")   # the mutation kinds
REL, ABS = 1e-5, 2e-17


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


def _agreement(p, direction, delta):
    """(failure, gap): failure is None or (class, detail) for an outcome
    that breaks the agreement contract; gap is |inversion - ode| over
    the bound, or None where an oracle raised."""
    gate = "nor2" if isinstance(p, NorGateParams) else "cgate"
    try:
        inv = delay_by_inversion(gate, direction, delta, p)
        ode = delay_by_ode(gate, direction, delta, p, exact_f=False)
    except cli._NUMERICAL_ERRORS:
        return None, None
    except Exception as exc:  # any other exception breaks the contract
        return (f"raises {type(exc).__name__}", str(exc)), None
    gap = abs(inv - ode) / (REL * ode + ABS)
    if gap <= 1.0:
        return None, gap
    return ("apart", f"inversion {inv!r} s, ode {ode!r} s"), gap


def _cli_argvs(path, delta):
    mag = abs(delta)
    yield ["verify", "--params", path]
    for oracle in ("none", "trajectory", "ode"):
        yield ["delay-curve", "--params", path, "--dmin", repr(-mag),
               "--dmax", repr(mag), "--steps", "3", "--oracle", oracle,
               "-o", str(Path(path).with_suffix(".csv"))]


def _exit_contract(p, argv, path):
    """None, or (class, detail) for an outcome that breaks the exit
    contract."""
    Path(path).write_text(serialize_params(p))
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # an exception out of main is exit 1
        return f"exit 1, {type(exc).__name__}", str(exc)
    return None if code in (0, 2, 3) else (f"exit {code}", "")


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
    counts = dict.fromkeys(("sets", "agreement", "cli", "invalid", *KINDS),
                           0)
    worst = (0.0, None)
    deadline = time.monotonic() + args.seconds
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "p.json")
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
            gate = "nor2" if isinstance(p, NorGateParams) else "cgate"

            counts["agreement"] += 1
            failure, gap = _agreement(p, direction, delta)
            if gap is not None and gap > worst[0]:
                worst = (gap, f"{fixture} {changes} {direction} "
                              f"delta={delta!r}")
            if failure is not None:
                key = ("agreement", failure[0], gate, direction)
                if key not in failures:
                    small = _shrink(changes, lambda c: _same(
                        _agreement(dataclasses.replace(base, **c),
                                   direction, delta)[0], failure))
                    args_ = f"{gate!r}, {direction!r}, {delta!r}, p"
                    failures[key] = [0, _reproducer(
                        fixture, small,
                        [f"delay_by_inversion({args_})",
                         f"delay_by_ode({args_}, exact_f=False)"],
                        failure)]
                failures[key][0] += 1

            for cmd in _cli_argvs(path, delta):
                counts["cli"] += 1
                failure = _exit_contract(p, cmd, path)
                if failure is None:
                    continue
                name = cmd[0] + (f" --oracle {cmd[-3]}"
                                 if cmd[0] == "delay-curve" else "")
                key = ("cli", failure[0], gate, name)
                if key not in failures:
                    small = _shrink(changes, lambda c: _same(
                        _exit_contract(dataclasses.replace(base, **c),
                                       cmd, path), failure))
                    shown = " ".join("p.json" if c == path else
                                     "c.csv" if c.endswith(".csv") else c
                                     for c in cmd)
                    failures[key] = [0, _reproducer(
                        fixture, small,
                        ["# write serialize_params(p) to p.json, then",
                         f"# misdelay {shown}"], failure)]
                failures[key][0] += 1

    kinds = ", ".join(f"{counts[k]} {k}" for k in KINDS)
    print(f"fuzz seed {args.seed}, {args.seconds:g} s: {counts['sets']} sets "
          f"({kinds}; {counts['invalid']} invalid draws skipped), "
          f"{counts['agreement']} agreement checks, {counts['cli']} commands")
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
