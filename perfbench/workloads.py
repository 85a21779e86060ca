"""The four benchmark workloads: inputs, one op, and the op's check.

An op is one unit of user work.  Each workload builds every input it
will need from the workload seed during set-up, so the timed loop only
runs the program.  `run_op` returns the host seconds of the user work
and an outcome; `check` compares the outcome with what the program must
produce and returns a problem description, or None when it is right.

Simulated statistics (events, transitions, VCD bytes) are checks, not
metrics: a change that only makes the program faster leaves them
identical, so they are compared with values recorded in goldens.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


def import_misdelay(src: Path):
    """Import the package from `src` afresh and return it.

    Earlier imports are dropped first, so every set-up pays the full
    import, as a new `misdelay` process would.
    """
    for name in [n for n in sys.modules
                 if n == "misdelay" or n.startswith("misdelay.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module("misdelay")
    importlib.import_module("misdelay.cli")
    where = Path(pkg.__file__).resolve().parent
    if where != (src / "misdelay").resolve():
        raise ImportError(f"misdelay was imported from {where}, "
                          f"not from {src}")
    return pkg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


class Workload:
    """Base: `cycle` > 1 makes a run end on a whole number of cycles."""

    name = ""
    cycle = 1

    def __init__(self, pkg, seed: int, goldens: Optional[dict]) -> None:
        self.pkg = pkg
        self.goldens = goldens

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, outcome) -> Optional[str]:
        raise NotImplementedError

    def events(self, outcome) -> int:
        return 0

    def vcd_bytes(self, outcome) -> int:
        return 0


# -- simulate a cross-coupled chain ----------------------------------------

STAGES = 20
TRANSITIONS = 200
MU_S = 50e-12
SIGMA_S = 30e-12
# recorded stimulus seeds; the workload seed picks their order, and the
# source pair of entry k draws from seeds 2k+1 and 2k+2
STIMULUS_POOL = 256


class ChainSim(Workload):
    """`misdelay simulate` in process, without the disk writes.

    Separations of 50 +/- 30 ps are comparable to the breakpoints of
    the bundled 15 nm gates, so most outputs take the MIS branch and
    pending events get revised.
    """

    fixture = ""

    def __init__(self, pkg, seed, goldens) -> None:
        super().__init__(pkg, seed, goldens)
        self.order = list(range(STIMULUS_POOL))
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        params = self.gate_params(pkg.fileio.load_fixture(self.fixture))
        library = {"g": params}
        self.texts = [pkg.fileio.serialize_netlist(self.netlist(k), library)
                      for k in self.order]

    def gate_params(self, params):
        return params

    def netlist(self, k: int):
        return self.pkg.sim.build_cross_coupled_chain(
            STAGES, params_ref="g", mu=MU_S, sigma=SIGMA_S,
            n_transitions=TRANSITIONS, seed=2 * k + 1)

    def run_op(self, i: int):
        fileio, sim = self.pkg.fileio, self.pkg.sim
        slot = i % STIMULUS_POOL
        start = time.perf_counter()
        nl, library = fileio.parse_netlist(self.texts[slot])
        result = sim.run(nl, library)
        vcd = fileio.write_vcd(result.trace, nl.nets)
        fileio.serialize_stats(result.stats)
        elapsed = time.perf_counter() - start
        return elapsed, (self.order[slot], result.stats, vcd)

    @staticmethod
    def record(outcome) -> dict:
        _, stats, vcd = outcome
        return {"events": stats.events,
                "transitions_sha256": _sha256(
                    json.dumps(stats.transitions, sort_keys=True)),
                "vcd_sha256": _sha256(vcd)}

    def check(self, outcome) -> Optional[str]:
        k = outcome[0]
        want = self.goldens[self.name][k]
        got = self.record(outcome)
        bad = [key for key in want if got[key] != want[key]]
        if bad:
            return (f"stimulus entry {k}: {', '.join(bad)} differ from the "
                    f"recorded values (events {got['events']}, "
                    f"recorded {want['events']})")
        return None

    def events(self, outcome) -> int:
        return outcome[1].events

    def vcd_bytes(self, outcome) -> int:
        return len(outcome[2].encode("utf-8"))


class NorChainSim(ChainSim):
    name = "nor_chain_sim"
    fixture = "nor15_l3"


class CGateChainSim(ChainSim):
    """Same two rails, built from inverted C gates.

    The only workload that drives the C-gate branch of `run`: delays
    referenced to the completing input, cancellation on disagreement.
    """

    name = "cgate_chain_sim"
    fixture = "cgate15_l3"

    def gate_params(self, params):
        return dataclasses.replace(params, inverted=True)

    def netlist(self, k: int):
        nl = super().netlist(k)
        gates = tuple(dataclasses.replace(g, kind="cgate")
                      if g.kind == "nor2" else g for g in nl.gates)
        return dataclasses.replace(nl, gates=gates)


# -- verify one bundled fixture ----------------------------------------------

class VerifySweep(Workload):
    """`misdelay verify --params <fixture>`, cycling through all fixtures.

    Most of the time goes to ODE integration under delay_by_ode and to
    the bisection of delay_by_inversion; the simulator and Lambert W
    stay idle once the gate tables are cached.
    """

    name = "verify_sweep"

    def __init__(self, pkg, seed, goldens) -> None:
        super().__init__(pkg, seed, goldens)
        fixture_dir = pkg.fileio.fixture_dir()
        names = pkg.fileio.list_fixtures()
        # the seed picks where in the sorted cycle the run starts
        first = random.Random(f"{self.name}:{seed}").randrange(len(names))
        self.names = names[first:] + names[:first]
        self.paths = [str(fixture_dir / f"{n}.json") for n in self.names]
        self.cycle = len(names)

    def run_op(self, i: int):
        slot = i % self.cycle
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.pkg.cli.main(["verify", "--params", self.paths[slot]])
        elapsed = time.perf_counter() - start
        return elapsed, (self.names[slot], code, out.getvalue())

    @staticmethod
    def record(outcome) -> dict:
        _, code, text = outcome
        return {"exit": code, "stdout_sha256": _sha256(text)}

    def check(self, outcome) -> Optional[str]:
        name = outcome[0]
        want = self.goldens[self.name][name]
        got = self.record(outcome)
        if got != want:
            return f"verify {name}: got {got}, recorded {want}"
        return None


# -- characterize random gates ----------------------------------------------

# ranges of acceptance criteria 1 and 2, copied rather than imported so
# the benchmark does not depend on the test suite
NOR_RANGES = (("r_n_a", 500.0, 8000.0), ("r_n_b", 500.0, 8000.0),
              ("r", 300.0, 2500.0), ("alpha1", 5e-10, 1e-8),
              ("alpha2", 5e-10, 1e-8), ("c_load", 5e-16, 2.5e-15),
              ("r5", 0.0, 800.0), ("delta_min", 0.0, 1e-11))
CGATE_RANGES = (("r_n", 300.0, 2500.0), ("r_p", 300.0, 2500.0),
                ("alpha1", 5e-10, 1e-8), ("alpha2", 5e-10, 1e-8),
                ("alpha3", 5e-10, 1e-8), ("alpha4", 5e-10, 1e-8),
                ("c_load", 5e-16, 2.5e-15), ("r5", 0.0, 800.0),
                ("delta_min", 0.0, 1e-11))
PARAM_TOL = 1e-6
DELAY_TOL = 1e-9
# parameter pairs drawn per set-up; a longer run cycles through them
# again, long after the 512-entry gate caches have evicted them
PARAM_PAIRS = 2048


def _param_dev(fit, true) -> float:
    """Largest relative deviation over the float fields; a field that is
    0 in the true set counts with its absolute value instead."""
    dev = 0.0
    for f in dataclasses.fields(true):
        a, b = getattr(fit, f.name), getattr(true, f.name)
        if isinstance(b, float):
            dev = max(dev, abs(a - b) / abs(b) if b else abs(a))
    return dev


class CharacterizeFit(Workload):
    """Fit one random NOR gate and one random C gate, then round-trip.

    An op holds one gate of each kind, so every op does the same work
    and the per-op times stay unimodal.  C gates are fitted at three
    series-resistance conventions: the true one, 0 and 0.9 of the
    smaller series total.  Fresh parameters miss the gate caches.
    """

    name = "characterize_fit"

    def __init__(self, pkg, seed, goldens) -> None:
        super().__init__(pkg, seed, goldens)
        rng = random.Random(f"{self.name}:{seed}")
        gates = pkg.gates

        def draw(cls, ranges):
            return cls(**{n: rng.uniform(lo, hi) for n, lo, hi in ranges})

        self.pairs = [(draw(gates.NorGateParams, NOR_RANGES),
                       draw(gates.CGateParams, CGATE_RANGES))
                      for _ in range(PARAM_PAIRS)]

    def _measured(self, p, delay_fn):
        q = self.pkg.gates.DelayQuery
        d = {}
        for direction, tag in (("falling", "down"), ("rising", "up")):
            for delta, which in ((-math.inf, "minus_inf"), (0.0, "zero"),
                                 (math.inf, "inf")):
                d[f"d_{tag}_{which}"] = delay_fn(p, q(direction, delta))
        return self.pkg.MeasuredDelays(delta_min=p.delta_min,
                                       c_chosen=p.c_load, **d)

    def _clamps(self, p, direction):
        gates = self.pkg.gates
        if isinstance(p, gates.NorGateParams):
            bps = gates.nor_breakpoints(p)
            if direction == "falling":
                return bps.down_plus, bps.down_minus
            return bps.up_plus, bps.up_minus
        pair = "rising" if (direction == "rising") != p.inverted else "falling"
        return gates.cgate_breakpoints(p, pair)

    def _delay_dev(self, fits, true, delay_fn, grid) -> float:
        q = self.pkg.gates.DelayQuery
        dev = 0.0
        for direction in ("rising", "falling"):
            for delta in grid(*self._clamps(true, direction)):
                query = q(direction, delta)
                want = delay_fn(true, query)
                for fit in fits:
                    dev = max(dev, abs(delay_fn(fit, query) - want) / want)
        return dev

    def run_op(self, i: int):
        pkg = self.pkg
        nor, cg = self.pairs[i % PARAM_PAIRS]
        start = time.perf_counter()
        # criterion 1: one NOR fit, checked at nine separations
        fit = pkg.characterize_nor(self._measured(nor, pkg.gates.nor_delay))
        param_dev = _param_dev(fit, nor)
        delay_dev = self._delay_dev(
            (fit,), nor, pkg.gates.nor_delay,
            lambda bpp, bpm: (0.0, 0.5 * bpp, -0.5 * bpm, bpp, -bpm,
                              2.0 * bpp, -2.0 * bpm, math.inf, -math.inf))
        # criterion 2: C gate fits at three r5 conventions, 50-point grid
        m = self._measured(cg, pkg.gates.cgate_delay)
        fit = pkg.characterize_cgate(m, r5_choice=cg.r5)
        param_dev = max(param_dev, _param_dev(fit, cg))
        x = cg.r5 + 2.0 * cg.r_n
        y = cg.r5 + 2.0 * cg.r_p
        fits = (fit, pkg.characterize_cgate(m, r5_choice=0.0),
                pkg.characterize_cgate(m, r5_choice=0.9 * min(x, y)))
        delay_dev = max(delay_dev, self._delay_dev(
            fits, cg, pkg.gates.cgate_delay,
            lambda bpp, bpm: (-2.0 * bpm + j * (2.0 * bpp + 2.0 * bpm) / 49.0
                              for j in range(50))))
        elapsed = time.perf_counter() - start
        return elapsed, (i % PARAM_PAIRS, param_dev, delay_dev)

    def check(self, outcome) -> Optional[str]:
        slot, param_dev, delay_dev = outcome
        if param_dev <= PARAM_TOL and delay_dev <= DELAY_TOL:
            return None
        return (f"parameter pair {slot}: round trip off by {param_dev:.3g} "
                f"in parameters (tol {PARAM_TOL:g}) and {delay_dev:.3g} in "
                f"delays (tol {DELAY_TOL:g})")


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (NorChainSim, CGateChainSim, VerifySweep, CharacterizeFit)
}
