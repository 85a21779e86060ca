"""Layered benchmark of misdelay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: nor_chain_sim, cgate_chain_sim, verify_sweep, characterize_fit
(see perfbench/README.md for why each exists and which layer metric
should move which end-to-end metric).

--trace 0 measures the end-to-end metrics with nothing installed, and
adds ungated figures (median, throughput, events per second) to the
header's "info" block.
--trace 1 runs one warm-up cycle, an untraced phase (a third of the
time), then installs span tracing and counters and runs the traced
phase; it reports the per-layer metrics and the tracing overhead, and
writes every recorded span to .perfbench/ in the checkout.

Standard output ends with two JSON lines: the run header, then the
result {"correct", "attempted", "failed", "metrics"}.  Every op is
checked; a failed check counts as a failed op and is reported on
standard error.  Exit code 0 means the run completed, whether or not
every check passed; 1 that fewer than two ops completed, so nothing
could be timed; 2 that it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups per untraced run, spread evenly over its timed phase so that
# they sample the host's speed as the ops do; setup_s is their median
SETUP_REPEATS = 21
# ops per run at least, so that ten samples lie beyond the 90th percentile
MIN_OPS = 100
# share of a traced run's time spent untraced, to measure the overhead
UNTRACED_SHARE = 1.0 / 3.0
MAX_REPORTED_FAILURES = 5


class Phase:
    """Timed ops of one phase with their checks."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0
        self.events = 0
        self.vcd_bytes = 0


def run_phase(wl, seconds: float, min_ops: int, max_ops: Optional[int],
              first: int = 0,
              tracer: Optional[tracing.Tracer] = None,
              between: Optional[Callable[[float], None]] = None) -> Phase:
    """Run ops `first`, `first + 1`, ... until `seconds` and `min_ops`
    are both reached.

    A workload with a cycle of inputs stops on a whole cycle, so every
    run holds the same mix.  `max_ops` caps the count for warm-ups and
    self-tests.  `between` is called before each op with the seconds
    since the phase started.
    """
    phase = Phase()
    started = time.perf_counter()
    i = first
    while max_ops is None or i - first < max_ops:
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and i - first >= min_ops
                and i % wl.cycle == 0):
            break
        if between is not None:
            between(elapsed)
        if tracer is not None:
            tracer.op = i
        try:
            elapsed, outcome = wl.run_op(i)
            problem = wl.check(outcome)
        except Exception as exc:  # a failing op is counted, not fatal
            elapsed, outcome = None, None
            problem = f"op {i} raised {type(exc).__name__}: {exc}"
            if phase.failed < MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
        if elapsed is not None:
            phase.times.append(elapsed)
            phase.events += wl.events(outcome)
            phase.vcd_bytes += wl.vcd_bytes(outcome)
        if problem is not None:
            phase.failed += 1
            if len(phase.failures) < MAX_REPORTED_FAILURES:
                phase.failures.append(problem)
        i += 1
    phase.attempted = i - first
    if tracer is not None:
        tracer.op = None
    return phase


def ops_per_s(phase: Phase) -> float:
    return len(phase.times) / sum(phase.times) if phase.times else 0.0


def p90(times: List[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(phase: Phase, setup_times: List[float]) -> dict:
    """The gated metrics: those steady across runs on a noisy host."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p90": (p90(phase.times), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def info(phase: Phase) -> dict:
    """Reported but not gated: these follow the host's speed regime.

    On a host whose speed switches between regimes for seconds to
    minutes, the median and the mean of the op times move with the share
    of the run spent in each regime; the 90th percentile stays with the
    slow regime, which every run contains.
    """
    times = phase.times
    tail = p90(times)
    doc = {
        "samples_beyond_p90": sum(1 for t in times if t > tail),
        "op_s_p50": statistics.median(times),
        "ops_per_s": ops_per_s(phase),
        "failed_frac": phase.failed / phase.attempted,
    }
    if phase.events:
        doc["events_per_s"] = phase.events / sum(times)
    return doc


def per_layer(untraced: Phase, traced: Phase, instr, setup_tracer_totals,
              lru_before) -> dict:
    """Per-layer metrics of the traced phase; see README.md for each."""
    t = instr.tracer
    n = max(len(traced.times), 1)

    def calls(name):
        return (t.calls(name) / n, "calls/op")

    def self_s(name):
        return (t.self_s(name) / n, "s/op")

    def per_call(name, scale, unit):
        c = t.calls(name)
        return ((t.total_s(name) / c * scale) if c else 0.0, unit)

    hits, misses = tracing.lru_totals()
    hits -= lru_before[0]
    misses -= lru_before[1]
    fits = (t.calls("characterize.characterize_nor")
            + t.calls("characterize.characterize_cgate"))
    lam = "numerics.lambert_w_m1"
    run_s = t.total_s("sim.run")
    vcd_s = t.total_s("fileio.write_vcd")
    pops = instr.heap.pops
    traced_rate = ops_per_s(traced)
    return {
        "numerics.lambert_w_m1.calls": calls(lam),
        "numerics.lambert_w_m1.us_per_call": per_call(lam, 1e6, "us"),
        "numerics.find_root_bracketed.calls":
            calls("numerics.find_root_bracketed"),
        "numerics.find_root_bracketed.self_s":
            self_s("numerics.find_root_bracketed"),
        "numerics.integrate_ode.calls": calls("numerics.integrate_ode"),
        "numerics.integrate_ode.self_s": self_s("numerics.integrate_ode"),
        "numerics.bisect_threshold_crossing.calls":
            calls("numerics.bisect_threshold_crossing"),
        "numerics.bisect_threshold_crossing.self_s":
            self_s("numerics.bisect_threshold_crossing"),
        "gates.nor_delay.calls": calls("gates.nor_delay"),
        "gates.nor_delay.us_per_call": per_call("gates.nor_delay", 1e6, "us"),
        "gates.cgate_delay.calls": calls("gates.cgate_delay"),
        "gates.cgate_delay.us_per_call":
            per_call("gates.cgate_delay", 1e6, "us"),
        "gates.DelayQuery.constructed": (instr.delay_queries / n, "count/op"),
        "gates.table_cache.hits": (hits / n, "count/op"),
        "gates.table_cache.misses": (misses / n, "count/op"),
        "gates.table_cache.hit_ratio":
            (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "trajectories.delay_by_inversion.calls":
            calls("trajectories.delay_by_inversion"),
        "trajectories.delay_by_inversion.self_s":
            self_s("trajectories.delay_by_inversion"),
        "trajectories.delay_by_ode.calls": calls("trajectories.delay_by_ode"),
        "trajectories.delay_by_ode.self_s":
            self_s("trajectories.delay_by_ode"),
        "characterize.characterize_nor.calls":
            calls("characterize.characterize_nor"),
        "characterize.characterize_nor.ms_per_call":
            per_call("characterize.characterize_nor", 1e3, "ms"),
        "characterize.characterize_cgate.calls":
            calls("characterize.characterize_cgate"),
        "characterize.characterize_cgate.ms_per_call":
            per_call("characterize.characterize_cgate", 1e3, "ms"),
        "characterize.lambert_calls_per_fit":
            (instr.lambert_in_fits / fits if fits else 0.0, "count"),
        "sim.run.calls": calls("sim.run"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.run.events_per_s":
            (traced.events / run_s if run_s else 0.0, "1/s"),
        "sim.validate_netlist.self_s": self_s("sim.validate_netlist"),
        "sim.generate_stimulus.self_s": self_s("sim.generate_stimulus"),
        "sim.heap.pushes": (instr.heap.pushes / n, "count/op"),
        "sim.heap.pops": (pops / n, "count/op"),
        "sim.useful_pop_ratio": (traced.events / pops if pops else 0.0,
                                 "ratio"),
        "fileio.parse_netlist.self_s": self_s("fileio.parse_netlist"),
        "fileio.write_vcd.self_s": self_s("fileio.write_vcd"),
        "fileio.write_vcd.mb_per_s":
            (traced.vcd_bytes / vcd_s / 1e6 if vcd_s else 0.0, "MB/s"),
        "fileio.vcd_bytes": (traced.vcd_bytes / n, "B/op"),
        "fileio.serialize_stats.self_s": self_s("fileio.serialize_stats"),
        "fileio.load_fixture.self_s":
            (setup_tracer_totals.get("fileio.load_fixture", (0, 0, 0))[2]
             * 1e-9, "s"),
        "cli.verify.self_s": self_s("cli.main"),
        "trace.overhead_ratio":
            (ops_per_s(untraced) / traced_rate if traced_rate else 0.0,
             "ratio"),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and fixtures, in path order."""
    h = hashlib.sha256()
    pkg = SRC / "misdelay"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode("utf-8") + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def header(args, phases: List[Phase], setup_times: List[float]) -> dict:
    doc = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": len(setup_times),
        "setup_s": setup_times,
        "ops": [len(p.times) for p in phases],
        "failures": [f for p in phases for f in p.failures],
    }
    if args.trace == 0 and len(phases[0].times) >= 2:
        doc["info"] = info(phases[0])
    return doc


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Layered misdelay benchmark; see perfbench/README.md")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(cls, seed: int, goldens: dict):
    """Import the package afresh and build the workload's inputs.

    Returns the seconds this took, the package and the workload.  The
    heap is collected first, untimed, so that every set-up starts from a
    clean collector, as in a new process, whatever garbage the ops
    before it left.
    """
    gc.collect()
    start = time.perf_counter()
    pkg = workloads.import_misdelay(SRC)
    wl = cls(pkg, seed, goldens)
    return time.perf_counter() - start, pkg, wl


class SetupSampler:
    """Times further set-ups between the ops of a phase.

    They fall at even intervals over the phase's `seconds`; their
    workloads are dropped, and the ops go on with the first one's.
    """

    def __init__(self, build: Callable, seconds: float, count: int) -> None:
        self.build = build
        self.due = [seconds * k / (count + 1) for k in range(1, count + 1)]
        self.times: List[float] = []

    def __call__(self, elapsed: float) -> None:
        if self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.times.append(self.build()[0])

    def finish(self) -> None:
        """Take the set-ups a phase ended too early for."""
        while self.due:
            self.due.pop(0)
            self.times.append(self.build()[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "misdelay" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    goldens = workloads.load_goldens()
    cls = workloads.WORKLOADS[args.workload]

    def build():
        return set_up(cls, args.seed, goldens)

    setup_s, pkg, wl = build()
    setup_times = [setup_s]

    if args.trace == 0:
        sampler = SetupSampler(build, args.seconds, SETUP_REPEATS - 1)
        phases = [run_phase(wl, args.seconds, MIN_OPS, None,
                            between=sampler)]
        sampler.finish()
        setup_times += sampler.times
        metrics = (end_to_end(phases[0], setup_times)
                   if len(phases[0].times) >= 2 else None)
    else:
        # one cycle first, so the untraced rate is measured warm, as the
        # traced one is
        warm = run_phase(wl, 0.0, wl.cycle, wl.cycle)
        untraced = run_phase(wl, args.seconds * UNTRACED_SHARE, 0, None,
                             first=warm.attempted)
        instr = tracing.Instrumentation(tracing.Tracer())
        instr.install()
        # inputs built again under tracing, so set-up layers show too;
        # the traced ops carry on after the untraced ones, so inputs
        # meant to be fresh are not repeated
        instr.tracer.op = "setup"
        wl = cls(pkg, args.seed, goldens)
        setup_totals = {k: tuple(v) for k, v in instr.tracer.totals.items()}
        instr.tracer.totals.clear()
        instr.heap.pushes = instr.heap.pops = 0
        instr.delay_queries = instr.lambert_in_fits = 0
        lru_before = tracing.lru_totals()
        traced = run_phase(wl, args.seconds * (1.0 - UNTRACED_SHARE),
                           0, None, first=warm.attempted + untraced.attempted,
                           tracer=instr.tracer)
        phases = [warm, untraced, traced]
        metrics = per_layer(untraced, traced, instr, setup_totals,
                            lru_before)
        write_spans(args, instr.tracer)
        instr.remove()

    head = header(args, phases, setup_times)
    for problem in head["failures"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"header": head}))
    if metrics is None:
        print("perfbench: fewer than two ops completed; nothing to time",
              file=sys.stderr)
        return 1
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, tracer: tracing.Tracer) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed,
           "dropped_spans": tracer.dropped,
           "totals": {name: {"calls": c, "total_ns": tot, "self_ns": slf}
                      for name, (c, tot, slf)
                      in sorted(tracer.totals.items())},
           "spans": tracer.spans_as_dicts()}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
