"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Every workload passes its checks at a tiny size, a wrong output counts
as a failed op without stopping the run, traced spans are consistent
(self time is non-negative and self plus child time is the span), a
different seed changes the inputs and still passes, and the command
prints a result line with exactly the keys and metrics BENCHMARK.json
names, and fails without the package sources.  The file is
not named test_*.py, so the package's own test suite does not collect
it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_OPS = 3
# phases in these tests end on their op cap, never on time
FOREVER = float("inf")


class HarnessTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.pkg = workloads.import_misdelay(run.SRC)
        cls.goldens = workloads.load_goldens()

    def make(self, name, seed=1, goldens=None):
        return workloads.WORKLOADS[name](self.pkg, seed,
                                         goldens or self.goldens)

    def test_every_workload_passes_its_checks_at_a_tiny_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                phase = run.run_phase(self.make(name), FOREVER, 0, TINY_OPS)
                self.assertEqual(phase.attempted, TINY_OPS)
                self.assertEqual(phase.failed, 0, phase.failures)
                self.assertEqual(len(phase.times), TINY_OPS)

    def test_wrong_output_counts_as_failed_op_and_run_goes_on(self):
        bad = copy.deepcopy(self.goldens)
        for entry in bad["nor_chain_sim"]:
            entry["events"] += 1
        for entry in bad["verify_sweep"].values():
            entry["stdout_sha256"] = "0" * 64
        for name in ("nor_chain_sim", "verify_sweep"):
            with self.subTest(workload=name):
                phase = run.run_phase(self.make(name, goldens=bad),
                                      FOREVER, 0, 2)
                self.assertEqual(phase.attempted, 2)
                self.assertEqual(phase.failed, 2)
                self.assertTrue(phase.failures)

    def test_characterize_check_rejects_a_bad_round_trip(self):
        wl = self.make("characterize_fit")
        self.assertIsNone(wl.check((0, 0.0, 0.0)))
        self.assertIsNotNone(wl.check((0, 2e-6, 0.0)))
        self.assertIsNotNone(wl.check((0, 0.0, 2e-9)))

    def test_parameter_check_is_relative_on_every_field(self):
        for true in self.make("characterize_fit").pairs[0]:
            self.assertEqual(workloads._param_dev(true, true), 0.0)
            for f in dataclasses.fields(true):
                value = getattr(true, f.name)
                if not isinstance(value, float):
                    continue
                with self.subTest(params=type(true).__name__, field=f.name):
                    bent = value * (1.0 + 2.0 * workloads.PARAM_TOL)
                    off = dataclasses.replace(true, **{f.name: bent})
                    self.assertGreater(workloads._param_dev(off, true),
                                       workloads.PARAM_TOL)

    def test_other_seed_changes_inputs_and_still_passes(self):
        inputs = {
            "nor_chain_sim": lambda wl: wl.texts,
            "cgate_chain_sim": lambda wl: wl.texts,
            "verify_sweep": lambda wl: wl.names,
            "characterize_fit": lambda wl: wl.pairs,
        }
        for name, view in inputs.items():
            with self.subTest(workload=name):
                a, b = self.make(name, seed=1), self.make(name, seed=2)
                self.assertEqual(view(a), view(self.make(name, seed=1)))
                self.assertNotEqual(view(a), view(b))
                phase = run.run_phase(b, FOREVER, 0, 2)
                self.assertEqual(phase.failed, 0, phase.failures)

    def test_traced_spans_are_consistent(self):
        instr = tracing.Instrumentation(tracing.Tracer(span_budget=10**6))
        instr.install()
        try:
            for name in workloads.WORKLOADS:
                phase = run.run_phase(self.make(name), FOREVER, 0, 1,
                                      tracer=instr.tracer)
                self.assertEqual(phase.failed, 0, phase.failures)
        finally:
            instr.remove()
        tracer = instr.tracer
        self.assertEqual(tracer.dropped, 0)
        child_ns = defaultdict(int)
        for span_id, _, start, end, parent, _, _ in tracer.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names = set()
        for span_id, name, start, end, _, _, self_ns in tracer.spans:
            names.add(name)
            self.assertGreaterEqual(self_ns, 0, name)
            self.assertEqual(self_ns + child_ns[span_id], end - start, name)
        for module, attr in tracing.TRACED:
            if (module, attr) != ("fileio", "load_fixture"):
                self.assertIn(f"{module}.{attr}", names)
        self.assertGreater(instr.heap.pops, 0)
        self.assertGreater(instr.delay_queries, 0)
        # every Lambert W call of characterize_fit's op is inside a fit
        self.assertGreater(instr.lambert_in_fits, 0)
        self.assertLessEqual(instr.lambert_in_fits,
                             tracer.calls("numerics.lambert_w_m1"))
        # removal restores the package
        self.assertIs(self.pkg.sim.heapq, instr.heap._real)
        self.assertFalse(hasattr(self.pkg.sim.run, "__wrapped__"))
        self.assertFalse(hasattr(self.pkg.cli.nor_delay, "__wrapped__"))


class CommandTest(unittest.TestCase):

    def run_command(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_sweep",
             "--seed", "3", "--seconds", "1", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=300, check=False)

    def test_result_line_names_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = self.run_command(run.ROOT, "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                head = json.loads(lines[-2])["header"]
                result = json.loads(lines[-1])
                if trace == 0:
                    self.assertEqual(head["setup_repeats"], run.SETUP_REPEATS)
                    self.assertGreaterEqual(head["ops"][0], run.MIN_OPS)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in spec[key]})
                for m in spec[key]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_fails_without_the_package_sources(self):
        scratch = run.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_command(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
