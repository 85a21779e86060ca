"""The names perfbench's tracer patches must exist in the package.

`perfbench/tracing.py` wraps functions by (module, attribute), swaps
`misdelay.sim.heapq` for a counting stand-in and counts DelayQuery
constructions through `__post_init__`.  A rename that breaks one of
these fails here, in the test suite, rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import misdelay

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # loaded by path, as a module of its own: perfbench is not a package
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracing().TRACED


@pytest.mark.parametrize("module_name,attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_function_resolves(module_name, attr):
    module = importlib.import_module(f"misdelay.{module_name}")
    assert callable(getattr(module, attr))


def test_patched_names_resolve():
    assert callable(misdelay.sim.heapq.heappush)
    assert callable(misdelay.sim.heapq.heappop)
    assert callable(misdelay.gates.DelayQuery.__post_init__)
    # perfbench/selftest.py checks that tracing leaves this name unwrapped
    assert callable(importlib.import_module("misdelay.cli").nor_delay)
