"""Record the outputs the benchmark checks ops against.

    python3 perfbench/record.py

Writes perfbench/goldens.json: for every stimulus entry of the two sim
workloads the event count and the SHA-256 of the per-net transition
counts and of the VCD text, and for every bundled fixture the exit code
and the SHA-256 of `misdelay verify --params <fixture>` output.  Run it
only on a commit whose outputs are meant to be the reference; a change
that only makes the program faster must leave this file unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record() -> dict:
    pkg = workloads.import_misdelay(HERE.parent / "src")
    doc = {}
    for cls in (workloads.NorChainSim, workloads.CGateChainSim):
        wl = cls(pkg, 0, None)
        entries = [None] * workloads.STIMULUS_POOL
        for i in range(workloads.STIMULUS_POOL):
            _, outcome = wl.run_op(i)
            entries[outcome[0]] = cls.record(outcome)
        doc[cls.name] = entries
    wl = workloads.VerifySweep(pkg, 0, None)
    doc[wl.name] = {}
    for i in range(wl.cycle):
        _, outcome = wl.run_op(i)
        doc[wl.name][outcome[0]] = wl.record(outcome)
    doc[wl.name] = dict(sorted(doc[wl.name].items()))
    return doc


def render(doc: dict) -> str:
    """JSON with one recorded entry per line, so diffs stay readable."""
    blocks = []
    for name, entries in doc.items():
        if isinstance(entries, list):
            rows = [json.dumps(e, sort_keys=True) for e in entries]
            body = "[\n  " + ",\n  ".join(rows) + "\n ]"
        else:
            rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                    for k, v in entries.items()]
            body = "{\n  " + ",\n  ".join(rows) + "\n }"
        blocks.append(f" {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    doc = record()
    text = render(doc)
    if json.loads(text) != doc:
        raise RuntimeError("rendered goldens do not parse back to the record")
    workloads.GOLDENS.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
