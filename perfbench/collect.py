"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --trace 0 --seeds 10 [--workload NAME ...]
        [--first-seed N] [--seconds S] [--out perfbench/baseline.json]

Runs one workload at a time, never in parallel, so runs do not compete
for the two cores.  For every metric it reports the median, the first
and third quartile (`statistics.quantiles(values, n=4)`) and the spread,
(q3 - q1) / median, which is what the benchmark's bounds are judged
against.  With --out, the summary is stored under "trace0" or "trace1"
of that file, keeping the other half.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    head = json.loads(lines[-2])["header"]
    result = json.loads(lines[-1])
    return {"seed": seed, "header": head, "result": result}


def _stats(values, unit) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def summarise(runs) -> dict:
    """Gated metrics by name, then the header's ungated "info" figures."""
    out = {}
    for name, m in runs[0]["result"]["metrics"].items():
        out[name] = _stats([r["result"]["metrics"][name]["value"]
                            for r in runs], m["unit"])
    for name in runs[0]["header"].get("info", {}):
        out[f"info.{name}"] = _stats([r["header"]["info"][name]
                                      for r in runs], "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}

    collected = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(name, seed, args.seconds, args.trace)
            r = run["result"]
            print(f"{name} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr, flush=True)
            runs.append(run)
        summary = summarise(runs)
        collected[name] = {
            "header": runs[0]["header"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "metrics": summary,
        }
        for metric, s in summary.items():
            bound = bounds.get(metric)
            flag = ""
            if args.trace == 0 and bound:
                steady = "ok" if s["spread"] < bound / 3 else "WIDE"
                flag = f"  bound {bound:g} ({steady} vs bound/3)"
            print(f"  {name:18s} {metric:42s} median {s['median']:.6g} "
                  f"{s['unit']:8s} spread {s['spread']:.4f}{flag}",
                  flush=True)

    if args.out is not None:
        doc = {}
        if args.out.exists():
            doc = json.loads(args.out.read_text(encoding="utf-8"))
        last_seed = args.first_seed + args.seeds - 1
        doc[f"trace{args.trace}"] = {"seconds": args.seconds,
                                     "seeds": [args.first_seed, last_seed],
                                     "workloads": collected}
        args.out.write_text(json.dumps(doc, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
