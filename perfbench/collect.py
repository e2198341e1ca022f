"""Run the benchmark over seeds 0-9 and summarise each metric.

    python3 perfbench/collect.py --trace 0,1 --out perfbench/baseline.json

Runs ``run.py`` once per workload, seed and trace mode, one run at a time,
each for BENCHMARK.json's ``run_seconds``, and reports for every metric the
median over the seeds, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (quartile distance over the median).  ``--out``
writes the summary as JSON, with the environment stamp of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().with_name("run.py")
SPEC = RUN.parent.parent / "BENCHMARK.json"
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return env, json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                     "spread": (q3 - q1) / median if median else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", default="0", choices=("0", "1", "0,1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        for trace in (int(t) for t in args.trace.split(",")):
            results = []
            for seed in SEEDS:
                env, result = run_once(workload, seed, seconds, trace)
                summary.setdefault("env", env)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} calls failed", file=sys.stderr)
                results.append(result)
            stats = summarise(results)
            stats["attempted"] = [r["attempted"] for r in results]
            stats["failed"] = sum(r["failed"] for r in results)
            summary["workloads"].setdefault(workload, {})[f"trace{trace}"] = stats
            for name, s in stats.items():
                if isinstance(s, dict) and (trace == 0 or name.endswith("self_s")):
                    spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                    print(f"{workload:14s} {name:44s} median {s['median']:.6g} {s['unit']:5s} "
                          f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}", flush=True)
            print(f"{workload:14s} attempted {stats['attempted']} failed {stats['failed']}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
