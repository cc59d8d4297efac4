"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/seeds.py [--workloads laws,choice,mobile,prove]
                               [--seeds 1-10] [--seconds 15]
                               [--baseline perfbench/BASELINE.json]

For every workload and end-to-end metric it prints the median over the
seeds and the spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound in
BENCHMARK.json.  `--baseline` writes the medians and quartiles of every
metric, the undecided, wrong and error ratios included, and the summed
outcomes, so later changes can claim against them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="laws,choice,mobile,prove")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    baseline = {"seeds": seeds, "seconds": args.seconds,
                "machine": f"{cpu_model()}, {os.cpu_count()} cores, "
                           f"Python {platform.python_version()}",
                "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(
                (HERE / "out" / f"{workload}-seed{seed}.json").read_text())
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary = {"metrics": {}, "outcomes": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3}
            if name in bounds:
                note = ("" if name == "setup_s"
                        else f"  ({spread / bounds[name]:.2f} of bound)")
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
                print(f"  {workload:<7} {name:<17} median {med:12.4f}  "
                      f"spread {spread:.4f}  bound {bounds[name]}{note}")
        for r in results:
            for k, v in r["outcomes"].items():
                summary["outcomes"][k] = summary["outcomes"].get(k, 0) + v
        summary["tail_percentile"] = statistics.median(
            r["tail_percentile"] for r in results)
        baseline["workloads"][workload] = summary
    print(f"largest spread: {worst:.2f} of its bound")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
