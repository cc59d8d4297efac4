"""The pitc benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py [--workload laws|choice|mobile|prove|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from `src/`.
Every workload runs in fresh interpreters (`measure.py`), so the
library's process-wide caches start empty and memory belongs to one
workload.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics.  `setup_s` is the median of several
           fresh interpreters that each start, import pitc, generate and
           parse the inputs, and exit; then one more interpreter measures.
--trace 1  per-layer metrics from a traced run, plus
           `trace.overhead_ratio`: the traced run's timed phase divided
           by an untraced run of the same rounds in a fresh interpreter.

`--workload all` (the default) runs every workload in turn and prints
each one's report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws", "choice", "mobile", "prove")
SETUP_SAMPLES = 3
#: Each single-workload run ends within this many seconds.
RUN_DEADLINE_S = 170

#: (name, unit) of the end-to-end metrics in BENCHMARK.json, which the
#: last output line carries; they are never zero.
BOUNDED = (
    ("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("ok_ratio", "ratio"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Reported too, but often zero, so they carry no bound.
UNBOUNDED = (("undecided_ratio", "ratio"), ("wrong_ratio", "ratio"),
             ("error_ratio", "ratio"))


class RunFailed(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise RunFailed("out of time")
        return left


def measure(deadline: Deadline, *args: str) -> tuple[float, dict]:
    """Run measure.py in a fresh interpreter; (wall seconds, its JSON)."""
    cmd = [sys.executable, str(HERE / "measure.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline.left())
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"timed out: {' '.join(args)}") from e
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(args)} exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else {})


def end_to_end(workload: str, seed: int, seconds: int,
               deadline: Deadline) -> dict:
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    setups = [measure(deadline, *common, "--setup-only")[0]
              for _ in range(SETUP_SAMPLES)]
    _, out = measure(deadline, *common)
    out["metrics"]["setup_s"] = statistics.median(setups)
    out["setup_samples_s"] = setups
    save(out, f"{workload}-seed{seed}")
    print(f"== {workload}  seed {seed}: {out['attempted']} operations in "
          f"{out['rounds']} rounds ({out['rounds_beyond_setup']} made after "
          f"set-up), {out['timed_s']:.2f} s timed")
    for name, unit in BOUNDED + UNBOUNDED:
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{out['tail_percentile']:.2f} of "
                    f"{out['attempted']} operations)")
        print(f"  {name:<18} {out['metrics'][name]:12.4f} {unit}{note}")
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in
                                     sorted(out["outcomes"].items())))
    for w in out["wrong"]:
        why = f"known defect {w['known']}" if w["known"] else "UNEXPLAINED"
        print(f"  wrong ({why}): {w['op']}: {w['detail']}: {w['pair']}")
    out["metrics"] = {name: {"value": out["metrics"][name], "unit": unit}
                      for name, unit in BOUNDED}
    return out


def per_layer(workload: str, seed: int, seconds: int,
              deadline: Deadline) -> dict:
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    _, traced = measure(deadline, *common, "--trace")
    _, plain = measure(deadline, *common, "--rounds", str(traced["rounds"]))
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    save(traced, f"{workload}-seed{seed}-trace")
    print(f"== {workload}  seed {seed}: traced {traced['attempted']} "
          f"operations in {traced['rounds']} rounds, {traced['spans']} spans")
    metrics = {}
    for name in sorted(layers):
        unit = layer_unit(name)
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"  {name:<42} {layers[name]:14.6g} {unit}")
    traced["metrics"] = metrics
    return traced


def save(result: dict, stem: str) -> None:
    """Keep the whole result, every metric and outcome, under out/."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1))


def layer_unit(name: str) -> str:
    if name.startswith("parser."):
        return "s" if name.endswith("_s") else "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s/op" if name.endswith("_s") else "1/op"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pitc" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    run = per_layer if args.trace else end_to_end
    try:
        results = {w: run(w, args.seed, args.seconds,
                          Deadline(RUN_DEADLINE_S)) for w in chosen}
    except RunFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
