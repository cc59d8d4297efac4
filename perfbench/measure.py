"""Run one workload in this interpreter and print its result as JSON.

    python3 perfbench/measure.py --workload W --seed N --seconds S
        [--trace] [--rounds R] [--setup-only]

`run.py` starts this script in a fresh interpreter for every set-up
sample and every measurement; run that instead.  The last line of
standard output is one JSON object.

One closed loop: each call starts after the previous one returned, in a
single thread.  Complete rounds run until they have taken `--seconds` of
CPU time (or exactly `--rounds` rounds), after one untimed round.  Every answer is judged after the timed
phase, so oracle work counts in no timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from itertools import chain
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pitc
    if not Path(pitc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pitc imported from {pitc.__file__}, not {src}")
    return pitc


def call(pitc, op):
    """The timed library call of one operation."""
    if op.kind == "check":
        return pitc.check(op.rel, op.lhs, op.rhs, op.env, op.depth).equivalent
    if op.kind == "prove":
        return pitc.prove_eq(op.lhs, op.rhs, op.env)
    if op.kind == "hnf":
        return pitc.hnf(op.lhs, op.env)
    return pitc.expand(op.lhs, op.env)


def undecided_class(exc: Exception) -> str:
    msg = str(exc)
    if "unfolding exceeded" in msg:
        return "unfold_budget"
    if "hhp check limited" in msg:
        return "hhp_cap"
    if "equivalence check exceeded" in msg:
        return "game_budget"
    if type(exc).__name__ == "DepthExceeded":
        return "prover_cap"
    return "other"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(pitc, rounds, seconds: float, limit, tracer,
               rss_after: int):
    """Time each call; return the records (operation, latency, result,
    exception, round), the time of each complete round, and the peak
    resident memory once `rss_after` rounds are done (or at the end).

    Times are CPU seconds of this single-threaded process, so time the
    machine gives to other processes does not count.  A full collection
    scans the whole heap, the library's caches and the records kept here
    alike, and its pause lands on whichever call triggered it: latencies
    leave it out, round times keep it, so throughput still pays for it.
    The timed phase is the sum of the rounds: making a round beyond the
    set-up pool happens between rounds and is not timed.  Memory is read
    after a fixed number of rounds because the library's caches grow
    with the work done, and a faster library does more work in the same
    time."""
    records = []
    walls = []
    rss = None
    clock = time.process_time
    full_gc = [0.0, 0.0]                 # total, start of the current one

    def on_gc(phase: str, info: dict) -> None:
        if info["generation"] == 2:
            if phase == "start":
                full_gc[1] = clock()
            else:
                full_gc[0] += clock() - full_gc[1]

    gc.callbacks.append(on_gc)
    try:
        for ops in rounds:
            if limit is not None and len(walls) == limit:
                break
            round_start = clock()
            for op in ops:
                if tracer is not None:
                    tracer.op = len(records)
                paused = full_gc[0]
                t0 = clock()
                try:
                    result, exc = call(pitc, op), None
                except Exception as e:   # classified, never aborts the run
                    result, exc = None, e
                latency = clock() - t0 - (full_gc[0] - paused)
                if op.kind == "prove" and result is not None and not result[0]:
                    result = (False, None)   # judging needs no more
                records.append((op, latency, result, exc, len(walls)))
            walls.append(clock() - round_start)
            if tracer is not None:
                tracer.op = -1
            if len(walls) == rss_after:
                rss = peak_rss_mb()
            if limit is None and sum(walls) >= seconds:
                break
    finally:
        gc.callbacks.remove(on_gc)
    return records, walls, rss if rss is not None else peak_rss_mb()


def judge(pitc, op, result, exc, oracle: dict):
    """(outcome, detail): ok, wrong, undecided:<class> or error:<type>.

    Expected answers are fixed by construction, except for the prover,
    whose enumeration pairs are decided by step bisimilarity at depth 3
    (complete for this enumeration), whose proofs must replay into an
    alpha-variant of the right-hand side, and whose normal forms and
    expansions must be step-bisimilar to their input."""
    if exc is not None:
        if isinstance(exc, (pitc.StateBudgetExceeded, pitc.DepthExceeded)):
            return f"undecided:{undecided_class(exc)}", str(exc)
        return f"error:{type(exc).__name__}", str(exc)
    try:
        if op.kind == "check":
            return ("ok" if result == op.expected else "wrong"), f"said {result}"
        if op.kind == "prove":
            provable, trace = result
            expected = op.expected
            if expected is None:
                # Renaming the channels changes no verdict, so one oracle
                # call per enumeration position serves every pass.
                if op.label not in oracle:
                    oracle[op.label] = pitc.check_step(op.lhs, op.rhs,
                                                       depth=3).equivalent
                expected = oracle[op.label]
            if provable != expected:
                return "wrong", f"said provable={provable}"
            if provable and not pitc.alpha_eq(pitc.replay(trace, op.lhs), op.rhs):
                return "wrong", "proof does not replay into the right-hand side"
            return "ok", ""
        if op.kind == "hnf":
            form, trace = result
            pitc.replay(trace, op.lhs)
            if not pitc.check_step(op.lhs, form.to_process(), depth=3).equivalent:
                return "wrong", "normal form not step-bisimilar"
            return "ok", ""
        if not pitc.check_step(op.lhs, result, depth=3).equivalent:
            return "wrong", "expansion not step-bisimilar"
        return "ok", ""
    except ValueError as e:                  # a trace that does not replay
        return "wrong", f"oracle: {e}"


def summarize(pitc, records, walls: list[float], rss_mb: float) -> dict:
    fmt = pitc.format_process
    outcomes = []
    wrong = []
    oracle: dict[str, bool] = {}
    for op, latency, result, exc, _ in records:
        outcome, detail = judge(pitc, op, result, exc, oracle)
        outcomes.append(outcome)
        if outcome == "wrong":
            rhs = f"  vs  {fmt(op.rhs)}" if op.rhs is not None else ""
            wrong.append({"op": op.label, "known": op.known, "detail": detail,
                          "pair": f"{fmt(op.lhs)}{rhs}"})
    attempted = len(records)
    ok = outcomes.count("ok")
    latencies = [r[1] for r in records]
    slowest_ok = max((lat for lat, o in zip(latencies, outcomes) if o == "ok"),
                     default=0.0)
    # A failed operation ranks as slower than every success.
    effective = sorted(lat if o == "ok" else max(lat, slowest_ok)
                       for lat, o in zip(latencies, outcomes))
    n = len(effective)
    if n > 10:
        tail, tail_pct = effective[n - 11], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = effective[-1], 100.0
    classes: dict[str, int] = {}
    for o in outcomes:
        classes[o] = classes.get(o, 0) + 1
    undecided = sum(v for k, v in classes.items() if k.startswith("undecided"))
    errors = sum(v for k, v in classes.items() if k.startswith("error"))
    unexplained = [w for w in wrong if w["known"] is None]
    # Operations per second of the timed phase, as the median over its
    # rounds, so that a burst of load on a shared machine moves it less.
    ok_per_round = [0] * len(walls)
    for record, o in zip(records, outcomes):
        ok_per_round[record[4]] += o == "ok"
    return {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": attempted - ok,
        "outcomes": classes,
        "wrong": wrong,
        "timed_s": sum(walls),
        "metrics": {
            "throughput_ops_s": statistics.median(
                k / wall for k, wall in zip(ok_per_round, walls)),
            "latency_p50_ms": statistics.median(effective) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "ok_ratio": ok / attempted,
            "undecided_ratio": undecided / attempted,
            "wrong_ratio": len(wrong) / attempted,
            "error_ratio": errors / attempted,
            "peak_rss_mb": rss_mb,
        },
        "tail_percentile": tail_pct,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pitc = import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(pitc)
        tracer.install()
    pool, more = workloads.build(args.workload, args.seed, args.seconds)
    if args.setup_only:
        return 0
    # The input pool is built; keep the collector from rescanning it.
    gc.collect()
    gc.freeze()
    # One untimed round first: the interpreter specialises hot bytecode
    # and grows its heap on first use, which slowed the first round by
    # about 10%.
    warmup = pool.pop(0)
    for op in warmup:
        try:
            call(pitc, op)
        except Exception:
            pass
    setup_layers = tracer.start_timed_phase() if tracer else {}
    records, walls, rss = run_rounds(pitc, chain(pool, more), args.seconds,
                                     args.rounds, tracer, len(pool))
    if tracer:
        tracer.uninstall()
    out = summarize(pitc, records, walls, rss)
    out["rounds"] = len(walls)
    out["rounds_beyond_setup"] = max(0, len(walls) - len(pool))
    if tracer:
        out["layers"] = {**setup_layers, **tracer.layer_metrics(len(records))}
        out["spans"] = len(tracer.starts)
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.bin")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
