"""Spans and counts at the boundaries of the library's layers.

`Tracer.install()` wraps the public functions of each `pitc` module and
rebinds the wrapper under every name that holds the original, in every
`pitc` module: the modules import their helpers by name (`from .syntax
import canonical`), so patching the defining module alone would miss
most calls.  `raw_steps` is the exception: it is wrapped where
`unfolding` and `equivalences` call it, not inside `semantics`, where its
callers are its own recursion and `transitions`.

A span is (name, start, end, parent span, operation id).  A call made
while the innermost open span has the same name (recursion through the
module global) belongs to that span and opens none.  Spans stay in
memory in flat arrays; `write` stores them at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: (span name, defining module, attribute, kind).  kind "gen" marks a
#: generator function: its work runs on each resume, interleaved with
#: the consumer's, so each resume is a span of its own.
TARGETS = (
    ("parser", "parser", "parse_term", "call"),
    ("parser", "parser", "parse_file", "call"),
    ("syntax.canonical", "syntax", "canonical", "call"),
    ("syntax.all_names", "syntax", "all_names", "call"),
    ("syntax.free_names", "syntax", "free_names", "call"),
    ("syntax.substitute", "syntax", "substitute", "call"),
    ("semantics.transitions", "semantics", "transitions", "call"),
    ("semantics.raw_steps", "semantics", "raw_steps", "call"),
    ("unfolding.unfold", "unfolding", "unfold", "call"),
    ("unfolding.pomset_transitions", "unfolding", "pomset_transitions", "call"),
    ("unfolding.pomset_isos", "unfolding", "pomset_isos", "gen"),
    ("equivalences.step", "equivalences", "check_step", "call"),
    ("equivalences.pomset", "equivalences", "check_pomset", "call"),
    ("equivalences.hp", "equivalences", "check_hp", "call"),
    ("equivalences.hhp", "equivalences", "check_hhp", "call"),
    ("prover.prove_eq", "prover", "prove_eq", "call"),
    ("prover.hnf", "prover", "hnf", "call"),
    ("prover.expand", "prover", "expand", "call"),
)
NOT_REBOUND_IN = {"raw_steps": {"pitc.semantics"}}
SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    def __init__(self, pitc) -> None:
        self.pitc = pitc
        self.op = -1                     # operation id; -1 during set-up
        self.sids = array("B")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.open_sids = [-1]
        self.open_idx = [-1]
        self.counts: Counter = Counter()
        self.undecided = (pitc.StateBudgetExceeded, pitc.DepthExceeded)
        self._cache_seen = 0
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------

    def _enter(self, sid: int) -> int:
        i = len(self.starts)
        self.sids.append(sid)
        self.parents.append(self.open_idx[-1])
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.open_sids.append(sid)
        self.open_idx.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _leave(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.open_sids.pop()
        self.open_idx.pop()

    def _wrap_call(self, name: str, fn, after):
        sid = SPAN_NAMES.index(name)
        open_sids, counts, undecided = self.open_sids, self.counts, self.undecided

        def wrapper(*args, **kwargs):
            if open_sids[-1] == sid:
                return fn(*args, **kwargs)
            counts[name, "calls"] += 1
            i = self._enter(sid)
            try:
                result = fn(*args, **kwargs)
            except undecided:
                counts[name, "undecided"] += 1
                raise
            finally:
                self._leave(i)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _wrap_gen(self, name: str, fn):
        sid = SPAN_NAMES.index(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, "calls"] += 1
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    i = self._enter(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(i)
                    yield item
            return resumed()
        return wrapper

    def _after(self, name: str):
        """Counts taken from a layer's result at its boundary."""
        counts = self.counts
        if name == "semantics.transitions":
            cache = getattr(self.pitc.semantics, "_TRANS_CACHE", None)

            def after(result):
                counts[name, "results"] += len(result)
                if cache is not None:
                    counts[name, "new_entries"] += len(cache) - self._cache_seen
                    self._cache_seen = len(cache)
            return after
        if name == "unfolding.unfold":
            def after(u):
                counts[name, "nodes"] += len(u.nodes)
                counts[name, "events"] += len(u.events)
            return after
        if name == "unfolding.pomset_transitions":
            def after(result):
                counts[name, "pomsets"] += len(result)
            return after
        if name == "prover.prove_eq":
            def after(result):
                if result[0] is True:
                    counts["prover", "trace_steps"] += len(result[1])
            return after
        if name == "prover.hnf":
            def after(result):
                counts["prover", "trace_steps"] += len(result[1])
            return after
        return None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "pitc" or k.startswith("pitc.")]
        for name, home, attr, kind in TARGETS:
            original = getattr(getattr(self.pitc, home), attr)
            wrapper = (self._wrap_gen(name, original) if kind == "gen"
                       else self._wrap_call(name, original, self._after(name)))
            for mod in modules:
                if mod.__name__ in NOT_REBOUND_IN.get(attr, ()):
                    continue
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            # `check(rel, ...)` dispatches through this table.
            table = getattr(self.pitc.equivalences, "CHECKERS", {})
            for rel, fn in list(table.items()):
                if fn is original:
                    self._restore.append((table, rel, original))
                    table[rel] = wrapper
        cache = getattr(self.pitc.semantics, "_TRANS_CACHE", None)
        self._cache_seen = len(cache) if cache is not None else 0

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._restore.clear()

    def start_timed_phase(self) -> dict[str, float]:
        """Close the set-up phase: return its parser figures and reset the
        counters, so the layer figures cover the timed operations only."""
        setup = {"parser.calls": float(self.counts["parser", "calls"]),
                 "parser.self_s": self.self_times(timed=False)["parser"]}
        self.counts.clear()
        cache = getattr(self.pitc.semantics, "_TRANS_CACHE", None)
        self._cache_seen = len(cache) if cache is not None else 0
        return setup

    # -- results -----------------------------------------------------------

    def self_times(self, timed: bool = True) -> dict[str, float]:
        """Sum per span name of duration minus the time its children cover,
        over the timed operations (or over set-up, with timed=False)."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        sids, ops = self.sids, self.ops
        for i in range(n):
            if (ops[i] >= 0) == timed:
                name = SPAN_NAMES[sids[i]]
                out[name] += ends[i] - starts[i] - child[i]
        return out

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-operation figures for every layer, over the timed phase."""
        per_op = 1.0 / max(operations, 1)
        selfs = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            if name == "parser":
                continue
            out[f"{name}.calls"] = c[name, "calls"] * per_op
            out[f"{name}.self_s"] = selfs[name] * per_op
        for name, metric in (("semantics.transitions", "results"),
                             ("unfolding.unfold", "nodes"),
                             ("unfolding.unfold", "events"),
                             ("unfolding.pomset_transitions", "pomsets"),
                             ("equivalences.step", "undecided"),
                             ("equivalences.pomset", "undecided"),
                             ("equivalences.hp", "undecided"),
                             ("equivalences.hhp", "undecided"),
                             ("prover", "trace_steps")):
            out[f"{name}.{metric}"] = c[name, metric] * per_op
        calls = c["semantics.transitions", "calls"]
        readable = getattr(self.pitc.semantics, "_TRANS_CACHE", None) is not None
        # -1: no calls, or a cache no longer readable from outside.
        out["semantics.cache_hit_ratio"] = (
            1.0 - c["semantics.transitions", "new_entries"] / calls
            if readable and calls else -1.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as flat arrays in native byte order after a one-line JSON
        header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": SPAN_NAMES, "spans": len(self.starts),
                  "arrays": [["sid", "B"], ["parent", "q"], ["op", "q"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.sids, self.parents, self.ops, self.starts,
                        self.ends):
                arr.tofile(fh)
