"""Equational prover: head normal forms, the expansion law, and a
completeness-style decision procedure for recursion-free terms.

Normalization is an explicit rewrite loop over the term, so every proof
is a replayable sequence of axiom instances: identifier unfolding (I),
restriction laws (R0 and generalizations of R2-R4, plus scope extrusion
O which the axiom set needs but does not name), summation laws (S0-S3),
and the expansion law (E).  A head normal form is a sum of multi-prefix
summands, and the summands of a term are the steps `semantics.raw_steps`
derives for it; a summand whose prefixes fire several actions at once is
realized as the parallel composition of its single-prefix parts, which
fires them as one step under the maximal-step discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DepthExceeded, NotWeaklyGuarded, StateBudgetExceeded
from .parser import format_process
from .syntax import (
    EMPTY_ENV, NIL, TAU, Action, Call, Environment, FreeOutput, Input,
    InputPrefix, Name, Nil, OutputPrefix, Par, Process, Restriction, Sum,
    TauPrefix, action_names, all_names, alpha_eq, canonical, free_names,
    fresh_name, positions, substitute, subterms, sum_of,
)
from .semantics import (
    Alloc, Fire, annotate, class_bijections, finalize, instance_names,
    label_classes, label_key, late_instances, raw_steps, transitions,
)

DEFAULT_UNFOLD_CAP = 16
_REWRITE_CAP = 200_000

AXIOM_TAGS = ("A", "C", "S0", "S1", "S2", "S3",
              "R0", "R1", "R2", "R3", "R4", "E", "I", "O")


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TraceStep:
    tag: str
    path: tuple[str, ...]
    before: Process
    after: Process

    def render(self) -> str:
        where = "/".join(self.path) or "top"
        return (f"{self.tag:<2} @ {where}: {format_process(self.before)} "
                f"= {format_process(self.after)}")

    def to_json(self) -> dict:
        return {
            "axiom": self.tag,
            "position": list(self.path),
            "before": format_process(self.before),
            "after": format_process(self.after),
        }


ProofTrace = list[TraceStep]


def _get(term: Process, path: tuple[str, ...]) -> Process:
    for step in path:
        if step == "left":
            term = term.left          # type: ignore[union-attr]
        elif step == "right":
            term = term.right         # type: ignore[union-attr]
        elif step == "body":
            term = term.body          # type: ignore[union-attr]
        else:
            raise ValueError(f"bad path component {step!r}")
    return term


def _put(term: Process, path: tuple[str, ...], new: Process) -> Process:
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "left":
        return type(term)(_put(term.left, rest, new), term.right)  # type: ignore
    if step == "right":
        return type(term)(term.left, _put(term.right, rest, new))  # type: ignore
    if step == "body":
        return Restriction(term.binder, _put(term.body, rest, new))  # type: ignore
    raise ValueError(f"bad path component {step!r}")


def replay(trace: Sequence[TraceStep], start: Process) -> Process:
    """Apply each recorded rewrite in order; raises if a redex mismatches."""
    cur = start
    for step in trace:
        at = _get(cur, step.path)
        if not alpha_eq(at, step.before):
            raise ValueError(
                f"trace does not replay: expected {format_process(step.before)} "
                f"at {'/'.join(step.path) or 'top'}, found {format_process(at)}")
        cur = _put(cur, step.path, step.after)
    return cur


# --------------------------------------------------------------------------
# Head normal forms
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Summand:
    """(alpha_1 || ... || alpha_n).cont with `enc` a term realizing it."""

    prefixes: tuple[Action, ...]
    cont: Process
    enc: Process

    def render(self) -> str:
        pre = " || ".join(str(a) for a in self.prefixes)
        return f"({pre}).{format_process(self.cont)}"


@dataclass(frozen=True, slots=True)
class HeadNormalForm:
    summands: tuple[Summand, ...]

    def render(self) -> str:
        if not self.summands:
            return "0"
        return " + ".join(s.render() for s in self.summands)

    def to_process(self) -> Process:
        return _distinct_sum(s.enc for s in self.summands)


def _distinct_sum(terms: Iterable[Process]) -> Process:
    """The sum of `terms`, one per alpha class, in canonical order."""
    uniq: dict[Process, Process] = {}
    for t in terms:
        uniq.setdefault(canonical(t), t)
    return sum_of(t for _, t in sorted(uniq.items(), key=lambda kv: str(kv[0])))


def _summand_key(s: Summand) -> tuple:
    classes = [n for n, _ in label_classes(s.prefixes)]
    markers = {n: f"~s{i}" for i, n in enumerate(classes)}
    return (label_key(s.prefixes),
            format_process(canonical(substitute(s.cont, markers))))


def _distinct_summands(sums: Iterable[Summand]) -> list[Summand]:
    """One summand per `_summand_key`, in key order."""
    uniq: dict[tuple, Summand] = {}
    for s in sums:
        uniq.setdefault(_summand_key(s), s)
    return [uniq[k] for k in sorted(uniq)]


# --------------------------------------------------------------------------
# Weak guardedness
# --------------------------------------------------------------------------

def _calls_guarded(p: Process, under_prefix: bool) -> bool:
    if isinstance(p, Call):
        return under_prefix
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        return _calls_guarded(p.cont, True)
    if isinstance(p, Restriction):
        return _calls_guarded(p.body, under_prefix)
    if isinstance(p, (Sum, Par)):
        return (_calls_guarded(p.left, under_prefix)
                and _calls_guarded(p.right, under_prefix))
    return True


def weakly_guarded(env: Environment) -> dict[Name, bool]:
    """Per identifier: is every call in its body under at least one prefix?"""
    return {ident: _calls_guarded(env.lookup(ident).body, False)
            for ident in env.idents()}


def _reachable_idents(p: Process, env: Environment) -> set[Name]:
    seen: set[Name] = set()
    work = [t.ident for t in subterms(p) if isinstance(t, Call)]
    while work:
        ident = work.pop()
        if ident in seen:
            continue
        seen.add(ident)
        body = env.lookup(ident).body
        work.extend(t.ident for t in subterms(body) if isinstance(t, Call))
    return seen


def _require_guarded(p: Process, env: Environment) -> None:
    table = weakly_guarded(env)
    bad = sorted(i for i in _reachable_idents(p, env) if not table[i])
    if bad:
        raise NotWeaklyGuarded(
            f"identifier(s) not weakly guardedly defined: {', '.join(bad)}")


# --------------------------------------------------------------------------
# Normalizer
# --------------------------------------------------------------------------

class Prover:
    """Shared normalization and equality engine with cross-call memo tables."""

    def __init__(self, env: Environment = EMPTY_ENV) -> None:
        self.env = env
        self.fuel = DEFAULT_UNFOLD_CAP
        self._norm_cache: dict[Process, tuple[Process, tuple[TraceStep, ...]]] = {}
        self._sums_cache: dict[Process, tuple[Summand, ...]] = {}
        self._eq_memo: dict[tuple, bool] = {}
        self._active: set[tuple] = set()

    # -- rewriting ---------------------------------------------------------

    def normalize(self, p: Process) -> tuple[Process, list[TraceStep]]:
        hit = self._norm_cache.get(p)
        if hit is not None:
            return hit[0], list(hit[1])
        cur = p
        steps: list[TraceStep] = []
        for _ in range(_REWRITE_CAP):
            redex = self._find_redex(cur, ())
            if redex is None:
                self._norm_cache[p] = (cur, tuple(steps))
                return cur, steps
            tag, path, before, after = redex
            steps.append(TraceStep(tag, path, before, after))
            cur = _put(cur, path, after)
        raise StateBudgetExceeded("normalization did not converge")

    def _find_redex(self, t: Process, path: tuple[str, ...]
                    ) -> Optional[tuple[str, tuple[str, ...], Process, Process]]:
        # Innermost-first over the head region only: prefix continuations
        # are left untouched, they are normalized lazily by the recursion.
        if isinstance(t, (Sum, Par)):
            r = self._find_redex(t.left, path + ("left",))
            if r is not None:
                return r
            r = self._find_redex(t.right, path + ("right",))
            if r is not None:
                return r
        elif isinstance(t, Restriction):
            r = self._find_redex(t.body, path + ("body",))
            if r is not None:
                return r
        if isinstance(t, Call):
            if self.fuel <= 0:
                raise DepthExceeded(
                    f"unfold cap {DEFAULT_UNFOLD_CAP} reached while normalizing")
            self.fuel -= 1
            return ("I", path, t, self.env.instantiate(t))
        if isinstance(t, Sum):
            return self._sum_redex(t, path)
        if isinstance(t, Par):
            return self._par_redex(t, path)
        if isinstance(t, Restriction):
            return self._res_redex(t, path)
        return None

    def _sum_redex(self, t: Sum, path):
        addends = _addends(t)
        for i, a in enumerate(addends):
            if isinstance(a, Nil) and len(addends) > 1:
                rest = addends[:i] + addends[i + 1:]
                return ("S0", path, t, sum_of(rest))
        canons = [canonical(a) for a in addends]
        for i in range(len(addends)):
            for j in range(i + 1, len(addends)):
                if canons[i] == canons[j]:
                    rest = addends[:j] + addends[j + 1:]
                    return ("S1", path, t, sum_of(rest))
        ordered = sorted(addends, key=lambda a: str(canonical(a)))
        if ordered != addends:
            return ("S2", path, t, sum_of(ordered))
        desired = sum_of(addends)
        if desired != t:
            return ("S3", path, t, desired)
        return None

    def _par_redex(self, t: Par, path):
        after = _distinct_sum([s.enc for s in self.summands_of(t)])
        if alpha_eq(after, t):
            return None
        return ("E", path, t, after)

    def _res_redex(self, t: Restriction, path):
        y = t.binder
        body = t.body
        if y not in free_names(body):
            return ("R0", path, t, body)
        if isinstance(body, Sum):
            after = Sum(Restriction(y, body.left), Restriction(y, body.right))
            return ("R2", path, t, after)
        if isinstance(body, (TauPrefix, OutputPrefix, InputPrefix)):
            act = _head_action(body)
            if y not in action_names(act):
                return ("R3", path, t,
                        _with_cont(body, Restriction(y, body.cont)))
            if isinstance(body, OutputPrefix) and body.object == y \
                    and body.subject != y:
                return None  # scope extrusion: realized by the term itself
            return ("R4", path, t, NIL)
        inner = self.summands_of(body)
        if not inner:
            return ("R4", path, t, NIL)
        if all(y not in _prefix_names(s.prefixes) for s in inner):
            return None
        if len(inner) == 1 and _all_outputs_of(inner[0].prefixes, y):
            return None
        return ("R4", path, t, NIL)

    # -- summand extraction -------------------------------------------------

    def summands_of(self, t: Process) -> tuple[Summand, ...]:
        hit = self._sums_cache.get(t)
        if hit is not None:
            return hit
        out = self._summands(t)
        self._sums_cache[t] = out
        return out

    def _summands(self, t: Process) -> tuple[Summand, ...]:
        if isinstance(t, Nil):
            return ()
        if isinstance(t, InputPrefix):
            w = fresh_name(all_names(t))
            return (Summand((Input(t.subject, w),),
                            substitute(t.cont, {t.binder: w}), t),)
        if isinstance(t, (TauPrefix, OutputPrefix)):
            return (Summand((_head_action(t),), t.cont, t),)
        if isinstance(t, Sum):
            return self.summands_of(t.left) + self.summands_of(t.right)
        # A side that is 0 idles; in a normal form it is the only side
        # without summands.
        if isinstance(t, Par) and isinstance(t.right, Nil):
            return tuple(Summand(s.prefixes, Par(s.cont, t.right),
                                 Par(s.enc, t.right))
                         for s in self.summands_of(t.left))
        if isinstance(t, Par) and isinstance(t.left, Nil):
            return tuple(Summand(s.prefixes, Par(t.left, s.cont),
                                 Par(t.left, s.enc))
                         for s in self.summands_of(t.right))
        if isinstance(t, (Par, Restriction)):
            alloc = Alloc()
            avoid = all_names(t)
            out: list[Summand] = []
            # Fuel 0: a call in head position is not a normal form.
            for fires, target in raw_steps(annotate(t, alloc), EMPTY_ENV,
                                           alloc, 0):
                fires, target = finalize(fires, target, avoid)
                out.append(Summand(tuple(f.action for f in fires),
                                   target.term, _enc(t, fires)))
            return tuple(out)
        if isinstance(t, Call):
            raise DepthExceeded("identifier in head position of a normal form")
        raise TypeError(f"not a process: {t!r}")

    # -- equality -----------------------------------------------------------

    def hnf(self, p: Process) -> tuple[HeadNormalForm, list[TraceStep]]:
        _require_guarded(p, self.env)
        normal, steps = self.normalize(p)
        sums = _distinct_summands(self.summands_of(normal))
        return HeadNormalForm(tuple(sums)), steps

    def eq(self, p: Process, q: Process) -> bool:
        cp = canonical(p)
        cq = canonical(q)
        if cp == cq:
            return True
        key = (cp, cq)
        hit = self._eq_memo.get(key)
        if hit is not None:
            return hit
        if key in self._active:
            # The pair reproduces itself under unfolding; deciding it would
            # need unique-solution reasoning, which is out of scope.
            raise DepthExceeded("undecided: equation loops under unfolding")
        self._active.add(key)
        try:
            ok = self.unmatched(p, q) is None
        finally:
            self._active.discard(key)
        self._eq_memo[key] = ok
        return ok

    def _summands_eq(self, s: Summand, t: Summand) -> bool:
        if label_key(s.prefixes) != label_key(t.prefixes):
            return False
        avoid = (all_names(s.cont) | all_names(t.cont)
                 | _prefix_names(s.prefixes) | _prefix_names(t.prefixes))
        # The instance names come from the renamed continuations themselves.
        return any(all(self.eq(a, b) for a, b in pairs)
                   for _, _, pairs in late_instances(
                       s.prefixes, class_bijections(s.prefixes, t.prefixes),
                       s.cont, t.cont, avoid, instance_names, substitute))

    def unmatched(self, p: Process, q: Process) -> Optional[dict]:
        """The first summand of either side that no summand of the other
        side matches, or None when each side covers the other."""
        np_, _ = self.normalize(p)
        nq_, _ = self.normalize(q)
        sp = _distinct_summands(self.summands_of(np_))
        sq = _distinct_summands(self.summands_of(nq_))
        for s in sp:
            if not any(self._summands_eq(s, t) for t in sq):
                return {"side": "left", "summand": s.render()}
        for t in sq:
            if not any(self._summands_eq(t, s) for s in sp):
                return {"side": "right", "summand": t.render()}
        return None


def _addends(t: Process) -> list[Process]:
    if isinstance(t, Sum):
        return _addends(t.left) + _addends(t.right)
    return [t]


def _head_action(t: Process) -> Action:
    if isinstance(t, TauPrefix):
        return TAU
    if isinstance(t, OutputPrefix):
        return FreeOutput(t.subject, t.object)
    if isinstance(t, InputPrefix):
        return Input(t.subject, t.binder)
    raise TypeError(f"not a prefix: {t!r}")


def _with_cont(t: Process, cont: Process) -> Process:
    if isinstance(t, TauPrefix):
        return TauPrefix(cont)
    if isinstance(t, OutputPrefix):
        return OutputPrefix(t.subject, t.object, cont)
    if isinstance(t, InputPrefix):
        return InputPrefix(t.subject, t.binder, cont)
    raise TypeError(f"not a prefix: {t!r}")


def _prefix_names(prefixes: Iterable[Action]) -> set[Name]:
    out: set[Name] = set()
    for a in prefixes:
        out |= action_names(a)
    return out


def _all_outputs_of(prefixes: Sequence[Action], y: Name) -> bool:
    return all(isinstance(a, FreeOutput) and a.object == y and a.subject != y
               for a in prefixes)


def _touching(fires: Sequence[Fire], lo: int, hi: int) -> int:
    """How many of `fires` fired a position `lo <= uid < hi`."""
    return sum(1 for f in fires if any(lo <= u < hi for u in f.uids))


def _enc(t: Process, fires: Sequence[Fire], start: int = 1) -> Process:
    """The term that realizes the step `fires` of `t`, whose prefixes and
    calls are numbered in preorder from `start`, as `annotate` numbers
    them from a fresh `Alloc`: each `Sum` cut to the branch that fired,
    restrictions and the sides of a `Par` that did not fire kept whole.
    A `Par` whose two sides fired, touched by one fire only, fired one
    communication: it becomes the silent prefix of its own step."""
    if isinstance(t, Sum):
        n = positions(t.left)
        if _touching(fires, start, start + n):
            return _enc(t.left, fires, start)
        return _enc(t.right, fires, start + n)
    if isinstance(t, Restriction):
        return Restriction(t.binder, _enc(t.body, fires, start))
    if isinstance(t, Par):
        mid = start + positions(t.left)
        end = mid + positions(t.right)
        fired_left = _touching(fires, start, mid)
        fired_right = _touching(fires, mid, end)
        left = _enc(t.left, fires, start) if fired_left else t.left
        right = _enc(t.right, fires, mid) if fired_right else t.right
        if fired_left and fired_right and _touching(fires, start, end) == 1:
            (step,) = transitions(Par(left, right))
            return TauPrefix(step.target)
        return Par(left, right)
    return t


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------

def hnf(p: Process, env: Environment = EMPTY_ENV
        ) -> tuple[HeadNormalForm, ProofTrace]:
    return Prover(env).hnf(p)


def expand(p: Process, env: Environment = EMPTY_ENV) -> Process:
    """The right-hand side of the expansion law for a parallel composition."""
    if not isinstance(p, Par):
        raise ValueError("expand takes a parallel composition")
    prover = Prover(env)
    _require_guarded(p, env)
    nl, _ = prover.normalize(p.left)
    nr, _ = prover.normalize(p.right)
    return _distinct_sum([s.enc for s in prover.summands_of(Par(nl, nr))])


def prove_eq(p: Process, q: Process, env: Environment = EMPTY_ENV
             ) -> tuple[bool, ProofTrace | dict]:
    """Decide STC-provable equality; on success the trace replays p into q."""
    _require_guarded(p, env)
    _require_guarded(q, env)
    prover = Prover(env)
    if not prover.eq(p, q):
        return False, prover.unmatched(p, q)
    np_, steps_p = prover.normalize(p)
    nq_, steps_q = prover.normalize(q)
    trace = list(steps_p)
    if not alpha_eq(np_, nq_):
        trace.append(TraceStep("C", (), np_, nq_))
    elif np_ != nq_:
        trace.append(TraceStep("A", (), np_, nq_))
    trace.extend(TraceStep(s.tag, s.path, s.after, s.before)
                 for s in reversed(steps_q))
    return True, trace


def depth(p: Process, env: Environment = EMPTY_ENV) -> int:
    """The completeness proof's depth measure over head normal forms."""
    prover = Prover(env)
    memo: dict[Process, int] = {}
    active: set[Process] = set()

    def go(t: Process) -> int:
        c = canonical(t)
        if c in memo:
            return memo[c]
        if c in active:
            raise DepthExceeded("depth is unbounded under recursion")
        active.add(c)
        try:
            normal, _ = prover.normalize(t)
            sums = prover.summands_of(normal)
            d = 0 if not sums else 1 + max(go(s.cont) for s in sums)
        finally:
            active.discard(c)
        memo[c] = d
        return d

    _require_guarded(p, env)
    return go(p)
