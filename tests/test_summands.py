"""The prover's summands are the steps of `semantics.raw_steps`.

`ComposedProver` below derives them the other way, by composing the
summands of a term's parts: idling, joins through `join_plans`,
extrusion and placeholder renaming, as the prover did before.  On every
input the two must give the same summands (up to the renaming of their
placeholders), the same canonical encodings, the same normal form and
the same sequence of axioms in its trace.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    Par, Process, Restriction, canonical, format_process, parse_file,
    parse_term,
)
from pitc.errors import DepthExceeded
from pitc.prover import (
    Prover, Summand, _all_outputs_of, _head_action, _prefix_names,
    _summand_key,
)
from pitc.semantics import (
    _placeholder, canonical_order, join_plans, label_bound_names,
)
from pitc.syntax import (
    TAU, Action, BoundOutput, Call, FreeOutput, Input, InputPrefix, Name, Nil,
    OutputPrefix, Sum, TauPrefix, all_names, free_names, fresh_name,
    substitute, subterms,
)

from helpers import random_process, rng_for
from test_golden import CASES, PARALLEL, _choice


class ComposedProver(Prover):
    """A prover whose summands of a parallel composition or restriction
    are composed from the summands of its parts."""

    def _summands(self, t: Process) -> tuple[Summand, ...]:
        if isinstance(t, Nil):
            return ()
        if isinstance(t, (TauPrefix, OutputPrefix, InputPrefix)):
            return (_canon_summand((_head_action(t),), t.cont, t),)
        if isinstance(t, Sum):
            return self.summands_of(t.left) + self.summands_of(t.right)
        if isinstance(t, Restriction):
            out: list[Summand] = []
            for s in self.summands_of(t.body):
                if t.binder not in _prefix_names(s.prefixes):
                    out.append(_canon_summand(
                        s.prefixes, Restriction(t.binder, s.cont),
                        Restriction(t.binder, s.enc)))
                elif _all_outputs_of(s.prefixes, t.binder):
                    w = fresh_name(all_names(s.cont) | all_names(t)
                                   | _prefix_names(s.prefixes))
                    prefixes = tuple(
                        BoundOutput(a.subject, w) for a in s.prefixes)
                    out.append(_canon_summand(
                        prefixes, substitute(s.cont, {t.binder: w}),
                        Restriction(t.binder, s.enc)))
            return tuple(out)
        if isinstance(t, Par):
            ls = self.summands_of(t.left)
            rs = self.summands_of(t.right)
            if not rs:
                return tuple(_canon_summand(
                    s.prefixes, Par(s.cont, t.right), Par(s.enc, t.right))
                    for s in ls)
            if not ls:
                return tuple(_canon_summand(
                    s.prefixes, Par(t.left, s.cont), Par(t.left, s.enc))
                    for s in rs)
            return tuple(j for sl in ls for sr in rs
                         for j in _join_summands(sl, sr))
        if isinstance(t, Call):
            raise DepthExceeded("identifier in head position of a normal form")
        raise TypeError(f"not a process: {t!r}")


def _canon_summand(prefixes: tuple[Action, ...], cont: Process,
                   enc: Process) -> Summand:
    """Prefixes in canonical order, their placeholders renamed in that
    order to names fresh for the whole summand."""
    _, order = canonical_order(prefixes)
    avoid = (set(all_names(cont)) | set(all_names(enc))
             | _prefix_names(prefixes))
    mapping: dict[Name, Name] = {}
    for i in order:
        a = prefixes[i]
        if isinstance(a, (Input, BoundOutput)) \
                and a.placeholder not in mapping:
            w = fresh_name(avoid)
            avoid.add(w)
            mapping[a.placeholder] = w
    return Summand(tuple(_rename_binders(prefixes[i], mapping) for i in order),
                   substitute(cont, mapping), enc)


def _join_summands(sl: Summand, sr: Summand) -> list[Summand]:
    # Keep the two sides' placeholders apart before planning the join.
    taken = (_prefix_names(sl.prefixes) | _prefix_names(sr.prefixes)
             | all_names(sl.cont) | all_names(sr.cont))
    renames: dict[Name, Name] = {}
    for n in sorted(label_bound_names(sr.prefixes)):
        w = fresh_name(taken)
        taken.add(w)
        renames[n] = w
    ax = list(sl.prefixes)
    ay = [_rename_binders(a, renames) for a in sr.prefixes]
    rc = substitute(sr.cont, renames)
    out: list[Summand] = []
    for plan in join_plans(ax, [_placeholder(a) for a in ax],
                           ay, [_placeholder(a) for a in ay]):
        sub_x, sub_y, wraps = plan.substitutions(ax, ay)
        prefixes = tuple(
            [_rename_binders(ax[i], sub_x) for i in plan.rest_x]
            + [_rename_binders(ay[j], sub_y) for j in plan.rest_y]
            + [TAU] * len(plan.merges))
        cont: Process = Par(substitute(sl.cont, sub_x), substitute(rc, sub_y))
        for w in wraps:
            cont = Restriction(w, cont)
        cand = _canon_summand(prefixes, cont, Par(sl.enc, sr.enc))
        if len(cand.prefixes) == 1:
            # A fully merged communication reads better as a silent prefix.
            cand = Summand(cand.prefixes, cand.cont,
                           _direct_enc(cand.prefixes[0], cand.cont))
        out.append(cand)
    return out


def _rename_binders(a: Action, sub: dict[Name, Name]) -> Action:
    """Rename only the bound placeholder slot."""
    if isinstance(a, Input):
        return Input(a.subject, sub.get(a.placeholder, a.placeholder))
    if isinstance(a, BoundOutput):
        return BoundOutput(a.subject, sub.get(a.placeholder, a.placeholder))
    return a


def _direct_enc(a: Action, cont: Process) -> Process:
    if isinstance(a, Input):
        return InputPrefix(a.subject, a.placeholder, cont)
    if isinstance(a, FreeOutput):
        return OutputPrefix(a.subject, a.object, cont)
    if isinstance(a, BoundOutput):
        return Restriction(a.placeholder,
                           OutputPrefix(a.subject, a.placeholder, cont))
    return TauPrefix(cont)


def _shape(prover: Prover, t: Process) -> Counter:
    """The summands of `t` as a multiset of (key, canonical encoding)."""
    return Counter((_summand_key(s), canonical(s.enc))
                   for s in prover.summands_of(t))


def assert_agrees(p: Process, env=None) -> None:
    args = () if env is None else (env,)
    new, old = Prover(*args), ComposedProver(*args)
    normal, steps = new.normalize(p)
    old_normal, old_steps = old.normalize(p)
    what = format_process(p)
    assert canonical(normal) == canonical(old_normal), what
    assert [s.tag for s in steps] == [s.tag for s in old_steps], what
    heads = [normal]
    if not any(isinstance(t, Call) for t in subterms(p)):
        heads.append(p)
    for t in heads:
        assert _shape(new, t) == _shape(old, t), format_process(t)
        for s in new.summands_of(t):
            assert not label_bound_names(s.prefixes) & free_names(t), \
                (format_process(t), s.render())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_agrees_on_golden_corpus(case):
    _, defs, lhs, rhs, _ = case
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    for side in ("LHS", "RHS"):
        assert_agrees(src.named[side], src.environment())


@pytest.mark.parametrize("term", PARALLEL)
def test_agrees_on_golden_parallel(term):
    assert_agrees(parse_term(term))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_agrees_on_choice_family(n):
    assert_agrees(parse_term(_choice(n)))
    assert_agrees(parse_term(_choice(n, swap=True)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["p", "p | q", "nu a. (p | q)"]))
def test_agrees_on_random_terms(seed, shape):
    rng = rng_for(seed)
    p = random_process(rng, 3)
    if shape != "p":
        p = Par(p, random_process(rng, 3))
    if shape == "nu a. (p | q)":
        p = Restriction("a", p)
    assert_agrees(p)
