"""Substitution and annotations on annotated terms.

An annotated term is a `Process` plus two flat tuples, the guard and the
occurrence id of each prefix and call in preorder.  `semantics.asubst`
substitutes with `syntax.substitute` on the term and keeps the tuples.
The direct walk kept here, which renames capturing binders the way
`syntax._subst_binder` does, is the reference `syntax.substitute` must
agree with, together with the memoized name sets.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from pitc import (
    NIL, Call, InputPrefix, Nil, OutputPrefix, Par, Restriction, Sum,
    TauPrefix, free_names,
)
from pitc.semantics import ATerm, Alloc, annotate, asubst, finalize, raw_steps
from pitc.syntax import (
    EMPTY_ENV, all_names, fresh_name, positions, subterms, substitute,
)
from pitc.unfolding import unfold

from helpers import alpha_variant, random_process, rng_for


# --------------------------------------------------------------------------
# Reference walks
# --------------------------------------------------------------------------

def ref_names(p) -> frozenset:
    """Every name of `p`, binders included."""
    if isinstance(p, TauPrefix):
        return ref_names(p.cont)
    if isinstance(p, OutputPrefix):
        return ref_names(p.cont) | {p.subject, p.object}
    if isinstance(p, InputPrefix):
        return ref_names(p.cont) | {p.subject, p.binder}
    if isinstance(p, Restriction):
        return ref_names(p.body) | {p.binder}
    if isinstance(p, (Sum, Par)):
        return ref_names(p.left) | ref_names(p.right)
    if isinstance(p, Call):
        return frozenset(p.args)
    return frozenset()


def ref_free(p) -> frozenset:
    if isinstance(p, TauPrefix):
        return ref_free(p.cont)
    if isinstance(p, OutputPrefix):
        return ref_free(p.cont) | {p.subject, p.object}
    if isinstance(p, InputPrefix):
        return (ref_free(p.cont) - {p.binder}) | {p.subject}
    if isinstance(p, Restriction):
        return ref_free(p.body) - {p.binder}
    if isinstance(p, (Sum, Par)):
        return ref_free(p.left) | ref_free(p.right)
    if isinstance(p, Call):
        return frozenset(p.args)
    return frozenset()


def ref_subst(p, sub: dict):
    live = {k: v for k, v in sub.items() if k != v}
    return _ref_subst(p, live) if live else p


def _ref_subst(p, sub: dict):
    if isinstance(p, Nil):
        return p
    if isinstance(p, TauPrefix):
        return TauPrefix(_ref_subst(p.cont, sub))
    if isinstance(p, OutputPrefix):
        return OutputPrefix(sub.get(p.subject, p.subject),
                            sub.get(p.object, p.object), _ref_subst(p.cont, sub))
    if isinstance(p, InputPrefix):
        binder, cont = _ref_binder(p.binder, p.cont, sub)
        return InputPrefix(sub.get(p.subject, p.subject), binder, cont)
    if isinstance(p, Restriction):
        return Restriction(*_ref_binder(p.binder, p.body, sub))
    if isinstance(p, (Sum, Par)):
        return type(p)(_ref_subst(p.left, sub), _ref_subst(p.right, sub))
    return Call(p.ident, tuple(sub.get(a, a) for a in p.args))


def _ref_binder(binder, scope, sub: dict):
    relevant = {k: v for k, v in sub.items()
                if k != binder and k in ref_free(scope)}
    if not relevant:
        return binder, scope
    if binder in relevant.values():
        avoid = (ref_names(scope) | set(relevant) | set(relevant.values())
                 | {binder})
        newb = fresh_name(avoid)
        scope = _ref_subst(scope, {binder: newb})
        binder = newb
    return binder, _ref_subst(scope, relevant)


def ref_positions(p) -> int:
    """Prefixes and calls of `p`, counted on its syntax tree."""
    return sum(1 for t in subterms(p)
               if isinstance(t, (TauPrefix, OutputPrefix, InputPrefix, Call)))


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

def random_subs(p, rng: random.Random, count: int = 6) -> list[dict]:
    """Substitutions whose keys and values are names of `p`, its binders
    and tokens among them, or `w` names; identity entries included."""
    pool = sorted(ref_names(p)) + ["w0", "w1"]
    subs = []
    for _ in range(count):
        size = rng.randint(1, 3)
        subs.append({rng.choice(pool): rng.choice(pool) for _ in range(size)})
    return subs


def assert_well_formed(ap: ATerm) -> None:
    assert len(ap.guards) == len(ap.uids) == positions(ap.term) \
        == ref_positions(ap.term)


def assert_agrees(ap: ATerm, rng: random.Random) -> None:
    assert_well_formed(ap)
    term = ap.term
    assert all_names(term) == ref_names(term)
    assert free_names(term) == ref_free(term)
    for sub in random_subs(term, rng):
        want = ref_subst(term, sub)
        assert substitute(term, sub) is want, sub
        got = asubst(ap, sub)
        assert got.term is want, sub
        assert got.guards is ap.guards and got.uids is ap.uids, sub
        # A term the substitution leaves alone is kept, not copied.
        assert (got is ap) == (want is term), sub


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 4))
def test_asubst_agrees_on_annotated_terms(seed, depth):
    rng = rng_for(seed)
    p = random_process(rng, depth)
    for t in (p, alpha_variant(p, rng)):
        assert_agrees(annotate(t, Alloc()), rng)


def parallel_term(rng: random.Random):
    """A random parallel term whose left side may extrude a restricted name
    to an input on the right."""
    names = ["a", "b", "x", "y"]
    sender = Restriction("y", OutputPrefix(
        rng.choice("ab"), "y", random_process(rng, 2, names=names)))
    receiver = InputPrefix(rng.choice("ab"), rng.choice(names),
                           random_process(rng, 2, names=names))
    return Par(Par(sender, random_process(rng, 2, names=names)),
               Par(receiver, random_process(rng, 2, names=names)))


def raw_targets(p):
    alloc = Alloc()
    return raw_steps(annotate(p, alloc), EMPTY_ENV, alloc)


def step_targets(p) -> list[ATerm]:
    return [t for _, t in raw_targets(p)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_asubst_agrees_on_step_targets(seed):
    """Step targets carry guards, tokens received by inputs, and tokens
    bound by the restriction that wraps a communicated bound output."""
    rng = rng_for(seed)
    for target in step_targets(parallel_term(rng)):
        assert_agrees(target, rng)


def test_step_targets_have_token_binders():
    """Some step targets bind a token, and `finalize` names it."""
    rng = rng_for(0)
    bound = [ap for _ in range(20) for ap in step_targets(parallel_term(rng))
             if any(isinstance(t, Restriction) and t.binder.startswith("~")
                    for t in subterms(ap.term))]
    assert bound
    for ap in bound:
        assert not tokens(finalize((), ap, frozenset())[1].term)


def test_capturing_binder_is_renamed_and_guards_kept():
    term = ATerm(InputPrefix("a", "y", OutputPrefix("x", "y", NIL)),
                 (frozenset({-2}), frozenset({-1})), (8, 7))
    # y is bound and x becomes y: the binder must move out of the way.
    assert asubst(term, {"x": "y"}) == ATerm(
        InputPrefix("a", "w0", OutputPrefix("y", "w0", NIL)),
        term.guards, term.uids)
    assert asubst(term, {"b": "y"}) is term


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_targets_and_residuals_annotate_every_position(seed):
    rng = rng_for(seed)
    for p in (random_process(rng, 3), parallel_term(rng)):
        for ap in step_targets(p):
            assert_well_formed(ap)
        for rec in unfold(p, depth=2).nodes.values():
            assert_well_formed(rec.residual)


def tokens(p) -> set:
    return {n for n in ref_names(p) if n.startswith("~")}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_finalized_targets_hold_no_token(seed):
    """`finalize` names every token, binders included, so none survives
    into a transition's target."""
    rng = rng_for(seed)
    p = parallel_term(rng)
    for fires, target in raw_targets(p):
        ofires, final = finalize(fires, target, all_names(p))
        assert not tokens(final.term)
        assert not any(f.tok and f.tok.startswith("~") for f in ofires)
        assert final.guards is target.guards and final.uids is target.uids

