"""Substitution on annotated terms.

`semantics.asubst` substitutes through `syntax.substitute` on the erasure
and puts the guards and uids back.  The direct walk kept here, which
renames capturing binders the way `syntax._subst_binder` does, is the
reference it must agree with, together with the name sets of the erasure.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from pitc import InputPrefix, OutputPrefix, Par, Restriction, free_names
from pitc.semantics import (
    A_NIL, ACall, AIn, ANil, AOut, APar, ARes, ASum, ATau, Alloc, annotate,
    asubst, erase, raw_steps,
)
from pitc.syntax import EMPTY_ENV, all_names, fresh_name

from helpers import alpha_variant, random_process, rng_for


# --------------------------------------------------------------------------
# Reference walks
# --------------------------------------------------------------------------

def ref_names(ap) -> frozenset:
    """Every name of `ap`, binders included."""
    if isinstance(ap, ATau):
        return ref_names(ap.cont)
    if isinstance(ap, AOut):
        return ref_names(ap.cont) | {ap.subject, ap.object}
    if isinstance(ap, AIn):
        return ref_names(ap.cont) | {ap.subject, ap.binder}
    if isinstance(ap, ARes):
        return ref_names(ap.body) | {ap.binder}
    if isinstance(ap, (ASum, APar)):
        return ref_names(ap.left) | ref_names(ap.right)
    if isinstance(ap, ACall):
        return frozenset(ap.args)
    return frozenset()


def ref_free(ap) -> frozenset:
    if isinstance(ap, ATau):
        return ref_free(ap.cont)
    if isinstance(ap, AOut):
        return ref_free(ap.cont) | {ap.subject, ap.object}
    if isinstance(ap, AIn):
        return (ref_free(ap.cont) - {ap.binder}) | {ap.subject}
    if isinstance(ap, ARes):
        return ref_free(ap.body) - {ap.binder}
    if isinstance(ap, (ASum, APar)):
        return ref_free(ap.left) | ref_free(ap.right)
    if isinstance(ap, ACall):
        return frozenset(ap.args)
    return frozenset()


def ref_subst(ap, sub: dict):
    live = {k: v for k, v in sub.items() if k != v}
    return _ref_subst(ap, live) if live else ap


def _ref_subst(ap, sub: dict):
    if isinstance(ap, ANil):
        return ap
    if isinstance(ap, ATau):
        return ATau(ap.guards, ap.uid, _ref_subst(ap.cont, sub))
    if isinstance(ap, AOut):
        return AOut(ap.guards, ap.uid, sub.get(ap.subject, ap.subject),
                    sub.get(ap.object, ap.object), _ref_subst(ap.cont, sub))
    if isinstance(ap, AIn):
        binder, cont = _ref_binder(ap.binder, ap.cont, sub)
        return AIn(ap.guards, ap.uid, sub.get(ap.subject, ap.subject),
                   binder, cont)
    if isinstance(ap, ARes):
        return ARes(*_ref_binder(ap.binder, ap.body, sub))
    if isinstance(ap, (ASum, APar)):
        return type(ap)(_ref_subst(ap.left, sub), _ref_subst(ap.right, sub))
    return ACall(ap.guards, ap.uid, ap.ident,
                 tuple(sub.get(a, a) for a in ap.args))


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


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

def random_subs(ap, rng: random.Random, count: int = 6) -> list[dict]:
    """Substitutions whose keys and values are names of `ap`, its binders
    and tokens among them, or `w` names; identity entries included."""
    pool = sorted(ref_names(ap)) + ["w0", "w1"]
    subs = []
    for _ in range(count):
        size = rng.randint(1, 3)
        subs.append({rng.choice(pool): rng.choice(pool) for _ in range(size)})
    return subs


def assert_agrees(ap, rng: random.Random) -> None:
    plain = erase(ap)
    assert all_names(plain) == ref_names(ap)
    assert free_names(plain) == ref_free(ap)
    for sub in random_subs(ap, rng):
        got, want = asubst(ap, sub), ref_subst(ap, sub)
        assert got == want, sub
        # A term the substitution leaves alone is kept, not copied.
        assert (got is ap) == (want == ap), sub


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


def step_targets(p):
    alloc = Alloc()
    return [t for _, t in raw_steps(annotate(p, alloc), EMPTY_ENV, alloc)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_asubst_agrees_on_step_targets(seed):
    """Step targets carry guards, tokens received by inputs, and tokens
    bound by the restriction that wraps a communicated bound output."""
    rng = rng_for(seed)
    for target in step_targets(parallel_term(rng)):
        assert_agrees(target, rng)


def test_step_targets_have_token_binders():
    rng = rng_for(0)
    assert any(isinstance(t, ARes) and t.binder.startswith("~")
               for _ in range(20) for t in step_targets(parallel_term(rng)))


def test_capturing_binder_is_renamed_and_guards_kept():
    term = AIn(frozenset({-2}), 8, "a", "y",
               AOut(frozenset({-1}), 7, "x", "y", A_NIL))
    # y is bound and x becomes y: the binder must move out of the way.
    assert asubst(term, {"x": "y"}) == AIn(
        frozenset({-2}), 8, "a", "w0", AOut(frozenset({-1}), 7, "y", "w0", A_NIL))
    assert asubst(term, {"b": "y"}) is term
