"""Hash-consed process terms, the facts computed when they are interned,
and their memoized canonical forms.

Every structurally equal term is one object, however it was built, and
`free_names`, `all_names`, `positions`, `prefix_height` and `canonical`
agree with the direct, unmemoized walks kept here as a reference.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
import time
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    NIL, Call, InputPrefix, OutputPrefix, Par, Restriction, Sum, TauPrefix,
    canonical, free_names, parse_file, parse_term, substitute, transitions,
)
from pitc.semantics import Alloc, annotate, clear_caches
from pitc.syntax import all_names, positions, prefix_height

from helpers import alpha_variant, random_process, rng_for


# --------------------------------------------------------------------------
# Unmemoized reference walks
# --------------------------------------------------------------------------

def ref_free_names(p) -> frozenset:
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        inner = ref_free_names(p.cont)
        if isinstance(p, OutputPrefix):
            return inner | {p.subject, p.object}
        if isinstance(p, InputPrefix):
            return (inner - {p.binder}) | {p.subject}
        return inner
    if isinstance(p, Restriction):
        return ref_free_names(p.body) - {p.binder}
    if isinstance(p, (Sum, Par)):
        return ref_free_names(p.left) | ref_free_names(p.right)
    if isinstance(p, Call):
        return frozenset(p.args)
    return frozenset()


def ref_all_names(p) -> frozenset:
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        inner = ref_all_names(p.cont)
        if isinstance(p, OutputPrefix):
            return inner | {p.subject, p.object}
        if isinstance(p, InputPrefix):
            return inner | {p.subject, p.binder}
        return inner
    if isinstance(p, Restriction):
        return ref_all_names(p.body) | {p.binder}
    if isinstance(p, (Sum, Par)):
        return ref_all_names(p.left) | ref_all_names(p.right)
    if isinstance(p, Call):
        return frozenset(p.args)
    return frozenset()


def ref_positions(p) -> int:
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        return 1 + ref_positions(p.cont)
    if isinstance(p, Restriction):
        return ref_positions(p.body)
    if isinstance(p, (Sum, Par)):
        return ref_positions(p.left) + ref_positions(p.right)
    if isinstance(p, Call):
        return 1
    return 0


def ref_prefix_height(p):
    """Longest chain of nested prefixes; None under a call."""
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        h = ref_prefix_height(p.cont)
        return None if h is None else h + 1
    if isinstance(p, Restriction):
        return ref_prefix_height(p.body)
    if isinstance(p, (Sum, Par)):
        a, b = ref_prefix_height(p.left), ref_prefix_height(p.right)
        return None if a is None or b is None else max(a, b)
    if isinstance(p, Call):
        return None
    return 0


def ref_canonical(p):
    """Binders renamed to b0, b1, ... in preorder, skipping free names."""
    avoid = ref_free_names(p)
    taken = (b for b in (f"b{i}" for i in count()) if b not in avoid)

    def go(t, env):
        if isinstance(t, TauPrefix):
            return TauPrefix(go(t.cont, env))
        if isinstance(t, OutputPrefix):
            return OutputPrefix(env.get(t.subject, t.subject),
                                env.get(t.object, t.object), go(t.cont, env))
        if isinstance(t, (InputPrefix, Restriction)):
            nb = next(taken)
            inner = {**env, t.binder: nb}
            if isinstance(t, Restriction):
                return Restriction(nb, go(t.body, inner))
            return InputPrefix(env.get(t.subject, t.subject), nb,
                               go(t.cont, inner))
        if isinstance(t, Sum):
            return Sum(go(t.left, env), go(t.right, env))
        if isinstance(t, Par):
            return Par(go(t.left, env), go(t.right, env))
        if isinstance(t, Call):
            return Call(t.ident, tuple(env.get(a, a) for a in t.args))
        return t

    return go(p, {})


# --------------------------------------------------------------------------
# One object per structure
# --------------------------------------------------------------------------

class TestOneNodePerStructure:
    def test_constructor_returns_the_existing_node(self):
        assert OutputPrefix("a", "b", NIL) is OutputPrefix("a", "b", NIL)
        assert Call("X", ("a",)) is Call("X", ("a",))
        assert OutputPrefix("a", "b", NIL) is not OutputPrefix("a", "c", NIL)

    def test_parser_substitute_erase_and_canonical_agree(self):
        text = "nu b0. (x!b0.0 | x?(b1).b1!y.0) + tau.Z(y)"
        parsed = parse_term(text)
        assert parse_term(text) is parsed
        assert substitute(parse_term(text.replace("y", "q")), {"q": "y"}) \
            is parsed
        assert annotate(parsed, Alloc()).term is parsed
        assert canonical(parsed) is parsed
        assert canonical(parse_term("nu k. (x!k.0 | x?(m).m!y.0) + tau.Z(y)")) \
            is parsed

    def test_equality_is_identity(self):
        p, q = parse_term("a!b.0 | c?(d).0"), parse_term("a!b.0 | c?(d).0")
        assert p == q and hash(p) == hash(q) and p is q
        assert len({p, q, parse_term("c?(d).0 | a!b.0")}) == 2


class TestCopies:
    def test_copy_and_deepcopy_return_the_node(self):
        p = parse_term("nu a. (x!a.0 | x?(y).y!a.Z(a))")
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        assert copy.deepcopy({"k": [p]})["k"][0] is p

    def test_pickle_round_trip_returns_the_node(self):
        p = parse_term("nu a. (x!a.0 | x?(y).y!a.Z(a)) + tau.0")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(p, protocol)) is p
        assert pickle.loads(pickle.dumps(NIL)) is NIL


class TestMemos:
    def test_canonical_is_a_fixpoint(self):
        p = parse_term("nu q. x?(r).(q!r.0 | nu s. s!q.0)")
        c = canonical(p)
        assert canonical(c) is c
        assert canonical(alpha_variant(p, rng_for(3))) is c

    def test_name_sets_are_shared(self):
        assert free_names(parse_term("a!b.0")) is free_names(parse_term("b!a.0"))
        assert all_names(parse_term("a?(b).0")) is all_names(parse_term("b!a.0"))

    @pytest.mark.parametrize("fn", [free_names, all_names, canonical])
    def test_not_a_process(self, fn):
        with pytest.raises(TypeError):
            fn("a!b.0")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 4))
def test_memos_agree_with_reference_walks(seed, depth):
    rng = rng_for(seed)
    p = random_process(rng, depth)
    variant = alpha_variant(p, rng)
    # A call whose free name b0 the canonical binders must skip.
    for t in (p, variant, Sum(p, Call("Z", ("a", "b0")))):
        assert free_names(t) == ref_free_names(t)
        assert all_names(t) == ref_all_names(t)
        assert positions(t) == ref_positions(t)
        assert prefix_height(t) == ref_prefix_height(t)
        assert canonical(t) is ref_canonical(t)
        # A second call reads the memo.
        assert free_names(t) is free_names(t)
        assert canonical(t) is canonical(t)
    assert canonical(p) is canonical(variant)


def test_facts_of_deep_terms():
    """A 10,000-prefix chain and a 10,000-deep `Par` spine: every fact is
    read off the node, so none of them hits the recursion limit."""
    n = 10_000
    chain = spine = NIL
    for _ in range(n):
        chain = OutputPrefix("a", "b", chain)
        spine = Par(spine, InputPrefix("c", "x", OutputPrefix("x", "d", NIL)))
    assert free_names(chain) == all_names(chain) == {"a", "b"}
    assert positions(chain) == prefix_height(chain) == n
    assert free_names(spine) == {"c", "d"}
    assert all_names(spine) == {"c", "d", "x"}
    assert positions(spine) == 2 * n
    assert prefix_height(spine) == 2


def test_threads_build_one_node_per_structure():
    """Threads racing to intern the same new structures get one node each,
    with one memoized name set and canonical form."""
    tag = f"th{time.monotonic_ns()}"      # names no earlier test interned

    def build(i: int):
        p = Restriction("k", Par(OutputPrefix(f"{tag}{i}", "k", NIL),
                                 InputPrefix(f"{tag}{i}", "m", NIL)))
        return p, free_names(p), all_names(p), canonical(p)

    results: list = [None] * 6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda k=k: results.__setitem__(
            k, [build(i) for i in range(500)])) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for column in zip(*results):
        for got in column:
            assert all(a is b for a, b in zip(got, column[0]))


# --------------------------------------------------------------------------
# The transitions cache
# --------------------------------------------------------------------------

def test_transitions_do_not_depend_on_call_history():
    avoid = {"a", "b"}
    p = parse_term("tau.(nu a. x!a.0)")
    q = parse_term("tau.(nu b. x!b.0)")
    clear_caches()
    cold = transitions(q, avoid=avoid)
    clear_caches()
    transitions(p, avoid=avoid)
    warm = transitions(q, avoid=avoid)
    assert warm == cold
    (t,) = warm
    assert t.source is q
    assert t.target is parse_term("nu b. x!b.0")


def test_transitions_tell_alpha_variant_environments_apart():
    avoid = {"a", "b"}
    call = parse_term("A(y)")
    e1 = parse_file("A(x) := tau.(nu a. x!a.0)\n").environment()
    e2 = parse_file("A(x) := tau.(nu b. x!b.0)\n").environment()
    (t1,) = transitions(call, e1, avoid=avoid)
    (t2,) = transitions(call, e2, avoid=avoid)
    assert t1.target is parse_term("nu a. y!a.0")
    assert t2.target is parse_term("nu b. y!b.0")
