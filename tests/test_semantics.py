"""Step transition rules: per-rule examples plus the scoping propositions."""

from __future__ import annotations

import pytest

from pitc import (
    NIL, Transition, UnguardedRecursion, alpha_eq, free_names, label_alpha_eq,
    parse_file, parse_term, substitute, transitions,
)
from pitc.semantics import (
    clear_caches, communicating, label_bound_names, label_free_names,
    class_bijections, label_key,
)
from pitc.syntax import BoundOutput, FreeOutput, Input, TAU, all_names

from helpers import (
    injective_renaming, open_transition_targets, random_process, rng_for,
)


def labels_of(p, env=None, **kw):
    from pitc.syntax import EMPTY_ENV
    return [t.label for t in transitions(p, env or EMPTY_ENV, **kw)]


class TestPrefixRules:
    def test_tau_act(self):
        ts = transitions(parse_term("tau.0"))
        assert len(ts) == 1
        assert ts[0].label == (TAU,)
        assert ts[0].target == NIL

    def test_output_act(self):
        ts = transitions(parse_term("x!y.a!b.0"))
        assert len(ts) == 1
        assert ts[0].label == (FreeOutput("x", "y"),)

    def test_input_act_single_canonical_representative(self):
        ts = transitions(parse_term("x?(z).z!u.0"))
        assert len(ts) == 1
        (t,) = ts
        assert t.label == (Input("x", "w0"),)
        assert t.target == parse_term("w0!u.0")


class TestParallelRules:
    def test_communication_only_when_both_can_move(self):
        ts = transitions(parse_term("x!y.0 | x?(z).0"))
        assert len(ts) == 1
        assert ts[0].label == (TAU,)
        assert ts[0].target == parse_term("0 | 0")

    def test_maximal_step_no_interleavings(self):
        ts = transitions(parse_term("a!u.0 | c!v.0"))
        assert len(ts) == 1
        assert ts[0].label == (FreeOutput("a", "u"), FreeOutput("c", "v"))

    def test_lone_mover_fires_alone(self):
        # The right component is stuck, so the left moves by itself.
        ts = transitions(parse_term("a!u.0 | (nu x. x!y.0)"))
        assert len(ts) == 1
        assert ts[0].label == (FreeOutput("a", "u"),)

    def test_two_inputs_shared_and_distinct(self):
        ts = transitions(parse_term("x?(u).0 | y?(v).0"))
        assert len(ts) == 2
        shared = [t for t in ts
                  if t.label[0].placeholder == t.label[1].placeholder]
        distinct = [t for t in ts
                    if t.label[0].placeholder != t.label[1].placeholder]
        assert len(shared) == 1 and len(distinct) == 1

    def test_parallel_copies_multiset_label(self):
        ts = transitions(parse_term("a!u.0 | a!u.0"))
        assert len(ts) == 1
        assert ts[0].label == (FreeOutput("a", "u"), FreeOutput("a", "u"))

    def test_close_restricts_the_target(self):
        ts = transitions(parse_term("(nu y. x!y.0) | x?(v).v!a.0"))
        assert len(ts) == 1
        assert ts[0].label == (TAU,)
        got = ts[0].target
        assert alpha_eq(got, parse_term("nu w. (0 | w!a.0)"))


class TestOpenTransitionTargets:
    def test_open_instance(self):
        ts = open_transition_targets(parse_term("nu y. x!y.0"))
        assert len(ts) == 1
        assert ts[0].label == (BoundOutput("x", "w0"),)
        assert ts[0].target == NIL

    def test_res_path_not_included(self):
        p = parse_term("nu y. x!z.0")
        assert open_transition_targets(p) == ()
        (t,) = transitions(p)
        assert t.label == (FreeOutput("x", "z"),)
        assert t.target == parse_term("nu y. 0")

    def test_blocked_both_ways(self):
        p = parse_term("nu x. x!y.0")
        assert open_transition_targets(p) == ()
        assert transitions(p) == ()

    def test_subsumed_by_transitions(self):
        for src in ("nu y. x!y.0", "nu y. (x!y.0 | z!y.0)",
                    "nu y. (x!y.0 + a!b.0)"):
            p = parse_term(src)
            full = transitions(p)
            for t in open_transition_targets(p):
                assert any(label_alpha_eq(t.label, u.label) for u in full)


class TestRestrictionRules:
    def test_open_extrudes(self):
        ts = transitions(parse_term("nu y. x!y.0"))
        assert len(ts) == 1
        assert ts[0].label == (BoundOutput("x", "w0"),)
        assert ts[0].target == NIL

    def test_res_passes_unrelated_actions(self):
        ts = transitions(parse_term("nu y. x!z.0"))
        assert len(ts) == 1
        assert ts[0].label == (FreeOutput("x", "z"),)
        assert ts[0].target == parse_term("nu y. 0")

    def test_restricted_subject_is_stuck(self):
        assert transitions(parse_term("nu x. x!y.0")) == ()
        assert transitions(parse_term("nu x. x?(y).0")) == ()

    def test_open_shares_one_placeholder(self):
        ts = transitions(parse_term("nu y. (x!y.0 | z!y.0)"))
        assert len(ts) == 1
        a, b = ts[0].label
        assert isinstance(a, BoundOutput) and isinstance(b, BoundOutput)
        assert a.placeholder == b.placeholder

    def test_mixed_step_with_restricted_object_is_blocked(self):
        assert transitions(parse_term("nu y. (x!y.0 | a!b.0)")) == ()


class TestSumAndIdentifiers:
    def test_sum_offers_both(self):
        ts = transitions(parse_term("a!u.0 + b!v.0"))
        assert len(ts) == 2

    def test_identifier_unfolds(self):
        env = parse_file("A(x) := x?(y).A(y)\n").environment()
        ts = transitions(parse_term("A(c)", {}), env)
        assert len(ts) == 1
        assert ts[0].label == (Input("c", "w0"),)
        assert ts[0].target == parse_term("A(w0)", {})

    def test_unguarded_recursion_raises(self):
        env = parse_file("C(a, b) := C(a, b) + a!b.0\n").environment()
        with pytest.raises(UnguardedRecursion):
            transitions(parse_term("C(a, b)"), env)


class TestLabelAlphaEq:
    def test_placeholder_rename(self):
        assert label_alpha_eq((Input("x", "w0"),), (Input("x", "w1"),))

    def test_subject_differs(self):
        assert not label_alpha_eq((Input("x", "w0"),), (Input("y", "w0"),))

    def test_shared_renames_jointly(self):
        assert label_alpha_eq((Input("x", "w0"), Input("y", "w0")),
                              (Input("x", "w1"), Input("y", "w1")))
        assert not label_alpha_eq((Input("x", "w0"), Input("y", "w0")),
                                  (Input("x", "w1"), Input("y", "w2")))


class TestPropositions:
    def test_name_scoping(self):
        # fn(label) within fn(P); fn(target) within fn(P) plus bn(label).
        rng = rng_for(21)
        for _ in range(300):
            p = random_process(rng, 3)
            fn = free_names(p)
            for t in transitions(p):
                assert label_free_names(t.label) <= fn
                assert free_names(t.target) <= fn | label_bound_names(t.label)

    def test_no_step_contains_a_communicating_pair(self):
        rng = rng_for(22)
        for _ in range(200):
            p = random_process(rng, 3)
            for t in transitions(p):
                for i, a in enumerate(t.label):
                    for b in t.label[i + 1:]:
                        assert not communicating(a, b)

    def test_determinism_across_runs(self):
        rng = rng_for(23)
        terms = [random_process(rng, 3) for _ in range(40)]
        first = [transitions(p) for p in terms]
        clear_caches()
        second = [transitions(p) for p in terms]
        assert first == second

    def test_placeholder_policy_is_alpha_irrelevant(self):
        # Re-deriving with a shifted fresh policy gives alpha-equivalent
        # labels and targets.
        p = parse_term("x?(y).y!u.0")
        (t1,) = transitions(p)
        (t2,) = transitions(p, avoid=("w0",))
        assert t2.label == (Input("x", "w1"),)
        assert label_alpha_eq(t1.label, t2.label)
        assert alpha_eq(substitute(t2.target, {"w1": "w0"}), t1.target)

    def test_substitution_commutation_for_renamings(self):
        rng = rng_for(24)
        checked = 0
        for _ in range(200):
            p = random_process(rng, 2)
            sigma = injective_renaming(p, rng)
            if not sigma:
                continue
            ps = substitute(p, sigma)
            expected = transitions(p)
            got = transitions(ps, avoid=all_names(p))
            for t in expected:
                want_label = tuple(
                    a if isinstance(a, type(TAU)) else _rename(a, sigma)
                    for a in t.label)
                want_target = substitute(t.target, sigma)
                assert any(
                    _matches(want_label, want_target, u) for u in got), \
                    f"{t} not found after renaming {sigma}"
                checked += 1
        assert checked > 100


def _rename(a, sigma):
    from pitc.semantics import rename_action
    return rename_action(a, sigma)


def _matches(label, target, u: Transition) -> bool:
    from pitc.syntax import fresh_names
    if label_key(label) != label_key(u.label):
        return False
    for beta in class_bijections(label, u.label):
        classes = sorted(beta)
        avoid = (all_names(target) | all_names(u.target)
                 | set(beta.values()) | set(classes))
        commons = fresh_names(avoid, len(classes))
        sub1 = dict(zip(classes, commons))
        sub2 = {beta[c]: w for c, w in zip(classes, commons)}
        if alpha_eq(substitute(target, sub1), substitute(u.target, sub2)):
            return True
    return False
