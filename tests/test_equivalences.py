"""The four bisimilarity checkers: examples, laws, congruence, witnesses."""

from __future__ import annotations

import pytest

from pitc import (
    InputPrefix, OutputPrefix, Par, Restriction, Sum, TauPrefix, check,
    check_hhp, check_hp, check_pomset, check_step, parse_term, substitute,
)
from pitc.syntax import EMPTY_ENV

from helpers import alpha_variant, law_instances, random_process, rng_for

S1 = "(a!u.0 + b!v.0) | c!w.0"
T1 = "(a!u.0 | c!w.0) + (b!v.0 | c!w.0)"
S2 = "a!u.0 | (b!v.0 + c!w.0)"
T2 = "(a!u.0 | b!v.0) + (a!u.0 | c!w.0)"

ALL = ("step", "pomset", "hp", "hhp")


def verdicts(p, q, env=EMPTY_ENV, depth=4):
    return {rel: check(rel, parse_term(p) if isinstance(p, str) else p,
                       parse_term(q) if isinstance(q, str) else q,
                       env, depth).equivalent for rel in ALL}


class TestStep:
    def test_distribution_pair(self):
        assert check_step(parse_term(S1), parse_term(T1), depth=4).equivalent

    def test_summation_unit_random(self):
        rng = rng_for(41)
        for _ in range(25):
            p = random_process(rng, 2)
            assert check_step(Sum(p, parse_term("0")), p, depth=4).equivalent

    def test_distinguishes_subjects(self):
        v = check_step(parse_term("a!u.0"), parse_term("b!u.0"), depth=4)
        assert not v.equivalent
        assert v.distinguisher and v.distinguisher["steps"]
        assert "a!u" in v.distinguisher["steps"][0]["label"]

    def test_witness_replays(self):
        v = check_step(parse_term(S1), parse_term(T1), depth=4)
        assert v.witness
        for ptext, qtext in v.witness[:10]:
            w = check_step(parse_term(ptext), parse_term(qtext), depth=3)
            assert w.equivalent

    def test_exactness_flag(self):
        v = check_step(parse_term("tau.0"), parse_term("tau.0"), depth=4)
        assert v.exact
        from pitc import parse_file
        env = parse_file("B() := tau.B()\n").environment()
        v2 = check_step(parse_term("B()", {}), parse_term("tau.B()", {}),
                        env, depth=3)
        assert v2.equivalent and not v2.exact


class TestPomset:
    def test_identical(self):
        assert check_pomset(parse_term("tau.a!u.0"),
                            parse_term("tau.a!u.0"), depth=4).equivalent

    def test_expansion_shape(self):
        from pitc import expand
        p = parse_term("a!u.0 | c!v.0")
        assert check_pomset(p, expand(p), depth=4).equivalent

    def test_tau_depth_differs(self):
        assert not check_pomset(parse_term("tau.tau.0"),
                                parse_term("tau.0"), depth=4).equivalent

    def test_order_vs_concurrency(self):
        assert not check_pomset(parse_term("tau.a!u.0"),
                                parse_term("tau.0 | a!u.0"), depth=4).equivalent


class TestHp:
    def test_distribution_pairs_are_hp(self):
        assert check_hp(parse_term(S1), parse_term(T1), depth=4).equivalent
        assert check_hp(parse_term(S2), parse_term(T2), depth=4).equivalent

    def test_order_vs_concurrency_distinguishes(self):
        assert not check_hp(parse_term("tau.a!u.0"),
                            parse_term("tau.0 | a!u.0"), depth=4).equivalent

    def test_parallel_commutes_when_edges_differ_only_in_guards(self):
        # Law P2.  The step where `a` shares its received name with one of
        # the two inputs on `d` has two edges with one label and one plain
        # residual: the `tau` hangs under the `d` event that shares the
        # name, or under the other.  hp must keep both.
        assert verdicts("d?(z).0 | a?(y).0 | d?(x).tau.0",
                        "d?(x).tau.0 | a?(y).0 | d?(z).0") == dict.fromkeys(
                            ALL, True)


class TestHhp:
    def test_distribution_pairs_are_not_hhp(self):
        assert not check_hhp(parse_term(S1), parse_term(T1), depth=4).equivalent
        assert not check_hhp(parse_term(S2), parse_term(T2), depth=4).equivalent

    def test_reflexive(self):
        for src in (S1, T1, S2, T2, "x?(y).y!u.0 | a!b.0"):
            p = parse_term(src)
            assert check_hhp(p, p, depth=4).equivalent


class TestLateInput:
    def test_alpha_variant_inputs_match(self):
        assert all(verdicts("x?(y).y!u.0", "x?(z).z!u.0").values())

    def test_input_use_distinguishes(self):
        v = verdicts("x?(y).y!u.0", "x?(z).a!u.0")
        assert not any(v.values())

    def test_substitution_preservation_example(self):
        pq = parse_term("x!v.0 | y?(u).0")
        assert all(verdicts(pq, "x!v.0 | y?(u).0").values())
        sub = substitute(pq, {"y": "x"})
        assert all(verdicts(sub, "x!v.0 | x?(u).0").values())


class TestCongruence:
    def test_contexts_preserve_equivalence(self):
        rng = rng_for(42)
        for _ in range(10):
            p = random_process(rng, 2)
            q = alpha_variant(p, rng)
            r = random_process(rng, 2)
            pairs = [
                (TauPrefix(p), TauPrefix(q)),
                (OutputPrefix("x", "y", p), OutputPrefix("x", "y", q)),
                (Sum(p, r), Sum(q, r)),
                (Par(p, r), Par(q, r)),
                (Restriction("k", p), Restriction("k", q)),
                (InputPrefix("x", "y", p), InputPrefix("x", "y", q)),
            ]
            for a, b in pairs:
                assert check_step(a, b, depth=3).equivalent
                assert check_hp(a, b, depth=3).equivalent

    def test_law_smoke_all_checkers(self):
        rng = rng_for(43)
        for law in ("S1", "R0", "P1", "IDENT"):
            lhs, rhs, env = law_instances(rng, law)
            got = verdicts(lhs, rhs, env, depth=3)
            assert all(got.values()), (law, got)


class TestVerdictShape:
    def test_json_round_trip(self):
        import json
        v = check_step(parse_term("tau.0"), parse_term("tau.0"), depth=2)
        payload = v.to_json()
        json.dumps(payload)
        assert payload["relation"] == "step"
        assert payload["equivalent"] is True

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            check_step(parse_term("0"), parse_term("0"), depth=0)

    def test_budget_exhaustion(self):
        from pitc import StateBudgetExceeded
        p = parse_term("a!u.tau.tau.0 + b!v.tau.0")
        q = parse_term("a!u.tau.tau.0 + b!v.tau.tau.0")
        with pytest.raises(StateBudgetExceeded):
            check_step(p, q, depth=6, budget=2)
        with pytest.raises(StateBudgetExceeded):
            check_hhp(p, q, depth=6, budget=3)

    def test_pair_witness_filters_before_capping(self):
        from pitc.equivalences import _pair_witness
        pairs = [(parse_term(f"a{i}!u.0"),) * 2 for i in range(210)]
        # Five unrelated pairs first, then 205 related ones, each related
        # at two depths.
        memo = {(i, 3): False for i in range(5)}
        for i in range(5, 210):
            memo[(i, 2)] = True
            memo[(i, 1)] = True
        got = _pair_witness(memo, pairs)
        assert len(got) == 200
        assert got[0] == ["a5!u.0", "a5!u.0"]
        assert len({tuple(pair) for pair in got}) == 200
