"""Prover: head normal forms, the expansion law, proofs, traces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    NIL, DepthExceeded, InputPrefix, NotWeaklyGuarded, OutputPrefix, Par,
    Prover, Restriction, TauPrefix, alpha_eq, check_step, depth, expand,
    format_process, hnf, parse_file, parse_term, prove_eq, replay,
    transitions, weakly_guarded,
)
from pitc.prover import AXIOM_TAGS, TraceStep
from pitc.semantics import label_key
from pitc.syntax import sum_of

from helpers import alpha_variant, random_process, rng_for


class TestHnf:
    def test_pair_without_communication(self):
        h, _ = hnf(parse_term("a!u.0 | c!v.0"))
        assert len(h.summands) == 1
        (s,) = h.summands
        assert sorted(str(a) for a in s.prefixes) == ["a!u", "c!v"]
        assert s.cont == parse_term("0 | 0")

    def test_communicating_pair_has_only_tau(self):
        h, _ = hnf(parse_term("x!y.0 | x?(z).0"))
        assert len(h.summands) == 1
        assert [str(a) for a in h.summands[0].prefixes] == ["tau"]

    def test_restricted_subject_is_nil(self):
        h, _ = hnf(parse_term("nu x. x!y.0"))
        assert h.summands == ()
        assert h.render() == "0"

    def test_extrusion_summand(self):
        h, _ = hnf(parse_term("nu y. x!y.0"))
        assert len(h.summands) == 1
        assert str(h.summands[0].prefixes[0]).startswith("x!(")

    def test_labels_agree_with_transitions(self):
        rng = rng_for(51)
        for _ in range(120):
            p = random_process(rng, 3)
            h, _ = hnf(p)
            want = {label_key(t.label) for t in transitions(p)}
            got = {label_key(s.prefixes) for s in h.summands}
            assert want == got, format_process(p)

    def test_hnf_preserves_step_bisimilarity(self):
        rng = rng_for(52)
        for _ in range(60):
            p = random_process(rng, 2)
            h, _ = hnf(p)
            assert check_step(p, h.to_process(), depth=4).equivalent, \
                (format_process(p), h.render())

    def test_unguarded_definition_rejected(self):
        env = parse_file("C(a, b) := C(a, b) + a!b.0\n").environment()
        with pytest.raises(NotWeaklyGuarded):
            hnf(parse_term("C(a, b)"), env)


class TestExpand:
    def test_free_comp_case(self):
        got = expand(parse_term("x!y.a!b.0 | x?(v).v!c.0"))
        assert alpha_eq(got, parse_term("tau.(a!b.0 | y!c.0)"))

    def test_bound_output_comp_case(self):
        got = expand(parse_term("(nu u. x!u.c!d.0) | x?(v).v!e.0"))
        assert alpha_eq(got, parse_term("tau.nu w. (c!d.0 | w!e.0)"))

    def test_symmetric_comp_case(self):
        got = expand(parse_term("x?(v).v!c.0 | x!y.a!b.0"))
        assert alpha_eq(got, parse_term("tau.(y!c.0 | a!b.0)"))

    def test_empty_expansion(self):
        assert expand(parse_term("0 | 0")) == parse_term("0")

    def test_mixed_summands(self):
        p = parse_term("(a!u.0 + x!y.0) | x?(v).0")
        got = expand(p)
        assert check_step(p, got, depth=4).equivalent

    def test_requires_parallel(self):
        with pytest.raises(ValueError):
            expand(parse_term("tau.0"))


class TestProveEq:
    def test_sum_associativity(self):
        ok, trace = prove_eq(parse_term("a!u.0 + (b!v.0 + c!w.0)"),
                             parse_term("(a!u.0 + b!v.0) + c!w.0"))
        assert ok
        assert all(s.tag in AXIOM_TAGS for s in trace)

    def test_restriction_swap(self):
        ok, _ = prove_eq(parse_term("nu y. nu z. (a!u.0 + z!y.0)"),
                         parse_term("nu z. nu y. (a!u.0 + y!z.0)"))
        assert ok

    def test_vacuous_restriction(self):
        ok, trace = prove_eq(parse_term("nu y. a!u.0"), parse_term("a!u.0"))
        assert ok
        assert any(s.tag == "R0" for s in trace)

    def test_not_provable_reports_summand(self):
        ok, detail = prove_eq(parse_term("a!u.0"),
                              parse_term("a!u.0 + b!v.0"))
        assert not ok
        assert detail["side"] == "right"
        assert "b!v" in detail["summand"]

    def test_identifier_unfolding(self):
        env = parse_file("B() := tau.B()\n").environment()
        ok, trace = prove_eq(parse_term("B()", {}), parse_term("tau.B()", {}),
                             env)
        assert ok
        assert any(s.tag == "I" for s in trace)

    def test_looping_equation_is_undecided(self):
        env = parse_file("D() := tau.tau.D()\nB() := tau.B()\n").environment()
        with pytest.raises(DepthExceeded):
            prove_eq(parse_term("D()", {}), parse_term("B()", {}), env)

    def test_trace_replays(self):
        rng = rng_for(53)
        pairs = [
            ("a!u.0 + (b!v.0 + c!w.0)", "(a!u.0 + b!v.0) + c!w.0"),
            ("nu y. a!u.0", "a!u.0"),
            ("x!y.0 | x?(z).0", "tau.(0 | 0)"),
            ("(a!u.0 + a!u.0) | 0", "a!u.(0 | 0)"),
        ]
        for lhs_text, rhs_text in pairs:
            lhs = parse_term(lhs_text)
            rhs = parse_term(rhs_text)
            ok, trace = prove_eq(lhs, rhs)
            assert ok, (lhs_text, rhs_text)
            assert alpha_eq(replay(trace, lhs), rhs)
        for _ in range(40):
            p = random_process(rng, 2)
            q = parse_term(format_process(p))
            ok, trace = prove_eq(p, q)
            assert ok
            assert alpha_eq(replay(trace, p), q)

    def test_soundness_into_step(self):
        rng = rng_for(54)
        for _ in range(60):
            p = random_process(rng, 2)
            q = random_process(rng, 2)
            if prove_eq(p, q)[0]:
                assert check_step(p, q, depth=4).equivalent

    def test_congruence_contexts(self):
        from pitc import (InputPrefix, OutputPrefix, Par, Restriction, Sum,
                          TauPrefix)
        rng = rng_for(55)
        for _ in range(15):
            p = random_process(rng, 2)
            q = Sum(p, parse_term("0"))          # provably equal to p by S0
            r = random_process(rng, 2)
            assert prove_eq(p, q)[0]
            contexts = [
                lambda t: TauPrefix(t),
                lambda t: OutputPrefix("x", "y", t),
                lambda t: Sum(t, r),
                lambda t: Par(t, r),
                lambda t: Restriction("k", t),
                lambda t: InputPrefix("x", "y", t),
            ]
            for ctx in contexts:
                assert prove_eq(ctx(p), ctx(q))[0]


class TestGuardsAndDepth:
    def test_weakly_guarded_examples(self):
        env = parse_file(
            "A() := tau.A()\n"
            "C(b, v) := C(b, v) + b!v.0\n"
            "D(x) := x?(y).D(y)\n").environment()
        table = weakly_guarded(env)
        assert table == {"A": True, "C": False, "D": True}

    def test_depth_measure(self):
        assert depth(parse_term("0")) == 0
        assert depth(parse_term("tau.0")) == 1
        assert depth(parse_term("tau.0 + a!u.tau.0")) == 2

    def test_depth_on_recursion_raises(self):
        env = parse_file("B() := tau.B()\n").environment()
        with pytest.raises(DepthExceeded):
            depth(parse_term("B()", {}), env)


def test_trace_step_rendering():
    step = TraceStep("R0", ("left",), parse_term("nu y. a!u.0"),
                     parse_term("a!u.0"))
    text = step.render()
    assert "R0" in text and "nu y. a!u.0" in text
    payload = step.to_json()
    assert payload["axiom"] == "R0" and payload["position"] == ["left"]


# The benchmark's `prove` workload judges `hnf`, `expand` and `prove_eq`
# on parallel pairs of prefixed sums like these (`_expansion_term`): each
# answer must be step-bisimilar to its input at depth 3, and each trace
# must replay.
_NAMES = st.sampled_from(["a", "b", "c", "u0", "v0"])
_CHANNELS = st.sampled_from(["a", "b", "c"])
_CONT = st.one_of(
    st.just(NIL),
    st.builds(TauPrefix, st.just(NIL)),
    st.builds(OutputPrefix, _NAMES, _NAMES, st.just(NIL)),
    st.builds(InputPrefix, _NAMES, st.just("v1"),
              st.builds(OutputPrefix, _NAMES, st.just("v1"), st.just(NIL))),
)
_SUMMAND = st.one_of(
    st.builds(TauPrefix, _CONT),
    st.builds(OutputPrefix, _CHANNELS, _NAMES, _CONT),
    st.builds(InputPrefix, _CHANNELS, st.just("v0"), _CONT),
    st.builds(lambda x, cont: Restriction("u0", OutputPrefix(x, "u0", cont)),
              _CHANNELS, _CONT),
)
_SUMS = st.lists(_SUMMAND, min_size=1, max_size=3).map(sum_of)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(p=st.builds(Par, _SUMS, _SUMS), seed=st.integers(0, 2 ** 16))
def test_expansion_terms_pass_the_benchmark_judge(p, seed):
    what = format_process(p)
    assert check_step(p, expand(p), depth=3).equivalent, what
    form, trace = hnf(p)
    assert alpha_eq(replay(trace, p), Prover().normalize(p)[0]), what
    assert check_step(p, form.to_process(), depth=3).equivalent, what
    q = alpha_variant(p, rng_for(seed))
    ok, proof = prove_eq(p, q)
    assert ok, (what, format_process(q))
    assert alpha_eq(replay(proof, p), q), what
