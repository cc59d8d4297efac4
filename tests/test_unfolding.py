"""Event-structure unfolding: causality, conflict, configurations, pomsets."""

from __future__ import annotations

import json

import pytest

from pitc import (
    StateBudgetExceeded, parse_file, parse_term, pomset_iso,
    pomset_transitions, transitions, unfold,
)
from pitc.semantics import label_key
from pitc.syntax import EMPTY_ENV, Input, all_names

from helpers import random_process, rng_for
from test_golden import CASES, _choice, _choice_distributed


def event_by_action(u, text):
    hits = [e for e in u.events.values() if str(e.action) == text]
    assert len(hits) == 1, f"{text}: {[str(e.action) for e in u.events.values()]}"
    return hits[0]


class TestUnfold:
    def test_pair_step_cause_free(self):
        u = unfold(parse_term("a!u.0 | c!v.0"), depth=1)
        root = u.nodes[u.root]
        assert len(root.edges) == 1
        (edge,) = root.edges
        assert len(edge.events) == 2
        assert all(u.events[e].causes == frozenset() for e in edge.events)

    def test_prefix_chain_is_causality(self):
        u = unfold(parse_term("tau.tau.0"), depth=2)
        assert len(u.nodes) == 3
        e1 = next(e for e in u.events.values() if not e.causes)
        e2 = next(e for e in u.events.values() if e.causes)
        assert e2.causes == {e1.eid}
        assert set(u.nodes) == {frozenset(), frozenset({e1.eid}),
                                frozenset({e1.eid, e2.eid})}

    def test_sum_branches_conflict_shared_bystander(self):
        u = unfold(parse_term("(a!u.0 + b!v.0) | c!w.0"), depth=1)
        root = u.nodes[u.root]
        assert len(root.edges) == 2
        ea = event_by_action(u, "a!u")
        eb = event_by_action(u, "b!v")
        ec = event_by_action(u, "c!w")
        assert u.conflict(ea.eid, eb.eid)
        assert u.concurrent(ea.eid, ec.eid)
        assert u.concurrent(eb.eid, ec.eid)

    def test_communication_is_one_event(self):
        u = unfold(parse_term("x!y.0 | x?(z).0"), depth=1)
        assert len(u.events) == 1
        assert str(next(iter(u.events.values())).action) == "tau"

    def test_budget(self):
        with pytest.raises(StateBudgetExceeded):
            unfold(parse_term("a!u.0 + b!u.0 + c!u.0 + d!u.0"), depth=1,
                   budget=2)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            unfold(parse_term("tau.0"), depth=0)


class TestStructuralInvariants:
    def test_configurations_downward_closed_conflict_free(self):
        rng = rng_for(31)
        for _ in range(60):
            p = random_process(rng, 3)
            u = unfold(p, depth=3)
            for cfg in u.nodes:
                for e in cfg:
                    assert u.events[e].causes <= cfg
                for e1 in cfg:
                    for e2 in cfg:
                        assert not u.conflict(e1, e2)

    def test_hereditary_conflict(self):
        rng = rng_for(32)
        for _ in range(60):
            u = unfold(random_process(rng, 3), depth=3)
            evs = list(u.events)
            for e in evs:
                for f in evs:
                    if u.conflict(e, f):
                        for g in evs:
                            if u.leq(f, g):
                                assert u.conflict(e, g)

    def test_edges_agree_with_transitions(self):
        rng = rng_for(33)
        for _ in range(50):
            p = random_process(rng, 2)
            u = unfold(p, depth=2)
            for rec in u.nodes.values():
                if not rec.expanded:
                    continue
                want = sorted(str(label_key(t.label))
                              for t in transitions(p if rec.config == u.root
                                                   else rec.residual.term))
                got = sorted(str(label_key(e.actions)) for e in rec.edges)
                assert want == got, rec.residual.term


class TestPomsets:
    def test_composed_chain_is_ordered(self):
        u = unfold(parse_term("tau.tau.0"), depth=2)
        poms = pomset_transitions(u, u.root, 2)
        sizes = sorted(len(x.events) for x in poms)
        assert sizes == [1, 2]
        big = next(x for x in poms if len(x.events) == 2)
        assert len(big.order) == 1

    def test_parallel_pair_is_unordered(self):
        u = unfold(parse_term("a!u.0 | c!v.0"), depth=1)
        poms = pomset_transitions(u, u.root, 2)
        assert len(poms) == 1
        assert poms[0].order == frozenset()

    def test_size_bound_keeps_single_edges(self):
        u = unfold(parse_term("tau.tau.0"), depth=2)
        poms = pomset_transitions(u, u.root, 1)
        assert [len(x.events) for x in poms] == [1]
        u2 = unfold(parse_term("a!u.0 | c!v.0"), depth=1)
        assert pomset_transitions(u2, u2.root, 1) == []

    def test_iso_chain_vs_chain(self):
        u1 = unfold(parse_term("tau.tau.0"), depth=2)
        u2 = unfold(parse_term("tau.tau.a!b.0"), depth=2)
        x1 = max(pomset_transitions(u1, u1.root, 2), key=lambda x: len(x.events))
        x2 = max(pomset_transitions(u2, u2.root, 2), key=lambda x: len(x.events))
        assert pomset_iso(x1, x2)

    def test_iso_rejects_order_mismatch(self):
        u1 = unfold(parse_term("a!u.0 | c!v.0"), depth=1)
        u2 = unfold(parse_term("a!u.c!v.0"), depth=2)
        x1 = max(pomset_transitions(u1, u1.root, 2), key=lambda x: len(x.events))
        x2 = max(pomset_transitions(u2, u2.root, 2), key=lambda x: len(x.events))
        assert not pomset_iso(x1, x2)

    def test_iso_is_placeholder_insensitive(self):
        u1 = unfold(parse_term("x?(y).0"), depth=1)
        u2 = unfold(parse_term("x?(y).0"), depth=1, avoid=("w0", "w1", "w2",
                                                           "w3", "w4"))
        (x1,) = pomset_transitions(u1, u1.root, 1)
        (x2,) = pomset_transitions(u2, u2.root, 1)
        assert x1.actions[0] == Input("x", "w0")
        assert x2.actions[0] == Input("x", "w5")
        assert pomset_iso(x1, x2)


class TestExports:
    def test_json_shape(self):
        u = unfold(parse_term("(a!u.0 + b!v.0) | c!w.0"), depth=2)
        data = u.to_json()
        assert {n["id"] for n in data["nodes"]} == set(range(len(data["nodes"])))
        assert all(e["source"] < len(data["nodes"]) for e in data["edges"])
        json.dumps(data)

    def test_dot_mentions_labels(self):
        u = unfold(parse_term("tau.tau.0"), depth=2)
        dot = u.to_dot()
        assert dot.startswith("digraph")
        assert "tau" in dot

    def test_pes_configs_include_sub_histories(self):
        u = unfold(parse_term("(a!u.0 + b!v.0) | c!w.0"), depth=1)
        configs = u.pes_configs()
        ec = event_by_action(u, "c!w").eid
        assert frozenset() in configs
        assert frozenset({ec}) in configs


def reference_sub_histories(u) -> dict:
    """Every subset of every reached configuration, kept when downward
    closed, with its one-event extensions found by trying every event:
    the direct enumeration that `UnfoldedLTS.sub_histories` replaces."""
    causes = {e: sum(1 << c for c in ev.causes) for e, ev in u.events.items()}
    masks = set()
    for cfg in u.nodes:
        elems = sorted(cfg)
        for pick in range(1 << len(elems)):
            sub = sum(1 << e for i, e in enumerate(elems) if pick >> i & 1)
            if all(causes[e] & ~sub == 0 for e in elems if sub >> e & 1):
                masks.add(sub)
    return {c: [(e, c | 1 << e) for e in sorted(causes)
                if not c >> e & 1 and causes[e] & ~c == 0
                and c | 1 << e in masks]
            for c in masks}


def assert_sub_histories_agree(p, q, env, depth: int) -> None:
    avoid = all_names(p) | all_names(q) | env.names()
    for t in (p, q):
        u = unfold(t, env, depth, avoid=avoid)
        assert u.sub_histories() == reference_sub_histories(u)


class TestSubHistories:
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_agree_with_enumeration_on_golden_corpus(self, case):
        _, defs, lhs, rhs, depth = case
        src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
        assert_sub_histories_agree(src.named["LHS"], src.named["RHS"],
                                   src.environment(), depth)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agree_with_enumeration_on_choice_family(self, n):
        lhs = parse_term(_choice(n))
        for twin in (_choice(n, swap=True), _choice_distributed(n),
                     _choice(n, first="z")):
            assert_sub_histories_agree(lhs, parse_term(twin),
                                       EMPTY_ENV, 3)
