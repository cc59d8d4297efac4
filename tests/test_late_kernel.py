"""The late-matching kernel of the step, pomset and hp games.

A game builds no instance it will not read: at the depth horizon a
matched move's residuals are related whatever they are, so `_match`
(step, pomset) and `_HpGame._try` accept the first pairing without
instantiating; and a check makes each substitution once, through its own
table.  The oracles below instantiate at the horizon too and call plain
`substitute` / `asubst`, as the games did before: the two must give the
same verdict JSON, witnesses and distinguishers included, on every
input.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pitc import Par, check, parse_file, parse_term, substitute
from pitc import equivalences
from pitc.equivalences import (
    DEFAULT_MAX_POMSET, _Budget, _HpGame, _PomsetGame, _StepGame, _holds,
    _position_bijections,
)
from pitc.semantics import asubst, class_bijections, late_instances, rename_action
from pitc.syntax import EMPTY_ENV, all_names

from helpers import random_process, rng_for
from test_golden import CASES, HANDOVER, _choice, _choice_distributed, _ring
from test_hp import _broken
from test_renaming import _pool

RELATIONS = ("step", "pomset", "hp")


class _FullInstances:
    """Step and pomset matching that instantiates at the horizon too."""

    _subst = staticmethod(substitute)

    def _match(self, t, u, names, avoid, d, left_attacks):
        return any(all(_holds(self.eq, a, b, d - t.steps, left_attacks)
                       for a, b in pairs)
                   for _, _, pairs in self._late(t, u, names, avoid))


class FullStep(_FullInstances, _StepGame):
    pass


class FullPomset(_FullInstances, _PomsetGame):
    pass


class FullHp(_HpGame):
    """hp whose edge matching instantiates at the horizon too."""

    def _try(self, e1, e2, f, d, base, names):
        fmap = dict(f)
        n = len(f)
        avoid = base.union(names, all_names(e1.target.term),
                           all_names(e2.target.term))
        for sub1, sub2, pairs in late_instances(
                e1.label, class_bijections(e1.label, e2.label),
                e1.target, e2.target, avoid, names, asubst):
            acts1 = tuple(rename_action(a, sub1) for a in e1.label)
            acts2 = tuple(rename_action(a, sub2) for a in e2.label)
            for g in _position_bijections(acts1, acts2):
                if not self._order_ok(e1, e2, g, fmap):
                    continue
                f2 = tuple(sorted(fmap.items() | {
                    (n + i, n + j) for i, j in g.items()}))
                if all(self.go(f2, a, b, d - 1, base) for a, b in pairs):
                    return True
        return False


ORACLES = {"_StepGame": FullStep, "_PomsetGame": FullPomset,
           "_HpGame": FullHp}


def assert_agrees(p, q, env=EMPTY_ENV, depth: int = 3) -> dict[str, bool]:
    """The verdict JSON of each late relation, with and without the
    kernel's shortcuts; returns whether each holds."""
    got = {rel: check(rel, p, q, env, depth).to_json() for rel in RELATIONS}
    with pytest.MonkeyPatch.context() as mp:
        for name, oracle in ORACLES.items():
            mp.setattr(equivalences, name, oracle)
        want = {rel: check(rel, p, q, env, depth).to_json()
                for rel in RELATIONS}
    assert got == want
    return {rel: out["equivalent"] for rel, out in got.items()}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_agrees_on_golden_corpus(case):
    _, defs, lhs, rhs, depth = case
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    assert_agrees(src.named["LHS"], src.named["RHS"], src.environment(),
                  depth)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_agrees_on_choice_family(n):
    lhs = parse_term(_choice(n))
    for twin in (_choice(n, swap=True), _choice_distributed(n),
                 _choice(n, first="z")):
        assert_agrees(lhs, parse_term(twin))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_agrees_on_rings(n):
    comps = _ring(n)
    lhs = parse_term(" | ".join(comps))
    assert all(assert_agrees(lhs, parse_term(" | ".join(comps[::-1])))
               .values())
    assert not any(assert_agrees(
        lhs, parse_term(" | ".join(_broken(comps)))).values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_agrees_on_worker_pools(k):
    comps = _pool(k)
    lhs = parse_term(" | ".join(comps))
    assert all(assert_agrees(lhs, parse_term(" | ".join(comps[::-1])))
               .values())
    broken = ["j0?(x).o!r0.0"] + comps[1:]
    assert not any(assert_agrees(lhs, parse_term(" | ".join(broken)))
                   .values())


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("twin", ["SPEC", "SHORT"])
def test_agrees_on_handover(depth, twin):
    src = parse_file(HANDOVER)
    got = assert_agrees(src.named["SYS"], src.named[twin], src.environment(),
                        depth)
    assert set(got.values()) == {twin == "SPEC"}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["par swap", "pair"]))
def test_agrees_on_random_pairs(seed, shape):
    rng = rng_for(seed)
    p, q = random_process(rng, 3), random_process(rng, 3)
    if shape == "par swap":
        r = random_process(rng, 2)
        assert_agrees(Par(p, r), Par(r, p))
    else:
        assert_agrees(p, q)


# --------------------------------------------------------------------------
# What one check instantiates
# --------------------------------------------------------------------------

# Ring 3 ends within two steps, so at depth 3 its horizon states are all
# `0 | 0 | 0 | 0`; at depth 2 they still move.
@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("relation", RELATIONS)
def test_ring_instantiates_once_and_not_at_the_horizon(monkeypatch, relation,
                                                        depth):
    real = equivalences.substitute
    made: Counter = Counter()

    def counting(p, sub):
        made[(p, *sub.items())] += 1
        return real(p, sub)

    monkeypatch.setattr(equivalences, "substitute", counting)
    comps = _ring(3)
    p, q = parse_term(" | ".join(comps)), parse_term(" | ".join(comps[::-1]))
    budget = _Budget(10 ** 9)
    game = (_HpGame(EMPTY_ENV, budget) if relation == "hp" else
            _StepGame(EMPTY_ENV, budget) if relation == "step" else
            _PomsetGame(EMPTY_ENV, DEFAULT_MAX_POMSET, budget))
    # Every residual pair a game reads goes through `eq` (`go` for hp), so
    # a call at depth 0 is an instance built at the horizon.
    depths = []
    state = "go" if relation == "hp" else "eq"
    inner = getattr(game, state)

    def spy(*args):
        depths.append(args[-2] if relation == "hp" else args[-1])
        return inner(*args)

    setattr(game, state, spy)
    assert (game.check(p, q, depth) if relation == "hp"
            else game.eq(p, q, depth))
    assert made and min(depths) > 0
    assert max(made.values()) == 1
