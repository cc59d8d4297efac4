"""hp's test names against the rule they replaced, and the late-style rule
that step, pomset and hp share.

Every game state instantiates inputs with one set of test names: the free
names of its two processes plus one fresh name (`instance_names`).  hp
used to take them from each pair of residuals instead, placeholders
included; after the late renaming those placeholders acted as extra
fresh names, so every input was also tried with instances that differ
from the fresh one only by a renaming.  `ResidualNamesHp` keeps that
rule as a reference: the two must give the same verdict on every input.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    InputPrefix, Par, check_hp, check_pomset, check_step, parse_file,
    parse_term,
)
from pitc import equivalences
from pitc.equivalences import _Budget, _HpGame, _PomsetGame, _StepGame
from pitc.semantics import instance_names
from pitc.syntax import EMPTY_ENV

from helpers import random_process, rng_for
from test_golden import CASES, HANDOVER, _choice, _choice_distributed, _ring

UNLIMITED = 10 ** 9


class ResidualNamesHp(_HpGame):
    """hp with the old rule: each edge pair takes its test names from its
    two residuals."""

    def _try(self, e1, e2, f, d, base, names):
        return super()._try(e1, e2, f, d, base, instance_names(
            e1.target.term, e2.target.term, self.env))


def assert_agrees(p, q, env=EMPTY_ENV, depth: int = 3) -> bool:
    want = ResidualNamesHp(env, _Budget(UNLIMITED)).check(p, q, depth)
    assert check_hp(p, q, env, depth, budget=UNLIMITED).equivalent == want
    return want


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_agrees_on_golden_corpus(case):
    _, defs, lhs, rhs, depth = case
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    assert_agrees(src.named["LHS"], src.named["RHS"], src.environment(),
                  depth)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_agrees_on_choice_family(n):
    lhs = parse_term(_choice(n))
    assert assert_agrees(lhs, parse_term(_choice(n, swap=True)))
    assert assert_agrees(lhs, parse_term(_choice_distributed(n)))
    assert not assert_agrees(lhs, parse_term(_choice(n, first="z")))


def _broken(comps: list[str]) -> list[str]:
    """A ring whose first relay forwards on a wrong channel."""
    return [comps[0], "c0?(y).d0!y.0"] + comps[2:]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_agrees_on_rings(n):
    comps = _ring(n)
    lhs = parse_term(" | ".join(comps))
    assert assert_agrees(lhs, parse_term(" | ".join(comps[::-1])))
    assert not assert_agrees(lhs, parse_term(" | ".join(_broken(comps))))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_agrees_on_worker_pools(k):
    comps = [f"j{i}?(x).x!r{i}.0" for i in range(k)]
    lhs = parse_term(" | ".join(comps))
    assert assert_agrees(lhs, parse_term(" | ".join(comps[::-1])))
    broken = ["j0?(x).o!r0.0"] + comps[1:]
    assert not assert_agrees(lhs, parse_term(" | ".join(broken)))


def test_agrees_on_worker_and_sink():
    assert assert_agrees(parse_term("j?(x).x!r.0 | j?(y).0"),
                         parse_term("j?(y).0 | j?(x).x!r.0"))


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("twin", ["SPEC", "SHORT"])
def test_agrees_on_handover(depth, twin):
    src = parse_file(HANDOVER)
    assert assert_agrees(src.named["SYS"], src.named[twin],
                         src.environment(), depth) == (twin == "SPEC")


def _receiver(rng):
    """A random term under an input prefix on `a` or `b`, so that two of
    them often compete for one channel."""
    return InputPrefix(rng.choice("ab"), "x", random_process(rng, 3))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["par swap", "pair"]))
def test_agrees_on_concurrent_inputs(seed, shape):
    rng = rng_for(seed)
    p, q, r, s = (_receiver(rng) for _ in range(4))
    if shape == "par swap":
        assert assert_agrees(Par(p, q), Par(q, p))
    else:
        assert_agrees(Par(p, q), Par(r, s))


def test_ring_of_four_within_250_states():
    # The residual rule needs 731 game states here; the state's own test
    # names need 218.
    comps = _ring(4)
    assert check_hp(parse_term(" | ".join(comps)),
                    parse_term(" | ".join(comps[::-1])), depth=3,
                    budget=250).equivalent


# --------------------------------------------------------------------------
# The documented rule: every late match uses the state's own test names
# --------------------------------------------------------------------------

#: Game methods that stand for one state, and the locals that hold its
#: two processes.
STATE_FRAMES = {"eq": ("p", "q"), "_trace": ("p", "q"),
                "explain": ("p", "q"), "go": ("ap1", "ap2")}


def _calling_state(frame):
    """The game and the two processes of the nearest state on the stack."""
    while frame is not None:
        game = frame.f_locals.get("self")
        slots = STATE_FRAMES.get(frame.f_code.co_name)
        if slots and isinstance(game, (_StepGame, _PomsetGame, _HpGame)):
            a, b = (frame.f_locals[s] for s in slots)
            if isinstance(game, _HpGame):
                a, b = a.term, b.term
            return type(game), a, b
        frame = frame.f_back
    raise AssertionError("late_instances called outside a game state")


@pytest.mark.parametrize("lhs, rhs", [
    ("(a!u.0 + b!v.0) | c!w.0", "(a!u.0 | c!w.0) + (b!v.0 | c!w.0)"),
    (" | ".join(_ring(2)), " | ".join(_ring(2)[::-1])),
    (" | ".join(_ring(2)), " | ".join(_broken(_ring(2)))),
], ids=["readme", "ring n=2 reversed", "ring n=2 broken"])
@pytest.mark.parametrize("checker, game", [
    (check_step, _StepGame), (check_pomset, _PomsetGame),
    (check_hp, _HpGame)], ids=["step", "pomset", "hp"])
def test_late_instances_get_the_states_test_names(monkeypatch, lhs, rhs,
                                                  checker, game):
    real = equivalences.late_instances
    calls = []

    def spy(label, pairings, left, right, avoid, names, subst):
        kind, p, q = _calling_state(sys._getframe(1))
        calls.append((kind, list(names), instance_names(p, q, EMPTY_ENV)))
        return real(label, pairings, left, right, avoid, names, subst)

    monkeypatch.setattr(equivalences, "late_instances", spy)
    checker(parse_term(lhs), parse_term(rhs), depth=3)
    assert any(kind is game for kind, _, _ in calls)
    for _, got, want in calls:
        assert got == want
