"""Game states up to injective renaming of free names.

Every bisimilarity here, and each bounded game that decides one, is
closed under injective renaming of free names, so the step, pomset and hp
games key their states on `syntax.renaming_form` of the process pair.
`ExactNames` keeps the key they had before, the canonical pair itself:
the two must give the same verdict on every input, and the form must be
equal exactly on renamings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    NIL, Call, InputPrefix, OutputPrefix, Par, Process, Restriction, Sum,
    TauPrefix, parse_file, parse_term, substitute,
)
from pitc.equivalences import (
    DEFAULT_MAX_POMSET, _Budget, _Forms, _HpGame, _PomsetGame, _StepGame,
)
from pitc.syntax import (
    EMPTY_ENV, alpha_eq, canonical, free_names, renaming_form, subterms,
)

from helpers import NAME_POOL, alpha_variant, random_process, rng_for
from test_golden import CASES, HANDOVER, _choice, _choice_distributed, _ring
from test_hp import _broken

UNLIMITED = 10 ** 9


class ExactNames(_Forms):
    """The key of a game state before renaming: the canonical pair."""

    @staticmethod
    def form(p, q):
        return p, q


def _verdicts(p, q, env, depth, forms) -> dict[str, bool]:
    games = {"step": _StepGame(env, _Budget(UNLIMITED)),
             "pomset": _PomsetGame(env, DEFAULT_MAX_POMSET, _Budget(UNLIMITED)),
             "hp": _HpGame(env, _Budget(UNLIMITED))}
    for game in games.values():
        game.forms = forms()
    return {rel: game.check(p, q, depth) if rel == "hp" else game.eq(p, q, depth)
            for rel, game in games.items()}


def assert_agrees(p, q, env=EMPTY_ENV, depth: int = 3) -> dict[str, bool]:
    want = _verdicts(p, q, env, depth, ExactNames)
    assert _verdicts(p, q, env, depth, _Forms) == want
    return want


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_agrees_on_golden_corpus(case):
    _, defs, lhs, rhs, depth = case
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    assert_agrees(src.named["LHS"], src.named["RHS"], src.environment(),
                  depth)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
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


def _pool(k: int) -> list[str]:
    return [f"j{i}?(x).x!r{i}.0" for i in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_agrees_on_worker_pools(k):
    comps = _pool(k)
    lhs = parse_term(" | ".join(comps))
    assert all(assert_agrees(lhs, parse_term(" | ".join(comps[::-1])))
               .values())
    broken = ["j0?(x).o!r0.0"] + comps[1:]
    assert not any(assert_agrees(lhs, parse_term(" | ".join(broken)))
                   .values())


def test_agrees_on_worker_and_sink():
    assert_agrees(parse_term("j?(x).x!r.0 | j?(y).0"),
                  parse_term("j?(y).0 | j?(x).x!r.0"))


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("twin", ["SPEC", "SHORT"])
def test_agrees_on_handover(depth, twin):
    src = parse_file(HANDOVER)
    got = assert_agrees(src.named["SYS"], src.named[twin], src.environment(),
                        depth)
    assert set(got.values()) == {twin == "SPEC"}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
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
# The form itself
# --------------------------------------------------------------------------

def _injective(names, rng) -> dict[str, str]:
    """A random injective map of `names` into the name pool and a few
    more, so that targets may coincide with the sources or the binders."""
    targets = rng.sample(NAME_POOL + ["e", "f", "g"], len(names))
    return dict(zip(sorted(names), targets))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_form_is_equal_under_injective_renaming(seed):
    rng = rng_for(seed)
    p, q = random_process(rng, 3), random_process(rng, 3)
    sigma = _injective(free_names(p) | free_names(q), rng)
    p2 = alpha_variant(substitute(p, sigma), rng)
    q2 = substitute(q, sigma)
    assert renaming_form(p2, q2) == renaming_form(p, q)


def _decode(form: tuple) -> tuple:
    """The pair a form stands for, free name i as `n{i}` and the i-th
    binder of a side as `m{i}`."""
    items = iter(form)

    def name() -> str:
        i = next(items)
        return f"n{i}" if i >= 0 else f"m{-1 - i}"

    def term(binders: list) -> Process:
        tag = next(items)
        if tag == 0:
            return NIL
        if tag == 1:
            return TauPrefix(term(binders))
        if tag == 2:
            subject, obj = name(), name()
            return OutputPrefix(subject, obj, term(binders))
        if tag in (3, 4):
            subject = name() if tag == 3 else None
            binders.append(f"m{len(binders)}")
            binder, body = binders[-1], term(binders)
            return (InputPrefix(subject, binder, body) if tag == 3
                    else Restriction(binder, body))
        if tag in (5, 6):
            left, right = term(binders), term(binders)
            return Sum(left, right) if tag == 5 else Par(left, right)
        ident, count = next(items), next(items)
        return Call(ident, tuple(name() for _ in range(count)))

    pair = term([]), term([])
    assert next(items, None) is None
    return pair


def _first_free_occurrences(p, q) -> list[str]:
    """The free names of the pair in preorder of first occurrence."""
    order: dict[str, None] = {}
    for t in (p, q):
        for node in subterms(canonical(t)):
            if isinstance(node, OutputPrefix):
                names = [node.subject, node.object]
            elif isinstance(node, InputPrefix):
                names = [node.subject]
            elif isinstance(node, Call):
                names = list(node.args)
            else:
                names = []
            order.update(dict.fromkeys(n for n in names
                                       if n in free_names(t)))
    return list(order)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_form_loses_only_the_names(seed):
    # Decoding the form gives the pair itself, its free names renamed
    # n0, n1, ... in first occurrence: so two pairs with one form are
    # renamings of each other.
    rng = rng_for(seed)
    p, q = random_process(rng, 3), random_process(rng, 3)
    sigma = {n: f"n{i}" for i, n in enumerate(_first_free_occurrences(p, q))}
    p2, q2 = _decode(renaming_form(p, q))
    assert alpha_eq(p2, substitute(p, sigma))
    assert alpha_eq(q2, substitute(q, sigma))


@pytest.mark.parametrize("p, q, p2, q2", [
    # Only the aliasing of free names differs.
    ("a!b.0 | c!d.0", "0", "a!b.0 | a!d.0", "0"),
    ("a!b.0", "c!d.0", "a!b.0", "a!d.0"),
    ("a!b.0", "c!d.0", "a!b.0", "c!b.0"),
    # A bound name against a free one.
    ("a?(x).x!c.0", "0", "a?(x).c!c.0", "0"),
    ("a?(x).x!c.0", "0", "a?(x).d!c.0", "0"),
    ("nu x. a!x.0", "0", "nu x. a!b.0", "0"),
    # The two sides swapped.
    ("a!b.0", "a!b.0 | c!d.0", "a!b.0 | c!d.0", "a!b.0"),
])
def test_form_differs_where_only_a_renaming_would_not_do(p, q, p2, q2):
    assert renaming_form(parse_term(p), parse_term(q)) != \
        renaming_form(parse_term(p2), parse_term(q2))


def test_form_is_equal_on_renamed_pairs():
    assert renaming_form(parse_term("a!b.0 | c?(x).x!b.0"), parse_term("c!a.0")) \
        == renaming_form(parse_term("c!v0.0 | b0?(y).y!v0.0"),
                         parse_term("b0!c.0"))


@pytest.mark.parametrize("lhs, states", [
    (" | ".join(_pool(3)), 79),       # the exact names need 345
    (" | ".join(_pool(4)), 801),      # and 6563
    (" | ".join(_ring(4)), 218),      # and 218: no two ring states are renamings
], ids=["pool k=3", "pool k=4", "ring n=4"])
@pytest.mark.parametrize("relation", ["step", "pomset", "hp"])
def test_game_states_up_to_renaming(lhs, states, relation):
    p = parse_term(lhs)
    q = parse_term(" | ".join(lhs.split(" | ")[::-1]))
    budget = _Budget(UNLIMITED)
    if relation == "hp":
        assert _HpGame(EMPTY_ENV, budget).check(p, q, 3)
    else:
        game = (_StepGame(EMPTY_ENV, budget) if relation == "step" else
                _PomsetGame(EMPTY_ENV, DEFAULT_MAX_POMSET, budget))
        assert game.eq(p, q, 3)
    assert budget.used == states
