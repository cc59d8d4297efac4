"""hhp refinement against a reference oracle, at scale and under budget.

`reference_live` is the direct algorithm: enumerate every label- and
order-preserving triple over every same-size pair of sub-histories, then
drop triples that fail transfer or any downward restriction, sweeping
until nothing changes.  The library's forward generation with counter
refinement must give the same live set on every input.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from pitc import (
    Par, StateBudgetExceeded, Sum, check_hhp, parse_file, parse_term,
)
from pitc.equivalences import _Budget, _build_pes, _hhp_live
from pitc.syntax import EMPTY_ENV, all_names
from pitc.unfolding import unfold

from helpers import random_process, rng_for
from test_golden import CASES, _choice, _choice_distributed

UNLIMITED = 10 ** 9


def _isos(p1, p2, m1: int, m2: int):
    """Label- and order-preserving bijections from sub-history m1 to m2."""
    ev1 = [e for e in range(m1.bit_length()) if m1 >> e & 1]
    ev2 = [e for e in range(m2.bit_length()) if m2 >> e & 1]
    if len(ev1) != len(ev2):
        return
    order = sorted(ev1, key=lambda e: (p1.causes[e] & m1).bit_count())

    def go(k, used, acc):
        if k == len(order):
            yield tuple(sorted(acc))
            return
        e1 = order[k]
        want = sum(1 << b for a, b in acc if p1.causes[e1] >> a & 1)
        for e2 in ev2:
            if (not used >> e2 & 1 and p1.labels[e1] == p2.labels[e2]
                    and p2.causes[e2] & m2 == want):
                yield from go(k + 1, used | 1 << e2, acc + ((e1, e2),))

    yield from go(0, 0, ())


def reference_live(p1, p2) -> set:
    live = {(c1, c2, f) for c1 in p1.exts for c2 in p2.exts
            if c1.bit_count() == c2.bit_count()
            for f in _isos(p1, p2, c1, c2)}

    def children(c1, c2, f):
        """Per left extension, then per right one, the matching children."""
        def child(e1, g1, e2, g2):
            fwd = dict(f)
            want = sum(1 << fwd[a] for a in fwd if p1.causes[e1] >> a & 1)
            if p1.labels[e1] == p2.labels[e2] and p2.causes[e2] == want:
                return (g1, g2, tuple(sorted(f + ((e1, e2),))))
            return None
        return ([[child(e1, g1, e2, g2) for e2, g2 in p2.exts[c2]]
                 for e1, g1 in p1.exts[c1]]
                + [[child(e1, g1, e2, g2) for e1, g1 in p1.exts[c1]]
                   for e2, g2 in p2.exts[c2]])

    def restrictions(c1, f):
        sub = (c1 - 1) & c1
        while True:
            if all(p1.causes[a] & ~sub == 0 for a, _ in f if sub >> a & 1):
                fr = tuple((a, b) for a, b in f if sub >> a & 1)
                yield (sub, sum(1 << b for _, b in fr), fr)
            if sub == 0:
                return
            sub = (sub - 1) & c1

    changed = True
    while changed:
        changed = False
        for t in sorted(live):
            if not (all(any(c in live for c in opts) for opts in children(*t))
                    and all(r in live for r in restrictions(t[0], t[2]))):
                live.discard(t)
                changed = True
    return live


def _pes_pair(p, q, env, depth):
    avoid = all_names(p) | all_names(q) | env.names()
    guard = _Budget(UNLIMITED)
    return tuple(_build_pes(unfold(t, env, depth, avoid=avoid), guard)
                 for t in (p, q))


def assert_agrees(p, q, env=EMPTY_ENV, depth: int = 3) -> bool:
    pes1, pes2 = _pes_pair(p, q, env, depth)
    want = reference_live(pes1, pes2)
    assert _hhp_live(pes1, pes2, _Budget(UNLIMITED)) == want
    equivalent = (0, 0, ()) in want
    assert check_hhp(p, q, env, depth, budget=UNLIMITED).equivalent \
        == equivalent
    return equivalent


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_agrees_on_golden_corpus(case):
    _, defs, lhs, rhs, depth = case
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    assert_agrees(src.named["LHS"], src.named["RHS"], src.environment(),
                  depth)


@pytest.mark.parametrize("lhs, rhs", [
    ("a!u.0 | b!v.0", "(a!u.0 | b!v.0) + a!u.b!v.0"),
    ("a!u.0 | a!u.0", "a!u.a!u.0 + (a!u.0 | a!u.0)"),
    ("a!u.(b!v.0 | c!w.0)", "a!u.b!v.c!w.0 + a!u.(b!v.0 | c!w.0)"),
])
def test_agrees_on_order_against_concurrency(lhs, rhs):
    assert not assert_agrees(parse_term(lhs), parse_term(rhs), depth=4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_agrees_on_choice_family(n):
    lhs = parse_term(_choice(n))
    assert assert_agrees(lhs, parse_term(_choice(n, swap=True)))
    assert not assert_agrees(lhs, parse_term(_choice_distributed(n)))
    assert not assert_agrees(lhs, parse_term(_choice(n, first="z")))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(
    ["pair", "par swap", "sum swap", "distribute"]))
def test_agrees_on_random_pairs(seed, shape):
    rng = rng_for(seed)
    p, q, r = (random_process(rng, 3) for _ in range(3))
    if shape == "par swap":
        p, q = Par(p, q), Par(q, p)
    elif shape == "sum swap":
        p, q = Sum(p, q), Sum(q, p)
    elif shape == "distribute":
        # The distribution shape of acceptance criteria 1 and 2.
        p, q = Par(Sum(p, q), r), Sum(Par(p, r), Par(q, r))
    assert_agrees(p, q, depth=3)


def test_choice_width_seven_within_default_budget():
    assert check_hhp(parse_term(_choice(7)), parse_term(_choice(7, swap=True)),
                     depth=3).equivalent


def test_choice_distributed_width_five_is_not_hhp():
    v = check_hhp(parse_term(_choice(5)), parse_term(_choice_distributed(5)),
                  depth=3)
    assert not v.equivalent


def test_wide_parallel_fails_fast_on_budget():
    p = parse_term(" | ".join(f"a{i}!u.0" for i in range(20)))
    start = time.process_time()
    with pytest.raises(StateBudgetExceeded):
        check_hhp(p, p)
    assert time.process_time() - start < 1.0
