"""Known library defects, pinned as strict expected failures.

Each test states the right answer.  While the defect stands the test
fails as expected; a change that fixes it, or that changes the wrong
verdict by accident, makes it pass and so fails the suite until the
marker is removed.
"""

from __future__ import annotations

import pytest

from pitc import check, parse_term

CONCURRENT_INPUTS = pytest.mark.xfail(
    strict=True,
    reason="concurrent-inputs defect, see perfbench/README.md: pomset and "
           "hhp tell p | q from q | p when both sides receive concurrently")


@CONCURRENT_INPUTS
@pytest.mark.parametrize("relation", ["pomset", "hhp"])
def test_parallel_commutes_with_concurrent_inputs(relation):
    # Law P2: parallel composition is commutative, as step and hp agree.
    p = parse_term("j?(x).x!r.0 | j?(y).0")
    q = parse_term("j?(y).0 | j?(x).x!r.0")
    assert check(relation, p, q, depth=3).equivalent


PLACEHOLDER_IDENTITY = pytest.mark.xfail(
    strict=True,
    reason="event-indexed placeholders, ROADMAP item 2: a placeholder is "
           "named by its position or freshness, not by the input event "
           "that binds it")


@PLACEHOLDER_IDENTITY
def test_hhp_tells_which_received_name_is_used():
    # The events are j?(w0), k?(w1), w0!a against j?(w0), k?(w0), w0!a:
    # one label, w0!a, names a different binding event on each side.
    p = parse_term("j?(x).k?(y).x!a.0")
    q = parse_term("j?(x).k?(y).y!a.0")
    assert not check("hhp", p, q, depth=3).equivalent


@PLACEHOLDER_IDENTITY
@pytest.mark.parametrize("lhs, rhs", [
    ("d?(z).0 | d?(x).e?(b).0", "d?(x).e?(b).0 | d?(z).0"),
    ("nu c. tau.d?(z).0 | c?(b).d?(u).0",
     "c?(b).d?(u).0 | nu c. tau.d?(z).0"),
], ids=["unused inputs", "restricted tau"])
def test_pomset_parallel_commutes_with_compositions(lhs, rhs):
    # Law P2; step, hp and hhp agree.
    assert check("pomset", parse_term(lhs), parse_term(rhs),
                 depth=3).equivalent


@pytest.mark.xfail(
    strict=True,
    reason="pomset vacuous on wide steps, ROADMAP item 1: unfolding."
           "_compose drops a single step edge wider than max_pomset")
def test_pomset_tells_a_renamed_channel_in_a_wide_step():
    # Width 5 exceeds the default max_pomset of 4; step says not equivalent.
    comps = [f"(a{i}!u.0 + b{i}!v.0)" for i in range(5)]
    renamed = ["(z0!u.0 + b0!v.0)"] + comps[1:]
    assert not check("pomset", parse_term(" | ".join(comps)),
                     parse_term(" | ".join(renamed)), depth=3).equivalent
