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
