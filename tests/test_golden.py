"""Golden outputs on a fixed corpus: every checker's verdict JSON (witness,
distinguisher and the hp hint included), `prove_eq` results with their
rendered traces, the transitions of every term and its unfolding.

The expected values live in `tests/data/golden.json`.  Regenerate them
only when an output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pitc import (
    PitcError, check, expand, hnf, parse_file, prove_eq, transitions, unfold,
)
from pitc.semantics import transition_json

GOLDEN = Path(__file__).parent / "data" / "golden.json"
RELATIONS = ("step", "pomset", "hp", "hhp")


def _choice(n: int, swap: bool = False, first: str = "a") -> str:
    def comp(i: int) -> str:
        left = f"{first if i == 0 else 'a'}{i}!u.0"
        right = f"b{i}!v.0"
        return f"({right} + {left})" if swap else f"({left} + {right})"
    return " | ".join(comp(i) for i in range(n))


def _choice_distributed(n: int) -> str:
    rest = " | ".join(f"(a{i}!u.0 + b{i}!v.0)" for i in range(1, n))
    return f"(a0!u.0 | {rest}) + (b0!v.0 | {rest})"


def _ring(n: int) -> list[str]:
    return ["c0!tok.0"] + [f"c{i}?(y).c{(i + 1) % n}!y.0" for i in range(n)]


HANDOVER = """Server(s)     := s?(c).c!s.Server(s)
Client(s, me) := s!me.me?(x).0
SYS    = nu me. (Server(s) | Client(s, me))
SPEC   = tau.tau.(nu me. (Server(s) | 0))
SHORT  = tau.(nu me. (Server(s) | 0))
"""

#: (name, definitions, lhs, rhs, depth)
CASES: list[tuple[str, str, str, str, int]] = [
    ("readme step", "", "a!u.0 | c!v.0", "c!v.0 | a!u.0", 4),
    ("readme communication", "", "x!y.0 | x?(z).0", "tau.(0 | 0)", 4),
    ("readme extrusion", "", "nu y. x!y.0", "nu x. x!y.0", 4),
    ("criterion 1", "", "(a!u.0 + b!v.0) | c!w.0",
     "(a!u.0 | c!w.0) + (b!v.0 | c!w.0)", 4),
    ("criterion 2", "", "a!u.0 | (b!v.0 + c!w.0)",
     "(a!u.0 | b!v.0) + (a!u.0 | c!w.0)", 4),
    ("expansion free output", "", "x!y.a!b.0 | x?(v).v!c.0",
     "tau.(a!b.0 | y!c.0) + (x!y.a!b.0 | x?(v).v!c.0)", 5),
    ("expansion bound output", "", "(nu u. x!u.a!b.0) | x?(v).v!c.0",
     "tau.(nu u. (a!b.0 | u!c.0))", 5),
    ("expansion input first", "", "x?(v).v!c.0 | x!y.a!b.0",
     "x!y.a!b.0 | x?(v).v!c.0", 5),
    ("expansion input bound", "", "x?(v).v!c.0 | (nu u. x!u.a!b.0)",
     "(nu u. x!u.a!b.0) | x?(v).v!c.0", 5),
    ("late input", "", "a?(x).(x!c.0 + c!c.0)", "a?(x).(c!c.0 + x!c.0)", 4),
    ("late input differs", "", "a?(x).x!c.0", "a?(x).c!c.0", 4),
    ("worker sink", "", "j?(x).x!r.0 | j?(y).0", "j?(y).0 | j?(x).x!r.0", 3),
]
for _n in (2, 3, 4):
    CASES += [
        (f"choice n={_n} swapped", "", _choice(_n), _choice(_n, swap=True), 3),
        (f"choice n={_n} distributed", "", _choice(_n),
         _choice_distributed(_n), 3),
        (f"choice n={_n} renamed", "", _choice(_n), _choice(_n, first="z"), 3),
    ]
for _n in (1, 2, 3):
    _comps = _ring(_n)
    _broken = [("c0?(y).d0!y.0" if c == _comps[1] else c) for c in _comps]
    CASES += [
        (f"ring n={_n} reversed", "", " | ".join(_comps),
         " | ".join(_comps[::-1]), 3),
        (f"ring n={_n} broken", "", " | ".join(_comps), " | ".join(_broken), 3),
    ]
for _d in (2, 3, 4):
    CASES += [
        (f"handover depth={_d} spec", HANDOVER, "SYS", "SPEC", _d),
        (f"handover depth={_d} short", HANDOVER, "SYS", "SHORT", _d),
    ]

#: Parallel compositions whose head normal form and expansion are pinned.
PARALLEL = [
    "x!y.0 | x?(z).0",
    "(a!u.0 + b!v.0) | c!w.0",
    "x!y.a!b.0 | x?(v).v!c.0",
    "(nu u. x!u.a!b.0) | x?(v).v!c.0",
    "x?(v).v!c.0 | (nu u. x!u.a!b.0)",
    "j?(x).x!r.0 | j?(y).0",
]


def _guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PitcError as exc:
        return {"error": type(exc).__name__}


def _prove(p, q, env):
    ok, proof = prove_eq(p, q, env)
    if ok:
        return {"provable": True, "trace": [s.render() for s in proof]}
    return {"provable": False, "unmatched": proof}


def _hnf(p):
    h, trace = hnf(p)
    return {"hnf": h.render(), "trace": [s.render() for s in trace]}


def compute_case(name: str, defs: str, lhs: str, rhs: str, depth: int) -> dict:
    src = parse_file(f"{defs}LHS = {lhs}\nRHS = {rhs}\n")
    env = src.environment()
    p, q = src.named["LHS"], src.named["RHS"]
    return {
        "verdicts": {
            rel: _guarded(lambda r: check(r, p, q, env, depth).to_json(), rel)
            for rel in RELATIONS},
        "prove": _guarded(_prove, p, q, env),
        "transitions": [
            _guarded(lambda t: [transition_json(x)
                                for x in transitions(t, env)], t)
            for t in (p, q)],
        "unfold": [_guarded(lambda t: unfold(t, env, depth).to_json(), t)
                   for t in (p, q)],
    }


def compute_parallel(term: str) -> dict:
    from pitc import format_process, parse_term
    p = parse_term(term)
    return {"hnf": _guarded(_hnf, p),
            "expand": _guarded(lambda: format_process(expand(p)))}


def compute_all() -> dict:
    return {
        "cases": {name: compute_case(name, defs, lhs, rhs, depth)
                  for name, defs, lhs, rhs, depth in CASES},
        "parallel": {term: compute_parallel(term) for term in PARALLEL},
    }


def _as_json(value):
    """`value` as it reads back from the golden file (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden["cases"]) == sorted(name for name, *_ in CASES)
    assert sorted(golden["parallel"]) == sorted(PARALLEL)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_case(golden, case):
    assert _as_json(compute_case(*case)) == golden["cases"][case[0]]


@pytest.mark.parametrize("term", PARALLEL)
def test_golden_parallel(golden, term):
    assert _as_json(compute_parallel(term)) == golden["parallel"][term]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
