"""Seeded inputs for the four benchmark workloads.

A round is a list of `Op`s with a fixed composition, so complete rounds
give the same operation mix whatever the seed or the speed of the
library.  Set-up makes `ROUNDS_PER_SECOND[workload] * seconds` rounds,
about what the library completes today; a faster library gets further
rounds from the same stream, made outside the timed calls.

Inputs are generated as text and parsed here, as a user of the library
would.  No input repeats within a process: each round tags its free
names (or, for random law instances, is deduplicated up to alpha
conversion), so `semantics.transitions`' process-wide cache cannot turn a
repeated input into a pure cache hit.

Random structures (law instances, terms for `hnf` and `expand`) come
from one fixed stream per workload, the same for every seed; the seed
renames their names and shuffles the order of each round.  The cost of
random instances is heavy-tailed, so with structures drawn per seed the
tail latency would depend on the seed more than on the library.

The generators are the benchmark's own and do not import the test
helpers, so editing the tests never changes the benchmark's inputs.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass
from itertools import combinations_with_replacement, count, islice
from typing import Iterator, Optional

import pitc
from pitc import (
    NIL, Call, Environment, InputPrefix, OutputPrefix, Par,
    Process, Restriction, Sum, TauPrefix, format_process,
)
from pitc.syntax import EMPTY_ENV

RELATIONS = ("step", "pomset", "hp", "hhp")

#: The CLI's default `--max-pomset`.  With it, a step of more than this
#: many events yields no pomset transition at all, so the pomset check
#: says "equivalent" vacuously (a known library defect this benchmark
#: reports as wrong answers, see `Op.known`).
CLI_MAX_POMSET = 4
KNOWN_POMSET_WIDE_STEP = "pomset-wide-step"
#: pomset and hhp sometimes tell `p | q` from `q | p` when both sides
#: run input prefixes concurrently, e.g. `j?(x).x!r.0 | j?(y).0`.
KNOWN_CONCURRENT_INPUTS = "concurrent-inputs"

ROUNDS_PER_SECOND = {"laws": 12, "choice": 0.3, "mobile": 0.35, "prove": 2}


@dataclass
class Op:
    """One timed call into the library and the answer it must give.

    `expected` is None when the answer is decided by an oracle after the
    timed phase (the prover's enumeration pairs).  `known` names the
    library defect that explains a wrong answer, when one applies.
    """
    kind: str                        # check | prove | hnf | expand
    label: str
    lhs: Process
    rhs: Optional[Process] = None
    env: Environment = EMPTY_ENV
    rel: str = ""
    depth: int = 0
    expected: Optional[bool] = None
    known: Optional[str] = None


def build(workload: str, seed: int,
          seconds: float) -> tuple[list[list[Op]], Iterator[list[Op]]]:
    """The rounds made at set-up, and an endless stream of further ones
    for a library fast enough to finish them within `seconds`."""
    rng = random.Random(f"{workload}:{seed}")
    shapes = random.Random(f"{workload}:shapes")
    stream = STREAMS[workload](rng, shapes)
    made = max(1, math.ceil(ROUNDS_PER_SECOND[workload] * seconds))
    return list(islice(stream, made)), stream


def seed_names(rng: random.Random) -> list[str]:
    """Eight distinct two-letter names; they clash with no fixed name the
    generators or the library's fresh-name sequences use."""
    letters = "acdhjkoqrstxy"
    pairs = [a + b for a in letters for b in letters]
    return rng.sample(pairs, len(NAMES))


def _tagger(rng: random.Random):
    """Distinct name suffixes; the seed picks the letters."""
    letters = rng.sample(string.ascii_lowercase, 3)
    counter = count()
    return lambda: f"{rng.choice(letters)}{next(counter)}"


def _check_ops(label: str, lhs: Process, rhs: Process, env: Environment,
               depth: int, expected: dict[str, bool],
               known: Optional[dict[str, str]] = None) -> list[Op]:
    known = known or {}
    return [Op("check", f"{label} {rel}", lhs, rhs, env, rel, depth,
               expected[rel], known.get(rel))
            for rel in expected]


def _all(value: bool, rels=RELATIONS) -> dict[str, bool]:
    return {rel: value for rel in rels}


# --------------------------------------------------------------------------
# Random terms and law instances
# --------------------------------------------------------------------------

NAMES = ("a", "b", "c", "d", "x", "y", "z", "u")


def random_term(rng: random.Random, depth: int, names, *,
                restrict: bool = True, width: int = 2) -> Process:
    """Recursion-free random term, prefix-heavy, with small fan-out."""
    if depth <= 0:
        return NIL

    def sub(w: int = width) -> Process:
        return random_term(rng, depth - 1, names, restrict=restrict,
                           width=w)

    roll = rng.random()
    if roll < 0.10:
        return NIL
    if roll < 0.62:
        kind = rng.random()
        cont = sub()
        if kind < 0.25:
            return TauPrefix(cont)
        if kind < 0.70:
            return OutputPrefix(rng.choice(names), rng.choice(names), cont)
        return InputPrefix(rng.choice(names), rng.choice(names), cont)
    if roll < 0.78:
        return Sum(sub(), sub())
    if roll < 0.92 and width > 1:
        return Par(sub(width - 1), sub(width - 1))
    if restrict:
        return Restriction(rng.choice(names), sub())
    return TauPrefix(sub())


def _fresh(used: set[str], prefix: str) -> str:
    i = 0
    while f"{prefix}{i}" in used:
        i += 1
    return f"{prefix}{i}"


def _names_of(p: Process) -> set[str]:
    return set(pitc.syntax.all_names(p))


def _disjoint_component(rng: random.Random, channels: list[str],
                        depth: int = 2, inputs: int = 1) -> Process:
    """A component whose subjects stay within `channels`; input binders
    are never subjects, so components over disjoint channel sets cannot
    communicate, not even after instantiation (associativity needs it)."""
    if depth <= 0:
        return NIL
    roll = rng.random()
    if roll < 0.15:
        return NIL
    if roll < 0.70:
        kind = rng.random()
        if kind >= 0.75 and inputs > 0:
            return InputPrefix(rng.choice(channels), "i0",
                               _disjoint_component(rng, channels, depth - 1, 0))
        cont = _disjoint_component(rng, channels, depth - 1, inputs)
        if kind < 0.3:
            return TauPrefix(cont)
        return OutputPrefix(rng.choice(channels),
                            rng.choice(channels + ["m1", "m2"]), cont)
    return Sum(_disjoint_component(rng, channels, depth - 1, inputs),
               _disjoint_component(rng, channels, depth - 1, inputs))


LAWS = ("S0", "S1", "S2", "S3", "R0", "R1", "R2", "R3", "R4",
        "P1", "P2", "P3", "P4", "P5", "IDENT")


def law_instance(rng: random.Random, law: str,
                 names: list[str]) -> tuple[str, str, str]:
    """(definitions text, lhs text, rhs text) of one instance of `law`.

    `rng` draws positions in `names`, so two name lists of one length
    give instances that differ by an injective renaming only."""
    def gen(depth: int = 2) -> Process:
        return random_term(rng, depth, names)

    defs = ""
    if law == "S0":
        p = gen()
        lhs, rhs = Sum(p, NIL), p
    elif law == "S1":
        p = gen()
        lhs, rhs = Sum(p, p), p
    elif law == "S2":
        p, q = gen(), gen()
        lhs, rhs = Sum(p, q), Sum(q, p)
    elif law == "S3":
        p, q, r = gen(), gen(), gen()
        lhs, rhs = Sum(p, Sum(q, r)), Sum(Sum(p, q), r)
    elif law == "R0":
        p = gen()
        y = _fresh(_names_of(p), "f")
        lhs, rhs = Restriction(y, p), p
    elif law == "R1":
        p = gen()
        x, y = rng.sample(names, 2)
        lhs = Restriction(x, Restriction(y, p))
        rhs = Restriction(y, Restriction(x, p))
    elif law == "R2":
        p, q = gen(), gen()
        x = rng.choice(names)
        lhs = Restriction(x, Sum(p, q))
        rhs = Sum(Restriction(x, p), Restriction(x, q))
    elif law == "R3":
        p = gen(1)
        x = rng.choice(names)
        others = [n for n in names if n != x]
        a, b = rng.choice(others), rng.choice(others)
        if rng.random() < 0.3:
            lhs, rhs = Restriction(x, TauPrefix(p)), TauPrefix(Restriction(x, p))
        else:
            lhs = Restriction(x, OutputPrefix(a, b, p))
            rhs = OutputPrefix(a, b, Restriction(x, p))
    elif law == "R4":
        p = gen(1)
        x, obj = rng.choice(names), rng.choice(names)
        act = (OutputPrefix(x, obj, p) if rng.random() < 0.5
               else InputPrefix(x, obj, p))
        lhs, rhs = Restriction(x, act), NIL
    elif law == "P1":
        p = gen()
        lhs, rhs = Par(p, NIL), p
    elif law == "P2":
        p, q = gen(), gen()
        lhs, rhs = Par(p, q), Par(q, p)
    elif law == "P3":
        p, q = gen(), gen()
        y = _fresh(_names_of(p) | _names_of(q), "f")
        lhs, rhs = Par(Restriction(y, p), q), Restriction(y, Par(p, q))
    elif law == "P4":
        p = _disjoint_component(rng, names[0:2])
        q = _disjoint_component(rng, names[2:4])
        r = _disjoint_component(rng, names[4:6], inputs=0)
        lhs, rhs = Par(Par(p, q), r), Par(p, Par(q, r))
    elif law == "P5":
        p, q = gen(), gen()
        y = _fresh(_names_of(p) | _names_of(q), "f")
        lhs = Restriction(y, Par(p, q))
        rhs = Par(Restriction(y, p), Restriction(y, q))
    elif law == "IDENT":
        body = random_term(rng, 2, ("p1", "p2"), restrict=False)
        args = (rng.choice(names), rng.choice(names))
        defs = f"A(p1, p2) := {format_process(body)}"
        lhs = Call("A", args)
        rhs = pitc.substitute(body, {"p1": args[0], "p2": args[1]})
    else:
        raise ValueError(law)
    return defs, format_process(lhs), format_process(rhs)


class _LawSource:
    """Law instances parsed from text, never the same pair twice (up to
    alpha conversion) within one process."""

    def __init__(self, shapes: random.Random, names: list[str]) -> None:
        self.shapes = shapes
        self.names = names
        self.seen: set[tuple] = set()

    def next(self, law: str) -> tuple[Process, Process, Environment]:
        for _ in range(10_000):
            defs, lhs_text, rhs_text = law_instance(self.shapes, law,
                                                    self.names)
            env = (pitc.parse_file(defs).environment() if defs else EMPTY_ENV)
            lhs, rhs = pitc.parse_term(lhs_text), pitc.parse_term(rhs_text)
            key = (law, defs, pitc.canonical(lhs), pitc.canonical(rhs))
            if key not in self.seen:
                self.seen.add(key)
                return lhs, rhs, env
        raise RuntimeError(f"law {law}: no new instance in 10000 draws")


def _concurrent_inputs(p: Process) -> bool:
    """Some parallel composition in `p` has input prefixes on both sides."""
    def has_input(t: Process) -> bool:
        return any(isinstance(s, InputPrefix) for s in pitc.syntax.subterms(t))
    return any(isinstance(t, Par) and has_input(t.left) and has_input(t.right)
               for t in pitc.syntax.subterms(p))


def laws(rng: random.Random,
         shapes: random.Random) -> Iterator[list[Op]]:
    """Each round: one fresh instance of every law, checked under all four
    relations at depth 4; the answer is always "equivalent"."""
    source = _LawSource(shapes, seed_names(rng))
    while True:
        ops: list[Op] = []
        for law in LAWS:
            lhs, rhs, env = source.next(law)
            known = (dict.fromkeys(("pomset", "hhp"), KNOWN_CONCURRENT_INPUTS)
                     if _concurrent_inputs(lhs) else None)
            ops += _check_ops(f"law {law}", lhs, rhs, env, 4, _all(True),
                              known)
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------------------
# The choice family
# --------------------------------------------------------------------------

CHOICE_WIDTHS = (2, 3, 4, 5, 6)


def _component(i: int, t: str, swap: bool = False, a: str = "a") -> str:
    left, right = f"{a}{i}{t}!u{t}.0", f"b{i}{t}!v{t}.0"
    return f"({right} + {left})" if swap else f"({left} + {right})"


def choice(rng: random.Random,
           shapes: random.Random) -> Iterator[list[Op]]:
    """Each round: widths 2..6 of `(a_i!u.0 + b_i!v.0) | ...` against
    three twins, at depth 3 under all four relations.

    - every summand swapped: equivalent;
    - the first component distributed over the rest, `(a_0!u.0 | R) +
      (b_0!v.0 | R)`: equivalent except under hhp;
    - the first component's `a` channel renamed: equivalent under none.
      For widths above the CLI's max_pomset the pomset check answers
      "equivalent" vacuously; that wrong answer is the known defect.
    """
    tag = _tagger(rng)
    while True:
        ops: list[Op] = []
        for n in CHOICE_WIDTHS:
            t = tag()
            lhs = " | ".join(_component(i, t) for i in range(n))
            twin = " | ".join(_component(i, t, swap=True) for i in range(n))
            ops += _check_ops(f"choice n={n} swapped", pitc.parse_term(lhs),
                              pitc.parse_term(twin), EMPTY_ENV, 3, _all(True))

            t = tag()
            lhs = " | ".join(_component(i, t) for i in range(n))
            rest = " | ".join(_component(i, t) for i in range(1, n))
            twin = f"(a0{t}!u{t}.0 | {rest}) + (b0{t}!v{t}.0 | {rest})"
            ops += _check_ops(f"choice n={n} distributed", pitc.parse_term(lhs),
                              pitc.parse_term(twin), EMPTY_ENV, 3,
                              {**_all(True), "hhp": False})

            t = tag()
            lhs = " | ".join(_component(i, t) for i in range(n))
            twin = " | ".join(_component(i, t, a="z" if i == 0 else "a")
                              for i in range(n))
            known = ({"pomset": KNOWN_POMSET_WIDE_STEP}
                     if n > CLI_MAX_POMSET else None)
            ops += _check_ops(f"choice n={n} renamed", pitc.parse_term(lhs),
                              pitc.parse_term(twin), EMPTY_ENV, 3, _all(False),
                              known)
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------------------
# Mobility scenarios
# --------------------------------------------------------------------------

RING_SIZES = (1, 2, 3, 4)
POOL_SIZES = (1, 2, 3)
HANDOVER_DEPTHS = (2, 3, 4, 5, 6)
#: hhp is checked only where the unfolding fits under the library's
#: 16-event hhp cap: rings up to 3 relays, pools up to 2 workers.
HHP_RING_MAX, HHP_POOL_MAX = 3, 2

HANDOVER = """# a client hands its private reply channel to the server
Server(s)     := s?(c).c!s.Server(s)
Client(s, me) := s!me.me?(x).0
SYS    = nu me. (Server({s}) | Client({s}, me))
SPEC   = tau.tau.(nu me. (Server({s}) | 0))
SHORT  = tau.(nu me. (Server({s}) | 0))
"""


def mobile(rng: random.Random,
           shapes: random.Random) -> Iterator[list[Op]]:
    """Each round, at depth 3: token rings and worker pools against their
    components in reverse order (equivalent) and against a twin whose
    first relay or worker sends on a wrong channel (equivalent under
    none); a worker and a sink on one job channel against the two
    swapped (equivalent); and the handover file against its
    specification (equivalent) and a spec one communication short
    (equivalent under none), at depths 2..6."""
    tag = _tagger(rng)
    while True:
        ops: list[Op] = []
        for n in RING_SIZES:
            rels = RELATIONS if n <= HHP_RING_MAX else RELATIONS[:3]
            for broken in (False, True):
                t = tag()
                comps = [f"c0{t}!tok{t}.0"] + [
                    f"c{i}{t}?(y).c{(i + 1) % n}{t}!y.0" for i in range(n)]
                twin = comps[::-1]
                if broken:
                    twin = [f"c0{t}?(y).d0{t}!y.0" if c == comps[1] else c
                            for c in comps]
                ops += _check_ops(
                    f"ring n={n} {'broken' if broken else 'reordered'}",
                    pitc.parse_term(" | ".join(comps)),
                    pitc.parse_term(" | ".join(twin)), EMPTY_ENV, 3,
                    _all(not broken, rels))
        for k in POOL_SIZES:
            rels = RELATIONS if k <= HHP_POOL_MAX else RELATIONS[:3]
            for broken in (False, True):
                t = tag()
                comps = [f"j{i}{t}?(x).x!r{i}{t}.0" for i in range(k)]
                twin = comps[::-1]
                if broken:
                    twin = [f"j0{t}?(x).o{t}!r0{t}.0"] + comps[1:]
                ops += _check_ops(
                    f"pool k={k} {'broken' if broken else 'reordered'}",
                    pitc.parse_term(" | ".join(comps)),
                    pitc.parse_term(" | ".join(twin)), EMPTY_ENV, 3,
                    _all(not broken, rels))
        # A worker and a sink competing for one job channel, against the
        # two in the other order: the smallest pair known to show the
        # concurrent-inputs defect.
        t = tag()
        worker, sink = f"j{t}?(x).x!r{t}.0", f"j{t}?(y).0"
        ops += _check_ops("pool competing receivers",
                          pitc.parse_term(f"{worker} | {sink}"),
                          pitc.parse_term(f"{sink} | {worker}"), EMPTY_ENV, 3,
                          _all(True), dict.fromkeys(("pomset", "hhp"),
                                                    KNOWN_CONCURRENT_INPUTS))
        for depth in HANDOVER_DEPTHS:
            for twin in ("SPEC", "SHORT"):
                src = pitc.parse_file(HANDOVER.replace("{s}", f"s{tag()}"))
                ops += _check_ops(f"handover depth={depth} {twin}",
                                  src.named["SYS"], src.named[twin],
                                  src.environment(), depth,
                                  _all(twin == "SPEC"))
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------------------
# The prover
# --------------------------------------------------------------------------

ENUM_BLOCKS = 8            # rounds per pass over the 8256 enumeration pairs
HNF_PER_ROUND = 16
EXPAND_PER_ROUND = 16


def enumeration(a: str, b: str) -> list[str]:
    """The 129 terms of the desk-scale completeness enumeration over two
    channels `a`, `b`: prefixes of depth at most two, and sums and
    parallel pairs of depth-one terms, one per alpha class."""
    def prefixes(cont: Process):
        yield TauPrefix(cont)
        for subj in (a, b):
            for obj in (a, b):
                yield OutputPrefix(subj, obj, cont)
            yield InputPrefix(subj, "z", cont)

    level1 = [NIL] + list(prefixes(NIL))
    terms = {}
    def add(t: Process) -> None:
        terms.setdefault(pitc.canonical(t), t)
    for t in level1:
        add(t)
        for p in prefixes(t):
            add(p)
    for s, t in combinations_with_replacement(level1, 2):
        add(Sum(s, t))
        add(Par(s, t))
    texts = [format_process(t) for t in terms]
    return sorted(texts, key=lambda s: (len(s), s))


def _expansion_term(rng: random.Random, names: list[str]) -> Process:
    """A parallel pair of sums of one to three prefixed summands over
    three channels, as in the expansion law's statement."""
    def summand() -> Process:
        channels = names[:3]
        cont = random_term(rng, 1, names[:4], restrict=False)
        roll = rng.random()
        if roll < 0.2:
            return TauPrefix(cont)
        if roll < 0.5:
            return OutputPrefix(rng.choice(channels), rng.choice(names[:4]),
                                cont)
        if roll < 0.8:
            return InputPrefix(rng.choice(channels), "v0", cont)
        return Restriction("u0", OutputPrefix(rng.choice(channels), "u0", cont))

    def sum_of_summands() -> Process:
        return pitc.syntax.sum_of([summand() for _ in range(rng.randrange(1, 4))])

    return Par(sum_of_summands(), sum_of_summands())


def prove(rng: random.Random,
          shapes: random.Random) -> Iterator[list[Op]]:
    """Each round: an eighth of the enumeration's 8256 pairs (channels
    renamed on every pass) under `prove_eq`, whose answer the
    step-bisimilarity oracle decides; one instance of every law as a
    provable pair; and `hnf` and `expand` on random terms."""
    tag = _tagger(rng)
    names = seed_names(rng)
    source = _LawSource(shapes, names)
    seen: set[Process] = set()

    def fresh_term(make) -> Process:
        for _ in range(10_000):
            p = pitc.parse_term(format_process(make()))
            c = pitc.canonical(p)
            if c not in seen:
                seen.add(c)
                return p
        raise RuntimeError("no new random term in 10000 draws")

    pairs: list[tuple[Process, Process]] = []
    while True:
        if not pairs:
            t = tag()
            terms = [pitc.parse_term(s) for s in enumeration(f"a{t}", f"b{t}")]
            pairs = [(f"enumeration pair {i}-{j}", p, q)
                     for i, p in enumerate(terms)
                     for j, q in enumerate(terms) if i < j]
            shapes.shuffle(pairs)
            block = math.ceil(len(pairs) / ENUM_BLOCKS)
        ops = [Op("prove", label, p, q) for label, p, q in pairs[:block]]
        del pairs[:block]
        for law in LAWS:
            lhs, rhs, env = source.next(law)
            ops.append(Op("prove", f"law {law}", lhs, rhs, env, expected=True))
        ops += [Op("hnf", "hnf", fresh_term(lambda: random_term(shapes, 3, names)))
                for _ in range(HNF_PER_ROUND)]
        ops += [Op("expand", "expand", fresh_term(lambda: _expansion_term(shapes, names)))
                for _ in range(EXPAND_PER_ROUND)]
        rng.shuffle(ops)
        yield ops


STREAMS = {"laws": laws, "choice": choice, "mobile": mobile, "prove": prove}
