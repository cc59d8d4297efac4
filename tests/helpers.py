"""Shared builders and seeded random term generators for the test suite."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from pitc import (
    NIL, BoundOutput, Call, Definition, Environment, FreeOutput, InputPrefix,
    OutputPrefix, Par, Process, Restriction, Sum, TauPrefix, Transition,
    canonical, free_names, fresh_name, substitute, transitions,
)
from pitc.semantics import label_key
from pitc.syntax import EMPTY_ENV, Name, all_names

NAME_POOL = ["a", "b", "c", "d", "x", "y", "z", "u"]


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_process(rng: random.Random, depth: int = 2, *,
                   names: Optional[list[str]] = None,
                   allow_restriction: bool = True,
                   allow_input: bool = True,
                   par_width: int = 2) -> Process:
    """Recursion-free random term, prefix-heavy, with small fan-out."""
    pool = names or NAME_POOL
    if depth <= 0:
        return NIL
    roll = rng.random()
    if roll < 0.10:
        return NIL
    if roll < 0.62:
        kind = rng.random()
        cont = random_process(rng, depth - 1, names=pool,
                              allow_restriction=allow_restriction,
                              allow_input=allow_input, par_width=par_width)
        if kind < 0.25:
            return TauPrefix(cont)
        if kind < 0.70 or not allow_input:
            return OutputPrefix(rng.choice(pool), rng.choice(pool), cont)
        return InputPrefix(rng.choice(pool), rng.choice(pool), cont)
    if roll < 0.78:
        return Sum(random_process(rng, depth - 1, names=pool,
                                  allow_restriction=allow_restriction,
                                  allow_input=allow_input, par_width=par_width),
                   random_process(rng, depth - 1, names=pool,
                                  allow_restriction=allow_restriction,
                                  allow_input=allow_input, par_width=par_width))
    if roll < 0.92 and par_width > 1:
        return Par(random_process(rng, depth - 1, names=pool,
                                  allow_restriction=allow_restriction,
                                  allow_input=allow_input,
                                  par_width=par_width - 1),
                   random_process(rng, depth - 1, names=pool,
                                  allow_restriction=allow_restriction,
                                  allow_input=allow_input,
                                  par_width=par_width - 1))
    if allow_restriction:
        return Restriction(rng.choice(pool),
                           random_process(rng, depth - 1, names=pool,
                                          allow_restriction=allow_restriction,
                                          allow_input=allow_input,
                                          par_width=par_width))
    return TauPrefix(random_process(rng, depth - 1, names=pool,
                                    allow_restriction=allow_restriction,
                                    allow_input=allow_input,
                                    par_width=par_width))


def alpha_variant(p: Process, rng: random.Random) -> Process:
    """Alpha-equivalent copy with binders randomly renamed."""
    avoid = set(all_names(p))

    def go(t: Process) -> Process:
        if isinstance(t, TauPrefix):
            return TauPrefix(go(t.cont))
        if isinstance(t, OutputPrefix):
            return OutputPrefix(t.subject, t.object, go(t.cont))
        if isinstance(t, InputPrefix):
            cont = t.cont
            binder = t.binder
            if rng.random() < 0.7:
                nb = fresh_name(avoid, prefix=rng.choice(["r", "s", "q"]))
                avoid.add(nb)
                cont = substitute(cont, {binder: nb})
                binder = nb
            return InputPrefix(t.subject, binder, go(cont))
        if isinstance(t, Restriction):
            body = t.body
            binder = t.binder
            if rng.random() < 0.7:
                nb = fresh_name(avoid, prefix=rng.choice(["r", "s", "q"]))
                avoid.add(nb)
                body = substitute(body, {binder: nb})
                binder = nb
            return Restriction(binder, go(body))
        if isinstance(t, Sum):
            return Sum(go(t.left), go(t.right))
        if isinstance(t, Par):
            return Par(go(t.left), go(t.right))
        return t

    return go(p)


def injective_renaming(p: Process, rng: random.Random) -> dict[str, str]:
    """A bijective renaming of the free names of `p` into fresh targets."""
    targets = ["m", "n", "o", "k", "l", "g", "h", "e"]
    rng.shuffle(targets)
    return {name: tgt for name, tgt in zip(sorted(free_names(p)), targets)}


def random_definition(rng: random.Random, ident: str = "A") -> Definition:
    params = ("p1", "p2")
    body = random_process(rng, 2, names=list(params), allow_restriction=False)
    return Definition(ident, params, body)


def assoc_component(rng: random.Random, channels: list[str],
                    depth: int = 2, input_budget: int = 1) -> Process:
    """Component for associativity instances.

    Subjects stay within `channels` and input binders are never reused as
    subjects, so components over disjoint channel sets can never
    communicate, not even after instantiation: bracket-crossing
    communication choices break associativity under forced merging.
    Inputs are rationed because concurrent inputs multiply the unfolding
    by their placeholder-sharing variants.
    """
    if depth <= 0:
        return NIL
    roll = rng.random()
    objects = channels + ["m1", "m2"]
    if roll < 0.15:
        return NIL
    if roll < 0.70:
        kind = rng.random()
        if kind >= 0.75 and input_budget > 0:
            return InputPrefix(rng.choice(channels), "i0",
                               assoc_component(rng, channels, depth - 1, 0))
        cont = assoc_component(rng, channels, depth - 1, input_budget)
        if kind < 0.3:
            return TauPrefix(cont)
        return OutputPrefix(rng.choice(channels), rng.choice(objects), cont)
    return Sum(assoc_component(rng, channels, depth - 1, input_budget),
               assoc_component(rng, channels, depth - 1, input_budget))


def law_instances(rng: random.Random, law: str,
                  size: int = 2) -> tuple[Process, Process, Environment]:
    """One randomized instance (lhs, rhs, env) of a named algebraic law."""
    from pitc.syntax import EMPTY_ENV

    def gen(depth: int = size) -> Process:
        return random_process(rng, depth)

    env = EMPTY_ENV
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
        y = fresh_name(free_names(p), prefix="f")
        lhs, rhs = Restriction(y, p), p
    elif law == "R1":
        p = gen()
        x, y = rng.sample(NAME_POOL, 2)
        lhs, rhs = Restriction(x, Restriction(y, p)), \
            Restriction(y, Restriction(x, p))
    elif law == "R2":
        p, q = gen(), gen()
        x = rng.choice(NAME_POOL)
        lhs = Restriction(x, Sum(p, q))
        rhs = Sum(Restriction(x, p), Restriction(x, q))
    elif law == "R3":
        p = gen(max(size - 1, 1))
        x = rng.choice(NAME_POOL)
        others = [n for n in NAME_POOL if n != x]
        a, b = rng.choice(others), rng.choice(others)
        prefix = (TauPrefix if rng.random() < 0.3
                  else lambda c: OutputPrefix(a, b, c))
        lhs = Restriction(x, prefix(p))
        rhs = prefix(Restriction(x, p))
    elif law == "R4":
        p = gen(max(size - 1, 1))
        x = rng.choice(NAME_POOL)
        obj = rng.choice(NAME_POOL)
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
        y = fresh_name(free_names(p) | free_names(q), prefix="f")
        lhs = Par(Restriction(y, p), q)
        rhs = Restriction(y, Par(p, q))
    elif law == "P4":
        # Components live on disjoint channels: an input able to merge with
        # outputs in different brackets makes the two groupings differ.
        p = assoc_component(rng, ["a", "b"])
        q = assoc_component(rng, ["c", "d"])
        r = assoc_component(rng, ["e", "g"], input_budget=0)
        lhs, rhs = Par(Par(p, q), r), Par(p, Par(q, r))
    elif law == "P5":
        p, q = gen(), gen()
        y = fresh_name(free_names(p) | free_names(q), prefix="f")
        lhs = Restriction(y, Par(p, q))
        rhs = Par(Restriction(y, p), Restriction(y, q))
    elif law == "IDENT":
        d = random_definition(rng)
        env = Environment([d])
        args = tuple(rng.choice(NAME_POOL) for _ in d.params)
        lhs = Call(d.ident, args)
        rhs = substitute(d.body, dict(zip(d.params, args)))
    else:
        raise ValueError(law)
    return lhs, rhs, env


ALL_LAWS = ("S0", "S1", "S2", "S3", "R0", "R1", "R2", "R3", "R4",
            "P1", "P2", "P3", "P4", "P5", "IDENT")


def open_transition_targets(p: Restriction, env: Environment = EMPTY_ENV, *,
                            avoid: Iterable[Name] = ()
                            ) -> tuple[Transition, ...]:
    """Scope-extruding transitions of a restriction, derived directly.

    For each transition of the body whose actions all output the
    restricted name on other subjects, emits the bound-output step with
    one canonical fresh placeholder: an oracle for the extrusion rule,
    which `transitions` subsumes.
    """
    base_avoid = frozenset(all_names(p) | env.names() | set(avoid))
    out = []
    for t in transitions(p.body, env, avoid=base_avoid):
        if t.label and all(isinstance(a, FreeOutput)
                           and a.object == p.binder
                           and a.subject != p.binder for a in t.label):
            w = fresh_name(base_avoid)
            label = tuple(BoundOutput(a.subject, w) for a in t.label)
            out.append(Transition(p, label,
                                  substitute(t.target, {p.binder: w})))
    return tuple(sorted(out, key=lambda t: (label_key(t.label),
                                            str(canonical(t.target)))))
