"""One-step (multi-action) transition semantics.

The transition relation is computed on *annotated* terms, `ATerm`: a
hash-consed `Process` plus, for each of its prefixes and calls in
preorder, the set of events that fired strictly above it and its
occurrence id, so the unfolding module can recover causality.  The
annotations are two flat tuples beside the term: a subterm's positions
are one slice of them, substitution keeps them as they are, and the
plain term is the field `term`.  The residuals `raw_steps` builds are
therefore ordinary process nodes, held by the process-wide node table.

Step discipline: a parallel component may idle only when it has no
transition at all, so components that can act must act together, either
side by side or by communicating.  Communication merges exactly one
output with one complementary input into a silent action; a step is never
allowed to keep a complementary pair side by side.  Simultaneous inputs
may share one placeholder, which is how joint reception of a single name
is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence,
)

from .errors import UnguardedRecursion
from .syntax import (
    EMPTY_ENV, TAU, Action, BoundOutput, Call, Environment, FreeOutput,
    Input, InputPrefix, Name, Nil, OutputPrefix, Par, Process, Restriction,
    Sum, TauPrefix, Tau, action_names, all_names, canonical, free_names,
    fresh_name, fresh_names, positions, rename_action, shared_names,
    substitute,
)

DEFAULT_GUARD_DEPTH = 64

EventRef = int  # >= 0 resolved by the unfolder, < 0 provisional within one derivation


# --------------------------------------------------------------------------
# Annotated terms
# --------------------------------------------------------------------------

class ATerm(NamedTuple):
    """A process whose i-th prefix or call in preorder has the guard
    `guards[i]`, the events that fired above it, and the occurrence id
    `uids[i]`."""

    term: Process
    guards: tuple[frozenset[EventRef], ...]
    uids: tuple[int, ...]


class Alloc:
    """Deterministic counters for occurrence ids, provisional events, tokens."""

    def __init__(self) -> None:
        self._uid = 0
        self._ev = 0
        self._tok = 0

    def uids(self, count: int) -> tuple[int, ...]:
        start = self._uid
        self._uid += count
        return tuple(range(start + 1, self._uid + 1))

    def ev(self) -> EventRef:
        self._ev += 1
        return -self._ev

    def tok(self) -> Name:
        self._tok += 1
        return f"~t{self._tok}"


def annotate(p: Process, alloc: Alloc,
             guards: frozenset[EventRef] = frozenset()) -> ATerm:
    """`p` with fresh occurrence ids, every position guarded by `guards`."""
    count = positions(p)
    return ATerm(p, (guards,) * count, alloc.uids(count))


def asubst(ap: ATerm, sub: Mapping[Name, Name]) -> ATerm:
    """Capture-avoiding substitution on an annotated term.  Substitution
    keeps the shape of the term, so the annotations stay as they are."""
    if not sub:
        return ap
    term = substitute(ap.term, sub)
    return ap if term is ap.term else ATerm(term, ap.guards, ap.uids)


def relabel(ap: ATerm, sub: Mapping[EventRef, EventRef]) -> ATerm:
    """`ap` with the events of its guards renamed by `sub`."""
    if not sub:
        return ap
    return ATerm(ap.term, tuple([frozenset([sub.get(e, e) for e in g])
                                 for g in ap.guards]), ap.uids)


def _split(ap: ATerm) -> tuple[ATerm, ATerm]:
    """The two operands of a sum or parallel annotated term."""
    p = ap.term
    n = positions(p.left)
    return (ATerm(p.left, ap.guards[:n], ap.uids[:n]),
            ATerm(p.right, ap.guards[n:], ap.uids[n:]))


def _par(x: ATerm, y: ATerm) -> ATerm:
    return ATerm(Par(x.term, y.term), x.guards + y.guards, x.uids + y.uids)


# --------------------------------------------------------------------------
# Raw step derivation
# --------------------------------------------------------------------------

class Fire(NamedTuple):
    """One action occurrence inside a step."""

    action: Action
    uids: frozenset[int]
    causes: frozenset[EventRef]
    ev: EventRef
    tok: Optional[Name]


RawTransition = tuple[tuple[Fire, ...], ATerm]


def communicating(a: Action, b: Action) -> bool:
    """True when `a` and `b` are an output/input pair on the same subject."""
    if isinstance(a, (FreeOutput, BoundOutput)) and isinstance(b, Input):
        return a.subject == b.subject
    if isinstance(b, (FreeOutput, BoundOutput)) and isinstance(a, Input):
        return b.subject == a.subject
    return False


def raw_steps(ap: ATerm, env: Environment, alloc: Alloc,
              fuel: int = DEFAULT_GUARD_DEPTH) -> list[RawTransition]:
    p = ap.term
    if isinstance(p, Nil):
        return []
    if isinstance(p, (TauPrefix, OutputPrefix, InputPrefix)):
        ev = alloc.ev()
        tok = None
        # The continuation's positions all fired below this prefix.
        target = ATerm(p.cont, tuple([g | {ev} for g in ap.guards[1:]]),
                       ap.uids[1:])
        if isinstance(p, TauPrefix):
            action: Action = TAU
        elif isinstance(p, OutputPrefix):
            action = FreeOutput(p.subject, p.object)
        else:
            tok = alloc.tok()
            action = Input(p.subject, tok)
            target = asubst(target, {p.binder: tok})
        fire = Fire(action, frozenset(ap.uids[:1]), ap.guards[0], ev, tok)
        return [((fire,), target)]
    if isinstance(p, Call):
        if fuel <= 0:
            raise UnguardedRecursion(
                f"unfolding {p.ident} exceeded the guard depth without "
                "reaching a prefix")
        return raw_steps(annotate(env.instantiate(p), alloc, ap.guards[0]),
                         env, alloc, fuel - 1)
    if isinstance(p, Sum):
        left, right = _split(ap)
        return (raw_steps(left, env, alloc, fuel)
                + raw_steps(right, env, alloc, fuel))
    if isinstance(p, Restriction):
        out: list[RawTransition] = []
        for fires, target in raw_steps(ATerm(p.body, ap.guards, ap.uids),
                                       env, alloc, fuel):
            if all(p.binder not in action_names(f.action) for f in fires):
                out.append((fires, ATerm(Restriction(p.binder, target.term),
                                         target.guards, target.uids)))
                continue
            if all(isinstance(f.action, FreeOutput)
                   and f.action.object == p.binder
                   and f.action.subject != p.binder for f in fires):
                tok = alloc.tok()
                opened = tuple(
                    f._replace(action=BoundOutput(f.action.subject, tok), tok=tok)
                    for f in fires)
                out.append((opened, asubst(target, {p.binder: tok})))
            # otherwise the restricted name escapes: the step is blocked
        return out
    if isinstance(p, Par):
        lap, rap = _split(ap)
        left = raw_steps(lap, env, alloc, fuel)
        right = raw_steps(rap, env, alloc, fuel)
        if not left and not right:
            return []
        if not right:
            return [(fires, _par(t, rap)) for fires, t in left]
        if not left:
            return [(fires, _par(lap, t)) for fires, t in right]
        out = []
        for xf, xt in left:
            for yf, yt in right:
                out.extend(_join(xf, xt, yf, yt))
        return out
    raise TypeError(f"not a process: {p!r}")


def _matchings(cands: Sequence[tuple], k: int = 0,
               used_x: frozenset = frozenset(), used_y: frozenset = frozenset(),
               acc: tuple = ()) -> Iterator[tuple]:
    """All partial matchings over the candidate pairs from `k` on, empty
    included, each a tuple in candidate order."""
    if k == len(cands):
        yield acc
        return
    x, y = cands[k]
    yield from _matchings(cands, k + 1, used_x, used_y, acc)
    if x not in used_x and y not in used_y:
        yield from _matchings(cands, k + 1, used_x | {x}, used_y | {y},
                              acc + ((x, y),))


@dataclass(frozen=True, slots=True)
class JoinPlan:
    """One way to combine a left step with a right step.

    `merges` are output/input pairs fused into silent actions, `rest_x`
    and `rest_y` the surviving action positions, `sharing` the unified
    input placeholder classes (left token, right token).
    """

    merges: tuple[tuple[int, int], ...]
    rest_x: tuple[int, ...]
    rest_y: tuple[int, ...]
    sharing: tuple[tuple[Name, Name], ...]

    def substitutions(self, ax: Sequence[Action], ay: Sequence[Action]
                      ) -> tuple[dict[Name, Name], dict[Name, Name], list[Name]]:
        """Receiver substitutions for the left and right residuals, and
        the extruded names to restrict around the joined residual."""
        sub_x: dict[Name, Name] = {}
        sub_y: dict[Name, Name] = {ty: tx for tx, ty in self.sharing}
        wraps: list[Name] = []
        for i, j in self.merges:
            if isinstance(ax[i], (FreeOutput, BoundOutput)):
                snd, rcv, rcv_sub = ax[i], ay[j], sub_y
            else:
                snd, rcv, rcv_sub = ay[j], ax[i], sub_x
            if isinstance(snd, FreeOutput):
                rcv_sub[rcv.placeholder] = snd.object
            else:
                rcv_sub[rcv.placeholder] = snd.placeholder
                wraps.append(snd.placeholder)
        return sub_x, sub_y, wraps


def join_plans(ax: Sequence[Action], tx: Sequence[Optional[Name]],
               ay: Sequence[Action], ty: Sequence[Optional[Name]]
               ) -> list[JoinPlan]:
    """Every admissible combination of two component steps.

    A communication merge requires its two actions to hold unshared
    placeholders; whatever is left on the two sides may not contain a
    complementary pair.  Surviving input classes may be pairwise unified.
    """

    def unshared(toks: Sequence[Optional[Name]], i: int) -> bool:
        t = toks[i]
        return t is None or sum(1 for s in toks if s == t) == 1

    cands = [
        (i, j)
        for i in range(len(ax))
        for j in range(len(ay))
        if communicating(ax[i], ay[j]) and unshared(tx, i) and unshared(ty, j)
    ]
    plans: list[JoinPlan] = []
    for m in _matchings(cands):
        used_x = {i for i, _ in m}
        used_y = {j for _, j in m}
        rest_x = tuple(i for i in range(len(ax)) if i not in used_x)
        rest_y = tuple(j for j in range(len(ay)) if j not in used_y)
        if any(communicating(ax[i], ay[j]) for i in rest_x for j in rest_y):
            continue
        xcls = _input_class_toks(ax, tx, rest_x)
        ycls = _input_class_toks(ay, ty, rest_y)
        # A candidate is skipped before it is taken, so each x lists its
        # partners in reverse to be paired with them in list order.
        pairs = [(x, y) for x in xcls for y in reversed(ycls)]
        for sharing in _matchings(pairs):
            plans.append(JoinPlan(m, rest_x, rest_y, sharing))
    return plans


def _input_class_toks(acts: Sequence[Action], toks: Sequence[Optional[Name]],
                      rest: Sequence[int]) -> list[Name]:
    seen: list[Name] = []
    for i in rest:
        if isinstance(acts[i], Input) and toks[i] is not None \
                and toks[i] not in seen:
            seen.append(toks[i])
    return seen


def _join(xf: tuple[Fire, ...], xt: ATerm, yf: tuple[Fire, ...],
          yt: ATerm) -> list[RawTransition]:
    ax = [f.action for f in xf]
    ay = [g.action for g in yf]
    return [_assemble(xf, xt, yf, yt, plan, *plan.substitutions(ax, ay))
            for plan in join_plans(ax, [f.tok for f in xf],
                                   ay, [g.tok for g in yf])]


def _assemble(xf: tuple[Fire, ...], xt: ATerm, yf: tuple[Fire, ...], yt: ATerm,
              plan: JoinPlan, sub_x: dict[Name, Name], sub_y: dict[Name, Name],
              wraps: list[Name]) -> RawTransition:
    ev_x: dict[EventRef, EventRef] = {}
    ev_y: dict[EventRef, EventRef] = {}
    taus: list[Fire] = []
    for i, j in plan.merges:
        f, g = xf[i], yf[j]
        if isinstance(f.action, (FreeOutput, BoundOutput)):
            snd, rcv, rcv_ev = f, g, ev_y
        else:
            snd, rcv, rcv_ev = g, f, ev_x
        rcv_ev[rcv.ev] = snd.ev
        taus.append(Fire(TAU, snd.uids | rcv.uids, snd.causes | rcv.causes,
                         snd.ev, None))
    lt = relabel(asubst(xt, sub_x), ev_x)
    rt = relabel(asubst(yt, sub_y), ev_y)
    combined = _par(lt, rt)
    for w in wraps:
        combined = ATerm(Restriction(w, combined.term), combined.guards,
                         combined.uids)
    fires: list[Fire] = []
    for i in plan.rest_x:
        f = xf[i]
        fires.append(f._replace(action=rename_action(f.action, sub_x))
                     if sub_x else f)
    for j in plan.rest_y:
        g = yf[j]
        if sub_y:
            tok = sub_y.get(g.tok, g.tok) if g.tok is not None else None
            fires.append(g._replace(action=rename_action(g.action, sub_y), tok=tok))
        else:
            fires.append(g)
    fires.extend(taus)
    return tuple(fires), combined


# --------------------------------------------------------------------------
# Canonical labels
# --------------------------------------------------------------------------

def abstract_action(a: Action) -> tuple:
    """An action's class and free names, its placeholder abstracted away."""
    if isinstance(a, Tau):
        return (0, "", "")
    if isinstance(a, FreeOutput):
        return (1, a.subject, a.object)
    if isinstance(a, Input):
        return (2, a.subject, "")
    return (3, a.subject, "")


def _placeholder(a: Action) -> Optional[Name]:
    if isinstance(a, (Input, BoundOutput)):
        return a.placeholder
    return None


def canonical_order(actions: Sequence[Action]) -> tuple[tuple, tuple[int, ...]]:
    """Order a step's actions canonically, abstracting placeholder identity.

    Returns `(key, order)` where `key` is a hashable normal form of the
    multiset (placeholders replaced by sharing-aware indices) and `order`
    lists the input positions in canonical sequence.
    """
    keys = [abstract_action(a) for a in actions]
    indexed = sorted(range(len(actions)), key=keys.__getitem__)
    groups: list[list[int]] = []
    for i in indexed:
        if groups and keys[groups[-1][0]] == keys[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    best: Optional[tuple[tuple, tuple[int, ...]]] = None
    # Only tie groups holding placeholders can affect the normal form.
    choices = [permutations(g) if any(_placeholder(actions[i]) for i in g)
               else (tuple(g),) for g in groups]
    for perm in product(*choices):
        order = tuple(i for g in perm for i in g)
        tokidx: dict[Name, int] = {}
        rendered = []
        for i in order:
            a = actions[i]
            ph = _placeholder(a)
            slot = -1
            if ph is not None:
                if ph not in tokidx:
                    tokidx[ph] = len(tokidx)
                slot = tokidx[ph]
            rendered.append(keys[i] + (slot,))
        cand = (tuple(rendered), order)
        if best is None or cand[0] < best[0]:
            best = cand
    assert best is not None
    return best


def label_key(label: Sequence[Action]) -> tuple:
    """Normal form of a step label, stable under placeholder renaming."""
    return canonical_order(label)[0]


def label_alpha_eq(l1: Sequence[Action], l2: Sequence[Action]) -> bool:
    """Multiset equality up to a bijective renaming of bound placeholders."""
    return label_key(l1) == label_key(l2)


def label_free_names(label: Sequence[Action]) -> frozenset[Name]:
    out: set[Name] = set()
    bound = {_placeholder(a) for a in label if _placeholder(a) is not None}
    for a in label:
        if isinstance(a, FreeOutput):
            out.add(a.subject)
            if a.object not in bound:
                out.add(a.object)
        elif isinstance(a, (Input, BoundOutput)):
            out.add(a.subject)
    return frozenset(out)


def label_bound_names(label: Sequence[Action]) -> frozenset[Name]:
    return frozenset(ph for a in label
                     if (ph := _placeholder(a)) is not None)


def label_classes(label: Sequence[Action]) -> list[tuple[Name, str]]:
    """Distinct bound placeholders in first-occurrence order, with kind."""
    seen: dict[Name, str] = {}
    for a in label:
        if isinstance(a, Input):
            seen.setdefault(a.placeholder, "in")
        elif isinstance(a, BoundOutput):
            seen.setdefault(a.placeholder, "bout")
    return list(seen.items())


def _rendered_label(label: Sequence[Action], sub: dict[Name, Name]) -> tuple:
    return tuple(sorted(str(rename_action(a, sub)) for a in label))


def class_bijections(l1: Sequence[Action],
                     l2: Sequence[Action]) -> Iterator[dict[Name, Name]]:
    """Placeholder-class pairings under which the two labels coincide."""
    c1 = label_classes(l1)
    c2 = label_classes(l2)
    if len(c1) != len(c2):
        return
    markers = [f"~m{i}" for i in range(len(c1))]
    want = _rendered_label(l1, {n: m for (n, _), m in zip(c1, markers)})
    for perm in permutations(c2):
        if any(k1 != k2 for (_, k1), (_, k2) in zip(c1, perm)):
            continue
        if _rendered_label(l2, {n: m for (n, _), m in zip(perm, markers)}) == want:
            yield {n1: n2 for (n1, _), (n2, _) in zip(c1, perm)}


def instance_names(p: Process, q: Process,
                   env: Environment = EMPTY_ENV) -> list[Name]:
    """Names a received placeholder is instantiated with when `p` and `q`
    are compared late: their free names plus one fresh name."""
    base = sorted(free_names(p) | free_names(q))
    fresh = fresh_name(all_names(p) | all_names(q) | env.names(), prefix="v")
    return base + [fresh]


@dataclass(slots=True)
class LateInstances:
    """Two residuals whose common input names are instantiated with every
    assignment of test names; iterating yields the instantiated pairs,
    lazily and as often as asked."""

    left: object
    right: object
    inputs: tuple[Name, ...]
    names: Sequence[Name]
    subst: Callable

    def __iter__(self) -> Iterator[tuple]:
        for values in product(self.names, repeat=len(self.inputs)):
            inst = dict(zip(self.inputs, values))
            yield self.subst(self.left, inst), self.subst(self.right, inst)


def late_instances(label: Sequence[Action],
                   pairings: Iterable[Mapping[Name, Name]], left, right,
                   avoid: Iterable[Name],
                   names: Sequence[Name] | Callable[..., Sequence[Name]],
                   subst: Callable
                   ) -> Iterator[tuple[dict, dict, LateInstances]]:
    """Late matching of two residuals, one pairing of placeholder classes
    at a time.

    Each pairing sends the placeholders of `label` (the left step's) to
    those of the right step.  Paired classes are renamed to common names
    fresh for `avoid`, with `subst` on each residual; the pairs to relate
    are then the two renamed residuals under every instantiation of the
    common input names with the test `names`, given as a sequence or as
    a function of the two renamed residuals.  Yields `(sub_left,
    sub_right, pairs)` per pairing, in the pairings' order.
    """
    classes = label_classes(label)
    commons = fresh_names(avoid, len(classes))
    inputs = tuple(c for (_, k), c in zip(classes, commons) if k == "in")
    for beta in pairings:
        sub1 = {n: c for (n, _), c in zip(classes, commons)}
        sub2 = {beta[n]: c for (n, _), c in zip(classes, commons)}
        left2, right2 = subst(left, sub1), subst(right, sub2)
        tests = names(left2, right2) if callable(names) else names
        yield sub1, sub2, LateInstances(left2, right2, inputs, tests, subst)


def format_label(label: Sequence[Action]) -> str:
    return "{" + ", ".join(str(a) for a in label) + "}"


# --------------------------------------------------------------------------
# Public transitions
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Transition:
    source: Process
    label: tuple[Action, ...]
    target: Process

    def __str__(self) -> str:
        from .parser import format_process
        return f"{format_label(self.label)} -> {format_process(self.target)}"


_TRANS_CACHE: dict[tuple, tuple[Transition, ...]] = {}


def clear_caches() -> None:
    _TRANS_CACHE.clear()


def transitions(p: Process, env: Environment = EMPTY_ENV, *,
                avoid: Iterable[Name] = ()) -> tuple[Transition, ...]:
    """All derivable steps of `p`, one canonical representative per alpha
    class of labels.  Placeholders are drawn from the deterministic fresh
    sequence, avoiding every name of `p`, of the environment, and of
    `avoid`."""
    base_avoid = shared_names(all_names(p) | env.names() | frozenset(avoid))
    key = (p, env.key, base_avoid)
    hit = _TRANS_CACHE.get(key)
    if hit is not None:
        return hit
    alloc = Alloc()
    ap = annotate(p, alloc)
    raws = raw_steps(ap, env, alloc)
    seen: dict[tuple, Transition] = {}
    for fires, target in raws:
        ofires, atarget = finalize(fires, target, base_avoid)
        label = tuple(f.action for f in ofires)
        plain = atarget.term
        k = (label, canonical(plain))
        if k not in seen:
            seen[k] = Transition(p, label, plain)
    result = tuple(sorted(seen.values(),
                          key=lambda t: (label_key(t.label),
                                         str(canonical(t.target)))))
    _TRANS_CACHE[key] = result
    return result


def finalize(fires: tuple[Fire, ...], target: ATerm,
             base_avoid: frozenset[Name]) -> tuple[tuple[Fire, ...], ATerm]:
    """Put a raw derivation's fires in canonical order and turn its tokens,
    first the fires' in that order and then the target's in preorder, into
    fresh names avoiding `base_avoid`."""
    _, order = canonical_order([f.action for f in fires])
    picked = [fires[i] for i in order]
    tokmap: dict[Name, Name] = {}
    taken = set(base_avoid)
    for f in picked:
        if f.tok is not None:
            _final_name(f.tok, tokmap, taken)
    term = _final_names(target.term, tokmap, taken)
    ordered = tuple([Fire(rename_action(f.action, tokmap), f.uids, f.causes,
                          f.ev, tokmap.get(f.tok)) for f in picked])
    return ordered, ATerm(term, target.guards, target.uids)


def _final_name(n: Name, tokmap: dict[Name, Name], taken: set[Name]) -> Name:
    """The final name of `n`: a token met for the first time takes the
    next fresh name; any other name stays."""
    if not n.startswith("~"):
        return n
    w = tokmap.get(n)
    if w is None:
        w = tokmap[n] = fresh_name(taken)
        taken.add(w)
    return w


def _final_names(p: Process, tokmap: dict[Name, Name],
                 taken: set[Name]) -> Process:
    """`p` with every token renamed by `_final_name` in preorder, binders
    included.  Renaming a binder is safe here: the new names are fresh
    and the map is injective."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, TauPrefix):
        return TauPrefix(_final_names(p.cont, tokmap, taken))
    if isinstance(p, OutputPrefix):
        return OutputPrefix(_final_name(p.subject, tokmap, taken),
                            _final_name(p.object, tokmap, taken),
                            _final_names(p.cont, tokmap, taken))
    if isinstance(p, InputPrefix):
        return InputPrefix(_final_name(p.subject, tokmap, taken),
                           _final_name(p.binder, tokmap, taken),
                           _final_names(p.cont, tokmap, taken))
    if isinstance(p, Restriction):
        return Restriction(_final_name(p.binder, tokmap, taken),
                           _final_names(p.body, tokmap, taken))
    if isinstance(p, (Sum, Par)):
        return type(p)(_final_names(p.left, tokmap, taken),
                       _final_names(p.right, tokmap, taken))
    return Call(p.ident, tuple([_final_name(a, tokmap, taken) for a in p.args]))


def transition_json(t: Transition) -> dict:
    from .parser import format_process
    return {
        "source": format_process(t.source),
        "label": [str(a) for a in t.label],
        "target": format_process(t.target),
    }
