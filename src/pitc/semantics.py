"""One-step (multi-action) transition semantics.

The transition relation is computed on *annotated* terms: every prefix
carries the set of events that fired strictly above it, so the unfolding
module can recover causality.  Plain `transitions` erases the annotations.
Annotated terms take substitution and name sets from their erasure:
`asubst` substitutes with `syntax.substitute` and puts the annotations
back, so only `syntax` renames binders.

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
    EMPTY_ENV, NIL, TAU, Action, BoundOutput, Call, Environment, FreeOutput,
    Input, InputPrefix, Name, Nil, OutputPrefix, Par, Process, Restriction,
    Sum, TauPrefix, Tau, action_names, all_names, canonical, free_names,
    fresh_name, fresh_names, rename_action, shared_names, substitute,
)

DEFAULT_GUARD_DEPTH = 64

EventRef = int  # >= 0 resolved by the unfolder, < 0 provisional within one derivation


# --------------------------------------------------------------------------
# Annotated terms
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ANil:
    pass


@dataclass(frozen=True, slots=True)
class ATau:
    guards: frozenset[EventRef]
    uid: int
    cont: "ATerm"


@dataclass(frozen=True, slots=True)
class AOut:
    guards: frozenset[EventRef]
    uid: int
    subject: Name
    object: Name
    cont: "ATerm"


@dataclass(frozen=True, slots=True)
class AIn:
    guards: frozenset[EventRef]
    uid: int
    subject: Name
    binder: Name
    cont: "ATerm"


@dataclass(frozen=True, slots=True)
class ARes:
    binder: Name
    body: "ATerm"


@dataclass(frozen=True, slots=True)
class ASum:
    left: "ATerm"
    right: "ATerm"


@dataclass(frozen=True, slots=True)
class APar:
    left: "ATerm"
    right: "ATerm"


@dataclass(frozen=True, slots=True)
class ACall:
    guards: frozenset[EventRef]
    uid: int
    ident: Name
    args: tuple[Name, ...]


ATerm = ANil | ATau | AOut | AIn | ARes | ASum | APar | ACall

A_NIL = ANil()


class Alloc:
    """Deterministic counters for occurrence ids, provisional events, tokens."""

    def __init__(self) -> None:
        self._uid = 0
        self._ev = 0
        self._tok = 0

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def ev(self) -> EventRef:
        self._ev += 1
        return -self._ev

    def tok(self) -> Name:
        self._tok += 1
        return f"~t{self._tok}"


def annotate(p: Process, alloc: Alloc,
             guards: frozenset[EventRef] = frozenset()) -> ATerm:
    if isinstance(p, Nil):
        return A_NIL
    if isinstance(p, TauPrefix):
        return ATau(guards, alloc.uid(), annotate(p.cont, alloc, guards))
    if isinstance(p, OutputPrefix):
        return AOut(guards, alloc.uid(), p.subject, p.object,
                    annotate(p.cont, alloc, guards))
    if isinstance(p, InputPrefix):
        return AIn(guards, alloc.uid(), p.subject, p.binder,
                   annotate(p.cont, alloc, guards))
    if isinstance(p, Restriction):
        return ARes(p.binder, annotate(p.body, alloc, guards))
    if isinstance(p, Sum):
        return ASum(annotate(p.left, alloc, guards), annotate(p.right, alloc, guards))
    if isinstance(p, Par):
        return APar(annotate(p.left, alloc, guards), annotate(p.right, alloc, guards))
    if isinstance(p, Call):
        return ACall(guards, alloc.uid(), p.ident, p.args)
    raise TypeError(f"not a process: {p!r}")


def erase(ap: ATerm) -> Process:
    if isinstance(ap, ANil):
        return NIL
    if isinstance(ap, ATau):
        return TauPrefix(erase(ap.cont))
    if isinstance(ap, AOut):
        return OutputPrefix(ap.subject, ap.object, erase(ap.cont))
    if isinstance(ap, AIn):
        return InputPrefix(ap.subject, ap.binder, erase(ap.cont))
    if isinstance(ap, ARes):
        return Restriction(ap.binder, erase(ap.body))
    if isinstance(ap, ASum):
        return Sum(erase(ap.left), erase(ap.right))
    if isinstance(ap, APar):
        return Par(erase(ap.left), erase(ap.right))
    if isinstance(ap, ACall):
        return Call(ap.ident, ap.args)
    raise TypeError(f"not an annotated term: {ap!r}")


def _anames_in_order(ap: ATerm, out: Optional[dict[Name, None]] = None
                     ) -> dict[Name, None]:
    """Every name of `ap`, binders included, in first-occurrence preorder."""
    if out is None:
        out = {}
    if isinstance(ap, ATau):
        _anames_in_order(ap.cont, out)
    elif isinstance(ap, AOut):
        out[ap.subject] = out[ap.object] = None
        _anames_in_order(ap.cont, out)
    elif isinstance(ap, AIn):
        out[ap.subject] = out[ap.binder] = None
        _anames_in_order(ap.cont, out)
    elif isinstance(ap, ARes):
        out[ap.binder] = None
        _anames_in_order(ap.body, out)
    elif isinstance(ap, (ASum, APar)):
        _anames_in_order(ap.left, out)
        _anames_in_order(ap.right, out)
    elif isinstance(ap, ACall):
        out.update(dict.fromkeys(ap.args))
    return out


def asubst(ap: ATerm, sub: Mapping[Name, Name]) -> ATerm:
    """Capture-avoiding substitution on annotated terms: `syntax.substitute`
    on the erasure, with `ap`'s guards and uids put back."""
    if not sub:
        return ap
    old = erase(ap)
    return _zip(ap, old, substitute(old, sub))


def _zip(ap: ATerm, old: Process, new: Process) -> ATerm:
    """`ap` with the names of `new`, where `old` is `ap`'s erasure and `new`
    has its shape.  Nodes are hash-consed, so a subtree whose erasure the
    substitution left alone is kept as it is."""
    if new is old:
        return ap
    if isinstance(ap, ATau):
        return ATau(ap.guards, ap.uid, _zip(ap.cont, old.cont, new.cont))
    if isinstance(ap, AOut):
        return AOut(ap.guards, ap.uid, new.subject, new.object,
                    _zip(ap.cont, old.cont, new.cont))
    if isinstance(ap, AIn):
        return AIn(ap.guards, ap.uid, new.subject, new.binder,
                   _zip(ap.cont, old.cont, new.cont))
    if isinstance(ap, ARes):
        return ARes(new.binder, _zip(ap.body, old.body, new.body))
    if isinstance(ap, (ASum, APar)):
        return type(ap)(_zip(ap.left, old.left, new.left),
                        _zip(ap.right, old.right, new.right))
    if isinstance(ap, ACall):
        return ACall(ap.guards, ap.uid, ap.ident, new.args)
    raise TypeError(f"not an annotated term: {ap!r}")


GuardMap = Callable[[frozenset[EventRef]], frozenset[EventRef]]


def amap(ap: ATerm, guards: Optional[GuardMap] = None,
         names: Optional[Mapping[Name, Name]] = None) -> ATerm:
    """Rebuild `ap` with every guard set passed through `guards` and every
    name occurrence, binders included, renamed by `names`.

    Renaming binders is only safe for injective maps whose targets are
    globally fresh, which is how token placeholders are turned into final
    `w` names.
    """
    if guards is None and not names:
        return ap
    return _amap(ap, guards or _same_guards, (names or {}).get)


def _same_guards(g: frozenset[EventRef]) -> frozenset[EventRef]:
    return g


def _amap(t: ATerm, gmap: GuardMap, rn: Callable[[Name, Name], Name]) -> ATerm:
    if isinstance(t, ANil):
        return t
    if isinstance(t, ATau):
        return ATau(gmap(t.guards), t.uid, _amap(t.cont, gmap, rn))
    if isinstance(t, AOut):
        return AOut(gmap(t.guards), t.uid, rn(t.subject, t.subject),
                    rn(t.object, t.object), _amap(t.cont, gmap, rn))
    if isinstance(t, AIn):
        return AIn(gmap(t.guards), t.uid, rn(t.subject, t.subject),
                   rn(t.binder, t.binder), _amap(t.cont, gmap, rn))
    if isinstance(t, ARes):
        return ARes(rn(t.binder, t.binder), _amap(t.body, gmap, rn))
    if isinstance(t, ASum):
        return ASum(_amap(t.left, gmap, rn), _amap(t.right, gmap, rn))
    if isinstance(t, APar):
        return APar(_amap(t.left, gmap, rn), _amap(t.right, gmap, rn))
    if isinstance(t, ACall):
        return ACall(gmap(t.guards), t.uid, t.ident,
                     tuple(rn(a, a) for a in t.args))
    raise TypeError(f"not an annotated term: {t!r}")


def relabel(sub: Mapping[EventRef, EventRef]) -> Optional[GuardMap]:
    """The guard map of an event renaming, None when it renames nothing."""
    if not sub:
        return None
    return lambda g: frozenset(sub.get(e, e) for e in g)


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
    if isinstance(ap, ANil):
        return []
    if isinstance(ap, ATau):
        ev = alloc.ev()
        fire = Fire(TAU, frozenset((ap.uid,)), ap.guards, ev, None)
        return [((fire,), amap(ap.cont, lambda g: g | {ev}))]
    if isinstance(ap, AOut):
        ev = alloc.ev()
        fire = Fire(FreeOutput(ap.subject, ap.object), frozenset((ap.uid,)),
                    ap.guards, ev, None)
        return [((fire,), amap(ap.cont, lambda g: g | {ev}))]
    if isinstance(ap, AIn):
        ev = alloc.ev()
        tok = alloc.tok()
        fire = Fire(Input(ap.subject, tok), frozenset((ap.uid,)), ap.guards, ev, tok)
        target = asubst(amap(ap.cont, lambda g: g | {ev}), {ap.binder: tok})
        return [((fire,), target)]
    if isinstance(ap, ACall):
        if fuel <= 0:
            raise UnguardedRecursion(
                f"unfolding {ap.ident} exceeded the guard depth without "
                "reaching a prefix")
        body = env.instantiate(Call(ap.ident, ap.args))
        return raw_steps(annotate(body, alloc, ap.guards), env, alloc, fuel - 1)
    if isinstance(ap, ASum):
        return (raw_steps(ap.left, env, alloc, fuel)
                + raw_steps(ap.right, env, alloc, fuel))
    if isinstance(ap, ARes):
        out: list[RawTransition] = []
        for fires, target in raw_steps(ap.body, env, alloc, fuel):
            if all(ap.binder not in action_names(f.action) for f in fires):
                out.append((fires, ARes(ap.binder, target)))
                continue
            if all(isinstance(f.action, FreeOutput)
                   and f.action.object == ap.binder
                   and f.action.subject != ap.binder for f in fires):
                tok = alloc.tok()
                opened = tuple(
                    f._replace(action=BoundOutput(f.action.subject, tok), tok=tok)
                    for f in fires)
                out.append((opened, asubst(target, {ap.binder: tok})))
            # otherwise the restricted name escapes: the step is blocked
        return out
    if isinstance(ap, APar):
        left = raw_steps(ap.left, env, alloc, fuel)
        right = raw_steps(ap.right, env, alloc, fuel)
        if not left and not right:
            return []
        if not right:
            return [(fires, APar(t, ap.right)) for fires, t in left]
        if not left:
            return [(fires, APar(ap.left, t)) for fires, t in right]
        out = []
        for xf, xt in left:
            for yf, yt in right:
                out.extend(_join(xf, xt, yf, yt))
        return out
    raise TypeError(f"not an annotated term: {ap!r}")


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
    lt = amap(asubst(xt, sub_x), relabel(ev_x))
    rt = amap(asubst(yt, sub_y), relabel(ev_y))
    combined: ATerm = APar(lt, rt)
    for w in wraps:
        combined = ARes(w, combined)
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
        plain = erase(atarget)
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
    for tok in [f.tok for f in picked] + list(_anames_in_order(target)):
        if tok is not None and tok.startswith("~") and tok not in tokmap:
            w = fresh_name(taken)
            tokmap[tok] = w
            taken.add(w)
    ordered = tuple([Fire(rename_action(f.action, tokmap), f.uids, f.causes,
                          f.ev, tokmap.get(f.tok)) for f in picked])
    return ordered, amap(target, names=tokmap)


def transition_json(t: Transition) -> dict:
    from .parser import format_process
    return {
        "source": format_process(t.source),
        "label": [str(a) for a in t.label],
        "target": format_process(t.target),
    }
