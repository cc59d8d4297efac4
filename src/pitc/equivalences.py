"""Deciders for strong pomset, step, hp-, and hhp-bisimilarity on bounded
unfoldings.

Step, pomset and hp are late-style and share one matching kernel,
`semantics.late_instances`: matched input steps must leave residuals
related under instantiation of the bound placeholder with every test name
of the game state.  The test names are the free names of the state's two
processes plus one fresh name (`instance_names`), computed once per state
and passed to each of its matches.  The three relations, and each
bounded game, are closed under injective renaming of free names, so the
games memoize their states up to such renamings: a state's key holds the
`syntax.renaming_form` of its process pair, and the state budget counts
states up to renaming.  A game builds no instance it will not read: a
residual pair at the depth horizon holds whatever it is, so a move that
lands there is answered by any pairing (for hp, any order-preserving
bijection) and nothing is instantiated.  Nor does it build one twice:
each game makes its substitutions through one table per check,
`instances`, keyed on (term, *substitution items).  hhp is not
late-style: it compares event labels with placeholders abstracted, on
one symbolic unfolding of each process, and never instantiates inputs.
Verdicts are bounded by the depth; for recursion-free terms the bound is
exhaustive and the verdict exact.

step / pomset   one game over process pairs that differs only in its
                moves: step edges, resp. compositions of consecutive step
                edges matched up to pomset isomorphism.
hp              game over posetal triples grown one step edge at a time;
                a state is the event pairing f (whose domain and range are
                the two histories) and the two annotated residuals, and f
                grows by a label- and order-preserving bijection.
hhp             greatest downward-closed posetal fixpoint over the two
                unfolded event structures: triples generated forward from
                the empty one an event pair at a time, then refined with
                per-extension counters and a worklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import StateBudgetExceeded
from .parser import format_process
from .syntax import (
    EMPTY_ENV, Action, Environment, Name, Process, all_names, canonical,
    prefix_height, renaming_form, substitute,
)
from .semantics import (
    Alloc, ATerm, LateInstances, abstract_action, annotate, class_bijections,
    finalize, format_label, instance_names, label_key, late_instances,
    raw_steps, relabel, rename_action, transitions,
)
from .unfolding import (
    DEFAULT_STATE_BUDGET, PomsetTransition, UnfoldedLTS, pomset_isos,
    pomset_transitions, unfold,
)

DEFAULT_DEPTH = 8
DEFAULT_MAX_POMSET = 4


@dataclass
class RelationVerdict:
    relation: str
    equivalent: bool
    depth: int
    exact: bool
    witness: Optional[list] = None
    distinguisher: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "relation": self.relation,
            "equivalent": self.equivalent,
            "depth": self.depth,
            "exact": self.exact,
        }
        if self.equivalent:
            out["witness"] = self.witness or []
        else:
            out["distinguisher"] = self.distinguisher or {}
        return out


def _is_exact(p: Process, q: Process, depth: int) -> bool:
    hp = prefix_height(p)
    hq = prefix_height(q)
    return hp is not None and hq is not None and depth >= max(hp, hq)


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def tick(self, cost: int = 1) -> None:
        self.used += cost
        if self.used > self.limit:
            raise StateBudgetExceeded(
                f"equivalence check exceeded {self.limit} game states")


class _Forms:
    """Process pairs up to injective renaming of free names, for one
    check: `id(p, q)` is one int for all pairs with one `renaming_form`,
    and `pairs[i]` is the first pair met of id `i`, as canonical forms, so
    that witnesses show real residuals."""

    form = staticmethod(renaming_form)

    def __init__(self) -> None:
        self.ids: dict[tuple[Process, Process], int] = {}
        self.by_form: dict[tuple, int] = {}
        self.pairs: list[tuple[Process, Process]] = []

    def id(self, p: Process, q: Process) -> int:
        pair = (canonical(p), canonical(q))
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = self.by_form.setdefault(self.form(*pair),
                                                         len(self.pairs))
            if i == len(self.pairs):
                self.pairs.append(pair)
        return i


def _instance(done: dict[tuple, Process], p: Process,
              sub: Mapping[Name, Name]) -> Process:
    """`substitute(p, sub)`, computed once per check: `done` is the
    check's table of the substitutions it has made."""
    key = (p, *sub.items())
    hit = done.get(key)
    if hit is None:
        hit = done[key] = substitute(p, sub)
    return hit


def _by_key(items, key) -> dict:
    """`items` grouped by `key`, each group in the given order."""
    groups: dict = {}
    for it in items:
        groups.setdefault(key(it), []).append(it)
    return groups


def _covers(attackers, defenders, key, match) -> bool:
    """Every attacker is matched by some defender with the same key."""
    groups = _by_key(defenders, key)
    return all(any(match(a, d) for d in groups.get(key(a), ()))
               for a in attackers)


class _Move(NamedTuple):
    """A move of the step or pomset game: one step, or a composition of
    `steps` consecutive steps and the `pomset` it fires."""
    label: tuple[Action, ...]
    target: Process
    steps: int = 1
    pomset: Optional[PomsetTransition] = None


def _label_key(move: _Move | _GameEdge) -> tuple:
    return label_key(move.label)


def _tests(p: Process, q: Process, env: Environment
           ) -> tuple[list[Name], frozenset[Name]]:
    """The test names of a game state between `p` and `q`, computed once
    per state, and the names its late renamings avoid besides the
    residuals': those of `p`, `q` and the tests."""
    names = instance_names(p, q, env)
    return names, (all_names(p) | all_names(q)).union(names)


def _holds(eq, a: Process, b: Process, d: int, left_attacks: bool) -> bool:
    """`eq` on an (attacker, defender) residual pair, left process first."""
    return eq(a, b, d) if left_attacks else eq(b, a, d)


# --------------------------------------------------------------------------
# Strong step and pomset bisimilarity: one late game over process pairs
# --------------------------------------------------------------------------

class _LateGame:
    """Each move of either process is answered by one of the other with
    the same `_key` whose residuals stay related, at the depth less its
    steps, under every late instance.  Subclasses give `relation`,
    `_moves`, `_key`, `_pairings` and `explain`."""

    def __init__(self, env: Environment, budget: _Budget) -> None:
        self.env = env
        self.budget = budget
        self.forms = _Forms()
        self.memo: dict[tuple[int, int], bool] = {}
        self.instances: dict[tuple, Process] = {}

    def eq(self, p: Process, q: Process, d: int) -> bool:
        if d <= 0:
            return True
        key = (self.forms.id(p, q), d)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.budget.tick()
        mp, mq, names, avoid = self._state(p, q, d)
        result = (
            _covers(mp, mq, self._key,
                    lambda t, u: self._match(t, u, names, avoid, d, True))
            and _covers(mq, mp, self._key,
                        lambda t, u: self._match(t, u, names, avoid, d, False)))
        self.memo[key] = result
        return result

    def verdict(self, p: Process, q: Process, depth: int) -> RelationVerdict:
        equivalent = self.eq(p, q, depth)
        verdict = RelationVerdict(self.relation, equivalent, depth,
                                  _is_exact(p, q, depth))
        if equivalent:
            verdict.witness = _pair_witness(self.memo, self.forms.pairs)
        else:
            verdict.distinguisher = self.explain(p, q, depth)
        return verdict

    def _state(self, p: Process, q: Process, d: int) -> tuple:
        """The moves of `p` and of `q`, then `_tests(p, q)`."""
        return (*self._moves(p, q, d), *_tests(p, q, self.env))

    def _late(self, t: _Move, u: _Move, names: Sequence[Name],
              avoid: frozenset[Name]
              ) -> Iterator[tuple[dict, dict, LateInstances]]:
        """Late matching of attacker `t` against defender `u` with the
        state's test `names`; the pairs are (attacker residual, defender
        residual)."""
        avoid = avoid | all_names(t.target) | all_names(u.target)
        return late_instances(t.label, self._pairings(t, u), t.target,
                              u.target, avoid, names, self._subst)

    def _subst(self, p: Process, sub: Mapping[Name, Name]) -> Process:
        return _instance(self.instances, p, sub)

    def _match(self, t: _Move, u: _Move, names: Sequence[Name],
               avoid: frozenset[Name], d: int, left_attacks: bool) -> bool:
        if d - t.steps <= 0:
            # `eq` holds at the horizon: any pairing answers, so build no
            # instance of the residuals.
            return next(iter(self._pairings(t, u)), None) is not None
        return any(all(_holds(self.eq, a, b, d - t.steps, left_attacks)
                       for a, b in pairs)
                   for _, _, pairs in self._late(t, u, names, avoid))


class _StepGame(_LateGame):
    relation = "step"
    _key = staticmethod(_label_key)

    def _moves(self, p: Process, q: Process, d: int) -> tuple[list, list]:
        pq_names = all_names(p) | all_names(q)
        return tuple([_Move(t.label, t.target)
                      for t in transitions(r, self.env, avoid=pq_names)]
                     for r in (p, q))

    @staticmethod
    def _pairings(t: _Move, u: _Move) -> Iterator[dict[Name, Name]]:
        return class_bijections(t.label, u.label)

    def explain(self, p: Process, q: Process, depth: int) -> dict:
        for dd in range(1, depth + 1):
            if not self.eq(p, q, dd):
                return {"steps": self._trace(p, q, dd, [])}
        return {"steps": []}

    def _trace(self, p: Process, q: Process, d: int, path: list) -> list:
        tp, tq, names, avoid = self._state(p, q, d)
        for attackers, defenders, side, flag in (
                (tp, tq, "left", True), (tq, tp, "right", False)):
            groups = _by_key(defenders, _label_key)
            for t in attackers:
                cands = groups.get(_label_key(t))
                if not cands:
                    return path + [{"side": side, "label": format_label(t.label),
                                    "unmatched": True}]
                if not any(self._match(t, u, names, avoid, d, flag)
                           for u in cands):
                    step = {"side": side, "label": format_label(t.label),
                            "unmatched": False}
                    # No pairing matches, so the first one has a failing pair.
                    _, _, first = next(self._late(t, cands[0], names, avoid),
                                       (None, None, ()))
                    nxt = next(((a, b) for a, b in first
                                if not _holds(self.eq, a, b, d - 1, flag)),
                               None)
                    if nxt is not None:
                        return self._trace(*nxt, d - 1, path + [step])
                    return path + [step]
        return path


def check_step(p: Process, q: Process, env: Environment = EMPTY_ENV,
               depth: int = DEFAULT_DEPTH, *,
               budget: int = DEFAULT_STATE_BUDGET) -> RelationVerdict:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _StepGame(env, _Budget(budget)).verdict(p, q, depth)


def _pair_witness(memo: dict[tuple[int, int], bool],
                  pairs: list[tuple[Process, Process]], cap: int = 200) -> list:
    """The first `cap` process pairs, distinct up to renaming, that a step
    or pomset memo holds as related, at any depth, in the memo's order;
    each is the first pair met of its form."""
    out = []
    seen = set()
    for (i, _), ok in memo.items():
        if ok and i not in seen:
            seen.add(i)
            out.append([format_process(r) for r in pairs[i]])
            if len(out) >= cap:
                break
    return out


class _PomsetGame(_LateGame):
    relation = "pomset"

    @staticmethod
    def _key(move: _Move) -> tuple:
        """Event count and sorted abstract labels, which isomorphisms keep."""
        return len(move.label), tuple(sorted([abstract_action(a)
                                              for a in move.label]))

    def __init__(self, env: Environment, max_pomset: int,
                 budget: _Budget) -> None:
        super().__init__(env, budget)
        self.max_pomset = max_pomset

    def _moves(self, p: Process, q: Process, d: int) -> tuple[list, list]:
        return (self._pomsets(p, all_names(q), d),
                self._pomsets(q, all_names(p), d))

    def _pomsets(self, p: Process, avoid: frozenset[Name],
                 d: int) -> list[_Move]:
        layers = min(d, self.max_pomset)
        u = unfold(p, self.env, layers, avoid=avoid, budget=self.budget.limit)
        return [_Move(x.actions, u.nodes[x.target].residual.term, x.steps, x)
                for x in pomset_transitions(u, frozenset(), self.max_pomset)]

    @staticmethod
    def _pairings(t: _Move, u: _Move) -> Iterator[dict[Name, Name]]:
        return (rho for _, rho in pomset_isos(t.pomset, u.pomset))

    def explain(self, p: Process, q: Process, depth: int) -> dict:
        """Smallest unmatched pomset at the first depth that separates."""
        names, avoid = _tests(p, q, self.env)
        for dd in range(1, depth + 1):
            if self.eq(p, q, dd):
                continue
            ps, qs = self._moves(p, q, dd)
            for side, attackers, defenders in (("left", ps, qs),
                                               ("right", qs, ps)):
                flag = side == "left"
                groups = _by_key(defenders, self._key)
                for att in sorted(attackers, key=lambda m: len(m.label)):
                    if not any(self._match(att, dfn, names, avoid, dd, flag)
                               for dfn in groups.get(self._key(att), ())):
                        return {"side": side,
                                "pomset": [str(ac) for ac in att.label],
                                "ordered_pairs": sorted(att.pomset.order)}
            break
        return {"note": "no matching pomset transition"}


def check_pomset(p: Process, q: Process, env: Environment = EMPTY_ENV,
                 depth: int = DEFAULT_DEPTH,
                 max_pomset: int = DEFAULT_MAX_POMSET, *,
                 budget: int = DEFAULT_STATE_BUDGET) -> RelationVerdict:
    if depth < 1 or max_pomset < 1:
        raise ValueError("depth and max_pomset must be at least 1")
    return _PomsetGame(env, max_pomset, _Budget(budget)).verdict(p, q, depth)


# --------------------------------------------------------------------------
# Strong hp-bisimilarity
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _GameEdge:
    label: tuple[Action, ...]
    causes: tuple[frozenset[int], ...]
    target: ATerm


class _HpGame:
    def __init__(self, env: Environment, budget: _Budget) -> None:
        self.env = env
        self.budget = budget
        self.forms = _Forms()
        self.memo: dict[tuple, bool] = {}
        self.witness: dict[tuple, None] = {}
        self.instances: dict[tuple, Process] = {}

    def check(self, p: Process, q: Process, depth: int) -> bool:
        base = all_names(p) | all_names(q) | self.env.names()
        return self.go((), annotate(p, Alloc()), annotate(q, Alloc()), depth,
                       frozenset(base))

    def go(self, f: tuple[tuple[int, int], ...], ap1: ATerm, ap2: ATerm,
           d: int, base: frozenset[Name]) -> bool:
        """The triple (domain of `f`, `f`, range of `f`); the prefixes of
        `ap1` and `ap2` name their causes among f's events."""
        if d <= 0:
            return True
        # The annotations go into the key beside the pair's form: plain
        # terms would conflate states whose prefixes are wired to different
        # history events, and a verdict for one wiring can poison another.
        key = (f, self.forms.id(ap1.term, ap2.term), ap1.guards, ap1.uids,
               ap2.guards, ap2.uids, d)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.budget.tick()
        p1, p2 = ap1.term, ap2.term
        avoid = base | all_names(p1) | all_names(p2)
        e1s = self._edges(ap1, avoid, len(f))
        e2s = self._edges(ap2, avoid, len(f))
        names = instance_names(p1, p2, self.env)
        ok = (_covers(e1s, e2s, _label_key,
                      lambda e1, e2: self._try(e1, e2, f, d, base, names))
              and _covers(e2s, e1s, _label_key,
                          lambda e2, e1: self._try(e1, e2, f, d, base, names)))
        self.memo[key] = ok
        if ok and len(self.witness) < 200:
            self.witness.setdefault(f)
        return ok

    def _edges(self, ap: ATerm, avoid: frozenset[Name],
               next_id: int) -> list[_GameEdge]:
        out = []
        seen = set()
        for fires, target in raw_steps(ap, self.env, Alloc()):
            ofires, atarget = finalize(fires, target, avoid)
            provmap = {fr.ev: next_id + i for i, fr in enumerate(ofires)}
            edge = _GameEdge(
                tuple(fr.action for fr in ofires),
                tuple(fr.causes for fr in ofires),
                relabel(atarget, provmap),
            )
            k = (edge.label, edge.causes, canonical(edge.target.term),
                 edge.target.guards)
            if k not in seen:
                seen.add(k)
                out.append(edge)
        return out

    def _try(self, e1: _GameEdge, e2: _GameEdge, f, d, base,
             names: Sequence[Name]) -> bool:
        """Can the left edge `e1` and the right edge `e2` answer each other,
        inputs instantiated with the state's test `names`?"""
        fmap = dict(f)
        n = len(f)
        avoid = base.union(names, all_names(e1.target.term),
                           all_names(e2.target.term))
        for sub1, sub2, pairs in late_instances(
                e1.label, class_bijections(e1.label, e2.label),
                e1.target, e2.target, avoid, names, self._asubst):
            acts1 = tuple(rename_action(a, sub1) for a in e1.label)
            acts2 = tuple(rename_action(a, sub2) for a in e2.label)
            for g in _position_bijections(acts1, acts2):
                if not self._order_ok(e1, e2, g, fmap):
                    continue
                if d == 1:
                    return True     # `go` holds at the horizon: no instances
                f2 = tuple(sorted(fmap.items() | {
                    (n + i, n + j) for i, j in g.items()}))
                if all(self.go(f2, a, b, d - 1, base) for a, b in pairs):
                    return True
        return False

    def _asubst(self, ap: ATerm, sub: Mapping[Name, Name]) -> ATerm:
        """`semantics.asubst` through the check's table of substitutions."""
        term = _instance(self.instances, ap.term, sub)
        return ap if term is ap.term else ATerm(term, ap.guards, ap.uids)

    @staticmethod
    def _order_ok(e1: _GameEdge, e2: _GameEdge, g: dict[int, int],
                  fmap: dict[int, int]) -> bool:
        for i, j in g.items():
            mapped = {fmap[c] for c in e1.causes[i] if c in fmap}
            if mapped != set(e2.causes[j]):
                return False
            if len(mapped) != len(e1.causes[i]):
                return False
        return True


def _position_bijections(acts1: Sequence[Action],
                         acts2: Sequence[Action]) -> Iterator[dict[int, int]]:
    groups: dict[str, tuple[list[int], list[int]]] = {}
    for i, a in enumerate(acts1):
        groups.setdefault(str(a), ([], []))[0].append(i)
    for j, a in enumerate(acts2):
        groups.setdefault(str(a), ([], []))[1].append(j)
    if any(len(xs) != len(ys) for xs, ys in groups.values()):
        return
    keys = sorted(groups)
    pools = [groups[k] for k in keys]
    for combo in product(*(permutations(ys) for xs, ys in pools)):
        g: dict[int, int] = {}
        for (xs, _), perm in zip(pools, combo):
            for i, j in zip(xs, perm):
                g[i] = j
        yield g


def _triple_json(f: tuple[tuple[int, int], ...]) -> list:
    """The posetal triple of a sorted event pairing: domain, `f`, range."""
    return [[a for a, _ in f], list(f), sorted(b for _, b in f)]


def check_hp(p: Process, q: Process, env: Environment = EMPTY_ENV,
             depth: int = DEFAULT_DEPTH, *,
             budget: int = DEFAULT_STATE_BUDGET) -> RelationVerdict:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    game = _HpGame(env, _Budget(budget))
    equivalent = game.check(p, q, depth)
    verdict = RelationVerdict("hp", equivalent, depth, _is_exact(p, q, depth))
    if equivalent:
        verdict.witness = [_triple_json(f) for f in game.witness]
    else:
        step = _StepGame(env, _Budget(budget))
        verdict.distinguisher = {
            "note": "posetal extension unmatched",
            "hint": {} if step.eq(p, q, depth) else step.explain(p, q, depth),
        }
    return verdict


# --------------------------------------------------------------------------
# Strongly hereditary hp-bisimilarity
# --------------------------------------------------------------------------

@dataclass
class _Pes:
    labels: list[tuple]
    causes: list[int]                  # bitmask per event
    exts: dict[int, list[tuple[int, int]]]  # sub-history -> (event, grown)


def _build_pes(u: UnfoldedLTS, budget: _Budget) -> _Pes:
    budget.tick(sum(1 << len(cfg) for cfg in u.nodes))
    m = len(u.events)
    labels = [u.events[e].label for e in range(m)]
    causes = [0] * m
    for e in range(m):
        for c in u.events[e].causes:
            causes[e] |= 1 << c
    return _Pes(labels, causes, u.sub_histories())


_Triple = tuple[int, int, tuple[tuple[int, int], ...]]


def _hhp_live(pes1: _Pes, pes2: _Pes, budget: _Budget) -> set[_Triple]:
    """The greatest downward-closed hp-bisimulation between two event
    structures, as a set of triples (c1, c2, f): sub-histories c1 and c2
    and a label- and order-preserving bijection f between them.

    Triples are generated forward from the empty one, one event pair at a
    time; every such bijection is reached by adding its events in causal
    order.  Refinement is a worklist (Paige & Tarjan 1987): `left[i][e1]`
    and `right[i][e2]` count the live children of triple i that match its
    extension e1 resp. e2, and a triple dies when a count reaches 0
    (transfer) or when a one-event restriction of it dies (downward; any
    restriction is reached by removing maximal events one at a time).
    """
    triples: list[_Triple] = [(0, 0, ())]
    index = {triples[0]: 0}
    parents: list[list[tuple[int, int, int]]] = [[]]
    children: list[list[int]] = []
    left: list[dict[int, int]] = []
    right: list[dict[int, int]] = []
    budget.tick()
    for i, (c1, c2, f) in enumerate(triples):       # grows while walked
        kids: list[int] = []
        lc = {e1: 0 for e1, _ in pes1.exts[c1]}
        rc = {e2: 0 for e2, _ in pes2.exts[c2]}
        for e1, g1 in pes1.exts[c1]:
            # The causes of both extensions lie in c1 and c2, so order
            # preservation is exactly image equality of the cause sets.
            label, cause = pes1.labels[e1], pes1.causes[e1]
            want = sum(1 << b for a, b in f if cause >> a & 1)
            for e2, g2 in pes2.exts[c2]:
                if pes2.causes[e2] != want or pes2.labels[e2] != label:
                    continue
                child = (g1, g2, tuple(sorted(f + ((e1, e2),))))
                j = index.get(child)
                if j is None:
                    budget.tick()
                    j = index[child] = len(triples)
                    triples.append(child)
                    parents.append([])
                parents[j].append((i, e1, e2))
                kids.append(j)
                lc[e1] += 1
                rc[e2] += 1
        children.append(kids)
        left.append(lc)
        right.append(rc)

    alive = [True] * len(triples)
    work = [i for i in range(len(triples))
            if 0 in left[i].values() or 0 in right[i].values()]
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        alive[i] = False
        budget.tick()
        for k, e1, e2 in parents[i]:
            if alive[k]:
                left[k][e1] -= 1
                right[k][e2] -= 1
                if not left[k][e1] or not right[k][e2]:
                    work.append(k)
        work.extend(children[i])
    return {t for t, a in zip(triples, alive) if a}


def check_hhp(p: Process, q: Process, env: Environment = EMPTY_ENV,
              depth: int = DEFAULT_DEPTH, *,
              budget: int = DEFAULT_STATE_BUDGET) -> RelationVerdict:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    guard = _Budget(budget)
    avoid = all_names(p) | all_names(q) | env.names()
    u1 = unfold(p, env, depth, avoid=avoid, budget=budget)
    u2 = unfold(q, env, depth, avoid=avoid, budget=budget)
    live = _hhp_live(_build_pes(u1, guard), _build_pes(u2, guard), guard)
    equivalent = (0, 0, ()) in live
    verdict = RelationVerdict("hhp", equivalent, depth, _is_exact(p, q, depth))
    if equivalent:
        verdict.witness = [_triple_json(f) for _, _, f in sorted(live)[:200]]
    else:
        verdict.distinguisher = {
            "note": "no downward closed hp-bisimulation contains the empty triple"}
    return verdict


# --------------------------------------------------------------------------
# Convenience
# --------------------------------------------------------------------------

CHECKERS = {
    "step": check_step,
    "pomset": check_pomset,
    "hp": check_hp,
    "hhp": check_hhp,
}


def check(relation: str, p: Process, q: Process,
          env: Environment = EMPTY_ENV, depth: int = DEFAULT_DEPTH,
          max_pomset: int = DEFAULT_MAX_POMSET, *,
          budget: int = DEFAULT_STATE_BUDGET) -> RelationVerdict:
    if relation == "pomset":
        return check_pomset(p, q, env, depth, max_pomset, budget=budget)
    fn = CHECKERS.get(relation)
    if fn is None:
        raise ValueError(f"unknown relation {relation!r}")
    return fn(p, q, env, depth, budget=budget)
