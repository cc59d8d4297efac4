"""Bounded unfolding of a process into an event-annotated step graph.

Nodes are configurations (sets of executed events) reached by maximal-step
edges; each node keeps its residual process.  Events are occurrences: the
same prefix fired under the same causal history is one event, shared by
sibling edges, while rival summands yield conflicting events.  Causality
comes from prefix nesting, conflict is derived from co-occurrence: two
events conflict exactly when no reached configuration contains both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import InternalError, StateBudgetExceeded
from .syntax import (
    EMPTY_ENV, Action, Environment, FreeOutput, Name, Process, Tau,
    all_names, alpha_eq,
)
from .semantics import (
    Alloc, ATerm, abstract_action, annotate, finalize, label_bound_names,
    raw_steps, relabel,
)
from .parser import format_process

DEFAULT_STATE_BUDGET = 100_000

Config = frozenset[int]


@dataclass(frozen=True, slots=True)
class Event:
    eid: int
    action: Action
    causes: frozenset[int]

    @property
    def label(self) -> tuple:
        return abstract_action(self.action)


@dataclass(frozen=True, slots=True)
class StepEdge:
    source: Config
    events: tuple[int, ...]
    actions: tuple[Action, ...]
    target: Config


@dataclass
class NodeRecord:
    config: Config
    residual: ATerm
    edges: list[StepEdge] = field(default_factory=list)
    expanded: bool = False


@dataclass(frozen=True, slots=True)
class PomsetTransition:
    """Configuration extension by a partially ordered set of fired events."""

    source: Config
    events: tuple[int, ...]
    actions: tuple[Action, ...]
    order: frozenset[tuple[int, int]]      # strict causality inside the label
    target: Config
    steps: int                             # step edges composed to fire it


class UnfoldedLTS:
    """Step-unfolding of one process, with the recovered event structure."""

    def __init__(self, process: Process, depth: int) -> None:
        self.process = process
        self.depth = depth
        self.root: Config = frozenset()
        self.nodes: dict[Config, NodeRecord] = {}
        self.events: dict[int, Event] = {}
        self.exhaustive = False

    # -- event structure view -------------------------------------------

    def leq(self, e1: int, e2: int) -> bool:
        return e1 == e2 or e1 in self.events[e2].causes

    def consistent(self, e1: int, e2: int) -> bool:
        return any(e1 in c and e2 in c for c in self.nodes)

    def conflict(self, e1: int, e2: int) -> bool:
        if e1 == e2 or self.leq(e1, e2) or self.leq(e2, e1):
            return False
        return not self.consistent(e1, e2)

    def concurrent(self, e1: int, e2: int) -> bool:
        return (e1 != e2 and not self.leq(e1, e2) and not self.leq(e2, e1)
                and self.consistent(e1, e2))

    def pes_configs(self) -> list[Config]:
        """All downward-closed sub-histories of reached configurations."""
        return sorted((frozenset(e for e in self.events if m >> e & 1)
                       for m in self.sub_histories()),
                      key=lambda c: (len(c), sorted(c)))

    def sub_histories(self) -> dict[int, list[tuple[int, int]]]:
        """Every sub-history as a bit mask over event ids, mapped to its
        one-event extensions `(event, grown mask)` in event order.

        Generated forward from the empty sub-history, each one expanded
        once: its extensions are the events of a reached configuration
        containing it whose causes it holds.
        """
        causes = {e: sum(1 << c for c in ev.causes)
                  for e, ev in self.events.items()}
        out: dict[int, list[tuple[int, int]]] = {}
        # Frontier sub-history -> the reached configurations containing it.
        above = {0: [sum(1 << e for e in cfg) for cfg in self.nodes]}
        work = [0]
        while work:
            c = work.pop()
            sup = above.pop(c)
            span = 0
            for m in sup:
                span |= m
            span &= ~c
            exts = out[c] = []
            while span:
                bit = span & -span
                span ^= bit
                e = bit.bit_length() - 1
                if causes[e] & ~c:
                    continue
                grown = c | bit
                exts.append((e, grown))
                if grown not in out and grown not in above:
                    above[grown] = [m for m in sup if m & bit]
                    work.append(grown)
        return out

    # -- exports ----------------------------------------------------------

    def _node_index(self) -> dict[Config, int]:
        ordered = sorted(self.nodes, key=lambda c: (len(c), sorted(c)))
        return {c: i for i, c in enumerate(ordered)}

    def to_json(self) -> dict:
        idx = self._node_index()
        nodes = [
            {
                "id": idx[c],
                "config": sorted(c),
                "residual": format_process(rec.residual.term),
            }
            for c, rec in sorted(self.nodes.items(),
                                 key=lambda kv: idx[kv[0]])
        ]
        edges = [
            {
                "source": idx[e.source],
                "events": list(e.events),
                "labels": [str(a) for a in e.actions],
                "target": idx[e.target],
            }
            for rec in self.nodes.values() for e in rec.edges
        ]
        edges.sort(key=lambda d: (d["source"], d["target"], d["labels"]))
        events = [
            {
                "id": ev.eid,
                "action": str(ev.action),
                "causes": sorted(ev.causes),
            }
            for ev in sorted(self.events.values(), key=lambda ev: ev.eid)
        ]
        return {
            "process": format_process(self.process),
            "depth": self.depth,
            "exhaustive": self.exhaustive,
            "nodes": nodes,
            "edges": edges,
            "events": events,
        }

    def to_dot(self) -> str:
        idx = self._node_index()
        lines = ["digraph unfolding {", "  rankdir=LR;", "  node [shape=box];"]
        for c, i in sorted(idx.items(), key=lambda kv: kv[1]):
            cfg = "{" + ",".join(f"e{e}" for e in sorted(c)) + "}"
            lines.append(f'  n{i} [label="{cfg}\\n{format_process(self.nodes[c].residual.term)}"];')
        for rec in self.nodes.values():
            for e in rec.edges:
                label = ", ".join(str(a) for a in e.actions)
                lines.append(f'  n{idx[e.source]} -> n{idx[e.target]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def unfold(p: Process, env: Environment = EMPTY_ENV, depth: int = 1, *,
           budget: int = DEFAULT_STATE_BUDGET,
           avoid: Iterable[Name] = ()) -> UnfoldedLTS:
    """Breadth-first unfolding of step transitions to `depth` layers."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    u = UnfoldedLTS(p, depth)
    alloc = Alloc()
    base_avoid = frozenset(all_names(p) | env.names() | set(avoid))
    u.nodes[u.root] = NodeRecord(u.root, annotate(p, alloc))
    by_key: dict[tuple, int] = {}
    frontier = [u.root]
    for _ in range(depth):
        nxt: list[Config] = []
        for cfg in frontier:
            node = u.nodes[cfg]
            node.expanded = True
            raws = raw_steps(node.residual, env, alloc)
            edge_avoid = base_avoid | all_names(node.residual.term)
            seen_edges: set[tuple] = set()
            for fires, target in raws:
                ofires, atarget = finalize(fires, target, edge_avoid)
                provmap: dict[int, int] = {}
                eids: list[int] = []
                for f in ofires:
                    sig = frozenset(
                        g.uids for g in ofires
                        if f.tok is not None and g.tok == f.tok)
                    key = (abstract_action(f.action), f.uids, f.causes, sig)
                    eid = by_key.get(key)
                    if eid is None:
                        eid = len(u.events)
                        by_key[key] = eid
                        u.events[eid] = Event(eid, f.action, f.causes)
                    provmap[f.ev] = eid
                    eids.append(eid)
                x = frozenset(eids)
                tgt = cfg | x
                ekey = (tuple(sorted(x)), tgt)
                if ekey in seen_edges:
                    continue
                seen_edges.add(ekey)
                resolved = relabel(atarget, provmap)
                edge = StepEdge(cfg, tuple(eids),
                                tuple(f.action for f in ofires), tgt)
                node.edges.append(edge)
                if tgt not in u.nodes:
                    if len(u.nodes) >= budget:
                        raise StateBudgetExceeded(
                            f"unfolding exceeded {budget} configurations")
                    u.nodes[tgt] = NodeRecord(tgt, resolved)
                    nxt.append(tgt)
                elif not alpha_eq(u.nodes[tgt].residual.term, resolved.term):
                    raise InternalError(
                        "one configuration reached with two residuals")
        frontier = nxt
        if not frontier:
            break
    if not frontier:
        u.exhaustive = True
    return u


def pomset_transitions(u: UnfoldedLTS, c: Config,
                       max_size: int) -> list[PomsetTransition]:
    """Extensions of `c` built by composing consecutive step edges and
    taking unions, capped at `max_size` events."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if c not in u.nodes:
        raise KeyError(f"{sorted(c)} is not a node of the unfolding")
    found: dict[Config, tuple[dict[int, Action], int]] = {}
    _compose(u, c, {}, 0, max_size, found)
    out = []
    for key, (acts, steps) in sorted(found.items(),
                                     key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        events = tuple(sorted(key))
        order = frozenset(
            (a, b) for a in events for b in events
            if a != b and a in u.events[b].causes)
        out.append(PomsetTransition(c, events,
                                    tuple(acts[e] for e in events),
                                    order, c | key, steps))
    return out


def _compose(u: UnfoldedLTS, cfg: Config, acc: dict[int, Action], steps: int,
             max_size: int,
             found: dict[Config, tuple[dict[int, Action], int]]) -> None:
    """Grow `acc`, the events fired in `steps` step edges so far, by each
    edge out of `cfg`; record in `found` each event set of at most
    `max_size` events with its actions and fewest steps."""
    for edge in u.nodes[cfg].edges:
        grown = dict(acc)
        for eid, act in zip(edge.events, edge.actions):
            grown[eid] = act
        if len(grown) > max_size:
            continue
        key = frozenset(grown)
        if key not in found or steps + 1 < found[key][1]:
            found[key] = (grown, steps + 1)
            _compose(u, edge.target, grown, steps + 1, max_size, found)


# --------------------------------------------------------------------------
# Pomset isomorphism
# --------------------------------------------------------------------------

def _slots(a: Action) -> list[tuple[Name, bool]]:
    """(name, is_binder_slot) pairs of an action."""
    if isinstance(a, Tau):
        return []
    if isinstance(a, FreeOutput):
        return [(a.subject, False), (a.object, False)]
    return [(a.subject, False), (a.placeholder, True)]


def pomset_isos(x1: PomsetTransition,
                x2: PomsetTransition) -> Iterator[tuple[dict[int, int], dict[Name, Name]]]:
    """Label- and order-preserving bijections between two pomsets.

    Yields `(mapping, renaming)` pairs where `renaming` sends the binder
    placeholders introduced by `x1` to their counterparts in `x2`; all
    other names must agree exactly.
    """
    if len(x1.events) != len(x2.events):
        return
    b1 = label_bound_names(x1.actions)
    b2 = label_bound_names(x2.actions)
    acts1 = dict(zip(x1.events, x1.actions))
    acts2 = dict(zip(x2.events, x2.actions))
    below1 = {e: frozenset(a for (a, b) in x1.order if b == e) for e in x1.events}
    below2 = {e: frozenset(a for (a, b) in x2.order if b == e) for e in x2.events}
    topo = sorted(x1.events, key=lambda e: (len(below1[e]), e))

    def compatible(a1: Action, a2: Action,
                   rho: dict[Name, Name]) -> Optional[dict[Name, Name]]:
        if type(a1) is not type(a2):
            return None
        new = dict(rho)
        for (n1, bind1), (n2, bind2) in zip(_slots(a1), _slots(a2)):
            if bind1 != bind2:
                return None
            if bind1 or n1 in b1:
                # Binder slot or a reference to a placeholder bound earlier
                # in this pomset: both must go through the renaming.
                if n2 not in b2:
                    return None
                if n1 in new:
                    if new[n1] != n2:
                        return None
                else:
                    if n2 in new.values():
                        return None
                    new[n1] = n2
            elif n1 != n2 or n2 in b2:
                return None
        return new

    def go(k: int, mapping: dict[int, int],
           rho: dict[Name, Name]) -> Iterator[tuple[dict[int, int], dict[Name, Name]]]:
        if k == len(topo):
            yield dict(mapping), dict(rho)
            return
        e1 = topo[k]
        want = frozenset(mapping[a] for a in below1[e1])
        for e2 in x2.events:
            if e2 in mapping.values():
                continue
            if below2[e2] != want:
                continue
            rho2 = compatible(acts1[e1], acts2[e2], rho)
            if rho2 is None:
                continue
            mapping[e1] = e2
            yield from go(k + 1, mapping, rho2)
            del mapping[e1]

    yield from go(0, {}, {})


def pomset_iso(x1: PomsetTransition, x2: PomsetTransition) -> bool:
    """True when a label- and order-preserving bijection exists."""
    return next(pomset_isos(x1, x2), None) is not None
