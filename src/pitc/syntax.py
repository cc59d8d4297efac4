"""Abstract syntax, name hygiene, substitution, and definition environments.

Names are plain interned strings.  Processes and actions are immutable
trees, so every value in this module can be shared freely across threads
and used as a dictionary key.

Process nodes are hash-consed: a constructor call returns the one node of
that structure, so structural equality is identity and hashing is O(1).
A node's free names, all its names, its count of prefixes and calls and
its prefix height are computed from its children's when it is interned;
only its canonical form is memoized lazily, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import BadDefinition, UnknownIdentifier

Name = str


def fresh_name(avoid: Iterable[Name], prefix: str = "w") -> Name:
    """First name of the deterministic sequence w0, w1, ... not in `avoid`."""
    taken = set(avoid)
    i = 0
    while True:
        cand = f"{prefix}{i}"
        if cand not in taken:
            return cand
        i += 1


def fresh_names(avoid: Iterable[Name], count: int, prefix: str = "w") -> list[Name]:
    taken = set(avoid)
    out: list[Name] = []
    for _ in range(count):
        n = fresh_name(taken, prefix)
        out.append(n)
        taken.add(n)
    return out


# --------------------------------------------------------------------------
# Actions
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Tau:
    def __str__(self) -> str:
        return "tau"


@dataclass(frozen=True, slots=True)
class FreeOutput:
    subject: Name
    object: Name

    def __str__(self) -> str:
        return f"{self.subject}!{self.object}"


@dataclass(frozen=True, slots=True)
class Input:
    subject: Name
    placeholder: Name

    def __str__(self) -> str:
        return f"{self.subject}?({self.placeholder})"


@dataclass(frozen=True, slots=True)
class BoundOutput:
    subject: Name
    placeholder: Name

    def __str__(self) -> str:
        return f"{self.subject}!({self.placeholder})"


Action = Tau | FreeOutput | Input | BoundOutput

TAU = Tau()


def action_free_names(a: Action) -> frozenset[Name]:
    if isinstance(a, Tau):
        return frozenset()
    if isinstance(a, FreeOutput):
        return frozenset((a.subject, a.object))
    return frozenset((a.subject,))


def action_bound_names(a: Action) -> frozenset[Name]:
    if isinstance(a, (Input, BoundOutput)):
        return frozenset((a.placeholder,))
    return frozenset()


def action_names(a: Action) -> frozenset[Name]:
    return action_free_names(a) | action_bound_names(a)


def rename_action(a: Action, sub: Mapping[Name, Name]) -> Action:
    """Apply a plain name map to every name slot, placeholders included."""
    if isinstance(a, Tau):
        return a
    if isinstance(a, FreeOutput):
        return FreeOutput(sub.get(a.subject, a.subject), sub.get(a.object, a.object))
    if isinstance(a, Input):
        return Input(sub.get(a.subject, a.subject), sub.get(a.placeholder, a.placeholder))
    return BoundOutput(sub.get(a.subject, a.subject), sub.get(a.placeholder, a.placeholder))


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

#: Every process node ever built, keyed on (class, *fields).  Children are
#: interned before their parents, so a key hashes in O(1).  Process-wide
#: and never emptied.
_NODES: dict[tuple, "Process"] = {}

#: One object per distinct name set held in a memo slot.
_NAME_SETS: dict[frozenset[Name], frozenset[Name]] = {}

_set_slot = object.__setattr__


def shared_names(names: frozenset[Name]) -> frozenset[Name]:
    """The one shared frozenset equal to `names`."""
    return _NAME_SETS.setdefault(names, names)


class _Interned(type):
    """Metaclass of the process nodes: a constructor call returns the one
    node of that structure (hash-consing, after Filliatre & Conchon,
    "Type-Safe Modular Hash-Consing", ML Workshop 2006).  Children are
    interned before their parent, so a new node's facts (`_facts`) are
    read off its children's slots."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = super().__call__(*fields)
            free, names, pos, height = _facts(node)
            _set_slot(node, "_free", shared_names(free))
            _set_slot(node, "_all", shared_names(names))
            _set_slot(node, "_pos", pos)
            _set_slot(node, "_height", height)
            _set_slot(node, "_canon", None)
            # setdefault: two threads never make two nodes of one structure.
            node = _NODES.setdefault(key, node)
        return node


class _Node(metaclass=_Interned):
    """Fact and memo slots of a process node; copies and unpickling return
    the interned node itself."""

    __slots__ = ("_free", "_all", "_pos", "_height", "_canon")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True, slots=True, eq=False)
class Nil(_Node):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class TauPrefix(_Node):
    cont: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class OutputPrefix(_Node):
    subject: Name
    object: Name
    cont: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class InputPrefix(_Node):
    subject: Name
    binder: Name
    cont: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Restriction(_Node):
    binder: Name
    body: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Sum(_Node):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Par(_Node):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Call(_Node):
    ident: Name
    args: tuple[Name, ...]


Process = Nil | TauPrefix | OutputPrefix | InputPrefix | Restriction | Sum | Par | Call


def _facts(p: Process) -> tuple[frozenset[Name], frozenset[Name], int, Optional[int]]:
    """Free names, all names, positions and prefix height of a new node,
    from the slots of its children."""
    cls = type(p)
    if cls is Nil:
        return frozenset(), frozenset(), 0, 0
    if cls is Call:
        names = frozenset(p.args)
        return names, names, 1, None
    if cls is Restriction:
        body = p.body
        return body._free - {p.binder}, body._all | {p.binder}, body._pos, body._height
    if cls is Sum or cls is Par:
        left, right = p.left, p.right
        hl, hr = left._height, right._height
        return (left._free | right._free, left._all | right._all,
                left._pos + right._pos, None if hl is None or hr is None else max(hl, hr))
    cont = p.cont
    free, names, h = cont._free, cont._all, cont._height
    h = None if h is None else h + 1
    if cls is OutputPrefix:
        free = free | {p.subject, p.object}
        names = names | {p.subject, p.object}
    elif cls is InputPrefix:
        free = (free - {p.binder}) | {p.subject}
        names = names | {p.subject, p.binder}
    return free, names, 1 + cont._pos, h


NIL = Nil()


def sum_of(terms: Iterable[Process]) -> Process:
    """Right-nested sum of `terms`; the empty sum is nil."""
    items = list(terms)
    if not items:
        return NIL
    out = items[-1]
    for t in reversed(items[:-1]):
        out = Sum(t, out)
    return out


def subterms(p: Process) -> Iterator[Process]:
    """Preorder traversal of the syntax tree."""
    stack = [p]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, TauPrefix):
            stack.append(t.cont)
        elif isinstance(t, (OutputPrefix, InputPrefix)):
            stack.append(t.cont)
        elif isinstance(t, Restriction):
            stack.append(t.body)
        elif isinstance(t, (Sum, Par)):
            stack.append(t.right)
            stack.append(t.left)


def free_names(p: Process) -> frozenset[Name]:
    try:
        return p._free
    except AttributeError:
        raise TypeError(f"not a process: {p!r}") from None


def all_names(p: Process) -> frozenset[Name]:
    """Every name occurring in `p`, free or bound."""
    try:
        return p._all
    except AttributeError:
        raise TypeError(f"not a process: {p!r}") from None


def bound_names(p: Process) -> frozenset[Name]:
    return all_names(p) - free_names(p)


def positions(p: Process) -> int:
    """Count of the prefixes and calls of `p`: the positions an annotated
    term (`semantics.ATerm`) annotates."""
    return p._pos


def prefix_height(p: Process) -> Optional[int]:
    """Longest chain of nested prefixes; None when a Call makes it unbounded."""
    return p._height


# --------------------------------------------------------------------------
# Substitution (capture-avoiding)
# --------------------------------------------------------------------------

def substitute(p: Process, sub: Mapping[Name, Name]) -> Process:
    """Apply the name-for-name substitution `sub` to `p`.

    Binders are renamed to deterministic fresh names whenever they would
    capture a name introduced by the substitution, so the result is always
    alpha-equivalent to the naive textual substitution when no capture is
    possible.
    """
    live = {k: v for k, v in sub.items() if k != v}
    if not live:
        return p
    return _subst(p, live)


def _subst(p: Process, sub: dict[Name, Name]) -> Process:
    if p._free.isdisjoint(sub):
        return p
    if isinstance(p, OutputPrefix):
        cont = p.cont
        return OutputPrefix(sub.get(p.subject, p.subject), sub.get(p.object, p.object),
                            cont if cont._free.isdisjoint(sub) else _subst(cont, sub))
    if isinstance(p, (Sum, Par)):
        left, right = p.left, p.right
        return type(p)(left if left._free.isdisjoint(sub) else _subst(left, sub),
                       right if right._free.isdisjoint(sub) else _subst(right, sub))
    if isinstance(p, TauPrefix):
        return TauPrefix(_subst(p.cont, sub))
    if isinstance(p, InputPrefix):
        binder, cont = _subst_binder(p.binder, p.cont, sub)
        return InputPrefix(sub.get(p.subject, p.subject), binder, cont)
    if isinstance(p, Restriction):
        binder, body = _subst_binder(p.binder, p.body, sub)
        return Restriction(binder, body)
    return Call(p.ident, tuple(sub.get(a, a) for a in p.args))


def _subst_binder(binder: Name, scope: Process,
                  sub: dict[Name, Name]) -> tuple[Name, Process]:
    free = scope._free
    relevant = {k: v for k, v in sub.items() if k != binder and k in free}
    if not relevant:
        return binder, scope
    if binder in relevant.values():
        # Renaming first keeps the incoming names from being captured.
        avoid = scope._all | set(relevant) | set(relevant.values()) | {binder}
        newb = fresh_name(avoid)
        scope = _subst(scope, {binder: newb})
        binder = newb
    return binder, _subst(scope, relevant)


# --------------------------------------------------------------------------
# Canonical alpha-normal form
# --------------------------------------------------------------------------

def canonical(p: Process) -> Process:
    """Rename binders to the deterministic sequence b0, b1, ... in preorder.

    Two processes are alpha-equivalent exactly when their canonical forms
    are the same node.  Memoized on `p` and on the result, which is its
    own canonical form.
    """
    try:
        out = p._canon
    except AttributeError:
        raise TypeError(f"not a process: {p!r}") from None
    if out is None:
        out = _canon(p, {}, _binder_names(p._free))
        _set_slot(out, "_canon", out)
        _set_slot(p, "_canon", out)
    return out


def _binder_names(avoid: frozenset[Name]) -> Iterator[Name]:
    """The sequence b0, b1, ... without the names in `avoid`."""
    i = 0
    while True:
        cand = f"b{i}"
        if cand not in avoid:
            yield cand
        i += 1


def _canon(t: Process, env: dict[Name, Name], binders: Iterator[Name]) -> Process:
    if isinstance(t, Nil):
        return t
    if isinstance(t, TauPrefix):
        return TauPrefix(_canon(t.cont, env, binders))
    if isinstance(t, OutputPrefix):
        return OutputPrefix(env.get(t.subject, t.subject),
                            env.get(t.object, t.object), _canon(t.cont, env, binders))
    if isinstance(t, InputPrefix):
        inner = dict(env)
        inner[t.binder] = next(binders)
        return InputPrefix(env.get(t.subject, t.subject), inner[t.binder],
                           _canon(t.cont, inner, binders))
    if isinstance(t, Restriction):
        inner = dict(env)
        inner[t.binder] = next(binders)
        return Restriction(inner[t.binder], _canon(t.body, inner, binders))
    if isinstance(t, Sum):
        return Sum(_canon(t.left, env, binders), _canon(t.right, env, binders))
    if isinstance(t, Par):
        return Par(_canon(t.left, env, binders), _canon(t.right, env, binders))
    return Call(t.ident, tuple(env.get(a, a) for a in t.args))


def alpha_eq(p: Process, q: Process) -> bool:
    """Equality up to consistent renaming of binders."""
    return canonical(p) is canonical(q)


def renaming_form(p: Process, q: Process) -> tuple:
    """A flat tuple equal for two pairs exactly when one pair is the image
    of the other under alpha-conversion and an injective renaming of free
    names, applied to both processes at once.

    The tuple is the preorder of the canonical forms of `p`, then `q`:
    one tag per node and one int per name slot.  A free name is its index
    in first-occurrence order across the pair; a name bound by the i-th
    binder of its side, in preorder, is `-1 - i`.  Canonical binders are
    pairwise distinct and distinct from the free names of their side, so
    a binder's scope needs no tracking.
    """
    out: list = []
    free: dict[Name, int] = {}
    for t in (p, q):
        bound: dict[Name, int] = {}
        # The games pass canonical forms, whose memo slot is themselves.
        canon = t._canon
        stack = [canon if canon is not None else canonical(t)]
        while stack:
            t = stack.pop()
            cls = type(t)
            if cls is OutputPrefix:
                s, o = t.subject, t.object
                out += (2, bound[s] if s in bound else free.setdefault(s, len(free)),
                        bound[o] if o in bound else free.setdefault(o, len(free)))
                stack.append(t.cont)
            elif cls is InputPrefix:
                s = t.subject
                out += (3, bound[s] if s in bound else free.setdefault(s, len(free)))
                bound[t.binder] = -1 - len(bound)
                stack.append(t.cont)
            elif cls is Par or cls is Sum:
                out.append(6 if cls is Par else 5)
                stack += (t.right, t.left)
            elif cls is Nil:
                out.append(0)
            elif cls is TauPrefix:
                out.append(1)
                stack.append(t.cont)
            elif cls is Restriction:
                bound[t.binder] = -1 - len(bound)
                out.append(4)
                stack.append(t.body)
            else:
                out += (7, t.ident, len(t.args),
                        *[bound[a] if a in bound else free.setdefault(a, len(free))
                          for a in t.args])
    return tuple(out)


# --------------------------------------------------------------------------
# Definitions and environments
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Definition:
    ident: Name
    params: tuple[Name, ...]
    body: Process


class Environment:
    """Immutable table of process identifier definitions.

    Validates, at construction, that parameters are pairwise distinct, that
    each body's free names stay within its parameters, and that every call
    in every body resolves with the right arity.
    """

    def __init__(self, defs: Iterable[Definition] = ()) -> None:
        table: dict[Name, Definition] = {}
        for d in defs:
            if d.ident in table:
                raise BadDefinition(f"duplicate definition of {d.ident}")
            if len(set(d.params)) != len(d.params):
                raise BadDefinition(f"{d.ident}: parameters must be pairwise distinct")
            table[d.ident] = d
        for d in table.values():
            extra = free_names(d.body) - set(d.params)
            if extra:
                raise BadDefinition(
                    f"{d.ident}: free names {sorted(extra)} not among parameters")
        self._defs = table
        for d in table.values():
            self.check_calls(d.body)
        self._key = tuple(sorted(
            (d.ident, d.params, d.body) for d in table.values()))
        self._names = frozenset().union(
            *(set(d.params) | all_names(d.body) for d in table.values()))

    def check_calls(self, p: Process) -> None:
        for t in subterms(p):
            if isinstance(t, Call):
                self.lookup(t.ident, arity=len(t.args))

    def lookup(self, ident: Name, arity: Optional[int] = None) -> Definition:
        d = self._defs.get(ident)
        if d is None:
            raise UnknownIdentifier(f"no definition for identifier {ident}")
        if arity is not None and arity != len(d.params):
            raise BadDefinition(
                f"{ident} called with {arity} argument(s), defined with {len(d.params)}")
        return d

    def instantiate(self, call: Call) -> Process:
        d = self.lookup(call.ident, arity=len(call.args))
        return substitute(d.body, dict(zip(d.params, call.args)))

    def names(self) -> frozenset[Name]:
        return self._names

    def idents(self) -> tuple[Name, ...]:
        return tuple(sorted(self._defs))

    def __contains__(self, ident: Name) -> bool:
        return ident in self._defs

    def __len__(self) -> int:
        return len(self._defs)

    @property
    def key(self):
        """Fingerprint used by caches: equal exactly when the definitions
        are the same terms, binder names included."""
        return self._key


EMPTY_ENV = Environment()
