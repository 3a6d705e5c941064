"""Constraint systems: the tableau's working state.

A system is a finite set of constraints over objects (ABox individuals plus
ordered variables):

    o : C        object membership in a simple concept
    s P t        a role-name link between two objects
    forall : C   every object must satisfy C (one per TBox inclusion)
    s != t       the objects must denote distinct elements

Two individuals are separated without any stored `!=` (unique name
assumption).  The `!=` constraints among the k variables of one atleast
application are not stored pair by pair either: the variables share one
sibling group, and two objects sharing a group are separated.  A merge
hands the merged variable's groups to the object replacing it.

Each object is its own sort key: an individual is the tuple (0, name) and
a variable the tuple (1, index) of its creation index, so individuals come
first and variables follow in the processing order; a fresh variable is
always ordered after every existing one.  Systems are immutable;
rule applications build extended copies, which keeps search branches
independent.  A system stores only indexes over a concept table
(`alcnr.table`): labels as id bits by object, link targets by source and
role, sibling groups by object, global concept ids.  The constructor and
`extended` build them through one routine, and `substituted` rewrites
them around the merged variable; memberships and the constraint set, `!=`
pairs included, are decoded from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .syntax import (
    Concept, ConceptAssertion, KnowledgeBase, Not, Or, Role, TOP, is_simple,
    render_concept, to_simple_form,
)
from .table import ConceptTable


# ---------------------------------------------------------------------------
# Objects and constraints
# ---------------------------------------------------------------------------

class _Object(tuple):
    """An object is the tuple (tag, part), its own key: objects hash,
    compare and sort in C, individuals (tag 0) by name before variables
    (tag 1) by creation index."""

    __slots__ = ()

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={self[1]!r})"


class Ind(_Object):
    """An ABox individual, (0, name)."""

    __slots__ = ()
    _field = "name"
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (0, name))


class Var(_Object):
    """A variable, (1, index); each fresh one takes the next index."""

    __slots__ = ()
    _field = "index"
    index = property(itemgetter(1))

    def __new__(cls, index: int):
        return tuple.__new__(cls, (1, index))


Object = Ind | Var

# Individual injected when a KB has an empty ABox: the translation would
# otherwise contain only global constraints, with no object for any rule to
# fire on, while domains must be nonempty.
AUX_INDIVIDUAL = "__aux"


def object_str(o: Object) -> str:
    return o.name if isinstance(o, Ind) else f"_v{o.index}"


@dataclass(frozen=True, slots=True)
class Member:
    obj: Object
    concept: Concept

    def __post_init__(self) -> None:
        if not is_simple(self.concept):
            raise ValueError(f"membership concepts must be simple: {render_concept(self.concept)}")

    @classmethod
    def _trusted(cls, obj: Object, concept: Concept) -> "Member":
        """A membership built without the simplicity check, for a concept
        known to be simple: the search's rules only add subconcepts of
        simple label and global concepts (checked with `debug_checks`)."""
        m = object.__new__(cls)
        object.__setattr__(m, "obj", obj)
        object.__setattr__(m, "concept", concept)
        return m


@dataclass(frozen=True, slots=True)
class RoleLink:
    source: Object
    role_name: str
    target: Object


@dataclass(frozen=True, slots=True)
class Global:
    concept: Concept

    def __post_init__(self) -> None:
        if not is_simple(self.concept):
            raise ValueError(f"global constraints must be simple: {render_concept(self.concept)}")

    @classmethod
    def _trusted(cls, concept: Concept) -> "Global":
        """A global constraint built without the simplicity check, for a
        concept taken from a system's globals."""
        g = object.__new__(cls)
        object.__setattr__(g, "concept", concept)
        return g


@dataclass(frozen=True, slots=True)
class Distinct:
    first: Object
    second: Object

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"an object cannot be distinct from itself: {object_str(self.first)}")
        if self.first > self.second:
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)


@dataclass(frozen=True, slots=True)
class Siblings:
    """The fresh variables of one atleast application, pairwise separated.

    Not a constraint of its own: a system indexes it as one sibling group,
    whose id is the first variable's index, and derives its `!=` pairs."""

    members: tuple[Var, ...]

    def pairs(self) -> list[Distinct]:
        return [Distinct(a, b) for a, b in combinations(self.members, 2)]


Constraint = Member | RoleLink | Global | Distinct

_EMPTY: frozenset = frozenset()
_NO_LINKS: Mapping = MappingProxyType({})
_NO_CONCEPTS = ConceptTable()


def constraint_str(c: Constraint) -> str:
    if isinstance(c, Member):
        return f"{object_str(c.obj)} : {render_concept(c.concept)}"
    if isinstance(c, RoleLink):
        return f"{object_str(c.source)} {c.role_name} {object_str(c.target)}"
    if isinstance(c, Global):
        return f"forall : {render_concept(c.concept)}"
    return f"{object_str(c.first)} != {object_str(c.second)}"


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SystemMetrics:
    concept_count: int    # distinct concepts in the system, sub-expressions included
    variable_count: int
    unblocked_count: int


class ConstraintSystem:
    """An immutable constraint set plus the next free variable index.

    The set is stored only as indexes over a concept table (see
    `alcnr.table`): `_labels` maps every object to its label, an int whose
    bit i holds the table's concept i (0 for an object with only links or
    `!=` pairs), `_links` maps a source to {role name: targets}, `_groups`
    maps an object to the ids of its sibling groups (absent: none),
    `_globals` holds the ids of the global concepts in `concept_key` order
    and `size` counts the constraints, each `!=` pair between two members
    of a group included (the paper's count); `stored` counts what the
    indexes hold, which the search's guards charge: the constraints but
    the `!=` pairs, and one per sibling group.  A derived system shares
    with its parent its table and every dict and set that its step does
    not change; a step that adds a concept outside the table gives the
    derived system a grown table and leaves the parent's alone.  `concept_table()` closes an open table on
    first use and keeps the closed one, which every system derived later
    shares.  Memberships, the constraint set, `dump` and the search's trace
    are decoded through the table.

    The constructor and `extended` take `!=` constraints as `Distinct`
    pairs, each a group of two unless its objects already share a group
    (its id is the pair itself), and as `Siblings`.  `extended` also takes a
    membership as an (object, concept id) pair, which is how the search
    adds them.
    """

    __slots__ = (
        "next_var_index", "kb", "size", "stored",
        "_table", "_labels", "_links", "_groups", "_globals", "_unfolding",
        "_objects", "_constraints", "_witnesses",
    )

    def __init__(self, constraints: Iterable[Constraint], next_var_index: int,
                 kb: KnowledgeBase):
        self.next_var_index = next_var_index
        self.kb = kb
        self.size = self.stored = 0
        self._table = _NO_CONCEPTS
        self._labels: dict[Object, int] = {}
        self._links: dict[Object, dict[str, frozenset[Object]]] = {}
        self._groups: dict[Object, frozenset] = {}
        self._globals: tuple[int, ...] = ()
        self._unfolding: tuple | None = None
        self._objects: list[Object] = []
        self._constraints: frozenset[Constraint] | None = None
        self._witnesses: dict[Var, Var] | None = None
        self._add(constraints)

    def _add(self, batch: Iterable) -> None:
        """Index a batch of constraints, grouped first so that each object
        and each (object, role) costs one union.  A changed dict or set is
        replaced, never written: the parent may share it, and the table
        too: if the batch has a concept new to the table, its concepts are
        given ids in one grown copy.  New objects join the sorted object
        list at its end unless one sorts before its last object."""
        gained: dict[Object, int] = {}
        members: list[Member | Global] = []
        targets: dict[Object, dict[str, set[Object]]] = {}
        pairs: list[tuple[Object, Object]] = []
        siblings: list[tuple[Var, ...]] = []
        globals_: list[int] = []
        for c in batch:
            kind = type(c)
            if kind is tuple:
                o, i = c
                gained[o] = gained.get(o, 0) | 1 << i
            elif kind is Member or kind is Global:
                members.append(c)
            elif kind is RoleLink:
                targets.setdefault(c.source, {}).setdefault(c.role_name, set()).add(c.target)
            elif kind is Siblings:
                siblings.append(c.members)
            else:
                pairs.append((c.first, c.second))
        table = self._table
        ids = table.ids
        for c in members:
            if c.concept not in ids:
                table = self._table = table.grown([m.concept for m in members])
                ids = table.ids
                break
        for c in members:
            if type(c) is Member:
                gained[c.obj] = gained.get(c.obj, 0) | 1 << ids[c.concept]
            else:
                globals_.append(ids[c.concept])

        known = len(self._labels)
        labels = dict(self._labels)
        size = self.size
        for o, bits in gained.items():
            have = labels.get(o, 0)
            labels[o] = have | bits
            size += (bits & ~have).bit_count()
        grouped = 0  # what `stored` counts for new sibling groups less what `size` does
        if targets or pairs or siblings:
            ends = set(targets)  # objects of links and groups
            if targets:
                links = dict(self._links)
                for o, by_role in targets.items():
                    old = links.get(o, _NO_LINKS)
                    for p, ts in by_role.items():
                        ends |= ts
                        have = old.get(p, _EMPTY)
                        by_role[p] = have.union(ts)
                        size += len(by_role[p]) - len(have)
                    for p, ts in old.items():
                        by_role.setdefault(p, ts)
                links.update(targets)
                self._links = links
            if pairs or siblings:
                groups = self._groups = dict(self._groups)
                for members in siblings:
                    # fresh variables share no group yet: every pair is new
                    groups.update(dict.fromkeys(members, frozenset({members[0].index})))
                    pairs_in = len(members) * (len(members) - 1) // 2
                    size += pairs_in
                    grouped += 1 - pairs_in
                    ends.update(members)
                for a, b in pairs:
                    was_a, was_b = groups.get(a, _EMPTY), groups.get(b, _EMPTY)
                    if was_a.isdisjoint(was_b):
                        group = frozenset({(a, b)})
                        groups[a], groups[b] = was_a | group, was_b | group
                        size += 1
                    ends.update((a, b))
            for o in ends.difference(labels):
                labels[o] = 0
        if globals_:
            union = set(self._globals).union(globals_)
            size += len(union) - len(self._globals)
            concepts = table.concepts
            self._globals = tuple(sorted(union, key=lambda i: concepts[i]._key))
            self._unfolding = None
        if len(labels) > known:
            # a dict keeps insertion order, so the new objects come last
            fresh = sorted(islice(labels, known, None))
            objects = self._objects
            if objects and fresh[0] < objects[-1]:
                self._objects = sorted(labels)
            else:
                self._objects = objects + fresh
        self._labels = labels
        self.stored += size - self.size + grouped
        self.size = size

    def _each(self) -> Iterator[Constraint]:
        """Every constraint but the `!=` pairs, decoded from the indexes."""
        concepts = self._table.concepts
        yield from (Global._trusted(concepts[i]) for i in self._globals)
        for o, bits in self._labels.items():
            yield from (Member._trusted(o, c) for c in self._table.decode(bits))
        for o, by_role in self._links.items():
            yield from (RoleLink(o, p, t) for p, ts in by_role.items() for t in ts)

    @property
    def constraints(self) -> frozenset[Constraint]:
        """The constraint set, derived from the indexes on first use: it is
        for tests, dump and API callers, and the search never builds it."""
        if self._constraints is None:
            self._constraints = frozenset(chain(
                self._each(), (Distinct(a, b) for a, b in self.distinct_pairs())
            ))
        return self._constraints

    # -- accessors ----------------------------------------------------------

    def concept_table(self) -> ConceptTable:
        """The system's concept table, closed: closed on first use and kept,
        with the same ids, so that every system derived from this one
        afterwards shares it."""
        table = self._table
        if not table.closed:
            table = self._table = table.closed_copy()
        return table

    def objects(self) -> list[Object]:
        return self._objects

    def individuals(self) -> list[Ind]:
        return [o for o in self._objects if isinstance(o, Ind)]

    def variables(self) -> list[Var]:
        return [o for o in self._objects if isinstance(o, Var)]

    def unfolding(self) -> tuple[tuple[int, int, tuple[frozenset[str], ...]], ...]:
        """Per global concept, in key order: its id and its `disjuncts` in the
        closed table (what lazy unfolding reads).  Computed once and shared
        with every system derived afterwards, since no rule adds a global."""
        if self._unfolding is None:
            table = self.concept_table()
            self._unfolding = tuple((g, *table.disjuncts(g)) for g in self._globals)
        return self._unfolding

    def global_concepts(self) -> tuple[Concept, ...]:
        concepts = self._table.concepts
        return tuple(concepts[i] for i in self._globals)

    def label(self, o: Object) -> int:
        """o's label as table-id bits (0 for an absent object)."""
        return self._labels.get(o, 0)

    def member_concepts(self, o: Object) -> frozenset[Concept]:
        """The concept label set of an object (membership constraints only)."""
        return frozenset(self._table.decode(self._labels.get(o, 0)))

    def has_member(self, o: Object, c: Concept) -> bool:
        i = self._table.ids.get(c)
        return i is not None and bool(self._labels.get(o, 0) >> i & 1)

    def link_targets(self, o: Object) -> Mapping[str, frozenset[Object]]:
        """Role name -> the targets of o's links, read-only."""
        return MappingProxyType(self._links.get(o, _NO_LINKS))

    def links_from(self, o: Object) -> list[RoleLink]:
        by_role = self._links.get(o, _NO_LINKS)
        return [
            RoleLink(o, p, t)
            for p in sorted(by_role) for t in sorted(by_role[p])
        ]

    def role_successors(self, o: Object, r: Role) -> list[Object]:
        """Objects linked from o by every role name of the conjunction r."""
        by_role = self._links.get(o, _NO_LINKS)
        found = by_role.get(r.names[0], _EMPTY)
        for name in r.names[1:]:
            found = found & by_role.get(name, _EMPTY)
        return sorted(found)

    def has_successors(self, o: Object) -> bool:
        return bool(self._links.get(o))

    def groups_of(self, o: Object) -> frozenset:
        """The ids of o's sibling groups."""
        return self._groups.get(o, _EMPTY)

    def sibling_groups(self) -> dict[object, list[Object]]:
        """Group id -> its members, in object order."""
        found: dict[object, list[Object]] = {}
        for o in self._objects:
            for g in self._groups.get(o, ()):
                found.setdefault(g, []).append(o)
        return found

    def siblings(self, o: Object) -> set[Object]:
        """The objects sharing a sibling group with o."""
        mine = self._groups.get(o)
        if not mine:
            return set()
        return {z for z, gs in self._groups.items() if not mine.isdisjoint(gs)} - {o}

    def distinct_pairs(self) -> frozenset[tuple[Object, Object]]:
        """The `!=` pairs, each in object order, derived from the groups: for
        tests, dump and API callers, not for the search."""
        return frozenset(chain.from_iterable(
            combinations(members, 2) for members in self.sibling_groups().values()
        ))

    def separated(self, a: Object, b: Object) -> bool:
        """Must a and b denote distinct elements: two individuals (unique
        names), or two objects sharing a sibling group?"""
        if isinstance(a, Ind) and isinstance(b, Ind):
            return a != b
        mine = self._groups.get(a)
        return mine is not None and not mine.isdisjoint(self._groups.get(b, _EMPTY)) \
            and a != b

    # -- labels, witnesses, blocking ----------------------------------------

    def witness(self, x: Var) -> Var | None:
        """The least earlier variable carrying exactly the same label set."""
        return self.witnesses().get(x)

    def witnesses(self) -> dict[Var, Var]:
        """Every blocked variable -> its witness, in variable order, from one
        pass that maps each label to its first variable; cached."""
        if self._witnesses is None:
            first: dict[int, Var] = {}
            found = {}
            for v in self._objects:
                if isinstance(v, Var):
                    w = first.setdefault(self._labels[v], v)
                    if w is not v:
                        found[v] = w
            self._witnesses = found
        return self._witnesses

    def is_blocked(self, x: Object) -> bool:
        return isinstance(x, Var) and self.witness(x) is not None

    def metrics(self) -> SystemMetrics:
        present = 0
        for i in self._globals:
            present |= 1 << i
        for bits in self._labels.values():
            present |= bits
        variables = self.variables()
        return SystemMetrics(
            self.concept_table().closure_count(present), len(variables),
            len(variables) - len(self.witnesses()),
        )

    # -- derived systems ------------------------------------------------------

    def _derived(self, next_var_index: int) -> "ConstraintSystem":
        child = object.__new__(ConstraintSystem)
        child.next_var_index = next_var_index
        child.kb = self.kb
        child.size = self.size
        child.stored = self.stored
        child._table = self._table
        child._labels = self._labels
        child._links = self._links
        child._groups = self._groups
        child._globals = self._globals
        child._unfolding = self._unfolding
        child._objects = self._objects
        child._constraints = None
        child._witnesses = None
        return child

    def extended(self, added, next_var_index: int | None = None) -> "ConstraintSystem":
        """The system plus the `added` constraints (the search extends a
        system once per rule application, so this is the hot path)."""
        child = self._derived(
            self.next_var_index if next_var_index is None else next_var_index
        )
        child._add(added)
        return child

    def substituted(self, y: Var, t: Object) -> "ConstraintSystem":
        """S[y/t]: every occurrence of the variable y replaced by t.

        t takes y's label, links and groups, and links to y go to t; each
        pair (y, z) of a group becomes (t, z), and the pairs t already had
        are counted once."""
        if not isinstance(y, Var):
            raise ValueError("only variables can be substituted away")
        if y == t:
            raise ValueError("substitution target must differ from the variable")
        if self.separated(y, t):
            raise ValueError(
                f"cannot substitute {object_str(y)} by the separated {object_str(t)}"
            )
        child = self._derived(self.next_var_index)
        labels = dict(self._labels)
        labels[t] = labels.get(t, 0) | labels.pop(y, 0)
        links: dict[Object, dict[str, frozenset[Object]]] = {}
        for o, by_role in self._links.items():
            s = t if o == y else o
            mine = links.setdefault(s, {})
            for p, ts in by_role.items():
                if y in ts:
                    ts = ts - {y} | {t}
                mine[p] = mine.get(p, _EMPTY) | ts
        # the `!=` pairs are what `size` counts beyond the other constraints,
        # and the groups what `stored` counts beyond them; a merge keeps
        # every group
        pairs = self.size - len(self._globals) - sum(
            bits.bit_count() for bits in self._labels.values()
        ) - sum(len(ts) for by_role in self._links.values() for ts in by_role.values())
        groups_count = self.stored - self.size + pairs
        mine = self._groups.get(y)
        if mine:
            pairs -= len(self.siblings(y) & self.siblings(t))
            groups = child._groups = dict(self._groups)
            del groups[y]
            groups[t] = groups.get(t, _EMPTY) | mine
            for o in groups:
                labels.setdefault(o, 0)  # objects with nothing but `!=` pairs
        child._labels = labels
        child._links = links
        child._objects = sorted(labels)
        rest = len(self._globals) + sum(
            bits.bit_count() for bits in labels.values()
        ) + sum(len(ts) for by_role in links.values() for ts in by_role.values())
        child.size = rest + pairs
        child.stored = rest + groups_count
        return child

    def dump(self) -> str:
        """Debug form, one constraint per line, sorted."""
        return "\n".join(sorted(constraint_str(c) for c in self.constraints))

    def __repr__(self) -> str:
        return f"<ConstraintSystem {self.size} constraints, next_var={self.next_var_index}>"


def translate_kb(kb: KnowledgeBase) -> ConstraintSystem:
    """Build the initial constraint system of a knowledge base.

    Each inclusion C <= D becomes a global constraint on the simple form of
    (not C) or D; assertions become memberships and role links.  No `!=` is
    emitted between individuals: `separated` holds for every pair of them
    (unique name assumption).  A KB with an empty ABox gets one auxiliary
    individual asserted to TOP so the system is nonempty.
    """
    constraints: list[Constraint] = [
        Global(to_simple_form(Or(Not(inc.lhs), inc.rhs))) for inc in kb.tbox
    ]
    for a in kb.abox:
        if isinstance(a, ConceptAssertion):
            constraints.append(Member(Ind(a.individual), to_simple_form(a.concept)))
        else:
            constraints += (RoleLink(Ind(a.subject), p, Ind(a.target)) for p in a.role.names)
    if not kb.abox:
        constraints.append(Member(Ind(AUX_INDIVIDUAL), TOP))
    return ConstraintSystem(constraints, 0, kb)
