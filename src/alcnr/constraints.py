"""Constraint systems: the tableau's working state.

A system is a finite set of constraints over objects (ABox individuals plus
ordered variables):

    o : C        object membership in a simple concept
    s P t        a role-name link between two objects
    forall : C   every object must satisfy C (one per TBox inclusion)
    s != t       the objects must denote distinct elements

Two individuals are separated without any stored `!=` (unique name
assumption); the stored ones come from the atleast rule and merges.

Variables carry a creation index realizing the processing order: a fresh
variable is always ordered after every existing one.  Systems are immutable;
rule applications build extended copies, which keeps search branches
independent.  Per-instance indexes (members by object, links by source,
label sets) are built once in the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    Concept, ConceptAssertion, KnowledgeBase, Not, Or, Role, TOP, concept_key,
    is_simple, render_concept, subconcepts, to_simple_form,
)


# ---------------------------------------------------------------------------
# Objects and constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Ind:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((0, self.name)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Var:
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((1, self.index)))

    def __hash__(self) -> int:
        return self._hash


Object = Ind | Var

# Individual injected when a KB has an empty ABox: the translation would
# otherwise contain only global constraints, with no object for any rule to
# fire on, while domains must be nonempty.
AUX_INDIVIDUAL = "__aux"


def object_key(o: Object):
    """Total order: individuals (by name) before variables (by index)."""
    if isinstance(o, Ind):
        return (0, o.name)
    return (1, o.index)


def object_str(o: Object) -> str:
    return o.name if isinstance(o, Ind) else f"_v{o.index}"


@dataclass(frozen=True, slots=True)
class Member:
    obj: Object
    concept: Concept
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_simple(self.concept):
            raise ValueError(f"membership concepts must be simple: {render_concept(self.concept)}")
        object.__setattr__(self, "_hash", hash((2, self.obj, self.concept)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class RoleLink:
    source: Object
    role_name: str
    target: Object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((3, self.source, self.role_name, self.target)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Global:
    concept: Concept
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_simple(self.concept):
            raise ValueError(f"global constraints must be simple: {render_concept(self.concept)}")
        object.__setattr__(self, "_hash", hash((4, self.concept)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Distinct:
    first: Object
    second: Object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"an object cannot be distinct from itself: {object_str(self.first)}")
        if object_key(self.first) > object_key(self.second):
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)
        object.__setattr__(self, "_hash", hash((5, self.first, self.second)))

    def __hash__(self) -> int:
        return self._hash


Constraint = Member | RoleLink | Global | Distinct

_EMPTY_LABELS: frozenset = frozenset()


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
    """An immutable constraint set plus the next free variable index."""

    __slots__ = (
        "constraints", "next_var_index", "kb",
        "_members", "_links_out", "_succ", "_distinct", "_globals",
        "_objects_set", "_objects_sorted", "_globals_sorted",
        "_members_sorted", "_labels",
    )

    def __init__(self, constraints: frozenset[Constraint], next_var_index: int,
                 kb: KnowledgeBase):
        self.constraints = frozenset(constraints)
        self.next_var_index = next_var_index
        self.kb = kb

        members: dict[Object, frozenset[Concept]] = {}
        links_out: dict[Object, list[RoleLink]] = {}
        succ: dict[tuple[Object, str], set[Object]] = {}
        distinct: set[tuple[Object, Object]] = set()
        objects: set[Object] = set()
        globals_: set[Concept] = set()
        grouped: dict[Object, set[Concept]] = {}
        for c in self.constraints:
            if isinstance(c, Member):
                grouped.setdefault(c.obj, set()).add(c.concept)
                objects.add(c.obj)
            elif isinstance(c, RoleLink):
                links_out.setdefault(c.source, []).append(c)
                succ.setdefault((c.source, c.role_name), set()).add(c.target)
                objects.add(c.source)
                objects.add(c.target)
            elif isinstance(c, Global):
                globals_.add(c.concept)
            else:
                distinct.add((c.first, c.second))
                objects.add(c.first)
                objects.add(c.second)
        for o, cs in grouped.items():
            members[o] = frozenset(cs)
        self._members = members
        self._links_out = links_out
        self._succ = succ
        self._distinct = distinct
        self._globals = globals_
        self._objects_set = frozenset(objects)
        self._objects_sorted = sorted(objects, key=object_key)
        self._globals_sorted = sorted(globals_, key=concept_key)
        self._members_sorted: dict[Object, list[Concept]] = {}
        self._labels: dict[Var, frozenset[Concept]] | None = None

    # -- accessors ----------------------------------------------------------

    def objects(self) -> list[Object]:
        return self._objects_sorted

    def individuals(self) -> list[Ind]:
        return [o for o in self._objects_sorted if isinstance(o, Ind)]

    def variables(self) -> list[Var]:
        return [o for o in self._objects_sorted if isinstance(o, Var)]

    def global_concepts(self) -> list[Concept]:
        return self._globals_sorted

    def member_concepts(self, o: Object) -> frozenset[Concept]:
        """The concept label set of an object (membership constraints only)."""
        return self._members.get(o, _EMPTY_LABELS)

    def member_concepts_sorted(self, o: Object) -> list[Concept]:
        found = self._members_sorted.get(o)
        if found is None:
            found = sorted(self._members.get(o, ()), key=concept_key)
            self._members_sorted[o] = found
        return found

    def has_member(self, o: Object, c: Concept) -> bool:
        return c in self._members.get(o, _EMPTY_LABELS)

    def links_from(self, o: Object) -> list[RoleLink]:
        return sorted(
            self._links_out.get(o, ()),
            key=lambda l: (l.role_name, object_key(l.target)),
        )

    def role_successors(self, o: Object, r: Role) -> list[Object]:
        """Objects linked from o by every role name of the conjunction r."""
        found = self._succ.get((o, r.names[0]))
        if not found:
            return []
        found = set(found)
        for name in r.names[1:]:
            found &= self._succ.get((o, name), set())
            if not found:
                return []
        return sorted(found, key=object_key)

    def has_successors(self, o: Object) -> bool:
        return bool(self._links_out.get(o))

    def separated(self, a: Object, b: Object) -> bool:
        if isinstance(a, Ind) and isinstance(b, Ind):
            return a != b
        if object_key(a) > object_key(b):
            a, b = b, a
        return (a, b) in self._distinct

    # -- labels, witnesses, blocking ----------------------------------------

    def _variable_labels(self) -> dict[Var, frozenset[Concept]]:
        if self._labels is None:
            self._labels = {v: self.member_concepts(v) for v in self.variables()}
        return self._labels

    def labels_equal(self, x: Object, y: Object) -> bool:
        return self.member_concepts(x) == self.member_concepts(y)

    def witness(self, x: Var) -> Var | None:
        """The least earlier variable carrying exactly the same label set."""
        labels = self._variable_labels()
        mine = labels.get(x, self.member_concepts(x))
        for w in self.variables():
            if w.index >= x.index:
                return None
            if labels[w] == mine:
                return w
        return None

    def is_blocked(self, x: Object) -> bool:
        return isinstance(x, Var) and self.witness(x) is not None

    def metrics(self) -> SystemMetrics:
        concepts: set[Concept] = set()
        for c in self.constraints:
            if isinstance(c, Member):
                concepts |= subconcepts(c.concept)
            elif isinstance(c, Global):
                concepts |= subconcepts(c.concept)
        variables = self.variables()
        unblocked = sum(1 for v in variables if not self.is_blocked(v))
        return SystemMetrics(len(concepts), len(variables), unblocked)

    # -- derived systems ------------------------------------------------------

    def extended(self, added, next_var_index: int | None = None) -> "ConstraintSystem":
        """An extended copy; indexes are derived incrementally (the search
        extends systems once per rule application, so this is the hot path)."""
        added = [c for c in added if c not in self.constraints]
        child = object.__new__(ConstraintSystem)
        child.constraints = self.constraints.union(added)
        child.next_var_index = (
            self.next_var_index if next_var_index is None else next_var_index
        )
        child.kb = self.kb
        members = dict(self._members)
        links_out = self._links_out
        succ = self._succ
        distinct = self._distinct
        globals_ = self._globals
        globals_sorted = self._globals_sorted
        members_sorted = dict(self._members_sorted)
        labels = dict(self._labels) if self._labels is not None else None
        new_objects: set[Object] = set()
        links_copied = succ_copied = distinct_copied = globals_copied = False
        for c in added:
            if isinstance(c, Member):
                have = members.get(c.obj)
                members[c.obj] = frozenset((c.concept,)) if have is None \
                    else have | {c.concept}
                members_sorted.pop(c.obj, None)
                if labels is not None and isinstance(c.obj, Var):
                    labels[c.obj] = members[c.obj]
                if c.obj not in self._objects_set:
                    new_objects.add(c.obj)
            elif isinstance(c, RoleLink):
                if not links_copied:
                    links_out = dict(links_out)
                    succ = dict(succ)
                    links_copied = True
                links_out[c.source] = links_out.get(c.source, []) + [c]
                key = (c.source, c.role_name)
                succ[key] = succ[key] | {c.target} if key in succ else {c.target}
                for o in (c.source, c.target):
                    if o not in self._objects_set:
                        new_objects.add(o)
            elif isinstance(c, Distinct):
                if not distinct_copied:
                    distinct = set(distinct)
                    distinct_copied = True
                distinct.add((c.first, c.second))
                for o in (c.first, c.second):
                    if o not in self._objects_set:
                        new_objects.add(o)
            else:
                if not globals_copied:
                    globals_ = set(globals_)
                    globals_copied = True
                globals_.add(c.concept)
                globals_sorted = None
        child._members = members
        child._links_out = links_out
        child._succ = succ
        child._distinct = distinct
        child._globals = globals_
        child._objects_set = self._objects_set | new_objects
        if new_objects:
            fresh = sorted(new_objects, key=object_key)
            if self._objects_sorted and fresh and \
                    object_key(fresh[0]) > object_key(self._objects_sorted[-1]):
                child._objects_sorted = self._objects_sorted + fresh
            else:
                child._objects_sorted = sorted(child._objects_set, key=object_key)
            if labels is not None:
                for o in fresh:
                    if isinstance(o, Var):
                        labels[o] = members.get(o, _EMPTY_LABELS)
        else:
            child._objects_sorted = self._objects_sorted
        child._globals_sorted = (
            sorted(globals_, key=concept_key) if globals_sorted is None
            else globals_sorted
        )
        child._members_sorted = members_sorted
        child._labels = labels
        return child

    def substituted(self, y: Var, t: Object) -> "ConstraintSystem":
        """S[y/t]: every occurrence of the variable y replaced by t."""
        if not isinstance(y, Var):
            raise ValueError("only variables can be substituted away")
        if y == t:
            raise ValueError("substitution target must differ from the variable")

        def swap(o: Object) -> Object:
            return t if o == y else o

        out: set[Constraint] = set()
        for c in self.constraints:
            if isinstance(c, Member):
                out.add(Member(swap(c.obj), c.concept))
            elif isinstance(c, RoleLink):
                out.add(RoleLink(swap(c.source), c.role_name, swap(c.target)))
            elif isinstance(c, Distinct):
                out.add(Distinct(swap(c.first), swap(c.second)))
            else:
                out.add(c)
        return ConstraintSystem(frozenset(out), self.next_var_index, self.kb)

    def dump(self) -> str:
        """Debug form, one constraint per line, sorted."""
        return "\n".join(sorted(constraint_str(c) for c in self.constraints))

    def __repr__(self) -> str:
        return f"<ConstraintSystem {len(self.constraints)} constraints, next_var={self.next_var_index}>"


def translate_kb(kb: KnowledgeBase) -> ConstraintSystem:
    """Build the initial constraint system of a knowledge base.

    Each inclusion C <= D becomes a global constraint on the simple form of
    (not C) or D; assertions become memberships and role links.  No `!=` is
    emitted between individuals: `separated` holds for every pair of them
    (unique name assumption).  A KB with an empty ABox gets one auxiliary
    individual asserted to TOP so the system is nonempty.
    """
    constraints: set[Constraint] = set()
    for inc in kb.tbox:
        constraints.add(Global(to_simple_form(Or(Not(inc.lhs), inc.rhs))))
    for a in kb.abox:
        if isinstance(a, ConceptAssertion):
            constraints.add(Member(Ind(a.individual), to_simple_form(a.concept)))
        else:
            for p in a.role.names:
                constraints.add(RoleLink(Ind(a.subject), p, Ind(a.target)))
    if not kb.abox:
        constraints.add(Member(Ind(AUX_INDIVIDUAL), TOP))
    return ConstraintSystem(frozenset(constraints), 0, kb)
