"""Abstract syntax for ALCNR concepts, roles, and knowledge bases.

Concept expressions are immutable values, each identified by its key (see
:func:`concept_key`), a nested tuple from which its equality, its hash and
a total order follow; the order keeps every downstream iteration
deterministic.  A role is a nonempty conjunction of role names,
canonicalized to a sorted, deduplicated tuple, its key, so that role
equality is set equality.

The textual exchange format is s-expression based, one statement per
top-level form, with ``;`` line comments:

    concept   ::=  NAME | TOP | BOTTOM
                |  (and C C+) | (or C C+) | (not C)
                |  (all R C)  | (some R C)
                |  (atleast n R) | (atmost n R)
    role      ::=  PNAME | (and PNAME+)
    statement ::=  (implies C D)
                |  (define-concept A D)      ; sugar for A <= D and D <= A
                |  (define-primitive A D)    ; sugar for A <= D
                |  (instance a C)
                |  (related a b R)

N-ary ``and``/``or`` fold left onto the binary AST.  Names are case
sensitive and the concept / role / individual namespaces must be disjoint
within one knowledge base.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from itertools import islice


# ---------------------------------------------------------------------------
# Concept and role AST
# ---------------------------------------------------------------------------

MAX_NUMBER = 2**64 - 1  # AST-level bound; the parser applies a tighter cap
DEFAULT_NUMBER_CAP = 2**20


class _Node:
    """A concept or role: immutable, and identified by its key, a tuple that
    its constructor sets once with `_keyed` (a concept's tag and its parts'
    keys; a role's names).  Equality and the cached hash follow from the
    key, so a node hashes and compares in C however deep it is.  Pickle and
    deepcopy rebuild a node from its fields, since a slotted dataclass's
    state omits the base's slots."""

    __slots__ = ("_key", "_hash")

    def _keyed(self, key: tuple) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, slots=True, eq=False)
class Role(_Node):
    """A conjunction of role names, stored sorted and deduplicated."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a role needs at least one role name")
        canon = tuple(sorted(set(self.names)))
        if canon != self.names:
            object.__setattr__(self, "names", canon)
        self._keyed(canon)


def role(*names: str) -> Role:
    return Role(tuple(names))


@dataclass(frozen=True, slots=True, eq=False)
class Name(_Node):
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty concept name")
        self._keyed((0, self.name))


@dataclass(frozen=True, slots=True, eq=False)
class Top(_Node):
    def __post_init__(self) -> None:
        self._keyed((1,))


@dataclass(frozen=True, slots=True, eq=False)
class Bottom(_Node):
    def __post_init__(self) -> None:
        self._keyed((2,))


@dataclass(frozen=True, slots=True, eq=False)
class And(_Node):
    left: "Concept"
    right: "Concept"

    def __post_init__(self) -> None:
        self._keyed((4, self.left._key, self.right._key))


@dataclass(frozen=True, slots=True, eq=False)
class Or(_Node):
    left: "Concept"
    right: "Concept"

    def __post_init__(self) -> None:
        self._keyed((5, self.left._key, self.right._key))


@dataclass(frozen=True, slots=True, eq=False)
class Not(_Node):
    concept: "Concept"

    def __post_init__(self) -> None:
        self._keyed((3, self.concept._key))


@dataclass(frozen=True, slots=True, eq=False)
class All(_Node):
    role: Role
    concept: "Concept"

    def __post_init__(self) -> None:
        self._keyed((6, self.role.names, self.concept._key))


@dataclass(frozen=True, slots=True, eq=False)
class Some(_Node):
    role: Role
    concept: "Concept"

    def __post_init__(self) -> None:
        self._keyed((7, self.role.names, self.concept._key))


@dataclass(frozen=True, slots=True, eq=False)
class AtLeast(_Node):
    count: int
    role: Role

    def __post_init__(self) -> None:
        _check_count(self.count)
        self._keyed((8, self.count, self.role.names))


@dataclass(frozen=True, slots=True, eq=False)
class AtMost(_Node):
    count: int
    role: Role

    def __post_init__(self) -> None:
        _check_count(self.count)
        self._keyed((9, self.count, self.role.names))


def _check_count(n: int) -> None:
    if not isinstance(n, int) or n < 0 or n > MAX_NUMBER:
        raise ValueError(f"number restriction value out of range: {n!r}")


Concept = Name | Top | Bottom | And | Or | Not | All | Some | AtLeast | AtMost

TOP = Top()
BOTTOM = Bottom()


def concept_key(c: Concept):
    """Total order key over concepts (nested tuples; same tag, same shape)."""
    return c._key


def is_simple(c: Concept) -> bool:
    """True iff every complement in c sits directly on a concept name."""
    if isinstance(c, Not):
        return isinstance(c.concept, Name)
    if isinstance(c, (And, Or)):
        return is_simple(c.left) and is_simple(c.right)
    if isinstance(c, (All, Some)):
        return is_simple(c.concept)
    return True


def to_simple_form(c: Concept) -> Concept:
    """Push complements down to concept names (negation normal form).

    Equivalence-preserving and idempotent; number restrictions flip as
    not-(atmost n R) -> (atleast n+1 R) and not-(atleast n R) ->
    (atmost n-1 R), with (atleast 0 R) complementing to BOTTOM.
    """
    if isinstance(c, Not):
        inner = c.concept
        if isinstance(inner, Name):
            return c
        if isinstance(inner, Top):
            return BOTTOM
        if isinstance(inner, Bottom):
            return TOP
        if isinstance(inner, Not):
            return to_simple_form(inner.concept)
        if isinstance(inner, And):
            return Or(to_simple_form(Not(inner.left)), to_simple_form(Not(inner.right)))
        if isinstance(inner, Or):
            return And(to_simple_form(Not(inner.left)), to_simple_form(Not(inner.right)))
        if isinstance(inner, All):
            return Some(inner.role, to_simple_form(Not(inner.concept)))
        if isinstance(inner, Some):
            return All(inner.role, to_simple_form(Not(inner.concept)))
        if isinstance(inner, AtLeast):
            if inner.count == 0:
                return BOTTOM
            return AtMost(inner.count - 1, inner.role)
        if isinstance(inner, AtMost):
            return AtLeast(inner.count + 1, inner.role)
        raise TypeError(f"not a concept: {inner!r}")
    if isinstance(c, And):
        return And(to_simple_form(c.left), to_simple_form(c.right))
    if isinstance(c, Or):
        return Or(to_simple_form(c.left), to_simple_form(c.right))
    if isinstance(c, All):
        return All(c.role, to_simple_form(c.concept))
    if isinstance(c, Some):
        return Some(c.role, to_simple_form(c.concept))
    return c


def subconcepts(c: Concept) -> frozenset[Concept]:
    """All sub-expressions of c, including c itself."""
    acc: set[Concept] = set()
    stack = [c]
    while stack:
        cur = stack.pop()
        if cur in acc:
            continue
        acc.add(cur)
        if isinstance(cur, (And, Or)):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, Not):
            stack.append(cur.concept)
        elif isinstance(cur, (All, Some)):
            stack.append(cur.concept)
    return frozenset(acc)


def concept_names_in(c: Concept) -> frozenset[str]:
    return frozenset(s.name for s in subconcepts(c) if isinstance(s, Name))


def role_names_in(c: Concept) -> frozenset[str]:
    names: set[str] = set()
    for s in subconcepts(c):
        if isinstance(s, (All, Some, AtLeast, AtMost)):
            names.update(s.role.names)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Knowledge bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Inclusion:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True)
class ConceptAssertion:
    individual: str
    concept: Concept


@dataclass(frozen=True, slots=True)
class RoleAssertion:
    subject: str
    target: str
    role: Role


Assertion = ConceptAssertion | RoleAssertion


@dataclass(frozen=True, slots=True)
class KnowledgeBase:
    tbox: frozenset[Inclusion]
    abox: frozenset[Assertion]
    # the reasoning services' translation and decision of this KB, set once
    # by alcnr.services on first use; not part of the KB's value
    _session: object = field(default=None, init=False, compare=False, hash=False,
                             repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tbox", frozenset(self.tbox))
        object.__setattr__(self, "abox", frozenset(self.abox))

    def individuals(self) -> frozenset[str]:
        """Exactly the individual names occurring in the ABox."""
        names: set[str] = set()
        for a in self.abox:
            if isinstance(a, ConceptAssertion):
                names.add(a.individual)
            else:
                names.add(a.subject)
                names.add(a.target)
        return frozenset(names)

    def concept_names(self) -> frozenset[str]:
        names: set[str] = set()
        for inc in self.tbox:
            names |= concept_names_in(inc.lhs)
            names |= concept_names_in(inc.rhs)
        for a in self.abox:
            if isinstance(a, ConceptAssertion):
                names |= concept_names_in(a.concept)
        return frozenset(names)

    def role_names(self) -> frozenset[str]:
        names: set[str] = set()
        for inc in self.tbox:
            names |= role_names_in(inc.lhs)
            names |= role_names_in(inc.rhs)
        for a in self.abox:
            if isinstance(a, ConceptAssertion):
                names |= role_names_in(a.concept)
            else:
                names.update(a.role.names)
        return frozenset(names)

    def all_names(self) -> frozenset[str]:
        return self.concept_names() | self.role_names() | self.individuals()


EMPTY_KB = KnowledgeBase(frozenset(), frozenset())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


RESERVED_WORDS = frozenset({
    "and", "or", "not", "all", "some", "atleast", "atmost",
    "implies", "define-concept", "define-primitive", "instance", "related",
    "TOP", "BOTTOM",
})

# Reserved individual used by the reasoning-service reductions; user input
# may not mention it.
FRESH_INDIVIDUAL = "__fresh"

# The deepest nesting of parentheses in one form, the form's own included,
# where a k-argument (and ...) or (or ...) counts k - 1 levels: it folds into
# a left chain of k - 1 binary nodes.  Concepts are walked recursively (the
# reader, the simple form, repr, the oracle); a repr takes about three of
# Python's default 1,000 recursion levels per level of nesting, and this
# leaves room for the caller's frames.
_MAX_NESTING = 256

# A token is "(", ")" or a run of name characters; " \t\r\n" separate tokens
# and ";" starts a comment that runs to the end of the line.  _TOKENS finds
# each token as its group and each comment with an empty group.  _UNEXPECTED
# swallows each comment whole, so its group is set only by a character
# outside a comment that is none of these.
_TOKENS = re.compile(r";[^\n]*|([()]|[A-Za-z0-9_'-]+)")
_UNEXPECTED = re.compile(r";[^\n]*|([^A-Za-z0-9_'() \t\r\n;-])")


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of text[offset]; each character, a tab
    or a carriage return too, is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Reader:
    """Reads one text.  Its tokens are strings, and a form is a token's
    index or, for a parenthesised form, the list of its '(' index followed
    by its items' forms.  A line and column is computed only for a
    ParseError.  Every character is checked first; then each top-level form
    is read whole before it is interpreted.  Each concept name and role name
    is built once, and `namespace` holds each name's kind and first token."""

    def __init__(self, text: str, number_cap: int):
        bad = next((m for m in _UNEXPECTED.finditer(text) if m[1]), None)
        if bad is not None:
            raise ParseError(f"unexpected character {bad[1]!r}", *_position(text, bad.start(1)))
        self.toks = list(filter(None, _TOKENS.findall(text)))
        self.text = text
        self.rest = enumerate(self.toks)
        self.number_cap = number_cap
        self.namespace: dict[str, tuple[str, int]] = {}
        self.concepts: dict[str, Concept] = {"TOP": TOP, "BOTTOM": BOTTOM}
        self.roles: dict[str, Role] = {}
        self.tbox: set[Inclusion] = set()
        self.abox: set[Assertion] = set()

    def position(self, i: int) -> tuple[int, int]:
        starts = (m.start() for m in _TOKENS.finditer(self.text) if m[1])
        return _position(self.text, next(islice(starts, i, None)))

    def error(self, message: str, form) -> ParseError:
        return ParseError(message, *self.position(form if type(form) is int else form[0]))

    def form(self):
        """The next top-level form, read whole; None after the last one.  An
        '(' that would open more than _MAX_NESTING forms at once is an error."""
        first = next(self.rest, None)
        if first is None:
            return None
        i, tok = first
        if tok == ")":
            raise self.error("unexpected ')'", i)
        if tok != "(":
            return i
        stack, items = [], [i]
        for j, tok in self.rest:
            if tok == "(":
                if len(stack) + 1 == _MAX_NESTING:
                    raise self.error(f"forms nest deeper than {_MAX_NESTING} levels", j)
                stack.append(items)
                items = [j]
            elif tok != ")":
                items.append(j)
            elif stack:
                stack[-1].append(items)
                items = stack.pop()
            else:
                return items
        raise self.error("unclosed '('", items[0])

    def _claim(self, name: str, kind: str, i: int) -> None:
        if name in RESERVED_WORDS:
            raise self.error(f"reserved word {name!r} cannot be used as a name", i)
        if name == FRESH_INDIVIDUAL:
            raise self.error(f"{name!r} is reserved for internal use", i)
        seen = self.namespace.setdefault(name, (kind, i))
        if seen[0] != kind:
            line, column = self.position(seen[1])
            raise self.error(f"{name!r} already used as a {seen[0]} name at {line}:{column}", i)

    def _sym(self, form, what: str) -> int:
        if type(form) is not int:
            raise self.error(f"expected {what}", form)
        return form

    def name(self, i: int) -> Concept:
        """TOP, BOTTOM or the concept name that token i spells."""
        tok = self.toks[i]
        c = self.concepts.get(tok)
        if c is None:
            self._claim(tok, "concept", i)
            c = self.concepts[tok] = Name(tok)
        return c

    def role_name(self, i: int) -> Role:
        tok = self.toks[i]
        r = self.roles.get(tok)
        if r is None:
            self._claim(tok, "role", i)
            r = self.roles[tok] = Role((tok,))
        return r

    def concept(self, form, level: int = 1) -> Concept:
        """The concept of a form whose '(' is at nesting `level` (1 at the
        top, counted as _MAX_NESTING counts).  A form whose last level
        passes _MAX_NESTING is an error at its '('."""
        if type(form) is int:
            return self.name(form)
        if len(form) == 1:
            raise self.error("empty concept form", form)
        head = self._sym(form[1], "a concept constructor")
        word = self.toks[head]
        args = form[2:]
        wide = word in ("and", "or")
        # a k-argument (and ...) or (or ...) takes one level per node of its chain
        last = level + max(len(args) - 2, 0) if wide else level
        if last > _MAX_NESTING:
            raise self.error(f"forms nest deeper than {_MAX_NESTING} levels", form)
        if wide:
            if len(args) < 2:
                raise self.error(f"({word} ...) needs at least two concepts", head)
            ctor = And if word == "and" else Or
            acc = self.concept(args[0], last + 1)
            for j, arg in enumerate(args[1:], 1):
                acc = ctor(acc, self.concept(arg, level + len(args) - j))
            return acc
        if word == "not":
            if len(args) != 1:
                raise self.error("(not ...) takes exactly one concept", head)
            return Not(self.concept(args[0], level + 1))
        if word in ("all", "some"):
            if len(args) != 2:
                raise self.error(f"({word} R C) takes a role and a concept", head)
            ctor = All if word == "all" else Some
            return ctor(self.role(args[0]), self.concept(args[1], level + 1))
        if word in ("atleast", "atmost"):
            if len(args) != 2:
                raise self.error(f"({word} n R) takes a number and a role", head)
            n = self.number(args[0])
            ctor = AtLeast if word == "atleast" else AtMost
            return ctor(n, self.role(args[1]))
        raise self.error(f"unknown concept constructor {word!r}", head)

    def role(self, form) -> Role:
        if type(form) is int:
            return self.role_name(form)
        if len(form) == 1:
            raise self.error("empty role form", form)
        head = self._sym(form[1], "'and'")
        if self.toks[head] != "and" or len(form) < 3:
            raise self.error("a compound role must be (and PNAME+)", form)
        names = []
        for item in form[2:]:
            i = self._sym(item, "a role name")
            self.role_name(i)
            names.append(self.toks[i])
        return Role(tuple(names))

    def number(self, form) -> int:
        tok = self.toks[self._sym(form, "a number")]
        if not tok.isdigit():
            raise self.error(f"expected a nonnegative integer, got {tok!r}", form)
        n = int(tok)
        if n > self.number_cap:
            raise self.error(f"number {n} exceeds the cap of {self.number_cap}", form)
        return n

    def individual(self, form) -> str:
        i = self._sym(form, "an individual name")
        tok = self.toks[i]
        self._claim(tok, "individual", i)
        return tok

    def statement(self, form) -> None:
        if type(form) is int:
            raise self.error("expected a statement form", form)
        if len(form) == 1:
            raise self.error("empty statement", form)
        head = self._sym(form[1], "a statement keyword")
        word = self.toks[head]
        args = form[2:]
        if word == "implies":
            if len(args) != 2:
                raise self.error("(implies C D) takes two concepts", head)
            self.tbox.add(Inclusion(self.concept(args[0], 2), self.concept(args[1], 2)))
        elif word in ("define-concept", "define-primitive"):
            if len(args) != 2:
                raise self.error(f"({word} A D) takes a concept name and a concept", head)
            i = self._sym(args[0], "a concept name")
            if self.toks[i] in ("TOP", "BOTTOM"):
                raise self.error("the defined concept must be a concept name", i)
            lhs = self.name(i)
            rhs = self.concept(args[1], 2)
            self.tbox.add(Inclusion(lhs, rhs))
            if word == "define-concept":
                self.tbox.add(Inclusion(rhs, lhs))
        elif word == "instance":
            if len(args) != 2:
                raise self.error("(instance a C) takes an individual and a concept", head)
            self.abox.add(ConceptAssertion(self.individual(args[0]), self.concept(args[1], 2)))
        elif word == "related":
            if len(args) != 3:
                raise self.error("(related a b R) takes two individuals and a role", head)
            self.abox.add(RoleAssertion(self.individual(args[0]), self.individual(args[1]), self.role(args[2])))
        else:
            raise self.error(f"unknown statement {word!r}", head)


def parse_concept(text: str, number_cap: int = DEFAULT_NUMBER_CAP) -> Concept:
    """Parse a single concept expression (used for CLI query arguments)."""
    reader = _Reader(text, number_cap)
    form = reader.form()
    if form is None:
        raise ParseError("expected a concept", 1, 1)
    c = reader.concept(form)
    trailing = next(reader.rest, None)
    if trailing is not None:
        raise reader.error("trailing input after concept", trailing[0])
    return c


def parse_kb(text: str, number_cap: int = DEFAULT_NUMBER_CAP) -> KnowledgeBase:
    reader = _Reader(text, number_cap)
    while (form := reader.form()) is not None:
        reader.statement(form)
    return KnowledgeBase(frozenset(reader.tbox), frozenset(reader.abox))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_role(r: Role) -> str:
    if len(r.names) == 1:
        return r.names[0]
    return "(and " + " ".join(r.names) + ")"


def render_concept(c: Concept) -> str:
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Top):
        return "TOP"
    if isinstance(c, Bottom):
        return "BOTTOM"
    if isinstance(c, (And, Or)):
        # Flatten the left-assoc spine so (and a b c) survives a round trip.
        kind = type(c)
        word = "and" if kind is And else "or"
        parts = [c.right]
        node = c.left
        while isinstance(node, kind):
            parts.append(node.right)
            node = node.left
        parts.append(node)
        return f"({word} " + " ".join(render_concept(p) for p in reversed(parts)) + ")"
    if isinstance(c, Not):
        return f"(not {render_concept(c.concept)})"
    if isinstance(c, All):
        return f"(all {render_role(c.role)} {render_concept(c.concept)})"
    if isinstance(c, Some):
        return f"(some {render_role(c.role)} {render_concept(c.concept)})"
    if isinstance(c, AtLeast):
        return f"(atleast {c.count} {render_role(c.role)})"
    if isinstance(c, AtMost):
        return f"(atmost {c.count} {render_role(c.role)})"
    raise TypeError(f"not a concept: {c!r}")


def render_kb(kb: KnowledgeBase) -> str:
    """Deterministic text form: sorted TBox statements, then sorted ABox."""
    tbox_lines = sorted(
        f"(implies {render_concept(i.lhs)} {render_concept(i.rhs)})" for i in kb.tbox
    )
    abox_lines = sorted(
        f"(instance {a.individual} {render_concept(a.concept)})"
        if isinstance(a, ConceptAssertion)
        else f"(related {a.subject} {a.target} {render_role(a.role)})"
        for a in kb.abox
    )
    lines = tbox_lines + abox_lines
    return "\n".join(lines) + ("\n" if lines else "")
