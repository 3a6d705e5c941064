"""Abstract syntax for ALCNR concepts, roles, and knowledge bases.

Concept expressions are immutable values with structural equality and a
total order (see :func:`concept_key`), which keeps every downstream
iteration deterministic.  A role is a nonempty conjunction of role names,
canonicalized to a sorted, deduplicated tuple so that role equality is set
equality.

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

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Concept and role AST
# ---------------------------------------------------------------------------

MAX_NUMBER = 2**64 - 1  # AST-level bound; the parser applies a tighter cap
DEFAULT_NUMBER_CAP = 2**20


# Hashes and order keys are precomputed per node: concepts are immutable and
# end up in frozensets constantly, so the default recursive dataclass hash is
# a hot spot.

@dataclass(frozen=True, slots=True)
class Role:
    """A conjunction of role names, stored sorted and deduplicated."""

    names: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a role needs at least one role name")
        canon = tuple(sorted(set(self.names)))
        if canon != self.names:
            object.__setattr__(self, "names", canon)
        object.__setattr__(self, "_hash", hash(("role", self.names)))

    def __hash__(self) -> int:
        return self._hash


def role(*names: str) -> Role:
    return Role(tuple(names))


@dataclass(frozen=True, slots=True)
class Name:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty concept name")
        object.__setattr__(self, "_key", (0, self.name))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Top:
    _key = (1,)

    def __hash__(self) -> int:
        return 1


@dataclass(frozen=True, slots=True)
class Bottom:
    _key = (2,)

    def __hash__(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class And:
    left: "Concept"
    right: "Concept"
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (4, self.left._key, self.right._key))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Or:
    left: "Concept"
    right: "Concept"
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (5, self.left._key, self.right._key))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Not:
    concept: "Concept"
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (3, self.concept._key))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class All:
    role: Role
    concept: "Concept"
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (6, self.role.names, self.concept._key))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class Some:
    role: Role
    concept: "Concept"
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (7, self.role.names, self.concept._key))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class AtLeast:
    count: int
    role: Role
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_count(self.count)
        object.__setattr__(self, "_key", (8, self.count, self.role.names))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class AtMost:
    count: int
    role: Role
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_count(self.count)
        object.__setattr__(self, "_key", (9, self.count, self.role.names))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash


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


_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-'"
)

RESERVED_WORDS = frozenset({
    "and", "or", "not", "all", "some", "atleast", "atmost",
    "implies", "define-concept", "define-primitive", "instance", "related",
    "TOP", "BOTTOM",
})

# Reserved individual used by the reasoning-service reductions; user input
# may not mention it.
FRESH_INDIVIDUAL = "__fresh"


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # "(", ")", "sym"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "(" or ch == ")":
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
        elif ch in _NAME_CHARS:
            start, start_col = i, col
            while i < n and text[i] in _NAME_CHARS:
                i += 1
                col += 1
            toks.append(_Tok("sym", text[start:i], line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


class _Reader:
    """Turns a token stream into nested lists of _Tok, tracking positions."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def read_form(self):
        tok = self.toks[self.pos]
        self.pos += 1
        if tok.kind == "sym":
            return tok
        if tok.kind == ")":
            raise ParseError("unexpected ')'", tok.line, tok.column)
        items = []
        while True:
            if self.at_end():
                raise ParseError("unclosed '('", tok.line, tok.column)
            if self.toks[self.pos].kind == ")":
                self.pos += 1
                return _List(items, tok.line, tok.column)
            items.append(self.read_form())


@dataclass(slots=True)
class _List:
    items: list
    line: int
    column: int


class _KBBuilder:
    """Interprets reader forms as statements, tracking the three namespaces."""

    def __init__(self, number_cap: int):
        self.number_cap = number_cap
        self.namespace: dict[str, tuple[str, int, int]] = {}
        self.tbox: set[Inclusion] = set()
        self.abox: set[Assertion] = set()

    def _claim(self, name: str, kind: str, line: int, column: int) -> str:
        if name in RESERVED_WORDS:
            raise ParseError(f"reserved word {name!r} cannot be used as a name", line, column)
        if name == FRESH_INDIVIDUAL:
            raise ParseError(f"{name!r} is reserved for internal use", line, column)
        seen = self.namespace.get(name)
        if seen is None:
            self.namespace[name] = (kind, line, column)
        elif seen[0] != kind:
            raise ParseError(
                f"{name!r} already used as a {seen[0]} name at {seen[1]}:{seen[2]}",
                line, column,
            )
        return name

    def _sym(self, form, what: str) -> _Tok:
        if not isinstance(form, _Tok):
            raise ParseError(f"expected {what}", form.line, form.column)
        return form

    def concept(self, form) -> Concept:
        if isinstance(form, _Tok):
            if form.text == "TOP":
                return TOP
            if form.text == "BOTTOM":
                return BOTTOM
            return Name(self._claim(form.text, "concept", form.line, form.column))
        if not form.items:
            raise ParseError("empty concept form", form.line, form.column)
        head = self._sym(form.items[0], "a concept constructor")
        args = form.items[1:]
        if head.text in ("and", "or"):
            if len(args) < 2:
                raise ParseError(f"({head.text} ...) needs at least two concepts", head.line, head.column)
            ctor = And if head.text == "and" else Or
            acc = self.concept(args[0])
            for arg in args[1:]:
                acc = ctor(acc, self.concept(arg))
            return acc
        if head.text == "not":
            if len(args) != 1:
                raise ParseError("(not ...) takes exactly one concept", head.line, head.column)
            return Not(self.concept(args[0]))
        if head.text in ("all", "some"):
            if len(args) != 2:
                raise ParseError(f"({head.text} R C) takes a role and a concept", head.line, head.column)
            ctor = All if head.text == "all" else Some
            return ctor(self.role(args[0]), self.concept(args[1]))
        if head.text in ("atleast", "atmost"):
            if len(args) != 2:
                raise ParseError(f"({head.text} n R) takes a number and a role", head.line, head.column)
            n = self.number(args[0])
            ctor = AtLeast if head.text == "atleast" else AtMost
            return ctor(n, self.role(args[1]))
        raise ParseError(f"unknown concept constructor {head.text!r}", head.line, head.column)

    def role(self, form) -> Role:
        if isinstance(form, _Tok):
            return Role((self._claim(form.text, "role", form.line, form.column),))
        if not form.items:
            raise ParseError("empty role form", form.line, form.column)
        head = self._sym(form.items[0], "'and'")
        if head.text != "and" or len(form.items) < 2:
            raise ParseError("a compound role must be (and PNAME+)", form.line, form.column)
        names = []
        for item in form.items[1:]:
            tok = self._sym(item, "a role name")
            names.append(self._claim(tok.text, "role", tok.line, tok.column))
        return Role(tuple(names))

    def number(self, form) -> int:
        tok = self._sym(form, "a number")
        if not tok.text.isdigit():
            raise ParseError(f"expected a nonnegative integer, got {tok.text!r}", tok.line, tok.column)
        n = int(tok.text)
        if n > self.number_cap:
            raise ParseError(f"number {n} exceeds the cap of {self.number_cap}", tok.line, tok.column)
        return n

    def individual(self, form) -> str:
        tok = self._sym(form, "an individual name")
        return self._claim(tok.text, "individual", tok.line, tok.column)

    def statement(self, form) -> None:
        if isinstance(form, _Tok):
            raise ParseError("expected a statement form", form.line, form.column)
        if not form.items:
            raise ParseError("empty statement", form.line, form.column)
        head = self._sym(form.items[0], "a statement keyword")
        args = form.items[1:]
        if head.text == "implies":
            if len(args) != 2:
                raise ParseError("(implies C D) takes two concepts", head.line, head.column)
            self.tbox.add(Inclusion(self.concept(args[0]), self.concept(args[1])))
        elif head.text in ("define-concept", "define-primitive"):
            if len(args) != 2:
                raise ParseError(f"({head.text} A D) takes a concept name and a concept", head.line, head.column)
            tok = self._sym(args[0], "a concept name")
            if tok.text in ("TOP", "BOTTOM"):
                raise ParseError("the defined concept must be a concept name", tok.line, tok.column)
            lhs = Name(self._claim(tok.text, "concept", tok.line, tok.column))
            rhs = self.concept(args[1])
            self.tbox.add(Inclusion(lhs, rhs))
            if head.text == "define-concept":
                self.tbox.add(Inclusion(rhs, lhs))
        elif head.text == "instance":
            if len(args) != 2:
                raise ParseError("(instance a C) takes an individual and a concept", head.line, head.column)
            self.abox.add(ConceptAssertion(self.individual(args[0]), self.concept(args[1])))
        elif head.text == "related":
            if len(args) != 3:
                raise ParseError("(related a b R) takes two individuals and a role", head.line, head.column)
            self.abox.add(RoleAssertion(self.individual(args[0]), self.individual(args[1]), self.role(args[2])))
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.column)


def parse_concept(text: str, number_cap: int = DEFAULT_NUMBER_CAP) -> Concept:
    """Parse a single concept expression (used for CLI query arguments)."""
    reader = _Reader(_tokenize(text))
    if reader.at_end():
        raise ParseError("expected a concept", 1, 1)
    builder = _KBBuilder(number_cap)
    c = builder.concept(reader.read_form())
    if not reader.at_end():
        tok = reader.toks[reader.pos]
        raise ParseError("trailing input after concept", tok.line, tok.column)
    return c


def parse_kb(text: str, number_cap: int = DEFAULT_NUMBER_CAP) -> KnowledgeBase:
    reader = _Reader(_tokenize(text))
    builder = _KBBuilder(number_cap)
    while not reader.at_end():
        builder.statement(reader.read_form())
    return KnowledgeBase(frozenset(builder.tbox), frozenset(builder.abox))


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
