"""The exchange-format reader that the single-pattern reader in
`alcnr.syntax` replaced, kept as the reference for the differential test.

It walks the text one character at a time, builds a `_Tok` (kind, text, line,
column) per token and nested `_List`s per form, and checks the namespaces on
every occurrence of a name.  `parse_kb` and `parse_concept` here must return
the same values, and raise `ParseError`s with the same message, line and
column, as those of `alcnr.syntax`.
"""

from __future__ import annotations

from dataclasses import dataclass

from alcnr.syntax import (
    BOTTOM, DEFAULT_NUMBER_CAP, FRESH_INDIVIDUAL, RESERVED_WORDS, TOP, All, And,
    Assertion, AtLeast, AtMost, Concept, ConceptAssertion, Inclusion,
    KnowledgeBase, Name, Not, Or, ParseError, Role, RoleAssertion, Some,
)

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-'"
)


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
