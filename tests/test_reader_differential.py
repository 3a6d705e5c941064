"""The exchange-format reader against its reference (`_reference_reader`).

Both readers see the same texts: generated KBs that use every statement
form, comments and every kind of whitespace, the paper's examples and the
teachers KB, each as it is and with random character edits, through
`parse_kb` and through `parse_concept`.  They must return equal values, or
raise equal errors: a ParseError with the same message, line and column.
A few cases are also pinned by name with their expected positions.
"""

from __future__ import annotations

import random

import pytest

import _reference_reader as reference
from alcnr import Name, ParseError, Role, parse_concept, parse_kb, render_kb
from alcnr.syntax import AtLeast, ConceptAssertion
from _generators import mutate_text
from _kbs import EX21_TEXT, EX33_TEXT, teachers_kb

GENERATED = 3000
MUTANTS = 5  # edited copies of each text
CONCEPTS = ["A", "B", "Course", "Prof", "TOP", "BOTTOM"]
ROLES = ["R", "S", "TEACHES"]
INDIVIDUALS = ["a", "b", "john"]
# occasional names that the reader must refuse or report
ODD_NAMES = ["and", "implies", "TOP", "__fresh", "R", "a", "A", "7", "x-y'", "(a)"]
# occasional forms that are wrong where a role or a number stands
ODD_ROLES = ["()", "(R S)", "(and R (S))", "(and)", "((and R) S)"]
ODD_NUMBERS = ["(3)", "x", "03"]
SPACES = [" ", " ", " ", "\t", "\r", "\n", "  ", "\n ; a comment (with ) #\n"]


def _name(rng: random.Random, pool: list[str]) -> str:
    return rng.choice(ODD_NAMES) if rng.random() < 0.03 else rng.choice(pool)


def _role(rng: random.Random) -> str:
    if rng.random() < 0.03:
        return rng.choice(ODD_ROLES)
    if rng.random() < 0.2:
        return f"(and {' '.join(_name(rng, ROLES) for _ in range(rng.randint(1, 3)))})"
    return _name(rng, ROLES)


def _concept(rng: random.Random, depth: int) -> str:
    k = rng.randrange(9) if depth > 0 else 0
    if k < 2:
        return _name(rng, CONCEPTS)
    if k < 4:
        op = rng.choice(("and", "or"))
        return f"({op} {' '.join(_concept(rng, depth - 1) for _ in range(rng.randint(2, 3)))})"
    if k == 4:
        return f"(not {_concept(rng, depth - 1)})"
    if k < 7:
        return f"({rng.choice(('all', 'some'))} {_role(rng)} {_concept(rng, depth - 1)})"
    n = rng.choice(("0", "3", "12", "1048577", rng.choice(ODD_NUMBERS)))
    return f"({rng.choice(('atleast', 'atmost'))} {n} {_role(rng)})"


def _statement(rng: random.Random) -> str:
    k = rng.randrange(6)
    if k == 0:
        return f"(implies {_concept(rng, 2)} {_concept(rng, 2)})"
    if k == 1:
        word = rng.choice(("define-concept", "define-primitive"))
        return f"({word} {_name(rng, CONCEPTS)} {_concept(rng, 2)})"
    if k < 4:
        return f"(instance {_name(rng, INDIVIDUALS)} {_concept(rng, 3)})"
    return (f"(related {_name(rng, INDIVIDUALS)} {_name(rng, INDIVIDUALS)} "
            f"{_role(rng)})")


def _kb_text(rng: random.Random) -> str:
    parts = [_statement(rng) for _ in range(rng.randint(0, 5))]
    text = "".join(p + rng.choice(SPACES) for p in parts)
    return text.replace(" ", rng.choice(SPACES), rng.randint(0, 3))


def _texts() -> list[str]:
    rng = random.Random(17)
    bases = [EX21_TEXT, EX33_TEXT, render_kb(teachers_kb(3))]
    bases += [_kb_text(rng) for _ in range(GENERATED)]
    found = []
    for text in bases:
        found.append(text)
        found += [mutate_text(rng, text) for _ in range(MUTANTS)]
    # each KB's first concept, whole or cut short, for parse_concept
    for text in bases[3:]:
        head = text.find("(", 1)
        if head > 0:
            found.append(text[head:head + rng.randint(1, 40)])
    return found


def _outcome(parse, text: str):
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    except ValueError as exc:  # int() of a number with too many digits
        return "ValueError", str(exc)


def test_reader_matches_reference():
    texts = _texts()
    inputs = differ = errors = 0
    first = None
    for text in texts:
        for new, old in ((parse_kb, reference.parse_kb),
                         (parse_concept, reference.parse_concept)):
            got, want = _outcome(new, text), _outcome(old, text)
            inputs += 1
            errors += want[0] != "value"
            if got != want:
                differ += 1
                first = first or (new.__name__, text, want, got)
    assert inputs >= 30_000
    assert 0 < errors < inputs  # both outcomes are exercised
    assert differ == 0, f"{differ} of {inputs} inputs differ; first: {first!r}"


def _error(parse, text: str, **kwargs) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as exc:
        parse(text, **kwargs)
    old = pytest.raises(ParseError, getattr(reference, parse.__name__), text, **kwargs)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        str(old.value), old.value.line, old.value.column)
    return exc.value.args[0].split(": ", 1)[1], exc.value.line, exc.value.column


class TestPinnedCases:
    def test_tab_and_carriage_return_are_one_column_each(self):
        assert _error(parse_kb, "(instance a A)\n\t\r(bogus)") == (
            "unknown statement 'bogus'", 2, 4)

    def test_comment_at_the_end_of_the_file(self):
        kb = parse_kb("(instance a A) ; no newline after this")
        assert kb.abox == {ConceptAssertion("a", Name("A"))}
        assert parse_kb("; only a comment") == reference.parse_kb("; only a comment")
        assert parse_concept("A ;(") == Name("A")

    def test_bad_character_after_unclosed_paren(self):
        assert _error(parse_kb, "(instance a\n  (and A B) #") == (
            "unexpected character '#'", 2, 13)

    def test_characters_are_checked_before_structure(self):
        assert _error(parse_kb, ") (bogus) ; fine: #\n@") == ("unexpected character '@'", 2, 1)

    def test_number_cap(self):
        assert _error(parse_kb, "(instance a (atleast 11 R))", number_cap=10) == (
            "number 11 exceeds the cap of 10", 1, 22)
        assert parse_kb("(instance a (atleast 10 R))", number_cap=10).abox == {
            ConceptAssertion("a", AtLeast(10, Role(("R",))))}

    def test_fresh_individual(self):
        assert _error(parse_kb, "(instance __fresh A)") == (
            "'__fresh' is reserved for internal use", 1, 11)

    def test_reserved_word_as_a_name(self):
        assert _error(parse_kb, "(related a b\n  TOP)") == (
            "reserved word 'TOP' cannot be used as a name", 2, 3)
        assert _error(parse_concept, "(all R and)") == (
            "reserved word 'and' cannot be used as a name", 1, 8)

    def test_already_used_reports_the_first_use(self):
        text = "; roles\n(instance a A)\n(related a b (and R A))"
        assert _error(parse_kb, text) == (
            "'A' already used as a concept name at 2:13", 3, 21)

    def test_unbalanced_forms_after_an_error_in_an_earlier_form(self):
        assert _error(parse_kb, "(instance a b c) (") == (
            "(instance a C) takes an individual and a concept", 1, 2)
        assert _error(parse_kb, "(instance a A) )") == ("unexpected ')'", 1, 16)
        assert _error(parse_kb, "(instance a (and A (not B)") == ("unclosed '('", 1, 13)

    def test_each_name_is_built_once(self):
        kb = parse_kb("(instance a (and A (some R A))) (instance b (all R A))")
        names = [c for a in kb.abox for c in _leaves(a.concept) if isinstance(c, Name)]
        roles = [c.role for a in kb.abox for c in _leaves(a.concept) if hasattr(c, "role")]
        assert len(names) == 3 and len({id(n) for n in names}) == 1
        assert len(roles) == 2 and roles[0] is roles[1]


def _leaves(c):
    yield c
    for part in ("left", "right", "concept"):
        if hasattr(c, part):
            yield from _leaves(getattr(c, part))
