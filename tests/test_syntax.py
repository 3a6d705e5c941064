import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from alcnr import (
    All, And, AtLeast, AtMost, BOTTOM, ConceptAssertion, Inclusion,
    KnowledgeBase, Name, Not, Or, ParseError, Role, RoleAssertion, Some, TOP,
    concept_key, eval_concept, is_simple, parse_concept, parse_kb,
    render_concept, render_kb, role, subconcepts, to_simple_form,
)
from alcnr.semantics import Interpretation
from alcnr.syntax import _MAX_NESTING


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

names = st.sampled_from(["A", "B", "C"])
roles = st.builds(
    lambda ns: Role(tuple(ns)),
    st.lists(st.sampled_from(["R", "S"]), min_size=1, max_size=2),
)
concepts = st.deferred(
    lambda: st.one_of(
        st.builds(Name, names),
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(And, concepts, concepts),
        st.builds(Or, concepts, concepts),
        st.builds(Not, concepts),
        st.builds(All, roles, concepts),
        st.builds(Some, roles, concepts),
        st.builds(AtLeast, st.integers(0, 3), roles),
        st.builds(AtMost, st.integers(0, 3), roles),
    )
)


@st.composite
def interpretations(draw):
    size = draw(st.integers(1, 4))
    elems = tuple(f"d{i}" for i in range(size))
    cexts = {
        a: frozenset(draw(st.sets(st.sampled_from(elems)))) for a in ("A", "B", "C")
    }
    pairs = st.tuples(st.sampled_from(elems), st.sampled_from(elems))
    rexts = {p: frozenset(draw(st.sets(pairs))) for p in ("R", "S")}
    return Interpretation(frozenset(elems), cexts, rexts, {})


@st.composite
def knowledge_bases(draw):
    tbox = frozenset(
        Inclusion(draw(concepts), draw(concepts))
        for _ in range(draw(st.integers(0, 3)))
    )
    inds = ("a", "b", "c")
    abox = set()
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            abox.add(ConceptAssertion(draw(st.sampled_from(inds)), draw(concepts)))
        else:
            abox.add(RoleAssertion(
                draw(st.sampled_from(inds)), draw(st.sampled_from(inds)), draw(roles)
            ))
    return KnowledgeBase(tbox, frozenset(abox))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_cyclic_kb_text(self, kb33):
        italian = Name("Italian")
        friend = role("FRIEND")
        assert kb33.tbox == frozenset({Inclusion(italian, Some(friend, italian))})
        assert kb33.abox == frozenset({
            RoleAssertion("peter", "susan", friend),
            ConceptAssertion("peter", All(friend, Not(italian))),
            ConceptAssertion("susan", Some(friend, italian)),
        })
        assert kb33.individuals() == frozenset({"peter", "susan"})

    def test_empty_input(self):
        kb = parse_kb("")
        assert kb.tbox == frozenset() and kb.abox == frozenset()
        assert parse_kb("; only a comment\n").abox == frozenset()

    def test_define_concept_desugars_to_two_inclusions(self):
        kb = parse_kb("(define-concept A B)")
        assert kb.tbox == frozenset({
            Inclusion(Name("A"), Name("B")),
            Inclusion(Name("B"), Name("A")),
        })

    def test_define_primitive_is_one_inclusion(self):
        kb = parse_kb("(define-primitive A (some R B))")
        assert kb.tbox == frozenset({Inclusion(Name("A"), Some(role("R"), Name("B")))})

    def test_nary_and_folds_left(self):
        c = parse_concept("(and A B C)")
        assert c == And(And(Name("A"), Name("B")), Name("C"))

    def test_compound_role(self):
        c = parse_concept("(some (and S R) TOP)")
        assert c == Some(role("R", "S"), TOP)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("(implies A\n  (bogus B))")
        assert exc.value.line == 2

    def test_number_cap(self):
        with pytest.raises(ParseError, match="cap"):
            parse_kb("(instance a (atleast 2000000 R))")
        assert parse_kb("(instance a (atleast 3 R))", number_cap=3)

    def test_duplicate_namespace_token(self):
        with pytest.raises(ParseError, match="already used"):
            parse_kb("(instance a A) (related a b A)")

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_kb("(instance implies A)")
        with pytest.raises(ParseError, match="reserved"):
            parse_kb("(instance __fresh A)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse_kb("(implies A (and B C)")

    @pytest.mark.parametrize("opener", ["(not ", "(and A ", "(or A ", "(all R ", "(some R "])
    def test_nesting_limit(self, opener):
        """A form may nest _MAX_NESTING deep, its own parenthesis included;
        one more '(' is an error at that '(', in a KB or a query concept."""
        def chain(n):
            return opener * n + "B" + ")" * n
        kb = parse_kb(f"(instance a {chain(_MAX_NESTING - 1)})")
        assert len(kb.abox) == 1
        with pytest.raises(ParseError, match=f"deeper than {_MAX_NESTING}") as exc:
            parse_kb(f"(instance a {chain(_MAX_NESTING)})")
        column = len("(instance a ") + len(opener) * (_MAX_NESTING - 1) + 1
        assert (exc.value.line, exc.value.column) == (1, column)
        assert render_concept(parse_concept(chain(_MAX_NESTING))) == chain(_MAX_NESTING)
        with pytest.raises(ParseError, match="deeper") as exc:
            parse_concept(chain(_MAX_NESTING + 1))
        assert exc.value.column == len(opener) * _MAX_NESTING + 1

    @pytest.mark.parametrize("word", ["and", "or"])
    def test_a_wide_form_counts_its_folded_depth(self, word):
        """A k-argument (and ...) or (or ...) folds into a chain of k - 1
        nodes, and each counts toward the nesting limit."""
        def wide(k, first="A0"):
            return f"({word} {first} " + " ".join(f"A{i}" for i in range(1, k)) + ")"
        for k in (255, 256):
            (assertion,) = parse_kb(f"(instance a {wide(k)})").abox
            c = assertion.concept
            assert render_concept(c) == wide(k)
        for k in (257, 1000):
            with pytest.raises(ParseError, match=f"deeper than {_MAX_NESTING}") as exc:
                parse_kb(f"(instance a {wide(k)})")
            assert (exc.value.line, exc.value.column) == (1, len("(instance a ") + 1)
        assert render_concept(parse_concept(wide(257))) == wide(257)
        with pytest.raises(ParseError, match="deeper"):
            parse_concept(wide(258))
        # deep and wide: the first argument sits below the whole chain
        for depth, refused in ((195, False), (196, True)):
            text = f"(instance a {wide(61, '(not ' * depth + 'B' + ')' * depth)})"
            if refused:
                with pytest.raises(ParseError, match="deeper") as exc:
                    parse_kb(text)
                assert exc.value.column == len(f"(instance a ({word} ") + 5 * (depth - 1) + 1
            else:
                assert len(parse_kb(text).abox) == 1
        # the later arguments sit higher: the last one only one level below
        last = "(not " * 254 + "B" + ")" * 254
        kb = parse_kb(f"(instance a ({word} " + " ".join(f"A{i}" for i in range(59)) +
                      f" {last}))")
        assert len(kb.abox) == 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class TestRender:
    def test_round_trip_cyclic_example(self, kb33):
        assert parse_kb(render_kb(kb33)) == kb33

    def test_round_trip_university_example(self, kb21):
        assert parse_kb(render_kb(kb21)) == kb21

    def test_empty_kb_renders_empty(self):
        assert render_kb(KnowledgeBase(frozenset(), frozenset())) == ""

    def test_role_renders_in_lexicographic_order(self):
        assert render_concept(Some(role("CHILD", "ADOPTEDCHILD'"), TOP)) == \
            "(some (and ADOPTEDCHILD' CHILD) TOP)"

    def test_output_is_sorted_and_stable(self, kb21):
        assert render_kb(kb21) == render_kb(parse_kb(render_kb(kb21)))

    @settings(max_examples=150)
    @given(knowledge_bases())
    def test_parse_render_identity(self, kb):
        assert parse_kb(render_kb(kb)) == kb


# ---------------------------------------------------------------------------
# simple form
# ---------------------------------------------------------------------------

class TestSimpleForm:
    @pytest.mark.parametrize("concept,expected", [
        (Not(And(Name("Student"), Name("Prof"))),
         Or(Not(Name("Student")), Not(Name("Prof")))),
        (Not(Some(role("FRIEND"), Name("Italian"))),
         All(role("FRIEND"), Not(Name("Italian")))),
        (Not(AtMost(1, role("DEGREE"))), AtLeast(2, role("DEGREE"))),
        (Not(AtLeast(0, role("R"))), BOTTOM),
        (Not(AtLeast(2, role("R"))), AtMost(1, role("R"))),
        (Not(TOP), BOTTOM),
        (Not(BOTTOM), TOP),
        (Not(Not(Name("A"))), Name("A")),
    ])
    def test_pushdown_cases(self, concept, expected):
        assert to_simple_form(concept) == expected

    @given(concepts)
    def test_result_is_simple(self, c):
        assert is_simple(to_simple_form(c))

    @given(concepts)
    def test_idempotent(self, c):
        simple = to_simple_form(c)
        assert to_simple_form(simple) == simple

    @settings(max_examples=200)
    @given(concepts, interpretations())
    def test_equivalent_under_evaluation(self, c, interp):
        assert eval_concept(interp, c) == eval_concept(interp, to_simple_form(c))


# ---------------------------------------------------------------------------
# subconcepts and ordering
# ---------------------------------------------------------------------------

class TestSubconcepts:
    def test_existential(self):
        c = Some(role("FRIEND"), Name("Italian"))
        assert subconcepts(c) == frozenset({c, Name("Italian")})

    def test_top(self):
        assert subconcepts(TOP) == frozenset({TOP})

    def test_shared_subexpression_counted_once(self):
        c = Or(Not(Name("Italian")), Some(role("FRIEND"), Name("Italian")))
        assert subconcepts(c) == frozenset({
            c, Not(Name("Italian")), Name("Italian"),
            Some(role("FRIEND"), Name("Italian")),
        })
        assert len(subconcepts(c)) == 4

    @given(concepts)
    def test_size_is_linear_and_contains_self(self, c):
        subs = subconcepts(c)
        assert c in subs
        assert len(subs) <= _node_count(c)

    @given(st.lists(concepts, max_size=8))
    def test_concept_key_totally_orders(self, cs):
        ordered = sorted(cs, key=concept_key)
        assert sorted(list(reversed(cs)), key=concept_key) == ordered


def _node_count(c) -> int:
    if isinstance(c, (And, Or)):
        return 1 + _node_count(c.left) + _node_count(c.right)
    if isinstance(c, Not):
        return 1 + _node_count(c.concept)
    if isinstance(c, (All, Some)):
        return 1 + _node_count(c.concept)
    return 1


class TestRoleValues:
    def test_role_canonicalizes(self):
        assert Role(("S", "R", "S")) == Role(("R", "S"))
        assert role("R").names == ("R",)

    def test_role_requires_a_name(self):
        with pytest.raises(ValueError):
            Role(())

    def test_number_restriction_rejects_negative(self):
        with pytest.raises(ValueError):
            AtLeast(-1, role("R"))
