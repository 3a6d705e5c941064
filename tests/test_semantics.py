import random

import pytest

from alcnr import (
    All, And, AtLeast, AtMost, BOTTOM, BUDGET_EXCEEDED, Bottom, Interpretation,
    Name, NOT_FOUND, Not, Or, Some, TOP, Top, eval_concept, find_model_bounded,
    holds_at, is_model, parse_interpretation, parse_kb, render_interpretation, role,
    role_pairs,
)
from alcnr.semantics import Extensions
from _generators import random_concept, random_interpretation, random_kbs


class TestEvalConcept:
    def test_student_with_bs_degree(self, interp21):
        c = And(Name("Student"), Some(role("DEGREE"), Name("BS")))
        assert eval_concept(interp21, c) == frozenset({"john"})

    def test_top_and_bottom(self, interp21):
        assert eval_concept(interp21, TOP) == interp21.domain
        assert eval_concept(interp21, BOTTOM) == frozenset()

    def test_atmost_one_degree_is_whole_domain(self, interp21):
        assert eval_concept(interp21, AtMost(1, role("DEGREE"))) == interp21.domain

    def test_role_conjunction_intersects(self):
        interp = Interpretation(
            frozenset({"d0", "d1"}),
            {"A": frozenset({"d1"})},
            {"R": frozenset({("d0", "d1")}), "S": frozenset({("d0", "d1"), ("d1", "d1")})},
        )
        assert eval_concept(interp, Some(role("R", "S"), Name("A"))) == frozenset({"d0"})
        assert eval_concept(interp, AtLeast(1, role("R", "S"))) == frozenset({"d0"})

    def test_missing_names_evaluate_empty(self, interp21):
        assert eval_concept(interp21, Name("Nowhere")) == frozenset()
        assert eval_concept(interp21, Some(role("NOPE"), TOP)) == frozenset()

    def test_complement_and_lattice_laws(self):
        rng = random.Random(7)
        for _ in range(100):
            interp = random_interpretation(rng)
            c = random_concept(rng, 2)
            d = random_concept(rng, 2)
            assert eval_concept(interp, Not(c)) == interp.domain - eval_concept(interp, c)
            assert eval_concept(interp, And(c, d)) == \
                eval_concept(interp, c) & eval_concept(interp, d)
            assert eval_concept(interp, Or(c, d)) == \
                eval_concept(interp, c) | eval_concept(interp, d)

    def test_atleast_zero_is_domain(self):
        rng = random.Random(8)
        for _ in range(50):
            interp = random_interpretation(rng)
            assert eval_concept(interp, AtLeast(0, role("R"))) == interp.domain

    def test_one_shared_memo_matches_fresh_evaluations(self):
        rng = random.Random(9)
        for _ in range(30):
            interp = random_interpretation(rng)
            ext = Extensions(interp)
            concepts = [random_concept(rng, rng.randint(0, 3)) for _ in range(200)]
            for c in concepts + concepts[::-1]:
                fresh = eval_concept(interp, c)
                assert ext(c) == fresh
                assert fresh == {d for d in interp.domain if _holds(interp, d, c)}

    def test_holds_at_matches_the_extension(self):
        """Element-wise evaluation, on interpretations of up to 6 elements and
        concepts with role conjunctions, number restrictions and nested
        all/some."""
        rng = random.Random(10)
        for n in range(200):
            if n % 2:
                interp = random_interpretation(rng)
            else:
                elems = [f"d{i}" for i in range(rng.randint(1, 6))]
                interp = Interpretation(
                    frozenset(elems),
                    {a: frozenset(e for e in elems if rng.random() < 0.5) for a in "ABC"},
                    {p: frozenset((s, t) for s in elems for t in elems if rng.random() < 0.3)
                     for p in "RS"},
                )
            for _ in range(20):
                c = random_concept(rng, rng.randint(0, 4))
                extension = eval_concept(interp, c)
                for e in sorted(interp.domain):
                    assert holds_at(interp, c, e) == (e in extension)


def _holds(interp, d, c) -> bool:
    """Does element d belong to c?  The semantics, element by element."""
    if isinstance(c, Name):
        return d in interp.concepts.get(c.name, ())
    if isinstance(c, (Top, Bottom)):
        return isinstance(c, Top)
    if isinstance(c, Not):
        return not _holds(interp, d, c.concept)
    if isinstance(c, And):
        return _holds(interp, d, c.left) and _holds(interp, d, c.right)
    if isinstance(c, Or):
        return _holds(interp, d, c.left) or _holds(interp, d, c.right)
    succ = [t for s, t in role_pairs(interp, c.role) if s == d]
    if isinstance(c, All):
        return all(_holds(interp, t, c.concept) for t in succ)
    if isinstance(c, Some):
        return any(_holds(interp, t, c.concept) for t in succ)
    if isinstance(c, AtLeast):
        return len(succ) >= c.count
    return len(succ) <= c.count


class TestIsModel:
    def test_university_model(self, kb21, interp21):
        assert is_model(interp21, kb21)

    def test_cyclic_model(self, kb33, interp33):
        assert is_model(interp33, kb33)

    def test_emptying_bs_breaks_the_first_inclusion(self, kb21, interp21):
        broken = Interpretation(
            interp21.domain,
            {**interp21.concepts, "BS": frozenset()},
            interp21.roles,
            interp21.individuals,
        )
        assert not is_model(broken, kb21)

    def test_missing_individual_mapping_raises(self, kb21, interp21):
        partial = Interpretation(
            interp21.domain, interp21.concepts, interp21.roles, {"john": "john"}
        )
        with pytest.raises(ValueError, match="cs156"):
            is_model(partial, kb21)


class TestInterpretationValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Interpretation(frozenset(), {}, {})

    def test_unique_names_enforced(self):
        with pytest.raises(ValueError, match="share"):
            Interpretation(frozenset({"e"}), {}, {}, {"a": "e", "b": "e"})

    def test_extension_must_stay_in_domain(self):
        with pytest.raises(ValueError):
            Interpretation(frozenset({"e"}), {"A": frozenset({"zzz"})}, {})

    def test_immutable_and_independent_of_its_arguments(self):
        concepts, individuals = {"A": {"e"}}, {"a": "e"}
        interp = Interpretation({"e", "f"}, concepts, {"P": {("e", "f")}}, individuals)
        concepts["A"].add("f")
        individuals["b"] = "f"
        assert interp.concepts == {"A": frozenset({"e"})}
        assert interp.individuals == {"a": "e"}
        for field, key in (("concepts", "A"), ("roles", "P"), ("individuals", "a")):
            with pytest.raises(TypeError):
                getattr(interp, field)[key] = frozenset()
        with pytest.raises(AttributeError):
            interp.domain = frozenset({"e"})


class TestModelText:
    def test_round_trip(self, interp21):
        again = parse_interpretation(render_interpretation(interp21))
        assert again.domain == interp21.domain
        assert again.concepts == interp21.concepts
        assert again.roles == interp21.roles
        assert again.individuals == interp21.individuals

    def test_sorted_single_item_lines(self):
        interp = Interpretation(
            frozenset({"b", "a"}),
            {"Z": frozenset({"b", "a"}), "A": frozenset()},
            {"P": frozenset({("b", "a"), ("a", "b")})},
            {"a": "a"},
        )
        assert render_interpretation(interp) == (
            "domain: a b\n"
            "individual a = a\n"
            "concept A = {}\n"
            "concept Z = {a,b}\n"
            "role P = {(a,b),(b,a)}\n"
        )


class TestFindModelBounded:
    def test_bottom_assertion_has_no_model(self):
        assert find_model_bounded(parse_kb("(instance a BOTTOM)"), 3) is NOT_FOUND

    def test_single_assertion_model(self):
        found = find_model_bounded(parse_kb("(instance a A)"), 1)
        assert isinstance(found, Interpretation)
        assert found.domain == frozenset({"a"})
        assert found.concepts["A"] == frozenset({"a"})

    def test_cyclic_kb_has_a_small_model(self, kb33):
        found = find_model_bounded(kb33, 4)
        assert isinstance(found, Interpretation)
        assert is_model(found, kb33)

    def test_unsatisfiable_tbox(self):
        assert find_model_bounded(parse_kb("(implies TOP BOTTOM)"), 3) is NOT_FOUND

    def test_model_requires_enough_elements(self):
        # three successors need three elements (the individual may serve as
        # its own successor, so three suffice)
        kb = parse_kb("(instance a (atleast 3 R))")
        assert find_model_bounded(kb, 2) is NOT_FOUND
        found = find_model_bounded(kb, 3)
        assert isinstance(found, Interpretation)
        assert len(found.domain) == 3

    def test_budget_exhaustion_is_reported(self):
        kb = parse_kb("(implies A B) (instance a TOP)")
        assert find_model_bounded(kb, 4, budget=0) is BUDGET_EXCEEDED

    def test_bound_must_cover_individuals(self):
        with pytest.raises(ValueError):
            find_model_bounded(parse_kb("(related a b R)"), 1)

    def test_returned_models_always_check_out(self):
        for kb in random_kbs(seed=4242, count=60):
            found = find_model_bounded(kb, 3, budget=20_000)
            if isinstance(found, Interpretation):
                assert is_model(found, kb)

    def test_una_forces_three_elements(self):
        kb = parse_kb("(related a b R) (related a c R) (instance a (atmost 1 R))")
        assert find_model_bounded(kb, 4) is NOT_FOUND
