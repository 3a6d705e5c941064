import random

import pytest

from alcnr import (
    And, AtMost, BOTTOM, ConceptAssertion, Guards, InconclusiveError,
    KnowledgeBase, Name, Not, Some, TOP, TruthVerdict, UnknownIndividualError,
    concept_satisfiable, instance_checks, instance_of, instances, is_model,
    kb_satisfiable, parse_kb, role, subsumed_by,
)
from alcnr import services
from alcnr.services import augment_for_concept_sat, augment_for_instance
from _generators import random_concept, random_kbs
from conftest import EX21_TEXT, teachers_kb

GUARDS = Guards(debug_checks=True)


class TestKbSatisfiable:
    def test_university_kb(self, kb21):
        verdict = kb_satisfiable(kb21, GUARDS, self_check=True)
        assert verdict.status == "sat"
        assert is_model(verdict.interpretation, kb21)

    def test_cyclic_kb(self, kb33):
        assert kb_satisfiable(kb33, GUARDS, self_check=True).status == "sat"

    def test_bottom_assertion(self):
        assert kb_satisfiable(parse_kb("(instance a BOTTOM)")).status == "unsat"

    def test_unknown_under_tight_guards(self, kb21):
        verdict = kb_satisfiable(kb21, Guards(max_branches=0))
        assert verdict.status == "unknown"
        assert verdict.guard == "max-branches"


class TestConceptSatisfiable:
    def test_overloaded_professor_is_impossible(self, kb21):
        c = And(Name("Prof"), AtMost(1, role("DEGREE")))
        assert concept_satisfiable(kb21, c, GUARDS).status == "unsat"

    def test_top_is_satisfiable(self, kb21, kb33):
        assert concept_satisfiable(kb21, TOP, GUARDS).status == "sat"
        assert concept_satisfiable(kb33, TOP, GUARDS).status == "sat"

    def test_professors_can_exist(self, kb21):
        assert concept_satisfiable(kb21, Name("Prof"), GUARDS, self_check=True).status == "sat"

    def test_reserved_individual_must_not_appear(self):
        kb = parse_kb("(instance a A)")
        assert concept_satisfiable(kb, Name("A")).status == "sat"
        bad = KnowledgeBase(kb.tbox, kb.abox | {ConceptAssertion("__fresh", TOP)})
        with pytest.raises(ValueError, match="reserved"):
            augment_for_concept_sat(bad, TOP)


class TestSubsumption:
    def test_axiomatic_subsumption(self, kb21):
        c = Some(role("DEGREE"), Name("MS"))
        d = Some(role("DEGREE"), Name("BS"))
        assert subsumed_by(kb21, c, d, GUARDS).value is True

    def test_reflexive(self, kb21):
        c = And(Name("Student"), Some(role("DEGREE"), Name("BS")))
        assert subsumed_by(kb21, c, c, GUARDS).value is True

    def test_students_are_not_professors(self, kb21):
        assert subsumed_by(kb21, Name("Student"), Name("Prof"), GUARDS).value is False

    def test_every_tbox_inclusion_is_a_subsumption(self, kb21, kb33):
        for kb in (kb21, kb33):
            for inc in kb.tbox:
                assert subsumed_by(kb, inc.lhs, inc.rhs, GUARDS).value is True


class TestInstanceChecking:
    def test_entailed_membership(self, kb21):
        assert instance_of(kb21, "john", Name("Student"), GUARDS).value is True

    def test_countermodel_blocks_entailment(self, kb21):
        assert instance_of(kb21, "john", Name("Prof"), GUARDS).value is False

    def test_asserted_membership(self):
        kb = parse_kb("(instance a A)")
        assert instance_of(kb, "a", Name("A")).value is True

    def test_unknown_individual(self, kb21):
        with pytest.raises(UnknownIndividualError):
            instance_of(kb21, "nobody", Name("Student"))

    def test_instances_retrieval(self, kb21):
        assert instances(kb21, Name("Student"), GUARDS) == frozenset({"john"})
        assert instances(kb21, TOP, GUARDS) == kb21.individuals()
        assert instances(kb21, BOTTOM, GUARDS) == frozenset()

    def test_instance_checks_report_every_individual(self, kb21):
        checks = instance_checks(kb21, Name("Student"))
        assert checks == {"cs156": TruthVerdict(False), "john": TruthVerdict(True)}
        tight = instance_checks(kb21, Name("Student"), Guards(max_branches=1))
        assert tight["john"] == TruthVerdict(None, "max-branches")
        with pytest.raises(InconclusiveError) as raised:
            instances(kb21, Name("Student"), Guards(max_branches=1))
        assert raised.value.checks == tight


class TestDuality:
    """The reductions, cross-checked against each other on random KBs."""

    def test_subsumption_matches_concept_unsatisfiability(self):
        for kb in random_kbs(seed=64, count=25):
            c, d = Name("A"), Name("B")
            left = subsumed_by(kb, c, d).value
            right = concept_satisfiable(kb, And(c, Not(d))).status == "unsat"
            assert left == right

    def test_instance_matches_negated_assertion_unsat(self):
        for kb in random_kbs(seed=65, count=25):
            for a in sorted(kb.individuals()):
                want = instance_of(kb, a, Name("A")).value
                direct = kb_satisfiable(augment_for_instance(kb, a, Name("A")))
                assert want == (direct.status == "unsat")


class TestVacuousEntailment:
    def test_unsatisfiable_kb_entails_everything(self):
        kb = parse_kb("(instance a BOTTOM) (instance b A)")
        assert kb_satisfiable(kb).status == "unsat"
        assert subsumed_by(kb, Name("A"), Name("B")).value is True
        assert subsumed_by(kb, TOP, BOTTOM).value is True
        assert instance_of(kb, "b", Name("B")).value is True
        assert concept_satisfiable(kb, TOP).status == "unsat"
        assert instances(kb, BOTTOM) == kb.individuals()


class TestDecidedByBackjumping:
    """Queries that chronological backtracking left UNKNOWN."""

    def test_verdict_carries_the_search_stats(self, kb21):
        kb = augment_for_instance(kb21, "john", Name("Student"))
        verdict = kb_satisfiable(kb)
        assert verdict.status == "unsat"
        assert 0 < verdict.stats.branches < 100

    def test_university_tbox_with_two_teachers(self):
        tbox = "".join(EX21_TEXT.splitlines(keepends=True)[:4])
        kb = parse_kb(tbox + "".join(
            f"(related t{i} c{i} TEACHES) (instance t{i} (atmost 1 DEGREE))"
            f" (instance c{i} Course)\n" for i in range(2)
        ))
        assert instance_of(kb, "t0", Name("Student")).value is True
        assert instance_of(kb, "t0", Some(role("DEGREE"), Name("BS"))).value is True

    def test_two_inclusion_kb_under_the_suite_guards(self):
        kb = parse_kb(
            "(implies (atmost 2 S) (all S (atmost 2 S)))\n"
            "(implies (all S (atmost 3 S))"
            " (and (some S (some R TOP)) (all S (some S C))))\n"
            "(related b b S)\n(instance b (atmost 2 S))\n"
            "(instance b (atmost 1 R))\n(instance a (all S (not C)))\n"
        )
        suite = Guards(max_variables=60, max_constraints=4000, max_branches=1500)
        assert kb_satisfiable(kb, suite, self_check=True).status == "sat"
        c = Not(And(BOTTOM, Name("C")))
        assert concept_satisfiable(kb, c, suite, self_check=True).status == "sat"


class TestModelPrunedRetrieval:
    """instance_checks decides the KB once and runs the tableau only for the
    individuals its canonical model puts in the concept."""

    @staticmethod
    def _counting(monkeypatch) -> list:
        runs = []
        searched = services.complete

        def complete(system, guards=None, trace=None):
            runs.append(system)
            return searched(system, guards, trace)

        monkeypatch.setattr(services, "complete", complete)
        return runs

    @staticmethod
    def _agrees_with_one_run_each(kb, c) -> None:
        loop = {a: instance_of(kb, a, c) for a in sorted(kb.individuals())}
        assert instance_checks(kb, c) == loop
        assert instances(kb, c) == frozenset(a for a, truth in loop.items() if truth.value)

    def test_matches_one_run_per_individual(self, kb21, kb33):
        rng = random.Random(66)
        for kb in random_kbs(seed=66, count=40):
            for c in (Name("A"), Not(Name("B")), random_concept(rng, 2)):
                self._agrees_with_one_run_each(kb, c)
        for kb, names in ((kb21, ("Student", "Prof", "Course")), (kb33, ("Italian",)),
                          (teachers_kb(3), ("Course", "Student"))):
            for name in names:
                self._agrees_with_one_run_each(kb, Name(name))
                self._agrees_with_one_run_each(kb, Not(Name(name)))
            self._agrees_with_one_run_each(kb, Some(role("DEGREE"), Name("BS")))
        self._agrees_with_one_run_each(teachers_kb(10), Name("Course"))

    def test_the_model_refutes_all_but_the_courses(self, monkeypatch):
        kb = teachers_kb(10)
        runs = self._counting(monkeypatch)
        found = instances(kb, Name("Course"))
        assert found == frozenset(f"c{i}" for i in range(10))
        assert len(runs) == 1 + 10

    def test_an_inconsistent_kb_makes_one_run(self, monkeypatch):
        kb = parse_kb("(instance a BOTTOM) (instance b A) (related b c R)")
        runs = self._counting(monkeypatch)
        checks = instance_checks(kb, Name("B"))
        assert checks == {a: TruthVerdict(True) for a in ("a", "b", "c")}
        assert len(runs) == 1

    def test_an_empty_abox_makes_no_run(self, monkeypatch):
        kb = parse_kb("(implies A (some R A))")
        runs = self._counting(monkeypatch)
        assert instance_checks(kb, Name("A")) == {}
        assert instances(kb, Name("A")) == frozenset()
        assert runs == []
