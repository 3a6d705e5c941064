import gc
import random

import pytest

from alcnr import (
    And, AtMost, BOTTOM, ConceptAssertion, Guards, InconclusiveError,
    KnowledgeBase, Name, Not, Some, TOP, TruthVerdict, UnknownIndividualError,
    concept_satisfiable, instance_checks, instance_of, instances, is_model,
    kb_satisfiable, parse_kb, role, subsumed_by, translate_kb,
)
from alcnr import render_interpretation, services
from alcnr.services import (
    augment_for_concept_sat, augment_for_instance, augment_for_subsumption,
)
from _generators import _candidate_kb, random_concept, random_kbs
from _tbox_generators import tbox_heavy_kbs
from conftest import EX21_TEXT, EX33_TEXT, teachers_kb

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
        """The model refutes the teachers; each course is asserted one, so
        its check clashes at the goal and needs no search either."""
        kb = teachers_kb(10)
        runs = self._counting(monkeypatch)
        found = instances(kb, Name("Course"))
        assert found == frozenset(f"c{i}" for i in range(10))
        assert len(runs) == 1

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


class TestSession:
    """Each KB object keeps one session: its constraint system, translated
    once and extended by one membership per query, and its decision once a
    call has made one."""

    @staticmethod
    def _kbs() -> list:
        rng = random.Random(67)
        return [
            *(_candidate_kb(rng) for _ in range(300)), *tbox_heavy_kbs(67, 200),
            parse_kb(EX21_TEXT), parse_kb(EX33_TEXT), parse_kb("(implies A (some R B))"),
            KnowledgeBase(frozenset(), frozenset()),
        ]

    def test_each_query_system_is_the_translation_of_its_kb(self, monkeypatch):
        """The system a question is decided on, by the clash test at its goal
        or by a search, is translate_kb of the KB plus the goal, but for its
        `kb`: that is attached only when a model is built, and the model
        then satisfies the augmented KB."""
        systems = []
        clash_test, searched = services.detect_clash, services.complete

        def detect_clash(system, among=None):
            systems.append(system)
            return clash_test(system, among)

        def complete(system, guards=None, trace=None):
            systems.append(system)
            return searched(system, guards, trace)

        monkeypatch.setattr(services, "detect_clash", detect_clash)
        monkeypatch.setattr(services, "complete", complete)
        rng = random.Random(68)
        guards = Guards(max_variables=60, max_constraints=4000, max_branches=1500)
        for kb in self._kbs():
            c, d = random_concept(rng, 2), random_concept(rng, 2)
            # the decision comes last, so that no stored one answers a question
            calls = [
                (lambda: concept_satisfiable(kb, c, guards), augment_for_concept_sat(kb, c)),
                (lambda: subsumed_by(kb, c, d, guards), augment_for_subsumption(kb, c, d)),
                *((lambda a=a: instance_of(kb, a, c, guards), augment_for_instance(kb, a, c))
                  for a in sorted(kb.individuals())),
                (lambda: kb_satisfiable(kb, guards), kb),
            ]
            for call, augmented in calls:
                answer = call()
                got, want = systems[0], translate_kb(augmented)
                assert all(system is got for system in systems)
                assert got.kb is None
                assert got.dump() == want.dump()
                assert got.objects() == want.objects()
                assert (got.size, got.next_var_index) == (want.size, want.next_var_index)
                if getattr(answer, "is_sat", False):
                    assert is_model(answer.interpretation, augmented)
                systems.clear()

    def test_a_kb_is_translated_once(self, monkeypatch):
        translations = []

        def translate(kb):
            translations.append(kb)
            return translate_kb(kb)

        monkeypatch.setattr(services, "translate_kb", translate)
        kb = teachers_kb(10)
        checks = instance_checks(kb, Name("Course"))
        assert [a for a, truth in checks.items() if truth.value] == \
            sorted(f"c{i}" for i in range(10))
        assert len(translations) == 1
        assert instance_of(kb, "t0", Name("Student")).value is True
        assert instance_of(kb, "c0", Name("Prof")).value is False
        assert subsumed_by(kb, Name("Prof"), Some(role("DEGREE"), Name("BS"))).value is True
        assert concept_satisfiable(kb, Name("Prof")).status == "sat"
        assert kb_satisfiable(kb).status == "sat"
        assert len(translations) == 1

    def test_the_reserved_name_and_unknown_individuals_are_checked_first(self):
        kb = parse_kb("(instance a BOTTOM)")
        assert instance_of(kb, "a", Name("A")).value is True  # a stored UNSAT
        with pytest.raises(UnknownIndividualError, match="'b'"):
            instance_of(kb, "b", Name("A"))
        bad = KnowledgeBase(kb.tbox, kb.abox | {ConceptAssertion("__fresh", TOP)})
        assert kb_satisfiable(bad).status == "unsat"
        for ask in (lambda: subsumed_by(bad, TOP, TOP), lambda: concept_satisfiable(bad, TOP)):
            with pytest.raises(ValueError, match="reserved"):
                ask()

    def test_a_stored_decision_answers_as_a_search_would(self, monkeypatch):
        runs = TestModelPrunedRetrieval._counting(monkeypatch)
        rng = random.Random(69)
        statuses = []
        answers = {"stored": [], "searched": []}
        searches = dict.fromkeys(answers, 0)

        def ask(kind, question):
            before = len(runs)
            answers[kind].append(question())
            searches[kind] += len(runs) - before

        for kb in random_kbs(seed=69, count=500):
            statuses.append(kb_satisfiable(kb, self_check=True).status)
            fresh = KnowledgeBase(kb.tbox, kb.abox)
            for c, d in ((Name("A"), Name("B")), (random_concept(rng, 2), random_concept(rng, 2))):
                for kind, on in (("stored", kb), ("searched", fresh)):
                    ask(kind, lambda: subsumed_by(on, c, d))
                    for a in sorted(kb.individuals()):
                        ask(kind, lambda: instance_of(on, a, c))
        assert "unknown" not in statuses and statuses.count("unsat") >= 10
        for stored, searched in zip(answers["stored"], answers["searched"]):
            assert searched.value is None or stored == searched
        questions = len(answers["searched"])
        # at most one search a question: a clash at the goal needs none
        assert searches["searched"] <= questions
        # the stored decision settles more than half of the questions
        assert searches["stored"] < questions / 2

    def test_threads_sharing_a_kb_get_the_serial_answers(self):
        import sys
        import threading

        questions = [
            lambda kb: kb_satisfiable(kb, self_check=True).status,
            lambda kb: instance_of(kb, "t0", Name("Student")),
            lambda kb: instance_of(kb, "c1", Name("Prof")),
            lambda kb: subsumed_by(kb, Name("Prof"), Name("Student")),
            lambda kb: concept_satisfiable(kb, Name("Prof")).status,
            lambda kb: instances(kb, Name("Course")),
        ]
        serial = [ask(teachers_kb(4)) for ask in questions]
        shared = teachers_kb(4)
        answers = [[None] * len(questions) for _ in range(8)]

        def worker(i):  # each thread asks in its own rotated order
            for k in range(len(questions)):
                j = (i + k) % len(questions)
                answers[i][j] = questions[j](shared)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert answers == [serial] * 8

    def test_sessions_make_no_reference_cycles(self):
        kbs = random_kbs(seed=70, count=200)
        gc.collect()
        gc.disable()
        try:
            for kb in kbs:
                kb = KnowledgeBase(kb.tbox, kb.abox)
                kb_satisfiable(kb, self_check=True)
                concept_satisfiable(kb, Name("A"))
                subsumed_by(kb, Name("A"), Name("B"))
                for a in sorted(kb.individuals()):
                    instance_of(kb, a, Some(role("R"), Name("A")))
                instance_checks(kb, Name("A"))
            del kb
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_returned_model_cannot_change_a_later_answer(self):
        """The session stores the model that kb_satisfiable returns; a write
        to it must fail rather than change what the stored model refutes."""
        kb = parse_kb("(instance a A)")
        verdict = kb_satisfiable(kb, self_check=True)
        assert kb._session.decision is verdict.interpretation
        with pytest.raises(TypeError):
            verdict.interpretation.concepts["A"] = frozenset()
        with pytest.raises(AttributeError):
            verdict.interpretation.concepts = {}
        assert instance_of(kb, "a", Name("A")) == TruthVerdict(True)


class TestTruthQuestionsBuildNoModel:
    """instance_of and subsumed_by answer by a clash test at the goal, a
    search's status or the stored decision; none of them builds a canonical
    model.  instances builds one only to decide the KB, once."""

    def test_no_question_extracts_a_model(self, monkeypatch):
        built = []
        extract = services.extract_model

        def extract_model(system):
            built.append(system)
            return extract(system)

        monkeypatch.setattr(services, "extract_model", extract_model)
        rng = random.Random(71)
        kbs = [parse_kb(EX21_TEXT), parse_kb(EX33_TEXT), *random_kbs(seed=71, count=80)]
        consistent = 0
        for kb in kbs:
            c, d = random_concept(rng, 2), random_concept(rng, 2)

            def ask():
                subsumed_by(kb, c, d)
                for a in sorted(kb.individuals()):
                    instance_of(kb, a, c)

            ask()  # undecided: no stored decision
            assert built == []
            if kb.individuals():
                instances(kb, d)  # decides kb, with its one model
                assert len(built) == (kb._session.decision is not services._UNSAT)
                consistent += len(built)
                built.clear()
            ask()  # decided, when kb has individuals
            instances(kb, c)
            assert built == []
        assert consistent >= 40

    def test_a_searched_sat_answer_checks_its_completion(self, monkeypatch):
        def check_completion(system):
            raise ValueError("completion checked")

        monkeypatch.setattr(services, "check_completion", check_completion)
        kb = parse_kb(EX21_TEXT)
        for ask in (lambda: instance_of(kb, "john", Name("Prof")),
                    lambda: subsumed_by(kb, Name("Student"), Name("Prof")),
                    lambda: kb_satisfiable(kb),
                    lambda: concept_satisfiable(kb, Name("Prof"))):
            with pytest.raises(ValueError, match="completion checked"):
                ask()
        # an UNSAT answer has no completion to check
        assert instance_of(kb, "john", Name("Student")).value is True


class TestModelBuiltWhenRead:
    """A verdict without the self-check builds its model on the first read;
    it equals the model of a self-checked verdict."""

    @staticmethod
    def _model(verdict) -> tuple:
        return (render_interpretation(verdict.interpretation),
                sorted(verdict.assignment.mapping.items()))

    def test_it_equals_the_eagerly_built_model(self):
        rng = random.Random(72)
        kbs = [parse_kb(EX21_TEXT), parse_kb(EX33_TEXT), teachers_kb(3),
               *random_kbs(seed=72, count=150)]
        sat = 0
        for kb in kbs:
            c = random_concept(rng, 2)
            for decide in (lambda on, check: kb_satisfiable(on, self_check=check),
                           lambda on, check: concept_satisfiable(on, c, self_check=check)):
                lazy = decide(KnowledgeBase(kb.tbox, kb.abox), False)
                eager = decide(KnowledgeBase(kb.tbox, kb.abox), True)
                assert (lazy.status, lazy.stats) == (eager.status, eager.stats)
                if eager.is_sat:
                    sat += 1
                    assert lazy._model is None
                    assert self._model(lazy) == self._model(eager)
                    assert lazy.interpretation is lazy.interpretation
                else:
                    assert (lazy.interpretation, lazy.assignment) == (None, None)
        assert sat >= 150

    def test_threads_that_read_one_model_get_equal_values(self):
        import sys
        import threading

        want = self._model(kb_satisfiable(teachers_kb(10), self_check=True))
        for _ in range(3):
            verdict = kb_satisfiable(teachers_kb(10))
            start = threading.Barrier(8)
            got = [None] * 8

            def read(i):
                start.wait()
                got[i] = self._model(verdict)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8
