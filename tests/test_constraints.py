from collections import Counter

import pytest

from alcnr import (
    And, ConstraintSystem, Distinct, Global, Ind, Member, Name, Not, Or,
    RoleLink, Some, TOP, Var, applicable_rule_instances, apply_rule_instance,
    complete, concept_key, parse_kb, role, translate_kb,
)
from alcnr.constraints import AUX_INDIVIDUAL, object_str
from _generators import random_kbs


class TestTranslate:
    def test_cyclic_example_matches_hand_translation(self, kb33, s_sigma):
        system = translate_kb(kb33)
        assert system.constraints == s_sigma.constraints
        assert system.next_var_index == 0
        assert system.separated(Ind("peter"), Ind("susan"))

    def test_university_example(self, kb21):
        system = translate_kb(kb21)
        john, cs156 = Ind("john"), Ind("cs156")
        assert RoleLink(john, "TEACHES", cs156) in system.constraints
        assert system.separated(john, cs156)
        assert not any(isinstance(c, Distinct) for c in system.constraints)
        assert len([c for c in system.constraints if isinstance(c, Global)]) == 4
        # the complement of each inclusion body must be simple
        for c in system.constraints:
            if isinstance(c, Global):
                assert isinstance(c.concept, Or)

    def test_role_conjunction_expands_to_one_link_per_name(self):
        system = translate_kb(parse_kb("(related a b (and R S))"))
        a, b = Ind("a"), Ind("b")
        assert RoleLink(a, "R", b) in system.constraints
        assert RoleLink(a, "S", b) in system.constraints

    def test_empty_abox_gets_an_auxiliary_individual(self):
        system = translate_kb(parse_kb("(implies A B)"))
        assert system.constraints == frozenset({
            Global(Or(Not(Name("A")), Name("B"))),
            Member(Ind(AUX_INDIVIDUAL), TOP),
        })

    def test_distinct_pairs_cover_every_individual_pair(self):
        system = translate_kb(parse_kb("(related a b R) (instance c A)"))
        assert not any(isinstance(c, Distinct) for c in system.constraints)
        a, b, c = Ind("a"), Ind("b"), Ind("c")
        for x, y in ((a, b), (a, c), (b, c)):
            assert system.separated(x, y) and system.separated(y, x)
        assert not system.separated(a, a)


class TestLabelsAndSuccessors:
    def test_label_set_accumulates_memberships(self, s10):
        x = Var(0)
        italian = Name("Italian")
        expected = frozenset({
            italian,
            Or(Not(italian), Some(role("FRIEND"), italian)),
            Some(role("FRIEND"), italian),
        })
        assert s10.member_concepts(x) == expected

    def test_absent_object_has_empty_label_set(self, s10):
        assert s10.member_concepts(Ind("nobody")) == frozenset()

    def test_final_variables_share_a_label_set(self, s10):
        assert s10.member_concepts(Var(1)) == s10.member_concepts(Var(0))
        assert s10.label(Var(1)) == s10.label(Var(0))

    def test_r_successor_requires_every_conjunct(self, s_sigma):
        assert s_sigma.role_successors(Ind("peter"), role("FRIEND")) == [Ind("susan")]
        partial = ConstraintSystem(
            frozenset({RoleLink(Ind("a"), "P", Ind("b"))}), 0, parse_kb("")
        )
        assert partial.role_successors(Ind("a"), role("P", "Q")) == []

    def test_successors_in_the_completion(self, s10):
        assert s10.role_successors(Var(0), role("FRIEND")) == [Var(1)]


class TestSeparation:
    def test_translated_individuals_are_separated(self, s_sigma):
        assert s_sigma.separated(Ind("peter"), Ind("susan"))
        assert s_sigma.separated(Ind("susan"), Ind("peter"))

    def test_unrelated_variables_are_not_separated(self, s10):
        assert not s10.separated(Var(0), Var(1))

    def test_explicit_pairs_are_separated_and_counted_once(self):
        v0, v1, a, b = Var(0), Var(1), Ind("a"), Ind("b")
        system = ConstraintSystem(
            [Distinct(v0, v1), Distinct(v1, v0), Distinct(a, b)], 2, parse_kb("")
        )
        assert system.size == len(system.constraints) == 2
        assert system.distinct_pairs() == frozenset({(a, b), (v0, v1)})
        assert system.separated(v1, v0) and not system.separated(v0, v0)
        assert system.extended([Distinct(v0, v1)]).size == 2

    def test_distinct_normalizes_and_rejects_degenerate(self):
        assert Distinct(Var(1), Var(0)) == Distinct(Var(0), Var(1))
        with pytest.raises(ValueError):
            Distinct(Var(0), Var(0))


class TestSubstitution:
    def test_rewrites_every_occurrence(self):
        y, t, x = Var(1), Ind("t"), Var(0)
        system = ConstraintSystem(
            frozenset({Member(y, Name("A")), RoleLink(x, "P", y)}), 2, parse_kb("")
        )
        out = system.substituted(y, t)
        assert out.constraints == frozenset({
            Member(t, Name("A")), RoleLink(x, "P", t)
        })

    def test_idempotent_once_the_variable_is_gone(self):
        y, t = Var(0), Ind("t")
        system = ConstraintSystem(frozenset({Member(y, Name("A"))}), 1, parse_kb(""))
        once = system.substituted(y, t)
        assert once.substituted(y, t).constraints == once.constraints

    def test_duplicate_constraints_merge(self):
        y, t = Var(0), Ind("t")
        system = ConstraintSystem(
            frozenset({Member(y, Name("C")), Member(t, Name("C"))}), 1, parse_kb("")
        )
        assert system.substituted(y, t).constraints == frozenset({Member(t, Name("C"))})

    def test_the_target_takes_the_groups_of_the_variable(self):
        v0, v1, v2, v3 = Var(0), Var(1), Var(2), Var(3)
        system = ConstraintSystem(
            [Distinct(v0, v1), Distinct(v0, v2), Distinct(v1, v3), Member(v1, Name("A"))],
            4, parse_kb(""),
        )
        out = system.substituted(v3, v0)
        # (v3, v1) becomes the (v0, v1) that v0 already had
        assert out.constraints == frozenset({
            Distinct(v0, v1), Distinct(v0, v2), Member(v1, Name("A"))
        })
        assert out.size == 3 and out.objects() == [v0, v1, v2]
        assert out.separated(v0, v1) and not out.separated(v1, v2)
        with pytest.raises(ValueError, match="separated"):
            system.substituted(v1, v0)

    def test_only_variables_can_be_substituted(self):
        system = ConstraintSystem(frozenset({Member(Ind("a"), Name("A"))}), 0, parse_kb(""))
        with pytest.raises(ValueError):
            system.substituted(Ind("a"), Ind("b"))


def scanned_witness(system: ConstraintSystem, x: Var) -> Var | None:
    """The reference for `witness`: the first variable before x, in
    variable order, whose label set equals x's."""
    mine = system.member_concepts(x)
    for w in system.variables():
        if w.index >= x.index:
            return None
        if system.member_concepts(w) == mine:
            return w
    return None


def assert_witnesses_match_the_scan(system: ConstraintSystem) -> int:
    """Check `witnesses()` and `witness` on every variable against the
    scan; returns the number of blocked variables."""
    scanned = [(v, scanned_witness(system, v)) for v in system.variables()]
    found = system.witnesses()
    # in variable order, as the trace's "blocked on" lines need
    assert list(found.items()) == [(v, w) for v, w in scanned if w is not None]
    assert [(v, system.witness(v)) for v in system.variables()] == scanned
    return len(found)


class TestWitness:
    def test_later_equivalent_variable_is_blocked(self, s10):
        assert s10.witness(Var(1)) == Var(0)
        assert s10.is_blocked(Var(1))

    def test_first_variable_has_no_witness(self, s10):
        assert s10.witness(Var(0)) is None
        assert not s10.is_blocked(Var(0))

    def test_single_variable_system(self):
        system = ConstraintSystem(frozenset({Member(Var(0), Name("A"))}), 1, parse_kb(""))
        assert system.witness(Var(0)) is None

    def test_witness_is_the_least_equivalent_variable(self):
        a = Name("A")
        system = ConstraintSystem(
            frozenset({Member(Var(0), a), Member(Var(1), a), Member(Var(2), a)}),
            3, parse_kb(""),
        )
        assert system.witness(Var(2)) == Var(0)
        assert system.witness(Var(1)) == Var(0)
        # a witness is itself never blocked
        assert system.witness(Var(0)) is None

    def test_the_witness_map_matches_the_scan(self, s10):
        a = Name("A")
        system = ConstraintSystem(
            frozenset({Member(Var(0), a), Member(Var(1), Name("B")), Member(Var(2), a)}),
            3, parse_kb(""),
        )
        assert system.witnesses() == {Var(2): Var(0)}
        assert s10.witnesses() == {Var(1): Var(0)}
        assert assert_witnesses_match_the_scan(system) == 1
        blocked = 0
        for kb in random_kbs(seed=5555, count=200):
            result = complete(translate_kb(kb))
            if result.status != "sat":
                continue
            system = result.completion.extended([])  # no witness map yet
            blocked += assert_witnesses_match_the_scan(system)
            assert result.completion.witnesses() == system.witnesses()
        assert blocked >= 20
        derived = [
            system for _, system, _, _ in TestIncrementalDerivation._derivations(
                random_kbs(seed=13, count=30)
                + [parse_kb(t) for t in TestIncrementalDerivation.MERGING_KBS], 6)
        ]
        assert sum(map(assert_witnesses_match_the_scan, derived)) > 0


class TestMetrics:
    def test_counts_distinct_concepts_with_subexpressions(self, s_sigma):
        assert s_sigma.metrics().concept_count == 5

    def test_no_membership_constraints_means_zero(self):
        system = ConstraintSystem(
            frozenset({RoleLink(Ind("a"), "P", Ind("b")), Distinct(Ind("a"), Ind("b"))}),
            0, parse_kb(""),
        )
        assert system.metrics().concept_count == 0

    def test_completion_has_one_unblocked_variable(self, s10):
        m = s10.metrics()
        assert m.variable_count == 2
        assert m.unblocked_count == 1

    def test_concept_count_is_stable_under_derivation(self, s_sigma, s10):
        assert s_sigma.metrics().concept_count == s10.metrics().concept_count


class TestIncrementalDerivation:
    """extended() and substituted() index only what a step adds on top of
    the parent's indexes; every view must match a from-scratch construction
    over the same constraint set, and the parent must stay as it was."""

    # KBs whose searches substitute: variables merged into a variable and
    # into an individual; then a sibling-group variable merged into an
    # individual, into a variable of another group (twice, the second time
    # into a variable already in two groups) and into a variable of none
    MERGING_KBS = (
        "(instance a (some R A)) (instance a (some R B)) (instance a (some R C))"
        " (instance a (atmost 2 R))",
        "(related a b R) (instance a (some R A)) (instance a (atmost 1 R))",
        "(related a b R) (instance a (and (atleast 2 R) (atmost 2 R)))",
        "(instance a (and (atleast 2 R) (atleast 2 (and R S)) (atmost 2 R)))",
        "(instance a (and (atleast 2 R) (some R A) (atmost 2 R)))",
    )

    @staticmethod
    def _derivations(kbs, choice_seed):
        """(kb, system, instance, choice) along random derivations."""
        import random
        from alcnr import detect_clash, first_rule_instance
        from alcnr.tableau import BRANCHING_RULES

        rng = random.Random(choice_seed)
        for kb in kbs:
            system = translate_kb(kb)
            for _ in range(15):
                inst = first_rule_instance(system)
                if inst is None or detect_clash(system) is not None:
                    break
                choice = rng.randrange(len(inst.choices)) \
                    if inst.rule in BRANCHING_RULES else None
                yield kb, system, inst, choice
                system = apply_rule_instance(system, inst, choice)

    def test_views_match_scratch_rebuild_along_random_derivations(self):
        from _generators import random_kbs

        kbs = random_kbs(seed=13, count=30) + [parse_kb(t) for t in self.MERGING_KBS]
        for kb, parent, inst, choice in self._derivations(kbs, 6):
            if parent.variables():
                # read the parent's blocking and labels (the witness map is
                # cached) before deriving from it
                parent.witness(parent.variables()[-1])
                for o in parent.objects():
                    parent.member_concepts(o)
            system = apply_rule_instance(parent, inst, choice)
            rebuilt = ConstraintSystem(
                system.constraints, system.next_var_index, kb
            )
            assert rebuilt.constraints == system.constraints
            assert system.size == len(system.constraints) == rebuilt.size
            assert system.objects() == rebuilt.objects()
            assert system.global_concepts() == rebuilt.global_concepts()
            assert system.distinct_pairs() == rebuilt.distinct_pairs()
            pairs, objects = system.distinct_pairs(), system.objects()
            for i, a in enumerate(objects):
                for b in objects[i + 1:]:
                    inds = isinstance(a, Ind) and isinstance(b, Ind)
                    shared = bool(system.groups_of(a) & system.groups_of(b))
                    assert system.separated(a, b) == (inds or (a, b) in pairs) \
                        == (inds or shared) == rebuilt.separated(a, b)
            for o in system.objects():
                assert system.member_concepts(o) == rebuilt.member_concepts(o)
                assert sorted(system.member_concepts(o), key=concept_key) == \
                    sorted(rebuilt.member_concepts(o), key=concept_key)
                assert system.links_from(o) == rebuilt.links_from(o)
            for v in system.variables():
                assert system.witness(v) == rebuilt.witness(v)
            assert [
                (i.rule, i.target) for i in applicable_rule_instances(system)
            ] == [
                (i.rule, i.target) for i in applicable_rule_instances(rebuilt)
            ]

    def test_deriving_a_child_leaves_the_parent_unchanged(self):
        from _generators import random_kbs

        def views(system):
            return (
                system.constraints, list(system.objects()), system.size,
                {o: system.member_concepts(o) for o in system.objects()},
                {o: sorted(system.member_concepts(o), key=concept_key) for o in system.objects()},
                {o: system.links_from(o) for o in system.objects()},
                system.distinct_pairs(),
            )

        kbs = random_kbs(seed=14, count=30) + [parse_kb(t) for t in self.MERGING_KBS]
        rules = Counter()
        for _, parent, inst, choice in self._derivations(kbs, 7):
            before = views(parent)
            views(apply_rule_instance(parent, inst, choice))  # fills the child's caches
            assert views(parent) == before
            rules[inst.rule] += 1
        assert rules["atmost"] >= 2 and rules["atleast"] and rules["exists"]


class TestObjects:
    def test_individuals_order_before_variables(self):
        objs = [Var(1), Ind("z"), Var(0), Ind("a")]
        assert sorted(objs) == [Ind("a"), Ind("z"), Var(0), Var(1)]

    def test_variable_print_form(self):
        assert object_str(Var(3)) == "_v3"
        assert object_str(Ind("peter")) == "peter"

    def test_member_requires_simple_concepts(self):
        with pytest.raises(ValueError, match="simple"):
            Member(Ind("a"), Not(And(Name("A"), Name("B"))))

    def test_dump_is_sorted_lines(self, s_sigma):
        dump = s_sigma.dump()
        assert dump.splitlines() == sorted(dump.splitlines())
        assert "forall : (or (not Italian) (some FRIEND Italian))" in dump
