import random
import sys

import pytest

from alcnr import (
    And, ConstraintSystem, Distinct, Guards, Ind, Interpretation, Member, Name, Not, RoleLink,
    SearchStats, Some, Trace, Var, applicable_rule_instances,
    apply_rule_instance, complete, detect_clash, extract_model,
    find_model_bounded, first_rule_instance, is_complete, is_model,
    kb_satisfiable, parse_kb, role, satisfies_system, translate_kb,
)
from alcnr.services import augment_for_instance
from alcnr import constraints, tableau
from alcnr.constraints import Siblings
from alcnr.tableau import (
    BRANCHING_RULES, GENERATING_RULES, RULE_ATLEAST, RULE_ATMOST, RULE_EXISTS,
    RULE_FORALL, RULE_OR, InvariantViolation,
)
from _generators import _candidate_kb, random_kbs
from _kbs import clique_probe
from _tbox_generators import tbox_heavy_kbs
from conftest import _ex33_pieces, teachers_kb
from _system_oracle import system_satisfiable_bounded


class TestApplicableInstances:
    def test_translated_cyclic_kb_starts_on_an_individual(self, s_sigma):
        instances = applicable_rule_instances(s_sigma)
        assert instances
        assert isinstance(instances[0].target, Ind)

    def test_completion_has_no_applicable_instance(self, s10):
        assert applicable_rule_instances(s10) == []
        assert is_complete(s10)

    def test_pre_completion_step_is_a_disjunction_on_the_last_variable(self, s9):
        inst = first_rule_instance(s9)
        assert inst.rule == RULE_OR
        assert inst.target == Var(1)

    def test_individual_instances_precede_variable_instances(self, s9):
        targets = [inst.target for inst in applicable_rule_instances(s9)]
        seen_var = False
        for t in targets:
            if isinstance(t, Var):
                seen_var = True
            else:
                assert not seen_var

    def test_nongenerating_precede_generating_per_object(self, kb21):
        system = translate_kb(kb21)
        order = {}
        for pos, inst in enumerate(applicable_rule_instances(system)):
            order.setdefault(inst.target, []).append(inst.rule)
        for rules in order.values():
            generating_seen = False
            for r in rules:
                if r in GENERATING_RULES:
                    generating_seen = True
                else:
                    assert not generating_seen

    def test_generating_rules_suppressed_on_blocked_variables(self, s10):
        # _v1 still carries an unexpanded existential, but it is blocked
        assert s10.has_member(Var(1), Some(role("FRIEND"), Name("Italian")))
        assert all(
            inst.target != Var(1) for inst in applicable_rule_instances(s10)
        )


class TestApplyRule:
    def test_forall_pushes_onto_the_successor(self, s_sigma):
        inst = first_rule_instance(s_sigma)
        assert inst.rule == RULE_FORALL and inst.target == Ind("peter")
        after = apply_rule_instance(s_sigma, inst)
        assert after.constraints - s_sigma.constraints == frozenset({
            Member(Ind("susan"), Not(Name("Italian")))
        })

    def test_exists_creates_one_fresh_variable(self, s_sigma):
        # drive to the point where susan's existential fires
        system, result = s_sigma, None
        for _ in range(10):
            inst = first_rule_instance(system)
            if inst.rule == RULE_EXISTS:
                result = apply_rule_instance(system, inst)
                break
            choice = 0 if inst.rule in BRANCHING_RULES else None
            system = apply_rule_instance(system, inst, choice)
        assert result is not None
        x = Var(0)
        assert result.constraints - system.constraints == frozenset({
            RoleLink(Ind("susan"), "FRIEND", x), Member(x, Name("Italian"))
        })
        assert result.next_var_index == 1

    def test_atleast_adds_pairwise_separated_variables(self):
        kb = parse_kb("(instance s (atleast 2 R))")
        system = translate_kb(kb)
        inst = first_rule_instance(system)
        assert inst.rule == RULE_ATLEAST
        after = apply_rule_instance(system, inst)
        y1, y2 = Var(0), Var(1)
        assert after.constraints - system.constraints == frozenset({
            RoleLink(Ind("s"), "R", y1), RoleLink(Ind("s"), "R", y2),
            Distinct(y1, y2),
        })

    def test_atmost_substitutes_the_chosen_pair(self):
        kb = parse_kb("(instance s (atmost 1 R)) (related s t R)")
        system = translate_kb(kb)
        y = Var(0)
        system = system.extended(
            [RoleLink(Ind("s"), "R", y), Member(y, Name("A"))], next_var_index=1
        )
        inst = first_rule_instance(system)
        assert inst.rule == RULE_ATMOST
        assert inst.choices == ((y, Ind("t")),)
        after = apply_rule_instance(system, inst, 0)
        assert Member(Ind("t"), Name("A")) in after.constraints
        assert y not in after.objects()

    def test_inapplicable_instance_rejected(self):
        inst = first_rule_instance(_or_system())
        other = translate_kb(parse_kb("(instance b B)"))
        with pytest.raises(ValueError, match="not applicable"):
            apply_rule_instance(other, inst, 0)

    def test_or_requires_a_valid_choice(self):
        system = _or_system()
        inst = first_rule_instance(system)
        assert inst.rule == RULE_OR
        with pytest.raises(ValueError, match="choice"):
            apply_rule_instance(system, inst, None)
        with pytest.raises(ValueError, match="choice"):
            apply_rule_instance(system, inst, 5)
        left = apply_rule_instance(system, inst, 0)
        assert Member(Ind("a"), Name("A")) in left.constraints


def _or_system():
    return translate_kb(parse_kb("(instance a (or A B))"))


class TestDetectClash:
    def test_bottom_membership(self):
        system = translate_kb(parse_kb("(instance a BOTTOM)"))
        clash = detect_clash(system)
        assert clash.kind == "bottom" and clash.obj == Ind("a")

    def test_complement_pair(self):
        system = translate_kb(parse_kb("(instance a (and A (not A)))"))
        system = apply_rule_instance(system, first_rule_instance(system))
        clash = detect_clash(system)
        assert clash.kind == "complement" and clash.detail == "A"

    def test_separated_successors_violate_atmost(self):
        system = translate_kb(parse_kb(
            "(instance a (atmost 1 R)) (related a b R) (related a c R)"
        ))
        clash = detect_clash(system)
        assert clash.kind == "number" and clash.obj == Ind("a")

    def test_clash_free_translation(self, s_sigma, s10):
        assert detect_clash(s_sigma) is None
        assert detect_clash(s10) is None

    def test_unseparated_excess_successors_are_not_a_clash(self):
        # the merge rule, not the clash, handles identifiable successors
        system = translate_kb(parse_kb("(instance a (atmost 1 R))"))
        y0, y1 = Var(0), Var(1)
        system = system.extended(
            [RoleLink(Ind("a"), "R", y0), RoleLink(Ind("a"), "R", y1)],
            next_var_index=2,
        )
        assert detect_clash(system) is None
        inst = first_rule_instance(system)
        assert inst.rule == RULE_ATMOST

    def test_any_successor_violates_atmost_zero(self):
        # n+1 = 1: a single successor is already a pairwise-separated set
        system = translate_kb(parse_kb("(instance a (atmost 0 R))"))
        system = system.extended([RoleLink(Ind("a"), "R", Var(0))], next_var_index=1)
        clash = detect_clash(system)
        assert clash is not None and clash.kind == "number"


class TestComplete:
    def test_cyclic_kb_completion_equals_the_hand_derivation(self, kb33, s10):
        # lazy unfolding leaves the global off peter and susan, whose labels
        # lack Italian: its (not Italian) disjunct holds there vacuously
        italian, _, disj, peter, susan, *_ = _ex33_pieces()
        unfolded = {Member(peter, disj), Member(susan, disj), Member(peter, Not(italian))}
        result = complete(translate_kb(kb33), Guards(debug_checks=True))
        assert result.status == "sat"
        assert result.completion.constraints == s10.constraints - unfolded
        assert result.completion.witness(Var(1)) == Var(0)

    def test_exactly_two_variables_and_one_blocking(self, kb33):
        result = complete(translate_kb(kb33), trace=Trace(limit=None))
        assert result.completion.next_var_index == 2
        blocked = [l for l in result.trace.lines() if "blocked" in l]
        assert len(blocked) == 1 and "_v1" in blocked[0] and "_v0" in blocked[0]

    def test_university_kb_is_satisfiable(self, kb21):
        assert complete(translate_kb(kb21), Guards(debug_checks=True)).status == "sat"

    def test_denying_the_entailed_membership_is_unsatisfiable(self, kb21):
        kb = parse_kb(
            "(instance john (not Student))\n"
            + "".join(line + "\n" for line in _kb_lines(kb21))
        )
        assert complete(translate_kb(kb), Guards(debug_checks=True)).status == "unsat"

    def test_una_number_clash(self):
        kb = parse_kb("(instance a (atmost 1 R)) (related a b R) (related a c R)")
        assert complete(translate_kb(kb)).status == "unsat"
        kb2 = parse_kb("(instance a (atmost 2 R)) (related a b R) (related a c R)")
        assert complete(translate_kb(kb2)).status == "sat"

    def test_guards_surface_as_resource_exceeded(self):
        kb = parse_kb(
            "(implies (atmost 2 (and R S)) (all (and R S) (not C)))\n"
            "(implies (or (all (and R S) (and (not C) TOP)) (atleast 2 S))"
            " (some R (all R (not B))))\n"
            "(instance b (or (not C) (some R (atmost 0 (and R S)))))\n"
            "(related b c R)"
        )
        result = complete(translate_kb(kb), Guards(max_branches=200))
        assert result.status == "resource-exceeded"
        assert result.guard == "max-branches"

    def test_atleast_over_a_role_conjunction(self):
        kb = parse_kb("(instance a (atleast 2 (and R S)))")
        result = complete(translate_kb(kb), Guards(debug_checks=True))
        assert result.status == "sat"
        completion = result.completion
        succ = completion.role_successors(Ind("a"), role("R", "S"))
        assert len(succ) == 2
        assert completion.separated(*succ)

    def test_conjunction_successors_count_against_single_role_bounds(self):
        kb = parse_kb("(instance a (and (atleast 2 (and R S)) (atmost 1 R)))")
        assert complete(translate_kb(kb), Guards(debug_checks=True)).status == "unsat"
        relaxed = parse_kb("(instance a (and (atleast 2 (and R S)) (atmost 2 R)))")
        assert complete(translate_kb(relaxed), Guards(debug_checks=True)).status == "sat"

    def test_atleast_guards_fire_before_the_allocation(self):
        import tracemalloc

        def run(count, guards):
            system = translate_kb(parse_kb(f"(instance a (atleast {count} R))"))
            tracemalloc.start()
            try:
                result = complete(system, guards, Trace(limit=None))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5_000_000
            return result.guard, result.trace.lines()[-1]

        # 1200 variables and 719,400 pairs: the variable guard is checked first
        assert run(1200, Guards()) == ("max-variables", "step 1: guard: max-variables")
        assert run(1200, Guards(max_constraints=40_000))[0] == "max-variables"
        # 300 variables fit; their 44,850 pairs do not
        assert run(300, Guards(max_constraints=40_000)) == \
            ("max-constraints", "step 1: guard: max-constraints")

    def test_many_independent_individuals_are_decided(self):
        # one branch point per individual: deeper than the interpreter's
        # recursion limit, which a recursive search could not finish
        n = sys.getrecursionlimit() + 50
        kb = parse_kb("".join(f"(instance a{i} (or A B))\n" for i in range(n)))
        assert complete(translate_kb(kb)).status == "sat"

    def test_atleast_zero_is_never_applicable(self):
        system = translate_kb(parse_kb("(instance a (atleast 0 R))"))
        assert first_rule_instance(system) is None
        assert complete(system).status == "sat"

    def test_deterministic_given_the_input(self, kb21):
        a = complete(translate_kb(kb21), trace=Trace(limit=None))
        b = complete(translate_kb(kb21), trace=Trace(limit=None))
        assert a.trace.lines() == b.trace.lines()
        assert a.completion.constraints == b.completion.constraints

    def test_trace_lines_follow_the_documented_grammar(self, kb33):
        result = complete(translate_kb(kb33), trace=Trace(limit=None))
        for line in result.trace.lines():
            assert line.startswith("step ")
            body = line.split(": ", 1)[1]
            head = body.split(" ", 1)[0]
            assert head in {
                "and", "or", "forall", "global", "atmost", "exists", "atleast",
                "blocked", "clash:", "guard:",
            }

    def test_a_limited_trace_counts_the_lines_it_dropped(self, kb21):
        full = complete(translate_kb(kb21), trace=Trace(limit=None)).trace
        last = complete(translate_kb(kb21), trace=Trace(limit=5)).trace
        assert len(full.lines()) > 5 and full.dropped == 0
        assert last.lines() == full.lines()[-5:]
        assert last.dropped == len(full.lines()) - 5
        assert Trace(limit=0).dropped == 0


def _kb_lines(kb):
    from alcnr import render_kb
    return render_kb(kb).splitlines()


class TestSearchInvariants:
    """Structural properties asserted across a randomized mini-suite."""

    def test_random_suite_runs_clean_with_debug_checks(self):
        guards = Guards(debug_checks=True)
        for kb in random_kbs(seed=777, count=120):
            result = complete(translate_kb(kb), guards)
            assert result.status in ("sat", "unsat")
            if result.status == "sat":
                self._check_completion(result.completion)

    @staticmethod
    def _check_completion(completion):
        metrics = completion.metrics()
        assert metrics.unblocked_count <= 2 ** metrics.concept_count
        reachable = set(completion.individuals())
        frontier = list(reachable)
        while frontier:
            o = frontier.pop()
            for link in completion.links_from(o):
                if link.target not in reachable:
                    reachable.add(link.target)
                    frontier.append(link.target)
        for v in completion.variables():
            assert v in reachable, "variable unreachable from every individual"
            if completion.is_blocked(v):
                assert not completion.has_successors(v)

    def test_concept_count_is_fixed_within_a_search(self, monkeypatch, kb21):
        # the debug invariant counts the concepts once, at the root
        from alcnr import tableau

        counts = []
        checked = tableau._Searcher._checked

        def spy(searcher, old, new, inst, snapshots):
            counts.append(new.metrics().concept_count)
            return checked(searcher, old, new, inst, snapshots)

        monkeypatch.setattr(tableau._Searcher, "_checked", spy)
        kbs = random_kbs(seed=23, count=20) + [
            kb21, augment_for_instance(kb21, "john", Name("Student")),
            parse_kb("(instance a (and (atleast 2 R) (atleast 2 (and R S)) (atmost 2 R)))"),
        ]
        steps = 0
        for kb in kbs:
            system = translate_kb(kb)
            counts.clear()
            complete(system, Guards(debug_checks=True))
            assert set(counts) <= {system.metrics().concept_count}
            steps += len(counts)
        assert steps > 100

    def test_monotonicity_of_rule_applications(self):
        rng = random.Random(31)
        for kb in random_kbs(seed=909, count=40):
            system = translate_kb(kb)
            for _ in range(12):
                inst = first_rule_instance(system)
                if inst is None or detect_clash(system):
                    break
                choice = rng.randrange(len(inst.choices)) \
                    if inst.rule in BRANCHING_RULES else None
                after = apply_rule_instance(system, inst, choice)
                if inst.rule == RULE_ATMOST:
                    assert len(after.objects()) < len(system.objects())
                else:
                    assert after.constraints > system.constraints
                system = after


class TestTrustedMemberships:
    """The search builds its memberships without re-checking simplicity;
    `debug_checks` checks each new label concept once."""

    def test_the_search_runs_no_simplicity_check(self, monkeypatch):
        systems = [translate_kb(teachers_kb(3)), translate_kb(parse_kb(
            "(instance a (and (some R (or A B)) (atmost 1 R)))\n"
            "(instance a (some R (all S (not A))))\n(implies A (atleast 2 S))"
        ))]
        calls = []
        checked = constraints.is_simple
        monkeypatch.setattr(constraints, "is_simple", lambda c: calls.append(c) or checked(c))
        for system in systems:
            assert complete(system).status == "sat"
        assert calls == []
        # translation and API callers still validate
        with pytest.raises(ValueError, match="simple"):
            Member(Ind("a"), Not(And(Name("A"), Name("B"))))

    def test_debug_checks_catch_a_concept_that_is_not_simple(self):
        bad = And(Name("A"), Not(And(Name("B"), Name("C"))))
        system = ConstraintSystem([Member._trusted(Ind("a"), bad)], 0, parse_kb(""))
        with pytest.raises(InvariantViolation, match="not simple"):
            complete(system, Guards(debug_checks=True))


class TestRuleInvariance:
    """One rule application preserves (for deterministic rules) or refines
    (for nondeterministic ones) bounded satisfiability of the system."""

    def test_deterministic_rules_preserve_satisfiability(self):
        checked = 0
        for kb in random_kbs(seed=555, count=40):
            system = translate_kb(kb)
            if len(system.objects()) > 3:
                continue
            inst = first_rule_instance(system)
            if inst is None or inst.rule in BRANCHING_RULES:
                continue
            before = system_satisfiable_bounded(system, 3)
            after = system_satisfiable_bounded(apply_rule_instance(system, inst), 3)
            if before is None or after is None:
                continue
            assert before == after
            checked += 1
        assert checked >= 5

    def test_nondeterministic_rules_offer_a_satisfiable_choice(self):
        checked = 0
        for kb in random_kbs(seed=556, count=60):
            system = translate_kb(kb)
            if len(system.objects()) > 3:
                continue
            inst = first_rule_instance(system)
            while inst is not None and inst.rule not in BRANCHING_RULES:
                if detect_clash(system):
                    break
                system = apply_rule_instance(system, inst)
                if len(system.objects()) > 3:
                    break
                inst = first_rule_instance(system)
            if inst is None or inst.rule not in BRANCHING_RULES \
                    or len(system.objects()) > 3:
                continue
            before = system_satisfiable_bounded(system, 3)
            if not before:
                continue
            outcomes = [
                system_satisfiable_bounded(apply_rule_instance(system, inst, i), 3)
                for i in range(len(inst.choices))
            ]
            assert any(outcomes), "no branch preserved satisfiability"
            checked += 1
        assert checked >= 3


# Hand KBs whose first choice fails on a clash that only a dependency carried
# through a rule or a merge ties to that choice; jumping further back would
# answer UNSAT where the second choice has a model.
JUMP_KBS = {
    # the link to the successor depends on the choice, the forall premise not
    "forall-over-a-chosen-link": (
        "(instance a (all R C)) (instance a (all R (not C)))"
        " (instance a (or (some R A) B))", "sat"),
    # _v0 : C comes from the chosen forall; merging _v0 into b clashes
    "merge-moves-a-chosen-concept": (
        "(instance a (or (all (and R S) C) E)) (instance a (some (and R S) D))"
        " (related a b R) (instance b (not C)) (instance a (atmost 1 R))", "sat"),
    # merging the chosen successor gives b an S link, which a forall uses later
    "merge-adds-a-role-name": (
        "(instance a (or (some (and R S) D) E)) (related a b R)"
        " (instance b (not C)) (instance a (atmost 1 R))"
        " (related z a R) (instance z (all R (all S C)))", "sat"),
    # the atleast rule's != pair makes the number clash
    "atleast-pair-number-clash": (
        "(instance a (or (atleast 2 R) E)) (instance a (atmost 1 R))", "sat"),
    # the != pair of an atleast sibling moves onto b in the merge
    "merge-moves-an-atleast-pair": (
        "(instance a (or (atleast 2 R) E)) (related a b R) (instance a (atmost 2 R))"
        " (related z a R) (instance z (all R (atmost 1 R)))", "sat"),
    "atleast-against-atmost": (
        "(instance a (or (atleast 2 R) (atleast 3 R))) (instance a (atmost 1 R))",
        "unsat"),
}

# The clash on a : Q does not depend on the merge of step 4, so the search
# jumps over it to the first choice, and the merge's dependencies on b must
# be rewound with it.
JUMP_OVER_A_MERGE = (
    "(instance a (or (and Q (some (and R S) D)) (all R (not K))))"
    " (related a b R) (instance b K) (instance a (atmost 1 R))"
    " (related z a R) (instance z (all R (not Q)))"
)


class TestBackjumping:
    def test_university_instance_query_needs_few_branches(self, kb21):
        kb = augment_for_instance(kb21, "john", Name("Student"))
        result = complete(translate_kb(kb))
        assert result.status == "unsat"
        # chronological backtracking with eager unfolding takes 10,762
        # branches; lazy unfolding needs 13 and leaves nothing to jump over
        assert result.stats.branches < 100

    def test_the_two_teacher_instance_query_jumps(self):
        kb = augment_for_instance(teachers_kb(2), "t0", Name("Student"))
        result = complete(translate_kb(kb))
        assert result.status == "unsat"
        assert result.stats.skipped > 0

    def test_a_jump_over_a_merge_rewinds_its_dependencies(self):
        result = complete(
            translate_kb(parse_kb(JUMP_OVER_A_MERGE)), Guards(debug_checks=True),
            Trace(limit=None),
        )
        assert result.status == "unsat"
        lines = result.trace.lines()
        assert len(lines) == 7
        assert "atmost on a" in lines[3] and lines[4].endswith("| clash: complement")
        assert "or on a" in lines[5] and "choice 2/2" in lines[5]
        assert result.stats == SearchStats(branches=3, skipped=1, max_depth=2)

    @pytest.mark.parametrize("name", sorted(JUMP_KBS))
    def test_jumps_through_rules_and_merges_agree_with_the_oracle(self, name):
        text, expected = JUMP_KBS[name]
        kb = parse_kb(text)
        verdict = kb_satisfiable(kb, Guards(debug_checks=True), self_check=True)
        assert verdict.status == expected
        found = find_model_bounded(kb, len(kb.individuals()) + 1, 20_000)
        assert isinstance(found, Interpretation) == (expected == "sat")

    def test_unscreened_candidates_agree_with_the_oracle(self):
        # drawn without the engine screen, so guard-heavy KBs stay in
        guards = Guards(max_variables=60, max_constraints=4000, max_branches=1500,
                        debug_checks=True)
        rng = random.Random(2718)
        decided = 0
        for _ in range(600):
            kb = _candidate_kb(rng)
            result = complete(translate_kb(kb), guards)
            if result.status == "resource-exceeded":
                continue
            decided += 1
            if result.status == "sat":
                interp, assignment = extract_model(result.completion)
                assert satisfies_system(result.completion, interp, assignment)
                assert is_model(interp, kb)
            found = find_model_bounded(kb, len(kb.individuals()) + 1, 1000)
            if isinstance(found, Interpretation):
                assert result.status == "sat"
        assert decided >= 590


# hand KBs whose atleast siblings meet an atmost bound: (KB, verdict, two
# objects left in one sibling group by a merge)
SIBLING_KBS = {
    # three pairwise-separated siblings against at most two: a number clash
    "three-siblings": ("(instance a (and (atleast 3 R) (atmost 2 R)))", "unsat", None),
    # the sibling _v1 is merged into the exists variable _v0
    "into-a-variable": (
        "(instance a (and (atleast 2 R) (some R A) (atmost 2 R)))", "sat",
        (Var(0), Var(2)),
    ),
    # the sibling _v0 is merged into the individual b
    "into-an-individual": (
        "(related a b R) (instance a (and (atleast 2 R) (atmost 2 R)))", "sat",
        (Ind("b"), Var(1)),
    ),
}


class TestSiblingGroups:
    @pytest.mark.parametrize("name", sorted(SIBLING_KBS))
    def test_merged_siblings_agree_with_the_hand_verdict(self, name):
        text, expected, grouped = SIBLING_KBS[name]
        kb = parse_kb(text)
        verdict = kb_satisfiable(kb, Guards(debug_checks=True), self_check=True)
        assert verdict.status == expected
        found = find_model_bounded(kb, len(kb.individuals()) + 2, 20_000)
        assert isinstance(found, Interpretation) == (expected == "sat")
        if grouped is not None:
            completion = complete(translate_kb(kb)).completion
            x, y = grouped
            assert completion.groups_of(x) and completion.separated(x, y)
            assert completion.role_successors(Ind("a"), role("R")) == [x, y]

    def test_a_sibling_gained_in_a_merge_depends_on_it(self):
        # merging _v0 into b makes b a sibling of _v1, and the number clash on
        # a rests on that: the search tries the other merge before the `or`
        text, _ = JUMP_KBS["merge-moves-an-atleast-pair"]
        result = complete(translate_kb(parse_kb(text)), trace=Trace(limit=None))
        assert result.stats == SearchStats(branches=4, skipped=0, max_depth=2)
        assert "atmost on a: a : (atmost 2 R) choice 2/2 | subst: _v1 -> b" \
            in result.trace.lines()[4]

    def test_a_large_atleast_builds_no_sibling_pairs(self):
        import tracemalloc

        kb = parse_kb("(instance a (atleast 600 R))")
        tracemalloc.start()
        try:
            verdict = kb_satisfiable(kb, self_check=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status == "sat"
        # 179,700 stored `Distinct` pairs would take tens of megabytes
        assert peak < 2_000_000

    def test_atleast_1000_under_max_variables_1000(self):
        # `size` counts the 499,500 sibling pairs, though none is stored, so
        # the constraint guard stops the application that the variable guard
        # would let through
        def decide(guards, trace=None):
            kb = parse_kb("(instance a (atleast 1000 R))")
            return kb_satisfiable(kb, guards, trace, self_check=True)

        trace = Trace(limit=None)
        verdict = decide(Guards(max_variables=1000), trace)
        assert (verdict.status, verdict.guard) == ("unknown", "max-constraints")
        assert trace.lines() == ["step 1: guard: max-constraints"]
        assert verdict.stats.branches == 0
        verdict = decide(Guards(max_variables=1000, max_constraints=600_000))
        assert verdict.status == "sat"
        assert len(verdict.interpretation.domain) == 1001
        for constraints in (200_000, 600_000):
            verdict = decide(Guards(max_variables=999, max_constraints=constraints))
            assert (verdict.status, verdict.guard) == ("unknown", "max-variables")

    def test_open_choice_points_keep_only_the_label_index(self):
        import tracemalloc

        kb = teachers_kb(200)
        tracemalloc.start()
        try:
            verdict = kb_satisfiable(kb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status == "sat"
        # each of the 400 open choice points keeps its system's `_labels`
        # copy; a second per-object dict beside it peaks at about 16 MB
        assert peak < 13_000_000

    def test_the_atleast_trace_lists_every_sibling_pair(self):
        result = complete(
            translate_kb(parse_kb("(instance a (atleast 3 R))")), trace=Trace(limit=None)
        )
        assert result.trace.lines() == [
            "step 1: atleast on a: a : (atleast 3 R) | added: _v0 != _v1, _v0 != _v2,"
            " _v1 != _v2, a R _v0, a R _v1, a R _v2",
            "step 2: blocked on _v1 | witness: _v0",
            "step 3: blocked on _v2 | witness: _v0",
        ]
        assert result.completion.size == len(result.completion.constraints) == 7


# hand KBs for lazy unfolding: (KB, verdict, two trace-line fragments, the
# first of which must come on an earlier line than the second)
LAZY_KBS = {
    # A reaches a through b's `all` after a has been processed
    "late-name": (
        "(implies A B) (related b a P) (instance b (all P A)) (instance a (not B))",
        "unsat", ("forall on b", "global on a"),
    ),
    "late-name-sat": (
        "(implies A B) (related b a P) (instance b (all P A))",
        "sat", ("forall on b", "global on a"),
    ),
    # an R link and an S link to one object make it an (and R S) successor
    "conjunction-links": (
        "(implies Q (all (and R S) C)) (instance a Q) (related a b R) (related a b S)"
        " (instance b (not C))",
        "unsat", ("global on a", "forall on a"),
    ),
    # the atmost merge makes _v0 an (and R S) successor of a
    "conjunction-by-merge": (
        "(implies Q (all (and R S) C))"
        " (instance a (and Q (some R (not C)) (some (and R S) D) (atmost 1 R)))",
        "unsat", ("global on a", "subst: _v1 -> _v0"),
    ),
    # the merge carries the trigger A from _v0 onto t
    "trigger-by-merge": (
        "(implies A B) (related a t R) (instance a (and (some R A) (atmost 1 R)))"
        " (instance t (not B))",
        "unsat", ("subst: _v0 -> t", "global on t"),
    ),
    "trigger-by-merge-sat": (
        "(implies A B) (related a t R) (instance a (and (some R A) (atmost 1 R)))",
        "sat", ("subst: _v0 -> t", "global on t"),
    ),
    # the atleast concept on _v0 is the trigger for both role disjuncts
    "atleast-trigger": (
        "(implies (atleast 1 R) (all R C))"
        " (instance a (some S (and (atleast 2 R) (all R (not C)))))",
        "unsat", ("global on _v0", "atleast on _v0"),
    ),
    "atleast-trigger-sat": (
        "(implies (atleast 1 R) (all R C)) (instance a (some S (atleast 2 R)))",
        "sat", ("global on _v0", "atleast on _v0"),
    ),
    # _v1 is blocked by _v0, whose FRIEND link it inherits in the model
    "blocked-with-successors": (
        "(implies Italian (some FRIEND Italian))"
        " (implies TOP (or (all FRIEND Italian) (atmost 0 FRIEND)))"
        " (instance peter (some FRIEND Italian))",
        "sat", ("global on _v1", "blocked on _v1"),
    ),
    # the trigger rests on a's first choice: both branches of the global fail
    # through it, so the search resumes there and is SAT through C (D)
    "trigger-by-choice": (
        "(implies A B) (instance a (or A C)) (instance a (not B))",
        "sat", ("global on a", "a : (or A C) choice 2/2"),
    ),
    "role-trigger-by-choice": (
        "(implies (some R (not Y)) E) (instance a (or (some R (not Y)) D))"
        " (instance a (not E))",
        "sat", ("global on a", "a : (or (some R (not Y)) D) choice 2/2"),
    ),
}


class TestLazyUnfolding:
    @pytest.mark.parametrize("name", sorted(LAZY_KBS))
    def test_hand_kbs_agree_with_the_oracle(self, name):
        text, expected, (first, then) = LAZY_KBS[name]
        kb = parse_kb(text)
        trace = Trace(limit=None)
        verdict = kb_satisfiable(kb, Guards(debug_checks=True), trace, self_check=True)
        assert verdict.status == expected
        found = find_model_bounded(kb, len(kb.individuals()) + 2, 20_000)
        assert isinstance(found, Interpretation) == (expected == "sat")
        lines = trace.lines()
        at = [next(i for i, line in enumerate(lines) if part in line) for part in (first, then)]
        assert at[0] < at[1]

    def test_a_conjunction_disjunct_unfolds_on_one_of_its_role_names(self):
        # a has only an R link, so no (and R S) successor, but a merge could
        # give it one: the global goes on a; b has no link and does not get it
        kb = parse_kb("(implies TOP (all (and R S) C)) (related a b R) (instance b (not C))")
        trace = Trace(limit=None)
        verdict = kb_satisfiable(kb, Guards(debug_checks=True), trace, self_check=True)
        assert verdict.status == "sat"
        assert any(line.startswith("step 1: global on a") for line in trace.lines())
        assert not any("global on b" in line for line in trace.lines())

    def test_the_blocked_variable_has_a_witness_with_successors(self):
        text = LAZY_KBS["blocked-with-successors"][0]
        completion = complete(translate_kb(parse_kb(text)), Guards(debug_checks=True)).completion
        assert completion.witnesses() == {Var(1): Var(0)}
        assert completion.has_successors(Var(0))

    def test_the_paper_completion_is_still_complete(self, s10):
        assert is_complete(s10)
        assert detect_clash(s10) is None
        interp, _ = extract_model(s10)
        assert interp.concepts["Italian"] == frozenset({"_v0", "_v1"})
        assert interp.roles["FRIEND"] == frozenset({
            ("peter", "susan"), ("susan", "_v0"), ("_v0", "_v1"), ("_v1", "_v1"),
        })

    def test_tbox_heavy_kbs_agree_with_the_oracle(self):
        guards = Guards(max_variables=60, max_constraints=4000, max_branches=1500,
                        debug_checks=True)
        decided = 0
        for kb in tbox_heavy_kbs(seed=31, count=200):
            verdict = kb_satisfiable(kb, guards, self_check=True)
            decided += verdict.status != "unknown"
            found = find_model_bounded(kb, len(kb.individuals()) + 1, 1000)
            if isinstance(found, Interpretation):
                assert verdict.status == "sat"
        assert decided == 200


def _separation_layout(rng: random.Random) -> ConstraintSystem:
    """The R-successors of a: individuals, sibling groups of fresh variables,
    and objects that merges have left in several groups."""
    a, r = Ind("a"), role("R")
    system = translate_kb(parse_kb("(instance a A)"))
    inds = [Ind(n) for n in ("b", "c", "d")[: rng.randint(0, 3)]]
    system = system.extended([RoleLink(a, "R", b) for b in inds])
    for _ in range(rng.randint(1, 3)):
        n, k = system.next_var_index, rng.randint(1, 4)
        fresh = tuple(Var(n + i) for i in range(k))
        system = system.extended(
            [RoleLink(a, "R", v) for v in fresh] + [Siblings(fresh)], next_var_index=n + k
        )
    for _ in range(rng.randint(0, 4)):
        succ = system.role_successors(a, r)
        pairs = [(y, t) for y in succ for t in succ if isinstance(y, Var)
                 and t < y and not system.separated(y, t)]
        if pairs:
            system = system.substituted(*rng.choice(pairs))
    return system


class TestSeparatedClique:
    def test_the_probe_is_peeled_without_the_exhaustive_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("combinations called")

        monkeypatch.setattr(tableau, "combinations", refuse)
        verdict = kb_satisfiable(clique_probe(20), Guards(debug_checks=True), self_check=True)
        assert verdict.status == "sat"

    def test_random_layouts_agree_with_brute_force(self):
        from itertools import combinations

        rng = random.Random(99)
        several = 0
        for _ in range(300):
            system = _separation_layout(rng)
            succ = system.role_successors(Ind("a"), role("R"))
            several += any(len(system.groups_of(o)) > 1 for o in succ)
            objs = rng.sample(succ, rng.randint(0, len(succ)))
            for size in range(len(objs) + 2):
                expected = size <= 0 or any(
                    all(system.separated(x, y) for x, y in combinations(combo, 2))
                    for combo in combinations(objs, size)
                )
                assert tableau._has_separated_clique(system, objs, size) == expected
        assert several >= 30
