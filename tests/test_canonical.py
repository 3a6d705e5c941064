from collections import Counter

import pytest

from alcnr import (
    All, Assignment, AtMost, ConceptAssertion, Guards, Interpretation, Name, Not, Some, Var,
    complete, concept_key, eval_concept, extract_model, is_model, parse_kb, role,
    role_pairs, satisfies_system, translate_kb,
)
from alcnr import semantics
from alcnr.constraints import Ind
from _generators import random_kbs
from conftest import teachers_kb


class TestExtractModel:
    def test_cyclic_completion_yields_the_looped_model(self, s10):
        interp, assignment = extract_model(s10)
        assert interp.domain == frozenset({"peter", "susan", "_v0", "_v1"})
        assert interp.concepts["Italian"] == frozenset({"_v0", "_v1"})
        # the blocked variable inherits its witness's link, closing the loop
        assert interp.roles["FRIEND"] == frozenset({
            ("peter", "susan"), ("susan", "_v0"), ("_v0", "_v1"), ("_v1", "_v1"),
        })
        assert assignment.of(Var(1)) == "_v1"
        assert assignment.of(Ind("peter")) == "peter"

    def test_singleton_system(self):
        kb = parse_kb("(instance a A)")
        system = translate_kb(kb)
        interp, _ = extract_model(system)
        assert interp.domain == frozenset({"a"})
        assert interp.concepts["A"] == frozenset({"a"})
        assert interp.individuals == {"a": "a"}

    def test_extracted_model_satisfies_the_completion_and_the_kb(self, kb33, s10):
        interp, assignment = extract_model(s10)
        assert satisfies_system(s10, interp, assignment)
        assert is_model(interp, kb33)

    def test_incomplete_system_is_rejected(self, s9):
        with pytest.raises(ValueError, match="incomplete"):
            extract_model(s9)

    def test_clashed_system_is_rejected(self):
        system = translate_kb(parse_kb("(instance a BOTTOM)"))
        with pytest.raises(ValueError, match="clash"):
            extract_model(system)


class TestRolePairProvenance:
    def test_blocked_variables_inherit_exactly_their_witness_links(self):
        for kb in random_kbs(seed=2222, count=80):
            result = complete(translate_kb(kb))
            if result.status != "sat":
                continue
            completion = result.completion
            interp, assignment = extract_model(completion)
            for v in completion.variables():
                if not completion.is_blocked(v):
                    continue
                # a pair is never both explicit and implicit: a blocked
                # variable has no links of its own
                assert not completion.has_successors(v)
                w = completion.witness(v)
                for p, pairs in interp.roles.items():
                    outgoing = {t for (s, t) in pairs if s == assignment.of(v)}
                    expected = {
                        assignment.of(link.target)
                        for link in completion.links_from(w)
                        if link.role_name == p
                    }
                    assert outgoing == expected


class TestSelfCheck:
    def test_every_sat_verdict_checks_out_on_the_random_suite(self):
        guards = Guards(debug_checks=True)
        sat_seen = 0
        for kb in random_kbs(seed=3333, count=120):
            result = complete(translate_kb(kb), guards)
            if result.status != "sat":
                continue
            sat_seen += 1
            interp, assignment = extract_model(result.completion)
            assert satisfies_system(result.completion, interp, assignment)
            assert is_model(interp, kb)
        assert sat_seen >= 50

    def test_unique_names_hold_in_extracted_models(self, kb21):
        result = complete(translate_kb(kb21))
        interp, _ = extract_model(result.completion)
        values = list(interp.individuals.values())
        assert len(values) == len(set(values))

    def test_self_check_rejects_merged_individuals(self, kb21):
        result = complete(translate_kb(kb21))
        interp, assignment = extract_model(result.completion)
        assert satisfies_system(result.completion, interp, assignment)
        merged = Assignment({**assignment.mapping, Ind("cs156"): assignment.of(Ind("john"))})
        assert not satisfies_system(result.completion, interp, merged)

    def test_self_check_rejects_merged_siblings(self):
        result = complete(translate_kb(parse_kb("(instance a (atleast 2 R))")))
        interp, assignment = extract_model(result.completion)
        assert satisfies_system(result.completion, interp, assignment)
        merged = Assignment({**assignment.mapping, Var(1): assignment.of(Var(0))})
        assert not satisfies_system(result.completion, interp, merged)


def _with(interp, concepts=(), roles=()):
    return Interpretation(interp.domain, {**interp.concepts, **dict(concepts)},
                          {**interp.roles, **dict(roles)}, interp.individuals)


def _mutants(completion, interp, assignment):
    """Models that each break one label of the completion by one change: an
    element leaves a name's extension (for a negated name, joins it), or a
    role pair is dropped under a some, or added under an all or an atmost.
    A mutant is kept only if a fresh evaluation of the label rejects it."""
    for o in completion.objects():
        e = assignment.of(o)
        for c in sorted(completion.member_concepts(o), key=concept_key):
            if isinstance(c, Name):
                mutant = _with(interp, {c.name: interp.concepts[c.name] - {e}})
            elif isinstance(c, Not):
                a = c.concept.name
                mutant = _with(interp, {a: interp.concepts[a] | {e}})
            elif isinstance(c, (All, Some, AtMost)):
                succ = {t for s, t in role_pairs(interp, c.role) if s == e}
                if isinstance(c, Some):
                    hits = sorted(succ & eval_concept(interp, c.concept))
                    if len(hits) != 1:
                        continue
                    p = c.role.names[0]
                    mutant = _with(interp, roles={p: interp.roles[p] - {(e, hits[0])}})
                else:
                    if isinstance(c, All):
                        outside = interp.domain - eval_concept(interp, c.concept)
                    else:
                        outside = interp.domain - succ if len(succ) == c.count else ()
                    if not outside:
                        continue
                    t = min(outside)
                    mutant = _with(interp, roles={
                        p: interp.roles[p] | {(e, t)} for p in c.role.names})
            else:
                continue
            if e not in eval_concept(mutant, c):
                yield mutant


def _is_model_fresh(interp, kb) -> bool:
    """is_model with a fresh evaluation of every axiom."""
    return all(
        eval_concept(interp, inc.lhs) <= eval_concept(interp, inc.rhs) for inc in kb.tbox
    ) and all(
        interp.individuals[a.individual] in eval_concept(interp, a.concept)
        if isinstance(a, ConceptAssertion) else
        (interp.individuals[a.subject], interp.individuals[a.target])
        in role_pairs(interp, a.role)
        for a in kb.abox
    )


class TestSharedExtensions:
    def test_checks_reject_mutated_models(self):
        completions = rejected = 0
        # lazily unfolded completions are small: 600 KBs give 364 with a mutant
        for kb in random_kbs(seed=4444, count=600):
            result = complete(translate_kb(kb))
            if result.status != "sat":
                continue
            interp, assignment = extract_model(result.completion)
            assert is_model(interp, kb)
            mutants = list(_mutants(result.completion, interp, assignment))
            completions += bool(mutants)
            for mutant in mutants:
                assert not satisfies_system(result.completion, mutant, assignment)
                model = is_model(mutant, kb)
                assert model == _is_model_fresh(mutant, kb)
                rejected += not model
        assert completions >= 300
        assert rejected >= 300

    def test_one_successor_map_per_role(self, monkeypatch):
        kb = teachers_kb(40)
        completion = complete(translate_kb(kb)).completion
        interp, assignment = extract_model(completion)
        calls = Counter()
        counted = semantics.role_pairs

        def counting(interp, r):
            calls[r] += 1
            return counted(interp, r)

        monkeypatch.setattr(semantics, "role_pairs", counting)
        assert satisfies_system(completion, interp, assignment)
        assert calls == {role("TEACHES"): 1, role("DEGREE"): 1}
        calls.clear()
        assert is_model(interp, kb)
        assert calls == {role("TEACHES"): 1, role("DEGREE"): 1}
