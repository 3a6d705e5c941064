import pytest

from alcnr import (
    Assignment, Guards, Var, complete, extract_model, is_model, parse_kb,
    satisfies_system, translate_kb,
)
from alcnr.constraints import Ind
from _generators import random_kbs


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
