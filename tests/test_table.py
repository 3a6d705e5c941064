"""The concept table: ids, ranks, decoding, growth, and its place in the
search and the session."""

import copy
import pickle
import random

import pytest

from alcnr import (
    And, ConstraintSystem, Global, Guards, Ind, Member, Name, Not, Or, Some,
    complete, concept_key, instance_of, kb_satisfiable, parse_kb, role,
    subconcepts, subsumed_by, to_simple_form, translate_kb,
)
from alcnr import services
from alcnr.table import ConceptTable, bit_ids
from _generators import random_concept, random_kbs
from conftest import EX21_TEXT, cli


def _closure(system):
    found = set()
    for c in system.global_concepts():
        found |= subconcepts(c)
    for o in system.objects():
        for c in system.member_concepts(o):
            found |= subconcepts(c)
    return found


def _in_rank_order(table):
    return sorted(range(len(table.concepts)), key=table.rank.__getitem__)


def _in_key_order(table):
    return sorted(range(len(table.concepts)), key=lambda i: concept_key(table.concepts[i]))


def _deep_chain(depth):
    chain = Name("B")
    for i in range(depth):
        chain = And(Name(f"A{i % 3}"), chain) if i % 2 else Or(chain, Not(Name("B")))
    return chain


_ARRAYS = ("concepts", "left", "right", "parts", "complement", "rank", "kinds")


class TestRanks:
    def test_rank_order_is_key_order_on_the_random_suite(self):
        for kb in random_kbs(seed=41, count=150):
            system = translate_kb(kb)
            table = system.concept_table()
            assert set(table.concepts) == _closure(system)
            assert _in_rank_order(table) == _in_key_order(table)

    def test_a_grown_table_keeps_key_order(self):
        rng = random.Random(5)
        cases = [
            (translate_kb(kb).concept_table(),
             [to_simple_form(random_concept(rng, 3)) for _ in range(3)])
            for kb in random_kbs(seed=42, count=80)
        ]
        cases.append((translate_kb(parse_kb(EX21_TEXT)).concept_table(), [_deep_chain(200)]))
        for table, new in cases:
            grown = table.grown(new)
            assert list(grown.concepts[:len(table.concepts)]) == list(table.concepts)
            assert _in_rank_order(grown) == _in_key_order(grown)

    def test_complements_pair_each_name_with_its_negation(self):
        rng = random.Random(6)
        for kb in random_kbs(seed=43, count=80):
            table = translate_kb(kb).concept_table()
            grown = table.grown([to_simple_form(random_concept(rng, 3)) for _ in range(3)])
            for t in (table, grown):
                ids = t.ids
                want = {ids[c]: ids[c.concept] for c in t.concepts
                        if isinstance(c, Not) and isinstance(c.concept, Name)}
                want.update({n: c for c, n in want.items()})
                assert {i: o for i, o in enumerate(t.complement) if o >= 0} == want
                assert t.paired == sum(1 << i for i in want)

    def test_deep_chains_rank_in_key_order(self):
        chain = _deep_chain(200)
        table = ConceptTable([chain]).closed_copy()
        assert len(table.concepts) == len(subconcepts(chain))
        assert _in_rank_order(table) == _in_key_order(table)


class TestLabels:
    def test_decoding_an_encoded_label_gives_the_label(self):
        rng = random.Random(7)
        for _ in range(200):
            label = {to_simple_form(random_concept(rng, 3)) for _ in range(rng.randint(1, 6))}
            system = ConstraintSystem([Member(Ind("a"), c) for c in label], 0, None)
            table = system.concept_table()
            bits = system.label(Ind("a"))
            assert sum(1 << table.ids[c] for c in label) == bits
            assert set(table.decode(bits)) == label == system.member_concepts(Ind("a"))
            assert all(system.has_member(Ind("a"), c) for c in label)

    def test_bit_ids_lists_the_set_bits_lowest_first(self):
        assert bit_ids(0) == []
        assert bit_ids(0b101001) == [0, 3, 5]
        assert bit_ids(1 << 300) == [300]


class TestGrowth:
    def test_a_concept_outside_the_table_grows_a_copy(self):
        kb = parse_kb(EX21_TEXT)
        parent = translate_kb(kb)
        table = parent.concept_table()
        before = list(table.concepts), dict(table.ids), table.rank
        new = And(Name("Student"), Not(Name("Visitor")))
        child = parent.extended([Member(Ind("john"), new)])
        assert child.concept_table() is not table
        assert (list(table.concepts), dict(table.ids), table.rank) == before
        assert new not in table.ids and new in child.concept_table().ids
        for o in parent.objects():  # old ids read the same in the new table
            assert child.label(o) & parent.label(o) == parent.label(o)
            assert parent.member_concepts(o) <= child.member_concepts(o)
        assert child.member_concepts(Ind("john")) == \
            parent.member_concepts(Ind("john")) | {new}

    def test_a_grown_closed_table_holds_tuples_as_a_closed_one_does(self):
        table = translate_kb(parse_kb(EX21_TEXT)).concept_table()
        grown = table.grown([And(Name("Student"), Not(Name("Visitor")))])
        assert grown.closed and len(grown.concepts) > len(table.concepts)
        for t in (table, grown):
            assert all(type(getattr(t, a)) is tuple for a in _ARRAYS)

    def test_a_batch_of_new_concepts_grows_the_table_once(self, monkeypatch):
        parent = translate_kb(parse_kb(EX21_TEXT))
        table = parent.concept_table()
        calls = []
        grown = ConceptTable.grown
        monkeypatch.setattr(ConceptTable, "grown",
                            lambda self, concepts: calls.append(1) or grown(self, concepts))
        new = [Name(f"Fresh{i}") for i in range(3)]
        child = parent.extended([Member(Ind("john"), c) for c in new])
        assert len(calls) == 1
        assert all(c not in table.ids and c in child.concept_table().ids for c in new)
        assert child.member_concepts(Ind("john")) == parent.member_concepts(Ind("john")) | set(new)

    def test_a_known_concept_shares_the_table(self):
        parent = translate_kb(parse_kb(EX21_TEXT))
        table = parent.concept_table()
        child = parent.extended([Member(Ind("cs156"), Name("Student"))])
        assert child.concept_table() is table

    def test_an_open_table_is_closed_once_and_shared_by_the_search(self):
        system = translate_kb(parse_kb(EX21_TEXT))
        assert not system._table.closed
        result = complete(system, Guards(debug_checks=True))
        table = system.concept_table()
        assert table.closed and result.completion.concept_table() is table

    def test_a_query_whose_goal_is_in_the_table_shares_the_kbs(self):
        kb = parse_kb(EX21_TEXT)
        kb_satisfiable(kb)
        base = services._session(kb).base
        known = services._query_system(kb, services._instance_goal(True, "cs156", Name("Prof")))
        assert known.concept_table() is base.concept_table()
        new = services._query_system(kb, services._instance_goal(True, "cs156", Name("Ghost")))
        assert new.concept_table() is not base.concept_table()

    def test_globals_added_later_are_unfolded(self):
        system = translate_kb(parse_kb("(instance a A)"))
        assert system.unfolding() == ()
        g = Or(Not(Name("A")), Some(role("R"), Name("B")))
        child = system.extended([Global(g)])
        table = child.concept_table()
        assert child.unfolding() == ((table.ids[g], 1 << table.ids[Name("A")], ()),)
        assert complete(child).status == "sat"


class TestSessions:
    def test_queried_kbs_round_trip_and_answer_alike(self):
        kb = parse_kb(EX21_TEXT)
        kb_satisfiable(kb, self_check=True)
        for back in (pickle.loads(pickle.dumps(kb)), copy.deepcopy(kb)):
            table = back._session.base.concept_table()
            assert table.concepts == kb._session.base.concept_table().concepts
            assert _in_rank_order(table) == _in_key_order(table)
            for a in ("john", "cs156"):
                for c in (Name("Student"), Name("Prof"), Name("Course")):
                    assert instance_of(back, a, c) == instance_of(kb, a, c)
            assert subsumed_by(back, Name("Prof"), Name("Student")) == \
                subsumed_by(kb, Name("Prof"), Name("Student"))


def _wide(k: int) -> str:
    return "(and " + " ".join(f"A{i}" for i in range(k)) + ")"


@pytest.mark.parametrize("concept", [
    _wide(255),
    "(and A " * 254 + "B" + ")" * 254,
    "(or A " * 254 + "B" + ")" * 254,
], ids=["255-wide-and", "255-deep-and", "255-deep-or"])
def test_wide_and_deep_concepts_decide_in_every_command(kb_file, concept):
    """At the nesting limit each decision command decides at once, with the
    form in the KB and as the query concept: no step sorts a label, and
    every closed table, the KB's and each one grown by a query, ranks by
    flat keys."""
    import time

    path = kb_file(f"(instance a {concept})")
    first = "A0" if concept.startswith("(and A0") else "A"
    is_or = concept.startswith("(or")
    for argv, want in (
        (["check-sat", path], 0), (["concept-sat", path, first], 0),
        (["subsumes", path, first, "B"], 1), (["instance", path, "a", first], int(is_or)),
        (["instances", path, first], 0), (["model", path], 0), (["trace", path], 0),
    ):
        start = time.perf_counter()
        code, _, err = cli(*argv)
        assert (code, err) == (want, ""), argv
        assert time.perf_counter() - start < 10, argv
    path = kb_file("(instance a B)", "query.txt")
    start = time.perf_counter()
    for argv, want in (
        (["concept-sat", path, concept], 0), (["subsumes", path, concept, first], int(is_or)),
        (["instance", path, "a", concept], int(not is_or)),
    ):
        code, _, err = cli(*argv)
        assert (code, err) == (want, ""), argv
    assert time.perf_counter() - start < 0.5
