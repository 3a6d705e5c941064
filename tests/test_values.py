"""The value protocol of the engine's values: concepts, roles, objects, the
four constraint records and knowledge bases.  Each round-trips through
pickle and deepcopy, equal values built apart are equal with equal hashes,
values of different kinds never compare equal, and objects sort in the
paper's order by themselves."""

import copy
import pickle

import pytest

from alcnr import (
    BOTTOM, TOP, All, And, AtLeast, AtMost, Distinct, Global, Ind,
    KnowledgeBase, Member, Name, Not, Or, Role, RoleLink, Some, Var,
    concept_key, kb_satisfiable, parse_concept, parse_kb, role,
)
from conftest import EX21_TEXT


def _queried_kb():
    """A KB whose session a query has filled."""
    kb = parse_kb(EX21_TEXT)
    kb_satisfiable(kb, self_check=True)
    return kb


# each builds a fresh value; no two are equal
VALUES = {
    "Name": lambda: Name("A"),
    "Top": lambda: TOP,
    "Bottom": lambda: BOTTOM,
    "And": lambda: And(Name("A"), Not(Name("B"))),
    "Or": lambda: Or(Name("A"), BOTTOM),
    "Not": lambda: Not(Name("A")),
    "All": lambda: All(role("R"), Name("A")),
    "Some": lambda: Some(role("S", "R"), TOP),
    "AtLeast": lambda: AtLeast(2, role("R")),
    "AtMost": lambda: AtMost(0, role("R")),
    "parsed": lambda: parse_concept("(and (all (and R S) (not A)) (or (atleast 2 R) B))"),
    "Role": lambda: Role(("S", "R", "S")),
    "Role A": lambda: Role(("A",)),
    "Ind": lambda: Ind("A"),
    "Var": lambda: Var(3),
    "Member": lambda: Member(Ind("a"), Or(Not(Name("A")), Name("B"))),
    "RoleLink": lambda: RoleLink(Ind("a"), "R", Var(0)),
    "Global": lambda: Global(Or(Not(Name("A")), Some(role("R"), Name("B")))),
    "Distinct": lambda: Distinct(Var(1), Ind("a")),
    "KnowledgeBase": lambda: parse_kb(EX21_TEXT),
    "queried KnowledgeBase": _queried_kb,
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("twin", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_round_trip_keeps_value_and_hash(make, twin):
    value = make()
    back = twin(value)
    assert type(back) is type(value)
    assert back == value and not back != value
    assert hash(back) == hash(value)
    if not isinstance(value, KnowledgeBase):  # a rebuilt frozenset may list in another order
        assert repr(back) == repr(value)


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_values_built_apart_are_equal_with_equal_hashes(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_values_of_different_kinds_never_compare_equal():
    values = [make() for make in VALUES.values() if make is not _queried_kb]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and b != a
            assert not a == b and not b == a


def test_a_name_is_not_the_individual_of_the_same_name():
    assert Name("A") != Ind("A") and Ind("A") != Name("A")
    assert not Name("A") == Ind("A") and not Ind("A") == Name("A")
    assert len({Name("A"), Ind("A")}) == 2


def test_objects_sort_in_the_papers_order_without_a_key():
    objs = [Var(10), Ind("z"), Var(2), Ind("a"), Var(0), Ind("b")]
    assert sorted(objs) == [Ind("a"), Ind("b"), Ind("z"), Var(0), Var(2), Var(10)]
    assert Ind("zz") < Var(0) and Var(2) < Var(10)
    assert max(objs) == Var(10) and min(objs) == Ind("a")


def test_objects_read_and_print_as_before():
    assert (Ind("peter").name, Var(3).index) == ("peter", 3)
    assert (Ind(name="peter"), Var(index=3)) == (Ind("peter"), Var(3))
    assert (repr(Ind("peter")), repr(Var(3))) == ("Ind(name='peter')", "Var(index=3)")
    assert repr(Member(Var(0), Name("A"))) == \
        "Member(obj=Var(index=0), concept=Name(name='A'))"


def test_a_distinct_pair_is_stored_in_object_order():
    d = Distinct(Var(1), Ind("a"))
    assert (d.first, d.second) == (Ind("a"), Var(1))
    assert d == Distinct(Ind("a"), Var(1))


def test_concept_keys_are_the_nested_tag_tuples():
    c = parse_concept("(and (not A) (or (all (and S R) B) (atmost 1 R)))")
    assert concept_key(c) == (
        4, (3, (0, "A")), (5, (6, ("R", "S"), (0, "B")), (9, 1, ("R",))))
    assert concept_key(TOP) == (1,) and concept_key(BOTTOM) == (2,)
    assert concept_key(Some(role("R"), AtLeast(2, role("R")))) == \
        (7, ("R",), (8, 2, ("R",)))


def test_a_kb_keeps_its_value_apart_from_its_session():
    fresh, queried = parse_kb(EX21_TEXT), _queried_kb()
    assert fresh == queried and hash(fresh) == hash(queried)
    assert KnowledgeBase(fresh.tbox, fresh.abox) == queried


def test_a_verified_model_round_trips():
    model = kb_satisfiable(parse_kb(EX21_TEXT), self_check=True).interpretation
    for back in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert back == model
        with pytest.raises(TypeError):
            back.concepts["Student"] = frozenset()
