"""Seeded random generators shared by the test suite.

KBs stay within the randomized-suite envelope: at most 3 concept names,
2 role names, 3 individuals, numbers <= 3, nesting depth <= 3.  Candidates
whose completion search trips a small branch guard are discarded and
regenerated (deterministically), keeping the suite inside the engine's
guard-free regime.
"""

from __future__ import annotations

import random

from alcnr import (
    All, And, AtLeast, AtMost, BOTTOM, ConceptAssertion, Guards, Inclusion,
    Interpretation, KnowledgeBase, Name, Not, Or, Role, RoleAssertion, Some,
    TOP, complete, translate_kb,
)

CONCEPT_NAMES = ["A", "B", "C"]
ROLE_NAMES = ["R", "S"]
INDIVIDUALS = ["a", "b", "c"]

_SCREEN_GUARDS = Guards(max_variables=60, max_constraints=4000, max_branches=1500)


def random_role(rng: random.Random, allow_conjunction: bool = True) -> Role:
    if allow_conjunction and rng.random() < 0.2:
        return Role(tuple(ROLE_NAMES))
    return Role((rng.choice(ROLE_NAMES),))


def random_concept(rng: random.Random, depth: int):
    if depth <= 0:
        k = rng.randrange(8)
        if k < 4:
            return Name(rng.choice(CONCEPT_NAMES))
        if k < 6:
            return Not(Name(rng.choice(CONCEPT_NAMES)))
        return TOP if k == 6 else BOTTOM
    k = rng.randrange(14)
    if k < 2:
        return Name(rng.choice(CONCEPT_NAMES))
    if k == 2:
        return Not(Name(rng.choice(CONCEPT_NAMES)))
    if k in (3, 4):
        return And(random_concept(rng, depth - 1), random_concept(rng, depth - 1))
    if k in (5, 6):
        return Or(random_concept(rng, depth - 1), random_concept(rng, depth - 1))
    if k == 7:
        return Not(random_concept(rng, depth - 1))
    if k in (8, 9):
        return All(random_role(rng), random_concept(rng, depth - 1))
    if k in (10, 11):
        return Some(random_role(rng), random_concept(rng, depth - 1))
    if k == 12:
        return AtLeast(rng.randint(0, 3), random_role(rng, allow_conjunction=False))
    return AtMost(rng.randint(0, 3), random_role(rng, allow_conjunction=False))


def _candidate_kb(rng: random.Random) -> KnowledgeBase:
    tbox = set()
    for _ in range(rng.randint(0, 2)):
        tbox.add(Inclusion(
            random_concept(rng, rng.randint(1, 2)),
            random_concept(rng, rng.randint(1, 3)),
        ))
    inds = INDIVIDUALS[: rng.randint(0, 3)]
    abox = set()
    if inds:
        for _ in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.45:
                abox.add(ConceptAssertion(
                    rng.choice(inds), random_concept(rng, rng.randint(0, 3))
                ))
            elif r < 0.8:
                abox.add(RoleAssertion(
                    rng.choice(inds), rng.choice(inds), random_role(rng)
                ))
            else:
                abox.add(ConceptAssertion(
                    rng.choice(inds),
                    AtMost(rng.randint(0, 2), random_role(rng, allow_conjunction=False)),
                ))
    return KnowledgeBase(frozenset(tbox), frozenset(abox))


def random_kb(rng: random.Random) -> KnowledgeBase:
    """A generated KB that the engine decides within the screening guards."""
    while True:
        kb = _candidate_kb(rng)
        if complete(translate_kb(kb), _SCREEN_GUARDS).status != "resource-exceeded":
            return kb


def random_kbs(seed: int, count: int) -> list[KnowledgeBase]:
    rng = random.Random(seed)
    return [random_kb(rng) for _ in range(count)]


def random_interpretation(rng: random.Random) -> Interpretation:
    size = rng.randint(1, 3)
    elems = [f"d{i}" for i in range(size)]
    concepts = {
        a: frozenset(e for e in elems if rng.random() < 0.5) for a in CONCEPT_NAMES
    }
    roles = {
        p: frozenset(
            (s, t) for s in elems for t in elems if rng.random() < 0.4
        )
        for p in ROLE_NAMES
    }
    return Interpretation(frozenset(elems), concepts, roles, {})


def random_tbox(rng: random.Random) -> frozenset[Inclusion]:
    return frozenset(
        Inclusion(random_concept(rng, rng.randint(0, 2)), random_concept(rng, rng.randint(0, 2)))
        for _ in range(rng.randint(0, 2))
    )


# What a text edit may insert: structure, name characters, whitespace, a
# comment start and characters that are no token.
EDIT_CHARS = "()()ab AR_-'07 \t\r\n;#.é[\x0b"


def mutate_text(rng: random.Random, text: str) -> str:
    """`text` with one to three random character insertions, deletions or
    replacements, for exercising the exchange-format reader's errors."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(3)
        if kind == 0 or not text:
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i + 1:]
    return text
