"""A seeded generator of TBox-heavy, number-heavy KBs.

`_generators._candidate_kb` draws at most two inclusions of random shape.
These KBs have two to four, with the left sides that lazy unfolding reads
(names, name conjunctions, `some`, `atleast`, `atmost`) and right sides
rich in `all` and number restrictions, over an ABox of linked individuals
with number restrictions.  Candidates are not screened: a search may hit
its guards.
"""

from __future__ import annotations

import random

from alcnr import (
    All, And, AtLeast, AtMost, ConceptAssertion, Inclusion, KnowledgeBase, Name,
    Or, RoleAssertion, Some,
)
from _generators import CONCEPT_NAMES, INDIVIDUALS, random_concept, random_role


def _name(rng: random.Random) -> Name:
    return Name(rng.choice(CONCEPT_NAMES))


def _lhs(rng: random.Random):
    k = rng.randrange(7)
    if k < 2:
        return _name(rng)
    if k == 2:
        return And(_name(rng), _name(rng))
    if k == 3:
        return Some(random_role(rng), random_concept(rng, rng.randint(0, 1)))
    if k == 4:
        return AtLeast(rng.randint(1, 3), random_role(rng))
    if k == 5:
        return AtMost(rng.randint(0, 2), random_role(rng))
    return random_concept(rng, rng.randint(0, 2))


def _rhs(rng: random.Random, depth: int = 1):
    k = rng.randrange(7)
    if k < 2:
        return All(random_role(rng), random_concept(rng, rng.randint(0, 1)))
    if k == 2:
        return AtMost(rng.randint(0, 3), random_role(rng))
    if k == 3:
        return AtLeast(rng.randint(1, 3), random_role(rng))
    if k == 4 and depth > 0:
        return Or(_rhs(rng, depth - 1), _rhs(rng, depth - 1))
    return random_concept(rng, rng.randint(0, 2))


def tbox_heavy_kb(rng: random.Random) -> KnowledgeBase:
    tbox = frozenset(
        Inclusion(_lhs(rng), _rhs(rng)) for _ in range(rng.randint(2, 4))
    )
    inds = INDIVIDUALS[: rng.randint(1, 3)]
    abox = set()
    for _ in range(rng.randint(1, 5)):
        k = rng.randrange(5)
        a = rng.choice(inds)
        if k < 2:
            abox.add(RoleAssertion(a, rng.choice(inds), random_role(rng)))
        elif k == 2:
            abox.add(ConceptAssertion(a, AtLeast(rng.randint(1, 3), random_role(rng))))
        elif k == 3:
            abox.add(ConceptAssertion(a, AtMost(rng.randint(0, 2), random_role(rng))))
        else:
            abox.add(ConceptAssertion(a, random_concept(rng, rng.randint(0, 2))))
    return KnowledgeBase(tbox, frozenset(abox))


def tbox_heavy_kbs(seed: int, count: int) -> list[KnowledgeBase]:
    rng = random.Random(seed)
    return [tbox_heavy_kb(rng) for _ in range(count)]
