"""Bounded satisfiability for raw constraint systems, used to desk-check the
rule-invariance property.

A system is satisfiable iff some identification of its objects (a partition
respecting separation constraints, with at most one individual per class)
yields a satisfiable quotient KB: memberships become concept assertions on
class representatives, links become role assertions, global constraints
become TOP-inclusions, and the quotient's unique-name assumption realizes
exactly the chosen identification.  Quotient satisfiability then goes to the
exhaustive bounded model search.
"""

from __future__ import annotations

from alcnr import (
    BUDGET_EXCEEDED, ConceptAssertion, Inclusion, Interpretation, KnowledgeBase,
    Member, Role, RoleAssertion, RoleLink, TOP, find_model_bounded,
)
from alcnr.constraints import ConstraintSystem, Ind, object_str


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def _admissible(system: ConstraintSystem, part) -> bool:
    for cls in part:
        inds = [o for o in cls if isinstance(o, Ind)]
        if len(inds) > 1:
            return False
        for i, a in enumerate(cls):
            for b in cls[i + 1:]:
                if system.separated(a, b):
                    return False
    return True


def _quotient_kb(system: ConstraintSystem, part) -> KnowledgeBase:
    rep = {}
    reps = []
    for cls in part:
        inds = [o for o in cls if isinstance(o, Ind)]
        name = inds[0].name if inds else object_str(sorted(cls)[0])
        reps.append(name)
        for o in cls:
            rep[o] = name
    tbox = {Inclusion(TOP, g) for g in system.global_concepts()}
    abox = {ConceptAssertion(r, TOP) for r in reps}
    for c in system.constraints:
        if isinstance(c, Member):
            abox.add(ConceptAssertion(rep[c.obj], c.concept))
        elif isinstance(c, RoleLink):
            abox.add(RoleAssertion(rep[c.source], rep[c.target], Role((c.role_name,))))
    return KnowledgeBase(frozenset(tbox), frozenset(abox))


def system_satisfiable_bounded(
    system: ConstraintSystem, max_domain: int, budget: int = 20_000
) -> bool | None:
    """True/False up to the domain bound; None when a budget ran out."""
    objs = system.objects()
    inconclusive = False
    for part in _partitions(objs):
        if len(part) > max_domain or not _admissible(system, part):
            continue
        outcome = find_model_bounded(_quotient_kb(system, part), max_domain, budget)
        if isinstance(outcome, Interpretation):
            return True
        if outcome is BUDGET_EXCEEDED:
            inconclusive = True
    return None if inconclusive else False
