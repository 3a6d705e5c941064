"""Canonical model extraction from a complete clash-free constraint system.

The domain is the set of objects; each object denotes itself.  A role pair
is either explicit (a link in the system) or implicit: a blocked variable
inherits the outgoing links of its witness, which is what turns a finite
completion of a cyclic TBox into an honest model.  Implicit pairs are
materialized eagerly — completions are finite, and a concrete extension map
makes model checking trivial.
"""

from __future__ import annotations

from .constraints import (
    ConstraintSystem, Distinct, Global, Ind, Member, RoleLink, object_str,
)
from .semantics import Assignment, Interpretation, eval_concept
from .syntax import Name
from .tableau import detect_clash, first_rule_instance


def extract_model(system: ConstraintSystem) -> tuple[Interpretation, Assignment]:
    """The canonical interpretation and assignment of a completion.

    Raises ValueError if the system still has an applicable rule or contains
    a clash.  The returned pair satisfies every constraint of the system
    (see satisfies_system, the engine's strongest self-check).
    """
    clash = detect_clash(system)
    if clash is not None:
        raise ValueError(f"cannot extract a model from a clashed system ({clash.kind})")
    if first_rule_instance(system) is not None:
        raise ValueError("cannot extract a model from an incomplete system")

    objects = system.objects()
    element = {o: object_str(o) for o in objects}
    domain = frozenset(element.values())

    concept_names = set(system.kb.concept_names())
    for c in system.constraints:
        if isinstance(c, Member) and isinstance(c.concept, Name):
            concept_names.add(c.concept.name)
    concepts = {
        a: frozenset(
            element[o] for o in objects if system.has_member(o, Name(a))
        )
        for a in sorted(concept_names)
    }

    role_names = set(system.kb.role_names())
    explicit: dict[str, set[tuple[str, str]]] = {}
    for c in system.constraints:
        if isinstance(c, RoleLink):
            role_names.add(c.role_name)
            explicit.setdefault(c.role_name, set()).add(
                (element[c.source], element[c.target])
            )
    roles: dict[str, frozenset[tuple[str, str]]] = {}
    witnesses = {
        v: system.witness(v) for v in system.variables() if system.witness(v) is not None
    }
    for p in sorted(role_names):
        pairs = set(explicit.get(p, ()))
        for v, w in witnesses.items():
            for link in system.links_from(w):
                if link.role_name == p:
                    pairs.add((element[v], element[link.target]))
        roles[p] = frozenset(pairs)

    individuals = {o.name: element[o] for o in objects if isinstance(o, Ind)}
    interp = Interpretation(domain, concepts, roles, individuals)
    assignment = Assignment(dict(element))
    return interp, assignment


def satisfies_system(
    system: ConstraintSystem, interp: Interpretation, assignment: Assignment
) -> bool:
    """Check every constraint of the system against (interp, assignment),
    and that distinct individuals get distinct elements (unique names)."""
    individuals = system.individuals()
    if len({assignment.of(a) for a in individuals}) < len(individuals):
        return False
    for c in system.constraints:
        if isinstance(c, Member):
            if assignment.of(c.obj) not in eval_concept(interp, c.concept):
                return False
        elif isinstance(c, RoleLink):
            pair = (assignment.of(c.source), assignment.of(c.target))
            if pair not in interp.roles.get(c.role_name, frozenset()):
                return False
        elif isinstance(c, Global):
            if eval_concept(interp, c.concept) != interp.domain:
                return False
        elif isinstance(c, Distinct):
            if assignment.of(c.first) == assignment.of(c.second):
                return False
    return True
