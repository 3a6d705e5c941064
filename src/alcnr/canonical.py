"""Canonical model extraction from a complete clash-free constraint system.

The domain is the set of objects; each object denotes itself.  A role pair
is either explicit (a link in the system) or implicit: a blocked variable
inherits the outgoing links of its witness, which is what turns a finite
completion of a cyclic TBox into an honest model.  Implicit pairs are
materialized eagerly — completions are finite, and a concrete extension map
makes model checking trivial.
"""

from __future__ import annotations

from .constraints import ConstraintSystem, Ind, object_str
from .semantics import Assignment, Extensions, Interpretation
from .table import NAME, bit_ids
from .tableau import detect_clash, first_rule_instance


def check_completion(system: ConstraintSystem) -> None:
    """Raise ValueError unless the system is a completion: clash-free, with
    no applicable rule.  extract_model runs it, and so does every SAT answer
    that builds no model."""
    clash = detect_clash(system)
    if clash is not None:
        raise ValueError(f"cannot extract a model from a clashed system ({clash.kind})")
    if first_rule_instance(system) is not None:
        raise ValueError("cannot extract a model from an incomplete system")


def extract_model(system: ConstraintSystem) -> tuple[Interpretation, Assignment]:
    """The canonical interpretation and assignment of a completion.

    Raises ValueError if the system is not one (check_completion).  The
    returned pair satisfies every constraint of the system (see
    satisfies_system, the engine's strongest self-check).
    """
    check_completion(system)
    witnesses = system.witnesses()
    objects = system.objects()
    element = {o: object_str(o) for o in objects}
    domain = frozenset(element.values())

    table = system.concept_table()
    names = table.kinds[NAME]
    concepts: dict[str, set[str]] = {a: set() for a in system.kb.concept_names()}
    roles: dict[str, set[tuple[str, str]]] = {p: set() for p in system.kb.role_names()}
    for o in objects:
        for c in bit_ids(system.label(o) & names):
            concepts.setdefault(table.concepts[c].name, set()).add(element[o])
        for p, targets in system.link_targets(o).items():
            roles.setdefault(p, set()).update((element[o], element[t]) for t in targets)
    for v, w in witnesses.items():
        for p, targets in system.link_targets(w).items():
            roles[p].update((element[v], element[t]) for t in targets)

    individuals = {o.name: element[o] for o in objects if isinstance(o, Ind)}
    interp = Interpretation(
        domain, dict(sorted(concepts.items())), dict(sorted(roles.items())), individuals
    )
    assignment = Assignment(dict(element))
    return interp, assignment


def satisfies_system(
    system: ConstraintSystem, interp: Interpretation, assignment: Assignment
) -> bool:
    """Check every constraint of the system against (interp, assignment):
    every global, label and link, and distinct elements for distinct
    individuals (unique names) and for the members of each sibling group
    (its `!=` pairs).  One shared Extensions builds each concept's
    extension and each role's successor map once per check."""
    ext = Extensions(interp)
    decode = system.concept_table().decode
    individuals = system.individuals()
    if len({assignment.of(a) for a in individuals}) < len(individuals):
        return False
    for g in system.global_concepts():
        if ext(g) != interp.domain:
            return False
    for o in system.objects():
        e = assignment.of(o)
        for c in decode(system.label(o)):
            if e not in ext(c):
                return False
        for p, targets in system.link_targets(o).items():
            pairs = interp.roles.get(p, frozenset())
            if any((e, assignment.of(t)) not in pairs for t in targets):
                return False
    return all(
        len({assignment.of(o) for o in members}) == len(members)
        for members in system.sibling_groups().values()
    )
