"""The four reasoning services, each reduced to KB-satisfiability.

Concept satisfiability, subsumption, and instance checking augment the ABox
and ask whether the result has a model:

    C satisfiable w.r.t. KB      iff  KB + C(b) is satisfiable
    C subsumed by D w.r.t. KB    iff  KB + (C and not D)(b) is unsatisfiable
    a instance of C w.r.t. KB    iff  KB + (not C)(a) is unsatisfiable

where b is the reserved fresh individual (the parser rejects it in user
input).  Resource-guard exhaustion surfaces as UNKNOWN rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import extract_model, satisfies_system
from .constraints import translate_kb
from .semantics import Assignment, Interpretation, eval_concept, is_model
from .syntax import (
    And, Concept, ConceptAssertion, FRESH_INDIVIDUAL, KnowledgeBase, Not,
)
from .tableau import (
    MUTED_TRACE, CompletionResult, Guards, SearchStats, Trace, complete,
)


class UnknownIndividualError(ValueError):
    pass


class SelfCheckError(AssertionError):
    """A SAT verdict's extracted model failed verification."""


class InconclusiveError(RuntimeError):
    """An instance check hit a guard, so `instances` cannot name the members
    of a concept; `checks` is the instance_checks result."""

    def __init__(self, checks: dict[str, "TruthVerdict"]):
        super().__init__("undecided: " + ", ".join(
            a for a, truth in checks.items() if truth.value is None))
        self.checks = checks


@dataclass
class Verdict:
    status: str                                # "sat" | "unsat" | "unknown"
    interpretation: Interpretation | None = None
    assignment: Assignment | None = None
    trace: Trace | None = None
    guard: str | None = None
    stats: SearchStats | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


@dataclass
class TruthVerdict:
    value: bool | None          # None: resource guards fired (UNKNOWN)
    guard: str | None = None


def _verdict(kb: KnowledgeBase, result: CompletionResult, self_check: bool) -> Verdict:
    if result.status == "resource-exceeded":
        return Verdict("unknown", trace=result.trace, guard=result.guard,
                       stats=result.stats)
    if result.status == "unsat":
        return Verdict("unsat", trace=result.trace, stats=result.stats)
    interp, assignment = extract_model(result.completion)
    if self_check:
        if not satisfies_system(result.completion, interp, assignment):
            raise SelfCheckError("canonical model does not satisfy its completion")
        if not is_model(interp, kb):
            raise SelfCheckError("canonical model does not satisfy the source KB")
    return Verdict("sat", interp, assignment, result.trace, stats=result.stats)


def kb_satisfiable(
    kb: KnowledgeBase,
    guards: Guards | None = None,
    trace: Trace | None = None,
    self_check: bool = False,
) -> Verdict:
    """Pass a Trace to capture the derivation; by default none is recorded."""
    result = complete(translate_kb(kb), guards, trace if trace is not None else MUTED_TRACE)
    return _verdict(kb, result, self_check)


def _with_assertion(kb: KnowledgeBase, assertion: ConceptAssertion) -> KnowledgeBase:
    return KnowledgeBase(kb.tbox, kb.abox | {assertion})


def augment_for_concept_sat(kb: KnowledgeBase, c: Concept) -> KnowledgeBase:
    if FRESH_INDIVIDUAL in kb.all_names():
        raise ValueError(f"{FRESH_INDIVIDUAL!r} is reserved and may not appear in a KB")
    return _with_assertion(kb, ConceptAssertion(FRESH_INDIVIDUAL, c))


def augment_for_subsumption(kb: KnowledgeBase, c: Concept, d: Concept) -> KnowledgeBase:
    return augment_for_concept_sat(kb, And(c, Not(d)))


def augment_for_instance(kb: KnowledgeBase, a: str, c: Concept) -> KnowledgeBase:
    if a not in kb.individuals():
        raise UnknownIndividualError(f"unknown individual {a!r}")
    return _with_assertion(kb, ConceptAssertion(a, Not(c)))


def concept_satisfiable(
    kb: KnowledgeBase, c: Concept,
    guards: Guards | None = None, trace: Trace | None = None,
    self_check: bool = False,
) -> Verdict:
    return kb_satisfiable(augment_for_concept_sat(kb, c), guards, trace, self_check)


def _true_iff_unsat(kb: KnowledgeBase, guards: Guards | None) -> TruthVerdict:
    """True iff kb, the KB that a counterexample to a question would
    satisfy, is unsatisfiable; None when a guard fired."""
    v = kb_satisfiable(kb, guards)
    if v.status == "unknown":
        return TruthVerdict(None, v.guard)
    return TruthVerdict(v.status == "unsat")


def subsumed_by(
    kb: KnowledgeBase, c: Concept, d: Concept, guards: Guards | None = None
) -> TruthVerdict:
    """True iff C's extension is within D's in every model of kb."""
    return _true_iff_unsat(augment_for_subsumption(kb, c, d), guards)


def instance_of(
    kb: KnowledgeBase, a: str, c: Concept, guards: Guards | None = None
) -> TruthVerdict:
    """True iff the assertion C(a) holds in every model of kb."""
    return _true_iff_unsat(augment_for_instance(kb, a, c), guards)


def instance_checks(
    kb: KnowledgeBase, c: Concept, guards: Guards | None = None
) -> dict[str, TruthVerdict]:
    """The instance_of answer for every individual of kb, in name order.

    kb itself is decided first, once, with the self-check.  If it is
    inconsistent, every individual is an instance.  If it is consistent,
    its canonical model has passed is_model, so an individual outside c in
    that model is a sound non-instance and needs no tableau run of its own
    (model-based retrieval pruning).  The remaining individuals, and all of
    them when deciding kb hit a guard, get an instance_of run each.  A kb
    without individuals makes no run."""
    names = sorted(kb.individuals())
    if not names:
        return {}
    verdict = kb_satisfiable(kb, guards, self_check=True)
    if verdict.status == "unsat":
        return {a: TruthVerdict(True) for a in names}
    outside: set[str] = set()
    if verdict.is_sat:
        interp = verdict.interpretation
        members = eval_concept(interp, c)
        outside = {a for a in names if interp.individuals[a] not in members}
    return {
        a: TruthVerdict(False) if a in outside else instance_of(kb, a, c, guards)
        for a in names
    }


def instances(
    kb: KnowledgeBase, c: Concept, guards: Guards | None = None
) -> frozenset[str]:
    """The individuals provably in c, from instance_checks (one decision of
    kb, then a run only for the individuals its model puts in c).  Raises
    InconclusiveError if any individual's check hits a guard, since UNKNOWN
    is not "not a member"."""
    checks = instance_checks(kb, c, guards)
    if any(truth.value is None for truth in checks.values()):
        raise InconclusiveError(checks)
    return frozenset(a for a, truth in checks.items() if truth.value)
