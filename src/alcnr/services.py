"""The four reasoning services, each reduced to KB-satisfiability.

Concept satisfiability, subsumption, and instance checking add one
assertion to the KB and ask whether the result has a model:

    C satisfiable w.r.t. KB      iff  KB + C(b) is satisfiable
    C subsumed by D w.r.t. KB    iff  KB + (C and not D)(b) is unsatisfiable
    a instance of C w.r.t. KB    iff  KB + (not C)(a) is unsatisfiable

where b is the reserved fresh individual (the parser rejects it in user
input).  Resource-guard exhaustion surfaces as UNKNOWN rather than a guess.

A KB object keeps one session, made by its first query: its constraint
system, translated once, to which each query adds one membership; and,
once a call has decided the KB itself, that decision (UNSAT, or SAT with a
model that passed the self-check).  An inconsistent KB entails everything,
and a model of the KB that satisfies a question's added assertion refutes
the question, so `instance_of` and `subsumed_by` answer such questions
without a search.  `kb_satisfiable` and `concept_satisfiable` always
search: their verdicts carry the trace and the model of their own run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .canonical import extract_model, satisfies_system
from .constraints import (
    AUX_INDIVIDUAL, ConstraintSystem, Global, Ind, Member, translate_kb,
)
from .semantics import Assignment, Interpretation, eval_concept, is_model
from .syntax import (
    And, Concept, ConceptAssertion, FRESH_INDIVIDUAL, KnowledgeBase, Not, TOP,
    to_simple_form,
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


_UNSAT = "unsat"  # the stored decision of an inconsistent KB


class _Session:
    """What the services keep of one KB: its base constraint system, and its
    decision (UNSAT, a verified model, or None while undecided).

    The base is translate_kb of the KB without the auxiliary individual of
    an empty ABox, which only kb-sat needs.  It keeps `kb=None`, so nothing
    leads from a session back to its KB (no reference cycle); each query's
    system carries the KB it decides.  Every field is written once, or
    again with an equal value by a racing thread."""

    __slots__ = ("base", "reserved", "decision")

    def __init__(self, kb: KnowledgeBase):
        base = translate_kb(kb)
        if not kb.abox:
            base = ConstraintSystem(map(Global, base.global_concepts()), 0, None)
        base.kb = None
        self.base = base
        self.reserved = FRESH_INDIVIDUAL in kb.all_names()
        self.decision: Interpretation | str | None = None

    def knows(self, a: str) -> bool:
        """Is a an individual of the KB?  The base's objects are exactly the
        KB's individuals, in name order."""
        objects = self.base.objects()
        ind = Ind(a)
        i = bisect_left(objects, ind)
        return i < len(objects) and objects[i] == ind


def _session(kb: KnowledgeBase) -> _Session:
    session = kb._session
    if session is None:
        session = _Session(kb)
        object.__setattr__(kb, "_session", session)
    return session


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


def _decide(
    kb: KnowledgeBase, goal: ConceptAssertion | None, guards: Guards | None,
    trace: Trace | None = None, self_check: bool = False,
) -> Verdict:
    """Decide kb plus the goal assertion (kb alone for None) on the base
    system of kb's session: the system equals translate_kb of that KB."""
    if goal is None:
        decided = kb
        added = () if kb.abox else (Member(Ind(AUX_INDIVIDUAL), TOP),)
    else:
        decided = _with_assertion(kb, goal)
        added = (Member(Ind(goal.individual), to_simple_form(goal.concept)),)
    system = _session(kb).base.extended(added)
    system.kb = decided  # extract_model reads its names, is_model checks it
    result = complete(system, guards, trace if trace is not None else MUTED_TRACE)
    return _verdict(decided, result, self_check)


def kb_satisfiable(
    kb: KnowledgeBase,
    guards: Guards | None = None,
    trace: Trace | None = None,
    self_check: bool = False,
) -> Verdict:
    """Pass a Trace to capture the derivation; by default none is recorded.
    An UNSAT verdict, or a SAT verdict with self_check, is also stored as
    kb's decision."""
    verdict = _decide(kb, None, guards, trace, self_check)
    session = _session(kb)
    if session.decision is None:
        if verdict.status == "unsat":
            session.decision = _UNSAT
        elif verdict.is_sat and self_check:
            session.decision = verdict.interpretation
    return verdict


def _with_assertion(kb: KnowledgeBase, assertion: ConceptAssertion) -> KnowledgeBase:
    return KnowledgeBase(kb.tbox, kb.abox | {assertion})


def _fresh_goal(reserved: bool, c: Concept) -> ConceptAssertion:
    """C(b), b fresh: the KB plus it is satisfiable iff C is."""
    if reserved:
        raise ValueError(f"{FRESH_INDIVIDUAL!r} is reserved and may not appear in a KB")
    return ConceptAssertion(FRESH_INDIVIDUAL, c)


def _subsumption_goal(reserved: bool, c: Concept, d: Concept) -> ConceptAssertion:
    """(C and not D)(b): the KB plus it is unsatisfiable iff C <= D."""
    return _fresh_goal(reserved, And(c, Not(d)))


def _instance_goal(known: bool, a: str, c: Concept) -> ConceptAssertion:
    """(not C)(a): the KB plus it is unsatisfiable iff a is in C."""
    if not known:
        raise UnknownIndividualError(f"unknown individual {a!r}")
    return ConceptAssertion(a, Not(c))


def augment_for_concept_sat(kb: KnowledgeBase, c: Concept) -> KnowledgeBase:
    return _with_assertion(kb, _fresh_goal(FRESH_INDIVIDUAL in kb.all_names(), c))


def augment_for_subsumption(kb: KnowledgeBase, c: Concept, d: Concept) -> KnowledgeBase:
    return _with_assertion(kb, _subsumption_goal(FRESH_INDIVIDUAL in kb.all_names(), c, d))


def augment_for_instance(kb: KnowledgeBase, a: str, c: Concept) -> KnowledgeBase:
    return _with_assertion(kb, _instance_goal(a in kb.individuals(), a, c))


def concept_satisfiable(
    kb: KnowledgeBase, c: Concept,
    guards: Guards | None = None, trace: Trace | None = None,
    self_check: bool = False,
) -> Verdict:
    return _decide(kb, _fresh_goal(_session(kb).reserved, c), guards, trace, self_check)


def _true_iff_unsat(
    kb: KnowledgeBase, goal: ConceptAssertion, guards: Guards | None
) -> TruthVerdict:
    """True iff kb plus goal, the assertion that a counterexample to a
    question would satisfy, is unsatisfiable; None when a guard fired."""
    v = _decide(kb, goal, guards)
    if v.status == "unknown":
        return TruthVerdict(None, v.guard)
    return TruthVerdict(v.status == "unsat")


def _answer(
    kb: KnowledgeBase, goal: ConceptAssertion, guards: Guards | None
) -> TruthVerdict:
    """_true_iff_unsat, answered by kb's stored decision when it settles the
    question.  An inconsistent kb entails everything.  A model of kb that
    satisfies goal is a counterexample: for an individual, as it stands;
    for the fresh individual, with a new element that copies one in goal's
    extension (its labels and outgoing pairs), which keeps every concept's
    extension and the unique names."""
    decision = _session(kb).decision
    if decision is _UNSAT:
        return TruthVerdict(True)
    if decision is not None:
        members = eval_concept(decision, goal.concept)
        if goal.individual == FRESH_INDIVIDUAL:
            if members:
                return TruthVerdict(False)
        elif decision.individuals[goal.individual] in members:
            return TruthVerdict(False)
    return _true_iff_unsat(kb, goal, guards)


def subsumed_by(
    kb: KnowledgeBase, c: Concept, d: Concept, guards: Guards | None = None
) -> TruthVerdict:
    """True iff C's extension is within D's in every model of kb."""
    return _answer(kb, _subsumption_goal(_session(kb).reserved, c, d), guards)


def instance_of(
    kb: KnowledgeBase, a: str, c: Concept, guards: Guards | None = None
) -> TruthVerdict:
    """True iff the assertion C(a) holds in every model of kb."""
    return _answer(kb, _instance_goal(_session(kb).knows(a), a, c), guards)


def instance_checks(
    kb: KnowledgeBase, c: Concept, guards: Guards | None = None
) -> dict[str, TruthVerdict]:
    """The instance_of answer for every individual of kb, in name order.

    kb itself is decided first, once per KB object, with the self-check
    (a decision that an earlier call stored is read instead).  If it is
    inconsistent, every individual is an instance.  If it is consistent,
    its canonical model has passed is_model, so an individual outside c in
    that model is a sound non-instance and needs no tableau run of its own
    (model-based retrieval pruning).  The remaining individuals, and all of
    them when deciding kb hit a guard, get an instance check run each.  A
    kb without individuals makes no run."""
    session = _session(kb)
    names = [o.name for o in session.base.objects()]
    if not names:
        return {}
    if session.decision is None:
        kb_satisfiable(kb, guards, self_check=True)
    decision = session.decision
    if decision is _UNSAT:
        return {a: TruthVerdict(True) for a in names}
    outside: set[str] = set()
    if decision is not None:
        members = eval_concept(decision, c)
        outside = {a for a in names if decision.individuals[a] not in members}
    return {
        a: TruthVerdict(False) if a in outside
        else _true_iff_unsat(kb, ConceptAssertion(a, Not(c)), guards)
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
