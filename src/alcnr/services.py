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
without a search; for an individual, the model is read at its element
alone.  Otherwise a clash at the goal's object in the extended system
answers True with no search, and a search answers by its status: a SAT
completion passes canonical.check_completion, but no model is built.  So
the cost of a truth question outside the search follows its goal, not the
KB.  `kb_satisfiable` and `concept_satisfiable` always search: their
verdicts carry the trace and the model of their own run, the model built
on its first read unless the self-check built and checked it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .canonical import check_completion, extract_model, satisfies_system
from .constraints import (
    AUX_INDIVIDUAL, ConstraintSystem, Global, Ind, Member, translate_kb,
)
from .semantics import Assignment, Interpretation, eval_concept, holds_at, is_model
from .syntax import (
    And, Concept, ConceptAssertion, FRESH_INDIVIDUAL, KnowledgeBase, Not, TOP,
    to_simple_form,
)
from .tableau import (
    MUTED_TRACE, CompletionResult, Guards, SearchStats, Trace, complete, detect_clash,
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


class Verdict:
    """The answer to a satisfiability question: status "sat", "unsat" or
    "unknown" (then `guard` names the guard that fired), the run's trace and
    stats, and for SAT the canonical model as `interpretation` and
    `assignment`.  A SAT verdict made without the self-check builds its
    model when either is first read, and stores the (interpretation,
    assignment) pair by one assignment: threads that race on a read build
    equal pairs."""

    __slots__ = ("status", "trace", "guard", "stats", "_model", "_build")

    def __init__(
        self, status: str, interpretation: Interpretation | None = None,
        assignment: Assignment | None = None, trace: Trace | None = None,
        guard: str | None = None, stats: SearchStats | None = None,
    ):
        self.status = status
        self.trace = trace
        self.guard = guard
        self.stats = stats
        self._model = (interpretation, assignment)
        self._build = None

    @classmethod
    def _built_when_read(cls, build, trace: Trace, stats: SearchStats) -> "Verdict":
        """A SAT verdict whose model is build() on its first read."""
        verdict = cls("sat", trace=trace, stats=stats)
        verdict._model = None
        verdict._build = build
        return verdict

    def _read(self) -> tuple[Interpretation | None, Assignment | None]:
        model = self._model
        if model is None:
            model = self._model = self._build()
        return model

    @property
    def interpretation(self) -> Interpretation | None:
        return self._read()[0]

    @property
    def assignment(self) -> Assignment | None:
        return self._read()[1]

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


@dataclass
class TruthVerdict:
    value: bool | None          # None: resource guards fired (UNKNOWN)
    guard: str | None = None


_UNSAT = "unsat"  # the stored decision of an inconsistent KB


class _Session:
    """What the services keep of one KB: its base constraint system, whether
    it uses the fresh individual's name (None until a question needs it),
    and its decision (UNSAT, a verified model, or None while undecided).

    The base is translate_kb of the KB without the auxiliary individual of
    an empty ABox, which only kb-sat needs, with its concept table closed
    here once: a query whose goal brings no new concept shares it, and one
    that does extends a copy.  It keeps `kb=None`, so nothing
    leads from a session back to its KB (no reference cycle), and so does
    each query's system; a completion gets the KB it decides only when its
    model is built.  Every field is written once, or again with an equal
    value by a racing thread."""

    __slots__ = ("base", "reserved", "decision")

    def __init__(self, kb: KnowledgeBase):
        base = translate_kb(kb)
        if not kb.abox:
            base = ConstraintSystem(map(Global, base.global_concepts()), 0, None)
        base.kb = None
        base.unfolding()  # closes the table and reads the globals, once
        self.base = base
        self.reserved: bool | None = None  # set by the first fresh goal
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


def _reserved(kb: KnowledgeBase) -> bool:
    """Does kb use the fresh individual's name?  Read once per session, by
    the first question that needs the fresh individual."""
    session = _session(kb)
    if session.reserved is None:
        session.reserved = FRESH_INDIVIDUAL in kb.all_names()
    return session.reserved


def _query_system(kb: KnowledgeBase, goal: ConceptAssertion | None) -> ConstraintSystem:
    """kb's base system plus the goal's membership (kb alone for None): it
    equals translate_kb of kb plus goal, but for its `kb`, which is None."""
    if goal is None:
        added = () if kb.abox else (Member(Ind(AUX_INDIVIDUAL), TOP),)
    else:
        added = (Member(Ind(goal.individual), to_simple_form(goal.concept)),)
    return _session(kb).base.extended(added)


def _verdict(
    kb: KnowledgeBase, goal: ConceptAssertion | None, result: CompletionResult,
    self_check: bool,
) -> Verdict:
    if result.status == "resource-exceeded":
        return Verdict("unknown", trace=result.trace, guard=result.guard,
                       stats=result.stats)
    if result.status == "unsat":
        return Verdict("unsat", trace=result.trace, stats=result.stats)
    completion = result.completion

    def model() -> tuple[Interpretation, Assignment]:
        # extract_model reads the decided KB's names, is_model checks it
        completion.kb = kb if goal is None else _with_assertion(kb, goal)
        return extract_model(completion)

    if not self_check:
        check_completion(completion)
        return Verdict._built_when_read(model, result.trace, result.stats)
    interp, assignment = model()
    if not satisfies_system(completion, interp, assignment):
        raise SelfCheckError("canonical model does not satisfy its completion")
    if not is_model(interp, completion.kb):
        raise SelfCheckError("canonical model does not satisfy the source KB")
    return Verdict("sat", interp, assignment, result.trace, stats=result.stats)


def _decide(
    kb: KnowledgeBase, goal: ConceptAssertion | None, guards: Guards | None,
    trace: Trace | None = None, self_check: bool = False,
) -> Verdict:
    """Decide kb plus the goal assertion (kb alone for None) on the base
    system of kb's session."""
    result = complete(_query_system(kb, goal), guards,
                      trace if trace is not None else MUTED_TRACE)
    return _verdict(kb, goal, result, self_check)


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
    return _decide(kb, _fresh_goal(_reserved(kb), c), guards, trace, self_check)


def _true_iff_unsat(
    kb: KnowledgeBase, goal: ConceptAssertion, guards: Guards | None
) -> TruthVerdict:
    """True iff kb plus goal, the assertion that a counterexample to a
    question would satisfy, is unsatisfiable; None when a guard fired.  A
    clash at the goal's object answers True with no search.  A search
    answers by its status alone: its completion is checked, but no model
    is built."""
    system = _query_system(kb, goal)
    at = Ind(goal.individual)
    if detect_clash(system, {at: system.label(at)}) is not None:
        return TruthVerdict(True)
    result = complete(system, guards, MUTED_TRACE)
    if result.status == "resource-exceeded":
        return TruthVerdict(None, result.guard)
    if result.status == "sat":
        check_completion(result.completion)
    return TruthVerdict(result.status == "unsat")


def _answer(
    kb: KnowledgeBase, goal: ConceptAssertion, guards: Guards | None
) -> TruthVerdict:
    """_true_iff_unsat, answered by kb's stored decision when it settles the
    question.  An inconsistent kb entails everything.  A model of kb that
    satisfies goal is a counterexample: for an individual, as it stands,
    which takes evaluating goal's concept at the individual's element only;
    for the fresh individual, with a new element that copies one in goal's
    extension (its labels and outgoing pairs), which keeps every concept's
    extension and the unique names."""
    decision = _session(kb).decision
    if decision is _UNSAT:
        return TruthVerdict(True)
    if decision is not None:
        if goal.individual == FRESH_INDIVIDUAL:
            refuted = bool(eval_concept(decision, goal.concept))
        else:
            refuted = holds_at(decision, goal.concept, decision.individuals[goal.individual])
        if refuted:
            return TruthVerdict(False)
    return _true_iff_unsat(kb, goal, guards)


def subsumed_by(
    kb: KnowledgeBase, c: Concept, d: Concept, guards: Guards | None = None
) -> TruthVerdict:
    """True iff C's extension is within D's in every model of kb."""
    return _answer(kb, _subsumption_goal(_reserved(kb), c, d), guards)


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
