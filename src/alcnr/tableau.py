"""Propagation rules, application strategy, clash detection, and the
backtracking search for a clash-free completion.

Rules and their side conditions:

    and      o : (C1 and C2) present, not both conjuncts present
    or       o : (C1 or C2) present, neither disjunct present   [branches]
    forall   o : (all R C) present, t an R-successor of o, t : C missing
    global   forall : C present, object o present, o : C missing
    atmost   o : (atmost n R) present, more than n R-successors, some
             non-separated successor pair with a variable        [branches]
    exists   o : (some R C) present, no R-successor carries C    [creates]
    atleast  o : (atleast n R) present, no n pairwise-separated
             R-successors                                        [creates]

Strategy: instances on individuals come before any on variables; variables
are processed in creation order; per object, non-generating rules precede
generating ones (within that, deterministic rules precede the branching
ones).  Generating rules are suppressed on blocked variables — a variable
with an earlier label-identical witness — which is what terminates cyclic
TBoxes.

The search applies deterministic instances eagerly, branches on `or` (first
disjunct first) and on `atmost` (merge pairs in canonical order, the
later-created variable of a variable pair being replaced), checks for a
clash after every application, and backtracks on clash.  Everything is
deterministic for a given input system.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

from .constraints import (
    Constraint, ConstraintSystem, Distinct, Global, Member, Object, RoleLink,
    Var, constraint_str, object_key, object_str,
)
from .syntax import (
    All, And, AtLeast, AtMost, Bottom, Name, Not, Or, Some, concept_key,
    render_concept,
)

RULE_AND = "and"
RULE_OR = "or"
RULE_FORALL = "forall"
RULE_GLOBAL = "global"
RULE_ATMOST = "atmost"
RULE_EXISTS = "exists"
RULE_ATLEAST = "atleast"

GENERATING_RULES = frozenset({RULE_EXISTS, RULE_ATLEAST})
BRANCHING_RULES = frozenset({RULE_OR, RULE_ATMOST})


@dataclass(frozen=True, slots=True)
class RuleInstance:
    rule: str
    target: Object
    constraint: Constraint
    successor: Object | None = None   # forall: the successor gaining the concept
    choices: tuple = ()               # or: both disjuncts; atmost: (remove, keep) pairs


@dataclass(frozen=True, slots=True)
class ClashReport:
    kind: str       # "bottom" | "complement" | "number"
    obj: Object
    detail: str


@dataclass(frozen=True)
class Guards:
    """Resource limits for the completion search.

    Worst-case completions are exponentially large in the knowledge-base
    size (O(2^(4n))), so the caps exist as a practical backstop; the
    defaults are generous for desk-scale inputs.
    """

    max_variables: int = 1000
    max_constraints: int = 200_000
    max_branches: int = 100_000
    debug_checks: bool = False


class Trace:
    """Bounded derivation log; limit=None keeps everything, limit=0 disables
    recording entirely (the searcher then skips building the line text).

    Line grammar (stable; consumed by golden tests):

        step <n>: <rule> on <object>: <constraint> [choice <i>/<k>]
                  [| added: <constraint>{, <constraint>}]
                  [| subst: <object> -> <object>] [| clash: <kind>]
        step <n>: blocked on <object> | witness: <object>
        step <n>: clash: <kind> on <object>          (input already clashed)
        step <n>: guard: <which>
    """

    def __init__(self, limit: int | None = 10_000):
        self.enabled = limit != 0
        self._lines: deque[str] = deque(maxlen=limit)
        self.steps = 0

    def emit(self, text: str) -> None:
        if self.enabled:
            self.steps += 1
            self._lines.append(f"step {self.steps}: {text}")

    def lines(self) -> list[str]:
        return list(self._lines)


MUTED_TRACE = Trace(limit=0)


@dataclass
class CompletionResult:
    status: str                                 # "sat" | "unsat" | "resource-exceeded"
    completion: ConstraintSystem | None
    trace: Trace
    guard: str | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


class InvariantViolation(AssertionError):
    """A debug-mode strategy/blocking invariant failed."""


class _GuardStop(Exception):
    def __init__(self, which: str):
        super().__init__(which)
        self.which = which


# ---------------------------------------------------------------------------
# Rule applicability
# ---------------------------------------------------------------------------

def _has_separated_clique(system: ConstraintSystem, objs: list[Object], size: int) -> bool:
    """Are there `size` pairwise-separated objects among objs?"""
    if size <= 0:
        return True
    if len(objs) < size:
        return False
    if size == 1:
        return True
    greedy: list[Object] = []
    for o in objs:
        if all(system.separated(o, g) for g in greedy):
            greedy.append(o)
    if len(greedy) >= size:
        return True
    for combo in combinations(objs, size):
        if all(system.separated(a, b) for a, b in combinations(combo, 2)):
            return True
    return False


def _merge_pairs(system: ConstraintSystem, successors: list[Object]) -> tuple:
    """Canonical (remove, keep) choices among non-separated successor pairs.

    Only variables can be substituted away.  Successors come in object order
    and two individuals are always separated (unique names), so the later
    object of a pair is a variable, and it is the one removed: this keeps
    the labels of earlier variables stable.
    """
    return tuple(
        (b, a) for i, a in enumerate(successors) for b in successors[i + 1:]
        if not system.separated(a, b)
    )


def _object_instances(system: ConstraintSystem, o: Object) -> Iterator[RuleInstance]:
    members = system.member_concepts_sorted(o)
    for c in members:
        if isinstance(c, And) and not (
            system.has_member(o, c.left) and system.has_member(o, c.right)
        ):
            yield RuleInstance(RULE_AND, o, Member(o, c))
    for c in members:
        if isinstance(c, All):
            for t in system.role_successors(o, c.role):
                if not system.has_member(t, c.concept):
                    yield RuleInstance(RULE_FORALL, o, Member(o, c), successor=t)
    for g in system.global_concepts():
        if not system.has_member(o, g):
            yield RuleInstance(RULE_GLOBAL, o, Global(g))
    for c in members:
        if isinstance(c, Or) and not (
            system.has_member(o, c.left) or system.has_member(o, c.right)
        ):
            yield RuleInstance(RULE_OR, o, Member(o, c), choices=(c.left, c.right))
    for c in members:
        if isinstance(c, AtMost):
            succ = system.role_successors(o, c.role)
            if len(succ) > c.count:
                pairs = _merge_pairs(system, succ)
                if pairs:
                    yield RuleInstance(RULE_ATMOST, o, Member(o, c), choices=pairs)
    if system.is_blocked(o):
        return
    for c in members:
        if isinstance(c, Some):
            succ = system.role_successors(o, c.role)
            if not any(system.has_member(t, c.concept) for t in succ):
                yield RuleInstance(RULE_EXISTS, o, Member(o, c))
    for c in members:
        if isinstance(c, AtLeast):
            succ = system.role_successors(o, c.role)
            if not _has_separated_clique(system, succ, c.count):
                yield RuleInstance(RULE_ATLEAST, o, Member(o, c))


def _iter_instances(system: ConstraintSystem, from_key=None) -> Iterator[RuleInstance]:
    objects = system.objects()
    start = 0 if from_key is None else bisect_left(objects, from_key, key=object_key)
    for o in islice(objects, start, None):
        yield from _object_instances(system, o)


def applicable_rule_instances(system: ConstraintSystem) -> list[RuleInstance]:
    """All applicable instances in strategy order; empty iff complete."""
    return list(_iter_instances(system))


def first_rule_instance(system: ConstraintSystem, from_key=None) -> RuleInstance | None:
    """`from_key`: an object_key before which no object has an instance."""
    return next(_iter_instances(system, from_key), None)


def is_complete(system: ConstraintSystem) -> bool:
    return first_rule_instance(system) is None


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _check_applicable(system: ConstraintSystem, inst: RuleInstance) -> None:
    c = inst.constraint
    if isinstance(c, Member):
        present = system.has_member(c.obj, c.concept)
    else:
        present = isinstance(c, Global) and c.concept in system.global_concepts()
    if not present:
        raise ValueError(f"instance not applicable: {constraint_str(c)} not in system")


def _apply(
    system: ConstraintSystem, inst: RuleInstance, choice: int | None
) -> tuple[ConstraintSystem, list[Constraint]]:
    """Apply one instance; returns the new system and the added constraints
    (empty for the substitution rule)."""
    _check_applicable(system, inst)
    o = inst.target
    if inst.rule in BRANCHING_RULES:
        if choice is None or not 0 <= choice < len(inst.choices):
            raise ValueError(f"choice index {choice!r} out of range for {inst.rule}")
    if inst.rule == RULE_AND:
        c = inst.constraint.concept
        added: list[Constraint] = [Member(o, c.left), Member(o, c.right)]
        return system.extended(added), added
    if inst.rule == RULE_OR:
        added = [Member(o, inst.choices[choice])]
        return system.extended(added), added
    if inst.rule == RULE_FORALL:
        added = [Member(inst.successor, inst.constraint.concept.concept)]
        return system.extended(added), added
    if inst.rule == RULE_GLOBAL:
        added = [Member(o, inst.constraint.concept)]
        return system.extended(added), added
    if inst.rule == RULE_EXISTS:
        c = inst.constraint.concept
        y = Var(system.next_var_index)
        added = [RoleLink(o, p, y) for p in c.role.names]
        added.append(Member(y, c.concept))
        return system.extended(added, next_var_index=y.index + 1), added
    if inst.rule == RULE_ATLEAST:
        c = inst.constraint.concept
        fresh = [Var(system.next_var_index + i) for i in range(c.count)]
        added = [RoleLink(o, p, y) for y in fresh for p in c.role.names]
        added.extend(Distinct(a, b) for a, b in combinations(fresh, 2))
        return system.extended(added, next_var_index=system.next_var_index + c.count), added
    if inst.rule == RULE_ATMOST:
        y, t = inst.choices[choice]
        return system.substituted(y, t), []
    raise ValueError(f"unknown rule {inst.rule!r}")


def apply_rule_instance(
    system: ConstraintSystem, inst: RuleInstance, choice: int | None = None
) -> ConstraintSystem:
    """The system after one rule application; `choice` selects the branch for
    the nondeterministic rules."""
    return _apply(system, inst, choice)[0]


# ---------------------------------------------------------------------------
# Clash detection
# ---------------------------------------------------------------------------

def detect_clash(system: ConstraintSystem, among=None) -> ClashReport | None:
    """First clash in canonical order, or None.

    Clash forms: o : BOTTOM; a complementary name pair on one object;
    o : (atmost n R) with n+1 pairwise-separated R-successors.  `among`
    restricts the scan to the given objects (used by the search, which knows
    which objects an application touched).
    """
    objects = system.objects() if among is None \
        else sorted(among, key=object_key)
    for o in objects:
        members = system.member_concepts(o)
        if not members:
            continue
        positive: set[str] = set()
        negated: set[str] = set()
        atmosts = []
        bottom = False
        for c in members:
            if isinstance(c, Name):
                positive.add(c.name)
            elif isinstance(c, Not):
                negated.add(c.concept.name)
            elif isinstance(c, AtMost):
                atmosts.append(c)
            elif isinstance(c, Bottom):
                bottom = True
        if bottom:
            return ClashReport("bottom", o, "BOTTOM")
        both = positive & negated
        if both:
            return ClashReport("complement", o, min(both))
        for c in sorted(atmosts, key=concept_key):
            succ = system.role_successors(o, c.role)
            if len(succ) > c.count and _has_separated_clique(system, succ, c.count + 1):
                return ClashReport("number", o, render_concept(c))
    return None


# ---------------------------------------------------------------------------
# Completion search
# ---------------------------------------------------------------------------

class _Searcher:
    def __init__(self, guards: Guards, trace: Trace):
        self.guards = guards
        self.trace = trace
        self.branches = 0

    def run(self, system: ConstraintSystem) -> ConstraintSystem | None:
        clash = detect_clash(system)
        if clash is not None:
            self.trace.emit(f"clash: {clash.kind} on {object_str(clash.obj)}")
            return None
        snapshots: dict[int, frozenset] | None = {} if self.guards.debug_checks else None
        # Choice points [system, branching instance, next choice, snapshots].
        # After a clash `system` is None, and the innermost choice point with
        # an untried choice resumes; the search fails once none is left.
        stack: list[list] = []
        from_key = None
        while True:
            if system is None:
                while stack and stack[-1][2] == len(stack[-1][1].choices):
                    stack.pop()
                if not stack:
                    return None
                point = stack[-1]
                base, inst, i, base_snapshots = point
                point[2] = i + 1
            else:
                inst = first_rule_instance(system, from_key)
                if inst is None:
                    return self._completion(system)
                base, base_snapshots = system, snapshots
                i = None
                if inst.rule in BRANCHING_RULES:
                    stack.append([system, inst, 1, snapshots])
                    i = 0
            if i is not None:
                self.branches += 1
                if self.branches > self.guards.max_branches:
                    raise _GuardStop("max-branches")
            elif inst.rule == RULE_ATLEAST:
                # size guards before the k variables and k(k-1)/2 pairs are
                # built; every constraint the rule adds is new, so it is exact
                c = inst.constraint.concept
                k = c.count
                self._check_sizes(
                    base.next_var_index + k,
                    base.size + k * len(c.role.names) + k * (k - 1) // 2,
                )
            nxt, added = _apply(base, inst, i)
            # the objects that can gain a clash or an instance: the target and
            # those gaining a concept (new links and `!=` pairs only involve the
            # target and its fresh successors); all of them after a substitution
            touched = None if inst.rule == RULE_ATMOST else \
                {inst.target}.union(c.obj for c in added if isinstance(c, Member))
            if self._step(nxt, added, inst, i, touched):
                system = None
                continue
            snapshots = self._checked(base, nxt, inst, base_snapshots)
            system = nxt
            # Objects before every touched one keep no instances: their labels
            # and links are unchanged, a successor's new concept only satisfies
            # forall and exists, and blocking reads earlier variables' labels.
            from_key = None if touched is None else min(map(object_key, touched))

    def _completion(self, system: ConstraintSystem) -> ConstraintSystem:
        for v in system.variables():
            w = system.witness(v)
            if w is not None:
                if self.guards.debug_checks and system.has_successors(v):
                    raise InvariantViolation(
                        f"blocked variable {object_str(v)} has a direct successor"
                    )
                self.trace.emit(f"blocked on {object_str(v)} | witness: {object_str(w)}")
        return system

    def _check_sizes(self, next_var_index: int, constraint_count: int) -> None:
        if next_var_index > self.guards.max_variables:
            raise _GuardStop("max-variables")
        if constraint_count > self.guards.max_constraints:
            raise _GuardStop("max-constraints")

    def _step(self, new, added, inst, i, touched) -> ClashReport | None:
        """Guard checks, the clash check on the touched objects, and the trace
        line for one application; returns the clash, if any."""
        self._check_sizes(new.next_var_index, new.size)
        clash = detect_clash(new, touched)
        if self.trace.enabled:
            parts = [f"{inst.rule} on {object_str(inst.target)}: "
                     f"{constraint_str(inst.constraint)}"]
            if i is not None:
                parts.append(f"choice {i + 1}/{len(inst.choices)}")
            if inst.rule == RULE_ATMOST:
                y, t = inst.choices[i]
                parts.append(f"| subst: {object_str(y)} -> {object_str(t)}")
            elif added:
                parts.append(
                    "| added: " + ", ".join(sorted(constraint_str(c) for c in added))
                )
            if clash is not None:
                parts.append(f"| clash: {clash.kind}")
            self.trace.emit(" ".join(parts))
        return clash

    def _checked(self, old, new, inst, snapshots):
        """Debug-mode invariants, run after each application."""
        if snapshots is None:
            return None
        snapshots = dict(snapshots)
        if inst.rule == RULE_ATMOST:
            if len(new.objects()) >= len(old.objects()):
                raise InvariantViolation("atmost did not shrink the object count")
            snapshots = {
                idx: labels for idx, labels in snapshots.items()
                if Var(idx) in set(new.objects())
            }
        else:
            if not new.constraints > old.constraints:
                raise InvariantViolation(f"{inst.rule} did not grow the constraint set")
        if snapshots and isinstance(inst.target, Var):
            if inst.target.index < max(snapshots):
                raise InvariantViolation(
                    f"rule applied to {object_str(inst.target)} after a generating rule "
                    f"fired on a later variable"
                )
        for idx, labels in snapshots.items():
            if new.member_concepts(Var(idx)) != labels:
                raise InvariantViolation(f"label set of _v{idx} changed after generation")
        if inst.rule in GENERATING_RULES and isinstance(inst.target, Var):
            snapshots[inst.target.index] = new.member_concepts(inst.target)
        m = new.metrics()
        if m.unblocked_count > 2 ** m.concept_count:
            raise InvariantViolation(
                f"{m.unblocked_count} unblocked variables exceeds 2^{m.concept_count}"
            )
        return snapshots


def complete(
    system: ConstraintSystem,
    guards: Guards | None = None,
    trace: Trace | None = None,
) -> CompletionResult:
    """Search for a clash-free completion of a translated system.

    Returns sat with the completion, unsat, or resource-exceeded naming the
    guard that fired.  Deterministic for a given input.
    """
    guards = guards or Guards()
    trace = trace if trace is not None else Trace()
    searcher = _Searcher(guards, trace)
    try:
        completion = searcher.run(system)
    except _GuardStop as stop:
        trace.emit(f"guard: {stop.which}")
        return CompletionResult("resource-exceeded", None, trace, stop.which)
    if completion is None:
        return CompletionResult("unsat", None, trace)
    return CompletionResult("sat", completion, trace)
