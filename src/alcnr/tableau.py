"""Propagation rules, application strategy, clash detection, and the
backjumping search for a clash-free completion.

Rules and their side conditions:

    and      o : (C1 and C2) present, not both conjuncts present
    or       o : (C1 or C2) present, neither disjunct present   [branches]
    forall   o : (all R C) present, t an R-successor of o, t : C missing
    global   forall : C present, object o present, o : C missing, no
             disjunct of C vacuous at o                 (lazy unfolding)
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

Lazy unfolding: a disjunct of a global concept C (C's `or`s flattened) is
vacuous at o when it is `(not A)` with A not in o's label, or `(all R D)` or
`(atmost n R)` while o has no link on a role name of R and no `some` or
`atleast` concept on a role sharing a name with R.  A vacuous disjunct holds
at o in the canonical model (a name's extension is the objects labelled with
it, an object's successors are its links or, when blocked, its witness's,
which has the same label), so C goes on o only once no disjunct is vacuous.
A trigger (A, a link, a `some` or an `atleast` joining o) arrives before o's
generating rules fire, so a variable's label is still final once they do.

The search applies deterministic instances eagerly, branches on `or` (first
disjunct first) and on `atmost` (merge pairs in canonical order, the
later-created variable of a variable pair being replaced) and checks for a
clash after every application.  Each constraint the search adds depends on
a set of choice points; on a clash it jumps back to the latest choice point
the clash depends on, skipping later ones, whose untried choices would all
fail again (dependency-directed backjumping).  Skipped choices never lead to
a completion, so the search finds the same completion as chronological
backtracking.  Everything is deterministic for a given input system.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterator

from .constraints import (
    Constraint, ConstraintSystem, Global, Ind, Member, Object, RoleLink,
    Siblings, Var, constraint_str, object_str,
)
from .syntax import (
    BOTTOM, All, And, AtLeast, AtMost, Bottom, Concept, Name, Not, Or, Role,
    Some, concept_key, is_simple, render_concept,
)

# Every membership the rules build has a subconcept of a simple label or
# global concept, so it skips Member's simplicity check (the search checks
# each new label concept once under `debug_checks`).
_member = Member._trusted

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
    A limited log keeps the last `limit` lines; `dropped` counts the earlier
    ones it evicted.

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

    @property
    def dropped(self) -> int:
        """Lines the limit evicted: 0 unless a limited log overflowed."""
        return self.steps - len(self._lines)


MUTED_TRACE = Trace(limit=0)


@dataclass
class SearchStats:
    """Counters of one completion search."""

    branches: int = 0     # choices tried at choice points
    skipped: int = 0      # choice points a backjump dropped from the stack
    max_depth: int = 0    # most choice points open at once


@dataclass
class CompletionResult:
    status: str                                 # "sat" | "unsat" | "resource-exceeded"
    completion: ConstraintSystem | None
    trace: Trace
    guard: str | None = None
    stats: SearchStats = field(default_factory=SearchStats)

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
    # A candidate joins the greedy clique when it is separated from every
    # member.  It is, at once, when the members all share one of its groups,
    # or all are individuals and so is it; `counts` counts the members per
    # group and `inds` the individuals among them.
    greedy: list[Object] = []
    counts: dict[object, int] = {}
    inds = 0
    for o in objs:
        n, ind, groups = len(greedy), isinstance(o, Ind), system.groups_of(o)
        if (ind and inds == n) or any(counts.get(g, 0) == n for g in groups) \
                or all(system.separated(o, g) for g in greedy):
            greedy.append(o)
            inds += ind
            for g in groups:
                counts[g] = counts.get(g, 0) + 1
    if len(greedy) >= size:
        return True
    # Peel (a k-core pass): each member of a clique of `size` has size - 1
    # separated peers in it, so drop every candidate with fewer peers among
    # the candidates left, until no candidate left has fewer.
    peers = {o: [p for p in objs if system.separated(o, p)] for o in objs}
    degree = {o: len(ps) for o, ps in peers.items()}
    drop = [o for o in objs if degree[o] < size - 1]
    dropped = set(drop)
    while drop:
        for p in peers[drop.pop()]:
            degree[p] -= 1
            if degree[p] < size - 1 and p not in dropped:
                dropped.add(p)
                drop.append(p)
    objs = [o for o in objs if o not in dropped]
    if len(objs) < size:
        return False
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


# The last globals tuple analysed, with its analysis.  No rule adds or drops
# a global and every derived system shares its parent's tuple, so one entry
# serves a whole search and keeps only one KB's globals alive.
_last_unfolding: tuple = ((), ())


def _unfolding(system: ConstraintSystem) -> tuple:
    """Each global concept with its disjuncts that can be vacuous at an
    object (its `or`s flattened): the names A of its `(not A)` disjuncts,
    and the role names of each of its `(all R D)` and `(atmost n R)`
    disjuncts."""
    global _last_unfolding
    key, found = _last_unfolding
    if key is system.global_concepts():
        return found
    found = []
    for g in system.global_concepts():
        names: set[Name] = set()
        roles: list[frozenset[str]] = []
        todo = [g]
        while todo:
            c = todo.pop()
            if isinstance(c, Or):
                todo += (c.left, c.right)
            elif isinstance(c, Not):
                names.add(c.concept)
            elif isinstance(c, (All, AtMost)):
                roles.append(frozenset(c.role.names))
        found.append((g, frozenset(names), tuple(roles)))
    found = tuple(found)
    _last_unfolding = (system.global_concepts(), found)
    return found


def _active_roles(system: ConstraintSystem, o: Object, members: list[Concept]) -> set[str]:
    """The role names on which o has or may get successors: those of its
    links and of its `some` and `atleast` concepts."""
    active = set(system.link_targets(o))
    for c in members:
        if isinstance(c, (Some, AtLeast)):
            active.update(c.role.names)
    return active


def _object_instances(
    system: ConstraintSystem, o: Object, unfolding: tuple
) -> Iterator[RuleInstance]:
    members = system.member_concepts_sorted(o)
    labels = system.member_concepts(o)
    for c in members:
        if isinstance(c, And) and not (
            system.has_member(o, c.left) and system.has_member(o, c.right)
        ):
            yield RuleInstance(RULE_AND, o, _member(o, c))
    for c in members:
        if isinstance(c, All):
            for t in system.role_successors(o, c.role):
                if not system.has_member(t, c.concept):
                    yield RuleInstance(RULE_FORALL, o, _member(o, c), successor=t)
    active = None
    for g, names, roles in unfolding:
        if g in labels or not names <= labels:
            continue
        if roles:
            if active is None:
                active = _active_roles(system, o, members)
            if any(active.isdisjoint(r) for r in roles):
                continue
        yield RuleInstance(RULE_GLOBAL, o, Global._trusted(g))
    for c in members:
        if isinstance(c, Or) and not (
            system.has_member(o, c.left) or system.has_member(o, c.right)
        ):
            yield RuleInstance(RULE_OR, o, _member(o, c), choices=(c.left, c.right))
    for c in members:
        if isinstance(c, AtMost):
            succ = system.role_successors(o, c.role)
            if len(succ) > c.count:
                pairs = _merge_pairs(system, succ)
                if pairs:
                    yield RuleInstance(RULE_ATMOST, o, _member(o, c), choices=pairs)
    if system.is_blocked(o):
        return
    for c in members:
        if isinstance(c, Some):
            succ = system.role_successors(o, c.role)
            if not any(system.has_member(t, c.concept) for t in succ):
                yield RuleInstance(RULE_EXISTS, o, _member(o, c))
    for c in members:
        if isinstance(c, AtLeast):
            succ = system.role_successors(o, c.role)
            if not _has_separated_clique(system, succ, c.count):
                yield RuleInstance(RULE_ATLEAST, o, _member(o, c))


def _iter_instances(system: ConstraintSystem, from_key=None) -> Iterator[RuleInstance]:
    unfolding = _unfolding(system)
    objects = system.objects()
    start = 0 if from_key is None else bisect_left(objects, from_key)
    for o in islice(objects, start, None):
        yield from _object_instances(system, o, unfolding)


def applicable_rule_instances(system: ConstraintSystem) -> list[RuleInstance]:
    """All applicable instances in strategy order; empty iff complete."""
    return list(_iter_instances(system))


def first_rule_instance(system: ConstraintSystem, from_key=None) -> RuleInstance | None:
    """`from_key`: an object before which no object has an instance."""
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
    """Apply one applicable instance with a valid choice; returns the new
    system and the added constraints (empty for the substitution rule)."""
    o = inst.target
    if inst.rule == RULE_AND:
        c = inst.constraint.concept
        added: list[Constraint] = [_member(o, c.left), _member(o, c.right)]
        return system.extended(added), added
    if inst.rule == RULE_OR:
        added = [_member(o, inst.choices[choice])]
        return system.extended(added), added
    if inst.rule == RULE_FORALL:
        added = [_member(inst.successor, inst.constraint.concept.concept)]
        return system.extended(added), added
    if inst.rule == RULE_GLOBAL:
        added = [_member(o, inst.constraint.concept)]
        return system.extended(added), added
    if inst.rule == RULE_EXISTS:
        c = inst.constraint.concept
        y = Var(system.next_var_index)
        added = [RoleLink(o, p, y) for p in c.role.names]
        added.append(_member(y, c.concept))
        return system.extended(added, next_var_index=y.index + 1), added
    if inst.rule == RULE_ATLEAST:
        c = inst.constraint.concept
        fresh = tuple(Var(system.next_var_index + i) for i in range(c.count))
        added = [RoleLink(o, p, y) for y in fresh for p in c.role.names]
        added.append(Siblings(fresh))
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
    _check_applicable(system, inst)
    if inst.rule in BRANCHING_RULES:
        if choice is None or not 0 <= choice < len(inst.choices):
            raise ValueError(f"choice index {choice!r} out of range for {inst.rule}")
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
    objects = system.objects() if among is None else sorted(among)
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

class _Point:
    """A choice point on the search stack; its level is its stack index.  A
    dependency mask is an int with bit l set for the choice point at level l."""

    __slots__ = ("system", "inst", "next", "snapshots", "failed", "mark")

    def __init__(self, system, inst, snapshots, mark: int):
        self.system = system        # the system it branches from
        self.inst = inst            # the branching instance
        self.next = 1               # the next choice to try
        self.snapshots = snapshots  # the debug snapshots of `system`
        self.failed = 0             # the masks of its failed choices, below it
        self.mark = mark            # the trail length when it was pushed


class _Searcher:
    """The completion search.

    `_deps` maps each membership (object, concept) the search adds to the
    mask of the choice points it depends on; `_reach` maps an object to the
    mask of its incoming links and its sibling groups (its creation, widened
    by merges).  An absent entry means 0, the mask of every input constraint.
    A membership is written only when it is new to the system its rule
    applies to, so each one in the current system carries the mask of its
    own derivation; merges widen `_reach` through a trail that a jump
    rewinds.  Nothing is recorded while no choice point is open.
    """

    def __init__(self, guards: Guards, trace: Trace):
        self.guards = guards
        self.trace = trace
        self.stats = SearchStats()
        self._deps: dict[tuple[Object, Concept], int] = {}
        self._reach: dict[Object, int] = {}
        self._trail: list[tuple[Object, int]] = []
        self._concepts = 0  # debug: the concept count, fixed within a search
        self._simple: set[Concept] = set()  # debug: label concepts checked simple

    def run(self, system: ConstraintSystem) -> ConstraintSystem | None:
        clash = detect_clash(system)
        if clash is not None:
            self.trace.emit(f"clash: {clash.kind} on {object_str(clash.obj)}")
            return None
        snapshots: dict[int, frozenset] | None = None
        if self.guards.debug_checks:
            snapshots = {}
            # every concept a rule adds is a subconcept of one present, and a
            # merge moves labels: no step changes the count
            self._concepts = system.metrics().concept_count
        # After a clash `system` is None and `mask` holds the clash's
        # dependencies: the latest choice point in it resumes, and the search
        # fails once the mask runs out.
        stack: list[_Point] = []
        from_key = None
        mask = 0
        while True:
            if system is None:
                point = self._backjump(stack, mask)
                if point is None:
                    return None
                base, inst, i = point.system, point.inst, point.next
                base_snapshots = point.snapshots
                point.next = i + 1
            else:
                inst = first_rule_instance(system, from_key)
                if inst is None:
                    return self._completion(system)
                base, base_snapshots = system, snapshots
                i = None
                if inst.rule in BRANCHING_RULES:
                    stack.append(_Point(system, inst, snapshots, len(self._trail)))
                    self.stats.max_depth = max(self.stats.max_depth, len(stack))
                    i = 0
            if i is not None:
                self.stats.branches += 1
                if self.stats.branches > self.guards.max_branches:
                    raise _GuardStop("max-branches")
            elif inst.rule == RULE_ATLEAST:
                # size guards before the k variables are built; every link
                # and each of the k(k-1)/2 sibling pairs is new, so it is exact
                c = inst.constraint.concept
                k = c.count
                self._check_sizes(
                    base.next_var_index + k,
                    base.size + k * len(c.role.names) + k * (k - 1) // 2,
                )
            nxt, added = _apply(base, inst, i)
            if self.guards.debug_checks:
                self._check_simple(added)
            if stack:
                self._record(base, inst, i, added, len(stack) - 1)
            # the objects that can gain a clash or an instance: the target and
            # those gaining a concept (new links and groups only involve the
            # target and its fresh successors); all of them after a substitution
            touched = None if inst.rule == RULE_ATMOST else \
                {inst.target}.union(c.obj for c in added if isinstance(c, Member))
            clash = self._step(nxt, added, inst, i, touched)
            if clash is not None:
                mask = self._clash_mask(nxt, clash)
                system = None
                continue
            snapshots = self._checked(base, nxt, inst, base_snapshots)
            system = nxt
            # Objects before every touched one keep no instances: their labels
            # and links are unchanged, a successor's new concept only satisfies
            # forall and exists, and blocking reads earlier variables' labels.
            from_key = None if touched is None else min(touched)

    # -- dependencies -------------------------------------------------------

    def _successors_mask(self, system: ConstraintSystem, o: Object, r: Role) -> int:
        reach = self._reach
        mask = 0
        for t in system.role_successors(o, r):
            mask |= reach.get(t, 0)
        return mask

    def _record(self, base, inst, i, added, level: int) -> None:
        """The masks of one application's new constraints: its premise's, plus
        the successor's links for forall, plus for a choice its level and, for
        atmost, the links and `!=` pairs that fix the merge choices.

        A global's membership gets mask 0, like an input constraint, though
        it fires only once a trigger makes each of its disjuncts that can be
        vacuous non-vacuous, and a trigger may rest on a choice.  A disjunct
        that can be vacuous clashes only through its trigger: `(not A)` with
        A, `(all R D)` and `(atmost n R)` through R-successors, whose `_reach`
        holds their links' masks.  So the failed mask of the `or` point on
        the global holds, for each such disjunct, a mask under which it is
        non-vacuous: under that union the global fires at o, and the failure
        holds there."""
        deps, rule = self._deps, inst.rule
        if rule == RULE_GLOBAL:
            mask = 0
        else:
            o, c = inst.target, inst.constraint.concept
            mask = deps.get((o, c), 0)
            if rule == RULE_OR:
                mask |= 1 << level
            elif rule == RULE_FORALL:
                mask |= self._reach.get(inst.successor, 0)
            elif rule == RULE_ATMOST:
                mask |= 1 << level | self._successors_mask(base, o, c.role)
                self._merge(base, o, *inst.choices[i], mask)
                return
        if rule == RULE_AND:
            # the one rule that can add a membership the system already holds
            for c in added:
                if not base.has_member(c.obj, c.concept):
                    deps[c.obj, c.concept] = mask
            return
        for c in added:
            if isinstance(c, Member):
                deps[c.obj, c.concept] = mask
            elif isinstance(c, RoleLink):
                # a fresh variable: the mask covers its links and its group
                self._reach[c.target] = mask

    def _merge(self, base, o, y, t, mask: int) -> None:
        """Merging y into t, both successors of o, under `mask`: y's concepts
        new on t depend on it, and so does t if it gains a link role name or
        a sibling.  The variable y has no successors of its own yet: o
        precedes it, and the strategy fires no rule on an object after a
        generating rule fired on a later one."""
        deps = self._deps
        have = base.member_concepts(t)
        for c in base.member_concepts(y):
            if c not in have:
                deps[t, c] = deps.get((y, c), 0) | mask
        # o is the only source of links to the variable y
        if any(y in ts and t not in ts for ts in base.link_targets(o).values()) or any(
            not base.separated(t, z) for z in base.siblings(y)
        ):
            old = self._reach.get(t, 0)
            self._trail.append((t, old))
            self._reach[t] = old | mask

    def _clash_mask(self, system: ConstraintSystem, clash: ClashReport) -> int:
        o, deps = clash.obj, self._deps
        if clash.kind == "bottom":
            return deps.get((o, BOTTOM), 0)
        if clash.kind == "complement":
            a = Name(clash.detail)
            return deps.get((o, a), 0) | deps.get((o, Not(a)), 0)
        mask = 0
        for c in system.member_concepts(o):
            if isinstance(c, AtMost) and render_concept(c) == clash.detail:
                mask |= deps.get((o, c), 0) | self._successors_mask(system, o, c.role)
        return mask

    def _backjump(self, stack: list[_Point], mask: int) -> _Point | None:
        """The latest choice point in `mask` with an untried choice, after
        dropping every later one; None once the mask runs out (unsat).  A
        choice point out of choices fails with the masks of its failed
        choices, less its own level.  That covers its premise: every mask
        holding a level holds the mask of that level's premise."""
        while mask:
            level = mask.bit_length() - 1
            self.stats.skipped += len(stack) - 1 - level
            del stack[level + 1:]
            point = stack[level]
            point.failed |= mask ^ 1 << level
            if point.next < len(point.inst.choices):
                trail, reach = self._trail, self._reach
                while len(trail) > point.mark:
                    o, old = trail.pop()
                    reach[o] = old
                return point
            mask = point.failed
            stack.pop()
        return None

    # -- completion, guards, trace, debug invariants ------------------------

    def _completion(self, system: ConstraintSystem) -> ConstraintSystem:
        for v, w in system.witnesses().items():
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
                parts.append("| added: " + ", ".join(sorted(
                    constraint_str(d) for c in added
                    for d in (c.pairs() if isinstance(c, Siblings) else (c,))
                )))
            if clash is not None:
                parts.append(f"| clash: {clash.kind}")
            self.trace.emit(" ".join(parts))
        return clash

    def _check_simple(self, added) -> None:
        """Debug: each new label concept, once per search, is simple."""
        for c in added:
            if isinstance(c, Member) and c.concept not in self._simple:
                if not is_simple(c.concept):
                    raise InvariantViolation(f"{constraint_str(c)}: not simple")
                self._simple.add(c.concept)

    def _checked(self, old, new, inst, snapshots):
        """Debug-mode invariants, run after each application."""
        if snapshots is None:
            return None
        snapshots = dict(snapshots)
        if inst.rule == RULE_ATMOST:
            if len(new.objects()) >= len(old.objects()):
                raise InvariantViolation("atmost did not shrink the object count")
            kept = set(new.objects())
            snapshots = {
                idx: labels for idx, labels in snapshots.items() if Var(idx) in kept
            }
        elif not _grew(old, new):
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
        # a variable is unblocked iff no earlier one has its label set
        unblocked = len({new.member_concepts(v) for v in new.variables()})
        if unblocked > 2 ** self._concepts:
            raise InvariantViolation(
                f"{unblocked} unblocked variables exceeds 2^{self._concepts}"
            )
        return snapshots


def _grew(old: ConstraintSystem, new: ConstraintSystem) -> bool:
    """new.constraints > old.constraints, tested on the indexes: a larger size
    and every global, label, group and link target of old still there.  A
    child shares each set its step left alone, hence the `is` tests."""
    if new.size <= old.size:
        return False
    was, now = old.global_concepts(), new.global_concepts()
    if was is not now and not set(was) <= set(now):
        return False
    for o in old.objects():
        was, now = old.member_concepts(o), new.member_concepts(o)
        if was is not now and not was <= now:
            return False
        was, now = old.groups_of(o), new.groups_of(o)
        if was is not now and not was <= now:
            return False
        links = new.link_targets(o)
        for p, was in old.link_targets(o).items():
            now = links.get(p, frozenset())
            if was is not now and not was <= now:
                return False
    return True


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
        return CompletionResult("resource-exceeded", None, trace, stop.which, searcher.stats)
    if completion is None:
        return CompletionResult("unsat", None, trace, stats=searcher.stats)
    return CompletionResult("sat", completion, trace, stats=searcher.stats)
