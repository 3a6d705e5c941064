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
ones); within a rule, concepts come in `concept_key` order.  Generating
rules are suppressed on blocked variables — a variable with an earlier
label-identical witness — which is what terminates cyclic TBoxes.  The
rules and the clash test read labels as id bits of the system's concept
table (`alcnr.table`), a kind's concepts in order of their ranks.

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
from .syntax import AtMost, Role, is_simple, render_concept
from .table import (
    ALL, AND, ATLEAST, ATMOST, NAME, OR, SOME, ConceptTable, bit_ids,
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


class RuleInstance:
    """An applicable rule instance: the rule, its target object, the table
    id of the concept it fires on (for `global`, the global concept's),
    and for forall the successor gaining the concept; `choices` are an
    `or`'s two disjuncts or an `atmost`'s (remove, keep) pairs.
    `constraint` is the premise, decoded through the table."""

    __slots__ = ("rule", "target", "concept", "table", "successor", "choices")

    def __init__(self, rule: str, target: Object, concept: int, table: ConceptTable,
                 successor: Object | None = None, choices: tuple = ()):
        self.rule = rule
        self.target = target
        self.concept = concept
        self.table = table
        self.successor = successor
        self.choices = choices

    @property
    def constraint(self) -> Constraint:
        c = self.table.concepts[self.concept]
        return Global._trusted(c) if self.rule == RULE_GLOBAL else _member(self.target, c)

    def __repr__(self) -> str:
        return (f"RuleInstance(rule={self.rule!r}, target={self.target!r}, "
                f"constraint={self.constraint!r}, successor={self.successor!r}, "
                f"choices={self.choices!r})")


@dataclass(frozen=True, slots=True)
class ClashReport:
    kind: str       # "bottom" | "complement" | "number"
    obj: Object
    detail: str
    # the clashing concepts' id bits in the system's table
    bits: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Guards:
    """Resource limits for the completion search.

    Worst-case completions are exponentially large in the knowledge-base
    size (O(2^(4n))), so the caps exist as a practical backstop; the
    defaults are generous for desk-scale inputs.  `max_constraints` caps
    what a system stores (`ConstraintSystem.stored`), where the `!=` pairs
    of an `atleast` application's variables are one sibling group.
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



def _active_roles(system: ConstraintSystem, o: Object, label: int, table: ConceptTable) -> set[str]:
    """The role names on which o has or may get successors: those of its
    links and of its `some` and `atleast` concepts."""
    active = set(system.link_targets(o))
    for c in bit_ids(label & (table.kinds[SOME] | table.kinds[ATLEAST])):
        active.update(table.concepts[c].role.names)
    return active


def _by_rank(ids: list[int], rank: tuple) -> list[int]:
    return sorted(ids, key=rank.__getitem__) if len(ids) > 1 else ids


def _object_instances(
    system: ConstraintSystem, o: Object, table: ConceptTable, unfolding: tuple
) -> Iterator[RuleInstance]:
    """o's applicable instances in strategy order; within a rule, by the
    rank of the concept (key order), then by successor."""
    label = system.label(o)
    kinds, parts, left, rank = table.kinds, table.parts, table.left, table.rank
    found = label & kinds[AND]
    if found:
        ready = [c for c in bit_ids(found) if label & parts[c] != parts[c]]
        for c in _by_rank(ready, rank):
            yield RuleInstance(RULE_AND, o, c, table)
    found = label & kinds[ALL]
    if found:
        for c in _by_rank(bit_ids(found), rank):
            for t in system.role_successors(o, table.concepts[c].role):
                if not system.label(t) >> left[c] & 1:
                    yield RuleInstance(RULE_FORALL, o, c, table, successor=t)
    active = None
    for g, names, roles in unfolding:
        if label >> g & 1 or label & names != names:
            continue
        if roles:
            if active is None:
                active = _active_roles(system, o, label, table)
            if any(active.isdisjoint(r) for r in roles):
                continue
        yield RuleInstance(RULE_GLOBAL, o, g, table)
    found = label & kinds[OR]
    if found:
        ready = [c for c in bit_ids(found) if not label & parts[c]]
        concepts, right = table.concepts, table.right
        for c in _by_rank(ready, rank):
            yield RuleInstance(RULE_OR, o, c, table,
                               choices=(concepts[left[c]], concepts[right[c]]))
    found = label & kinds[ATMOST]
    if found:
        for c in _by_rank(bit_ids(found), rank):
            atmost = table.concepts[c]
            succ = system.role_successors(o, atmost.role)
            if len(succ) > atmost.count:
                pairs = _merge_pairs(system, succ)
                if pairs:
                    yield RuleInstance(RULE_ATMOST, o, c, table, choices=pairs)
    if system.is_blocked(o):
        return
    found = label & (kinds[SOME] | kinds[ATLEAST])
    for c in _by_rank(bit_ids(found & kinds[SOME]), rank):
        succ = system.role_successors(o, table.concepts[c].role)
        if not any(system.label(t) >> left[c] & 1 for t in succ):
            yield RuleInstance(RULE_EXISTS, o, c, table)
    for c in _by_rank(bit_ids(found & kinds[ATLEAST]), rank):
        atleast = table.concepts[c]
        succ = system.role_successors(o, atleast.role)
        if not _has_separated_clique(system, succ, atleast.count):
            yield RuleInstance(RULE_ATLEAST, o, c, table)


def _iter_instances(system: ConstraintSystem, from_key=None) -> Iterator[RuleInstance]:
    table = system.concept_table()
    unfolding = system.unfolding()
    objects = system.objects()
    start = 0 if from_key is None else bisect_left(objects, from_key)
    for o in islice(objects, start, None):
        yield from _object_instances(system, o, table, unfolding)


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
        present = c.concept in system.global_concepts()
    if not present:
        raise ValueError(f"instance not applicable: {constraint_str(c)} not in system")


def _apply(
    system: ConstraintSystem, inst: RuleInstance, choice: int | None
) -> tuple[ConstraintSystem, list]:
    """Apply one applicable instance with a valid choice, its concept an id
    of the system's table; returns the new system and the added
    constraints, memberships as (object, id) pairs (empty for the
    substitution rule)."""
    o, c, table, rule = inst.target, inst.concept, inst.table, inst.rule
    if rule == RULE_AND:
        added: list = [(o, table.left[c]), (o, table.right[c])]
    elif rule == RULE_OR:
        added = [(o, table.right[c] if choice else table.left[c])]
    elif rule == RULE_FORALL:
        added = [(inst.successor, table.left[c])]
    elif rule == RULE_GLOBAL:
        added = [(o, c)]
    elif rule == RULE_EXISTS:
        y = Var(system.next_var_index)
        added = [RoleLink(o, p, y) for p in table.concepts[c].role.names]
        added.append((y, table.left[c]))
        return system.extended(added, next_var_index=y.index + 1), added
    elif rule == RULE_ATLEAST:
        k = table.concepts[c].count
        fresh = tuple(Var(system.next_var_index + i) for i in range(k))
        added = [RoleLink(o, p, y) for y in fresh for p in table.concepts[c].role.names]
        added.append(Siblings(fresh))
        return system.extended(added, next_var_index=system.next_var_index + k), added
    elif rule == RULE_ATMOST:
        y, t = inst.choices[choice]
        return system.substituted(y, t), []
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return system.extended(added), added


def apply_rule_instance(
    system: ConstraintSystem, inst: RuleInstance, choice: int | None = None
) -> ConstraintSystem:
    """The system after one rule application; `choice` selects the branch for
    the nondeterministic rules."""
    _check_applicable(system, inst)
    if inst.rule in BRANCHING_RULES:
        if choice is None or not 0 <= choice < len(inst.choices):
            raise ValueError(f"choice index {choice!r} out of range for {inst.rule}")
    table = system.concept_table()
    if inst.table is not table:  # an instance selected on another system
        concept = inst.table.concepts[inst.concept]
        inst = RuleInstance(inst.rule, inst.target, table.ids[concept], table,
                            inst.successor, inst.choices)
    return _apply(system, inst, choice)[0]


# ---------------------------------------------------------------------------
# Clash detection
# ---------------------------------------------------------------------------

def detect_clash(system: ConstraintSystem, among=None) -> ClashReport | None:
    """First clash in canonical order, or None.

    Clash forms: o : BOTTOM; a complementary name pair on one object;
    o : (atmost n R) with n+1 pairwise-separated R-successors.  `among`
    restricts the scan to the given objects.  A dict restricts it further
    to the label concepts it maps each object to, as table-id bits, taken
    in its own order, and tests their complement partners against
    `label(o) | bits`: the search passes, in object order, what a step
    added and the `atmost` concepts of an object that gained successors,
    since the system the step extends has no clash; the services pass the
    label of a goal's object with the goal's bits OR'd in, which the
    system itself does not hold.
    """
    table = system.concept_table()
    label = system.label
    if isinstance(among, dict):
        scan = among.items()
    else:
        scan = [(o, label(o)) for o in (system.objects() if among is None else sorted(among))]
    names, complement, paired = table.kinds[NAME], table.complement, table.paired
    atmosts = table.kinds[ATMOST]
    for o, bits in scan:
        if not bits:
            continue
        if bits & table.bottom:
            return ClashReport("bottom", o, "BOTTOM", table.bottom)
        found = bits & paired
        if found:
            have, first = label(o) | bits, None
            while found:  # a pair found from one end is not looked up from the other
                low = found & -found
                found ^= low
                c = low.bit_length() - 1
                other = complement[c]
                if have >> other & 1:
                    found &= ~(1 << other)
                    name = table.concepts[c if names >> c & 1 else other].name
                    if first is None or name < first:
                        first, pair = name, low | 1 << other
            if first is not None:
                return ClashReport("complement", o, first, pair)
        found = bits & atmosts
        if found:
            for c in _by_rank(bit_ids(found), table.rank):
                if exceeds(system, o, table.concepts[c]):
                    return ClashReport("number", o, render_concept(table.concepts[c]), 1 << c)
    return None


def exceeds(system: ConstraintSystem, o: Object, atmost: AtMost) -> bool:
    """Does o have more pairwise-separated successors on atmost's role than
    its count allows: a number clash, were atmost on o's label?"""
    succ = system.role_successors(o, atmost.role)
    n = atmost.count
    return len(succ) > n and _has_separated_clique(system, succ, n + 1)


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


class _Snapshots:
    """Debug: the label of each variable on which a generating rule fired,
    by index, and the latest such index (-1 for none).  Shared until a step
    changes it, so that a step copies it only when it adds or drops one."""

    __slots__ = ("labels", "latest")

    def __init__(self, labels: dict[int, int], latest: int):
        self.labels = labels
        self.latest = latest


class _Searcher:
    """The completion search.

    `_deps` maps each membership (object, concept id) the search adds to the
    mask of the choice points it depends on; `_reach` maps an object to the
    mask of its incoming links and its sibling groups (its creation, widened
    by merges).  An absent entry means 0, the mask of every input constraint.
    A membership is written only when it is new to the system its rule
    applies to, so each one in the current system carries the mask of its
    own derivation; merges widen `_reach` through a trail that a jump
    rewinds.  Nothing is recorded while no choice point is open.  Every
    system of one search shares one concept table: the rules add no
    concept outside it.
    """

    def __init__(self, guards: Guards, trace: Trace):
        self.guards = guards
        self.trace = trace
        self.stats = SearchStats()
        self._deps: dict[tuple[Object, int], int] = {}
        self._reach: dict[Object, int] = {}
        self._trail: list[tuple[Object, int]] = []
        self._table: ConceptTable | None = None
        self._bound = 0       # debug: 2^(the concept count), fixed within a search
        self._simple = 0      # debug: the bits of label concepts checked simple

    def run(self, system: ConstraintSystem) -> ConstraintSystem | None:
        clash = detect_clash(system)
        if clash is not None:
            self.trace.emit(f"clash: {clash.kind} on {object_str(clash.obj)}")
            return None
        self._table = system.concept_table()
        snapshots: _Snapshots | None = None
        if self.guards.debug_checks:
            snapshots = _Snapshots({}, -1)
            # every concept a rule adds is a subconcept of one present, and a
            # merge moves labels: no step changes the count
            self._bound = 2 ** system.metrics().concept_count
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
                    return self._completion(system, snapshots)
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
                # and their one sibling group are new, so it is exact
                c = self._table.concepts[inst.concept]
                k = c.count
                self._check_sizes(base.next_var_index + k, base.stored + k * len(c.role.names) + 1)
            nxt, added = _apply(base, inst, i)
            if self.guards.debug_checks:
                self._check_simple(added)
            if stack:
                self._record(base, inst, i, added, len(stack) - 1)
            gained = self._gained(nxt, inst, added)
            clash = self._step(nxt, added, inst, i, gained)
            if clash is not None:
                mask = self._clash_mask(nxt, clash)
                system = None
                continue
            snapshots = self._checked(base, nxt, inst, base_snapshots)
            system = nxt
            # Objects before every touched one keep no instances: their labels
            # and links are unchanged, a successor's new concept only satisfies
            # forall and exists, and blocking reads earlier variables' labels.
            if gained is None:
                from_key = None
            elif inst.rule == RULE_FORALL:
                from_key = min(inst.target, inst.successor)
            else:
                from_key = inst.target

    def _gained(self, new: ConstraintSystem, inst: RuleInstance, added) -> dict | None:
        """What one application can have brought a clash to, as `among` for
        detect_clash: in object order, each object gaining concepts with
        their bits, and the `atmost` concepts of the target when it gained
        successors; None after a merge, which may clash anywhere."""
        if inst.rule == RULE_ATMOST:
            return None
        gained: dict[Object, int] = {}
        if inst.rule in GENERATING_RULES:
            gained[inst.target] = new.label(inst.target) & self._table.kinds[ATMOST]
        for c in added:
            if type(c) is tuple:
                o, i = c
                gained[o] = gained.get(o, 0) | 1 << i
        return gained

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
            o, c = inst.target, inst.concept
            mask = deps.get((o, c), 0)
            if rule == RULE_OR:
                mask |= 1 << level
            elif rule == RULE_FORALL:
                mask |= self._reach.get(inst.successor, 0)
            elif rule == RULE_ATMOST:
                mask |= 1 << level | self._successors_mask(base, o, self._table.concepts[c].role)
                self._merge(base, o, *inst.choices[i], mask)
                return
        if rule == RULE_AND:
            # the one rule that can add a membership the system already holds
            have = base.label(inst.target)
            for m in added:
                if not have >> m[1] & 1:
                    deps[m] = mask
            return
        for c in added:
            if type(c) is tuple:
                deps[c] = mask
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
        for c in bit_ids(base.label(y) & ~base.label(t)):
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
        mask = 0
        for c in bit_ids(clash.bits):
            mask |= deps.get((o, c), 0)
        if clash.kind == "number":
            mask |= self._successors_mask(system, o, self._table.concepts[c].role)
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

    def _completion(self, system: ConstraintSystem, snapshots) -> ConstraintSystem:
        if snapshots is not None:
            self._audit(system, snapshots)
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

    def _step(self, new, added, inst, i, gained) -> ClashReport | None:
        """Guard checks, the clash check on what the step touched, and the
        trace line for one application; returns the clash, if any."""
        self._check_sizes(new.next_var_index, new.stored)
        clash = detect_clash(new, gained)
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
                    self._added_str(added))))
            if clash is not None:
                parts.append(f"| clash: {clash.kind}")
            self.trace.emit(" ".join(parts))
        return clash

    def _added_str(self, added) -> Iterator[str]:
        concepts = self._table.concepts
        for c in added:
            if type(c) is tuple:
                yield f"{object_str(c[0])} : {render_concept(concepts[c[1]])}"
            elif isinstance(c, Siblings):
                yield from map(constraint_str, c.pairs())
            else:
                yield constraint_str(c)

    def _check_simple(self, added) -> None:
        """Debug: each new label concept, once per search, is simple."""
        for c in added:
            if type(c) is tuple and not self._simple >> c[1] & 1:
                concept = self._table.concepts[c[1]]
                if not is_simple(concept):
                    raise InvariantViolation(
                        f"{object_str(c[0])} : {render_concept(concept)}: not simple")
                self._simple |= 1 << c[1]

    def _checked(self, old, new, inst, snapshots):
        """Debug-mode invariants, run after each application on what it
        touched (every object after a merge): the constraint set grew (a
        merge drops one object and keeps every label), no rule fired on a
        variable before the latest one a generating rule fired on, such a
        variable's label never changes, and at most 2^|concepts| variables
        are unblocked."""
        if snapshots is None:
            return None
        labels = snapshots.labels
        if inst.rule == RULE_ATMOST:
            kept = new.objects()
            if len(kept) != len(old.objects()) - 1:
                raise InvariantViolation("atmost did not merge one object away")
            gone = set(old.objects()).difference(kept)
            for o in kept:
                if old.label(o) & ~new.label(o):
                    raise InvariantViolation(f"atmost dropped a concept of {object_str(o)}")
            (y,) = gone
            if y.index in labels:
                labels = {i: bits for i, bits in labels.items() if i != y.index}
                snapshots = _Snapshots(labels, max(labels, default=-1))
            touched = [Var(i) for i in labels]
        else:
            touched = _touched(old, new, inst)
            if not _grew(old, new, touched):
                raise InvariantViolation(f"{inst.rule} did not grow the constraint set")
        if isinstance(inst.target, Var) and inst.target.index < snapshots.latest:
            raise InvariantViolation(
                f"rule applied to {object_str(inst.target)} after a generating rule "
                f"fired on a later variable"
            )
        for o in touched:
            if isinstance(o, Var) and o.index in labels and new.label(o) != labels[o.index]:
                raise InvariantViolation(f"label set of _v{o.index} changed after generation")
        if inst.rule in GENERATING_RULES and isinstance(inst.target, Var):
            index = inst.target.index
            snapshots = _Snapshots({**labels, index: new.label(inst.target)},
                                   max(snapshots.latest, index))
        if new.next_var_index > self._bound:
            self._check_unblocked(new)
        return snapshots

    def _check_unblocked(self, system: ConstraintSystem) -> None:
        """Debug: a variable is unblocked iff no earlier one has its label,
        and there are at most 2^|concepts| labels."""
        unblocked = len({system.label(v) for v in system.variables()})
        if unblocked > self._bound:
            raise InvariantViolation(
                f"{unblocked} unblocked variables exceeds {self._bound}"
            )

    def _audit(self, system: ConstraintSystem, snapshots: _Snapshots) -> None:
        """Debug: the step checks once more over the whole completion."""
        for index, bits in snapshots.labels.items():
            if system.label(Var(index)) != bits:
                raise InvariantViolation(f"label set of _v{index} changed after generation")
        self._check_unblocked(system)


def _touched(old: ConstraintSystem, new: ConstraintSystem, inst: RuleInstance) -> list[Object]:
    """The objects a step other than a merge can change: its target, a
    forall's successor and the fresh variables."""
    touched = [inst.target]
    if inst.successor is not None:
        touched.append(inst.successor)
    touched += map(Var, range(old.next_var_index, new.next_var_index))
    return touched


def _grew(old: ConstraintSystem, new: ConstraintSystem, touched) -> bool:
    """new.constraints > old.constraints, tested where the step can have
    changed the indexes: a larger size, the same globals, and every label,
    group and link target of a touched object of old still there."""
    if new.size <= old.size or new.global_concepts() != old.global_concepts():
        return False
    for o in touched:
        if old.label(o) & ~new.label(o) or not old.groups_of(o) <= new.groups_of(o):
            return False
        links = new.link_targets(o)
        for p, was in old.link_targets(o).items():
            if not was <= links.get(p, frozenset()):
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
