"""Finite interpretations, concept evaluation, model checking, and a bounded
brute-force model-search oracle.

The oracle exists to cross-check the tableau engine: it exhaustively searches
all interpretations up to a domain bound (individuals pinned to fixed,
pairwise-distinct elements per the unique name assumption; anonymous elements
added one at a time), pruning with a sound three-valued interval evaluation
over bitmask extensions.  A returned interpretation always satisfies
:func:`is_model`; NOT_FOUND means the search was exhaustive up to the bound.
It is one-directional evidence only: NOT_FOUND at bound k refutes models of
size <= k, nothing larger.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .syntax import (
    All, And, AtLeast, AtMost, Bottom, Concept, ConceptAssertion, KnowledgeBase,
    Name, Not, Or, Role, RoleAssertion, Some, Top,
)


@dataclass(frozen=True)
class Interpretation:
    """A finite interpretation: domain, name extensions, individual mapping.

    Names absent from the extension maps evaluate to the empty set / empty
    relation, so evaluation is total.  The individual map must be injective
    (unique name assumption) and the domain nonempty.  An interpretation is
    immutable: its maps are read-only views of copies made at construction,
    so one can be shared, as the services share a KB's verified model.
    """

    domain: frozenset[str]
    concepts: Mapping[str, frozenset[str]]
    roles: Mapping[str, frozenset[tuple[str, str]]]
    individuals: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        domain = frozenset(self.domain)
        concepts = {a: frozenset(ext) for a, ext in self.concepts.items()}
        roles = {p: frozenset(ext) for p, ext in self.roles.items()}
        individuals = dict(self.individuals)
        if not domain:
            raise ValueError("the domain of an interpretation must be nonempty")
        for a, ext in concepts.items():
            if not ext <= domain:
                raise ValueError(f"extension of {a} leaves the domain")
        for p, ext in roles.items():
            for s, t in ext:
                if s not in domain or t not in domain:
                    raise ValueError(f"extension of {p} leaves the domain")
        seen: dict[str, str] = {}
        for ind, elem in individuals.items():
            if elem not in domain:
                raise ValueError(f"individual {ind} mapped outside the domain")
            if elem in seen:
                raise ValueError(
                    f"individuals {seen[elem]} and {ind} share element {elem}"
                )
            seen[elem] = ind
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "concepts", MappingProxyType(concepts))
        object.__setattr__(self, "roles", MappingProxyType(roles))
        object.__setattr__(self, "individuals", MappingProxyType(individuals))

    def __reduce__(self):
        # a read-only view cannot be pickled or copied, so copy the dicts
        return Interpretation, (self.domain, dict(self.concepts), dict(self.roles),
                                dict(self.individuals))


@dataclass
class Assignment:
    """Maps objects (variables and individuals) to domain elements."""

    mapping: dict

    def of(self, obj):
        return self.mapping[obj]


def role_pairs(interp: Interpretation, r: Role) -> frozenset[tuple[str, str]]:
    """Extension of a role conjunction: intersection of its name extensions."""
    pairs = interp.roles.get(r.names[0], frozenset())
    for name in r.names[1:]:
        pairs = pairs & interp.roles.get(name, frozenset())
    return pairs


class Extensions:
    """The extensions of concepts in one interpretation, each computed once.

    Calling it evaluates a concept; it memoizes concept -> extension and
    role -> successor map, so a check that evaluates many memberships in
    one interpretation (satisfies_system, is_model) builds each extension
    and each role's successor map once."""

    __slots__ = ("interp", "_concepts", "_successors")

    def __init__(self, interp: Interpretation):
        self.interp = interp
        self._concepts: dict[Concept, frozenset[str]] = {}
        self._successors: dict[Role, dict[str, set[str]]] = {}

    def __call__(self, c: Concept) -> frozenset[str]:
        found = self._concepts.get(c)
        if found is None:
            found = self._concepts[c] = self._evaluate(c)
        return found

    def successors(self, r: Role) -> dict[str, set[str]]:
        """Element -> its r-successors, for every element of the domain."""
        succ = self._successors.get(r)
        if succ is None:
            succ = self._successors[r] = {d: set() for d in self.interp.domain}
            for s, t in role_pairs(self.interp, r):
                succ[s].add(t)
        return succ

    def _evaluate(self, c: Concept) -> frozenset[str]:
        interp = self.interp
        if isinstance(c, Name):
            return interp.concepts.get(c.name, frozenset())
        if isinstance(c, Top):
            return interp.domain
        if isinstance(c, Bottom):
            return frozenset()
        if isinstance(c, And):
            return self(c.left) & self(c.right)
        if isinstance(c, Or):
            return self(c.left) | self(c.right)
        if isinstance(c, Not):
            return interp.domain - self(c.concept)
        if isinstance(c, (All, Some, AtLeast, AtMost)):
            succ = self.successors(c.role)
            if isinstance(c, All):
                inner = self(c.concept)
                return frozenset(d for d in interp.domain if succ[d] <= inner)
            if isinstance(c, Some):
                inner = self(c.concept)
                return frozenset(d for d in interp.domain if succ[d] & inner)
            if isinstance(c, AtLeast):
                return frozenset(d for d in interp.domain if len(succ[d]) >= c.count)
            return frozenset(d for d in interp.domain if len(succ[d]) <= c.count)
        raise TypeError(f"not a concept: {c!r}")


def eval_concept(interp: Interpretation, c: Concept) -> frozenset[str]:
    """The extension of c in interp.  To evaluate many concepts in one
    interpretation, share one Extensions instead."""
    return Extensions(interp)(c)


class _Holds:
    """Whether elements of one interpretation belong to concepts, evaluated
    element by element: calling it with (c, d) memoizes (concept, element)
    -> bool, and each role's successor map is built once, from its pairs."""

    __slots__ = ("interp", "_holds", "_successors")

    def __init__(self, interp: Interpretation):
        self.interp = interp
        self._holds: dict[tuple[Concept, str], bool] = {}
        self._successors: dict[Role, dict[str, set[str]]] = {}

    def __call__(self, c: Concept, d: str) -> bool:
        found = self._holds.get((c, d))
        if found is None:
            found = self._holds[c, d] = self._evaluate(c, d)
        return found

    def successors(self, r: Role, d: str) -> set[str] | tuple[()]:
        succ = self._successors.get(r)
        if succ is None:
            succ = self._successors[r] = {}
            for s, t in role_pairs(self.interp, r):
                succ.setdefault(s, set()).add(t)
        return succ.get(d, ())

    def _evaluate(self, c: Concept, d: str) -> bool:
        if isinstance(c, Name):
            return d in self.interp.concepts.get(c.name, ())
        if isinstance(c, Top):
            return True
        if isinstance(c, Bottom):
            return False
        if isinstance(c, And):
            return self(c.left, d) and self(c.right, d)
        if isinstance(c, Or):
            return self(c.left, d) or self(c.right, d)
        if isinstance(c, Not):
            return not self(c.concept, d)
        if isinstance(c, All):
            return all(self(c.concept, t) for t in self.successors(c.role, d))
        if isinstance(c, Some):
            return any(self(c.concept, t) for t in self.successors(c.role, d))
        if isinstance(c, AtLeast):
            return len(self.successors(c.role, d)) >= c.count
        if isinstance(c, AtMost):
            return len(self.successors(c.role, d)) <= c.count
        raise TypeError(f"not a concept: {c!r}")


def holds_at(interp: Interpretation, c: Concept, element: str) -> bool:
    """Is element, an element of interp's domain, in the extension of c?
    Equals `element in eval_concept(interp, c)`, but evaluates c only at
    element and at the elements its role restrictions reach, so its cost
    follows what c reaches from element rather than the size of the
    domain."""
    return _Holds(interp)(c, element)


def is_model(interp: Interpretation, kb: KnowledgeBase) -> bool:
    """True iff every inclusion and every assertion of kb holds in interp;
    the check shares one Extensions."""
    for ind in sorted(kb.individuals()):
        if ind not in interp.individuals:
            raise ValueError(f"no element assigned to individual {ind}")
    ext = Extensions(interp)
    for inc in kb.tbox:
        if not ext(inc.lhs) <= ext(inc.rhs):
            return False
    for a in kb.abox:
        if isinstance(a, ConceptAssertion):
            if interp.individuals[a.individual] not in ext(a.concept):
                return False
        else:
            succ = ext.successors(a.role)[interp.individuals[a.subject]]
            if interp.individuals[a.target] not in succ:
                return False
    return True


# ---------------------------------------------------------------------------
# Model text format
# ---------------------------------------------------------------------------

def render_interpretation(interp: Interpretation) -> str:
    lines = ["domain: " + " ".join(sorted(interp.domain))]
    for ind in sorted(interp.individuals):
        lines.append(f"individual {ind} = {interp.individuals[ind]}")
    for a in sorted(interp.concepts):
        lines.append(f"concept {a} = {{{','.join(sorted(interp.concepts[a]))}}}")
    for p in sorted(interp.roles):
        pairs = ",".join(f"({s},{t})" for s, t in sorted(interp.roles[p]))
        lines.append(f"role {p} = {{{pairs}}}")
    return "\n".join(lines) + "\n"


def parse_interpretation(text: str) -> Interpretation:
    domain: frozenset[str] | None = None
    concepts: dict[str, frozenset[str]] = {}
    roles: dict[str, frozenset[tuple[str, str]]] = {}
    individuals: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("domain:"):
            domain = frozenset(line[len("domain:"):].split())
        elif line.startswith("individual "):
            lhs, _, rhs = line[len("individual "):].partition("=")
            individuals[lhs.strip()] = rhs.strip()
        elif line.startswith("concept ") or line.startswith("role "):
            kind, rest = line.split(" ", 1)
            name, _, body = rest.partition("=")
            name = name.strip()
            body = body.strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise ValueError(f"line {lineno}: malformed extension {body!r}")
            body = body[1:-1]
            if kind == "concept":
                concepts[name] = frozenset(x for x in body.split(",") if x)
            else:
                pairs = set()
                if body:
                    for chunk in body.split("),"):
                        chunk = chunk.strip().lstrip("(").rstrip(")")
                        s, _, t = chunk.partition(",")
                        pairs.add((s.strip(), t.strip()))
                roles[name] = frozenset(pairs)
        else:
            raise ValueError(f"line {lineno}: unrecognized model line {line!r}")
    if domain is None:
        raise ValueError("model text has no domain line")
    return Interpretation(domain, concepts, roles, individuals)


# ---------------------------------------------------------------------------
# Bounded model search
# ---------------------------------------------------------------------------

class OracleOutcome(enum.Enum):
    NOT_FOUND = "not-found"
    BUDGET_EXCEEDED = "budget-exceeded"


NOT_FOUND = OracleOutcome.NOT_FOUND
BUDGET_EXCEEDED = OracleOutcome.BUDGET_EXCEEDED


class _BudgetHit(Exception):
    pass


class _SizeSearch:
    """Exhaustive search over all interpretations on a fixed domain.

    Extensions are bitmasks: concept extensions over k elements, role
    extensions over k*k ordered pairs (row-major).  Each undetermined bit is
    a branch point; interval evaluation prunes branches whose partial
    assignment already violates a constraint, and accepts early when every
    constraint is definitely satisfied (remaining bits then default to 0).
    """

    def __init__(self, kb: KnowledgeBase, elems: list[str],
                 cnames: list[str], rnames: list[str], budget: list[int]):
        self.kb = kb
        self.elems = elems
        self.k = len(elems)
        self.index = {e: i for i, e in enumerate(elems)}
        self.all = (1 << self.k) - 1
        self.all_pairs = (1 << (self.k * self.k)) - 1
        self.cnames = cnames
        self.rnames = rnames
        self.budget = budget
        self.clo = {a: 0 for a in cnames}
        self.chi = {a: self.all for a in cnames}
        self.rlo = {p: 0 for p in rnames}
        self.rhi = {p: self.all_pairs for p in rnames}
        self.atoms: list[tuple[str, str, int]] = []
        for a in cnames:
            for i in range(self.k):
                self.atoms.append(("c", a, 1 << i))
        for p in rnames:
            for b in range(self.k * self.k):
                self.atoms.append(("r", p, 1 << b))

    def preassign(self) -> bool:
        """Pin down the atoms forced by name-level ABox assertions."""
        for a in sorted(self.kb.abox, key=repr):
            if isinstance(a, RoleAssertion):
                bit = 1 << (self.index[a.subject] * self.k + self.index[a.target])
                for p in a.role.names:
                    self.rlo[p] |= bit
            elif isinstance(a.concept, Name):
                self.clo[a.concept.name] |= 1 << self.index[a.individual]
            elif isinstance(a.concept, Not) and isinstance(a.concept.concept, Name):
                self.chi[a.concept.concept.name] &= ~(1 << self.index[a.individual])
        for a in self.cnames:
            if self.clo[a] & ~self.chi[a]:
                return False
        return True

    def _succ_masks(self, r: Role) -> tuple[list[int], list[int]]:
        lo = self.all_pairs
        hi = self.all_pairs
        for p in r.names:
            lo &= self.rlo[p]
            hi &= self.rhi[p]
        k, row = self.k, (1 << self.k) - 1
        lo_rows = [(lo >> (d * k)) & row for d in range(k)]
        hi_rows = [(hi >> (d * k)) & row for d in range(k)]
        return lo_rows, hi_rows

    def interval(self, c: Concept) -> tuple[int, int]:
        """(lower, upper) element masks bracketing c's extension in every
        completion of the current partial assignment."""
        if isinstance(c, Name):
            return self.clo.get(c.name, 0), self.chi.get(c.name, 0)
        if isinstance(c, Top):
            return self.all, self.all
        if isinstance(c, Bottom):
            return 0, 0
        if isinstance(c, And):
            l1, h1 = self.interval(c.left)
            l2, h2 = self.interval(c.right)
            return l1 & l2, h1 & h2
        if isinstance(c, Or):
            l1, h1 = self.interval(c.left)
            l2, h2 = self.interval(c.right)
            return l1 | l2, h1 | h2
        if isinstance(c, Not):
            l, h = self.interval(c.concept)
            return self.all & ~h, self.all & ~l
        lo_rows, hi_rows = self._succ_masks(c.role)
        lo = hi = 0
        if isinstance(c, All):
            il, ih = self.interval(c.concept)
            for d in range(self.k):
                if hi_rows[d] & ~il == 0:
                    lo |= 1 << d
                if lo_rows[d] & ~ih == 0:
                    hi |= 1 << d
            return lo, hi
        if isinstance(c, Some):
            il, ih = self.interval(c.concept)
            for d in range(self.k):
                if lo_rows[d] & il:
                    lo |= 1 << d
                if hi_rows[d] & ih:
                    hi |= 1 << d
            return lo, hi
        if isinstance(c, AtLeast):
            for d in range(self.k):
                if lo_rows[d].bit_count() >= c.count:
                    lo |= 1 << d
                if hi_rows[d].bit_count() >= c.count:
                    hi |= 1 << d
            return lo, hi
        if isinstance(c, AtMost):
            for d in range(self.k):
                if hi_rows[d].bit_count() <= c.count:
                    lo |= 1 << d
                if lo_rows[d].bit_count() <= c.count:
                    hi |= 1 << d
            return lo, hi
        raise TypeError(f"not a concept: {c!r}")

    def check(self) -> int:
        """-1 some constraint is definitely violated, +1 all definitely hold,
        0 undecided."""
        decided = 1
        for inc in self.kb.tbox:
            llo, lhi = self.interval(inc.lhs)
            rlo, rhi = self.interval(inc.rhs)
            if llo & ~rhi:
                return -1
            if lhi & ~rlo:
                decided = 0
        for a in self.kb.abox:
            if isinstance(a, ConceptAssertion):
                bit = 1 << self.index[a.individual]
                lo, hi = self.interval(a.concept)
                if not hi & bit:
                    return -1
                if not lo & bit:
                    decided = 0
            # role assertions were preassigned, hence always satisfied
        return decided

    def search(self) -> Interpretation | None:
        status = self.check()
        if status < 0:
            return None
        if status > 0:
            return self.materialize()
        atom = self._next_atom()
        if atom is None:
            # fully assigned means every interval is exact, so check() decided
            raise AssertionError("undecided constraints on a total assignment")
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise _BudgetHit
        kind, name, bit = atom
        lo = self.clo if kind == "c" else self.rlo
        hi = self.chi if kind == "c" else self.rhi
        saved = hi[name]
        hi[name] = saved & ~bit  # try the atom false first
        found = self.search()
        hi[name] = saved
        if found is not None:
            return found
        saved = lo[name]
        lo[name] = saved | bit
        found = self.search()
        lo[name] = saved
        return found

    def _next_atom(self):
        for kind, name, bit in self.atoms:
            if kind == "c":
                if self.chi[name] & bit and not self.clo[name] & bit:
                    return (kind, name, bit)
            else:
                if self.rhi[name] & bit and not self.rlo[name] & bit:
                    return (kind, name, bit)
        return None

    def materialize(self) -> Interpretation:
        concepts = {
            a: frozenset(e for e, i in self.index.items() if self.clo[a] >> i & 1)
            for a in self.cnames
        }
        roles = {}
        for p in self.rnames:
            pairs = set()
            mask = self.rlo[p]
            for s in range(self.k):
                for t in range(self.k):
                    if mask >> (s * self.k + t) & 1:
                        pairs.add((self.elems[s], self.elems[t]))
            roles[p] = frozenset(pairs)
        individuals = {a: a for a in self.kb.individuals()}
        return Interpretation(frozenset(self.elems), concepts, roles, individuals)


def find_model_bounded(
    kb: KnowledgeBase, max_domain: int, budget: int = 100_000
) -> Interpretation | OracleOutcome:
    """Search for a model of kb with at most max_domain elements.

    Returns an Interpretation (always a model), NOT_FOUND (exhaustive up to
    the bound) or BUDGET_EXCEEDED (the node budget ran out, nothing is
    claimed).  Individuals occupy fixed distinct elements; smaller domains
    are tried before larger ones.
    """
    inds = sorted(kb.individuals())
    if max_domain < 1 or max_domain < len(inds):
        raise ValueError("max_domain must cover the KB's individuals and be >= 1")
    cnames = sorted(kb.concept_names())
    rnames = sorted(kb.role_names())
    remaining = [budget]
    for k in range(max(1, len(inds)), max_domain + 1):
        elems = inds + [f"_e{i}" for i in range(k - len(inds))]
        sizer = _SizeSearch(kb, elems, cnames, rnames, remaining)
        if not sizer.preassign():
            continue
        try:
            found = sizer.search()
        except _BudgetHit:
            return BUDGET_EXCEEDED
        if found is not None:
            return found
    return NOT_FOUND
