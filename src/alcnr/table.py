"""The concept table of a constraint system: each concept its labels and
globals can hold, under a small integer id.

A label is then an int whose bit i is set when it holds concept i, so a
union is one `|`, a membership test one shift, and blocking's label-set map
is keyed by ints.  Ids are given in arrival order and never change: a table
that grows is copied and extended, so every label written against the old
table still reads the same in the new one.

A table starts open, holding only the concepts a system was built from
(`translate_kb` pays for no more).  The search needs it closed: every
subconcept of its concepts has an id, and each id is described by what the
rules and the clash test read (its kind, the ids of its parts, the id of
its complement) and by its rank, its position in `concept_key` order.
Iterating ids by rank is key order, and `order` lists the ids so.  Every
closed table, closed or grown, is finished by one step that ranks its ids
by flat keys, each concept's key written out in prefix order, which
compare in time linear in depth where nested key tuples take quadratic
time.  A closed table's ids are already in order, so growth sorts only the
new ids and merges them in by binary search: it builds flat keys for the
new ids and the O(log n) old ones the search compares, not for every id
(copying the arrays and reading `rank` off the order stay linear, in C
and in one pass).

A table is never changed once a system holds it, so systems share it freely
(across threads too); the search, each step of which derives a system from
the last, adds no concept and so keeps one table.
"""

from __future__ import annotations

from bisect import bisect_left

from .syntax import Concept

# A concept's kind is the tag of its key.
NAME, TOP, BOTTOM, NOT, AND, OR, ALL, SOME, ATLEAST, ATMOST = range(10)


def bit_ids(bits: int) -> list[int]:
    """The ids of the set bits, lowest first."""
    if not bits & (bits - 1):  # at most one
        return [bits.bit_length() - 1] if bits else []
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


class ConceptTable:
    """Concepts under ids; see the module docstring.  Per id, a closed table
    holds `left` (the first part: an `and`/`or`'s left, a `not`, `all` or
    `some`'s concept) and `right` (an `and`/`or`'s right), -1 when absent,
    and `parts`, their bits (a restriction's role and count are read off
    its concept); `complement`, the id of `(not A)` for a name A and of A
    for `(not A)`, or -1; `rank`; and `order`, the ids by rank.  `kinds[k]`
    has the bits of every id of kind k; `paired`, those of every id with a
    complement; `bottom` is BOTTOM's bit, or 0."""

    __slots__ = (
        "concepts", "ids", "closed", "left", "right", "parts", "complement",
        "rank", "order", "kinds", "paired", "bottom",
    )

    def __init__(self, concepts=()):
        """An open table of the given concepts."""
        self.concepts: list[Concept] = []
        self.ids: dict[Concept, int] = {}
        self.closed = False
        for c in concepts:
            self.intern(c)

    def intern(self, c: Concept) -> int:
        """c's id, given one if it is new: only for a table no system holds
        yet."""
        i = self.ids.get(c)
        if i is None:
            i = self.ids[c] = len(self.concepts)
            self.concepts.append(c)
        return i

    def decode(self, bits: int) -> list[Concept]:
        concepts = self.concepts
        return [concepts[i] for i in bit_ids(bits)]

    def closure_count(self, bits: int) -> int:
        """How many concepts are in the concepts of bits or inside them."""
        seen = frontier = bits
        while frontier:
            below = 0
            for i in bit_ids(frontier):
                below |= self.parts[i]
            frontier = below & ~seen
            seen |= below
        return seen.bit_count()

    def disjuncts(self, g: int) -> tuple[int, tuple[frozenset[str], ...]]:
        """Of concept g, its `or`s flattened: the names A of its `(not A)`
        disjuncts as bits, and the role names of each `all` and `atmost`
        disjunct."""
        names, roles, todo = 0, [], [g]
        kinds = self.kinds
        while todo:
            c = todo.pop()
            if kinds[OR] >> c & 1:
                todo += (self.left[c], self.right[c])
            elif kinds[NOT] >> c & 1:
                names |= self.parts[c]
            elif (kinds[ALL] | kinds[ATMOST]) >> c & 1:
                roles.append(frozenset(self.concepts[c].role.names))
        return names, tuple(roles)

    # -- new tables -----------------------------------------------------------

    def _copy(self, closed: bool) -> "ConceptTable":
        """A copy to build on, in lists, closed if `closed`."""
        t = object.__new__(ConceptTable)
        t.concepts, t.ids, t.closed = list(self.concepts), dict(self.ids), closed
        n = len(self.concepts)
        if self.closed:
            t.left, t.right = list(self.left), list(self.right)
            t.parts, t.complement = list(self.parts), list(self.complement)
            t.kinds, t.paired, t.bottom = list(self.kinds), self.paired, self.bottom
        elif closed:
            t.left, t.right, t.parts, t.complement = [-1] * n, [-1] * n, [0] * n, [-1] * n
            t.kinds, t.paired, t.bottom = [0] * 10, 0, 0
        return t

    def grown(self, concepts) -> "ConceptTable":
        """A new table: this one plus the given concepts, a whole batch in
        one copy, closed under subconcepts if this one is closed, its new
        ids merged into this one's order."""
        return self._copy(self.closed)._finished(concepts, self.order if self.closed else ())

    def closed_copy(self) -> "ConceptTable":
        """A closed table with this one's ids, and new ids for the
        subconcepts it lacks."""
        return self._copy(True)._finished(self.concepts)

    def _finished(self, concepts, ranked: tuple = ()) -> "ConceptTable":
        """This copy, being built, with the given concepts; a closed one goes
        through the step that finishes every closed table.  The ids after
        `ranked`, the ids in order before it, are sorted by flat keys and
        merged into it by binary search; the flat keys are built only for
        the ids sorted and compared, and dropped.  `rank` is then read off
        the order in one pass, and the arrays are frozen as tuples:
        smaller, read-only, and, but for `concepts`, of ints only, which the
        garbage collector stops tracking."""
        if not self.closed:
            for c in concepts:
                self.intern(c)
            return self
        for c in concepts:
            self._id(c)
        n = len(self.concepts)
        flat = [None] * n

        def key(i):
            return flat[i] or _flat_key(self, i, flat)

        order, lo = [], 0
        for i in sorted(range(len(ranked), n), key=key):
            at = bisect_left(ranked, flat[i], lo, key=key)
            order += ranked[lo:at]
            order.append(i)
            lo = at
        order += ranked[lo:]
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        self.order, self.rank = tuple(order), tuple(rank)
        self.concepts, self.left, self.right = map(tuple, (self.concepts, self.left, self.right))
        self.parts, self.complement, self.kinds = map(tuple, (self.parts, self.complement, self.kinds))
        return self

    def _id(self, c: Concept) -> int:
        """c's id in a closed table being built, c and its parts described."""
        key = c._key
        tag = key[0]
        i = self.ids.get(c)
        if i is not None and self.kinds[tag] >> i & 1:  # described
            return i
        left = right = -1
        parts = 0
        if tag == AND or tag == OR:
            left, right = self._id(c.left), self._id(c.right)
            parts = 1 << left | 1 << right
        elif tag == NOT or tag == ALL or tag == SOME:
            left = self._id(c.concept)
            parts = 1 << left
        if i is None:
            i = self.intern(c)
            self.left.append(left)
            self.right.append(right)
            self.parts.append(parts)
            self.complement.append(-1)
        else:
            self.left[i], self.right[i], self.parts[i] = left, right, parts
        self.kinds[tag] |= 1 << i
        if tag == BOTTOM:
            self.bottom = 1 << i
        elif tag == NOT and self.kinds[NAME] >> left & 1:
            self.complement[i], self.complement[left] = left, i
            self.paired |= 1 << i | 1 << left
        return i


def _flat_key(table: ConceptTable, i: int, flat: list) -> tuple:
    """Concept i's flat key, its key written out in prefix order, kept in
    `flat` with those of its parts (a module function: no closure refers to
    itself).  A name, TOP, BOTTOM or number restriction's key is flat."""
    key = f = table.concepts[i]._key
    left, right = table.left[i], table.right[i]
    if left >= 0:
        f = key[:2] if key[0] == ALL or key[0] == SOME else key[:1]
        f += flat[left] or _flat_key(table, left, flat)
        if right >= 0:
            f += flat[right] or _flat_key(table, right, flat)
    flat[i] = f
    return f
