"""The paper's example KBs and the KB ladders, shared by the test suite and
the identity harness (`tools/identity.py`); nothing here needs pytest."""

from __future__ import annotations

from alcnr import parse_kb

# The university KB: teaching implies being a degree-holding student or a
# professor; professors hold an MS, an MS implies a BS, MS and BS are
# disjoint; john teaches cs156 and holds at most one degree.
EX21_TEXT = """\
(implies (some TEACHES Course) (or (and Student (some DEGREE BS)) Prof))
(implies Prof (some DEGREE MS))
(implies (some DEGREE MS) (some DEGREE BS))
(implies (and MS BS) BOTTOM)
(related john cs156 TEACHES)
(instance john (atmost 1 DEGREE))
(instance cs156 Course)
"""

# The cyclic KB: every Italian has an Italian friend; peter's friends are
# all non-Italian; susan has an Italian friend; peter knows susan.
EX33_TEXT = """\
(implies Italian (some FRIEND Italian))
(related peter susan FRIEND)
(instance peter (all FRIEND (not Italian)))
(instance susan (some FRIEND Italian))
"""

UNA_CLASH_TEXT = """\
(instance a (atmost 1 R))
(related a b R)
(related a c R)
"""


def teachers_kb(n: int):
    """The university TBox with n independent teachers: t_i teaches the
    course c_i and holds at most one degree."""
    tbox = "".join(EX21_TEXT.splitlines(keepends=True)[:4])
    return parse_kb(tbox + "".join(
        f"(related t{i} c{i} TEACHES) (instance t{i} (atmost 1 DEGREE))"
        f" (instance c{i} Course)\n" for i in range(n)
    ))


def clique_probe(k: int):
    """Two disjoint sibling groups of k under one `atmost k`: SAT after k
    merges, and each clash check asks for k+1 pairwise-separated objects
    among 2k."""
    return parse_kb(
        f"(instance a (and (atmost {k} R) (atleast {k} (and R S)) (atleast {k} (and R T))))"
    )
