"""The benchmark's three workloads: KB texts, queries and expected answers.

Every input is exchange-format text built from the seed alone.  Nothing here
imports the engine, so the engine version under test can never choose or
screen its own inputs; `digest()` fingerprints the rendered inputs so runs on
different inputs are never compared.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

# Guards of the randomized test suite's screening envelope.
SUITE_GUARDS = {"max_variables": 60, "max_constraints": 4000, "max_branches": 1500}


@dataclass(frozen=True)
class Query:
    """One question.  `kind` is kb-sat, concept-sat, subsumes, instance,
    instances, or cli; `args` holds concept texts and individual names (for
    cli: the argument list without the KB path).  `expected` is the
    hand-derived answer ("sat"/"unsat", True/False, a frozenset for
    instances, "transformed" for a CLI transform), or None when the answer
    is cross-checked against the bounded oracle instead."""

    family: str
    kind: str
    kb: str
    args: tuple = ()
    expected: object = None


@dataclass
class Workload:
    name: str
    kb_texts: dict[str, str]
    passes: list[list[Query]]
    guards: dict | None = None

    def queries(self) -> list[Query]:
        return [q for p in self.passes for q in p]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.guards).encode())
        for key, text in self.kb_texts.items():
            h.update(f"kb {key}\n{text}\n".encode())
        for q in self.queries():
            expected = sorted(q.expected) if isinstance(q.expected, frozenset) \
                else q.expected
            h.update(f"q {q.kind} {q.kb} {q.args!r} {expected!r}\n".encode())
        return h.hexdigest()[:16]


def cli_share(satisfiable_kb: str, kb_with_tbox: str) -> list[Query]:
    """The command-line share of a pass of abox-scale or tbox-branching: a
    check-sat and a transform, so the CLI and encodings layers are timed in
    every workload."""
    return [Query("cli", "cli", satisfiable_kb, ("check-sat", "-"), "sat"),
            Query("cli", "cli", kb_with_tbox, ("transform", "-"), "transformed")]


# ---------------------------------------------------------------------------
# abox-scale: the university TBox plus n independent teachers
# ---------------------------------------------------------------------------

UNIVERSITY_TBOX = """\
(implies (some TEACHES Course) (or (and Student (some DEGREE BS)) Prof))
(implies Prof (some DEGREE MS))
(implies (some DEGREE MS) (some DEGREE BS))
(implies (and MS BS) BOTTOM)
"""

TEACHER_LADDER = (10, 20, 25, 30, 40)
# How many seed-chosen teachers are asked whether they are a Prof, by n.  The
# tail rank (the 11th slowest query) falls among the ~0.45 s queries, where
# prof/n20 sits next to atleast/300 and kb-sat/n20; three prof/n20 checks
# put it in the middle of that group instead of at its edge.
PROF_CHECKS = {20: 3}
# Past the seed engine's recursion limit: UNKNOWN (recursion-depth) today,
# though the KB is satisfiable.
TEACHERS_PAST_LIMIT = 75
ATLEAST_LADDER = (5, 50, 100, 150, 200, 225, 250, 275, 300)
# Two R-successors that at most one R-filler forces to merge: satisfiable.
ATMOST_MERGE = """\
(instance a (some R A))
(instance a (some R B))
(instance a (atmost 1 R))
"""


def teachers_kb(n: int) -> str:
    lines = [UNIVERSITY_TBOX]
    for i in range(n):
        lines.append(f"(related t{i} c{i} TEACHES)\n"
                     f"(instance t{i} (atmost 1 DEGREE))\n"
                     f"(instance c{i} Course)\n")
    return "".join(lines)


def abox_scale(seed: int, passes: int) -> Workload:
    """Each teacher can be a Student with a BS degree, so every KB is
    satisfiable, no teacher is provably a Prof, and every c_i is a Course."""
    rng = random.Random(seed)
    texts: dict[str, str] = {}
    for n in TEACHER_LADDER + (TEACHERS_PAST_LIMIT,):
        texts[f"teachers{n}"] = teachers_kb(n)
    for k in ATLEAST_LADDER:
        texts[f"atleast{k}"] = f"(instance a (atleast {k} R))\n"
    texts["atmost-merge"] = ATMOST_MERGE
    runs = []
    for _ in range(passes):
        qs: list[Query] = []
        for n in TEACHER_LADDER:
            kb = f"teachers{n}"
            qs.append(Query(f"kb-sat/n{n}", "kb-sat", kb, (), "sat"))
            qs.extend(Query(f"course/n{n}", "instance", kb, (f"c{i}", "Course"), True)
                      for i in range(n))
            for j in rng.sample(range(n), PROF_CHECKS.get(n, 1)):
                qs.append(Query(f"prof/n{n}", "instance", kb, (f"t{j}", "Prof"), False))
        qs.append(Query("instances/n10", "instances", "teachers10", ("Course",),
                        frozenset(f"c{i}" for i in range(10))))
        for k in ATLEAST_LADDER:
            qs.append(Query(f"atleast/{k}", "kb-sat", f"atleast{k}", (), "sat"))
        qs.append(Query("atmost-merge", "kb-sat", "atmost-merge", (), "sat"))
        qs.extend(cli_share("atmost-merge", "teachers10"))
        # The same order for every seed, and the n = 75 search last: once it
        # has grown the heap to ~630 MB, later queries and loads in the
        # process run slower, by an amount that varies from run to run.
        random.Random(0).shuffle(qs)
        qs.append(Query(f"kb-sat/n{TEACHERS_PAST_LIMIT}", "kb-sat",
                        f"teachers{TEACHERS_PAST_LIMIT}", (), "sat"))
        runs.append(qs)
    return Workload("abox-scale", texts, runs)


# ---------------------------------------------------------------------------
# tbox-branching: the university KB (EX21), its TBox-only twins, and the
# cyclic KB (EX33), renamed apart in every pass
# ---------------------------------------------------------------------------

EX21_ABOX = """\
(related john cs156 TEACHES)
(instance john (atmost 1 DEGREE))
(instance cs156 Course)
"""

EX33 = """\
(implies Italian (some FRIEND Italian))
(related peter susan FRIEND)
(instance peter (all FRIEND (not Italian)))
(instance susan (some FRIEND Italian))
"""

# Every name that gets a per-pass suffix.
_NAMES = ("Student", "Prof", "Course", "DEGREE", "TEACHES", "MS", "BS",
          "john", "cs156", "Italian", "FRIEND", "peter", "susan")

TEACHER_WITH_ONE_DEGREE = "(and (some TEACHES Course) (atmost 1 DEGREE))"

# (family, kind, args, expected) asked of the whole EX21 KB; each but the
# instance check is also asked of the TBox alone (its "twin").  A Prof has
# an MS and a BS degree, which MS ⊓ BS ⊑ ⊥ keeps apart, so a Prof has two
# degrees; a teacher with at most one degree is therefore a Student.
BRANCHING_QUESTIONS = (
    ("john-student", "instance", ("john", "Student"), True),
    ("prof-two-degrees", "subsumes", ("Prof", "(atleast 2 DEGREE)"), True),
    ("ms-two-degrees", "subsumes", ("(some DEGREE MS)", "(atleast 2 DEGREE)"), True),
    ("one-degree-teacher-student", "subsumes", (TEACHER_WITH_ONE_DEGREE, "Student"), True),
    ("prof-one-degree", "concept-sat", ("(and Prof (atmost 1 DEGREE))",), "unsat"),
)
# The twin of john's instance check: what the ABox says of john, as a concept.
JOHN_TWIN = ("john-student", "subsumes", (TEACHER_WITH_ONE_DEGREE, "Student"), True)

# Questions on EX33, decided through the blocking path.  Every Italian has
# an Italian friend and all of peter's friends are non-Italian, so peter and
# his friend susan are not Italian; susan's Italian friend has an Italian
# friend.
CYCLIC_QUESTIONS = (
    ("cyclic", "kb-sat", (), "sat"),
    ("cyclic", "concept-sat", ("Italian",), "sat"),
    ("cyclic", "concept-sat", ("(and Italian (all FRIEND (not Italian)))",), "unsat"),
    ("cyclic", "concept-sat", ("(and (not Italian) (some FRIEND Italian))",), "sat"),
    ("cyclic", "concept-sat", ("(and Italian (atmost 0 FRIEND))",), "unsat"),
    ("cyclic", "subsumes", ("Italian", "(some FRIEND (some FRIEND Italian))"), True),
    ("cyclic", "subsumes", ("Italian", "(all FRIEND Italian)"), False),
    ("cyclic", "subsumes", ("Italian", "(atleast 1 FRIEND)"), True),
    ("cyclic", "subsumes", ("(some FRIEND Italian)", "Italian"), False),
    ("cyclic", "subsumes", ("(all FRIEND (not Italian))", "(not Italian)"), True),
    ("cyclic", "instance", ("susan", "(not Italian)"), True),
    ("cyclic", "instance", ("susan", "Italian"), False),
    ("cyclic", "instance", ("susan", "(some FRIEND (some FRIEND Italian))"), True),
    ("cyclic", "instance", ("susan", "(some FRIEND Italian)"), True),
    ("cyclic", "instance", ("susan", "(atleast 1 FRIEND)"), True),
    ("cyclic", "instance", ("peter", "(some FRIEND (some FRIEND Italian))"), True),
    ("cyclic", "instance", ("peter", "Italian"), False),
    ("cyclic", "instance", ("peter", "(not Italian)"), True),
    ("cyclic", "instance", ("peter", "(some FRIEND (not Italian))"), True),
    ("cyclic", "instance", ("peter", "(atleast 2 FRIEND)"), False),
)


def _renamer(suffix: str):
    pattern = re.compile(r"(?<![\w'-])(" + "|".join(_NAMES) + r")(?![\w'-])")
    return lambda text: pattern.sub(lambda m: m.group(1) + suffix, text)


def tbox_branching(seed: int, passes: int) -> Workload:
    rng = random.Random(seed)
    texts: dict[str, str] = {}
    runs = []
    for p in range(passes):
        rename = _renamer(f"_p{p}")
        kb21, tbox21, kb33 = f"ex21/p{p}", f"tbox21/p{p}", f"ex33/p{p}"
        texts[kb21] = rename(UNIVERSITY_TBOX + EX21_ABOX)
        texts[tbox21] = rename(UNIVERSITY_TBOX)
        texts[kb33] = rename(EX33)
        qs: list[Query] = []
        for family, kind, args, expected in BRANCHING_QUESTIONS:
            qs.append(Query(f"abox/{family}", kind, kb21,
                            tuple(rename(a) for a in args), expected))
            twin = JOHN_TWIN if kind == "instance" else (family, kind, args, expected)
            qs.append(Query(f"twin/{family}", twin[1], tbox21,
                            tuple(rename(a) for a in twin[2]), twin[3]))
        for family, kind, args, expected in CYCLIC_QUESTIONS:
            qs.append(Query(family, kind, kb33, tuple(rename(a) for a in args), expected))
        qs.extend(cli_share(kb33, kb21))
        rng.shuffle(qs)
        runs.append(qs)
    return Workload("tbox-branching", texts, runs)


# ---------------------------------------------------------------------------
# random-mix: small random KBs inside the test suite's envelope
# ---------------------------------------------------------------------------

CONCEPT_NAMES = ("A", "B", "C")
ROLE_NAMES = ("R", "S")
INDIVIDUALS = ("a", "b", "c")
KBS_PER_PASS = 220
CLI_EVERY = 4      # every 4th KB is also asked through the command line


def random_role(rng: random.Random, conjunction: bool = True) -> str:
    if conjunction and rng.random() < 0.2:
        return "(and R S)"
    return rng.choice(ROLE_NAMES)


def random_concept(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        k = rng.randrange(8)
        if k < 4:
            return rng.choice(CONCEPT_NAMES)
        if k < 6:
            return f"(not {rng.choice(CONCEPT_NAMES)})"
        return "TOP" if k == 6 else "BOTTOM"
    k = rng.randrange(14)
    if k < 2:
        return rng.choice(CONCEPT_NAMES)
    if k == 2:
        return f"(not {rng.choice(CONCEPT_NAMES)})"
    if k in (3, 4, 5, 6):
        op = "and" if k < 5 else "or"
        return f"({op} {random_concept(rng, depth - 1)} {random_concept(rng, depth - 1)})"
    if k == 7:
        return f"(not {random_concept(rng, depth - 1)})"
    if k in (8, 9, 10, 11):
        op = "all" if k < 10 else "some"
        return f"({op} {random_role(rng)} {random_concept(rng, depth - 1)})"
    op = "atleast" if k == 12 else "atmost"
    return f"({op} {rng.randint(0, 3)} {random_role(rng, conjunction=False)})"


def random_kb_text(rng: random.Random) -> tuple[str, list[str]]:
    """A KB of 0-1 inclusion and 1-4 assertions over 1-3 individuals.

    At most one inclusion, so that search stays small as this workload
    intends: with two interacting inclusions a few KBs per run took seconds
    each, and one run's wall time moved by half from seed to seed."""
    lines = []
    for _ in range(rng.randint(0, 1)):
        lines.append(f"(implies {random_concept(rng, rng.randint(1, 2))} "
                     f"{random_concept(rng, rng.randint(1, 3))})")
    inds = list(INDIVIDUALS[: rng.randint(1, 3)])
    used = set()
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        a = rng.choice(inds)
        used.add(a)
        if r < 0.45:
            lines.append(f"(instance {a} {random_concept(rng, rng.randint(0, 3))})")
        elif r < 0.8:
            b = rng.choice(inds)
            used.add(b)
            lines.append(f"(related {a} {b} {random_role(rng)})")
        else:
            lines.append(f"(instance {a} (atmost {rng.randint(0, 2)} "
                         f"{random_role(rng, conjunction=False)}))")
    return "\n".join(lines) + "\n", sorted(used)


def _guard_flags() -> tuple:
    return ("--max-vars", str(SUITE_GUARDS["max_variables"]),
            "--max-constraints", str(SUITE_GUARDS["max_constraints"]),
            "--max-branches", str(SUITE_GUARDS["max_branches"]))


def random_mix(seed: int, passes: int) -> Workload:
    rng = random.Random(seed)
    texts: dict[str, str] = {}
    runs = []
    for p in range(passes):
        qs: list[Query] = []
        for i in range(KBS_PER_PASS):
            key = f"rand/{p}/{i}"
            text, inds = random_kb_text(rng)
            texts[key] = text
            c = random_concept(rng, rng.randint(0, 3))
            d = random_concept(rng, rng.randint(0, 3))
            e = random_concept(rng, rng.randint(0, 2))
            a = rng.choice(inds)
            asked = [
                Query("lib", "kb-sat", key),
                Query("lib", "concept-sat", key, (c,)),
                Query("lib", "subsumes", key, (c, d)),
                Query("lib", "instance", key, (a, e)),
            ]
            qs.extend(asked)
            if i % CLI_EVERY == 0:
                flags = _guard_flags()
                qs.extend([
                    Query("cli", "cli", key, ("check-sat", "-") + flags),
                    Query("cli", "cli", key, ("concept-sat", "-", c) + flags),
                    Query("cli", "cli", key, ("subsumes", "-", c, d) + flags),
                    Query("cli", "cli", key, ("instance", "-", a, e) + flags),
                    Query("cli", "cli", key, ("transform", "-")),
                ])
        rng.shuffle(qs)
        runs.append(qs)
    return Workload("random-mix", texts, runs, guards=SUITE_GUARDS)


WORKLOADS = {
    "abox-scale": abox_scale,
    "tbox-branching": tbox_branching,
    "random-mix": random_mix,
}
