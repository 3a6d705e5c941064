"""Identity harness: run the same inputs through two source trees and report
where their results differ.

    python tools/identity.py OLD_TREE NEW_TREE [--allow FIELD,...]

Each tree is a checkout of this repository (for example a `git archive` of
the parent commit).  Every input is decided in each tree by a worker process
that imports that tree's `src/alcnr`; the inputs themselves come from this
checkout's `tests/` helpers, so both trees see the same KBs.  Every search
runs with `debug_checks=True` and a full trace, and each SAT completion gets
both self-checks.  Per input the worker records these fields:

    status      "sat" | "unsat" | "resource-exceeded", or the exception raised
    guard       the guard that fired, if any
    trace       the trace lines (hashed)
    stats       the SearchStats counters
    completion  the completion's dump() (hashed)
    model       its canonical model and assignment (hashed)
    checks      satisfies_system and is_model on the canonical model

Families:

    candidates  2,000 unscreened `_generators._candidate_kb` draws (seed 1)
    heavy       2,000 `_tbox_generators.tbox_heavy_kb` draws (seed 1)
    fixed       EX21, EX33 and the UNA clash with the acceptance queries, the
                teachers ladder, the `atleast` ladder and the clique probe
    services    the candidates and the fixed KBs again, asked through
                `alcnr.services` on one KB object, in this order:
                `kb_satisfiable` (self-check, full trace),
                `concept_satisfiable` of C (full trace), `subsumed_by` C D,
                `instance_of` C for each individual, `instance_of` X for
                each individual with a concept assertion, X the least
                concept asserted on it (so that the goal clashes at its
                object), `instances` of D, where C and D are the first two
                of the KB's concept names and A, B
    questions   the same KBs and questions without the first two calls:
                `subsumed_by`, both kinds of `instance_of` and `instances`,
                asked on a fresh KB object, so that they meet no stored
                decision (until `instances` makes one)
    wide        n-ary and nested `and`, `or` and mixed forms (and one under
                `some`) of width or depth 10, 25 and 60, as an assertion,
                either side of an inclusion, and the goal, and the nested
                forms of depth 250 as the goal: each KB through `complete`
                (as the first families) and through the four services (as
                the services family), where the goal placement asks the
                services about the form and a short concept instead of the
                KB's names, so that a query grows the KB's concept table by
                the form
    parse       the candidates, heavy and fixed KBs as `render_kb` text, each
                as it is and in two copies with one to three seeded
                character edits (`_generators.mutate_text`), read by
                `parse_kb` and by `parse_concept`

In the services and questions families each field lists one entry per
call, in call order: `status` holds each answer (a verdict's status, a
truth value, the sorted members, or the exception raised), `guard` each
guard, `stats` each verdict's counters, `model` each verdict's model
(hashed together), `checks` is_model on each model, and `trace` both
traces; `completion` is not recorded, since a verdict carries no
completion.  A service that reuses a KB's translation or decision shows
here, where the other families, which call `complete(translate_kb(kb))`,
cannot see it; the questions family sees the path a truth question takes
before any decision is stored.

In the parse family only `status` is recorded: for each of the two readers,
a digest of the parsed value, or the ParseError's line, column and message.
The other families build their KBs as objects, so only this one sees a
change to the exchange-format reader.

For each family the harness prints how many inputs differ in each field and
the first difference it finds, with the first differing trace line when the
trace differs.  It exits 1 if any field outside `--allow` differs, else 0.
Standard library only; it runs for some 30 s on two cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
FIELDS = ("status", "guard", "trace", "stats", "completion", "model", "checks")
FAMILIES = ("candidates", "heavy", "fixed", "services", "questions", "wide", "parse")
COUNT = 2000  # inputs in each random family
SEED = 1
GUARDS = dict(max_variables=60, max_constraints=4000, max_branches=1500)
MUTANTS = 2  # edited copies of each text in the parse family
WIDE_SIZES = (10, 25, 60)  # widths and depths of the wide family's forms
DEEP_GOAL = 250  # the depth of the wide family's deep goals
GOAL_KB = "(instance a A0) (related a b R) (implies A1 A2)"


# -- worker: runs inside one tree -------------------------------------------

def _inputs(family: str) -> list[tuple[str, object]]:
    """(label, KB) pairs; imported only after the tree's `src` is on the path."""
    from alcnr import Name, parse_concept, parse_kb
    from alcnr.services import augment_for_concept_sat, augment_for_instance

    if family == "candidates":
        from _generators import _candidate_kb
        rng = random.Random(SEED)
        return [(f"candidate {i}", _candidate_kb(rng)) for i in range(COUNT)]
    if family == "heavy":
        from _tbox_generators import tbox_heavy_kbs
        return [(f"heavy {i}", kb) for i, kb in enumerate(tbox_heavy_kbs(SEED, COUNT))]
    if family in ("services", "questions"):
        return _inputs("candidates") + _inputs("fixed")
    if family == "wide":
        return [(label, (parse_kb(text), goal and (parse_concept(goal), parse_concept("A1"))))
                for label, text, goal in _wide_texts()]
    if family == "parse":
        from alcnr import render_kb
        from _generators import mutate_text
        rng = random.Random(SEED)
        found = []
        for kind in ("candidates", "heavy", "fixed"):
            for label, kb in _inputs(kind):
                text = render_kb(kb)
                found.append((label, text))
                found += [(f"{label} edit {k}", mutate_text(rng, text)) for k in range(MUTANTS)]
        return found
    from _kbs import EX21_TEXT, EX33_TEXT, UNA_CLASH_TEXT, clique_probe, teachers_kb
    kb21, kb33 = parse_kb(EX21_TEXT), parse_kb(EX33_TEXT)
    found = [("EX21", kb21), ("EX33", kb33), ("UNA clash", parse_kb(UNA_CLASH_TEXT))]
    for a, c in (("john", "Student"), ("john", "Prof"), ("cs156", "Course")):
        found.append((f"EX21 instance {a} {c}", augment_for_instance(kb21, a, Name(c))))
    for c in ("(and Prof (atmost 1 DEGREE))", "(some DEGREE BS)", "Student"):
        found.append((f"EX21 concept-sat {c}",
                      augment_for_concept_sat(kb21, parse_concept(c))))
    found.append(("EX33 instance susan (not Italian)",
                  augment_for_instance(kb33, "susan", parse_concept("(not Italian)"))))
    for n in (1, 2, 5, 10, 25):
        found.append((f"teachers {n}", teachers_kb(n)))
    found.append(("teachers 2 instance t0 Student",
                  augment_for_instance(teachers_kb(2), "t0", Name("Student"))))
    for k in (1, 2, 3, 10, 50, 200):
        found.append((f"atleast {k}", parse_kb(f"(instance a (atleast {k} R))")))
    for k in (2, 4, 6):
        found.append((f"clique probe {k}", clique_probe(k)))
    return found


def _wide_forms(k: int):
    """(shape, concept text) of the wide family at width or depth k."""
    names = [f"A{i % 7}" if i % 5 else f"(not A{i % 3})" for i in range(k)]

    def nested(ops):
        text = names[-1]
        for i in range(k - 2, -1, -1):
            text = f"({ops[i % len(ops)]} {names[i]} {text})"
        return text

    yield "and-wide", "(and " + " ".join(names) + ")"
    yield "or-wide", "(or " + " ".join(names) + ")"
    yield "and-deep", nested(["and"])
    yield "or-deep", nested(["or"])
    yield "mixed", nested(["and", "or"])
    yield "some", "(some R (and " + " ".join(names[:k // 2]) + " (or " + \
        " ".join(names[k // 2:]) + ")))"


def _wide_texts():
    """(label, KB text, goal concept text or None) of the wide family."""
    for k in WIDE_SIZES:
        for shape, c in _wide_forms(k):
            label = f"wide {shape} {k}"
            yield f"{label} assertion", f"(instance a {c}) (instance a (not A4))", None
            yield f"{label} lhs", f"(implies {c} (not A1)) (instance a A0) (instance a A1)", None
            yield f"{label} rhs", f"(implies A0 {c}) (instance a A0) (related a b R)", None
            yield f"{label} goal", GOAL_KB, c
    for shape, c in _wide_forms(DEEP_GOAL):
        if shape in ("and-deep", "or-deep", "mixed"):
            yield f"wide {shape} {DEEP_GOAL} goal", GOAL_KB, c


def _wide(case) -> tuple[dict, list[str]]:
    """The wide family's row: each field as [complete's, the services']."""
    kb, concepts = case
    rows = _decide(kb), _ask(kb, "services", concepts)
    row = {f: [r[0][f] for r in rows] for f in FIELDS}
    return row, [*rows[0][1], "--", *rows[1][1]]


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _decide(kb) -> tuple[dict, list[str]]:
    from alcnr import (
        Guards, Trace, complete, extract_model, is_model, render_interpretation,
        satisfies_system, translate_kb,
    )

    trace = Trace(limit=None)
    row = dict.fromkeys(FIELDS)
    try:
        result = complete(translate_kb(kb), Guards(debug_checks=True, **GUARDS), trace)
        row["status"], row["guard"] = result.status, result.guard
        row["stats"] = dataclasses.asdict(result.stats)
        if result.is_sat:
            completion = result.completion
            interp, assignment = extract_model(completion)
            row["completion"] = _digest(completion.dump())
            row["model"] = _digest(render_interpretation(interp) + repr(
                sorted(assignment.mapping.items(), key=repr)))
            row["checks"] = [satisfies_system(completion, interp, assignment),
                             is_model(interp, kb)]
    except Exception as exc:  # an invariant violation is a result to compare
        row["status"] = f"{type(exc).__name__}: {exc}"
    lines = trace.lines()
    row["trace"] = _digest("\n".join(lines))
    return row, lines


def _ask(kb, family: str, concepts=None) -> tuple[dict, list[str]]:
    """The services or questions family's row: each service called on one
    KB object, a fresh one for questions, with C and D the given concepts
    or else the KB's first two names."""
    from alcnr import (
        ConceptAssertion, Guards, KnowledgeBase, Name, Trace, TruthVerdict,
        concept_key, concept_satisfiable, instance_of, instances, is_model,
        kb_satisfiable, render_interpretation, subsumed_by,
    )

    if family == "questions":
        kb = KnowledgeBase(kb.tbox, kb.abox)  # no session, so no stored decision
    guards = Guards(debug_checks=True, **GUARDS)
    c, d = concepts or (Name(n) for n in [*sorted(kb.concept_names()), "A", "B"][:2])
    traces = Trace(limit=None), Trace(limit=None)
    asserted = {}  # one concept asserted on each individual: its goal clashes there
    for x in kb.abox:
        if isinstance(x, ConceptAssertion):
            have = asserted.get(x.individual)
            if have is None or concept_key(x.concept) < concept_key(have):
                asserted[x.individual] = x.concept
    calls = [
        lambda: subsumed_by(kb, c, d, guards),
        *(lambda a=a: instance_of(kb, a, c, guards) for a in sorted(kb.individuals())),
        *(lambda a=a: instance_of(kb, a, asserted[a], guards) for a in sorted(asserted)),
        lambda: instances(kb, d, guards),
    ]
    if family == "services":
        calls[:0] = [
            lambda: kb_satisfiable(kb, guards, traces[0], self_check=True),
            lambda: concept_satisfiable(kb, c, guards, traces[1]),
        ]
    row = {f: [] for f in FIELDS}
    models = []
    for call in calls:
        try:
            answer = call()
        except Exception as exc:  # an invariant violation is a result to compare
            row["status"].append(f"{type(exc).__name__}: {exc}")
            continue
        if isinstance(answer, frozenset):
            row["status"].append(sorted(answer))
        elif isinstance(answer, TruthVerdict):
            row["status"].append(answer.value)
            row["guard"].append(answer.guard)
        else:
            row["status"].append(answer.status)
            row["guard"].append(answer.guard)
            row["stats"].append(dataclasses.asdict(answer.stats))
            if answer.is_sat:
                models.append(render_interpretation(answer.interpretation) + repr(
                    sorted(answer.assignment.mapping.items(), key=repr)))
                row["checks"].append(is_model(answer.interpretation, kb))
    row["model"] = _digest("\n".join(models))
    lines = [*traces[0].lines(), "--", *traces[1].lines()]
    row["trace"] = _digest("\n".join(lines))
    row["completion"] = None
    return row, lines


def _read(text: str) -> tuple[dict, list[str]]:
    """The parse family's row: each reader's value (hashed) or its error."""
    from alcnr import ParseError, parse_concept, parse_kb

    row = dict.fromkeys(FIELDS)
    row["status"] = []
    for parse in (parse_kb, parse_concept):
        try:
            value = parse(text)
        except ParseError as exc:
            row["status"].append([exc.line, exc.column, exc.args[0]])
        except Exception as exc:  # a crash is a result to compare
            row["status"].append(f"{type(exc).__name__}: {exc}")
        else:
            parts = [value] if parse is parse_concept else [*value.tbox, *value.abox]
            row["status"].append(_digest(repr(sorted(map(repr, parts)))))
    return row, []


def worker(tree: str, family: str, show: int | None) -> None:
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(TESTS)]
    decide = {"services": lambda kb: _ask(kb, "services"),
              "questions": lambda kb: _ask(kb, "questions"),
              "wide": _wide, "parse": _read}.get(family, _decide)
    for i, (label, kb) in enumerate(_inputs(family)):
        if show is None:
            row, _ = decide(kb)
            print(json.dumps([label, row]), flush=True)
        elif i == show:
            print("\n".join(decide(kb)[1]))
            return


# -- driver ----------------------------------------------------------------

def _run(tree: str, family: str, show: int | None = None):
    args = [sys.executable, __file__, "--worker", tree, family]
    if show is not None:
        args += ["--show", str(show)]
    return subprocess.Popen(args, stdout=subprocess.PIPE, text=True)


def _collect(proc) -> str:
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return out


def _first_trace_difference(old: str, new: str, family: str, index: int) -> str:
    a, b = (_collect(_run(t, family, index)).splitlines() for t in (old, new))
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"trace line {n + 1}:\n    old: {x}\n    new: {y}"
    return f"trace lengths {len(a)} and {len(b)}"


def compare(old: str, new: str, family: str, allow: set[str]) -> bool:
    procs = [_run(t, family) for t in (old, new)]
    rows = [[json.loads(line) for line in _collect(p).splitlines()] for p in procs]
    if len(rows[0]) != len(rows[1]):
        raise SystemExit(f"{family}: {len(rows[0])} and {len(rows[1])} inputs")
    differ = dict.fromkeys(FIELDS, 0)
    first = None
    for index, ((label, a), (_, b)) in enumerate(zip(*rows)):
        fields = [f for f in FIELDS if a[f] != b[f]]
        for f in fields:
            differ[f] += 1
        if first is None and any(f not in allow for f in fields):
            first = index, label, fields, a, b
    counts = ", ".join(f"{f} {n}" for f, n in differ.items())
    print(f"{family}: {len(rows[0])} inputs; differ: {counts}")
    if first is None:
        return True
    index, label, fields, a, b = first
    print(f"  first difference outside --allow: {label} ({', '.join(fields)})")
    for f in fields:
        if f != "trace":
            print(f"    {f}: {a[f]!r} -> {b[f]!r}")
    if "trace" in fields:
        print("  " + _first_trace_difference(old, new, family, index))
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--allow", default="",
                        help="comma-separated fields that may differ: " + ",".join(FIELDS))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--show", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.old, args.new, args.show)
        return 0
    if args.new is None:
        parser.error("two trees are needed")
    allow = {f for f in args.allow.split(",") if f}
    if allow - set(FIELDS):
        parser.error(f"unknown fields: {', '.join(sorted(allow - set(FIELDS)))}")
    same = [compare(args.old, args.new, family, allow) for family in FAMILIES]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
