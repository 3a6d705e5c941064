"""Batch command-line front end.

Exit codes: 0 = SAT / true, 1 = UNSAT / false, 2 = UNKNOWN (a resource guard
fired), 3 = input error (a file that cannot be read or written, a parse
error, or a `ValueError` while the input is read and checked: an unknown
individual, a reserved name, a malformed model file), 4 = a --oracle-check
cross-verification failed, 5 = internal error (any other exception, a
`ValueError` from the engine included: one line on stderr, no traceback, so
that a crash never reads as a verdict).
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .encodings import inclusions_to_introduction
from .semantics import (
    BUDGET_EXCEEDED, Interpretation, find_model_bounded, is_model,
    parse_interpretation, render_interpretation,
)
from . import services
from .services import Verdict, instance_checks
from .syntax import (
    FRESH_INDIVIDUAL, ConceptAssertion, KnowledgeBase, ParseError, parse_concept,
    parse_kb, render_kb,
)
from .tableau import Guards, Trace

ORACLE_BUDGET = 200_000

GUARD_WARNING = (
    "guard {guard!r} fired; completions can be exponentially large "
    "(O(2^(4n)) in the knowledge-base size) -- raise --max-vars, "
    "--max-constraints or --max-branches to search further"
)


class _ParserExit(Exception):
    """(exit code, text): a usage error (3) or the --help text (0), for
    `run` to write to its caller's streams."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that raises _ParserExit instead of writing to
    sys.stdout or sys.stderr and exiting; its subparsers are of this class
    too."""

    def print_help(self, file=None) -> None:
        raise _ParserExit(0, self.format_help())

    def error(self, message: str):
        raise _ParserExit(3, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each `parse_args` call returns a
    fresh namespace, so nothing carries over between runs."""
    parser = _ArgumentParser(
        prog="alcnr",
        description="Decision procedures for ALCNR knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads, so a misplaced one is an
    # input error rather than silently ignored
    kb = argparse.ArgumentParser(add_help=False)
    kb.add_argument("kb", help="KB file in the exchange format, or - for stdin")
    guards = argparse.ArgumentParser(add_help=False)
    guards.add_argument("--max-vars", type=int, default=1000, metavar="N")
    guards.add_argument("--max-constraints", type=int, default=200_000, metavar="N")
    guards.add_argument("--max-branches", type=int, default=100_000, metavar="N")
    decision = argparse.ArgumentParser(add_help=False)
    decision.add_argument(
        "--oracle-check", type=int, default=None, metavar="K",
        help="cross-verify the verdict by exhaustive model search up to domain size K",
    )
    decision.add_argument("--trace-file", default=None, metavar="PATH")
    engine = [kb, guards, decision]

    sub.add_parser("check-sat", parents=engine, help="is the KB satisfiable?")
    p = sub.add_parser("concept-sat", parents=engine,
                       help="is CONCEPT satisfiable w.r.t. the KB?")
    p.add_argument("concept")
    p = sub.add_parser("subsumes", parents=engine,
                       help="is C subsumed by D in every model of the KB?")
    p.add_argument("c")
    p.add_argument("d")
    p = sub.add_parser("instance", parents=engine,
                       help="is individual A an instance of CONCEPT in every model?")
    p.add_argument("a")
    p.add_argument("concept")
    p = sub.add_parser("instances", parents=[kb, guards],
                       help="all individuals provably in CONCEPT, one per line")
    p.add_argument("concept")
    sub.add_parser("transform", parents=[kb],
                   help="rewrite the TBox into a single concept introduction")
    sub.add_parser("model", parents=engine,
                   help="emit the canonical model if the KB is satisfiable")
    sub.add_parser("trace", parents=engine, help="print the full derivation log")
    p = sub.add_parser("check-model", parents=[kb])
    p.add_argument("model_file")
    return parser


def _read_text(path: str, stdin) -> str:
    if path == "-":
        return stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _guards(args) -> Guards:
    return Guards(
        max_variables=args.max_vars,
        max_constraints=args.max_constraints,
        max_branches=args.max_branches,
    )


def _cross_check(kb: KnowledgeBase, verdict: Verdict, bound: int, stderr) -> bool:
    """Sound one-directional consistency check against the brute-force oracle."""
    floor = max(1, len(kb.individuals()))
    if bound < floor:
        print(f"oracle check skipped: bound {bound} below the {floor} required elements",
              file=stderr)
        return True
    outcome = find_model_bounded(kb, bound, ORACLE_BUDGET)
    if outcome is BUDGET_EXCEEDED:
        print("oracle check inconclusive: search budget exceeded", file=stderr)
        return True
    if isinstance(outcome, Interpretation):
        if verdict.status == "unsat":
            print("oracle check FAILED: exhaustive search found a model but the "
                  "engine answered UNSAT", file=stderr)
            return False
        return True
    # NOT_FOUND is exhaustive up to the bound
    if verdict.status == "sat" and len(verdict.interpretation.domain) <= bound:
        print("oracle check FAILED: the engine produced a model within the bound "
              "but exhaustive search found none", file=stderr)
        return False
    return True


def _goal(kb: KnowledgeBase, args) -> ConceptAssertion | None:
    """The assertion that the command's question adds to kb (None: kb
    alone), so that kb plus it is satisfiable iff the answer is SAT, or
    false.  It reads the query concepts and checks the names, so it is
    part of reading the input."""
    if args.command == "concept-sat":
        return services._fresh_goal(
            FRESH_INDIVIDUAL in kb.all_names(), parse_concept(args.concept))
    if args.command == "subsumes":
        return services._subsumption_goal(
            FRESH_INDIVIDUAL in kb.all_names(), parse_concept(args.c), parse_concept(args.d))
    if args.command == "instance":
        return services._instance_goal(
            args.a in kb.individuals(), args.a, parse_concept(args.concept))
    return None


def _decide(kb: KnowledgeBase, goal: ConceptAssertion | None, args,
            stderr) -> tuple[Verdict, bool]:
    """Run the engine on the command's question through kb's session;
    returns (verdict, oracle_ok)."""
    trace = Trace(limit=None) if args.trace_file or args.command == "trace" else None
    verdict = services._decide(kb, goal, _guards(args), trace)
    if verdict.status == "unknown":
        print(GUARD_WARNING.format(guard=verdict.guard), file=stderr)
    if args.trace_file:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            fh.write("\n".join(verdict.trace.lines()) + "\n")
    ok = True
    if args.oracle_check is not None:
        asked = kb if goal is None else services._with_assertion(kb, goal)
        ok = _cross_check(asked, verdict, args.oracle_check, stderr)
    return verdict, ok


# status -> (answer text, exit code), for satisfiability and truth questions
_SAT_ANSWERS = {"sat": ("SAT", 0), "unsat": ("UNSAT", 1), "unknown": ("UNKNOWN", 2)}
_TRUTH_ANSWERS = {"sat": ("false", 1), "unsat": ("true", 0), "unknown": ("UNKNOWN", 2)}


def _report(args, verdict: Verdict, oracle_ok: bool, stdout, stderr) -> int:
    """Print the command's answer; returns the exit code."""
    answers = _TRUTH_ANSWERS if args.command in ("subsumes", "instance") else _SAT_ANSWERS
    text, code = answers[verdict.status]
    if args.command == "model":
        if not oracle_ok:
            return 4
        if verdict.status == "sat":
            stdout.write(render_interpretation(verdict.interpretation))
        else:
            print(text, file=stderr)
        return code
    if args.command == "trace":
        for line in verdict.trace.lines():
            print(line, file=stdout)
        text = f"result: {text}"
    print(text, file=stdout)
    return code if oracle_ok else 4


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParserExit as stop:
        code, text = stop.args
        (stdout if code == 0 else stderr).write(text)
        return code

    # a ValueError is an input error only while the input is read and
    # checked; from the engine it is an internal error like any other
    try:
        kb = parse_kb(_read_text(args.kb, stdin))
        if args.command == "instances":
            question = parse_concept(args.concept)
        elif args.command == "check-model":
            question = parse_interpretation(_read_text(args.model_file, stdin))
        else:
            question = _goal(kb, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    try:
        return _answer(kb, question, args, stdout, stderr)
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=stderr)
        return 5


def _answer(kb: KnowledgeBase, question, args, stdout, stderr) -> int:
    """Answer the command on its read input (the query concept, the model
    or the goal); returns the exit code."""
    if args.command == "instances":
        checks = instance_checks(kb, question, _guards(args))
        for a, truth in checks.items():
            if truth.value:
                print(a, file=stdout)
        unknowns = [a for a, truth in checks.items() if truth.value is None]
        if unknowns:
            print("inconclusive for: " + " ".join(unknowns), file=stderr)
            return 2
        return 0
    if args.command == "transform":
        stdout.write(render_kb(inclusions_to_introduction(kb)))
        return 0
    if args.command == "check-model":
        good = is_model(question, kb)
        print("ok" if good else "invalid", file=stdout)
        return 0 if good else 1
    verdict, ok = _decide(kb, question, args, stderr)
    return _report(args, verdict, ok, stdout, stderr)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
