"""Closed-loop benchmark of the alcnr reasoner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One client sends each query only after the
previous verdict returned.  The workload's queries are split into batches;
before each batch the run loads every KB text once more (`parse_kb` plus
`translate_kb`), so the set-up samples are spread through the run.  After
the timed loop every verdict is checked: against hand-derived answers, or
against the bounded model-search oracle for random inputs.  A wrong verdict
or an exception makes the run exit 1.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics.  With --trace 1 the same queries run three times: untraced, with
every layer's calls timed as spans, and once more counting the engine's rule
applications, branches and clashes (see tracing.py).  The JSON carries the
per-layer metrics, and the spans go to .perfbench-out/<workload>.spans.
`--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Nominal seconds of one pass at the seed commit; a run makes
# round(seconds / PASS_SECONDS) passes, so the work of a run depends on
# --seconds only, never on how fast the code under test is.  At --seconds 20
# tbox-branching makes 7 passes, which puts its tail rank in the middle of
# the seven john-student queries.
PASS_SECONDS = {"abox-scale": 16.5, "tbox-branching": 2.9, "random-mix": 1.35}
# A set-up sample loads every KB text of the run SETUP_REPEATS times, so
# that each sample takes some 50 ms or more; setup_s is the median over the
# samples of the mean time of one load.
SETUP_SAMPLES = 9
SETUP_REPEATS = {"abox-scale": 1, "tbox-branching": 12, "random-mix": 1}
ORACLE_BUDGET = 1000
# Hand-checked answers on KBs this small are also checked against the oracle.
ORACLE_MAX_INDIVIDUALS = 3
TAIL_BEYOND = 10
# The tail is taken per block of whole passes holding at least this many
# queries, and the median over the blocks is reported; a run smaller than
# one block is a single block.
MIN_BLOCK = 1000

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "decided_ratio": "ratio", "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alcnr" / "__init__.py").is_file():
        print(f"error: no alcnr sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, WORKLOADS[args.workload])


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def run_one(args, make_workload) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import alcnr, alcnr.cli"],
                   env=env, cwd=ROOT, check=True, timeout=120)
    calibration_ms = calibrate()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import alcnr
    import alcnr.cli  # noqa: F401
    import_ms = (perf_counter() - t0) * 1000

    # a traced run makes its three passes over a third of the queries
    share = 3 if args.trace else 1
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload] / share))
    wl = make_workload(args.seed, passes)
    queries = wl.queries()
    guards = alcnr.Guards(**wl.guards) if wl.guards else None
    print(f"workload {wl.name}  seed {args.seed}  passes {passes}  "
          f"queries {len(queries)}  kb-texts {len(wl.kb_texts)}  "
          f"inputs-digest {wl.digest()}")
    print(f"context  bench.import_ms {import_ms:.2f}  bench.calibration_ms {calibration_ms:.2f}")

    if not args.trace:
        repeats = SETUP_REPEATS[wl.name]
        run = measure(wl, queries, guards, setup_repeats=repeats)
        verdicts = check(wl, queries, run.answers)
        metrics = end_to_end(run, verdicts, queries, passes, repeats)
        return report(run, verdicts, queries, metrics)

    import tracing
    run = measure(wl, queries, guards)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    # timed pass: spans only, the engine keeps its muted trace
    recorder.spans = spans = tracing.Spans(recorder)
    traced = measure(wl, queries, guards, spans=spans)
    verdicts = check(wl, queries, traced.answers, spans)
    # counting pass: no spans, a counting trace in place of the muted one
    recorder.spans, recorder.counts = None, Counter()
    counted = measure(wl, queries, guards)
    for label, other in (("traced", traced), ("counting", counted)):
        if other.answers != run.answers:
            print(f"error: the {label} and untraced runs answered differently",
                  file=sys.stderr)
            run.errors += 1
    metrics = layer_metrics(spans, recorder.counts, len(queries), run, import_ms,
                            calibration_ms)
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"{wl.name}.spans")
    return report(run, verdicts, queries, metrics)


def report(run, verdicts: Counter, queries, metrics: dict) -> int:
    failed = verdicts["wrong"] + verdicts["error"] + run.errors
    print(f"verdicts  decided {verdicts['decided']}  undecided {verdicts['undecided']}  "
          f"wrong {verdicts['wrong']}  error {verdicts['error']}")
    result = {
        "correct": failed == 0, "attempted": len(queries), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def calibrate() -> float:
    """Median wall milliseconds of a fixed pure-Python loop: a machine-speed
    reference printed with every run, never used to adjust a metric."""
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((perf_counter() - t0) * 1000)
    return statistics.median(samples)


class Run:
    def __init__(self):
        self.latencies: list[float] = []
        self.answers: list = []
        self.wall = 0.0
        self.setup: list[float] = []
        self.errors = 0


def load(texts: dict[str, str]):
    import alcnr
    kbs = {key: alcnr.parse_kb(text) for key, text in texts.items()}
    for kb in kbs.values():
        alcnr.translate_kb(kb)
    return kbs


def measure(wl, queries, guards, setup_repeats: int = 0, spans=None) -> Run:
    """The closed loop in SETUP_SAMPLES batches; with setup_repeats > 0, a
    set-up sample precedes each batch."""
    run = Run()
    kbs = load(wl.kb_texts)
    root = spans.name_id("bench.query") if spans is not None else None
    cuts = [round(k * len(queries) / SETUP_SAMPLES) for k in range(SETUP_SAMPLES + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        gc.collect()
        if setup_repeats:
            t0 = perf_counter()
            for _ in range(setup_repeats):
                load(wl.kb_texts)
            run.setup.append((perf_counter() - t0) / setup_repeats)
        t_batch = perf_counter()
        for i in range(lo, hi):
            q = queries[i]
            if spans is not None:
                spans.query = i
                span = spans.open(root)
            t0 = perf_counter()
            try:
                raw = ask(q, kbs[q.kb], wl.kb_texts[q.kb], guards)
            except Exception as exc:  # a failed query is reported, not fatal
                raw = exc
            run.latencies.append(perf_counter() - t0)
            if spans is not None:
                spans.close(span)
                spans.query = -1
            run.answers.append(raw)
        run.wall += perf_counter() - t_batch
    run.answers = [normalize(q, raw) for q, raw in zip(queries, run.answers)]
    return run


def ask(q, kb, text, guards):
    import alcnr
    if q.kind == "kb-sat":
        return alcnr.kb_satisfiable(kb, guards, self_check=True)
    if q.kind == "concept-sat":
        return alcnr.concept_satisfiable(kb, alcnr.parse_concept(q.args[0]), guards,
                                         self_check=True)
    if q.kind == "subsumes":
        return alcnr.subsumed_by(kb, alcnr.parse_concept(q.args[0]),
                                 alcnr.parse_concept(q.args[1]), guards)
    if q.kind == "instance":
        return alcnr.instance_of(kb, q.args[0], alcnr.parse_concept(q.args[1]), guards)
    if q.kind == "instances":
        return alcnr.instances(kb, alcnr.parse_concept(q.args[0]), guards)
    if q.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        code = alcnr.cli.run(list(q.args), stdin=io.StringIO(text), stdout=out, stderr=err)
        return code, out.getvalue()
    raise ValueError(f"unknown query kind {q.kind!r}")


_CLI_STATUS = {0: "sat", 1: "unsat", 2: "unknown"}
_CLI_TRUTH = {0: True, 1: False, 2: None}


def normalize(q, raw):
    """A comparable answer: ("sat"|"unsat"|"unknown", model size) for
    satisfiability, True/False/None for truth questions, a frozenset for
    instances, ("error", text) for an exception or an unexpected exit."""
    if isinstance(raw, Exception):
        return ("error", f"{type(raw).__name__}: {raw}")
    if q.kind in ("kb-sat", "concept-sat"):
        size = len(raw.interpretation.domain) if raw.status == "sat" else None
        return (raw.status, size)
    if q.kind in ("subsumes", "instance"):
        return raw.value
    if q.kind == "instances":
        return raw
    code, out = raw
    command = q.args[0]
    if command == "transform":
        return ("transformed", out) if code == 0 else ("error", f"exit {code}")
    table = _CLI_STATUS if command in ("check-sat", "concept-sat") else _CLI_TRUTH
    if code not in table:
        return ("error", f"exit {code}")
    return (table[code], None) if table is _CLI_STATUS else table[code]


# ---------------------------------------------------------------------------
# Verdict checking (outside the timed loop)
# ---------------------------------------------------------------------------

def check(wl, queries, answers, spans=None) -> Counter:
    """Counts of decided, undecided, wrong and error answers."""
    tally = Counter(decided=0, undecided=0, wrong=0, error=0)
    oracle = _Oracle(wl, queries, answers, spans)
    for i, (q, ans) in enumerate(zip(queries, answers)):
        if isinstance(ans, tuple) and ans[0] == "error":
            outcome = "error"
        else:
            outcome = "decided" if q.expected is None else _against_expected(q, ans)
            if outcome == "decided" and (q.expected is None or oracle.covers(q)):
                outcome = oracle.judge(q, ans)
        tally[outcome] += 1
        if outcome in ("wrong", "error"):
            print(f"{outcome}: query {i} {q.kind} {q.kb} {q.args} -> {ans!r} "
                  f"(expected {q.expected!r})", file=sys.stderr)
    return tally


def _undecided(ans) -> bool:
    return ans is None or (isinstance(ans, tuple) and ans[0] == "unknown")


def _against_expected(q, ans) -> str:
    if q.kind == "instances":
        # services.instances drops members whose check hit a guard, so a
        # smaller answer may be UNKNOWN read as false; a larger one is wrong
        if ans == q.expected:
            return "decided"
        return "undecided" if ans < q.expected else "wrong"
    if _undecided(ans):
        return "undecided"
    got = ans[0] if isinstance(ans, tuple) else ans
    return "decided" if got == q.expected else "wrong"


class _Oracle:
    """The one-directional rule of the CLI's --oracle-check: a model found by
    exhaustive search contradicts UNSAT, and NOT_FOUND (exhaustive up to the
    bound) contradicts a SAT verdict whose model fits within the bound.  A
    CLI answer must also agree with the library's answer to its question."""

    def __init__(self, wl, queries, answers, spans):
        import alcnr
        self.alcnr = alcnr
        self.wl = wl
        self.kbs = {}
        self.spans = spans
        self.library = {(q.kind, q.kb, q.args): ans
                        for q, ans in zip(queries, answers) if q.kind != "cli"}
        self.outcomes: dict[tuple, object] = {}

    def covers(self, q) -> bool:
        """Is the question small enough to cross-check as well: a yes/no
        question on a KB of at most ORACLE_MAX_INDIVIDUALS individuals."""
        return q.kind != "instances" and \
            len(self._kb(q.kb).individuals()) <= ORACLE_MAX_INDIVIDUALS

    def _kb(self, key):
        if key not in self.kbs:
            self.kbs[key] = self.alcnr.parse_kb(self.wl.kb_texts[key])
        return self.kbs[key]

    def judge(self, q, ans) -> str:
        if q.kind == "cli":
            command = q.args[0]
            if command == "transform":
                try:
                    self.alcnr.parse_kb(ans[1])
                except self.alcnr.ParseError:
                    return "wrong"
                return "decided"
            question = _cli_question(q)
        else:
            question = (q.kind, q.kb, q.args)
        if _undecided(ans):
            return "undecided"
        theirs = self.library.get(question)
        if theirs is not None and not _undecided(theirs) and _truth(theirs) != _truth(ans):
            return "wrong"
        claims_sat = _truth(ans)
        outcome, bound = self._outcome(question)
        if isinstance(outcome, self.alcnr.Interpretation) and not claims_sat:
            return "wrong"
        if outcome is self.alcnr.NOT_FOUND and claims_sat and isinstance(ans, tuple) \
                and ans[1] is not None and ans[1] <= bound:
            return "wrong"
        return "decided"

    def _outcome(self, question):
        if question not in self.outcomes:
            kind, key, args = question
            kb = self._kb(key)
            services, parse = self.alcnr.services, self.alcnr.parse_concept
            if kind == "concept-sat":
                kb = services.augment_for_concept_sat(kb, parse(args[0]))
            elif kind == "subsumes":
                kb = services.augment_for_subsumption(kb, parse(args[0]), parse(args[1]))
            elif kind == "instance":
                kb = services.augment_for_instance(kb, args[0], parse(args[1]))
            bound = max(1, len(kb.individuals())) + 1
            if self.spans is not None:
                self.spans.query = -2 - len(self.outcomes)
            self.outcomes[question] = (
                self.alcnr.find_model_bounded(kb, bound, ORACLE_BUDGET), bound)
            if self.spans is not None:
                self.spans.query = -1
        return self.outcomes[question]


_CLI_ARITY = {"check-sat": 0, "concept-sat": 1, "subsumes": 2, "instance": 2}


def _cli_question(q) -> tuple:
    """The library question a CLI query asks: (kind, kb, args)."""
    command, _stdin, *rest = q.args
    kind = "kb-sat" if command == "check-sat" else command
    return (kind, q.kb, tuple(rest[:_CLI_ARITY[command]]))


def _truth(ans) -> bool:
    """Does the answer claim the question's KB reduction is satisfiable?"""
    if isinstance(ans, tuple):
        return ans[0] == "sat"
    return ans is False     # subsumes / instance: False iff the reduction is SAT


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_rank(n: int) -> int:
    """1-based rank of the tail: the highest rank that still has TAIL_BEYOND
    samples beyond it."""
    return max(1, n - TAIL_BEYOND)


def blocks(n: int, passes: int) -> list[range]:
    """Index ranges of consecutive whole passes, each holding at least
    MIN_BLOCK queries (the whole run if it holds fewer)."""
    per_pass = n // passes
    count = max(1, passes // max(1, math.ceil(MIN_BLOCK / per_pass)))
    cuts = [round(k * passes / count) * per_pass for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def end_to_end(run: Run, verdicts: Counter, queries, passes: int,
               setup_repeats: int) -> dict:
    lat = run.latencies
    n = len(lat)

    def by_latency(indices):
        return sorted(indices, key=lat.__getitem__)

    pooled, p50 = by_latency(range(n)), math.ceil(n / 2)
    # the block whose tail is the median of the blocks' tails
    tails = sorted((by_latency(b) for b in blocks(n, passes)),
                   key=lambda order: lat[order[tail_rank(len(order)) - 1]])
    block = tails[(len(tails) - 1) // 2]
    tail = tail_rank(len(block))
    pct = 100.0 * tail / len(block)
    for label, r, order in (("p50", p50, pooled), (f"tail p{pct:.2f}", tail, block)):
        near = [queries[order[i]].family for i in range(max(0, r - 3), min(len(order), r + 2))]
        print(f"rank  {label}  rank {r} of {len(order)}  {lat[order[r - 1]] * 1000:.3f} ms  "
              f"families at ranks {max(1, r - 2)}..{min(len(order), r + 2)}: {' '.join(near)}")
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "wall_s": (run.wall, "s"),
        "query_p50_ms": (lat[pooled[p50 - 1]] * 1000, "ms"),
        "query_tail_ms": (lat[block[tail - 1]] * 1000, "ms"),
        "decided_ratio": (verdicts["decided"] / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "query_tail_ms":
            extra = (f"  (p{pct:.2f} of each block of n={len(block)}, {TAIL_BEYOND} samples "
                     f"beyond; median of {len(tails)} block(s))")
        elif name == "query_p50_ms":
            extra = f"  (n={n})"
        elif name == "setup_s":
            extra = (f"  (median of {len(run.setup)} samples spread through the run, "
                     f"each the mean of {setup_repeats} load(s))")
        print(f"metric  {name:<14} {value:12.4f} {unit}{extra}")
    return metrics


def layer_metrics(spans, counts: Counter, n_queries: int, untraced: Run,
                  import_ms: float, calibration_ms: float) -> dict:
    import tracing
    self_s, calls, traced_s = spans.self_times()
    oracle_s = oracle_calls = 0
    for i in range(len(spans.start)):
        if spans.qid[i] <= -2 and spans.names[spans.name[i]] == "semantics.oracle":
            oracle_s += spans.end[i] - spans.start[i]
            oracle_calls += 1

    def ms(layer):
        return (self_s.get(layer, 0.0) * 1000, "ms")

    def n(layer):
        return (calls.get(layer, 0), "count")

    applications = sum(counts[f"applications.{r}"] for r in tracing.RULES)
    runs = calls.get("tableau.search", 0)
    layers_s = sum(v for k, v in self_s.items() if k != "bench.query")
    m = {
        "syntax.parse_ms": ms("syntax.parse"), "syntax.parse_calls": n("syntax.parse"),
        "syntax.simple_form_ms": ms("syntax.simple_form"),
        "constraints.translate_ms": ms("constraints.translate"),
        "constraints.translate_calls": n("constraints.translate"),
        "constraints.initial_constraints": (counts["initial_constraints"], "count"),
        "constraints.distinct_constraints": (counts["distinct_constraints"], "count"),
        "constraints.extend_ms": ms("constraints.extend"),
        "constraints.extend_calls": n("constraints.extend"),
        "constraints.substitute_ms": ms("constraints.substitute"),
        "constraints.substitute_calls": n("constraints.substitute"),
        "constraints.witness_ms": ms("constraints.witness"),
        "constraints.witness_calls": n("constraints.witness"),
        "tableau.runs": (runs, "count"),
        "tableau.search_self_ms": ms("tableau.search"),
        "tableau.select_ms": ms("tableau.select"),
        "tableau.select_calls": n("tableau.select"),
        "tableau.clash_check_ms": ms("tableau.clash_check"),
        "tableau.clash_check_calls": n("tableau.clash_check"),
        "tableau.applications": (applications, "count"),
    }
    for r in tracing.RULES:
        m[f"tableau.applications.{r}"] = (counts[f"applications.{r}"], "count")
    branches = counts["branches"]
    m.update({
        "tableau.branches": (branches, "count"),
        "tableau.clashes": (counts["clashes"], "count"),
        "tableau.blocked": (counts["blocked"], "count"),
        "tableau.guard_trips": (counts["guard_trips"], "count"),
        "tableau.completion_constraints": (counts["completion_constraints"], "count"),
        "tableau.clash_per_branch": (counts["clashes"] / branches if branches else 0.0, "ratio"),
        "canonical.extract_ms": ms("canonical.extract"),
        "canonical.selfcheck_ms": ms("canonical.selfcheck"),
        "semantics.is_model_ms": ms("semantics.is_model"),
        "semantics.oracle_ms": (oracle_s * 1000, "ms"),
        "semantics.oracle_calls": (oracle_calls, "count"),
        "services.self_ms": ms("services"),
        "services.runs_per_query": (runs / n_queries, "ratio"),
        "encodings.transform_ms": ms("encodings.transform"),
        "cli.self_ms": ms("cli"),
        "cli.commands": n("cli"),
        "bench.import_ms": (import_ms, "ms"),
        "bench.calibration_ms": (calibration_ms, "ms"),
        "bench.trace_overhead_ratio": (traced_s / sum(untraced.latencies), "ratio"),
        "bench.layer_coverage_ratio": (layers_s / traced_s, "ratio"),
    })
    print(f"traced    query time {traced_s * 1000:.1f} ms  layer self times "
          f"{layers_s * 1000:.1f} ms  untraced {sum(untraced.latencies) * 1000:.1f} ms")
    for name, (value, unit) in m.items():
        print(f"layer  {name:<34} {value:14.4f} {unit}")
    return m


# ---------------------------------------------------------------------------
# All workloads, each in its own process
# ---------------------------------------------------------------------------

def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    """Run one workload in a fresh process: (exit code, result object or
    None, inputs digest or None, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split("inputs-digest ")[1] for line in lines
                   if "inputs-digest " in line), None)
    try:
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, digest, proc.stdout, proc.stderr


def run_all(args, names) -> int:
    summary, worst = {}, 0
    for name in names:
        code, summary[name], _, out, err = bench(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stderr.write(err)
        worst = max(worst, code)
    print()
    metric_names = list(END_TO_END) if not args.trace else []
    if metric_names:
        print(f"{'metric':<16}" + "".join(f"{n:>18}" for n in names))
        for m in metric_names:
            row = [summary[n]["metrics"][m]["value"] if summary[n] else float("nan")
                   for n in names]
            print(f"{m + ' ' + END_TO_END[m]:<16}" + "".join(f"{v:18.4f}" for v in row))
    print(json.dumps({
        "correct": worst == 0 and all(s and s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values() if s),
        "failed": sum(s["failed"] for s in summary.values() if s),
        "metrics": {f"{n}/{k}": v for n, s in summary.items() if s
                    for k, v in s["metrics"].items()},
    }))
    return worst


if __name__ == "__main__":
    sys.exit(main())
