"""Self-test of the benchmark on a quick seed.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, that every traced
layer records at least one call in every workload, that per-layer self
times cover the traced query time to within a few percent, that trace
counts repeat exactly across two traced runs, that the input digest repeats
for a seed and changes with it, and that the benchmark refuses to run
without the sources.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
MIN_COVERAGE = 0.97

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every span name a traced run records, in every workload.
SPAN_NAMES = ("bench.query", *tracing.LAYERS, *tracing.METHODS)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    """(exit code, result object or None, inputs digest or None)"""
    return run.bench(workload, SEED, 1, trace, cwd)[:3]


def span_calls(workload: str) -> Counter:
    """Calls per span name in the spans file of the workload's last traced
    run: inside queries, and for semantics.oracle in the verdict checks."""
    names, arrays = tracing.read_spans(run.OUT / f"{workload}.spans")
    calls = Counter()
    for name, query in zip(arrays["name"], arrays["query"]):
        if query >= 0 or names[name] == "semantics.oracle":
            calls[names[name]] += 1
    return calls


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS  " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name, make in WORKLOADS.items():
        code, result, digest = bench(name, 0)
        expect(code == 0 and result is not None and result["correct"],
               f"{name}: untraced run exits 0 with correct verdicts")
        emitted = set(result["metrics"]) if result else set()
        expect(emitted == wanted[0], f"{name}: emits exactly the end-to-end metrics")

        traced = [bench(name, 1) for _ in range(2)]
        digests = {digest} | {d for _, _, d in traced}
        expect(len(digests) == 1 and None not in digests
               and make(SEED + 1, 1).digest() not in digests,
               f"{name}: input digest repeats across processes for a seed, "
               f"changes with the seed")
        expect(all(c == 0 and r is not None and r["correct"] for c, r, _ in traced),
               f"{name}: traced runs exit 0 with correct verdicts")
        if not all(r for _, r, _ in traced):
            continue
        calls = span_calls(name)
        silent = [s for s in SPAN_NAMES if not calls[s]]
        expect(not silent, f"{name}: every traced layer records calls {silent}")
        first, second = (r["metrics"] for _, r, _ in traced)
        expect(set(first) == wanted[1], f"{name}: emits exactly the per-layer metrics")
        coverage = first["bench.layer_coverage_ratio"]["value"]
        expect(coverage >= MIN_COVERAGE,
               f"{name}: layer self times cover {coverage:.4f} of the traced query time")
        counts = {k for k, v in first.items() if v["unit"] == "count"}
        differ = sorted(k for k in counts if first[k]["value"] != second[k]["value"])
        expect(not differ, f"{name}: trace counts repeat across two traced runs {differ}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("abox-scale", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None,
           "without the sources the benchmark exits nonzero and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
