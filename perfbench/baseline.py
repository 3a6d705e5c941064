"""Record the benchmark's baseline: ten seeds per workload, untraced, and
one traced run per workload.

    python3 perfbench/baseline.py

Run from the repository root.  Each run is a fresh process, as the benchmark
requires.  For every end-to-end metric the script prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median.  It writes all values, and
the per-layer metrics of the traced runs, to perfbench/baseline.json.  It
exits 1 if a run fails, or if a spread exceeds the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)

sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Cases too slow to repeat in a run at the seed commit; a later change can
# add them to a workload once they are fast.
LEFT_OUT = [
    {"case": "EX21 TBox + 2 teachers, instance_of(t_0, Student)",
     "today": "UNKNOWN max-branches after 14-17 s"},
    {"case": "EX21 TBox + teachers, instance_of(t_0, (some DEGREE BS))",
     "today": "22-90 s before UNKNOWN"},
    {"case": "(instance a (atleast 1200 R))",
     "today": "UNKNOWN max-variables after 16 s"},
    {"case": "random-mix KBs with up to two inclusions, as the test suite's "
             "generator draws them (the workload draws at most one).  2 of 29,696 "
             "such KBs ran into max-branches after seconds, for example "
             "concept-sat of (not (and BOTTOM C)) on this KB",
     "kb": "(implies (atmost 2 S) (all S (atmost 2 S)))\n"
           "(implies (all S (atmost 3 S)) (and (some S (some R TOP)) "
           "(all S (some S C))))\n"
           "(related b b S)\n(instance b (atmost 2 S))\n(instance b (atmost 1 R))\n"
           "(instance a (all S (not C)))\n",
     "today": "UNKNOWN max-branches after 3.1-3.4 s under the suite's guards "
              "(kb-sat: 1.6 s); a run meeting one or two such KBs moved its "
              "wall time by half"},
]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    code, result, digest, _, err = run.bench(workload, seed, seconds, trace)
    if code != 0 or result is None:
        sys.stderr.write(err)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {code}")
    result["inputs_digest"] = digest
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "note": "shared, unpinned"},
        "run_seconds": seconds, "workloads": {}, "left_out": LEFT_OUT,
    }
    over = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, seconds, 0) for seed in SEEDS]
        traced = bench(name, SEEDS[0], seconds, 1)
        e2e = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        record["workloads"][name] = {
            "seeds": list(SEEDS),
            "inputs_digests": [r["inputs_digest"] for r in runs],
            "end_to_end": e2e,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for m, s in e2e.items():
            flag = ""
            if s["spread"] > bounds[m]:
                flag = "  OVER BOUND"
                over.append(f"{name}/{m}")
            print(f"{name:<15} {m:<14} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:.3f} (bound {bounds[m]}){flag}",
                  flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    if over:
        print("spread over bound: " + ", ".join(over))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
