"""Run the benchmark on several seeds and report, per metric, the median,
quartiles and quartile spread ((Q3 - Q1) / median) of the runs.

    python3 perfbench/steady.py --workload query_hot --seeds 1-10 [--trace 0]

Run from the root of a source checkout, like run.py. Each run measures for
BENCHMARK.json's run_seconds. With --trace 0 the table also has, marked
"record", values from the run records that are printed, not gated: the
p90s of the ops without a gated p90, the query cost-class margin, the host
factor and the query latencies as measured (before the host factor)."""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_values(record):
    # the query op's and the second op's p90s are gated metrics already
    out = {f"{op}.p90_ms": (s["p90_ms"], "ms") for op, s in record["per_op"].items()
           if s["p90_ms"] is not None and op not in ("query", record["second_op"])}
    if record["query_cost_classes"]:
        out["query.p50_class_margin"] = (record["query_cost_classes"]["p50_margin"], "share")
    out["host.factor"] = (record["host"]["factor"], "ratio")
    for name in ("query_p50_ms", "query_p90_ms"):
        out[f"{name}.as_measured"] = (record["metrics_as_measured"][name], "ms")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values, units, recorded = {}, {}, set()
    for seed in seeds_of(args.seeds):
        proc = subprocess.run([sys.executable, run_py, "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed: {result}")
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if not args.trace:
            extra = record_values(json.loads(lines[-2]))
            recorded |= set(extra)
            metrics.update(extra)
        for name, (v, unit) in metrics.items():
            values.setdefault(name, []).append(v)
            units[name] = unit
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, (v, _) in metrics.items()),
              flush=True)
    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs of {seconds}s")
    print(f"{'metric':24} {'unit':6} {'Q1':>10} {'median':>10} {'Q3':>10} {'spread':>8}")
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = perfstats.quartile_spread(vs) if q2 else float("nan")
        note = " record" if name in recorded else ""
        print(f"{name:24} {units[name]:6} {q1:10.4g} {q2:10.4g} {q3:10.4g} {spread:8.4f}{note}")


if __name__ == "__main__":
    main()
