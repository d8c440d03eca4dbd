"""Reference figures for bench/README.md: two sets of ten seeds, plus traces.

Run from the repository root (about 45 minutes on a 2-core host):

    python3 bench/report.py > report.md

It makes two sets of runs.  Each set runs ``bench/run.py`` once per seed
1-10 on every workload with ``--trace 0`` and prints, per end-to-end
metric, the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the quartile spread as a share of the median.  It
then compares the two sets: how far the second median is worse than the
first, against the metric's bound.  Last, it runs one traced run per
workload (seed 1) and prints the per-layer figures and layer throughputs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1]), lines[:-1]


def one_set(number: int) -> dict:
    """Ten untraced runs per workload: {workload: {metric: values}}, printed."""
    print(f"### Set {number}: {len(SEEDS)} runs of {SPEC['run_seconds']} s per workload\n")
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    per_run, values = [], {}
    for workload in WORKLOADS:
        metrics: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result, _ = run(workload, seed, 0)
            if not result["correct"]:
                print(f"| {workload} | seed {seed} failed its checks | | | | | | |")
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
        values[workload] = metrics
        per_run.append(f"- `{workload}`: " + ", ".join(
            f"{name} " + " ".join(f"{v:.3g}" for v in vals) for name, vals in metrics.items()
        ))
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"| {workload} | {name} | {median:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / median:.1%} | {METRICS[name]['bound']:.0%} | {failed}/{attempted} |")
        sys.stdout.flush()
    print(f"\nEvery run of set {number}, in seed order:\n")
    print("\n".join(per_run) + "\n")
    return values


def compare(first: dict, second: dict) -> None:
    """Per metric: second median against the first, and both spreads, against the bound."""
    print("### The two sets compared\n")
    print("'worse by' is how much the second median is worse than the first, as a share of the "
          "first; a negative figure means it is better. The spreads must stay within the bound "
          "(setup_s excepted), and 'worse by' must too.\n")
    print("| workload | metric | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | within |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in WORKLOADS:
        for name, metric in METRICS.items():
            a, b = first[workload][name], second[workload][name]
            (q1a, ma, q3a), (q1b, mb, q3b) = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            spreads = ((q3a - q1a) / ma, (q3b - q1b) / mb)
            bound = metric["bound"]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            print(f"| {workload} | {name} | {ma:.4g} | {mb:.4g} | {worse:+.1%} | {spreads[0]:.1%} | "
                  f"{spreads[1]:.1%} | {bound:.0%} | {'yes' if ok else 'NO'} |")
    print()


def main() -> int:
    first = one_set(1)
    second = one_set(2)
    compare(first, second)

    print(f"### Per layer, one traced run per workload (seed {TRACE_SEED})\n")
    for workload in WORKLOADS:
        result, info = run(workload, TRACE_SEED, 1)
        print("; ".join(info) + "\n")
        print("| metric | value | unit |")
        print("| --- | --- | --- |")
        for name, metric in result["metrics"].items():
            if metric["value"]:
                print(f"| {name} | {metric['value']:.4g} | {metric['unit']} |")
        print()
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
