"""corpusops benchmark: three CLI workloads and a per-layer traced run.

Run from the repository root:

    python3 bench/run.py --workload web-dedup --seed 1 --seconds 35 --trace 0

The benchmark writes seeded inputs into ``bench/work/``, then repeats
rounds of the workload's CLI stages (``python3 -m corpusops ...`` with
``PYTHONPATH=src``, one process at a time, each stage reading the previous
stage's output file) for about ``--seconds``.  Every round also
starts each stage once on empty input to time start-up.  The first
round's outputs are checked against the benchmark's own references; later
rounds must reproduce them byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics: per-stage CLI figures
from the first half of the time, and self times from an in-process pass
through the library's public functions, inside spans, in the second half.
The line is ``{"correct", "attempted", "failed", "metrics"}``.  Exit code
2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "records_per_s": "records/s", "peak_rss_mb": "MB"}
CLI_STAGES = ["dedup_exact", "dedup_near", "mix", "transform_topo", "transform_fim", "pack", "monitor"]
CLI_RSS = ["dedup_exact", "dedup_near"]
TRACED_TIMES = [
    "corpus.read", "corpus.write", "dedup.exact", "dedup.normalize", "dedup.shingle",
    "dedup.signature", "dedup.candidates", "dedup.cluster", "dedup.represent", "dedup.near",
    "mix.manifest", "transforms.topo", "transforms.fim", "packing.pack", "runwatch.monitor",
    "runwatch.webhook",
]
TRACED_COUNTS = {"dedup.candidate_pairs": "pairs", "dedup.confirm_ratio": "ratio", "packing.fill": "ratio"}
MIN_ROUNDS = 3


class Launcher:
    """Client of launcher.py, which starts each program process (see there)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, env: dict) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "env": env}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def stage_skips(stage, work: Path) -> int:
    """Records a stage reported as skipped instead of processed."""
    err = (work / f"{stage.key}.err").read_text(encoding="utf-8", errors="replace")
    skipped = sum(1 for line in err.splitlines() if line.startswith(("line ", "skipping ")))
    if stage.key == "pack":
        with open(work / stage.dst, "rb") as handle:
            last = handle.readlines()[-1]
        skipped += json.loads(last).get("docs_skipped", 0) - err.count("skipping empty document")
    return skipped


def run_stage(launcher: Launcher, env: dict, work: Path, stage, probe: bool = False) -> dict:
    """Start one stage; a probe runs it with its flags on empty input."""
    argv = stage.argv(work, src="empty.jsonl", dst="probe") if probe else stage.argv(work)
    name = "probe" if probe else stage.key
    return launcher.run([sys.executable, "-m", "corpusops", *argv],
                        work / f"{name}.out", work / f"{name}.err", env)


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


class Round:
    """One pass over the workload's stages plus one start-up probe per stage."""

    def __init__(self, workload, launcher: Launcher, env: dict, reference: dict):
        work = workload.work
        stages = workload.stages()
        self.stage_s: dict[str, float] = {}
        self.stage_rss_mb: dict[str, float] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        completed = []

        # The benchmark's own steps between stages are not the program's time.
        between_s = 0.0
        start = time.perf_counter()
        for stage in stages:
            if stage.before is not None:
                before = time.perf_counter()
                stage.before()
                between_s += time.perf_counter() - before
            reply = run_stage(launcher, env, work, stage)
            self.stage_s[stage.key] = reply["seconds"]
            self.stage_rss_mb[stage.key] = reply["maxrss_kb"] / 1024
            if reply["returncode"] != 0:
                self.errors.append(f"{stage.key} exited with {reply['returncode']}: "
                                   + (work / f"{stage.key}.err").read_text()[-500:])
                break
            completed.append(stage)
        self.wall_s = time.perf_counter() - start - between_s
        self.peak_rss_mb = max(self.stage_rss_mb.values())

        for stage in stages:
            records = count_lines(work / stage.src) if (work / stage.src).exists() else 0
            self.attempted += records
            self.failed += records if stage not in completed else stage_skips(stage, work)
        if len(completed) == len(stages):
            attempted, failed, errors = workload.after_round()
            self.attempted += attempted
            self.failed += failed
            self.errors += errors
            outputs = digest([work / name for stage in stages for name in stage.outputs()])
            if "digest" not in reference:
                reference["digest"] = outputs
                self.errors += workload.check()
            elif outputs != reference["digest"]:
                self.errors.append("a later round's outputs differ from the first round's")

        self.setup_s = sum(run_stage(launcher, env, work, stage, probe=True)["seconds"] for stage in stages)


def cli_rounds(workload, launcher: Launcher, env: dict, seconds: float) -> list[Round]:
    # One unmeasured start of each stage first: it compiles bytecode and
    # fills the file cache, a cost users pay once per install, not per run.
    for stage in workload.stages():
        run_stage(launcher, env, workload.work, stage, probe=True)
    reference: dict = {}
    rounds: list[Round] = []
    start = time.perf_counter()
    longest = 0.0
    # A round starts only if it can end before the deadline, so a run lasts
    # about ``seconds`` even when one round is a sizeable part of it.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + longest <= start + seconds:
        begun = time.perf_counter()
        rounds.append(Round(workload, launcher, env, reference))
        if len(rounds) > 1:  # the first round also runs the checks
            longest = max(longest, time.perf_counter() - begun)
        if rounds[-1].errors and "digest" not in reference:
            break  # a stage failed; more rounds would repeat the failure
    return rounds


def traced_rounds(workload, seconds: float) -> tuple[list[dict], list[dict], set, list[str], float]:
    """In-process passes inside spans: per-pass self times, counts, missing metrics."""
    from spans import Tracer, span_cost

    sys.path.insert(0, str(SRC))
    times, counts, errors = [], [], []
    missing: set = set()
    deadline = time.perf_counter() + seconds
    spans = 0
    while not times or time.perf_counter() < deadline:
        tracer, pass_counts = Tracer(), {}
        start = time.perf_counter()
        try:
            workload.traced(tracer, pass_counts, missing, errors)
        except Exception as exc:  # a fault in the program or the benchmark
            errors.append(f"traced pass raised {type(exc).__name__}: {exc}")
            deadline = 0.0  # the next pass would raise again
        pass_counts["traced_s"] = time.perf_counter() - start
        spans += len(tracer.spans)
        totals = tracer.self_times()
        times.append({name: self_s for name, (self_s, _) in totals.items()})
        pass_counts.update({f"items.{name}": items for name, (_, items) in totals.items()})
        counts.append(pass_counts)
    overhead_s = spans / len(times) * span_cost()
    return times, counts, missing, errors, overhead_s


def end_to_end(workload, rounds: list[Round]) -> dict:
    wall = statistics.median(r.wall_s for r in rounds)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "wall_s": wall,
        "records_per_s": workload.records / wall,
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }


def per_layer(rounds: list[Round], times: list[dict], counts: list[dict], missing: set) -> dict:
    metrics = {}
    for key in CLI_STAGES:
        values = [r.stage_s[key] for r in rounds if key in r.stage_s]
        metrics[f"cli.{key}_s"] = (statistics.median(values) if values else 0.0, "s")
    for key in CLI_RSS:
        values = [r.stage_rss_mb[key] for r in rounds if key in r.stage_rss_mb]
        metrics[f"cli.{key}_rss_mb"] = (max(values) if values else 0.0, "MB")
    for name in TRACED_TIMES:
        metrics[f"{name}_s"] = (statistics.median(t.get(name, 0.0) for t in times), "s")
    for name, unit in TRACED_COUNTS.items():
        metrics[name] = (statistics.median(c.get(name, 0) for c in counts), unit)
    return {name: value for name, value in metrics.items() if name not in missing}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corpusops" / "cli.py").is_file():
        print(f"error: no corpusops sources under {SRC}", file=sys.stderr)
        return 2

    launcher = Launcher()  # started first, while this process is still small
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        workload.generate()
        (work / "empty.jsonl").touch()
        workload.start()
        env = program_env()
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = env["no_proxy"]
        cli_seconds = args.seconds / 2 if args.trace else args.seconds
        rounds = cli_rounds(workload, launcher, env, cli_seconds)
        errors = [e for r in rounds for e in r.errors]
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        walls = [r.wall_s for r in rounds]
        print(f"{args.workload}: {workload.records} input records, {len(rounds)} rounds, wall_s "
              + " ".join(f"{w:.3f}" for w in walls))
        if args.trace:
            times, counts, missing, trace_errors, overhead_s = traced_rounds(workload, args.seconds - cli_seconds)
            errors += trace_errors
            attempted += sum(c.get("deliveries", 0) for c in counts)
            failed += sum(c.get("missed", 0) for c in counts)
            traced_s = statistics.median(c["traced_s"] for c in counts)
            print(f"trace: {len(times)} in-process passes of {traced_s:.3f} s, span overhead "
                  f"{overhead_s:.4f} s ({overhead_s / traced_s:.2%}); untraced CLI wall_s "
                  f"{statistics.median(walls):.3f} s")
            last_times, last_counts = times[-1], counts[-1]
            print("throughput: " + ", ".join(
                f"{name} {last_counts[f'items.{name}'] / last_times[name]:.4g}/s"
                for name in TRACED_TIMES if last_times.get(name)
            ))
            for note in dict.fromkeys(workload.notes):
                print(f"trace: {note}", file=sys.stderr)
            metrics = per_layer(rounds, times, counts, missing)
        else:
            metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(workload, rounds).items()}
    finally:
        workload.stop()
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
