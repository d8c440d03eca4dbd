"""Command-line front end: newline-delimited JSON in, same out.

Subcommands mirror the library modules:

  dedup-exact   Bloom-filter exact dedup of a record stream
  dedup-near    MinHash/LSH near-dedup; emits kept records + cluster report
  mix           mix manifest and sampling quotas from group statistics
  transform     fim / topo / qa document transforms
  pack          online best-fit packing of records into sequences
  monitor       loss-spike detection over {step, loss} records
  plan          hyperparameter plan and sampled schedule table
  evalstats     passk / mem evaluation statistics

Record streams default to stdin/stdout; use -i/-o for files.  Progress
and human-readable summaries go to stderr so pipelines stay clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, replace
from typing import IO, Any, Callable, Iterator

from corpusops import __version__
from corpusops.corpus import (
    Document,
    SourceClass,
    decode_line,
    parse_record,
    read_records,
    read_rows,
    word_count,
    write_records,
)

# Each command imports the rest of the library when it starts, so a stage
# loads only what it runs: numpy, for one, is imported by dedup-near
# alone.


@contextmanager
def _open_in(path: str | None) -> Iterator[IO[str]]:
    # An invalid byte decodes to a lone surrogate, so read_rows skips and
    # reports its line instead of the decoder aborting the stream.
    if path in (None, "-"):
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            yield handle


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _report_bad_line(err) -> None:
    print(f"line {err.line_number}: {err.message}", file=sys.stderr)


def _emit(obj: dict, stream: IO[str]) -> None:
    stream.write(json.dumps(obj, ensure_ascii=False))
    stream.write("\n")


def _row_parser(
    build: Callable[[Any], Any],
    needs: str,
    load: Callable[[str, int], Any] | None = None,
) -> Callable[[str, int], Any]:
    """A :func:`read_rows` parse function: ``build`` over each loaded line.

    Lines load with :func:`~corpusops.corpus.decode_line` unless ``load``
    is given.  A missing key, a wrong shape or an infinite number in
    ``build`` becomes a ``ValueError`` naming what the record needs.
    """

    def parse(line: str, line_number: int) -> Any:
        row = decode_line(line) if load is None else load(line, line_number)
        try:
            return build(row)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"record needs {needs} ({exc!r})") from None

    return parse


# ---------------------------------------------------------------------------
# dedup


def cmd_dedup_exact(args: argparse.Namespace) -> int:
    from corpusops.dedup import BloomConfig, exact_dedup

    config = BloomConfig(capacity=args.capacity, target_fpr=args.fpr)
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        docs = read_records(src, on_error=_report_bad_line)
        kept, stats = exact_dedup(docs, config)
        write_records(kept, dst)
    inserted = stats.seen - stats.dropped
    if inserted > config.capacity:
        print(
            f"warning: {inserted} distinct documents exceed --capacity "
            f"{config.capacity}; the false-positive rate climbed past --fpr "
            f"{config.target_fpr}, so unique documents may have been dropped "
            f"(see live_fpr)",
            file=sys.stderr,
        )
    _emit(asdict(stats), sys.stderr)  # seen, dropped, live_fpr
    return 0


def cmd_dedup_near(args: argparse.Namespace) -> int:
    from corpusops.dedup import NearDupConfig, NearDupStats, near_dedup

    config = NearDupConfig(
        num_perm=args.perms,
        bands=args.bands,
        rows=args.rows,
        confirm_threshold=args.threshold,
        perm_seed=args.seed,
    )
    # near_dedup needs unique ids: keep the first record of an id, and skip
    # and report a later one by its line number.
    first_line: dict[str, int] = {}

    def parse(line: str, line_number: int) -> Document:
        doc = parse_record(line, line_number)
        first = first_line.setdefault(doc.id, line_number)
        if first != line_number:
            raise ValueError(f"duplicate id {doc.id!r}, first on line {first}")
        return doc

    with _open_in(args.input) as src:
        docs = list(read_rows(src, parse, on_error=_report_bad_line))
    stats = NearDupStats()
    kept, clusters = near_dedup(docs, config, stats)
    with _open_out(args.output) as dst:
        write_records(kept, dst)
    sink = _open_out(args.clusters) if args.clusters else nullcontext(sys.stderr)
    with sink as dst:
        for record in clusters:
            _emit(
                {
                    "representative": record.representative,
                    "members": list(record.members),
                    "size": record.size,
                },
                dst,
            )
    counts = {"documents": len(docs), "kept": len(kept), "clusters": len(clusters)}
    _emit({**counts, **asdict(stats)}, sys.stderr)  # largest_bucket, confirmations
    return 0


# ---------------------------------------------------------------------------
# mix


def cmd_mix(args: argparse.Namespace) -> int:
    from corpusops.mix import DupBucket, GroupStat, build_manifest, sample_plan

    parse = _row_parser(
        lambda row: GroupStat(
            group=row["group"],
            tokens=int(row["tokens"]),
            bucket=DupBucket(row["bucket"]),
            source_class=SourceClass(row.get("source_class", "CommonCrawl")),
        ),
        '"group", integer "tokens" and "bucket"',
    )
    with _open_in(args.stats) as src:
        stats = list(read_rows(src, parse, on_error=_report_bad_line))
    manifest = build_manifest(stats)
    quotas = (
        sample_plan(manifest, args.target_tokens)
        if args.target_tokens is not None
        else None
    )
    with _open_out(args.output) as dst:
        for row in manifest.rows:
            record = {
                "group": row.group,
                "tokens": row.tokens,
                "weight": row.weight,
                "weighted_tokens": row.weighted_tokens,
                "proportion": row.proportion,
            }
            if quotas is not None:
                record["quota_tokens"] = quotas[row.group]
            _emit(record, dst)

    table = sys.stdout if args.output not in (None, "-") else sys.stderr
    header = f"{'group':<24} {'tokens':>14} {'w':>3} {'weighted':>14} {'share':>8}"
    print(header, file=table)
    print("-" * len(header), file=table)
    for row in manifest.rows:
        print(
            f"{row.group:<24} {row.tokens:>14} {row.weight:>3} "
            f"{row.weighted_tokens:>14} {row.proportion:>8.4f}",
            file=table,
        )
    return 0


# ---------------------------------------------------------------------------
# transforms


def cmd_transform_fim(args: argparse.Namespace) -> int:
    from corpusops.transforms import FimConfig, fim_transform

    config = FimConfig(rng_seed=args.seed, mode_psm_probability=args.psm_probability)
    rng = random.Random(args.seed)

    def transformed() -> Iterator[Document]:
        with _open_in(args.input) as src:
            for doc in read_records(src, on_error=_report_bad_line):
                try:
                    text = fim_transform(doc.text, config, rng)
                except ValueError as exc:
                    print(f"skipping {doc.id}: {exc}", file=sys.stderr)
                    continue
                yield replace(doc, text=text)

    with _open_out(args.output) as dst:
        write_records(transformed(), dst)
    return 0


def cmd_transform_topo(args: argparse.Namespace) -> int:
    from corpusops.transforms import RepoFile, build_dep_graph, concat_repo, topo_order

    # Input rows: {"repo": name, "files": [{"path":..., "text":...}, ...]}
    def repo_file(obj: dict) -> RepoFile:
        path, text = obj["path"], obj["text"]
        if not (isinstance(path, str) and isinstance(text, str)):
            raise ValueError('"path" and "text" of a file must be strings')
        return RepoFile(path, text)

    def concat(row: dict) -> dict:
        files = [repo_file(f) for f in row["files"]]
        order = topo_order(build_dep_graph(files), [f.path for f in files])
        by_path = {f.path: f for f in files}
        return {
            "id": str(row["repo"]),
            "text": concat_repo([by_path[p] for p in order]),
        }

    def load(line: str, line_number: int) -> Any:
        # A row without "repo", or with a null one, is named by its line,
        # as parse_record does.
        row = decode_line(line)
        if isinstance(row, dict) and row.get("repo") is None:
            row["repo"] = f"line-{line_number}"
        return row

    parse = _row_parser(concat, '"files" of {"path", "text"} objects', load=load)
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        for row in read_rows(src, parse, on_error=_report_bad_line):
            _emit(row, dst)
    return 0


def cmd_transform_qa(args: argparse.Namespace) -> int:
    from corpusops.transforms import append_qa

    # QA pairs ride on the record under "qa": [{"q":..., "a":...}, ...]
    def with_qa(doc: Document) -> Document:
        pairs = [(p["q"], p["a"]) for p in doc.extra.get("qa", [])]
        if not pairs:
            return doc
        return replace(
            doc,
            text=append_qa(doc.text, pairs),
            extra={k: v for k, v in doc.extra.items() if k != "qa"},
        )

    parse = _row_parser(with_qa, '"qa" of {"q", "a"} objects', load=parse_record)
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        write_records(read_rows(src, parse, on_error=_report_bad_line), dst)
    return 0


# ---------------------------------------------------------------------------
# pack


def _length_for(doc: Document, counter: str) -> int:
    if counter == "whitespace":
        return word_count(doc.text)
    field_name = counter.split(":", 1)[1]
    raw = doc.extra.get(field_name)
    if raw is None:
        raise ValueError(f"record {doc.id} is missing length field {field_name!r}")
    try:
        return int(raw)
    except (TypeError, OverflowError):
        raise ValueError(
            f"record {doc.id} has a non-integer {field_name!r}: {raw!r}"
        ) from None


def cmd_pack(args: argparse.Namespace) -> int:
    if args.count_with != "whitespace" and not args.count_with.startswith("field:"):
        raise SystemExit("--count-with must be 'whitespace' or 'field:<name>'")
    from corpusops.packing import PackInput, pack_online

    def parse(line: str, line_number: int) -> PackInput:
        doc = parse_record(line, line_number)
        return PackInput(id=doc.id, length=_length_for(doc, args.count_with))

    def inputs() -> Iterator[PackInput]:
        with _open_in(args.input) as src:
            for item in read_rows(src, parse, on_error=_report_bad_line):
                if item.length < 1:
                    print(f"skipping empty document {item.id}", file=sys.stderr)
                    continue
                yield item

    sequences, stats = pack_online(inputs(), args.capacity, args.max_open)
    with _open_out(args.output) as dst:
        for seq in sequences:
            _emit(
                {
                    "capacity": seq.capacity,
                    "entries": [{"id": i, "len": n} for i, n in seq.entries],
                    "padding": seq.padding,
                },
                dst,
            )
        _emit(
            {
                "sequences": stats.sequences,
                "docs_packed": stats.docs_packed,
                "docs_skipped": stats.docs_skipped,
                "truncation_ratio": stats.truncation_ratio,
                "padding_ratio": stats.padding_ratio,
            },
            dst,
        )
    return 0


# ---------------------------------------------------------------------------
# monitor


def _parse_tier(name: str, value: str) -> DetectorTier:
    from corpusops.runwatch import DetectorTier

    try:
        window, t_min, t_max = value.split(",")
        return DetectorTier(
            name=name, window=int(window), t_min=float(t_min), t_max=float(t_max)
        )
    except ValueError as exc:
        raise SystemExit(f"--{name} expects w,Tmin,Tmax (got {value!r}): {exc}")


def cmd_monitor(args: argparse.Namespace) -> int:
    from corpusops.runwatch import MonitorConfig, run_monitor

    def point(row: dict) -> tuple[int, float]:
        step, loss = row["step"], row["loss"]
        # JSON numbers only: int() and float() would also take true or "7.5".
        # The common types are tested first, so most rows convert nothing.
        if type(step) is not int:
            if type(step) is not float:
                raise TypeError(f"step {step!r}")
            step = int(step)
        if type(loss) is not float:
            if type(loss) is not int:
                raise TypeError(f"loss {loss!r}")
            loss = float(loss)
        if not math.isfinite(loss):
            raise ValueError(f'"loss" must be finite, got {loss}')
        return step, loss

    parse = _row_parser(point, 'numeric "step" and "loss"')
    config = MonitorConfig(
        alert=_parse_tier("alert", args.alert),
        restart=_parse_tier("restart", args.restart),
        checkpoint_interval=args.interval,
        total_steps=args.total_steps,
        webhook=args.webhook or os.environ.get("CORPUSOPS_WEBHOOK"),
    )

    with _open_in(args.input) as src, _open_out(args.output) as dst:
        metrics = read_rows(src, parse, on_error=_report_bad_line)
        for event in run_monitor(metrics, config):
            _emit(event.to_json(), dst)
    return 0


# ---------------------------------------------------------------------------
# plan


def _parse_schedule(value: str) -> Schedule:
    from corpusops.recipe import Schedule, ScheduleKind

    try:
        kind, peak, floor, warmup, total = value.split(",")
        return Schedule(
            kind=ScheduleKind(kind),
            peak=float(peak),
            floor=float(floor),
            warmup_steps=int(warmup),
            total_steps=int(total),
        )
    except ValueError as exc:
        raise SystemExit(
            f"--schedule expects kind,peak,floor,warmup,total (got {value!r}): {exc}"
        )


def cmd_plan(args: argparse.Namespace) -> int:
    if (args.wd is None) == (args.tau is None):
        raise SystemExit("give exactly one of --wd or --tau")
    from corpusops.recipe import build_plan, lr_at, scale_tau

    tau_target = args.tau
    if tau_target is not None and args.tpp_ref and args.tpp_target:
        tau_target = scale_tau(tau_target, args.tpp_ref, args.tpp_target)

    schedule = _parse_schedule(args.schedule) if args.schedule else None
    plan = build_plan(
        batch_tokens=args.batch_tokens,
        lr=args.lr,
        total_tokens=args.tokens,
        weight_decay=args.wd,
        tau_target=tau_target,
        params=args.params,
        schedule=schedule,
    )
    with _open_out(args.output) as dst:
        record = {
            "batch_tokens": plan.batch_tokens,
            "lr": plan.lr,
            "weight_decay": plan.weight_decay,
            "total_tokens": plan.total_tokens,
            "steps": plan.steps,
            "tau_epoch": plan.tau,
        }
        if plan.params is not None:
            record["params"] = plan.params
            record["tokens_per_parameter"] = plan.tokens_per_parameter
        _emit(record, dst)
        if schedule is not None:
            points = 11
            for i in range(points):
                step = round(i * schedule.total_steps / (points - 1))
                _emit({"step": step, "lr": lr_at(step, schedule)}, dst)
    return 0


# ---------------------------------------------------------------------------
# evalstats


def cmd_evalstats_passk(args: argparse.Namespace) -> int:
    from corpusops.evalstats import pass_at_k

    print(f"{pass_at_k(args.n, args.c, args.k):.10g}")
    return 0


def cmd_evalstats_mem(args: argparse.Namespace) -> int:
    from corpusops.evalstats import SentencePair, memorization_rate

    def pair(row: dict) -> SentencePair:
        reference, generated = row["reference"], row["generated"]
        if not (isinstance(reference, str) and isinstance(generated, str)):
            raise ValueError('"reference" and "generated" must be strings')
        return SentencePair(reference=reference, generated=generated)

    parse = _row_parser(pair, '"reference" and "generated"')
    with _open_in(args.pairs) as src:
        pairs = list(read_rows(src, parse, on_error=_report_bad_line))
    print(f"{memorization_rate(pairs):.10g}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpusops",
        description="corpus curation and training-run operations toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("dedup-exact", help="Bloom-filter exact dedup")
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--fpr", type=float, default=0.001)
    add_io(p)
    p.set_defaults(func=cmd_dedup_exact)

    p = sub.add_parser("dedup-near", help="MinHash/LSH near dedup")
    p.add_argument(
        "--perms", type=int, default=128, help="signature length (MinHash bins)"
    )
    p.add_argument("--bands", type=int, default=16)
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--clusters", default=None, help="cluster report path (default: stderr)"
    )
    add_io(p)
    p.set_defaults(func=cmd_dedup_near)

    p = sub.add_parser("mix", help="mix manifest from group stats")
    p.add_argument("--stats", required=True, help="group stats records path")
    p.add_argument("--target-tokens", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("transform", help="document transforms")
    mode = p.add_subparsers(dest="mode", required=True)
    fim = mode.add_parser("fim", help="fill-in-the-middle rearrangement")
    fim.add_argument("--seed", type=int, default=0)
    fim.add_argument("--psm-probability", type=float, default=0.5)
    add_io(fim)
    fim.set_defaults(func=cmd_transform_fim)
    topo = mode.add_parser("topo", help="repository topological concatenation")
    add_io(topo)
    topo.set_defaults(func=cmd_transform_topo)
    qa = mode.add_parser("qa", help="append QA pairs to documents")
    add_io(qa)
    qa.set_defaults(func=cmd_transform_qa)

    p = sub.add_parser("pack", help="online best-fit sequence packing")
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--max-open", type=int, default=64)
    p.add_argument(
        "--count-with",
        default="whitespace",
        help="'whitespace' or 'field:<name>' for precomputed lengths",
    )
    add_io(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("monitor", help="loss-spike monitor")
    p.add_argument("--total-steps", type=int, required=True)
    p.add_argument("--alert", required=True, help="w,Tmin,Tmax")
    p.add_argument("--restart", required=True, help="w,Tmin,Tmax")
    p.add_argument("--interval", type=int, required=True, help="checkpoint interval")
    p.add_argument(
        "--webhook",
        default=None,
        help="notification endpoint (or set CORPUSOPS_WEBHOOK)",
    )
    add_io(p)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("plan", help="hyperparameter plan")
    p.add_argument("--batch-tokens", type=float, required=True)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--tokens", type=float, required=True)
    p.add_argument("--wd", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--tpp-ref", type=float, default=None)
    p.add_argument("--tpp-target", type=float, default=None)
    p.add_argument("--params", type=float, default=None)
    p.add_argument("--schedule", default=None, help="kind,peak,floor,warmup,total")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("evalstats", help="evaluation statistics")
    metric = p.add_subparsers(dest="metric", required=True)
    passk = metric.add_parser("passk", help="unbiased pass@k")
    passk.add_argument("--n", type=int, required=True)
    passk.add_argument("--c", type=int, required=True)
    passk.add_argument("--k", type=int, required=True)
    passk.set_defaults(func=cmd_evalstats_passk)
    mem = metric.add_parser("mem", help="sentence-level memorization rate")
    mem.add_argument("--pairs", required=True, help="sentence-pair records path")
    mem.set_defaults(func=cmd_evalstats_mem)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
