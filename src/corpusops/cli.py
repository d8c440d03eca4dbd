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

Record streams default to stdin/stdout; use -i/-o for files.  No file a
command writes (-o, --clusters, stdout without -o) may be a file it reads
(-i, --stats, --pairs, stdin without -i) or another that it writes, and
stderr may not be a file it reads.
Progress and human-readable summaries go to stderr so pipelines stay clean.
A record a command cannot use is skipped and reported on stderr as
``line N: <reason>``; a bad flag value, or a file refused above, exits 2
with an error line before any input is read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, replace
from functools import partial
from typing import IO, Any, Callable, Iterator

from corpusops import __version__
from corpusops.corpus import (
    _INPUT_TEXT,
    Document,
    SourceClass,
    decode_line,
    document_to_json,
    line_id,
    parse_record,
    read_rows,
    word_count,
    write_records,
)

# Each command imports the rest of the library when it starts, so a stage
# loads only what it runs: numpy, for one, is imported by dedup-near
# alone.


@contextmanager
def _open_in(path: str | None) -> Iterator[IO[str]]:
    """``path`` opened for reading as main() set up stdin; stdin for None or ``-``."""
    if path in (None, "-"):
        yield sys.stdin
    else:
        with open(path, "r", **_INPUT_TEXT) as handle:
            yield handle


@contextmanager
def _rereadable(stream: IO[str]) -> Iterator[Callable[[], IO[str]]]:
    """``reread``: each ``reread()`` gives the stream's lines anew.

    A seekable stream (a file, ``< file``) is read again from where it
    stood, so each read is a pass over the input and nothing is read in
    advance.  Any other (a pipe, ``-i <(zcat ...)``) has its bytes copied,
    undecoded, to an anonymous temporary file in $TMPDIR, which is read
    instead, decoded as every record stream is, and removed at exit.
    """
    if stream.seekable():
        lines, start = nullcontext(stream), stream.tell()
    else:
        import shutil
        import tempfile

        start = 0
        lines = tempfile.TemporaryFile("w+", **_INPUT_TEXT)
    with lines as handle:
        if handle is not stream:
            shutil.copyfileobj(stream.buffer, handle.buffer)

        def reread() -> IO[str]:
            handle.seek(start)
            return handle

        yield reread


@contextmanager
def _open_out(path: str | None, stream: IO[str] | None = None) -> Iterator[IO[str]]:
    """``path`` opened for writing; ``stream``, else stdout, for None or ``-``."""
    if path in (None, "-"):
        yield stream or sys.stdout
        return
    handle = open(path, "w", encoding="utf-8")
    try:
        yield handle
    except BaseException:
        # After a failed write, close() fails again on the same buffered
        # bytes (and still releases the descriptor): report the first error.
        with suppress(OSError):
            handle.close()
        raise
    handle.close()


def _file_key(path: str | None, stream: str | None) -> tuple[int, int] | str | None:
    """(device, inode) of ``path``, or for None or ``-`` of ``sys.<stream>``.

    None for all but a regular file (/dev/null, a pipe, a tty, a stream
    without a descriptor) and for ``stream`` None, which a report flag left
    to stderr gives; a path not made yet is resolved instead.
    """
    if path not in (None, "-"):
        try:
            status = os.stat(path)
        except FileNotFoundError:
            return os.path.realpath(path)
    elif stream is None:
        return None
    else:
        try:  # the stream as it stands now, not as it was when the parser was built
            status = os.fstat(getattr(sys, stream).fileno())
        except (AttributeError, OSError, ValueError):  # no descriptor
            return None
    return (status.st_dev, status.st_ino) if stat.S_ISREG(status.st_mode) else None


# Kinds of file flag, as (writes, the stream "-" or an omitted flag stands
# for): a source reads stdin, a sink writes stdout, a report writes stderr.
_SOURCE, _SINK, _REPORT = (False, "stdin"), (True, "stdout"), (True, None)


def _add_file(p: argparse.ArgumentParser, kind: tuple, *flags: str, **kwargs) -> None:
    """Add a file flag to ``p`` and declare it as (flag, dest, *kind) in ``files``.

    A command declares the files it reads before those it writes.  With no
    ``flags``, it declares a stream that it always writes.
    """
    flag = flags[0] if flags else ""
    dest = p.add_argument(*flags, default=None, **kwargs).dest if flags else ""
    p.set_defaults(files=(*(p.get_default("files") or ()), (flag, dest, *kind)))


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse a file a command writes that is its input or another output.

    Opening an output for writing empties it: the input before a line of
    it is read, or an output written earlier.  Stdout or stderr on the
    input is emptied by the shell (``< f > f``) or grows while read
    (``< f 2>> f``); stderr is checked against inputs only (``> f 2>&1``).
    """
    taken: dict[object, str] = {}  # "the input file", or "also <label>"
    for flag, dest, writes, stream in args.files:
        path = vars(args)[dest] if flag else None
        label = stream if path in (None, "-") else f"{flag} {path}"
        key = _file_key(path, stream)
        if key is None or taken.get(key) == f"also {label}":  # one stream, twice
            continue
        if key in taken:
            raise ValueError(f"{label} is {taken[key]}; write to another file")
        taken[key] = f"also {label}" if writes else "the input file"
    if taken.get(_file_key(None, "stderr")) == "the input file":
        raise ValueError("stderr is the input file; write to another file")


def _report_bad_line(err) -> None:
    print(f"line {err.line_number}: {err.message}", file=sys.stderr)


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


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], bound: str):
    """An argparse ``type=``: ``convert`` the text, then refuse a value not ``ok``.

    argparse names the flag in the error; the library's configs keep
    their own checks for library callers.
    """

    def parse(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


_POSITIVE = _checked(int, lambda n: n >= 1, ">= 1")
_NATURAL = _checked(int, lambda n: n >= 0, ">= 0")
_ABOVE_ZERO = _checked(float, lambda x: x > 0, "> 0")
_OPEN_UNIT = _checked(float, lambda x: 0 < x < 1, "in (0, 1)")
_UNIT = _checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")


# ---------------------------------------------------------------------------
# dedup


def cmd_dedup_exact(args: argparse.Namespace) -> int:
    from corpusops._split import split_rows
    from corpusops.dedup.bloom import BloomConfig, content_digest, first_occurrences

    # A kept record is written as read, but one named by its line number
    # is encoded, so that its id survives the lines dropped before it.
    def parse(line: str, line_number: int) -> tuple[bytes, str]:
        doc = parse_record(line, line_number)
        if doc.id == line_id(line_number):
            line = json.dumps(document_to_json(doc), ensure_ascii=False)
        return content_digest(doc.text), line

    config = BloomConfig(capacity=args.capacity, target_fpr=args.fpr)
    with (
        _open_in(args.input) as src,
        split_rows(src, parse, _report_bad_line) as rows,
        _open_out(args.output) as dst,
    ):
        kept, stats = first_occurrences(rows, config)
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
    write_records([asdict(stats)], sys.stderr)  # seen, dropped, live_fpr
    return 0


def cmd_dedup_near(args: argparse.Namespace) -> int:
    from corpusops.dedup.pipeline import (
        NearDupConfig,
        NearDupStats,
        cluster_outcome,
        near_clusters,
    )

    if args.bands * args.rows != args.perms:
        args.error(f"argument --perms: must equal --bands * --rows = {args.bands * args.rows}, "
                   f"got {args.perms}")
    config = NearDupConfig(num_perm=args.perms, bands=args.bands, rows=args.rows,
                           confirm_threshold=args.threshold, perm_seed=args.seed)
    # Ids must be unique: keep the first record of an id, and skip and
    # report a later one by its line number.  The kept ids, in line order,
    # are all the second pass needs to find the records again.
    first_line: dict[str, int] = {}

    def parse(line: str, line_number: int) -> Document:
        doc = parse_record(line, line_number)
        first = first_line.setdefault(doc.id, line_number)
        if first != line_number:
            raise ValueError(f"duplicate id {doc.id!r}, first on line {first}")
        return doc

    stats = NearDupStats()
    with _open_in(args.input) as src, _rereadable(src) as reread:
        # Pass 1 keeps each record's band keys, confirm sketch and ranking
        # fields, no text.
        records = read_rows(reread(), parse, on_error=_report_bad_line)
        clusters = near_clusters(records, config, stats)
        drop, promote = cluster_outcome(clusters)

        def kept() -> Iterator[Document | str]:
            # Pass 2 writes kept lines as read.  A representative is encoded
            # with its new dup_count, as is a record named by its line.
            accepted = iter(first_line.items())
            doc_id, at = next(accepted, ("", 0))
            for line_number, line in enumerate(reread(), start=1):
                if line_number != at:
                    continue
                if doc_id in drop:
                    pass
                elif doc_id in promote or doc_id == line_id(line_number):
                    doc = parse_record(line, line_number)
                    yield replace(doc, dup_count=promote.get(doc_id, doc.dup_count))
                else:
                    yield line
                doc_id, at = next(accepted, ("", 0))

        with _open_out(args.output) as dst:
            written = write_records(kept(), dst)
    with _open_out(args.clusters, sys.stderr) as dst:
        write_records(({"representative": record.representative,
                        "members": list(record.members),
                        "size": record.size} for record in clusters), dst)
    counts = {"documents": len(first_line), "kept": written, "clusters": len(clusters)}
    write_records([{**counts, **asdict(stats)}], sys.stderr)  # largest_bucket, confirmations
    return 0


# ---------------------------------------------------------------------------
# mix


def cmd_mix(args: argparse.Namespace) -> int:
    from corpusops.mix import DupBucket, GroupStat, build_manifest, sample_plan

    parse = _row_parser(
        lambda row: GroupStat(
            group=row["group"],
            tokens=row["tokens"],
            bucket=DupBucket(row["bucket"]),
            source_class=SourceClass(row.get("source_class", "CommonCrawl")),
        ),
        '"group", integer "tokens" and "bucket"',
    )
    first_line: dict[str, int] = {}  # a group's first row is kept, a later one reported

    def unique(line: str, line_number: int) -> GroupStat:
        stat = parse(line, line_number)
        first = first_line.setdefault(stat.group, line_number)
        if first != line_number:
            raise ValueError(f"duplicate group {stat.group!r}, first on line {first}")
        return stat

    with _open_in(args.stats) as src:
        stats = list(read_rows(src, unique, on_error=_report_bad_line))
    manifest = build_manifest(stats)
    quotas = (
        sample_plan(manifest, args.target_tokens)
        if args.target_tokens is not None
        else None
    )
    with _open_out(args.output) as dst:
        write_records(({
            "group": row.group,
            "tokens": row.tokens,
            "weight": row.weight,
            "weighted_tokens": row.weighted_tokens,
            "proportion": row.proportion,
            **({} if quotas is None else {"quota_tokens": quotas[row.group]}),
        } for row in manifest.rows), dst)

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
    rng = random.Random(config.rng_seed)

    # fim_transform checks the text before it draws from rng: a skip moves no cut.
    def parse(line: str, line_number: int) -> Document:
        doc = parse_record(line, line_number)
        return replace(doc, text=fim_transform(doc.text, config, rng))

    with _open_in(args.input) as src, _open_out(args.output) as dst:
        write_records(read_rows(src, parse, on_error=_report_bad_line), dst)
    return 0


def cmd_transform_topo(args: argparse.Namespace) -> int:
    from corpusops._split import split_rows
    from corpusops.transforms import RepoFile, build_dep_graph, concat_repo, topo_order

    # Input rows: {"repo": name, "files": [{"path":..., "text":...}, ...]}
    def repo_file(obj: dict) -> RepoFile:
        path, text = obj["path"], obj["text"]
        if not (isinstance(path, str) and isinstance(text, str)):
            raise ValueError('"path" and "text" of a file must be strings')
        return RepoFile(path, text)

    def concat(row: dict) -> str:
        files = [repo_file(f) for f in row["files"]]
        order = topo_order(build_dep_graph(files), [f.path for f in files])
        by_path = {f.path: f for f in files}
        repo = row["repo"]  # a non-string is named by its JSON text, as an id is
        return json.dumps({
            "id": repo if isinstance(repo, str) else json.dumps(repo, ensure_ascii=False),
            "text": concat_repo([by_path[p] for p in order]),
        }, ensure_ascii=False) + "\n"

    def load(line: str, line_number: int) -> Any:
        # A row without "repo", or with a null one, is named by its line,
        # as parse_record does.
        row = decode_line(line)
        if isinstance(row, dict) and row.get("repo") is None:
            row["repo"] = line_id(line_number)
        return row

    parse = _row_parser(concat, '"files" of {"path", "text"} objects', load=load)
    with (
        _open_in(args.input) as src,
        split_rows(src, parse, _report_bad_line) as rows,
        _open_out(args.output) as dst,
    ):
        write_records(rows, dst)
    return 0


def cmd_transform_qa(args: argparse.Namespace) -> int:
    from corpusops._split import split_rows
    from corpusops.transforms import append_qa

    # QA pairs ride on the record under "qa": [{"q":..., "a":...}, ...]
    def with_qa(doc: Document) -> str:
        pairs = [(p["q"], p["a"]) for p in doc.extra.get("qa", [])]
        if pairs:
            doc = replace(
                doc,
                text=append_qa(doc.text, pairs),
                extra={k: v for k, v in doc.extra.items() if k != "qa"},
            )
        return json.dumps(document_to_json(doc), ensure_ascii=False) + "\n"

    parse = _row_parser(with_qa, '"qa" of {"q", "a"} objects', load=parse_record)
    with (
        _open_in(args.input) as src,
        split_rows(src, parse, _report_bad_line) as rows,
        _open_out(args.output) as dst,
    ):
        write_records(rows, dst)
    return 0


# ---------------------------------------------------------------------------
# pack


def _length_counter(counter: str) -> Callable[[Document], int]:
    """``--count-with``: a record's length as its word count or a field."""
    if counter == "whitespace":
        return lambda doc: word_count(doc.text)
    if not counter.startswith("field:"):
        raise argparse.ArgumentTypeError(
            f"expects 'whitespace' or 'field:<name>' (got {counter!r})")
    field_name = counter[len("field:"):]

    def length(doc: Document) -> int:
        raw = doc.extra.get(field_name)
        if raw is None:
            raise ValueError(f"record {doc.id} is missing length field {field_name!r}")
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ValueError(f"record {doc.id} has a non-integer {field_name!r}: {raw!r}")
        return raw

    return length


def cmd_pack(args: argparse.Namespace) -> int:
    from corpusops._split import split_rows
    from corpusops.packing import PackInput, pack_online

    # PackInput rejects an empty document (length 0) like any bad record.
    def parse(line: str, line_number: int) -> tuple[str, int]:
        doc = parse_record(line, line_number)
        item = PackInput(id=doc.id, length=args.count_with(doc))
        return item.id, item.length

    with _open_in(args.input) as src, split_rows(src, parse, _report_bad_line) as rows:
        sequences, stats = pack_online(
            (PackInput(*row) for row in rows), args.capacity, args.max_open
        )

        def lines() -> Iterator[dict]:  # the stats line last: the sequences fill it in
            for seq in sequences:
                entries = [{"id": i, "len": n} for i, n in seq.entries]
                yield dict(capacity=seq.capacity, entries=entries, padding=seq.padding)
            names = ("sequences", "docs_packed", "docs_skipped", "truncation_ratio", "padding_ratio")
            yield {name: getattr(stats, name) for name in names}

        with _open_out(args.output) as dst:
            write_records(lines(), dst)
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
        raise argparse.ArgumentTypeError(f"expects w,Tmin,Tmax (got {value!r}): {exc}")


def cmd_monitor(args: argparse.Namespace) -> int:
    from corpusops.runwatch import MonitorConfig, run_monitor

    last_step = -1  # steps start at 0; a log replayed after a rollback repeats steps

    def point(row: dict) -> tuple[int, float]:
        nonlocal last_step
        step, loss = row["step"], row["loss"]
        # JSON numbers only: int() and float() would also take true or "7.5",
        # and int() would cut 2.5 to 2.  The common types are tested first,
        # so most rows convert nothing.
        if type(step) is not int:
            if type(step) is not float or not step.is_integer():
                raise TypeError(f"step {step!r}")
            step = int(step)
        if type(loss) is not float:
            if type(loss) is not int:
                raise TypeError(f"loss {loss!r}")
            loss = float(loss)
        if not math.isfinite(loss):
            raise ValueError(f'"loss" must be finite, got {loss}')
        if step <= last_step:
            if step < 0:
                raise ValueError(f'"step" must be >= 0, got {step}')
            raise ValueError(f"steps must be strictly increasing: {step} after {last_step}")
        last_step = step
        return step, loss

    parse = _row_parser(point, 'integer-valued "step" and numeric "loss"')
    config = MonitorConfig(
        alert=args.alert,
        restart=args.restart,
        checkpoint_interval=args.interval,
        total_steps=args.total_steps,
        webhook=args.webhook or os.environ.get("CORPUSOPS_WEBHOOK"),
    )

    with _open_in(args.input) as src, _open_out(args.output) as dst:
        metrics = read_rows(src, parse, on_error=_report_bad_line)
        write_records((event.to_json() for event in run_monitor(metrics, config)), dst)
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
        raise argparse.ArgumentTypeError(
            f"expects kind,peak,floor,warmup,total (got {value!r}): {exc}"
        )


def cmd_plan(args: argparse.Namespace) -> int:
    from corpusops.recipe import build_plan, lr_at, scale_tau

    tau_target = args.tau
    if args.tpp_ref is not None or args.tpp_target is not None:
        if None in (tau_target, args.tpp_ref, args.tpp_target):
            flag = "--tpp-ref" if args.tpp_ref is not None else "--tpp-target"
            args.error(f"argument {flag}: scales --tau, so needs --tau, --tpp-ref and --tpp-target")
        tau_target = scale_tau(tau_target, args.tpp_ref, args.tpp_target)

    plan = build_plan(
        batch_tokens=args.batch_tokens,
        lr=args.lr,
        total_tokens=args.tokens,
        weight_decay=args.wd,
        tau_target=tau_target,
        params=args.params,
    )
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
    rows = [record]
    if args.schedule is not None:  # the rate at 11 evenly spaced steps
        steps = (round(i * args.schedule.total_steps / 10) for i in range(11))
        rows += ({"step": step, "lr": lr_at(step, args.schedule)} for step in steps)
    with _open_out(args.output) as dst:
        write_records(rows, dst)
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
        _add_file(p, _SOURCE, "-i", "--input", help="input path (default stdin)")
        _add_file(p, _SINK, "-o", "--output", help="output path (default stdout)")

    p = sub.add_parser("dedup-exact", help="Bloom-filter exact dedup")
    p.add_argument("--capacity", type=_POSITIVE, required=True)
    p.add_argument("--fpr", type=_OPEN_UNIT, default=0.001)
    add_io(p)
    p.set_defaults(func=cmd_dedup_exact)

    p = sub.add_parser("dedup-near", help="MinHash/LSH near dedup")
    p.add_argument(
        "--perms", type=_POSITIVE, default=128, help="signature length (MinHash bins)"
    )
    p.add_argument("--bands", type=_POSITIVE, default=16)
    p.add_argument("--rows", type=_POSITIVE, default=8)
    p.add_argument("--threshold", type=_OPEN_UNIT, default=0.8)
    p.add_argument("--seed", type=_NATURAL, default=0)
    add_io(p)
    _add_file(p, _REPORT, "--clusters", help="cluster report path (default: stderr)")
    p.set_defaults(func=cmd_dedup_near, error=p.error)

    p = sub.add_parser("mix", help="mix manifest from group stats")
    _add_file(p, _SOURCE, "--stats", required=True, help="group stats records path")
    p.add_argument("--target-tokens", type=_NATURAL, default=None)
    _add_file(p, _SINK, "-o", "--output")
    _add_file(p, _SINK)  # the table, when -o is given
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("transform", help="document transforms")
    mode = p.add_subparsers(dest="mode", required=True)
    fim = mode.add_parser("fim", help="fill-in-the-middle rearrangement")
    fim.add_argument("--seed", type=int, default=0)
    fim.add_argument("--psm-probability", type=_UNIT, default=0.5)
    add_io(fim)
    fim.set_defaults(func=cmd_transform_fim)
    topo = mode.add_parser("topo", help="repository topological concatenation")
    add_io(topo)
    topo.set_defaults(func=cmd_transform_topo)
    qa = mode.add_parser("qa", help="append QA pairs to documents")
    add_io(qa)
    qa.set_defaults(func=cmd_transform_qa)

    p = sub.add_parser("pack", help="online best-fit sequence packing")
    p.add_argument("--capacity", type=_POSITIVE, required=True)
    p.add_argument("--max-open", type=_POSITIVE, default=64)
    p.add_argument("--count-with", type=_length_counter, default="whitespace",
                   help="'whitespace' or 'field:<name>' for precomputed lengths")
    add_io(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("monitor", help="loss-spike monitor")
    p.add_argument("--total-steps", type=_POSITIVE, required=True)
    for tier in ("alert", "restart"):
        p.add_argument(f"--{tier}", type=partial(_parse_tier, tier), required=True,
                       help="w,Tmin,Tmax")
    p.add_argument("--interval", type=_POSITIVE, required=True, help="checkpoint interval")
    p.add_argument("--webhook", help="notification endpoint (or set CORPUSOPS_WEBHOOK)")
    add_io(p)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("plan", help="hyperparameter plan")
    p.add_argument("--batch-tokens", type=float, required=True)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--tokens", type=float, required=True)
    decay = p.add_mutually_exclusive_group(required=True)
    decay.add_argument("--wd", type=float)
    decay.add_argument("--tau", type=float)
    p.add_argument("--tpp-ref", type=_ABOVE_ZERO, default=None)
    p.add_argument("--tpp-target", type=_ABOVE_ZERO, default=None)
    p.add_argument("--params", type=_ABOVE_ZERO, default=None)
    p.add_argument("--schedule", type=_parse_schedule, help="kind,peak,floor,warmup,total")
    _add_file(p, _SINK, "-o", "--output")
    p.set_defaults(func=cmd_plan, error=p.error)

    p = sub.add_parser("evalstats", help="evaluation statistics")
    metric = p.add_subparsers(dest="metric", required=True)
    passk = metric.add_parser("passk", help="unbiased pass@k")
    passk.add_argument("--n", type=int, required=True)
    passk.add_argument("--c", type=int, required=True)
    passk.add_argument("--k", type=int, required=True)
    passk.set_defaults(func=cmd_evalstats_passk, files=())
    mem = metric.add_parser("mem", help="sentence-level memorization rate")
    _add_file(mem, _SOURCE, "--pairs", required=True, help="sentence-pair records path")
    _add_file(mem, _SINK)
    mem.set_defaults(func=cmd_evalstats_mem)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Every stream is UTF-8 whatever the locale or PYTHONIOENCODING, so the
    # same bytes in give the same bytes out however they arrive.  stdin is
    # read as -i files are; nothing is read here.
    for stream, settings in (
        (sys.stdin, _INPUT_TEXT),
        (sys.stdout, {"encoding": "utf-8", "errors": "strict"}),
        (sys.stderr, {"encoding": "utf-8", "errors": "backslashreplace"}),
    ):
        if hasattr(stream, "reconfigure"):  # not a StringIO, say, or None
            stream.reconfigure(**settings)
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        status = args.func(args)
        sys.stdout.flush()  # a printed table or number fails here, not at exit
        return status
    except (ValueError, KeyError, OSError) as exc:
        for stream, lines in ((sys.stderr, [f"error: {exc}\n"]), (sys.stdout, [])):
            try:
                stream.writelines(lines)
                stream.flush()
            except OSError:  # the exit flush would fail on the same bytes: drop them
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
