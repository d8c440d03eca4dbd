import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpusops import cli
from corpusops.cli import main
from corpusops.corpus import parse_record, read_rows
from corpusops.dedup import (
    BloomConfig,
    BloomFilter,
    NearDupConfig,
    NearDupStats,
    near_dedup,
    signature_matrix,
)
from helpers import (
    WebhookCapture,
    mutate_document,
    random_words,
    run_corpusops,
    run_python,
    webhook_receiver,
)


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    """Drive main() with patched stdio; returns (exit_code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(*objs):
    return "".join(json.dumps(o) + "\n" for o in objs)


class UnreadStdin(io.StringIO):
    """A stdin that fails a test if a command reads it."""

    def __iter__(self):
        raise AssertionError("stdin was read before the flags were checked")

    read = readline = __iter__


def parse_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestDedupExactCli:
    def test_drops_duplicates_and_reports_stats(self, monkeypatch, capsys):
        stdin = records(
            {"id": "a", "text": "same text here"},
            {"id": "b", "text": "Same  TEXT here!"},
            {"id": "c", "text": "something else"},
        )
        code, out, err = run_cli(
            ["dedup-exact", "--capacity", "100", "--fpr", "0.001"],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        kept = parse_lines(out)
        assert [d["id"] for d in kept] == ["a", "c"]
        bloom = BloomFilter(BloomConfig(capacity=100, target_fpr=0.001))
        bloom.inserted = 2
        assert json.loads(err.splitlines()[-1]) == {
            "seen": 3, "dropped": 1, "live_fpr": pytest.approx(bloom.live_fpr)
        }
        assert "warning" not in err

    def test_null_id_is_named_by_its_line(self, monkeypatch, capsys):
        stdin = records({"id": None, "text": "one text"}, {"id": None, "text": "another"})
        code, out, _ = run_cli(["dedup-exact", "--capacity", "100"], stdin, monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["line-1", "line-2"]

    # Input lines, and what dedup-exact writes for each: a kept line as read
    # (but for its line end), a record named by its line encoded, a copy
    # nothing.
    PASS_THROUGH = [
        ('{"text": "First  doc",   "id": "a", "z": [1, {"k": null}]}\r\n',
         '{"text": "First  doc",   "id": "a", "z": [1, {"k": null}]}\n'),
        ('{"id": null, "text": "named by its line", "curated": true}\n',
         '{"id": "line-2", "text": "named by its line", "source_class": "CommonCrawl", '
         '"dup_count": 1, "curated": true}\n'),
        ('{"text":"first DOC!","id":"copy"}\n', ""),
        ('{"id": 7, "text": "\\u00e9 escaped, é not"}',
         '{"id": 7, "text": "\\u00e9 escaped, é not"}\n'),
    ]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_kept_lines_are_written_as_read(self, source, tmp_path, monkeypatch, capsys):
        data = "".join(line for line, _ in self.PASS_THROUGH)
        argv = ["dedup-exact", "--capacity", "100"]
        if source == "file":
            path = tmp_path / "in.jsonl"
            path.write_bytes(data.encode())
            code, out, err = run_cli([*argv, "-i", str(path)], "", monkeypatch, capsys)
        else:
            code, out, err = run_cli(argv, data, monkeypatch, capsys)
        assert code == 0, err
        assert out == "".join(written for _, written in self.PASS_THROUGH)
        inputs = [parse_record(line, n) for n, (line, _) in enumerate(self.PASS_THROUGH, 1)]
        assert [parse_record(line, 0) for line in out.splitlines()] == [
            inputs[0], inputs[1], inputs[3]
        ]

    def test_capacity_overflow_warns_once(self, monkeypatch, capsys):
        stdin = records(*({"id": f"d{i}", "text": f"document number {i}"} for i in range(6000)))
        code, out, err = run_cli(
            ["dedup-exact", "--capacity", "500", "--fpr", "0.001"],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "--capacity 500" in warnings[0]
        # "line N: ..." reports a dropped input record; an overflow drops none
        # by itself.
        assert not any(line.startswith("line ") for line in err.splitlines())
        stats = json.loads(err.splitlines()[-1])
        assert stats["seen"] == 6000
        assert stats["dropped"] == 6000 - len(parse_lines(out))
        assert stats["live_fpr"] > 0.001


class TestDedupNearCli:
    def test_cluster_report_and_kept_stream(self, tmp_path, monkeypatch, capsys):
        base = " ".join(f"tok{i}" for i in range(60))
        near = " ".join(f"tok{i}" for i in range(60)) + " extra"
        other = " ".join(f"zzz{i}" for i in range(60))
        stdin = records(
            {"id": "a", "text": base, "curated": True},
            {"id": "b", "text": near},
            {"id": "c", "text": other},
        )
        clusters_path = tmp_path / "clusters.jsonl"
        code, out, err = run_cli(
            ["dedup-near", "--seed", "5", "--clusters", str(clusters_path)],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        kept = parse_lines(out)
        assert [d["id"] for d in kept] == ["a", "c"]
        assert kept[0]["dup_count"] == 2  # cluster size recorded
        report = [json.loads(l) for l in clusters_path.read_text().splitlines()]
        assert report == [{"representative": "a", "members": ["a", "b"], "size": 2}]

    def test_stats_line_counts_buckets_and_confirmations(self, monkeypatch, capsys):
        text = " ".join(f"tok{i}" for i in range(60))
        stdin = records(
            *({"id": f"d{i}", "text": text} for i in range(4)),
            {"id": "x", "text": " ".join(f"zzz{i}" for i in range(60))},
            {"id": "empty", "text": "?!"},
        )
        code, out, err = run_cli(["dedup-near"], stdin, monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["d0", "x", "empty"]
        assert json.loads(err.splitlines()[-1]) == {
            "documents": 6, "kept": 3, "clusters": 1,
            "largest_bucket": 4, "confirmations": 3,
        }

    def test_cluster_rows_on_stderr_match_the_clusters_file(self, tmp_path, monkeypatch, capsys):
        text = " ".join(f"tok{i}" for i in range(60))
        stdin = records({"id": "é1", "text": text}, {"id": "é2", "text": text})
        clusters_path = tmp_path / "clusters.jsonl"
        _, out_file, err_file = run_cli(
            ["dedup-near", "--clusters", str(clusters_path)], stdin, monkeypatch, capsys
        )
        code, out, err = run_cli(["dedup-near"], stdin, monkeypatch, capsys)
        assert code == 0 and out == out_file
        rows, stats = err.splitlines(keepends=True)[:-1], err.splitlines()[-1]
        assert "".join(rows) == clusters_path.read_text(encoding="utf-8")
        assert rows == ['{"representative": "é1", "members": ["é1", "é2"], "size": 2}\n']
        assert err_file.splitlines() == [stats]

    def test_repeated_id_is_skipped_and_reported(self, monkeypatch, capsys):
        # The library raises on repeated ids; the CLI keeps the first record.
        rows = [
            {"id": "a", "text": " ".join(f"tok{i}" for i in range(60))},
            {"id": "b", "text": " ".join(f"zzz{i}" for i in range(60))},
            {"id": "a", "text": "a different document with the same id"},
            {"text": "named by its line"},
        ]
        _, expected, _ = run_cli(["dedup-near"], records(*rows[:2], rows[3]), monkeypatch, capsys)
        code, out, err = run_cli(["dedup-near"], records(*rows), monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["a", "b", "line-4"]
        assert parse_lines(out)[:2] == parse_lines(expected)[:2]
        assert err.splitlines()[0] == "line 3: duplicate id 'a', first on line 1"
        assert json.loads(err.splitlines()[-1])["documents"] == 3

    def test_string_curated_is_skipped_not_taken_as_true(self, monkeypatch, capsys):
        good = {"id": "b", "text": "x y z"}
        _, expected, _ = run_cli(["dedup-near"], records(good), monkeypatch, capsys)
        stdin = records({"id": "a", "text": "x y z", "curated": "false"}, good)
        code, out, err = run_cli(["dedup-near"], stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert err.splitlines()[0] == 'line 1: "curated" must be true or false'
        assert json.loads(err.splitlines()[-1])["documents"] == 1

    def test_null_ids_are_named_by_their_line(self, monkeypatch, capsys):
        rows = [
            {"id": None, "text": " ".join(f"tok{i}" for i in range(60))},
            {"id": None, "text": " ".join(f"zzz{i}" for i in range(60))},
            {"id": "None", "text": " ".join(f"qqq{i}" for i in range(60))},
        ]
        code, out, err = run_cli(["dedup-near"], records(*rows), monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["line-1", "line-2", "None"]
        assert "duplicate id" not in err
        assert json.loads(err.splitlines()[-1])["documents"] == 3

    @pytest.mark.parametrize("threshold", ["0", "1", "2", "nan"])
    def test_bad_threshold_exits_2_before_the_input_is_read(
        self, threshold, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdin", UnreadStdin())
        with pytest.raises(SystemExit) as exited:
            main(["dedup-near", "--threshold", threshold])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "corpusops dedup-near: error: argument --threshold: "
            f"must be in (0, 1), got {float(threshold)}"
        )

    def test_seed_past_64_bits_is_accepted(self, monkeypatch, capsys):
        text = " ".join(f"tok{i}" for i in range(30))
        stdin = records({"id": "a", "text": text}, {"id": "b", "text": text})
        code, out, err = run_cli(
            ["dedup-near", "--seed", str(2**64 + 1)], stdin, monkeypatch, capsys
        )
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["a"]


def messy_corpus(rng: random.Random) -> bytes:
    """dedup-near input with planted near-duplicates and every line shape it skips.

    Blank and malformed lines, invalid UTF-8, repeated, missing, null and
    non-string ids, texts empty after normalization, CRLF line ends, a
    lone CR as JSON whitespace, and often no line end after the last line.
    """
    bases = [random_words(rng, rng.randint(20, 40)) for _ in range(rng.randint(1, 3))]
    lines = []
    for _ in range(rng.randint(0, 18)):
        shape = rng.randrange(10)
        if shape == 0:
            lines.append(rng.choice([b"\n", b"   \n", b"\t\r\n"]))
            continue
        if shape == 1:
            lines.append(rng.choice([b"not json\n", b"[1, 2]\n", b'{"id": "m"}\n',
                                     b'{"text": 5}\n', b'{"text": "x", "dup_count": 0}\n']))
            continue
        if shape == 2:
            lines.append(b'{"id": "u", "text": "bad \xff byte"}\n')
            continue
        if shape < 7:
            text = " ".join(mutate_document(rng, rng.choice(bases)))
            if rng.random() < 0.3:
                text = text.upper() + "!"
        else:
            text = rng.choice(["", "?!", " ... ", " ".join(random_words(rng, 15))])
        record = {"text": text}
        doc_id = rng.choice(["missing", None, 7, 1.5, True, "a", "b", "é", "line-3"])
        if doc_id != "missing":
            record["id"] = doc_id
        if rng.random() < 0.3:
            record["curated"] = rng.random() < 0.5
        if rng.random() < 0.5:
            record["timestamp"] = rng.choice(["2023-01-01", "2024-06-30"])
        if rng.random() < 0.2:
            record["dup_count"] = rng.randint(1, 4)
        if rng.random() < 0.2:
            record["meta"] = {"k": [1, "é"]}
        line = json.dumps(record, ensure_ascii=rng.random() < 0.5)
        if rng.random() < 0.1:
            line = line.replace(", ", ",\r", 1)
        lines.append((line + rng.choice(["\n", "\n", "\r\n"])).encode())
    data = b"".join(lines)
    return data.rstrip(b"\r\n") if rng.random() < 0.5 else data


class TestDedupNearTwoPasses:
    """dedup-near reads its input twice and holds no text in between."""

    ARGV = ["dedup-near", "--seed", "3"]

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_file_stdin_and_pipe_agree_with_near_dedup(self, rng, tmp_path, monkeypatch, capsys):
        data = messy_corpus(rng)
        path = tmp_path / "in.jsonl"
        path.write_bytes(data)

        def run(way):
            clusters = tmp_path / f"{way}.clusters"
            argv = [*self.ARGV, "--clusters", str(clusters)]
            if way == "file":
                code, out, err = run_cli([*argv, "-i", str(path)], "", monkeypatch, capsys)
            elif way == "stdin":  # a StringIO: seekable
                code, out, err = run_cli(argv, data.decode("utf-8", "surrogateescape"),
                                         monkeypatch, capsys)
            else:  # an OS pipe: copied to a temporary file
                proc = run_corpusops(*argv, input=data, env=dict(os.environ, PYTHONUTF8="1"))
                code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
            return code, out, err, clusters.read_bytes()

        first: dict[str, int] = {}

        def parse(line, line_number):
            doc = parse_record(line, line_number)
            if first.setdefault(doc.id, line_number) != line_number:
                raise ValueError("repeated id")
            return doc

        text = data.decode("utf-8", "surrogateescape")
        docs = list(read_rows(io.StringIO(text), parse, on_error=lambda err: None))
        stats = NearDupStats()
        kept, records = near_dedup(docs, NearDupConfig(perm_seed=3), stats)

        code, out, err, clusters = run("file")
        assert code == 0
        assert [parse_record(line, 0) for line in out.split("\n")[:-1]] == kept
        assert parse_lines(clusters.decode()) == [
            {"representative": r.representative, "members": list(r.members), "size": r.size}
            for r in records
        ]
        assert json.loads(err.splitlines()[-1]) == {
            "documents": len(docs), "kept": len(kept), "clusters": len(records),
            "largest_bucket": stats.largest_bucket, "confirmations": stats.confirmations,
        }
        assert all(line.startswith("line ") for line in err.splitlines()[:-1])
        # The pipe goes last: it is the slow one.
        assert run("stdin") == (code, out, err, clusters)
        assert run("pipe") == (code, out, err, clusters)

    def test_seekable_stdin_is_read_twice(self, monkeypatch, capsys):
        # One pass to cluster, one to write: nothing counts the lines first.
        class CountingStdin(io.StringIO):
            lines = 0

            def __next__(self):
                line = super().__next__()
                CountingStdin.lines += 1
                return line

        rng = random.Random(11)
        texts = [" ".join(random_words(rng, 12)) for _ in range(20)]
        data = records(
            *({"id": f"d{i}", "text": texts[i % 20]} for i in range(28)),
            {"id": "d0", "text": "a repeated id"},
        ) + "\n"
        monkeypatch.setattr(sys, "stdin", CountingStdin(data))
        assert main(self.ARGV) == 0
        assert CountingStdin.lines == 2 * 30
        out, err = capsys.readouterr()
        assert run_cli(self.ARGV, data, monkeypatch, capsys) == (0, out, err)
        assert len(out.splitlines()) == 20

    def test_peak_memory_does_not_grow_with_document_length(self, tmp_path, monkeypatch):
        # Holding every document, the long run peaked about its total text
        # size (10 MB here) above the short one; two passes hold one batch.
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        n, short, long = 150, 50, 5000
        rng = random.Random(5)
        vocabulary = random_words(rng, 2000)

        def corpus(words: int):
            path = tmp_path / f"{words}.jsonl"
            path.write_text(records(
                *({"id": f"d{i}", "text": " ".join(rng.choices(vocabulary, k=words))}
                  for i in range(n))
            ))
            return path

        def peak(path) -> int:
            argv = ["dedup-near", "-i", str(path), "-o", str(tmp_path / "out.jsonl"),
                    "--clusters", str(tmp_path / "clusters.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short_path, long_path = corpus(short), corpus(long)
        peak(short_path)  # imports numpy and the pipeline outside the measured runs
        tracemalloc.start()
        try:
            signature_matrix([" ".join(rng.choices(vocabulary, k=long))], 0)
            one_batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 256 * 1024
        assert long_path.stat().st_size - short_path.stat().st_size > 4 * (one_batch + slack)
        assert peak(long_path) - peak(short_path) <= one_batch + slack

    def test_memory_per_added_document(self, tmp_path, monkeypatch):
        # Per document, pass 1 keeps 16 band keys and a 128-bin 16-bit
        # sketch (384 B) plus its id and ranking fields, about 600 B in
        # all; a full-width uint64 signature row alone would take 1,024 B.
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        rng = random.Random(7)
        vocabulary = random_words(rng, 3000)

        def peak(n: int) -> int:
            path = tmp_path / f"{n}.jsonl"
            path.write_text(records(
                *({"id": f"d{i:06d}", "text": " ".join(rng.choices(vocabulary, k=20))}
                  for i in range(n))
            ))
            argv = ["dedup-near", "-i", str(path), "-o", str(tmp_path / "out.jsonl"),
                    "--clusters", str(tmp_path / "clusters.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # imports numpy and the pipeline outside the measured runs
        small, large = 1000, 5000
        assert (peak(large) - peak(small)) / (large - small) <= 800


def split_corpus(rng: random.Random) -> bytes:
    """Input for every command that splits, with each line shape a cut can land next to.

    A record carries "text" for dedup-exact and pack, "repo" and "files"
    for transform topo and "qa" for transform qa.  Between records come
    runs of blank lines, CRLF line ends, a lone CR as JSON whitespace,
    malformed lines and invalid UTF-8; the last line often has no line end.
    """
    texts = [" ".join(random_words(rng, rng.randint(1, 8))) for _ in range(3)] + ["é ü", ""]
    files = [{"path": "a.py", "text": "import b\n"}, {"path": "b.py", "text": "B = 1\n"}]
    lines = []
    for _ in range(rng.randint(0, 30)):
        shape = rng.randrange(8)
        if shape == 0:
            lines.append(rng.choice([b"\n", b"  \n", b"\r\n"]) * rng.randint(1, 4))
        elif shape == 1:
            lines.append(rng.choice([b"not json\n", b"[1, 2]\n", b'{"text": 5, "files": []}\n',
                                     b'{"repo": "r", "files": [{"path": 5, "text": "x"}]}\n']))
        elif shape == 2:
            lines.append(b'{"text": "bad \xff byte", "files": []}\n')
        else:
            record = {"text": rng.choice(texts), "files": rng.sample(files, len(files))}
            for key, values in (("id", [None, 7, True, "a", "é"]), ("repo", [None, 5, "r"]),
                                ("qa", [[], [{"q": "Q?", "a": "é"}], [{"q": "Q?"}]])):
                if rng.random() < 0.7:
                    record[key] = rng.choice(values)
            line = json.dumps(record, ensure_ascii=rng.random() < 0.5)
            if rng.random() < 0.1:
                line = line.replace(", ", ",\r", 1)
            lines.append((line + rng.choice(["\n", "\n", "\r\n"])).encode())
    data = b"".join(lines)
    return data.rstrip(b"\r\n") if rng.random() < 0.5 else data


def cut_starts(data: bytes, parts: int) -> list[int]:
    """Where each range after the first starts: the first line start at or
    after each share of the bytes, by a scan of every offset."""
    starts = []
    for k in range(1, parts):
        target = len(data) * k // parts
        cut = next((i for i in range(max(target, 1), len(data)) if data[i - 1] == 10), None)
        if cut is not None and cut not in starts:
            starts.append(cut)
    return starts


# Runs a command in a fresh interpreter, where nothing but the command
# forks, with the worker count forced by the CPU count and MIN_RANGE_BYTES.
# Each run reports [exit code, stdout, stderr, forks, whether a child is
# left, where a stdin file was left].
SPLIT_RUN = r"""
import io, json, os, sys
from corpusops import _split, cli

_split.MIN_RANGE_BYTES = 1
_split._SCAN_BYTES = int(sys.argv[2])  # the cut scan crosses its chunks
forks = []
fork = os.fork

def counted_fork():
    forks.append(None)
    return fork()

os.fork = counted_fork

def run(argv, cpus, stdin):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    sys.stdin, sys.stdout, sys.stderr = stdin, io.StringIO(), io.StringIO()
    forks.clear()
    try:
        code = cli.main(argv)
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        offset = stdin.buffer.tell() if hasattr(stdin, "buffer") else None
    finally:
        sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, sys.__stdout__, sys.__stderr__
        stdin.close()
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    return [code, out, err, len(forks), left, offset]

path = sys.argv[1]
with open(path, "rb") as handle:
    text = handle.read().decode("utf-8", "surrogateescape")
results = {}
for name, argv in json.loads(sys.argv[3]).items():
    results[name] = {"stdin": run(argv, 3, io.StringIO(text))}
    for cpus in (1, 2, 3):
        results[name][f"-i, {cpus}"] = run([*argv, "-i", path], cpus, io.StringIO())
    redirected = open(path, encoding="utf-8", errors="strict", newline="\n")
    results[name]["<, 3"] = run(argv, 3, redirected)
print(json.dumps(results))
"""


class TestSplitInput:
    """transform topo and qa, dedup-exact and pack over byte ranges in forked workers."""

    COMMANDS = {
        "topo": ["transform", "topo"],
        "qa": ["transform", "qa"],
        "exact": ["dedup-exact", "--capacity", "100"],
        "pack": ["pack", "--capacity", "12", "--max-open", "2"],
    }

    @given(rng=st.randoms(use_true_random=False), scan=st.integers(1, 64))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_worker_count_matches_one_worker_and_stdin(self, rng, scan, tmp_path):
        data = split_corpus(rng)
        path = tmp_path / "in.jsonl"
        path.write_bytes(data)
        proc = run_python("-c", SPLIT_RUN, str(path), str(scan), json.dumps(self.COMMANDS),
                          text=True)
        assert proc.returncode == 0, proc.stderr
        for name, runs in json.loads(proc.stdout).items():
            one = runs["-i, 1"]
            assert one[0] == 0 and one[3] == 0, (name, one)
            for way, (code, out, err, forks, left, offset) in runs.items():
                assert (code, out, err) == tuple(one[:3]), (name, way)
                assert not left, (name, way)
                assert offset == (len(data) if way.startswith("<") else None), (name, way)
                cpus = 1 if way in ("stdin", "-i, 1") else int(way[-1])
                assert forks == len(cut_starts(data, cpus)) * (way != "stdin"), (name, way)

    @given(data=st.lists(st.sampled_from([b"\n", b"\r\n", b"x", b"\xff", b"{}"]), max_size=40),
           parts=st.integers(1, 4), scan=st.integers(1, 16), offset=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_ranges_start_at_line_starts_with_their_line_numbers(self, data, parts, scan, offset):
        from corpusops import _split

        data = b"".join(data)
        offset = min(offset, len(data))
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as src:
            src.buffer.write(data)
            src.buffer.flush()
            src.seek(offset)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_split, "MIN_RANGE_BYTES", 1)
                patch.setattr(_split, "_SCAN_BYTES", scan)
                patch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
                ranges = _split._worker_ranges(src)
        rest = data[offset:]
        starts = [offset + cut for cut in cut_starts(rest, parts)]
        assert [start for start, _, _ in ranges] == starts
        assert [end for _, end, _ in ranges] == [*starts[1:], len(data)][: len(ranges)]
        assert [first for _, _, first in ranges] == [
            1 + data.count(b"\n", offset, start) for start in starts
        ]

    # 1,200 repository rows, about 140 kB.
    REPOS = records(*(
        {"repo": f"r{i}", "files": [{"path": "a.py", "text": "import b\n"},
                                    {"path": "b.py", "text": f"B = {i}\n"}]}
        for i in range(1200)
    ))

    def test_a_failed_worker_fails_the_command_and_no_child_is_left(self, tmp_path):
        path = tmp_path / "repos.jsonl"
        path.write_text(self.REPOS)
        # The worker's parse raises, then kills the worker, then the main
        # process's parse raises.
        proc = run_python("-c", (
            "import os, signal, sys\n"
            "from corpusops import _split, cli\n"
            "import corpusops.transforms as transforms\n"
            "_split.MIN_RANGE_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "main = os.getpid()\n"
            "def failing(in_worker, fail):\n"
            "    def concat_repo(files):\n"
            "        if (os.getpid() != main) == in_worker:\n"
            "            fail()\n"
            "        return ''\n"
            "    return concat_repo\n"
            "def boom():\n"
            "    raise RuntimeError('no concat here')\n"
            "argv = ['transform', 'topo', '-i', sys.argv[1], '-o', os.devnull]\n"
            "for in_worker, fail in [(True, boom), (True, lambda: os.kill(os.getpid(), 9)),\n"
            "                        (False, boom)]:\n"
            "    transforms.concat_repo = failing(in_worker, fail)\n"
            "    try:\n"
            "        print(cli.main(argv))\n"
            "    except RuntimeError as exc:\n"
            "        print(exc)\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        ), str(path), text=True)
        assert proc.returncode == 0, proc.stderr
        first = 1 + self.REPOS.encode().count(b"\n", 0, cut_starts(self.REPOS.encode(), 2)[0])
        assert proc.stdout.splitlines() == [
            "2", "no child left", "2", "no child left", "no concat here", "no child left"
        ]
        assert proc.stderr.splitlines() == [
            f"error: the worker from line {first} failed: RuntimeError: no concat here",
            f"error: the worker from line {first} failed: killed by signal 9",
        ]

    def test_text_written_before_the_fork_appears_once(self, tmp_path):
        path = tmp_path / "repos.jsonl"
        path.write_text(self.REPOS)
        proc = run_python("-c", (
            "import os, sys\n"
            "from corpusops import _split, cli\n"
            "_split.MIN_RANGE_BYTES = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "print('before')\n"
            "print('before, on stderr', file=sys.stderr)\n"
            "sys.exit(cli.main(['transform', 'topo', '-i', sys.argv[1]]))\n"
        ), str(path), text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "before, on stderr\n"
        lines = proc.stdout.splitlines()
        assert lines[0] == "before" and proc.stdout.count("before") == 1
        assert [json.loads(line)["id"] for line in lines[1:]] == [f"r{i}" for i in range(1200)]


class TestMixCli:
    def test_manifest_records_and_quota(self, tmp_path, monkeypatch, capsys):
        stats = tmp_path / "groups.jsonl"
        stats.write_text(
            records(
                {"group": "cc-unique", "tokens": 1000, "bucket": "1", "source_class": "CommonCrawl"},
                {"group": "cc-dup2_5", "tokens": 500, "bucket": "2-5", "source_class": "CommonCrawl"},
            )
        )
        code, out, err = run_cli(
            ["mix", "--stats", str(stats), "--target-tokens", "10"],
            "", monkeypatch, capsys,
        )
        assert code == 0
        rows = parse_lines(out)
        assert [r["proportion"] for r in rows] == [0.4, 0.6]
        assert [r["quota_tokens"] for r in rows] == [4, 6]
        assert "cc-unique" in err  # human-readable table on stderr

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"tokens": 5, "bucket": "1"}',
            '{"group": "g", "tokens": "many", "bucket": "1"}',
            '{"group": "g", "tokens": 5, "bucket": "7-9"}',
            '{"group": "g", "tokens": "5", "bucket": "1"}',
            '{"group": "g", "tokens": true, "bucket": "1"}',
            '{"group": "g", "tokens": 2.9, "bucket": "1"}',
            '{"group": 5, "tokens": 5, "bucket": "1"}',
            '{"group": "cc-unique", "tokens": 7, "bucket": "1"}',
            "[1, 2]",
        ],
    )
    def test_bad_line_is_skipped_and_reported(self, garbage, tmp_path, monkeypatch, capsys):
        good = [
            {"group": "cc-unique", "tokens": 1000, "bucket": "1"},
            {"group": "cc-dup2_5", "tokens": 500, "bucket": "2-5"},
        ]
        stats = tmp_path / "groups.jsonl"
        manifest = tmp_path / "manifest.jsonl"
        args = ["mix", "--stats", str(stats), "--target-tokens", "10", "-o", str(manifest)]
        stats.write_text(records(*good))
        _, expected_table, _ = run_cli(args, "", monkeypatch, capsys)
        expected = manifest.read_text()
        stats.write_text(records(good[0]) + garbage + "\n" + records(good[1]))
        code, table, err = run_cli(args, "", monkeypatch, capsys)
        assert code == 0
        assert manifest.read_text() == expected
        assert table == expected_table
        assert err.startswith("line 2: ") and len(err.splitlines()) == 1


class TestTransformCli:
    def test_fim_round_trip_tokens_present(self, monkeypatch, capsys):
        stdin = records({"id": "f", "text": "def f():\n    return 42\n"})
        code, out, _ = run_cli(
            ["transform", "fim", "--seed", "9"], stdin, monkeypatch, capsys
        )
        assert code == 0
        text = parse_lines(out)[0]["text"]
        for token in ("<|fim_prefix|>", "<|fim_middle|>", "<|fim_suffix|>"):
            assert text.count(token) == 1

    def test_fim_deterministic(self, monkeypatch, capsys):
        stdin = records({"id": "f", "text": "abcdefgh"})
        _, out1, _ = run_cli(["transform", "fim", "--seed", "7"], stdin, monkeypatch, capsys)
        _, out2, _ = run_cli(["transform", "fim", "--seed", "7"], stdin, monkeypatch, capsys)
        assert out1 == out2

    def test_fim_psm_share_follows_the_configured_rate(self, monkeypatch, capsys):
        n = 2_000
        stdin = records(*({"id": str(i), "text": "x" * (1 + i % 20)} for i in range(n)))
        code, out, _ = run_cli(["transform", "fim", "--psm-probability", "0.5"], stdin,
                               monkeypatch, capsys)
        assert code == 0
        psm = sum(d["text"].startswith("<|fim_prefix|>") for d in parse_lines(out))
        assert abs(psm / n - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_fim_skips_records_containing_reserved_tokens(self, monkeypatch, capsys):
        stdin = records(
            {"id": "bad", "text": "x<|fim_middle|>y"},
            {"id": "good", "text": "plain code"},
        )
        code, out, err = run_cli(["transform", "fim"], stdin, monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["good"]
        assert err == "line 1: text contains reserved token '<|fim_middle|>'\n"

    def test_topo_orders_dependencies_first(self, monkeypatch, capsys):
        stdin = records(
            {
                "repo": "demo",
                "files": [
                    {"path": "main.py", "text": "import util\n"},
                    {"path": "util.py", "text": "X = 1\n"},
                ],
            }
        )
        code, out, _ = run_cli(["transform", "topo"], stdin, monkeypatch, capsys)
        assert code == 0
        text = parse_lines(out)[0]["text"]
        assert text.index("# util.py") < text.index("# main.py")

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"repo": "no-files"}',
            '{"repo": "r", "files": [{"path": "a.py"}]}',
            '{"repo": "r", "files": [{"path": "a.py", "text": 5}]}',
            '{"repo": "r", "files": [{"path": 5, "text": "x"}]}',
            '{"repo": "r", "files": [{"path": "a.py", "text": ""}, {"path": "a.py", "text": ""}]}',
            '"just a string"',
        ],
    )
    def test_topo_bad_line_is_skipped_and_reported(self, garbage, monkeypatch, capsys):
        good = [
            {"repo": "one", "files": [{"path": "main.py", "text": "import util\n"},
                                      {"path": "util.py", "text": "X = 1\n"}]},
            {"repo": "two", "files": [{"path": "a.py", "text": "A = 2\n"}]},
        ]
        _, expected, _ = run_cli(["transform", "topo"], records(*good), monkeypatch, capsys)
        stdin = records(good[0]) + garbage + "\n" + records(good[1])
        code, out, err = run_cli(["transform", "topo"], stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert [row["id"] for row in parse_lines(out)] == ["one", "two"]
        assert err.startswith("line 2: ") and len(err.splitlines()) == 1

    def test_topo_ids_are_strings_named_by_line_without_repo(self, monkeypatch, capsys):
        files = [{"path": "a.py", "text": "A = 1\n"}]
        stdin = records({"files": files}, {"repo": 5, "files": files},
                        {"files": files}, {"repo": "r", "files": files},
                        {"repo": None, "files": files}, {"repo": True, "files": files},
                        {"repo": ["x", "é"], "files": files})
        code, out, _ = run_cli(["transform", "topo"], stdin, monkeypatch, capsys)
        assert code == 0
        # A non-string repo is named by its JSON text, as parse_record names an id.
        assert [row["id"] for row in parse_lines(out)] == [
            "line-1", "5", "line-3", "r", "line-5", "true", '["x", "é"]'
        ]
        # Unique ids let the rows go on through near dedup.
        code, _, err = run_cli(["dedup-near"], out, monkeypatch, capsys)
        assert code == 0, err
        assert json.loads(err.splitlines()[-1])["documents"] == 7

    def test_qa_appends_pairs(self, monkeypatch, capsys):
        stdin = records(
            {"id": "d", "text": "Body.", "qa": [{"q": "Q1?", "a": "A1."}]}
        )
        code, out, _ = run_cli(["transform", "qa"], stdin, monkeypatch, capsys)
        assert code == 0
        row = parse_lines(out)[0]
        assert row["text"] == "Body.\n\nQ: Q1?\nA: A1.\n"
        assert "qa" not in row

    def test_qa_empty_list_passes_the_record_through(self, monkeypatch, capsys):
        stdin = records({"id": "d", "text": "Body.", "qa": []})
        code, out, err = run_cli(["transform", "qa"], stdin, monkeypatch, capsys)
        assert code == 0 and err == ""
        assert out == (
            '{"id": "d", "text": "Body.", "source_class": "CommonCrawl", '
            '"dup_count": 1, "curated": false, "qa": []}\n'
        )

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"id": "x", "text": "x", "qa": [1]}',
            '{"id": "x", "text": "x", "qa": [{"q": "a"}]}',
            '{"id": "x", "text": "x", "qa": "text"}',
            '{"id": "x", "text": "x", "qa": 5}',
            '{"id": "x", "text": "x", "qa": [{"q": 5, "a": null}]}',
            '{"id": "x", "text": "x", "qa": [{"q": "Q?", "a": ["A."]}]}',
        ],
    )
    def test_qa_bad_line_is_skipped_and_reported(self, garbage, monkeypatch, capsys):
        good = [
            {"id": "one", "text": "Body.", "qa": [{"q": "Q1?", "a": "A1."}]},
            {"id": "two", "text": "Other.", "qa": [{"q": "Q2?", "a": "A2."}]},
        ]
        _, expected, _ = run_cli(["transform", "qa"], records(*good), monkeypatch, capsys)
        stdin = records(good[0]) + garbage + "\n" + records(good[1])
        code, out, err = run_cli(["transform", "qa"], stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert [row["id"] for row in parse_lines(out)] == ["one", "two"]
        assert err.startswith("line 2: ") and len(err.splitlines()) == 1


class TestPackCli:
    def test_whitespace_counting_and_stats_record(self, monkeypatch, capsys):
        stdin = records(
            {"id": "a", "text": "w1 w2 w3 w4 w5"},
            {"id": "b", "text": "w1 w2 w3"},
            {"id": "c", "text": "w1 w2 w3 w4"},
            {"id": "d", "text": "w1 w2"},
        )
        code, out, _ = run_cli(
            ["pack", "--capacity", "8", "--max-open", "2"],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        rows = parse_lines(out)
        sequences, stats = rows[:-1], rows[-1]
        assert [s["padding"] for s in sequences] == [0, 2]
        assert sequences[0]["entries"] == [{"id": "a", "len": 5}, {"id": "b", "len": 3}]
        assert stats["padding_ratio"] == 2 / 16
        assert stats["truncation_ratio"] == 0.0

    def test_field_counting(self, monkeypatch, capsys):
        stdin = records({"id": "a", "text": "ignored", "n_tokens": 7})
        code, out, _ = run_cli(
            ["pack", "--capacity", "8", "--count-with", "field:n_tokens"],
            stdin, monkeypatch, capsys,
        )
        rows = parse_lines(out)
        assert rows[0]["entries"] == [{"id": "a", "len": 7}]


class TestPackCliBadLines:
    def test_missing_length_field_is_skipped_and_reported(self, monkeypatch, capsys):
        args = ["pack", "--capacity", "8", "--count-with", "field:n"]
        good = [{"id": "a", "text": "x", "n": 3}, {"id": "c", "text": "z", "n": 4}]
        _, expected, _ = run_cli(args, records(*good), monkeypatch, capsys)
        stdin = (
            records(good[0], {"id": "b", "text": "y"})
            + "not json\n"
            + '{"id": "d", "text": "w", "n": 1e999}\n'
            + '{"id": "e", "text": "v", "n": "7"}\n'
            + '{"id": "f", "text": "u", "n": true}\n'
            + '{"id": "g", "text": "t", "n": 2.9}\n'
            + records(good[1])
        )
        code, out, err = run_cli(args, stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert err.splitlines() == [
            "line 2: record b is missing length field 'n'",
            "line 3: Expecting value: line 1 column 1 (char 0)",
            "line 4: record d has a non-integer 'n': inf",
            "line 5: record e has a non-integer 'n': '7'",
            "line 6: record f has a non-integer 'n': True",
            "line 7: record g has a non-integer 'n': 2.9",
        ]


class TestMonitorCli:
    ARGS = [
        "monitor", "--total-steps", "2000",
        "--alert", "3,2.0,3.0", "--restart", "5,2.5,4.0",
        "--interval", "500",
    ]

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"step": 5}',
            "[1, 2]",
            '{"step": "x", "loss": 1}',
            '{"step": 1e999, "loss": 1}',
            '{"step": 5, "loss": NaN}',
            '{"step": 5, "loss": Infinity}',
            '{"step": 5, "loss": 1e999}',
            '{"step": true, "loss": true}',
            '{"step": 5, "loss": "7.5"}',
            '{"step": "5", "loss": 7.5}',
            '{"step": 5, "loss": false}',
            '{"step": 1055.5, "loss": 1}',
            '{"step": -5, "loss": 1}',
            '{"step": -1, "loss": 9.0}',
        ],
    )
    def test_bad_line_is_skipped_and_reported(self, garbage, monkeypatch, capsys):
        values = [1.0] * 20 + [5.0] * 8 + [1.0] * 10
        rows = [{"step": 1030 + i, "loss": v} for i, v in enumerate(values)]
        _, expected, _ = run_cli(self.ARGS, records(*rows), monkeypatch, capsys)
        stdin = records(*rows[:25]) + garbage + "\n" + records(*rows[25:])
        code, out, err = run_cli(self.ARGS, stdin, monkeypatch, capsys)
        assert code == 0
        assert parse_lines(out) == parse_lines(expected)
        assert any(e["tier"] == 2 for e in parse_lines(out))
        assert err.startswith("line 26: ") and len(err.splitlines()) == 1

    def test_integral_float_steps_are_taken_as_integers(self, monkeypatch, capsys):
        values = [1.0] * 20 + [5.0] * 8 + [1.0] * 10
        rows = [{"step": 1030 + i, "loss": v} for i, v in enumerate(values)]
        _, expected, _ = run_cli(self.ARGS, records(*rows), monkeypatch, capsys)
        stdin = "".join(f'{{"step": {r["step"] / 10}e1, "loss": {r["loss"]}}}\n' for r in rows)
        code, out, err = run_cli(self.ARGS, stdin, monkeypatch, capsys)
        assert (code, out, err) == (0, expected, "")

    def test_negative_steps_are_skipped_and_reported(self, monkeypatch, capsys):
        # Loss 9.0 fires both tiers, so an accepted negative step would reach
        # rollback_step at the first restart, which refuses it.
        args = ["monitor", "--total-steps", "100", "--alert", "3,2.6,3.0",
                "--restart", "6,2.8,3.5", "--interval", "10"]
        later = records(*({"step": i, "loss": 9.0} for i in range(20)))
        _, expected, _ = run_cli(args, later, monkeypatch, capsys)
        negative = records(*({"step": i, "loss": 9.0} for i in range(-20, 0)))
        code, out, err = run_cli(args, negative + later, monkeypatch, capsys)
        assert (code, out) == (0, expected)
        assert err.splitlines() == [
            f'line {n}: "step" must be >= 0, got {n - 21}' for n in range(1, 21)
        ]

    def test_non_finite_losses_are_skipped_and_reported(self, monkeypatch, capsys):
        # NaN among the losses used to end in an IndexError traceback from
        # the rolling median (z window 5 at --total-steps 500).
        args = ["monitor", "--total-steps", "500", "--alert", "3,2.0,3.0",
                "--restart", "5,2.5,4.0", "--interval", "10"]
        losses = ["5.0", "NaN", "4.0", "2.0", "1.0", "4.0", "5.0", "0.0", "3.0", "NaN", "1.0", "NaN"]
        stdin = "".join(f'{{"step": {i}, "loss": {v}}}\n' for i, v in enumerate(losses))
        finite = "".join(f'{{"step": {i}, "loss": {v}}}\n' for i, v in enumerate(losses) if v != "NaN")
        _, expected, _ = run_cli(args, finite, monkeypatch, capsys)
        code, out, err = run_cli(args, stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert err.splitlines() == [
            f'line {n}: "loss" must be finite, got nan' for n in (2, 10, 12)
        ]

    def test_webhook_from_environment(self, monkeypatch, capsys):
        # Endpoint may come from CORPUSOPS_WEBHOOK instead of --webhook;
        # an unreachable one is logged, never fatal.
        monkeypatch.setenv("CORPUSOPS_WEBHOOK", "http://127.0.0.1:1/unreachable")
        stdin = records(*({"step": i, "loss": 5.0} for i in range(10)))
        code, out, _ = run_cli(
            [
                "monitor", "--total-steps", "100",
                "--alert", "3,2.0,3.0", "--restart", "5,2.5,4.0",
                "--interval", "10",
            ],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        assert any(e["tier"] == 2 for e in parse_lines(out))

    @pytest.mark.parametrize(
        "flag, env",
        [(["--webhook", "notaurl"], {}), ([], {"CORPUSOPS_WEBHOOK": "ftp://x/y"})],
        ids=["flag", "environment"],
    )
    def test_bad_webhook_exits_2_before_any_file_is_opened(self, flag, env, tmp_path):
        url = flag[1] if flag else env["CORPUSOPS_WEBHOOK"]
        out = tmp_path / "events.jsonl"
        out.write_text("kept\n")
        stdin = records(*({"step": i, "loss": 5.0} for i in range(10)))
        environ = {k: v for k, v in os.environ.items() if k != "CORPUSOPS_WEBHOOK"}
        proc = run_corpusops(
            *self.ARGS, *flag, "-o", str(out), input=stdin, text=True, env={**environ, **env}
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: webhook must be an http:// or https:// URL with a host, got {url!r}\n"
        )
        assert out.read_text() == "kept\n"

    def test_events_with_rollback(self, monkeypatch, capsys):
        values = [1.0] * 20 + [5.0] * 8 + [1.0] * 10
        stdin = records(*({"step": 1030 + i, "loss": v} for i, v in enumerate(values)))
        code, out, _ = run_cli(
            [
                "monitor", "--total-steps", "2000",
                "--alert", "3,2.0,3.0", "--restart", "5,2.5,4.0",
                "--interval", "500",
            ],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        events = parse_lines(out)
        level_two = [e for e in events if e["tier"] == 2]
        assert len(level_two) == 1
        assert level_two[0]["step"] == 1054
        assert level_two[0]["rollback_step"] == 1000


class TestPlanCli:
    def test_plan_record(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            [
                "plan", "--batch-tokens", "9.8e6", "--lr", "1.5e-4",
                "--tokens", "12.25e12", "--wd", "0.05",
            ],
            "", monkeypatch, capsys,
        )
        assert code == 0
        row = parse_lines(out)[0]
        assert row["steps"] == 1250000
        assert row["tau_epoch"] == pytest.approx(0.10666666666666667)

    def test_tau_with_tpp_scaling(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            [
                "plan", "--batch-tokens", "1e6", "--lr", "1e-4", "--tokens", "1e12",
                "--tau", "0.2", "--tpp-ref", "20", "--tpp-target", "175",
            ],
            "", monkeypatch, capsys,
        )
        row = parse_lines(out)[0]
        assert row["tau_epoch"] == pytest.approx(0.06761234037828133, rel=1e-9)

    def test_schedule_table_ends_on_floor(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            [
                "plan", "--batch-tokens", "1e6", "--lr", "1.5e-4", "--tokens", "1e12",
                "--wd", "0.05", "--schedule", "cosine_to_floor,1.5e-4,1.5e-6,100,1000",
            ],
            "", monkeypatch, capsys,
        )
        rows = parse_lines(out)
        assert rows[-1] == {"step": 1000, "lr": 1.5e-6}


class TestEvalstatsCli:
    def test_passk(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["evalstats", "passk", "--n", "4", "--c", "2", "--k", "2"],
            "", monkeypatch, capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(5 / 6)

    def test_mem(self, tmp_path, monkeypatch, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            records(
                {"reference": "The answer is 4.", "generated": "The answer is 4."},
                {"reference": "No clue.", "generated": "Something else."},
            )
        )
        code, out, _ = run_cli(
            ["evalstats", "mem", "--pairs", str(pairs)], "", monkeypatch, capsys
        )
        assert code == 0
        assert float(out.strip()) == 50.0

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"generated": "orphan"}',
            '{"reference": 3, "generated": "3"}',
            '{"reference": "", "generated": ""}',
            "[1]",
        ],
    )
    def test_mem_bad_line_is_skipped_and_reported(self, garbage, tmp_path, monkeypatch, capsys):
        good = [
            {"reference": "The answer is 4.", "generated": "The answer is 4."},
            {"reference": "No clue.", "generated": "Something else."},
        ]
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(records(good[0]) + garbage + "\n" + records(good[1]))
        code, out, err = run_cli(
            ["evalstats", "mem", "--pairs", str(pairs)], "", monkeypatch, capsys
        )
        assert code == 0
        assert float(out.strip()) == 50.0
        assert err.startswith("line 2: ") and len(err.splitlines()) == 1


MONITOR_ARGS = ["monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
                "--restart", "5,2.5,4.0", "--interval", "500"]
# A loss spike at steps 1050-1057 that fires both tiers.
LOSSES = [{"step": 1030 + i, "loss": v} for i, v in enumerate([1.0] * 20 + [5.0] * 8 + [1.0] * 10)]


class TestRecordRules:
    """A record that breaks a rule a command enforces itself is skipped and
    reported like a malformed line: exit 0, one ``line N: ...`` on stderr,
    and the output of the same run without that line."""

    DOCS = [{"id": "a", "text": "the first good document"},
            {"id": "c", "text": "another good document here"}]
    REPOS = [{"repo": "r", "files": [{"path": "a.py", "text": "A = 1\n"}]},
             {"repo": "t", "files": [{"path": "b.py", "text": "import a\n"}]}]
    QA = [{"id": "one", "text": "Body.", "qa": [{"q": "Q1?", "a": "A1."}]},
          {"id": "two", "text": "Other.", "qa": [{"q": "Q2?", "a": "A2."}]}]

    # rule -> (argv, good rows, where the bad row goes, bad row, its report)
    CASES = {
        "fim-reserved-token": (["transform", "fim", "--seed", "3"], DOCS, 1,
                               {"id": "b", "text": "x<|fim_suffix|>y"},
                               "text contains reserved token '<|fim_suffix|>'"),
        "fim-empty-text": (["transform", "fim", "--seed", "3"], DOCS, 1,
                           {"id": "b", "text": ""}, "cannot transform empty text"),
        "pack-empty-text": (["pack", "--capacity", "8"], DOCS, 1,
                            {"id": "b", "text": " \n "}, "length must be >= 1, got 0"),
        "monitor-repeated-step": (MONITOR_ARGS, LOSSES, 25, {"step": 1054, "loss": 1.0},
                                  "steps must be strictly increasing: 1054 after 1054"),
        "monitor-step-back": (MONITOR_ARGS, LOSSES, 25, {"step": 1000, "loss": 1.0},
                              "steps must be strictly increasing: 1000 after 1054"),
        "topo-path-not-a-string": (["transform", "topo"], REPOS, 1,
                                   {"repo": "s", "files": [{"path": 5, "text": "x"}]},
                                   '"path" and "text" of a file must be strings'),
        "dedup-near-repeated-id": (["dedup-near"], DOCS, 1,
                                   {"id": "a", "text": "a different document, the same id"},
                                   "duplicate id 'a', first on line 1"),
        "qa-bad-pairs": (["transform", "qa"], QA, 1, {"id": "x", "text": "x", "qa": [{"q": "a"}]},
                         'record needs "qa" of {"q", "a"} objects (KeyError(\'a\'))'),
    }

    @pytest.mark.parametrize("rule", sorted(CASES))
    def test_breaking_record_is_skipped_and_reported(self, rule, monkeypatch, capsys):
        argv, good, at, bad, report = self.CASES[rule]
        expected = run_cli(argv, records(*good), monkeypatch, capsys)
        assert expected[0] == 0 and expected[1]
        stdin = records(*good[:at], bad, *good[at:])
        code, out, err = run_cli(argv, stdin, monkeypatch, capsys)
        assert (code, out) == expected[:2]
        assert err == f"line {at + 1}: {report}\n" + expected[2]


class TestBadFlags:
    """A bad flag value exits 2 with argparse's error naming the flag, writes
    nothing to stdout and reads no input."""

    MONITOR = ["monitor", "--total-steps", "2000", "--interval", "500", "-i", "{input}"]
    PLAN = ["plan", "--batch-tokens", "1", "--lr", "1", "--tokens", "10"]
    TPP_PAIR = "scales --tau, so needs --tau, --tpp-ref and --tpp-target"
    CASES = {
        "alert": ([*MONITOR, "--alert", "3,2", "--restart", "5,2.5,4.0"],
                  "argument --alert: expects w,Tmin,Tmax (got '3,2'): "
                  "not enough values to unpack (expected 3, got 2)"),
        "restart": ([*MONITOR, "--alert", "3,2.0,3.0", "--restart", "3,6,5"],
                    "argument --restart: expects w,Tmin,Tmax (got '3,6,5'): t_max must be >= t_min"),
        "schedule": ([*PLAN, "--wd", "0.1", "--schedule", "bad"],
                     "argument --schedule: expects kind,peak,floor,warmup,total (got 'bad'): "
                     "not enough values to unpack (expected 5, got 1)"),
        "count-with": (["pack", "--capacity", "8", "--count-with", "chars", "-i", "{input}"],
                       "argument --count-with: expects 'whitespace' or 'field:<name>' "
                       "(got 'chars')"),
        "wd-and-tau": ([*PLAN, "--wd", "0.1", "--tau", "0.1"],
                       "argument --tau: not allowed with argument --wd"),
        "neither-wd-nor-tau": (PLAN, "one of the arguments --wd --tau is required"),
        "threshold": (["dedup-near", "--threshold", "2", "-i", "{input}"],
                      "argument --threshold: must be in (0, 1), got 2.0"),
        "psm-probability": (["transform", "fim", "--psm-probability", "2", "-i", "{input}"],
                            "argument --psm-probability: must be in [0, 1], got 2.0"),
        "total-steps": (["monitor", "--total-steps", "0", "--interval", "500",
                         "--alert", "3,2.0,3.0", "--restart", "5,2.5,4.0", "-i", "{input}"],
                        "argument --total-steps: must be >= 1, got 0"),
        "interval": (["monitor", "--total-steps", "2000", "--interval", "0",
                      "--alert", "3,2.0,3.0", "--restart", "5,2.5,4.0", "-i", "{input}"],
                     "argument --interval: must be >= 1, got 0"),
        "exact-capacity": (["dedup-exact", "--capacity", "0", "-i", "{input}"],
                           "argument --capacity: must be >= 1, got 0"),
        "fpr": (["dedup-exact", "--capacity", "10", "--fpr", "1.5", "-i", "{input}"],
                "argument --fpr: must be in (0, 1), got 1.5"),
        "pack-capacity": (["pack", "--capacity", "0", "-i", "{input}"],
                          "argument --capacity: must be >= 1, got 0"),
        "max-open": (["pack", "--capacity", "8", "--max-open", "0", "-i", "{input}"],
                     "argument --max-open: must be >= 1, got 0"),
        "not-a-number": (["dedup-exact", "--capacity", "1e3", "-i", "{input}"],
                         "argument --capacity: invalid int value: '1e3'"),
        "target-tokens": (["mix", "--stats", "{input}", "--target-tokens", "-1"],
                          "argument --target-tokens: must be >= 0, got -1"),
        "near-seed": (["dedup-near", "--seed", "-1", "-i", "{input}"],
                      "argument --seed: must be >= 0, got -1"),
        "perms": (["dedup-near", "--perms", "0", "-i", "{input}"],
                  "argument --perms: must be >= 1, got 0"),
        "bands": (["dedup-near", "--bands", "0", "-i", "{input}"],
                  "argument --bands: must be >= 1, got 0"),
        "rows": (["dedup-near", "--rows", "0", "-i", "{input}"],
                 "argument --rows: must be >= 1, got 0"),
        "perms-not-bands-times-rows": (["dedup-near", "--perms", "100", "-i", "{input}"],
                                       "argument --perms: must equal --bands * --rows = 128, "
                                       "got 100"),
        "bands-times-rows-not-perms": (["dedup-near", "--bands", "8", "-i", "{input}"],
                                       "argument --perms: must equal --bands * --rows = 64, "
                                       "got 128"),
        "params": ([*PLAN, "--wd", "0.1", "--params", "0"], "argument --params: must be > 0, got 0.0"),
        "tpp-ref-zero": ([*PLAN, "--tau", "0.1", "--tpp-ref", "0", "--tpp-target", "40"],
                         "argument --tpp-ref: must be > 0, got 0.0"),
        "tpp-target-zero": ([*PLAN, "--tau", "0.1", "--tpp-ref", "20", "--tpp-target", "0"],
                            "argument --tpp-target: must be > 0, got 0.0"),
        "tpp-ref-alone": ([*PLAN, "--tau", "0.1", "--tpp-ref", "20"],
                          f"argument --tpp-ref: {TPP_PAIR}"),
        "tpp-target-alone": ([*PLAN, "--tau", "0.1", "--tpp-target", "40"],
                             f"argument --tpp-target: {TPP_PAIR}"),
        "tpp-with-wd": ([*PLAN, "--wd", "0.1", "--tpp-ref", "20", "--tpp-target", "40"],
                        f"argument --tpp-ref: {TPP_PAIR}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_flag_before_any_input_is_read(self, case, tmp_path,
                                                              monkeypatch, capsys):
        argv, error = self.CASES[case]
        source = tmp_path / "in.jsonl"
        source.write_text(records({"text": "never read"}))

        def unread(path):
            raise AssertionError(f"input {path} opened before the flags were checked")

        monkeypatch.setattr(cli, "_open_in", unread)
        monkeypatch.setattr(sys, "stdin", UnreadStdin())
        with pytest.raises(SystemExit) as exited:
            main([a.format(input=source) for a in argv])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (2, "")
        command = " ".join(a for a in argv[:2] if not a.startswith("-"))
        assert err.splitlines()[-1] == f"corpusops {command}: error: {error}"


class TestErrorPaths:
    def test_malformed_lines_skip_and_report(self, monkeypatch, capsys):
        stdin = 'not json\n{"id":"a","text":"fine"}\n'
        code, out, err = run_cli(
            ["dedup-exact", "--capacity", "10"], stdin, monkeypatch, capsys
        )
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["a"]
        assert "line 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dedup-exact", "--capacity", "10"],
            ["dedup-near"],
            ["transform", "fim", "--seed", "3"],
        ],
        ids=lambda argv: argv[-1] if argv[0] == "transform" else argv[0],
    )
    def test_lone_surrogate_record_is_skipped_and_reported(self, argv, monkeypatch, capsys):
        good = [
            {"id": "a", "text": "the first good document"},
            {"id": "c", "text": "another good document here"},
        ]
        _, expected, _ = run_cli(argv, records(*good), monkeypatch, capsys)
        bad = '{"id": "b", "text": "bad \\ud800 text"}\n'
        code, out, err = run_cli(argv, records(good[0]) + bad + records(good[1]), monkeypatch, capsys)
        assert code == 0
        assert out == expected
        reports = [line for line in err.splitlines() if line.startswith("line ")]
        assert reports == ['line 2: "text" cannot be encoded as UTF-8: '
                           "surrogates not allowed at character 4"]

    DOC = {"id": "a", "text": "the first good document"}
    DOC2 = {"id": "c", "text": "another good document here"}

    # command -> argv with "{path}" for the input file, good rows, a row with
    # a lone surrogate outside "text" and "id", and the report it gets.
    SURROGATE_CASES = {
        "dedup-exact": (["dedup-exact", "--capacity", "10", "-i", "{path}"],
                        [DOC, DOC2], {"id": "b", "text": "x", "meta": "\ud800"},
                        '"meta" cannot be encoded as UTF-8: surrogates not allowed at character 0'),
        "dedup-near": (["dedup-near", "-i", "{path}"], [DOC, DOC2],
                       {"id": "b", "text": "x", "timestamp": "2024-\udc00"},
                       '"timestamp" cannot be encoded as UTF-8: surrogates not allowed '
                       "at character 5"),
        "fim": (["transform", "fim", "--seed", "3", "-i", "{path}"], [DOC, DOC2],
                {"id": "b", "text": "x", "meta": {"deep": ["\ud800"]}},
                '"meta" cannot be encoded as UTF-8: surrogates not allowed'),
        "qa": (["transform", "qa", "-i", "{path}"], [DOC, DOC2],
               {"id": "b", "text": "x", "qa": [{"q": "\ud800", "a": "y"}]},
               '"qa" cannot be encoded as UTF-8: surrogates not allowed'),
        "topo": (["transform", "topo", "-i", "{path}"],
                 [{"repo": "r", "files": [{"path": "a.py", "text": "A = 1\n"}]}],
                 {"repo": "s", "files": [{"path": "a.py", "text": "\ud800"}]},
                 '"files" cannot be encoded as UTF-8: surrogates not allowed'),
        "pack": (["pack", "--capacity", "8", "-i", "{path}"], [DOC, DOC2],
                 {"id": "b", "text": "x", "\ud800": 1},
                 '"\\ud800" cannot be encoded as UTF-8: surrogates not allowed'),
        "mix": (["mix", "--stats", "{path}"], [{"group": "g", "tokens": 10, "bucket": "1"}],
                {"group": "\ud800", "tokens": 5, "bucket": "1"},
                '"group" cannot be encoded as UTF-8: surrogates not allowed at character 0'),
        "monitor": (["monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
                     "--restart", "5,2.5,4.0", "--interval", "500", "-i", "{path}"],
                    LOSSES, {"step": 1031, "loss": 1.0, "note": "\udfff"},
                    '"note" cannot be encoded as UTF-8: surrogates not allowed at character 0'),
        "mem": (["evalstats", "mem", "--pairs", "{path}"],
                [{"reference": "Same.", "generated": "Same."}],
                {"reference": "\ud800", "generated": "x"},
                '"reference" cannot be encoded as UTF-8: surrogates not allowed at character 0'),
    }

    @pytest.mark.parametrize("command", sorted(SURROGATE_CASES))
    def test_lone_surrogate_in_any_field_is_skipped_and_reported(self, command, tmp_path,
                                                               monkeypatch, capsys):
        argv, good, bad, report = self.SURROGATE_CASES[command]
        path = tmp_path / "in.jsonl"
        path.write_text(records(*good))
        _, expected, _ = run_cli([a.format(path=path) for a in argv], "", monkeypatch, capsys)
        path.write_text(records(good[0], bad, *good[1:]))
        code, out, err = run_cli([a.format(path=path) for a in argv], "", monkeypatch, capsys)
        assert code == 0, err
        assert out == expected and out
        assert [line for line in err.splitlines() if line.startswith("line ")] == [
            f"line 2: {report}"
        ]

    @pytest.mark.parametrize("command", ["dedup-exact", "dedup-near", "fim", "mix", "monitor",
                                         "pack", "qa", "topo"])
    def test_failed_record_write_reports_the_records_handed_over(self, command, tmp_path,
                                                                 monkeypatch, capsys):
        # Every record stream writes through write_records, so a full
        # device reports how far the output got, the same for each command.
        class FullStdout(io.StringIO):
            lines = 0  # the device fills up after one line

            def write(self, data):
                if FullStdout.lines:
                    raise OSError(28, "No space left on device")
                FullStdout.lines += data.count("\n")
                return len(data)

        argv, good, _, _ = self.SURROGATE_CASES[command]
        if command == "mix":  # a repeated group is skipped; two give two rows
            good = [*good, {"group": "h", "tokens": 5, "bucket": "1"}]
        argv = [a.format(path=tmp_path / "in.jsonl") for a in argv]
        (tmp_path / "in.jsonl").write_text(records(*good, *good))
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: record write failed after 1 records: "
            "[Errno 28] No space left on device"
        )

    def inputs(self, tmp_path):
        """Small input files, by the name that argv templates below use."""
        names = {"path": tmp_path / "in.jsonl", "repos": tmp_path / "repos.jsonl",
                 "stats": tmp_path / "stats.jsonl", "losses": tmp_path / "losses.jsonl"}
        names["path"].write_text(records(self.DOC, self.DOC2, {**self.DOC, "id": "b"}))
        names["repos"].write_text(records(
            {"repo": "r", "files": [{"path": "a.py", "text": "A = 1\n"}]},
            {"repo": "s", "files": [{"path": "b.py", "text": "B = 1\n"}]}))
        names["stats"].write_text(records({"group": "g", "tokens": 10, "bucket": "1"},
                                          {"group": "h", "tokens": 5, "bucket": "1"}))
        names["losses"].write_text(records(*LOSSES))
        return names

    # command -> (argv, the records it writes to "-o /dev/full" or
    # "--clusters /dev/full")
    FULL_DEVICE_CASES = {
        "dedup-exact": (["dedup-exact", "--capacity", "10", "-i", "{path}", "-o", "/dev/full"],
                        2),
        "dedup-near": (["dedup-near", "-i", "{path}", "--clusters", "/dev/full"], 1),
        "pack": (["pack", "--capacity", "8", "-i", "{path}", "-o", "/dev/full"], 3),
        "mix": (["mix", "--stats", "{stats}", "-o", "/dev/full"], 2),
        "plan": (["plan", "--batch-tokens", "1e6", "--lr", "3e-4", "--tokens", "1e9",
                  "--wd", "0.1", "-o", "/dev/full"], 1),
    }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", sorted(FULL_DEVICE_CASES))
    def test_output_on_a_full_device_reports_the_records_handed_over(self, command, tmp_path):
        # A small output fails only at the flush; the file's close then fails
        # again on the same bytes, and must not hide the count.
        argv, written = self.FULL_DEVICE_CASES[command]
        names = self.inputs(tmp_path)
        proc = run_corpusops(*(a.format(**names) for a in argv), text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"error: record write failed after {written} records: "
            "[Errno 28] No space left on device"
        )

    RECORD_STDOUT_CASES = {
        "dedup-exact": ["dedup-exact", "--capacity", "10", "-i", "{path}"],
        "dedup-near": ["dedup-near", "-i", "{path}"],
        "fim": ["transform", "fim", "-i", "{path}"],
        "qa": ["transform", "qa", "-i", "{path}"],
        "topo": ["transform", "topo", "-i", "{repos}"],
        "pack": ["pack", "--capacity", "8", "-i", "{path}"],
        "mix": ["mix", "--stats", "{stats}"],
        "monitor": ["monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
                    "--restart", "5,2.5,4.0", "--interval", "500", "-i", "{losses}"],
        "plan": ["plan", "--batch-tokens", "1e6", "--lr", "3e-4", "--tokens", "1e9",
                 "--wd", "0.1", "--schedule", "linear_to_zero,3e-4,0,10,100"],
    }

    # How a stdout sink fails: a full device, or a pipe whose reader is gone
    # (`corpusops ... | head -0`).
    SINKS = {"full": "[Errno 28] No space left on device",
             "closed-pipe": "[Errno 32] Broken pipe"}

    @staticmethod
    def run_buffered(argv, sink=None):
        """``argv`` with stdout buffered, as when PYTHONUNBUFFERED is unset, and
        captured, or on ``sink``."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUNBUFFERED", "CORPUSOPS_WEBHOOK")}
        if sink is None:
            return run_corpusops(*argv, env=env, text=True)
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            return run_corpusops(*argv, env=env, stdout=stdout, stderr=subprocess.PIPE,
                                 capture_output=False, text=True)
        finally:
            os.close(stdout)

    @pytest.mark.parametrize("sink", sorted(SINKS))
    @pytest.mark.parametrize("command", sorted(RECORD_STDOUT_CASES))
    def test_failed_buffered_stdout_exits_2(self, command, sink, tmp_path):
        # The bytes still buffered made the exit flush fail again: "Exception
        # ignored", exit 120, and the stats line of a command that seemed to
        # succeed.
        names = self.inputs(tmp_path)
        argv = [a.format(**names) for a in self.RECORD_STDOUT_CASES[command]]
        lines = self.run_buffered(argv).stdout.count("\n")
        assert lines >= 2
        proc = self.run_buffered(argv, sink)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: record write failed after {lines} records: {self.SINKS[sink]}"
        ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["dedup-exact", "--capacity", "10", "-i", "{path}"],
                                      ["pack", "--capacity", "8", "-i", "{bad}"]],
                             ids=["stats-line", "line-report"])
    def test_failed_stderr_exits_2(self, argv, unbuffered, tmp_path):
        # main's error line failed on the same device inside its except:
        # exit 1, or 120 once the exit flush failed too.  The child's stderr
        # is the device, so only its status can be checked.
        names = {**self.inputs(tmp_path), "bad": tmp_path / "bad.jsonl"}
        names["bad"].write_text("bad\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUNBUFFERED", "CORPUSOPS_WEBHOOK")}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        stderr = os.open("/dev/full", os.O_WRONLY)
        try:
            proc = run_corpusops(*(a.format(**names) for a in argv), env=env,
                                 stdout=subprocess.PIPE, stderr=stderr, capture_output=False)
        finally:
            os.close(stderr)
        assert proc.returncode == 2

    @pytest.mark.parametrize("sink", sorted(SINKS))
    @pytest.mark.parametrize("argv", [["mix", "--stats", "{stats}", "-o", "{manifest}"],
                                      ["evalstats", "passk", "--n", "10", "--c", "3", "--k", "2"]],
                             ids=["mix-table", "passk"])
    def test_failed_printed_text_exits_2(self, argv, sink, tmp_path):
        names = {**self.inputs(tmp_path), "manifest": tmp_path / "manifest.jsonl"}
        proc = self.run_buffered([a.format(**names) for a in argv], sink)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {self.SINKS[sink]}"]

    @pytest.mark.parametrize("command", sorted(SURROGATE_CASES))
    def test_deeply_nested_line_is_skipped_and_reported(self, command, tmp_path,
                                                        monkeypatch, capsys):
        # The JSON decoder's recursion limit used to end every record command
        # with a RecursionError traceback.
        argv, good, _, _ = self.SURROGATE_CASES[command]
        argv = [a.format(path=tmp_path / "in.jsonl") for a in argv]
        (tmp_path / "in.jsonl").write_text(records(*good))
        _, expected, _ = run_cli(argv, "", monkeypatch, capsys)
        nested = '{"id": "b", "meta": ' + "[" * 100_000 + "]" * 100_000 + "}\n"
        (tmp_path / "in.jsonl").write_text(records(good[0]) + nested + records(*good[1:]))
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 0, err
        assert out == expected and out
        assert [line for line in err.splitlines() if line.startswith("line ")] == [
            "line 2: JSON value nested too deeply to decode"
        ]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "argv", [["dedup-exact", "--capacity", "10"], ["pack", "--capacity", "8"]],
        ids=lambda argv: argv[0],
    )
    def test_invalid_utf8_line_is_skipped_and_reported(self, argv, source, tmp_path,
                                                       monkeypatch, capsys):
        good = records({"id": "a", "text": "one good"}, {"id": "c", "text": "two good"})
        _, expected, _ = run_cli(argv, good, monkeypatch, capsys)
        first, second = good.splitlines(keepends=True)
        data = (first + '{"id": "b", "text": "bad ').encode() + b"\xff" + b' byte"}\n' + second.encode()
        if source == "file":
            path = tmp_path / "in.jsonl"
            path.write_bytes(data)
            code, out, err = run_cli([*argv, "-i", str(path)], "", monkeypatch, capsys)
        else:  # stdin in UTF-8 mode decodes an invalid byte as a lone surrogate
            code, out, err = run_cli(argv, data.decode("utf-8", "surrogateescape"),
                                     monkeypatch, capsys)
        assert code == 0
        assert out == expected
        reports = [line for line in err.splitlines() if line.startswith("line ")]
        assert reports == ["line 2: line is not valid UTF-8: byte 0xff at character 25"]

    def test_invalid_utf8_on_strict_stdin_is_skipped_and_reported(self):
        # Whatever error handler the interpreter gave stdin, the CLI reads
        # it with surrogateescape, as it does -i files.
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
        data = records({"id": "a", "text": "one good"}).encode() + b'{"text": "\xff"}\n'
        proc = run_corpusops("pack", "--capacity", "8", input=data, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode() == "line 2: line is not valid UTF-8: byte 0xff at character 10\n"
        assert b'"docs_packed": 1' in proc.stdout

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_stdio_encoding_changes_no_byte_read_or_written(self, encoding, tmp_path):
        # The two records are one under UTF-8 (the digest folds case), and
        # neither can be written in ASCII.  A file, a redirected file and a
        # pipe are each read and written as UTF-8 whatever the locale says.
        rows = [{"id": "a", "text": "café 中"}, {"id": "b", "text": "CAFÉ 中"}]
        data = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode()
        path = tmp_path / "in.jsonl"
        path.write_bytes(data)

        def run(io_encoding, way):
            argv = ["dedup-exact", "--capacity", "10"]
            env = dict(os.environ, PYTHONIOENCODING=io_encoding)
            if way == "-i":
                proc = run_corpusops(*argv, "-i", str(path), env=env)
            elif way == "<":
                with open(path, "rb") as stdin:
                    proc = run_corpusops(*argv, stdin=stdin, env=env)
            else:
                proc = run_corpusops(*argv, input=data, env=env)
            return proc.returncode, proc.stdout, proc.stderr

        for way in ("-i", "<", "pipe"):
            expected = run("utf-8", way)
            assert expected[:2] == (0, data.splitlines(keepends=True)[0]), way
            assert run(encoding, way) == expected, way

    def test_reports_on_ascii_stdio_are_utf8(self, tmp_path):
        # A cluster line on stderr is JSON, not "caf\xe9"; a table on stdout
        # is written, not refused with a UnicodeEncodeError.
        env = dict(os.environ, PYTHONIOENCODING="ascii")
        text = " ".join(f"tok{i}" for i in range(40))
        rows = [{"id": "café", "text": text}, {"id": "b", "text": text}]
        data = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode()
        proc = run_corpusops("dedup-near", input=data, env=env)
        assert proc.returncode == 0, proc.stderr
        report = [json.loads(line) for line in proc.stderr.decode().splitlines()]
        assert [r["members"] for r in report if "members" in r] == [["b", "café"]]

        stats = tmp_path / "stats.jsonl"
        stats.write_text(json.dumps({"group": "café", "tokens": 10, "bucket": "1"},
                                    ensure_ascii=False) + "\n", encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        proc = run_corpusops("mix", "--stats", str(stats), "-o", str(manifest), env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines()[2].split()[0] == "café"
        assert json.loads(manifest.read_text(encoding="utf-8"))["group"] == "café"

    IO_COMMANDS = {
        "dedup-exact": ["dedup-exact", "--capacity", "10"],
        "dedup-near": ["dedup-near"],
        "fim": ["transform", "fim"],
        "topo": ["transform", "topo"],
        "qa": ["transform", "qa"],
        "pack": ["pack", "--capacity", "8"],
        "monitor": ["monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
                    "--restart", "5,2.5,4.0", "--interval", "500"],
    }

    @pytest.mark.parametrize("command", sorted(IO_COMMANDS))
    def test_output_naming_the_input_exits_2(self, command, tmp_path, monkeypatch, capsys):
        # Opening -o for writing would empty the -i file before a line is read.
        path = tmp_path / "data.jsonl"
        content = records({"id": "a", "text": "some text", "repo": "r", "files": [],
                           "step": 1, "loss": 1.0})
        path.write_text(content)
        (tmp_path / "link").symlink_to(tmp_path)
        other_name = tmp_path / "link" / "data.jsonl"
        argv = [*self.IO_COMMANDS[command], "-i", str(path), "-o", str(other_name)]
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2
        assert err == f"error: -o {other_name} is the input file; write to another file\n"
        assert path.read_text() == content

    def test_output_naming_the_file_on_stdin_exits_2(self, tmp_path):
        path = tmp_path / "data.jsonl"
        content = records({"id": "a", "text": "some text"})
        path.write_text(content)
        with open(path, "rb") as stdin:
            proc = run_corpusops("dedup-exact", "--capacity", "10", "-o", str(path),
                                 stdin=stdin, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: -o {path} is the input file; write to another file\n"
        assert path.read_text() == content

    def test_device_as_input_and_output_is_allowed(self, monkeypatch, capsys):
        argv = ["dedup-exact", "--capacity", "10", "-i", os.devnull, "-o", os.devnull]
        code, _, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 0, err

    def test_clusters_naming_the_output_exits_2(self, tmp_path, monkeypatch, capsys):
        # The cluster report is opened after the kept records are written.
        source = tmp_path / "in.jsonl"
        source.write_text(records({"id": "a", "text": "some text"}, {"id": "b", "text": "some text"}))
        (tmp_path / "link").symlink_to(tmp_path)
        out, other_name = tmp_path / "out.jsonl", tmp_path / "link" / "out.jsonl"
        argv = ["dedup-near", "-i", str(source), "-o", str(out), "--clusters", str(other_name)]
        error = f"error: --clusters {other_name} is also -o {out}; write to another file\n"
        assert run_cli(argv, "", monkeypatch, capsys) == (2, "", error)
        assert not out.exists()
        out.write_text("earlier\n")
        assert run_cli(argv, "", monkeypatch, capsys) == (2, "", error)
        assert out.read_text() == "earlier\n"

    def test_clusters_naming_the_input_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "data.jsonl"
        content = records({"id": "a", "text": "some text"}, {"id": "b", "text": "some text"})
        path.write_text(content)
        (tmp_path / "link").symlink_to(tmp_path)
        other_name = tmp_path / "link" / "data.jsonl"
        argv = ["dedup-near", "-i", str(path), "--clusters", str(other_name)]
        error = f"error: --clusters {other_name} is the input file; write to another file\n"
        assert run_cli(argv, "", monkeypatch, capsys) == (2, "", error)
        with open(path, "rb") as stdin:
            proc = run_corpusops("dedup-near", "--clusters", str(path), stdin=stdin, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: --clusters {path} is the input file; write to another file\n"
        assert path.read_text() == content

    # Each command run with stdout on a file, as the shell's > (mode "w")
    # or >> (mode "a") leaves it; the error names the file it refuses.
    STDOUT_CASES = {
        "clusters": (["dedup-near", "-i", "{source}", "--clusters", "{path}"], "w",
                     "--clusters {path} is also stdout"),
        "stdin": (["dedup-exact", "--capacity", "10"], "a", "stdout is the input file"),
        "stats": (["mix", "--stats", "{path}"], "w", "stdout is the input file"),
        "pairs": (["evalstats", "mem", "--pairs", "{path}"], "a", "stdout is the input file"),
    }

    @pytest.mark.parametrize("case", sorted(STDOUT_CASES))
    def test_stdout_on_a_file_the_command_opens_exits_2(self, case, tmp_path):
        argv, mode, error = self.STDOUT_CASES[case]
        source, path = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        content = records({"id": "a", "text": "some text", "group": "g", "tokens": 10,
                           "bucket": "1", "reference": "a b", "generated": "a b"})
        source.write_text(content)
        path.write_text(content)
        names = {"source": source, "path": path}
        with open(path, "rb") as stdin, open(path, mode + "b") as stdout:
            proc = run_corpusops(*(a.format(**names) for a in argv), stdin=stdin,
                                 stdout=stdout, stderr=subprocess.PIPE,
                                 capture_output=False, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {error.format(**names)}; write to another file\n"
        assert path.read_text() == ("" if mode == "w" else content)

    def test_stdout_and_pipes_that_are_not_an_input_are_allowed(self, tmp_path):
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text(records({"id": "a", "text": "some text"}))
        # -o /dev/stdout is a path: stdout is a sink only when -o is omitted.
        with open(out, "wb") as stdout:
            proc = run_corpusops("dedup-exact", "--capacity", "10", "-i", str(source),
                                 "-o", "/dev/stdout", stdout=stdout,
                                 stderr=subprocess.PIPE, capture_output=False)
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == source.read_text()
        # mix writes its records to stdout, where -o would have put them.
        stats = records({"group": "g", "tokens": 10, "bucket": "1"})
        source.write_text(stats)
        with open(out, "wb") as stdout:
            proc = run_corpusops("mix", "--stats", str(source), stdout=stdout,
                                 stderr=subprocess.PIPE, capture_output=False)
        assert proc.returncode == 0, proc.stderr
        assert parse_lines(out.read_text())[0]["group"] == "g"
        # A pipe on stdin and on stdout names no file.
        proc = run_corpusops("mix", "--stats", "-", input=stats, text=True)
        assert proc.returncode == 0, proc.stderr
        assert parse_lines(proc.stdout)[0]["group"] == "g"

    @pytest.mark.parametrize("mode", ["w", "a"])
    def test_stderr_on_the_input_exits_2(self, mode, tmp_path):
        # "2> f" has emptied the input before the command starts, and with
        # "2>> f" the skip reports would be appended to the file being read.
        path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        content = records({"id": "a", "text": "some text"}, {"id": "b", "text": "other text"})
        path.write_text(content)
        argv = (["dedup-near", "-i", str(path), "-o", str(out)] if mode == "w"
                else ["dedup-exact", "--capacity", "10", "-i", str(path)])
        with open(path, mode + "b") as stderr:
            proc = run_corpusops(*argv, stderr=stderr, stdout=subprocess.PIPE,
                                 capture_output=False, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        error = "error: stderr is the input file; write to another file\n"
        assert path.read_text() == ("" if mode == "w" else content) + error
        assert not out.exists()

    def test_stdout_and_stderr_on_one_log_are_allowed(self, tmp_path):
        source, log = tmp_path / "in.jsonl", tmp_path / "log"
        source.write_text(records({"id": "a", "text": "some text"}) + "not json\n")
        with open(log, "wb") as stdout:  # > log 2>&1
            proc = run_corpusops("dedup-exact", "--capacity", "10", "-i", str(source),
                                 stdout=stdout, stderr=subprocess.STDOUT, capture_output=False)
        assert proc.returncode == 0
        # The kept record, the report and the stats line, sorted: the two
        # streams are flushed in no fixed order.
        report, kept, stats = sorted(log.read_text().splitlines())
        assert report == "line 2: Expecting value: line 1 column 1 (char 0)"
        assert kept == '{"id": "a", "text": "some text"}'
        assert json.loads(stats)["seen"] == 1

    def test_domain_errors_exit_2(self, monkeypatch, capsys):
        code, _, err = run_cli(
            ["evalstats", "passk", "--n", "2", "--c", "1", "--k", "5"],
            "", monkeypatch, capsys,
        )
        assert code == 2
        assert "error:" in err


def test_module_entry_point_subprocess():
    proc = run_corpusops("evalstats", "passk", "--n", "10", "--c", "0", "--k", "3", text=True)
    assert proc.returncode == 0
    assert (proc.stdout, proc.stderr) == ("0\n", "")


class TestImportsPerCommand:
    """Commands other than dedup-near run without numpy; every command,
    ``monitor`` posting to an http:// webhook included, runs without
    urllib.request, http.client or OpenSSL (ssl, _hashlib); commands on
    clean input run without logging.  hashlib is blocked too, because it
    falls back to its built-in hashes when _hashlib is missing."""

    BLOCKED = (
        "numpy", "urllib.request", "http.client", "ssl", "_hashlib", "hashlib", "logging",
    )
    BLOCKED_RUN = (
        "import sys\n"
        f"sys.modules.update(dict.fromkeys({BLOCKED!r}))\n"
        "from corpusops.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run_python(self, code, *args):
        return run_python("-c", code, *args, text=True)

    def test_importing_the_cli_loads_neither(self):
        proc = self.run_python(
            "import sys, corpusops.cli\n"
            f"print(sorted(set({self.BLOCKED!r}) & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--capacity", "8", "-i", "{docs}"],
            ["mix", "--stats", "{groups}", "--target-tokens", "10"],
            ["transform", "topo", "-i", "{repos}"],
            ["transform", "fim", "--seed", "3", "-i", "{docs}"],
            ["transform", "qa", "-i", "{qa}"],
            ["monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
             "--restart", "5,2.5,4.0", "--interval", "500", "-i", "{losses}"],
            ["plan", "--batch-tokens", "1e6", "--lr", "1e-3", "--tokens", "1e9",
             "--wd", "0.1", "--schedule", "cosine_to_floor,1e-3,1e-5,10,100"],
            ["evalstats", "passk", "--n", "4", "--c", "2", "--k", "2"],
            ["evalstats", "mem", "--pairs", "{pairs}"],
            ["dedup-exact", "--capacity", "10", "-i", "{docs}"],
        ],
        ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")),
    )
    def test_command_runs_without_numpy_or_urllib(self, argv, tmp_path):
        inputs = {
            "docs": records({"id": "a", "text": "def f():\n    return 1\n"}),
            "groups": records({"group": "g", "tokens": 10, "bucket": "1"}),
            "repos": records({"repo": "r", "files": [{"path": "a.py", "text": "A = 1\n"}]}),
            "qa": records({"id": "d", "text": "Body.", "qa": [{"q": "Q?", "a": "A."}]}),
            "losses": records(
                *({"step": 1030 + i, "loss": v}
                  for i, v in enumerate([1.0] * 20 + [5.0] * 8 + [1.0] * 10))
            ),
            "pairs": records({"reference": "Same.", "generated": "Same."}),
        }
        paths = {}
        for name, text in inputs.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(text)
        proc = self.run_python(self.BLOCKED_RUN, *(a.format(**paths) for a in argv))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_monitor_without_events_never_loads_urllib(self, tmp_path):
        # The webhook worker starts with the first event only.
        losses = tmp_path / "losses.jsonl"
        losses.write_text(records(*({"step": i, "loss": 1.0} for i in range(50))))
        proc = self.run_python(
            self.BLOCKED_RUN, "monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
            "--restart", "5,2.5,4.0", "--interval", "500",
            "--webhook", "http://127.0.0.1:1/unreachable", "-i", str(losses),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""

    def test_monitor_posts_every_event_without_urllib_or_openssl(self, tmp_path):
        losses = tmp_path / "losses.jsonl"
        losses.write_text(records(
            *({"step": 1030 + i, "loss": v}
              for i, v in enumerate([1.0] * 20 + [5.0] * 8 + [1.0] * 10))
        ))
        with webhook_receiver() as url:
            proc = self.run_python(
                self.BLOCKED_RUN, "monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
                "--restart", "5,2.5,4.0", "--interval", "500", "--webhook", url,
                "-i", str(losses),
            )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        events = parse_lines(proc.stdout)
        assert any(e["tier"] == 2 for e in events)
        assert WebhookCapture.received == events

    def test_dedup_near_loads_neither_numpy_random_nor_numpy_ma(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_text(records(
            {"id": "a", "text": "one two three"}, {"id": "b", "text": "One, two three!"}
        ))
        proc = self.run_python(
            "import sys\n"
            "from corpusops.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted({'numpy', 'numpy.random', 'numpy.ma'} & set(sys.modules)))\n"
            "sys.exit(code)\n",
            "dedup-near", "-i", str(docs), "-o", str(tmp_path / "out.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['numpy']"
        assert '"clusters": 1' in proc.stderr
