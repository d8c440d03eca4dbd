import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import corpusops
from corpusops.cli import main
from corpusops.dedup import BloomConfig, BloomFilter


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    """Drive main() with patched stdio; returns (exit_code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(*objs):
    return "".join(json.dumps(o) + "\n" for o in objs)


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

    def test_capacity_overflow_warns_once(self, monkeypatch, capsys):
        stdin = records(*({"id": f"d{i}", "text": f"document number {i}"} for i in range(6000)))
        code, out, err = run_cli(
            ["dedup-exact", "--capacity", "500", "--fpr", "0.001"],
            stdin, monkeypatch, capsys,
        )
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "--capacity 500" in warnings[0]
        # "skipping ..." and "line N: ..." report dropped input records;
        # an overflow drops none by itself.
        assert "skipping" not in err and not any(
            line.startswith("line ") for line in err.splitlines()
        )
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

    def test_negative_seed_exits_2(self, monkeypatch, capsys):
        stdin = records({"id": "a", "text": "hello world"})
        code, out, err = run_cli(["dedup-near", "--seed", "-1"], stdin, monkeypatch, capsys)
        assert code == 2
        assert err.strip() == "error: expected non-negative integer"

    def test_seed_past_64_bits_is_accepted(self, monkeypatch, capsys):
        text = " ".join(f"tok{i}" for i in range(30))
        stdin = records({"id": "a", "text": text}, {"id": "b", "text": text})
        code, out, err = run_cli(
            ["dedup-near", "--seed", str(2**64 + 1)], stdin, monkeypatch, capsys
        )
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["a"]


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

    def test_fim_skips_records_containing_reserved_tokens(self, monkeypatch, capsys):
        stdin = records(
            {"id": "bad", "text": "x<|fim_middle|>y"},
            {"id": "good", "text": "plain code"},
        )
        code, out, err = run_cli(["transform", "fim"], stdin, monkeypatch, capsys)
        assert code == 0
        assert [d["id"] for d in parse_lines(out)] == ["good"]
        assert "bad" in err

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
                        {"repo": None, "files": files})
        code, out, _ = run_cli(["transform", "topo"], stdin, monkeypatch, capsys)
        assert code == 0
        assert [row["id"] for row in parse_lines(out)] == ["line-1", "5", "line-3", "r", "line-5"]
        # Unique ids let the rows go on through near dedup.
        code, _, err = run_cli(["dedup-near"], out, monkeypatch, capsys)
        assert code == 0, err
        assert json.loads(err.splitlines()[-1])["documents"] == 5

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
            + records(good[1])
        )
        code, out, err = run_cli(args, stdin, monkeypatch, capsys)
        assert code == 0
        assert out == expected
        assert err.splitlines() == [
            "line 2: record b is missing length field 'n'",
            "line 3: Expecting value: line 1 column 1 (char 0)",
            "line 4: record d has a non-integer 'n': inf",
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

    def test_wd_and_tau_together_rejected(self, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                ["plan", "--batch-tokens", "1", "--lr", "1", "--tokens", "10",
                 "--wd", "0.1", "--tau", "0.1"],
                "", monkeypatch, capsys,
            )


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
    LOSSES = [{"step": 1030 + i, "loss": v}
              for i, v in enumerate([1.0] * 20 + [5.0] * 8 + [1.0] * 10)]

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
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [TestImportsPerCommand.SRC, env.get("PYTHONPATH")])
        )
        data = records({"id": "a", "text": "one good"}).encode() + b'{"text": "\xff"}\n'
        proc = subprocess.run(
            [sys.executable, "-m", "corpusops", "pack", "--capacity", "8"],
            input=data, capture_output=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode() == "line 2: line is not valid UTF-8: byte 0xff at character 10\n"
        assert b'"docs_packed": 1' in proc.stdout

    def test_domain_errors_exit_2(self, monkeypatch, capsys):
        code, _, err = run_cli(
            ["evalstats", "passk", "--n", "2", "--c", "1", "--k", "5"],
            "", monkeypatch, capsys,
        )
        assert code == 2
        assert "error:" in err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "corpusops", "evalstats", "passk",
         "--n", "10", "--c", "0", "--k", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


class TestImportsPerCommand:
    """Commands other than dedup-near run without numpy or urllib, and
    commands on clean input without logging."""

    SRC = str(pathlib.Path(corpusops.__file__).resolve().parent.parent)
    BLOCKED_RUN = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.modules['urllib.request'] = None\n"
        "sys.modules['logging'] = None\n"
        "from corpusops.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run_python(self, code, *args):
        env = {k: v for k, v in os.environ.items() if k != "CORPUSOPS_WEBHOOK"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, timeout=60, env=env,
        )

    def test_importing_the_cli_loads_neither(self):
        proc = self.run_python(
            "import sys, corpusops.cli\n"
            "print(sorted({'numpy', 'urllib.request', 'logging'} & set(sys.modules)))"
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
        # The webhook worker and urllib start with the first event only.
        losses = tmp_path / "losses.jsonl"
        losses.write_text(records(*({"step": i, "loss": 1.0} for i in range(50))))
        proc = self.run_python(
            self.BLOCKED_RUN, "monitor", "--total-steps", "2000", "--alert", "3,2.0,3.0",
            "--restart", "5,2.5,4.0", "--interval", "500",
            "--webhook", "http://127.0.0.1:1/unreachable", "-i", str(losses),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""

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
