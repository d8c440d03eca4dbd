"""The three workloads: their inputs, CLI stages, output checks and traced pass.

A workload writes its seeded inputs into a work directory and lists its
CLI stages; each stage reads the previous stage's output file.  After a
round of stages, ``check`` compares every output with the benchmark's own
reference computations.  ``traced`` repeats the stages in-process through
the library's public functions, inside spans, reading the same stage
input files the CLI round used.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import subprocess
import sys
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
from spans import Missing, Tracer, lookup


@dataclass
class Stage:
    key: str  # cli.<key>_s is this stage's time
    args: list[str]  # corpusops arguments, without input and output files
    src: str  # input file, relative to the work directory
    dst: str  # output file
    src_flag: str = "-i"
    side: dict[str, str] = field(default_factory=dict)  # flag -> further output file
    before: Callable[[], None] | None = None  # benchmark step that writes ``src``

    def argv(self, work: Path, src: str | None = None, dst: str | None = None) -> list[str]:
        argv = [*self.args, self.src_flag, str(work / (src or self.src)), "-o", str(work / (dst or self.dst))]
        for flag, name in self.side.items():
            argv += [flag, str(work / (f"{dst}.{flag.strip('-')}" if dst else name))]
        return argv

    def outputs(self) -> list[str]:
        return [self.dst, *self.side.values()]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# Settings shared by the stages of several workloads.
FPR = 0.001
#: dedup-near settings as NearDupConfig fields; the CLI flags are made from them.
NEAR_CONFIG = {"num_perm": 128, "bands": 16, "rows": 8, "confirm_threshold": 0.8, "perm_seed": 0}
NEAR_ARGS = ["dedup-near", "--perms", str(NEAR_CONFIG["num_perm"]), "--bands", str(NEAR_CONFIG["bands"]),
             "--rows", str(NEAR_CONFIG["rows"]), "--threshold", str(NEAR_CONFIG["confirm_threshold"]),
             "--seed", str(NEAR_CONFIG["perm_seed"])]
FIM_SEED = 7
MIX_TARGET = 1_000_000

#: Per-layer metrics a traced pass can produce, by the part that makes them.
SKETCH = ["dedup.normalize_s", "dedup.shingle_s", "dedup.signature_s"]
CLUSTER = ["dedup.candidates_s", "dedup.candidate_pairs", "dedup.confirm_ratio",
           "dedup.cluster_s", "dedup.represent_s"]
CORPUS = ["corpus.read_s", "corpus.write_s"]


class Workload:
    name = ""
    records = 0  # input records: documents, repository rows or loss points

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.notes: list[str] = []  # why a per-layer metric is missing

    def generate(self) -> None:
        raise NotImplementedError

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def after_round(self) -> tuple[int, int, list[str]]:
        """(operations attempted, failed, errors) outside the stages' records."""
        return 0, 0, []

    def traced(self, tracer: Tracer, counts: dict, missing: set, errors: list) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Start helper processes the stages need."""

    def stop(self) -> None:
        """Stop them; waits until each has ended."""

    # -- pieces shared by the workloads --------------------------------------

    def exact_stage(self, src: str) -> Stage:
        return Stage("dedup_exact", ["dedup-exact", "--capacity", str(self.records), "--fpr", str(FPR)],
                     src, "exact.jsonl")

    def near_stage(self) -> Stage:
        return Stage("dedup_near", NEAR_ARGS, "exact.jsonl", "near.jsonl",
                     side={"--clusters": "clusters.jsonl"})

    def dedup_errors(self, inputs: list[dict], groups: list[list[str]]) -> list[str]:
        """Checks of the dedup-exact and dedup-near stages."""
        exact = read_jsonl(self.work / "exact.jsonl")
        return checks.check_exact(inputs, exact, FPR) + checks.check_near(
            exact, read_jsonl(self.work / "near.jsonl"), read_jsonl(self.work / "clusters.jsonl"),
            groups, NEAR_CONFIG["confirm_threshold"], NEAR_CONFIG["num_perm"], NEAR_CONFIG["bands"],
            NEAR_CONFIG["rows"],
        )

    @contextmanager
    def part(self, missing: set, metrics: list[str]):
        """Run one traced part; a vanished public function marks its metrics missing.

        Only :class:`Missing`, which ``lookup`` raises, is caught here.  Any
        other exception is a fault and ends the traced pass as a failed check.
        """
        try:
            yield
        except Missing as exc:
            missing.update(metrics)
            self.notes.append(f"{', '.join(metrics)} missing: {exc}")

    def read(self, tracer: Tracer, name: str) -> list:
        (read_records,) = lookup("corpusops.corpus", "read_records")
        with open(self.work / name, encoding="utf-8") as handle, tracer.span("corpus.read"):
            docs = list(read_records(handle))
        tracer.count("corpus.read", len(docs))
        return docs

    def write(self, tracer: Tracer, docs: list, name: str) -> None:
        (write_records,) = lookup("corpusops.corpus", "write_records")
        with open(self.work / f"traced.{name}", "w", encoding="utf-8") as handle, tracer.span(
            "corpus.write"
        ):
            write_records(docs, handle)
        tracer.count("corpus.write", len(docs))

    def traced_exact(self, tracer: Tracer, src: str, dst: str, capacity: int, missing: set) -> None:
        with self.part(missing, ["dedup.exact_s", *CORPUS]):
            exact_dedup, BloomConfig = lookup("corpusops.dedup", "exact_dedup", "BloomConfig")
            docs = self.read(tracer, src)
            with tracer.span("dedup.exact"):
                kept_iter, _ = exact_dedup(iter(docs), BloomConfig(capacity=capacity, target_fpr=FPR))
                kept = list(kept_iter)
            tracer.count("dedup.exact", len(docs))
            self.write(tracer, kept, dst)

    def traced_near(self, tracer: Tracer, src: str, dst: str, counts: dict, missing: set,
                    errors: list) -> None:
        """Near dedup as its public stages, then as ``near_dedup``; both must agree."""
        docs = []
        with self.part(missing, [*SKETCH, *CLUSTER, "dedup.near_s", *CORPUS]):
            docs = self.read(tracer, src)
        if not docs:
            return
        staged = whole = None
        with self.part(missing, SKETCH + CLUSTER):
            staged = staged_near(tracer, docs, counts)
        with self.part(missing, ["dedup.near_s", "corpus.write_s"]):
            near_dedup, NearDupConfig = lookup("corpusops.dedup", "near_dedup", "NearDupConfig")
            with tracer.span("dedup.near"):
                kept, clusters = near_dedup(docs, NearDupConfig(**NEAR_CONFIG))
            tracer.count("dedup.near", len(docs))
            whole = ([d.id for d in kept], sorted((c.members, c.representative) for c in clusters))
            self.write(tracer, kept, dst)
        if staged is not None and whole is not None and staged != whole:
            errors.append("staged near dedup and near_dedup kept different documents or clusters")

    def traced_pack(self, tracer: Tracer, src: str, capacity: int, counts: dict, missing: set) -> None:
        with self.part(missing, ["packing.pack_s", "packing.fill", "corpus.read_s"]):
            pack_online, PackInput = lookup("corpusops.packing", "pack_online", "PackInput")
            (word_count,) = lookup("corpusops.corpus", "word_count")
            docs = self.read(tracer, src)
            with tracer.span("packing.pack"):
                sequences, stats = pack_online(
                    (PackInput(id=d.id, length=word_count(d.text)) for d in docs), capacity, 64
                )
                for _ in sequences:
                    pass
            tracer.count("packing.pack", len(docs))
            counts["packing.fill"] = 1.0 - stats.padding_ratio


def staged_near(tracer: Tracer, docs: list, counts: dict):
    """The near-dedup pipeline from its public stages, one span per call."""
    normalize, shingles, signature, cluster, choose_representative, NearDupConfig = lookup(
        "corpusops.dedup", "normalize", "shingles", "signature", "cluster",
        "choose_representative", "NearDupConfig",
    )
    (candidate_pairs_from_buckets,) = lookup("corpusops.dedup.pipeline", "candidate_pairs_from_buckets")
    config = NearDupConfig(**NEAR_CONFIG)
    signatures = {}
    for doc in docs:
        i = tracer.begin("dedup.normalize")
        text = normalize(doc.text)
        tracer.end(i)
        i = tracer.begin("dedup.shingle")
        grams = shingles(text, config.shingle_size)
        tracer.end(i)
        if grams:
            i = tracer.begin("dedup.signature")
            signatures[doc.id] = signature(grams, config.perm_seed, config.num_perm)
            tracer.end(i)
    with tracer.span("dedup.candidates"):
        pairs = candidate_pairs_from_buckets(signatures, config)
    tracer.count("dedup.candidates", len(signatures))
    with tracer.span("dedup.cluster"):
        records = cluster(pairs, signatures, config.confirm_threshold)
    tracer.count("dedup.cluster", len(pairs))
    by_id = {doc.id: doc for doc in docs}
    chosen = []
    for record in records:
        i = tracer.begin("dedup.represent")
        chosen.append((record.members, choose_representative(record, by_id)))
        tracer.end(i)
    counts["dedup.candidate_pairs"] = len(pairs)
    counts["dedup.confirm_ratio"] = confirm_ratio(pairs, signatures, config.confirm_threshold)
    drop = {m for members, rep in chosen for m in members if m != rep}
    return [doc.id for doc in docs if doc.id not in drop], sorted(chosen)


def confirm_ratio(pairs, signatures, threshold: float) -> float:
    """Share of candidate pairs whose signature estimate clears the threshold."""
    import numpy as np

    if not pairs:
        return 0.0
    index = {doc_id: i for i, doc_id in enumerate(signatures)}
    matrix = np.stack([signatures[doc_id].values for doc_id in signatures])
    pair_list = list(pairs)
    left = np.fromiter((index[a] for a, _ in pair_list), np.int64, len(pair_list))
    right = np.fromiter((index[b] for _, b in pair_list), np.int64, len(pair_list))
    confirmed = 0
    for start in range(0, len(pair_list), 20000):
        equal = (matrix[left[start : start + 20000]] == matrix[right[start : start + 20000]]).sum(axis=1)
        confirmed += int(np.count_nonzero(equal / matrix.shape[1] >= threshold))
    return confirmed / len(pair_list)


# ---------------------------------------------------------------------------


class WebDedup(Workload):
    """CommonCrawl-style prose through dedup-exact, dedup-near, pack and mix."""

    name = "web-dedup"
    capacity = 2048

    def generate(self) -> None:
        self.corpus = gen.web_corpus(self.rng)
        self.records = len(self.corpus.records)
        gen.write_jsonl(self.work / "input.jsonl", self.corpus.records)

    def build_stats(self) -> None:
        gen.write_jsonl(self.work / "stats.jsonl", checks.group_stats(read_jsonl(self.work / "near.jsonl")))

    def stages(self) -> list[Stage]:
        return [
            self.exact_stage("input.jsonl"),
            self.near_stage(),
            Stage("pack", ["pack", "--capacity", str(self.capacity)], "near.jsonl", "packed.jsonl"),
            Stage("mix", ["mix", "--target-tokens", str(MIX_TARGET)], "stats.jsonl", "manifest.jsonl",
                  src_flag="--stats", before=self.build_stats),
        ]

    def check(self) -> list[str]:
        near = read_jsonl(self.work / "near.jsonl")
        stats = read_jsonl(self.work / "stats.jsonl")
        errors = self.dedup_errors(self.corpus.records, self.corpus.groups)
        if stats != checks.group_stats(near):
            errors.append("group stats file does not match the kept records")
        return (
            errors
            + checks.check_pack(near, read_jsonl(self.work / "packed.jsonl"), self.capacity)
            + checks.check_mix(stats, read_jsonl(self.work / "manifest.jsonl"), MIX_TARGET)
        )

    def traced(self, tracer: Tracer, counts: dict, missing: set, errors: list) -> None:
        self.traced_exact(tracer, "input.jsonl", "exact.jsonl", self.records, missing)
        self.traced_near(tracer, "exact.jsonl", "near.jsonl", counts, missing, errors)
        self.traced_pack(tracer, "near.jsonl", self.capacity, counts, missing)
        with self.part(missing, ["mix.manifest_s"]):
            build_manifest, sample_plan, GroupStat, DupBucket = lookup(
                "corpusops.mix", "build_manifest", "sample_plan", "GroupStat", "DupBucket"
            )
            (SourceClass,) = lookup("corpusops.corpus", "SourceClass")
            rows = read_jsonl(self.work / "stats.jsonl")
            with tracer.span("mix.manifest"):
                stats = [
                    GroupStat(group=r["group"], tokens=r["tokens"], bucket=DupBucket(r["bucket"]),
                              source_class=SourceClass(r["source_class"]))
                    for r in rows
                ]
                sample_plan(build_manifest(stats), MIX_TARGET)
            tracer.count("mix.manifest", len(rows))


class CodeStream(Workload):
    """Repositories through transform topo, dedup-exact, transform fim, pack."""

    name = "code-stream"
    capacity = 4096

    def generate(self) -> None:
        self.corpus = gen.code_corpus(self.rng)
        self.records = len(self.corpus.rows)
        gen.write_jsonl(self.work / "repos.jsonl", self.corpus.rows)

    def stages(self) -> list[Stage]:
        return [
            Stage("transform_topo", ["transform", "topo"], "repos.jsonl", "topo.jsonl"),
            self.exact_stage("topo.jsonl"),
            Stage("transform_fim", ["transform", "fim", "--seed", str(FIM_SEED), "--psm-probability", "0.5"],
                  "exact.jsonl", "fim.jsonl"),
            Stage("pack", ["pack", "--capacity", str(self.capacity)], "fim.jsonl", "packed.jsonl"),
        ]

    def check(self) -> list[str]:
        topo = read_jsonl(self.work / "topo.jsonl")
        exact = read_jsonl(self.work / "exact.jsonl")
        fim = read_jsonl(self.work / "fim.jsonl")
        return (
            checks.check_topo(self.corpus.rows, topo, self.corpus.edges, self.corpus.comment)
            + checks.check_exact(topo, exact, FPR)
            + checks.check_fim(exact, fim)
            + checks.check_pack(fim, read_jsonl(self.work / "packed.jsonl"), self.capacity)
        )

    def traced(self, tracer: Tracer, counts: dict, missing: set, errors: list) -> None:
        with self.part(missing, ["transforms.topo_s", "corpus.write_s"]):
            RepoFile, build_dep_graph, topo_order, concat_repo = lookup(
                "corpusops.transforms", "RepoFile", "build_dep_graph", "topo_order", "concat_repo"
            )
            (Document,) = lookup("corpusops.corpus", "Document")
            docs = []
            for row in read_jsonl(self.work / "repos.jsonl"):
                i = tracer.begin("transforms.topo")
                files = [RepoFile(f["path"], f["text"]) for f in row["files"]]
                order = topo_order(build_dep_graph(files), [f.path for f in files])
                by_path = {f.path: f for f in files}
                text = concat_repo([by_path[p] for p in order])
                tracer.end(i)
                docs.append(Document(id=row["repo"], text=text))
            self.write(tracer, docs, "topo.jsonl")
        self.traced_exact(tracer, "topo.jsonl", "exact.jsonl", self.records, missing)
        with self.part(missing, ["transforms.fim_s", *CORPUS]):
            fim_transform, FimConfig = lookup("corpusops.transforms", "fim_transform", "FimConfig")
            config = FimConfig(rng_seed=FIM_SEED, mode_psm_probability=0.5)
            rng = random.Random(FIM_SEED)
            out = []
            for doc in self.read(tracer, "exact.jsonl"):
                i = tracer.begin("transforms.fim")
                text = fim_transform(doc.text, config, rng)
                tracer.end(i)
                out.append(dataclasses.replace(doc, text=text))
            self.write(tracer, out, "fim.jsonl")
        self.traced_pack(tracer, "fim.jsonl", self.capacity, counts, missing)


class MonitorReplay(Workload):
    """A long loss series replayed through monitor --webhook to a local receiver."""

    name = "monitor-replay"

    def generate(self) -> None:
        self.series = gen.loss_series(self.rng)
        self.records = len(self.series.points)
        gen.write_jsonl(self.work / "loss.jsonl", self.series.points)

    def start(self) -> None:
        self.receiver = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("receiver.py"))],
            stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.receiver.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}/events"

    def stop(self) -> None:
        receiver = getattr(self, "receiver", None)
        if receiver is not None:
            receiver.terminate()
            try:
                receiver.wait(timeout=10)
            except Exception:
                receiver.kill()
                receiver.wait()
            receiver.stdout.close()

    def drain(self) -> list[dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/drain")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stages(self) -> list[Stage]:
        alert = ",".join(map(str, gen.ALERT))
        restart = ",".join(map(str, gen.RESTART))
        return [
            Stage("monitor", ["monitor", "--total-steps", str(self.records), "--alert", alert,
                              "--restart", restart, "--interval", str(gen.CHECKPOINT_INTERVAL),
                              "--webhook", self.url], "loss.jsonl", "events.jsonl"),
        ]

    def after_round(self) -> tuple[int, int, list[str]]:
        events = read_jsonl(self.work / "events.jsonl")
        missed, errors = checks.missed_deliveries(events, self.drain())
        return len(events), missed, errors

    def check(self) -> list[str]:
        return checks.check_monitor(read_jsonl(self.work / "events.jsonl"), self.series.wide,
                                    self.series.narrow, gen.CHECKPOINT_INTERVAL, gen.RESTART[0])

    def monitor_config(self):
        MonitorConfig, DetectorTier = lookup("corpusops.runwatch", "MonitorConfig", "DetectorTier")
        return MonitorConfig(
            alert=DetectorTier("alert", *gen.ALERT), restart=DetectorTier("restart", *gen.RESTART),
            checkpoint_interval=gen.CHECKPOINT_INTERVAL, total_steps=self.records, webhook=self.url,
        )

    def traced(self, tracer: Tracer, counts: dict, missing: set, errors: list) -> None:
        with self.part(missing, ["runwatch.monitor_s", "runwatch.webhook_s"]):
            run_monitor, MetricPoint = lookup("corpusops.runwatch", "run_monitor", "MetricPoint")
            config = self.monitor_config()
            points = [MetricPoint(step=r["step"], value=r["loss"]) for r in self.series.points]
            urlopen = urllib.request.urlopen

            def traced_urlopen(*args, **kwargs):
                i = tracer.begin("runwatch.webhook")
                try:
                    return urlopen(*args, **kwargs)
                finally:
                    tracer.end(i)

            urllib.request.urlopen = traced_urlopen
            try:
                with tracer.span("runwatch.monitor"):
                    events = [event.to_json() for event in run_monitor(points, config)]
            finally:
                urllib.request.urlopen = urlopen
            tracer.count("runwatch.monitor", len(points))
            missed, post_errors = checks.missed_deliveries(events, self.drain())
            counts["deliveries"] = len(events)
            counts["missed"] = missed
            errors.extend(post_errors)


WORKLOADS = {cls.name: cls for cls in (WebDedup, CodeStream, MonitorReplay)}
