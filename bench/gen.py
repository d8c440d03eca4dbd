"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns plain Python data:
the records to write plus what was planted in them (near-duplicate groups,
import edges, loss spikes).  Record counts and the sizes of planted
structures are fixed per workload, so only the content depends on the
seed and the work per run stays the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

SYLLABLES = [
    "ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa", "re", "di",
    "fu", "ga", "hi", "jo", "ku", "le", "ma", "no", "pi", "ro", "su", "te",
    "va", "we", "xa", "yo", "zu", "be", "co", "da",
]

CURATED_SOURCES = ["Curated", "Code", "Synthetic"]
VOCAB_SIZE = 6000


def make_vocab(rng: random.Random, size: int) -> list[str]:
    """Distinct pseudo-words of two to four syllables."""
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4))))
    return sorted(words)


class Prose:
    """Zipf-weighted pseudo-prose with sentence case and punctuation."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vocab = make_vocab(rng, VOCAB_SIZE)
        rng.shuffle(self.vocab)
        weights = [1.0 / (rank + 1) ** 1.05 for rank in range(VOCAB_SIZE)]
        self.cum_weights = list(_accumulate(weights))

    def words(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)

    def tokens(self, n: int) -> list[str]:
        """``n`` whitespace tokens: words with sentence punctuation attached."""
        rng = self.rng
        out = self.words(n)
        start = 0
        while start < n:
            end = min(n, start + rng.randint(6, 18))
            out[start] = out[start].capitalize()
            if end - start > 6 and rng.random() < 0.4:
                comma = rng.randint(start + 2, end - 3)
                out[comma] += ","
            out[end - 1] += rng.choice(".....!?")
            if rng.random() < 0.2 and end < n:
                out[end - 1] += "\n"
            start = end
        return out


def _accumulate(values):
    total = 0.0
    for value in values:
        total += value
        yield total


def render(tokens: list[str]) -> str:
    return " ".join(tokens)


def iso_date(rng: random.Random) -> str:
    return f"{rng.randint(2016, 2024)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def doc_fields(rng: random.Random, source_class: str) -> dict:
    fields = {"source_class": source_class, "curated": rng.random() < 0.1}
    if rng.random() < 0.9:
        fields["timestamp"] = iso_date(rng)
    return fields


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False))
            handle.write("\n")


def respell(rng: random.Random, text: str) -> str:
    """A copy that normalizes to the same text: case and whitespace change."""
    variant = rng.choice(["verbatim", "upper", "spaced"])
    if variant == "upper":
        return text.upper()
    if variant == "spaced":
        return "  " + text.replace(" ", "  ") + "\n"
    return text


@dataclass
class DedupCorpus:
    """Documents plus the near-duplicate groups planted among them."""

    records: list[dict]
    groups: list[list[str]]  # ids of each planted near-duplicate group


def _edit(rng: random.Random, prose: Prose, tokens: list[str]) -> list[str]:
    """One small edit near an end of the document, so Jaccard stays high."""
    kind = rng.choice(["append", "truncate", "edge_swap"])
    out = list(tokens)
    if kind == "append":
        out += prose.tokens(rng.randint(1, 3))
    elif kind == "truncate":
        out = out[: len(out) - rng.randint(1, 3)]
    else:
        pos = rng.randint(0, 3) if rng.random() < 0.5 else len(out) - rng.randint(1, 4)
        replacement = out[pos]
        while replacement.lower().strip(",.!?\n") == out[pos].lower().strip(",.!?\n"):
            replacement = prose.words(1)[0]
        out[pos] = replacement
    return out


def _finish(rng: random.Random, prefix: str, bodies: list[dict], n_copies: int,
            groups_by_index: list[list[int]]) -> DedupCorpus:
    """Add exact copies, shuffle, assign ids in stream order.

    A copy of a group member joins that group: whichever of the two comes
    first in the stream is the one near dedup sees.
    """
    group_of = {index: group for group in groups_by_index for index in group}
    originals = len(bodies)
    for _ in range(n_copies):
        original = rng.randrange(originals)
        copy = dict(bodies[original])
        copy["text"] = respell(rng, copy["text"])
        copy.update(doc_fields(rng, copy["source_class"]))
        bodies.append(copy)
        if original in group_of:
            group_of[original].append(len(bodies) - 1)
    order = list(range(len(bodies)))
    rng.shuffle(order)
    width = len(str(len(bodies)))
    ids = {}
    records = []
    for position, index in enumerate(order):
        doc_id = f"{prefix}-{position:0{width}d}"
        ids[index] = doc_id
        records.append({"id": doc_id, **bodies[index]})
    groups = [[ids[i] for i in group] for group in groups_by_index]
    return DedupCorpus(records=records, groups=groups)


#: web-dedup: unique documents, near-duplicate groups of each size 2..5
#: (10-12% of the documents) and exact copies (about 3%).
WEB_UNIQUE = 1024
WEB_GROUPS_PER_SIZE = 10
WEB_COPIES = 36


def web_corpus(rng: random.Random) -> DedupCorpus:
    """CommonCrawl-style prose, 200-400 words per document."""
    prose = Prose(rng)
    bodies: list[dict] = []
    groups: list[list[int]] = []

    def new_doc(tokens: list[str]) -> int:
        source = "CommonCrawl" if rng.random() < 0.9 else rng.choice(CURATED_SOURCES)
        bodies.append({"text": render(tokens), **doc_fields(rng, source)})
        return len(bodies) - 1

    for size in range(2, 6):
        for _ in range(WEB_GROUPS_PER_SIZE):
            base = prose.tokens(rng.randint(200, 400))
            members = [new_doc(base)]
            members += [new_doc(_edit(rng, prose, base)) for _ in range(size - 1)]
            groups.append(members)
    for _ in range(WEB_UNIQUE):
        new_doc(prose.tokens(rng.randint(200, 400)))
    return _finish(rng, "web", bodies, WEB_COPIES, groups)


# ---------------------------------------------------------------------------
# code-stream: multi-file repositories with planted import DAGs

LANGUAGES = {
    # ext: (path template, comment prefix, import templates, line template)
    "py": ("pkg/{stem}.py", "#",
           ["import {stem}", "from pkg.{stem} import {name}"],
           "{a} = {b}({c}, {n})"),
    "js": ("src/{stem}.js", "//",
           ["import {{ {name} }} from './{stem}';", "const {name} = require('./{stem}');"],
           "const {a} = {b}({c}, {n});"),
    "h": ("include/{stem}.h", "//", ['#include "{stem}.h"'], "int {a} = {b}({c}, {n});"),
    "java": ("src/com/acme/{stem}.java", "//", ["import com.acme.{stem};"],
             "int {a} = {b}.{c}({n});"),
    "go": ("{stem}/{stem}.go", "//", ['import "example.com/app/{stem}"'],
           "{a} := {b}({c}, {n})"),
    "rb": ("lib/{stem}.rb", "#", ["require_relative '{stem}'"], "{a} = {b}({c}, {n})"),
    "rs": ("src/{stem}.rs", "//", ["mod {stem};", "use crate::{stem}::{name};"],
           "let {a} = {b}({c}, {n});"),
}


@dataclass
class CodeCorpus:
    rows: list[dict]  # {"repo", "files": [{"path", "text"}]}
    edges: dict[str, list[tuple[str, str]]]  # repo -> (dependency, dependent) paths
    comment: dict[str, str]  # file extension -> comment prefix of its header line


def _identifier(rng: random.Random) -> str:
    return "_".join(
        "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2))
    )


#: code-stream: repository rows, of which ``CODE_FORKS`` are forks.
CODE_REPOS = 3000
CODE_FORKS = 150


def code_corpus(rng: random.Random) -> CodeCorpus:
    """Repositories of 3-8 files in one of seven languages.

    Files import 0-2 files placed earlier in a hidden topological order;
    the listing order is shuffled so the transform has to reorder.  The
    forks are exact copies of an earlier repository under another name.
    """
    rows: list[dict] = []
    edges: dict[str, list[tuple[str, str]]] = {}
    width = len(str(CODE_REPOS))
    fork_slots = set(rng.sample(range(1, CODE_REPOS), CODE_FORKS))
    names = sorted({_identifier(rng) for _ in range(5000)})
    for index in range(CODE_REPOS):
        name = f"repo-{index:0{width}d}"
        if index in fork_slots:
            original = rng.choice(rows)
            rows.append({"repo": name, "files": original["files"]})
            edges[name] = edges[original["repo"]]
            continue
        ext = rng.choice(sorted(LANGUAGES))
        path_template, _, import_templates, line_template = LANGUAGES[ext]
        n_files = rng.randint(3, 8)
        stems: list[str] = []
        while len(stems) < n_files:
            stem = "".join(rng.choice(SYLLABLES) for _ in range(3)) + str(rng.randint(0, 9))
            stem = stem.capitalize() if ext == "java" else stem
            if stem not in stems:
                stems.append(stem)
        paths = [path_template.format(stem=stem) for stem in stems]
        repo_edges = []
        files = []
        for i, stem in enumerate(stems):
            deps = rng.sample(range(i), min(i, rng.randint(0, 2)))
            lines = [
                rng.choice(import_templates).format(stem=stems[d], name=rng.choice(names))
                for d in deps
            ]
            repo_edges += [(paths[d], paths[i]) for d in deps]
            n_lines = rng.randint(8, 30)
            words = rng.choices(names, k=3 * n_lines)
            lines += [
                line_template.format(a=words[3 * k], b=words[3 * k + 1], c=words[3 * k + 2],
                                     n=rng.randrange(1000))
                for k in range(n_lines)
            ]
            files.append({"path": paths[i], "text": "\n".join(lines)})
        rng.shuffle(files)
        rows.append({"repo": name, "files": files})
        edges[name] = repo_edges
    comment = {ext: spec[1] for ext, spec in LANGUAGES.items()}
    return CodeCorpus(rows=rows, edges=edges, comment=comment)


# ---------------------------------------------------------------------------
# monitor-replay: a loss series with planted wide and narrow spikes


@dataclass
class LossSeries:
    points: list[dict]  # {"step", "loss"}
    wide: list[tuple[int, int]]  # [start, end) of each wide spike
    narrow: list[tuple[int, int]]


#: Detector settings of the monitor-replay stage: window, floor, peak.
ALERT = (3, 4.0, 5.0)
RESTART = (20, 4.0, 6.0)
CHECKPOINT_INTERVAL = 500
WIDE_WIDTH = 50
NARROW_WIDTHS = [1, 2, 3, 4, 5, 6]
LOSS_POINTS = 150_000
WIDE_SPIKES = 10
NARROW_SPIKES = 36


def loss_series(rng: random.Random) -> LossSeries:
    """A decaying loss curve (always below 4) with planted spikes.

    Spike steps sit between the alert peak (5) and the restart peak (6),
    except one step in the first ten that goes above 6.5.  So the alert
    tier fires on every step whose whole window is inside a spike, and
    the restart tier fires once inside each ``WIDE_WIDTH``-step spike.
    Narrow spikes are 1-6 steps wide: the alert tier sees the wider ones,
    the restart tier none.  Widths are fixed, so the number of events is
    the same for every seed; only positions and values vary.
    """
    widths = [WIDE_WIDTH] * WIDE_SPIKES
    widths += [NARROW_WIDTHS[i % len(NARROW_WIDTHS)] for i in range(NARROW_SPIKES)]
    slot = LOSS_POINTS // len(widths)
    gap = 2 * RESTART[0]
    slots = list(range(len(widths)))
    rng.shuffle(slots)
    wide: list[tuple[int, int]] = []
    narrow: list[tuple[int, int]] = []
    spike_at: dict[int, float] = {}
    for width, s in zip(widths, slots):
        start = s * slot + rng.randint(gap, slot - width - gap)
        (wide if width == WIDE_WIDTH else narrow).append((start, start + width))
        peak = start + rng.randint(0, min(width, 10) - 1)
        for step in range(start, start + width):
            spike_at[step] = rng.uniform(5.2, 5.8)
        spike_at[peak] = rng.uniform(6.5, 7.5)
    points = []
    for step in range(LOSS_POINTS):
        value = spike_at.get(step)
        if value is None:
            value = 2.2 + 0.8 * math.exp(-3.0 * step / LOSS_POINTS) + rng.gauss(0.0, 0.02)
        points.append({"step": step, "loss": round(value, 6)})
    return LossSeries(points=points, wide=sorted(wide), narrow=sorted(narrow))
