"""Output checks, computed by the benchmark apart from the program.

Each ``check_*`` function takes the records a stage read and wrote and
returns a list of error strings (empty when the output is correct).  The
references are deliberately plain: set arithmetic, sorting and counting,
with their own text normalization, so they share no code with corpusops.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import Iterable

# ---------------------------------------------------------------------------
# text helpers


def normalize(text: str) -> str:
    """Lowercase, delete Unicode punctuation (P*), collapse whitespace."""
    table = {ord(ch): None for ch in set(text) if unicodedata.category(ch).startswith("P")}
    return " ".join(text.strip().lower().translate(table).split())


def shingle_set(text: str, n: int = 13) -> frozenset[str]:
    words = normalize(text).split()
    if len(words) < n:
        return frozenset([" ".join(words)]) if words else frozenset()
    return frozenset(" ".join(words[i : i + n]) for i in range(len(words) - n + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b) if a or b else 1.0


def poisson_limit(mean: float, tail: float = 1e-6) -> int:
    """Smallest k with P(Poisson(mean) > k) <= tail."""
    k, term = 0, math.exp(-mean)
    cdf = term
    while 1.0 - cdf > tail:
        k += 1
        term *= mean / k
        cdf += term
    return k


# ---------------------------------------------------------------------------
# dedup-exact


def check_exact(inputs: list[dict], outputs: list[dict], fpr: float) -> list[str]:
    """Every later occurrence of a normalized text is dropped; first kept.

    A Bloom filter has no false negatives, so no copy may survive.  It may
    drop a unique document with probability at most ``fpr`` per insert;
    the number of such drops must stay under the Poisson 1e-6 limit.
    """
    errors = []
    seen: set[str] = set()
    first = []
    for record in inputs:
        key = normalize(record["text"])
        if key not in seen:
            seen.add(key)
            first.append(record["id"])
    kept = [record["id"] for record in outputs]
    first_set, kept_set = set(first), set(kept)
    survivors = kept_set - first_set
    if survivors:
        errors.append(f"dedup-exact kept {len(survivors)} planted copies, e.g. {sorted(survivors)[:3]}")
    if [i for i in first if i in kept_set] != kept:
        errors.append("dedup-exact changed the order of kept records")
    lost = len(first_set - kept_set)
    limit = poisson_limit(len(first) * fpr)
    if lost > limit:
        errors.append(f"dedup-exact dropped {lost} unique records; fpr {fpr} allows {limit}")
    by_id = {record["id"]: record for record in inputs}
    if any(
        any(out.get(key) != value for key, value in by_id.get(out["id"], {"": 0}).items())
        for out in outputs
    ):
        errors.append("dedup-exact altered a kept record")
    return errors


# ---------------------------------------------------------------------------
# dedup-near


def miss_probability(j: float, num_perm: int, bands: int, rows: int, threshold: float) -> float:
    """Upper bound on P(a pair of Jaccard j is not confirmed).

    Missed by banding: (1 - j^rows)^bands.  Rejected by the estimator:
    P(Binomial(num_perm, j) < threshold * num_perm).
    """
    banding = (1.0 - j**rows) ** bands
    need = math.ceil(threshold * num_perm - 1e-9)
    rejected = sum(
        math.comb(num_perm, k) * j**k * (1.0 - j) ** (num_perm - k) for k in range(need)
    )
    return min(1.0, banding + rejected)


def reference_components(records: dict[str, dict], groups: list[list[str]], threshold: float):
    """Single linkage at exact shingle Jaccard >= threshold within each group.

    Returns (components, tree_jaccards): the components with two or more
    members, and the Jaccard of every edge of the BFS spanning trees that
    connect them.  Edges are evaluated lazily from each visited member to
    the members not yet reached, so a star-shaped group costs one pass.
    """
    components: list[frozenset[str]] = []
    tree: list[float] = []
    for group in groups:
        present = [doc_id for doc_id in group if doc_id in records]
        sets = {doc_id: shingle_set(records[doc_id]["text"]) for doc_id in present}
        unvisited = list(present)
        while unvisited:
            start = unvisited.pop(0)
            component, queue = [start], [start]
            while queue:
                current = queue.pop(0)
                still = []
                for other in unvisited:
                    j = jaccard(sets[current], sets[other])
                    if j >= threshold:
                        component.append(other)
                        queue.append(other)
                        tree.append(j)
                    else:
                        still.append(other)
                unvisited = still
            if len(component) > 1:
                components.append(frozenset(component))
    return components, tree


def representative(members: Iterable[dict]) -> str:
    """Curated first, then newest timestamp (missing = oldest), then smallest id."""
    ranked = sorted(members, key=lambda r: r["id"])
    ranked.sort(key=lambda r: r.get("timestamp") or "", reverse=True)
    ranked.sort(key=lambda r: bool(r.get("curated", False)), reverse=True)
    return ranked[0]["id"]


def check_near(inputs: list[dict], outputs: list[dict], clusters: list[dict],
               groups: list[list[str]], threshold: float, num_perm: int,
               bands: int, rows: int) -> list[str]:
    """Zero false merges, false splits under the estimator's bound,
    curated/newest/smallest-id representatives carrying the cluster size."""
    errors = []
    by_id = {record["id"]: record for record in inputs}
    components, tree = reference_components(by_id, groups, threshold)
    component_of = {doc_id: i for i, comp in enumerate(components) for doc_id in comp}

    merges = 0
    cluster_of: dict[str, int] = {}
    for index, row in enumerate(clusters):
        members = row["members"]
        cluster_of.update((m, index) for m in members)
        owners = {component_of.get(m, ("alone", m)) for m in members}
        merges += len(owners) - 1
        if row["size"] != len(members) or len(set(members)) != len(members):
            errors.append(f"cluster of {row['representative']} has a bad size or repeated members")
        if not set(members) <= by_id.keys():
            errors.append(f"cluster of {row['representative']} names unknown documents")
            continue
        expected = representative(by_id[m] for m in members)
        if row["representative"] != expected:
            errors.append(
                f"cluster of size {len(members)} kept {row['representative']}, expected {expected}"
            )
    if merges:
        errors.append(f"dedup-near made {merges} false merges")

    splits = sum(
        len({cluster_of.get(m, ("alone", m)) for m in comp}) - 1 for comp in components
    )
    expected_misses = sum(miss_probability(j, num_perm, bands, rows, threshold) for j in tree)
    limit = poisson_limit(expected_misses)
    if splits > limit:
        errors.append(f"dedup-near made {splits} false splits; the estimator allows {limit}")

    dropped = {m for row in clusters for m in row["members"] if m != row["representative"]}
    sizes = {row["representative"]: row["size"] for row in clusters}
    expected_ids = [r["id"] for r in inputs if r["id"] not in dropped]
    if [r["id"] for r in outputs] != expected_ids:
        errors.append("dedup-near kept records do not match its cluster report")
    for record in outputs:
        want = sizes.get(record["id"], by_id.get(record["id"], {}).get("dup_count", 1))
        if record.get("dup_count", 1) != want:
            errors.append(f"{record['id']} has dup_count {record.get('dup_count')}, expected {want}")
            break
    return errors


# ---------------------------------------------------------------------------
# mix

#: The paper's upsampling table: unique documents weigh 1; CommonCrawl
#: clusters weigh 3/5/8/10 by bucket; other duplicated sources a flat 2.
BUCKETS = [(1, 1, "1"), (2, 5, "2-5"), (6, 100, "6-100"), (101, 1000, "101-1000"),
           (1001, math.inf, ">1000")]
CC_WEIGHTS = {"1": 1, "2-5": 3, "6-100": 5, "101-1000": 8, ">1000": 10}


def bucket_name(dup_count: int) -> str:
    return next(name for low, high, name in BUCKETS if low <= dup_count <= high)


def expected_weight(bucket: str, source_class: str) -> int:
    if bucket == "1":
        return 1
    return CC_WEIGHTS[bucket] if source_class == "CommonCrawl" else 2


def group_stats(records: Iterable[dict]) -> list[dict]:
    """Token totals per (source class, duplication bucket), sorted by group."""
    tokens: Counter = Counter()
    for record in records:
        key = (record.get("source_class", "CommonCrawl"), bucket_name(record.get("dup_count", 1)))
        tokens[key] += len(record["text"].split())
    return [
        {"group": f"{source}/{bucket}", "tokens": count, "bucket": bucket, "source_class": source}
        for (source, bucket), count in sorted(tokens.items())
    ]


def check_mix(stats: list[dict], manifest: list[dict], target: int) -> list[str]:
    errors = []
    if [row["group"] for row in manifest] != [row["group"] for row in stats]:
        return ["mix manifest groups differ from the stats it was given"]
    total = sum(s["tokens"] * expected_weight(s["bucket"], s["source_class"]) for s in stats)
    for s, row in zip(stats, manifest):
        weight = expected_weight(s["bucket"], s["source_class"])
        if row["weight"] != weight:
            errors.append(f"{s['group']}: weight {row['weight']}, the table says {weight}")
        if row["tokens"] != s["tokens"] or row["weighted_tokens"] != s["tokens"] * weight:
            errors.append(f"{s['group']}: token counts do not match the stats")
        share = s["tokens"] * weight * target / total
        if abs(row["proportion"] * total - s["tokens"] * weight) > 1e-6 * total:
            errors.append(f"{s['group']}: proportion {row['proportion']} is off")
        if not math.floor(share - 1e-6) <= row["quota_tokens"] <= math.floor(share + 1e-6) + 1:
            errors.append(f"{s['group']}: quota {row['quota_tokens']} is not a rounding of {share}")
    if sum(row["quota_tokens"] for row in manifest) != target:
        errors.append("mix quotas do not sum to the target")
    return errors


# ---------------------------------------------------------------------------
# transforms


def split_repo_doc(text: str, paths: set[str], comment: dict[str, str]) -> list[tuple[str, str]]:
    """(path, body) blocks of a concatenated repository, split at header lines."""
    headers = {f"{comment[p.rsplit('.', 1)[-1]]} {p}": p for p in paths}
    blocks: list[tuple[str, list[str]]] = []
    for line in text.split("\n"):
        path = headers.get(line)
        if path is not None and all(path != b[0] for b in blocks):
            if blocks and blocks[-1][1] and blocks[-1][1][-1] == "":
                blocks[-1][1].pop()  # the blank separator line
            blocks.append((path, []))
        elif blocks:
            blocks[-1][1].append(line)
        else:
            return []
    return [(path, "\n".join(lines)) for path, lines in blocks]


def check_topo(rows: list[dict], outputs: list[dict], edges: dict[str, list[tuple[str, str]]],
               comment: dict[str, str]) -> list[str]:
    errors = []
    if [r["repo"] for r in rows] != [o["id"] for o in outputs]:
        return ["transform topo output ids do not match its input repositories"]
    for row, out in zip(rows, outputs):
        files = {f["path"]: f["text"] for f in row["files"]}
        blocks = split_repo_doc(out["text"], set(files), comment)
        order = [path for path, _ in blocks]
        if sorted(order) != sorted(files) or any(files[p] != body for p, body in blocks):
            errors.append(f"{row['repo']}: output is not a permutation of its files")
            continue
        position = {path: i for i, path in enumerate(order)}
        late = [(a, b) for a, b in edges[row["repo"]] if position[a] > position[b]]
        if late:
            errors.append(f"{row['repo']}: {late[0][1]} placed before its import {late[0][0]}")
    return errors


FIM_TOKENS = ("<|fim_prefix|>", "<|fim_middle|>", "<|fim_suffix|>")


def unfim(text: str) -> str | None:
    """Reassemble a PSM or SPM document; None if malformed."""
    prefix_tok, middle_tok, suffix_tok = FIM_TOKENS
    if any(text.count(tok) != 1 for tok in FIM_TOKENS):
        return None
    if text.startswith(prefix_tok):
        head, middle = text[len(prefix_tok):].split(middle_tok)
        prefix, suffix = head.split(suffix_tok)
    elif text.startswith(suffix_tok):
        head, middle = text[len(suffix_tok):].split(middle_tok)
        suffix, prefix = head.split(prefix_tok)
    else:
        return None
    return prefix + middle + suffix


def check_fim(inputs: list[dict], outputs: list[dict]) -> list[str]:
    if [r["id"] for r in inputs] != [r["id"] for r in outputs]:
        return ["transform fim output ids do not match its input"]
    bad = [o["id"] for i, o in zip(inputs, outputs) if unfim(o["text"]) != i["text"]]
    return [f"transform fim broke {len(bad)} documents, e.g. {bad[0]}"] if bad else []


# ---------------------------------------------------------------------------
# pack


def check_pack(inputs: list[dict], rows: list[dict], capacity: int) -> list[str]:
    errors = []
    sequences, summary = rows[:-1], rows[-1]
    lengths = {r["id"]: len(r["text"].split()) for r in inputs}
    placed = Counter(e["id"] for seq in sequences for e in seq["entries"])
    if placed != Counter(r["id"] for r in inputs):
        errors.append("pack did not place every document exactly once")
    for seq in sequences:
        if seq["capacity"] != capacity:
            errors.append(f"pack emitted a sequence of capacity {seq['capacity']}")
            break
        if sum(e["len"] for e in seq["entries"]) + seq["padding"] != capacity or seq["padding"] < 0:
            errors.append("pack emitted a sequence whose entries and padding miss the capacity")
            break
        if any(lengths.get(e["id"]) != e["len"] for e in seq["entries"]):
            errors.append("pack recorded a length that differs from the whitespace count")
            break
    if len(sequences) < math.ceil(sum(lengths.values()) / capacity):
        errors.append("pack used fewer sequences than the volume bound allows")
    if summary.get("sequences") != len(sequences) or summary.get("docs_packed") != len(inputs):
        errors.append("pack summary does not match its sequences")
    return errors


# ---------------------------------------------------------------------------
# monitor


def check_monitor(events: list[dict], wide: list[tuple[int, int]], narrow: list[tuple[int, int]],
                  interval: int, restart_window: int) -> list[str]:
    errors = []
    restarts = [e for e in events if e["tier"] == 2]
    for start, end in wide:
        inside = [e for e in restarts if start <= e["step"] < end]
        if len(inside) != 1:
            errors.append(f"wide spike at {start} got {len(inside)} restart events")
        elif inside[0]["rollback_step"] != inside[0]["step"] // interval * interval:
            errors.append(f"restart at {inside[0]['step']} has rollback {inside[0]['rollback_step']}")
    for start, end in narrow:
        if any(start <= e["step"] < end + restart_window for e in restarts):
            errors.append(f"narrow spike at {start} caused a restart event")
    spans = wide + narrow
    stray = [e["step"] for e in events if not any(s <= e["step"] < t for s, t in spans)]
    if stray:
        errors.append(f"{len(stray)} events outside every planted spike, e.g. step {stray[0]}")
    return errors


def missed_deliveries(events: list[dict], received: list[dict]) -> tuple[int, list[str]]:
    """(events the receiver never got, errors for posts that match no event)."""
    emitted = Counter(_key(e) for e in events)
    got = Counter(_key(e) for e in received)
    extra = got - emitted
    errors = [f"receiver got {sum(extra.values())} posts that match no emitted event"] if extra else []
    return sum((emitted - got).values()), errors


def _key(event: dict) -> tuple:
    return tuple(sorted(event.items()))
