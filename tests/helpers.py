"""Shared generators and independent oracles used across the test suite.

Everything here is deliberately naive (set arithmetic, exhaustive
enumeration, quadratic scans) so it can serve as an oracle for the
production implementations without sharing their code paths.  The
exceptions are :func:`run_python`, which starts child interpreters, and
:func:`webhook_receiver`, a local HTTP server.
"""

from __future__ import annotations

import contextlib
import http.server
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import threading

import corpusops

# ---------------------------------------------------------------------------
# Child processes

SRC = str(pathlib.Path(corpusops.__file__).resolve().parent.parent)


def run_python(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """``python -X dev -W error *args`` with this checkout's sources importable.

    A warning in the child fails the test as it fails an in-process one.
    Most become exceptions there.  One raised where no exception can
    propagate, such as the ``ResourceWarning`` of a file or temporary file
    that the garbage collector closes, is printed as ``Exception ignored``,
    and this helper fails on that.  ``env`` defaults to this process's
    environment without ``CORPUSOPS_WEBHOOK``; ``kwargs`` go to
    :func:`subprocess.run`, which captures output and times out at 60 s
    unless told otherwise.
    """
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "CORPUSOPS_WEBHOOK"}
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])))
    kwargs.setdefault("capture_output", True)
    kwargs.setdefault("timeout", 60)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args], env=env, **kwargs
    )
    stderr = proc.stderr if isinstance(proc.stderr, str) else (proc.stderr or b"").decode(
        "utf-8", "replace"
    )
    assert "Exception ignored" not in stderr, stderr
    return proc


def run_corpusops(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``corpusops *argv`` in a child process, through :func:`run_python`."""
    return run_python("-m", "corpusops", *argv, **kwargs)


class WebhookCapture(http.server.BaseHTTPRequestHandler):
    """Stores each POST and answers it with ``status``."""

    received: list[dict] = []  # parsed bodies
    requests: list[tuple] = []  # (path, headers, raw body)
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        type(self).requests.append((self.path, self.headers, body))
        type(self).received.append(json.loads(body))
        self.send_response(type(self).status)
        self.end_headers()

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def webhook_receiver():
    """Serve :class:`WebhookCapture`, reset, on 127.0.0.1; yields the hook URL."""
    WebhookCapture.received, WebhookCapture.requests, WebhookCapture.status = [], [], 200
    server = http.server.HTTPServer(("127.0.0.1", 0), WebhookCapture)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/hook"
    finally:
        server.shutdown()
        server.server_close()



# ---------------------------------------------------------------------------
# Jaccard / shingle-set generators


def exact_jaccard(a, b) -> float:
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def fresh_token(rng: random.Random) -> str:
    return f"t{rng.randrange(10**12)}"


def shingle_pair_with_jaccard(rng: random.Random, target_j: float, union_size: int):
    """Two disjointly-built shingle sets whose exact Jaccard ~= target_j."""
    n_shared = round(target_j * union_size)
    n_only = union_size - n_shared
    n_a_only = n_only // 2
    shared = [fresh_token(rng) for _ in range(n_shared)]
    a = shared + [fresh_token(rng) for _ in range(n_a_only)]
    b = shared + [fresh_token(rng) for _ in range(n_only - n_a_only)]
    return a, b


# ---------------------------------------------------------------------------
# One-permutation MinHash, transcribed from the documented hash family with
# Python integers and loops


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _reference_splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _reference_polynomial(coefficients, base: int) -> int:
    """sum_j c_j * base**j mod 2**64, one term at a time."""
    total, power = 0, 1
    for c in coefficients:
        total = (total + c * power) & MASK64
        power = (power * base) & MASK64
    return total


def reference_oph_signature(shingle_set, perm_seed: int, num_perm: int = 128) -> list[int]:
    """Byte polynomial per word -> length mix -> shingle polynomial -> keyed
    splitmix64 -> bins -> densify, with seed keys from splitmix64."""
    base, length_key, probes = 0xFF51AFD7ED558CCD, 0xC2B2AE3D27D4EB4F, 32
    seed = perm_seed
    while seed > MASK64:
        seed = (seed >> 64) ^ _reference_splitmix64(seed & MASK64)
    shingle_key = _reference_splitmix64(seed)
    probe_key = _reference_splitmix64((seed + GOLDEN) & MASK64)
    bins: list[int | None] = [None] * num_perm
    for shingle in set(shingle_set):
        word_hashes = []
        for word in shingle.split():
            data = word.encode("utf-8")
            raw = _reference_polynomial(data, base)
            word_hashes.append(_reference_splitmix64((raw + len(data) * length_key) & MASK64))
        h = _reference_splitmix64(_reference_polynomial(word_hashes, base) ^ shingle_key)
        b = h % num_perm
        if bins[b] is None or h < bins[b]:
            bins[b] = h
    out = []
    for b in range(num_perm):
        source = None
        if bins[b] is not None:
            source = b
        for attempt in range(probes):
            if source is not None:
                break
            probe = _reference_splitmix64((b * probes + attempt) ^ probe_key) % num_perm
            if bins[probe] is not None:
                source = probe
        step = 1
        while source is None:
            if bins[(b + step) % num_perm] is not None:
                source = (b + step) % num_perm
            step += 1
        out.append(bins[source])
    return out


def reference_band_keys(values, rows: int) -> list[int]:
    """splitmix64 of each band's polynomial, its first component the top power."""
    base = 0xFF51AFD7ED558CCD
    return [
        _reference_splitmix64(_reference_polynomial(values[b : b + rows][::-1], base))
        for b in range(0, len(values), rows)
    ]


# ---------------------------------------------------------------------------
# Planted near-duplicate corpora, a single-linkage clustering oracle and the
# representative rule


def random_words(rng: random.Random, n: int) -> list[str]:
    return [fresh_token(rng) for _ in range(n)]


def mutate_document(rng: random.Random, words: list[str]) -> list[str]:
    """A near-duplicate of ``words``: <= 10% of the words change."""
    kind = rng.choice(["copy", "append", "truncate", "edge_swap"])
    out = list(words)
    if kind == "append":
        out += random_words(rng, rng.randint(1, 6))
    elif kind == "truncate":
        out = out[: len(out) - rng.randint(1, 6)]
    elif kind == "edge_swap":
        pos = rng.randint(0, 4) if rng.random() < 0.5 else rng.randint(len(out) - 5, len(out) - 1)
        out[pos] = fresh_token(rng)
    return out


def planted_corpus(rng: random.Random, n_groups: int, group_size: int, n_singletons: int):
    """(id -> text) map containing near-duplicate groups plus singletons."""
    docs: dict[str, str] = {}
    for g in range(n_groups):
        base = random_words(rng, rng.randint(120, 180))
        docs[f"g{g}m0"] = " ".join(base)
        for m in range(1, group_size):
            docs[f"g{g}m{m}"] = " ".join(mutate_document(rng, base))
    for s in range(n_singletons):
        docs[f"s{s}"] = " ".join(random_words(rng, rng.randint(80, 200)))
    return docs


def single_linkage_clusters(ids, similarity, threshold: float):
    """Connected components of the >=threshold similarity graph (BFS).

    Returns the components with at least two members, each as a frozenset.
    """
    ids = list(ids)
    adjacency = {i: [] for i in ids}
    for x, y in itertools.combinations(ids, 2):
        if similarity(x, y) >= threshold:
            adjacency[x].append(y)
            adjacency[y].append(x)
    seen: set = set()
    components = []
    for start in ids:
        if start in seen:
            continue
        queue, component = [start], {start}
        seen.add(start)
        while queue:
            for nxt in adjacency[queue.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    seen.add(nxt)
                    queue.append(nxt)
        if len(component) >= 2:
            components.append(frozenset(component))
    return set(components)


def reference_representative(docs) -> str:
    """Id of the member to keep, by one stable sort per key, last tie-break first."""
    docs = sorted(docs, key=lambda doc: doc.id)
    docs.sort(key=lambda doc: doc.timestamp or "", reverse=True)
    docs.sort(key=lambda doc: doc.curated, reverse=True)
    return docs[0].id


# ---------------------------------------------------------------------------
# Quadratic-time reference for rolling median / MAD / spike z-score


def reference_rolling_median(series, t: int, window: int) -> float:
    lo = max(0, t - window + 1)
    chunk = sorted(series[lo : t + 1])
    mid = len(chunk) // 2
    if len(chunk) % 2:
        return chunk[mid]
    return (chunk[mid - 1] + chunk[mid]) / 2


def reference_spike_scores(series, window: int, mad_floor: float):
    """(median, mad, z) per step, recomputed from scratch each step."""
    medians = [reference_rolling_median(series, t, window) for t in range(len(series))]
    out = []
    for t in range(len(series)):
        lo = max(0, t - window + 1)
        deviations = sorted(
            abs(series[s] - medians[s]) for s in range(lo, t + 1)
        )
        mid = len(deviations) // 2
        if len(deviations) % 2:
            mad = deviations[mid]
        else:
            mad = (deviations[mid - 1] + deviations[mid]) / 2
        z = (series[t] - medians[t]) / (1.4826 * max(mad, mad_floor))
        out.append((medians[t], mad, z))
    return out


def reference_monitor_events(points, config):
    """The monitor loop as it was before per-tier O(1) state: :func:`detect`
    over a list copy of each tier's window at every step, z from the
    quadratic reference, no webhook."""
    from collections import deque

    from corpusops.runwatch import MAD_FLOOR, MonitorEvent, detect

    scores = reference_spike_scores([p.value for p in points], config.z_window, MAD_FLOOR)
    alert_window = deque(maxlen=config.alert.window)
    restart_window = deque(maxlen=config.restart.window)
    restart_armed = True
    events = []
    for point, (_, _, z) in zip(points, scores):
        alert_window.append(point.value)
        restart_window.append(point.value)
        if detect(list(alert_window), config.alert):
            events.append(MonitorEvent(1, point.step, min(alert_window), max(alert_window), z))
        restart_hit = detect(list(restart_window), config.restart)
        if restart_hit and restart_armed:
            rollback = (point.step // config.checkpoint_interval) * config.checkpoint_interval
            events.append(
                MonitorEvent(2, point.step, min(restart_window), max(restart_window), z, rollback)
            )
            restart_armed = False
        elif not restart_hit:
            restart_armed = True
    return events


# ---------------------------------------------------------------------------
# Step-by-step best-fit packing reference (naive list scan, no indexing)


def reference_pack(lengths, capacity: int, max_open_bins: int):
    """Literal transcription of the online best-fit policy.

    Returns (list of (entries, padding), skipped_count) where entries are
    the item indices placed in each emitted bin, in placement order.
    """
    open_bins: list[dict] = []  # {"entries": [...], "used": int, "order": int}
    emitted = []
    skipped = 0
    opened = 0

    def seal(bin_):
        emitted.append((bin_["entries"], capacity - bin_["used"]))

    for idx, length in enumerate(lengths):
        if length > capacity:
            skipped += 1
            continue
        best = None
        for b in open_bins:
            remaining = capacity - b["used"]
            if length <= remaining:
                if best is None:
                    best = b
                else:
                    best_rem = capacity - best["used"]
                    if remaining < best_rem or (
                        remaining == best_rem and b["order"] < best["order"]
                    ):
                        best = b
        if best is None:
            if len(open_bins) >= max_open_bins:
                fullest = min(
                    open_bins, key=lambda b: (capacity - b["used"], b["order"])
                )
                open_bins.remove(fullest)
                seal(fullest)
            best = {"entries": [], "used": 0, "order": opened}
            opened += 1
            open_bins.append(best)
        best["entries"].append(idx)
        best["used"] += length
        if best["used"] == capacity:
            open_bins.remove(best)
            seal(best)

    for b in sorted(open_bins, key=lambda b: b["order"]):
        seal(b)
    return emitted, skipped


def optimal_bins(lengths, capacity: int) -> int:
    """Exact minimum bin count by branch and bound.

    Limited to 14 items; larger inputs raise ``ValueError``.
    """
    items = sorted(lengths, reverse=True)
    if len(items) > 14:
        raise ValueError(f"too many items for exhaustive search: {len(items)}")
    if any(length > capacity for length in items):
        raise ValueError("an item exceeds the bin capacity")
    if not items:
        return 0

    best = len(items)  # one bin per item always works

    def search(index: int, bins: list[int]) -> None:
        nonlocal best
        if len(bins) >= best:
            return
        # Volume lower bound on the bins still needed.
        used = sum(bins)
        lower = len(bins) + max(
            0, -((used + sum(items[index:]) - len(bins) * capacity) // -capacity)
        )
        if index == len(items):
            best = min(best, len(bins))
            return
        if lower >= best:
            return
        length = items[index]
        tried: set[int] = set()
        for i, load in enumerate(bins):
            if load + length <= capacity and load not in tried:
                tried.add(load)
                bins[i] += length
                search(index + 1, bins)
                bins[i] -= length
        bins.append(length)
        search(index + 1, bins)
        bins.pop()

    search(0, [])
    return best


# ---------------------------------------------------------------------------
# Fill-in-the-middle round-trip oracle


def reconstruct_fim(transformed):
    """Detect the FIM layout from the leading token and reassemble."""
    from corpusops.transforms import FIM_MIDDLE, FIM_PREFIX, FIM_SUFFIX

    p, m, s = FIM_PREFIX, FIM_MIDDLE, FIM_SUFFIX
    assert transformed.count(p) == transformed.count(m) == transformed.count(s) == 1
    if transformed.startswith(p):  # PSM: <p>P<s>S<m>M
        rest = transformed[len(p):]
        prefix, rest = rest.split(s, 1)
        suffix, middle = rest.split(m, 1)
    else:  # SPM: <s>S<p>P<m>M
        assert transformed.startswith(s)
        rest = transformed[len(s):]
        suffix, rest = rest.split(p, 1)
        prefix, middle = rest.split(m, 1)
    return prefix + middle + suffix


# ---------------------------------------------------------------------------
# Import extraction oracle: re.finditer of each pattern over the whole text,
# and the extension split with str.rsplit, as extract_imports did before it
# searched from the keyword


def _reference_extension(path: str) -> str:
    from corpusops.transforms import _EXTENSION_ALIASES

    name = path.rsplit("/", 1)[-1]
    ext = name.rsplit(".", 1)[-1].lower() if "." in name else ""
    return _EXTENSION_ALIASES.get(ext, ext)


def reference_extract_imports(repo_file) -> list[str]:
    import re

    from corpusops.transforms import DEFAULT_IMPORT_PATTERNS

    seen: list[str] = []
    for pattern in DEFAULT_IMPORT_PATTERNS.get(_reference_extension(repo_file.path), ()):
        for match in re.finditer(pattern, repo_file.text, re.MULTILINE):
            name = match.group(1)
            if name not in seen:
                seen.append(name)
    return seen


# ---------------------------------------------------------------------------
# Topological order oracle: the ready list kept sorted and popped from the
# front, as topo_order did before it used a heap, over components found by
# mutual reachability


def reference_topo_order(graph, listing) -> list[str]:
    reach = {path: {path} for path in listing}
    for path in listing:  # depth-first search from every node
        stack = [path]
        while stack:
            for dependency, dependent in graph.edges:
                if dependency == stack[-1] and dependent not in reach[path]:
                    reach[path].add(dependent)
                    stack.append(dependent)
                    break
            else:
                stack.pop()
    rank = {path: i for i, path in enumerate(listing)}
    component_of = {
        path: min(rank[other] for other in reach[path] if path in reach[other])
        for path in listing
    }
    members: dict[int, list[str]] = {}
    for path in listing:
        members.setdefault(component_of[path], []).append(path)

    indegree = {c: 0 for c in members}
    dependents: dict[int, set[int]] = {c: set() for c in members}
    for dependency, dependent in graph.edges:
        a, b = component_of[dependency], component_of[dependent]
        if a != b and b not in dependents[a]:
            dependents[a].add(b)
            indegree[b] += 1

    ready = sorted((c for c in members if indegree[c] == 0), key=lambda c: rank[members[c][0]])
    ordered: list[str] = []
    while ready:
        current = ready.pop(0)
        ordered.extend(members[current])
        changed = False
        for nxt in dependents[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort(key=lambda c: rank[members[c][0]])
    return ordered


# ---------------------------------------------------------------------------
# pass@k enumeration oracle


def enumerated_pass_at_k(n: int, c: int, k: int) -> float:
    """Fraction of size-k subsets of n attempts containing >= 1 correct."""
    attempts = [True] * c + [False] * (n - c)
    subsets = list(itertools.combinations(range(n), k))
    hits = sum(1 for subset in subsets if any(attempts[i] for i in subset))
    return hits / len(subsets)


def binomial_pass_at_k(n: int, c: int, k: int) -> float:
    """Closed form 1 - C(n-c, k)/C(n, k) via exact integer comb."""
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)
