"""Document and code transforms for pre-training corpora.

* :func:`fim_transform` rearranges a file into fill-in-the-middle layout,
  conserving every content character and adding each special token once.
* :func:`extract_imports` / :func:`build_dep_graph` / :func:`topo_order` /
  :func:`concat_repo` turn a multi-file repository into one document with
  dependencies first.  Import detection is purely lexical (regular
  expressions per file extension), so commented-out imports count too.
  Each pattern is searched from its literal keyword, which ``re`` finds
  quickly, and its leading anchor (``^\\s*`` or ``\\b``) is checked in
  Python; the names found are those ``re.finditer`` finds.
* :func:`append_qa` appends question/answer blocks to a document.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "DEFAULT_IMPORT_PATTERNS",
    "DepGraph",
    "FIM_MIDDLE",
    "FIM_PREFIX",
    "FIM_SUFFIX",
    "FimConfig",
    "RepoFile",
    "append_qa",
    "build_dep_graph",
    "concat_repo",
    "extract_imports",
    "fim_transform",
    "topo_order",
]


# ---------------------------------------------------------------------------
# Fill-in-the-middle


#: The special tokens that open the prefix, middle and suffix spans.
FIM_PREFIX = "<|fim_prefix|>"
FIM_MIDDLE = "<|fim_middle|>"
FIM_SUFFIX = "<|fim_suffix|>"


@dataclass(frozen=True)
class FimConfig:
    mode_psm_probability: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mode_psm_probability <= 1.0:
            raise ValueError("mode_psm_probability must be in [0, 1]")


def fim_transform(text: str, config: FimConfig, rng: random.Random) -> str:
    """Split text at two uniform random cut points and relabel the spans.

    With probability ``mode_psm_probability`` the output is the PSM layout
    ``<prefix-token>P <suffix-token>S <middle-token>M``, otherwise SPM
    (suffix block first).  Cut points may coincide, giving an empty middle;
    the output is still well formed.  Content bytes are conserved and each
    special token appears exactly once.

    ``rng`` is one stream for all the texts a caller transforms, which the
    caller seeds from ``config.rng_seed``; drawn from one stream, the texts
    take the PSM layout at the configured rate.  A rejected text draws
    nothing.

    Raises ``ValueError`` for empty text or text already containing one of
    the special tokens (reconstruction would be ambiguous).
    """
    if not text:
        raise ValueError("cannot transform empty text")
    for token in (FIM_PREFIX, FIM_MIDDLE, FIM_SUFFIX):
        if token in text:
            raise ValueError(f"text contains reserved token {token!r}")

    i, j = sorted((rng.randint(0, len(text)), rng.randint(0, len(text))))
    prefix, middle, suffix = text[:i], text[i:j], text[j:]

    prefix_block = FIM_PREFIX + prefix
    suffix_block = FIM_SUFFIX + suffix
    middle_block = FIM_MIDDLE + middle
    if rng.random() < config.mode_psm_probability:
        return prefix_block + suffix_block + middle_block
    return suffix_block + prefix_block + middle_block


# ---------------------------------------------------------------------------
# Repository ordering


@dataclass(frozen=True)
class RepoFile:
    path: str
    text: str


#: extension -> regexes whose group 1 is an imported module name.
DEFAULT_IMPORT_PATTERNS: Mapping[str, tuple[str, ...]] = {
    "py": (
        r"^\s*import\s+([\w.]+)",
        r"^\s*from\s+([\w.]+)\s+import\b",
    ),
    "js": (
        r"""\bimport\b[^;\n]*?\bfrom\s+['"]([^'"]+)['"]""",
        r"""\brequire\(\s*['"]([^'"]+)['"]\s*\)""",
        r"""\bimport\s+['"]([^'"]+)['"]""",
    ),
    "c": (r'^\s*#\s*include\s*"([^"]+)"',),
    "java": (r"^\s*import\s+(?:static\s+)?([\w.]+)\s*;",),
    "go": (r'^\s*import\s+"([^"]+)"',),
    "rb": (r"""^\s*require(?:_relative)?\s+['"]([^'"]+)['"]""",),
    "rs": (
        r"^\s*(?:pub\s+)?mod\s+(\w+)\s*;",
        r"^\s*use\s+crate::(\w+)",
    ),
}

_EXTENSION_ALIASES = {
    "pyi": "py",
    "jsx": "js",
    "mjs": "js",
    "cjs": "js",
    "ts": "js",
    "tsx": "js",
    "h": "c",
    "cc": "c",
    "cpp": "c",
    "cxx": "c",
    "hpp": "c",
    "hh": "c",
}


def _extension(path: str) -> str:
    dot = path.rfind(".")
    if dot <= path.rfind("/"):  # the file name has no dot
        return ""
    ext = path[dot + 1:].lower()
    return _EXTENSION_ALIASES.get(ext, ext)


def _at_line_start(text: str, start: int, pos: int) -> bool:
    # ``^\s*`` (MULTILINE): only whitespace since the last "\n", and that
    # line starts at or after the search position.  A "\n" before
    # ``pos - 1`` fails the check either way, so the look-back stops there.
    line = text.rfind("\n", max(pos - 1, 0), start) + 1
    return line >= pos and (line == start or text[line:start].isspace())


_PUB_PREFIX = re.compile(r"\s*(?:pub\s+)?")


def _after_pub_prefix(text: str, start: int, pos: int) -> bool:
    # ``^\s*(?:pub\s+)?``: the same line start, then an optional ``pub``.
    line = text.rfind("\n", max(pos - 1, 0), start) + 1
    return line >= pos and _PUB_PREFIX.fullmatch(text, line, start) is not None


def _at_word_start(text: str, start: int, pos: int) -> bool:
    # ``\b`` before a word character: the previous character is not ``\w``,
    # which ``re`` defines as ``isalnum()`` or ``_`` in a str pattern.
    if start == 0:
        return True
    before = text[start - 1]
    return not (before.isalnum() or before == "_")


# (anchor, its check, what the keyword after it must start with).  Longest
# anchor first: ``^\s*`` is a prefix of the ``pub`` anchor.
_ANCHORS = (
    (r"^\s*(?:pub\s+)?", _after_pub_prefix, re.compile(r"[\w#]")),
    (r"^\s*", _at_line_start, re.compile(r"[\w#]")),
    (r"\b", _at_word_start, re.compile(r"\w")),
)


# A keyword followed by ``\b[^;\n]*?`` (JS ``import ... from``): once one
# passes its anchor and the rest fails, so does every later one before the
# next ";" or "\n", whose rest can go on only where the first one's could.
# ``re.search`` would try each, scanning to that stop every time, so the
# keyword is searched alone and a failed candidate resumes after the stop.
_LINE_SCAN = re.compile(r"\w+\\b(?=\[\^;\\n\]\*\?)")
_STOP = re.compile(r"[;\n]")


def _compile_import_pattern(
    pattern: str,
) -> tuple[re.Pattern[str], Callable[[str, int, int], bool], re.Pattern[str] | None]:
    """Split ``pattern`` into a regex that starts at its literal keyword, a
    Python check of the anchor it dropped, and, for a line scan, that regex
    with the keyword alone searched first."""
    for anchor, check, keyword_start in _ANCHORS:
        rest = pattern[len(anchor):]
        if pattern.startswith(anchor) and keyword_start.match(rest):
            line_scan = _LINE_SCAN.match(rest)
            if line_scan is None:
                return re.compile(rest, re.MULTILINE), check, None
            return re.compile(line_scan.group()), check, re.compile(rest, re.MULTILINE)
    raise ValueError(f"import pattern {pattern!r} does not start with a known "
                     "anchor followed by a literal keyword")


_IMPORT_SCANNERS = {
    ext: tuple(_compile_import_pattern(p) for p in patterns)
    for ext, patterns in DEFAULT_IMPORT_PATTERNS.items()
}


def extract_imports(repo_file: RepoFile) -> list[str]:
    """Module names lexically imported by a file, ordered and deduplicated.

    Matching is regex-only over the raw text, so imports inside comments
    or strings are included by design.  Unknown extensions yield an empty
    list rather than an error.

    The result equals ``re.finditer`` of each pattern of
    :data:`DEFAULT_IMPORT_PATTERNS` in turn (``re.MULTILINE``), but each
    pattern is searched from its literal keyword, which ``re`` finds
    quickly, and its leading anchor is checked in Python.  A rejected
    candidate resumes the search one character later, an accepted one
    at its end, so the matches are the same leftmost, non-overlapping ones.
    An ``import\\b[^;\\n]*?`` candidate that passes its anchor and then
    fails resumes after the next ``;`` or newline, so the scan is linear in
    the line's length.
    """
    text = repo_file.text
    seen: dict[str, None] = {}
    for keyword, anchored, rest in _IMPORT_SCANNERS.get(_extension(repo_file.path), ()):
        pos = 0
        while (match := keyword.search(text, pos)) is not None:
            start = match.start()
            if not anchored(text, start, pos):
                pos = start + 1
            elif rest is not None and (match := rest.match(text, start)) is None:
                stop = _STOP.search(text, start)
                pos = len(text) if stop is None else stop.end()
            else:
                seen[match.group(1)] = None
                pos = match.end()
    return list(seen)


@dataclass
class DepGraph:
    """Directed edges dependency -> dependent over file-path nodes."""

    nodes: list[str]
    edges: set[tuple[str, str]] = field(default_factory=set, init=False)
    _node_set: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._node_set = set(self.nodes)
        if len(self._node_set) != len(self.nodes):
            raise ValueError("duplicate node paths")

    def add_edge(self, dependency: str, dependent: str) -> None:
        if dependency == dependent:
            raise ValueError(f"self-edge on {dependency!r}")
        if dependency not in self._node_set or dependent not in self._node_set:
            raise ValueError(f"edge ({dependency!r}, {dependent!r}) off the node set")
        self.edges.add((dependency, dependent))


_KNOWN_FILE_EXTENSIONS = set(DEFAULT_IMPORT_PATTERNS) | set(_EXTENSION_ALIASES)


def _stem_of_name(candidate: str) -> str:
    last = candidate.rsplit("/", 1)[-1]
    if "." not in last:
        return last
    head, ext = last.rsplit(".", 1)
    if ext.lower() in _KNOWN_FILE_EXTENSIONS:
        # path-like name with a file extension, e.g. "util.h"
        return head.rsplit(".", 1)[-1]
    # dotted module path, e.g. "pkg.mod" -> "mod"
    return ext


def _resolve_module(
    name: str, importer: str, paths: set[str], stems: dict[str, list[str]]
) -> str | None:
    candidate = name.lstrip("./")
    if candidate in paths:
        return candidate
    importer_ext = importer.rsplit(".", 1)[-1] if "." in importer else ""
    dotted = candidate.replace(".", "/")
    for probe in (
        f"{candidate}.{importer_ext}",
        f"{dotted}.{importer_ext}",
        f"{dotted}/__init__.{importer_ext}",
    ):
        if probe in paths:
            return probe
    matches = stems.get(_stem_of_name(candidate))
    return matches[0] if matches else None


def build_dep_graph(files: Sequence[RepoFile]) -> DepGraph:
    """Dependency graph of a repository from lexical import statements.

    Module names resolve to repository paths by exact path, by path with
    the importer's extension, or by file stem (first match in listing
    order).  Unresolvable names and self-imports are ignored.
    """
    paths = [f.path for f in files]
    path_set = set(paths)
    stems: dict[str, list[str]] = {}
    for path in paths:
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        stems.setdefault(stem, []).append(path)

    graph = DepGraph(nodes=list(paths))
    for repo_file in files:
        for name in extract_imports(repo_file):
            target = _resolve_module(name, repo_file.path, path_set, stems)
            if target is not None and target != repo_file.path:
                graph.add_edge(target, repo_file.path)
    return graph


def topo_order(graph: DepGraph, listing: Sequence[str]) -> list[str]:
    """Order files so acyclic dependencies precede their dependents.

    Stable Kahn's algorithm over the strongly-connected-component
    condensation: ties, files the graph leaves unordered, and members of
    a cycle all fall back to original listing order.  Always returns a
    permutation of ``listing``.
    """
    if set(graph.nodes) != set(listing) or len(listing) != len(graph.nodes):
        raise ValueError("listing must contain exactly the graph's nodes")
    rank = {path: i for i, path in enumerate(listing)}

    component_of = _strongly_connected_components(graph, listing)
    members: dict[int, list[str]] = {}
    for path in listing:  # listing order inside each component
        members.setdefault(component_of[path], []).append(path)

    indegree = {c: 0 for c in members}
    dependents: dict[int, set[int]] = {c: set() for c in members}
    for dependency, dependent in graph.edges:
        a, b = component_of[dependency], component_of[dependent]
        if a != b and b not in dependents[a]:
            dependents[a].add(b)
            indegree[b] += 1

    # (listing rank of the first member, component): ranks are unique, so
    # the heap never compares components.
    ready = [(rank[members[c][0]], c) for c in members if indegree[c] == 0]
    heapq.heapify(ready)
    ordered: list[str] = []
    while ready:
        _, current = heapq.heappop(ready)
        ordered.extend(members[current])
        for nxt in dependents[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (rank[members[nxt][0]], nxt))
    return ordered


def _strongly_connected_components(
    graph: DepGraph, listing: Sequence[str]
) -> dict[str, int]:
    """Iterative Tarjan; returns node -> component id."""
    adjacency: dict[str, list[str]] = {path: [] for path in listing}
    for dependency, dependent in graph.edges:
        adjacency[dependency].append(dependent)

    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    component_of: dict[str, int] = {}
    counter = 0
    next_component = 0

    for root in listing:
        if root in index_of:
            continue
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        while work:
            node, neighbours = work[-1]
            for nxt in neighbours:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    break
                if nxt not in component_of:  # indexed, no component yet: on the stack
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            else:  # every neighbour done: node is finished
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        component_of[member] = next_component
                        if member == node:
                            break
                    next_component += 1
    return component_of


# ---------------------------------------------------------------------------
# Repository concatenation and QA appending

_COMMENT_PREFIXES = {
    "py": "#",
    "rb": "#",
    "sh": "#",
    "yaml": "#",
    "yml": "#",
    "toml": "#",
    "js": "//",
    "c": "//",
    "java": "//",
    "go": "//",
    "rs": "//",
    "php": "//",
    "swift": "//",
    "kt": "//",
    "scala": "//",
}


def comment_prefix(path: str) -> str:
    return _COMMENT_PREFIXES.get(_extension(path), "#")


def concat_repo(ordered_files: Sequence[RepoFile]) -> str:
    """One document: per file a filename comment header, then the body.

    File blocks are separated by a single blank line.
    """
    if not ordered_files:
        raise ValueError("cannot concatenate an empty repository")
    blocks = [
        f"{comment_prefix(f.path)} {f.path}\n{f.text}" for f in ordered_files
    ]
    return "\n\n".join(blocks)


def append_qa(document: str, qa_pairs: Sequence[tuple[str, str]]) -> str:
    """Document text plus trailing "Q: ...\\nA: ..." blocks.

    Blocks are separated by blank lines; embedded newlines in questions or
    answers are preserved verbatim.  The result always begins with the
    unmodified document.
    """
    if not qa_pairs:
        raise ValueError("need at least one question/answer pair")
    for q, a in qa_pairs:
        if not isinstance(q, str) or not isinstance(a, str):
            raise TypeError(f"question and answer must be strings, got {q!r}, {a!r}")
    blocks = "".join(f"\n\nQ: {q}\nA: {a}" for q, a in qa_pairs)
    return document + blocks + "\n"
