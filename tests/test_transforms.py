import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusops import transforms
from corpusops.transforms import (
    DEFAULT_IMPORT_PATTERNS,
    FIM_MIDDLE,
    FIM_PREFIX,
    FIM_SUFFIX,
    DepGraph,
    FimConfig,
    RepoFile,
    append_qa,
    build_dep_graph,
    concat_repo,
    extract_imports,
    fim_transform,
    topo_order,
)

from helpers import (
    _reference_extension,
    reconstruct_fim,
    reference_extract_imports,
    reference_topo_order,
)

CFG = FimConfig()


class TestFimTransform:
    def test_deterministic_given_seed(self):
        text = "def add(a, b):\n    return a + b\n"
        out1 = fim_transform(text, CFG, random.Random(99))
        out2 = fim_transform(text, CFG, random.Random(99))
        assert out1 == out2

    def test_degenerate_span_still_well_formed(self):
        # Force coinciding cut points by transforming a 1-char text until
        # an empty middle shows up.
        for seed in range(50):
            out = fim_transform("x", CFG, random.Random(seed))
            assert out.count(FIM_PREFIX) == 1
            assert out.count(FIM_MIDDLE) == 1
            assert out.count(FIM_SUFFIX) == 1
            assert reconstruct_fim(out) == "x"

    def test_round_trip_on_random_inputs(self):
        rng = random.Random(4)
        alphabet = "abcdef<|>_\n "
        for trial in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 80)))
            try:
                out = fim_transform(text, CFG, rng)
            except ValueError:
                continue  # rare: random text contained a special token
            assert reconstruct_fim(out) == text

    @given(st.text(min_size=1, max_size=200), st.integers(0, 2**30))
    @settings(max_examples=200, deadline=None)
    def test_character_conservation(self, text, seed):
        for token in (FIM_PREFIX, FIM_MIDDLE, FIM_SUFFIX):
            if token in text:
                return
        out = fim_transform(text, CFG, random.Random(seed))
        stripped = (
            out.replace(FIM_PREFIX, "")
            .replace(FIM_MIDDLE, "")
            .replace(FIM_SUFFIX, "")
        )
        assert sorted(stripped) == sorted(text)

    def test_reserved_token_in_text_errors(self):
        with pytest.raises(ValueError):
            fim_transform("a<|fim_middle|>b", CFG, random.Random(0))

    def test_empty_text_errors(self):
        with pytest.raises(ValueError):
            fim_transform("", CFG, random.Random(0))

    def test_both_layouts_reachable(self):
        layouts = set()
        for seed in range(40):
            out = fim_transform("hello world", CFG, random.Random(seed))
            layouts.add("psm" if out.startswith(FIM_PREFIX) else "spm")
        assert layouts == {"psm", "spm"}


class TestExtractImports:
    def test_python_sibling_imports(self):
        f = RepoFile("main.py", "import utils\nfrom models import Net\nx = 1\n")
        assert extract_imports(f) == ["utils", "models"]

    def test_no_imports(self):
        assert extract_imports(RepoFile("a.py", "x = 1\n")) == []

    def test_commented_out_import_still_matches(self):
        # Lexical matching only: comments are not parsed away.
        f = RepoFile("a.js", "// const x = require('legacy')\n")
        assert extract_imports(f) == ["legacy"]

    def test_unknown_extension_is_empty(self):
        assert extract_imports(RepoFile("data.csv", "import nothing\n")) == []

    def test_deduplicated_in_order(self):
        f = RepoFile("a.py", "import b\nimport c\nimport b\n")
        assert extract_imports(f) == ["b", "c"]

    @pytest.mark.parametrize(
        "path,text,expected",
        [
            ("x.c", '#include "util.h"\n#include <stdio.h>\n', ["util.h"]),
            ("X.java", "import com.app.Helper;\n", ["com.app.Helper"]),
            ("m.go", 'import "fmt"\n', ["fmt"]),
            ("r.rb", "require 'set'\nrequire_relative 'lib'\n", ["set", "lib"]),
            ("l.rs", "mod parser;\nuse crate::lexer;\n", ["parser", "lexer"]),
            ("a.ts", "import {x} from './b';\nconst c = require('./d');\n", ["./b", "./d"]),
        ],
    )
    def test_language_defaults(self, path, text, expected):
        assert extract_imports(RepoFile(path, text)) == expected


# Every character str.isspace() accepts below U+3000 that the tests name,
# including the ones only Unicode counts as whitespace.
WHITESPACE = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x1f", "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u3000"]
EXTENSIONS = sorted(set(DEFAULT_IMPORT_PATTERNS) | set(transforms._EXTENSION_ALIASES))
# Import statements of every language, "{n}" a name and " " any whitespace.
STATEMENTS = [
    "import {n}", "from {n} import {n}", "import {n} from '{n}'", "import '{n}'",
    'import {{{n}}} from "{n}";', "require('{n}')", 'require( "{n}" )',
    '#include "{n}"', '# include"{n}"', "import static {n};", "import {n};",
    'import "{n}"', "require '{n}'", "require_relative \"{n}\"",
    "pub mod {n};", "mod {n} ;", "use crate::{n}", "use crate::{n}::x;",
]
NAMES = ["a", "b.c", "./d", "é", "_x1", "m2", "a/b.h", ""]
JUNK = ["x", "é", "_", "1", "re", "pub", "static", "crate::", "'", '"', ";", "(",
        ")", "#", "//", "import", "from", "mod", "use", "require", ".", "/"]


@st.composite
def import_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        statement = draw(st.sampled_from(STATEMENTS))
        statement = statement.replace(" ", draw(st.sampled_from(WHITESPACE)))
        while "{n}" in statement:
            statement = statement.replace("{n}", draw(st.sampled_from(NAMES)), 1)
        before = draw(st.lists(st.sampled_from(WHITESPACE + JUNK), max_size=3))
        after = draw(st.lists(st.sampled_from(WHITESPACE + JUNK), max_size=3))
        lines.append("".join(before) + statement + "".join(after))
        lines.append(draw(st.sampled_from(["\n", "\r\n", "", " ", "; ", "\n\n"])))
    return "".join(lines)


class TestExtractImportsMatchesFinditer:
    """The keyword-first scan returns what re.finditer of each pattern did."""

    @settings(max_examples=400, deadline=None)
    @given(path=st.text(alphabet="./aPpYy", max_size=8))
    @example(path="")
    @example(path="py")
    @example(path=".py")
    @example(path="a.b/py")
    @example(path="a/b.PY")
    @example(path="a.")
    def test_extension_as_rsplit_finds_it(self, path):
        assert transforms._extension(path) == _reference_extension(path)

    @settings(max_examples=400, deadline=None)
    @given(ext=st.sampled_from(EXTENSIONS + ["PY", "Ts", "txt"]), text=import_texts())
    @example(ext="py", text="reimport x")
    @example(ext="py", text="import a import b")
    @example(ext="js", text="x; import y")
    @example(ext="js", text="x; import y from 'z'")
    @example(ext="rs", text="  pub  mod m;")
    @example(ext="c", text='\x0c#include "a.h"')
    @example(ext="c", text='#include "a.h"#include "b.h"')
    @example(ext="js", text="require('a')require('b')")
    @example(ext="rs", text="use crate::a use crate::b")
    @example(ext="py", text="import a\n\n  \x85import b")
    @example(ext="rs", text="pub\nmod m;\npub mod mod n;")
    @example(ext="js", text="éimport 'a'; _require('b'); 1import 'c'")
    def test_same_names_as_finditer(self, ext, text):
        repo_file = RepoFile(f"src/file.{ext}", text)
        assert extract_imports(repo_file) == reference_extract_imports(repo_file)

    @pytest.mark.parametrize(
        "pattern", [r"import\s+(\w+)", r"(?m)^import (\w+)", r"^\s*\s*import", r"\b#x"]
    )
    def test_pattern_without_a_known_anchor_fails(self, pattern):
        with pytest.raises(ValueError, match="known anchor"):
            transforms._compile_import_pattern(pattern)


def chain_graph(*paths):
    graph = DepGraph(nodes=list(paths))
    for dep, dependent in zip(paths, paths[1:]):
        graph.add_edge(dep, dependent)
    return graph


class TestTopoOrder:
    def test_chain(self):
        graph = chain_graph("a.py", "b.py", "c.py")
        assert topo_order(graph, ["c.py", "b.py", "a.py"]) == ["a.py", "b.py", "c.py"]

    def test_no_edges_preserves_listing(self):
        listing = ["z.py", "m.py", "a.py"]
        graph = DepGraph(nodes=list(listing))
        assert topo_order(graph, listing) == listing

    def test_two_cycle_with_downstream_file(self):
        graph = DepGraph(nodes=["a.py", "b.py", "c.py"])
        graph.add_edge("a.py", "b.py")
        graph.add_edge("b.py", "a.py")
        graph.add_edge("b.py", "c.py")
        order = topo_order(graph, ["a.py", "b.py", "c.py"])
        assert order == ["a.py", "b.py", "c.py"]
        # Oracle: each dependency pair that is not inside a cycle holds.
        assert order.index("b.py") < order.index("c.py")
        assert order.index("a.py") < order.index("c.py")

    def test_self_edges_forbidden(self):
        graph = DepGraph(nodes=["a.py"])
        with pytest.raises(ValueError):
            graph.add_edge("a.py", "a.py")

    def test_add_edge_does_not_scan_the_node_list(self):
        # A membership scan of the list per edge made build_dep_graph
        # quadratic in the number of files.
        class CountingList(list):
            scans = 0

            def __contains__(self, item):
                CountingList.scans += 1
                return super().__contains__(item)

        graph = DepGraph(nodes=CountingList(["a.py", "b.py", "c.py"]))
        graph.add_edge("a.py", "b.py")
        graph.add_edge("b.py", "c.py")
        with pytest.raises(ValueError, match="off the node set"):
            graph.add_edge("a.py", "z.py")
        assert CountingList.scans == 0
        assert graph.edges == {("a.py", "b.py"), ("b.py", "c.py")}

    def test_random_dags_respect_all_edges(self):
        rng = random.Random(77)
        for _ in range(120):
            n = rng.randint(1, 12)
            listing = [f"f{i}.py" for i in range(n)]
            shuffled = list(listing)
            rng.shuffle(shuffled)
            graph = DepGraph(nodes=list(listing))
            # Edges only from earlier to later in a hidden order: acyclic.
            hidden = list(listing)
            rng.shuffle(hidden)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        graph.add_edge(hidden[i], hidden[j])
            order = topo_order(graph, shuffled)
            assert sorted(order) == sorted(listing)
            position = {p: i for i, p in enumerate(order)}
            for dep, dependent in graph.edges:
                assert position[dep] < position[dependent]

    def test_permutation_even_with_cycles(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 10)
            listing = [f"f{i}.py" for i in range(n)]
            graph = DepGraph(nodes=list(listing))
            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.sample(listing, 2)
                graph.add_edge(a, b)
            order = topo_order(graph, listing)
            assert sorted(order) == sorted(listing)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
            )
        )
    )
    def test_same_order_as_sorted_ready_list(self, drawn):
        # Cycles, chains, fans and isolated files, listed in any order.
        permutation, pairs = drawn
        listing = [f"f{i}.py" for i in permutation]
        graph = DepGraph(nodes=sorted(listing))
        for a, b in pairs:
            if a != b:
                graph.add_edge(f"f{a}.py", f"f{b}.py")
        assert topo_order(graph, listing) == reference_topo_order(graph, listing)


class TestBuildDepGraph:
    def test_sibling_resolution(self):
        files = [
            RepoFile("utils.py", "def helper(): pass\n"),
            RepoFile("main.py", "import utils\n"),
        ]
        graph = build_dep_graph(files)
        assert graph.edges == {("utils.py", "main.py")}

    def test_unresolvable_import_ignored(self):
        files = [RepoFile("main.py", "import numpy\n")]
        assert build_dep_graph(files).edges == set()

    def test_end_to_end_ordering(self):
        files = [
            RepoFile("app.py", "import core\nimport api\n"),
            RepoFile("api.py", "import core\n"),
            RepoFile("core.py", "x = 1\n"),
        ]
        graph = build_dep_graph(files)
        listing = [f.path for f in files]
        # app waits on both core and api; api waits on core.
        assert topo_order(graph, listing) == ["core.py", "api.py", "app.py"]


class TestConcatRepo:
    def test_single_file(self):
        out = concat_repo([RepoFile("pkg/run.py", "print('hi')\n")])
        assert out == "# pkg/run.py\nprint('hi')\n"

    def test_two_files_headers_and_order(self):
        out = concat_repo(
            [RepoFile("a.py", "A = 1"), RepoFile("b.js", "let b = 2;")]
        )
        assert out == "# a.py\nA = 1\n\n// b.js\nlet b = 2;"

    def test_empty_repo_errors(self):
        with pytest.raises(ValueError):
            concat_repo([])

    def test_header_split_recovers_boundaries(self):
        # Split oracle: cutting at the known header lines reproduces the
        # original file bodies for random repositories.
        rng = random.Random(13)
        for _ in range(40):
            files = []
            for i in range(rng.randint(1, 6)):
                body = "\n".join(
                    " ".join(f"tok{rng.randrange(1000)}" for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 5))
                )
                files.append(RepoFile(f"dir/file{i}.py", body))
            out = concat_repo(files)
            remainder = out
            recovered = []
            for i, f in enumerate(files):
                header = f"# {f.path}\n"
                assert remainder.startswith(header)
                remainder = remainder[len(header):]
                if i + 1 < len(files):
                    next_header = f"\n\n# {files[i + 1].path}\n"
                    body, remainder = remainder.split(next_header, 1)
                    remainder = f"# {files[i + 1].path}\n" + remainder
                else:
                    body = remainder
                    remainder = ""
                recovered.append(body)
            assert recovered == [f.text for f in files]


class TestAppendQa:
    def test_single_pair_shape(self):
        out = append_qa("The doc.", [("What?", "That.")])
        assert out == "The doc.\n\nQ: What?\nA: That.\n"

    def test_two_pairs_in_order(self):
        out = append_qa("Doc", [("q1", "a1"), ("q2", "a2")])
        assert out == "Doc\n\nQ: q1\nA: a1\n\nQ: q2\nA: a2\n"

    def test_embedded_newline_preserved(self):
        out = append_qa("Doc", [("q", "line1\nline2")])
        assert "A: line1\nline2" in out

    def test_empty_pairs_error(self):
        with pytest.raises(ValueError):
            append_qa("Doc", [])

    @given(st.text(max_size=100), st.lists(st.tuples(st.text(max_size=20), st.text(max_size=20)), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_prefix_equality(self, doc, pairs):
        assert append_qa(doc, pairs).startswith(doc)
