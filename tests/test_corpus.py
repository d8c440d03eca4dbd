import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusops import corpus
from corpusops.corpus import (
    Document,
    RecordWriteError,
    SourceClass,
    decode_line,
    read_records,
    read_rows,
    word_count,
    write_records,
)


def read_all(text, errors=None):
    collected = []
    docs = list(read_records(io.StringIO(text), on_error=collected.append))
    if errors is not None:
        errors.extend(collected)
    return docs


class TestReadRecords:
    def test_defaults_applied(self):
        docs = read_all('{"id":"a","text":"hi"}\n')
        assert docs == [Document(id="a", text="hi")]
        assert docs[0].dup_count == 1
        assert docs[0].curated is False
        assert docs[0].source_class is SourceClass.COMMON_CRAWL

    def test_empty_input(self):
        assert read_all("") == []

    def test_missing_text_reports_and_continues(self):
        errors = []
        docs = read_all('{"id":"a"}\n{"id":"b","text":"ok"}\n', errors)
        assert [d.id for d in docs] == ["b"]
        assert len(errors) == 1
        assert errors[0].line_number == 1
        assert "text" in errors[0].message

    def test_bad_json_reports_line_number(self):
        errors = []
        docs = read_all('{"text":"one"}\nnot json\n{"text":"three"}\n', errors)
        assert len(docs) == 2
        assert [e.line_number for e in errors] == [2]

    def test_unknown_source_class_is_malformed(self):
        errors = []
        docs = read_all('{"text":"x","source_class":"Wild"}\n', errors)
        assert docs == []
        assert "source_class" in errors[0].message

    def test_missing_id_synthesized_from_line_number(self):
        docs = read_all('{"text":"x"}\n\n{"text":"y"}\n{"id":null,"text":"z"}\n')
        assert [d.id for d in docs] == ["line-1", "line-3", "line-4"]

    @pytest.mark.parametrize(
        "wire, doc_id",
        [("7", "7"), ("1.5", "1.5"), ("-0.0", "-0.0"), ("1e300", "1e+300"), ("true", "true"),
         ("false", "false"), ('["x"]', '["x"]'), ('{"k": "\\u00e9"}', '{"k": "é"}')],
    )
    def test_non_string_id_is_named_by_its_json_text(self, wire, doc_id):
        docs = read_all(f'{{"id": {wire}, "text": "x"}}\n')
        assert [d.id for d in docs] == [doc_id]

    def test_first_line_numbers_lines_and_reports(self):
        errors = []
        docs = list(read_rows(io.StringIO('{"text":"x"}\nnot json\n\n{"text":"y"}\n'),
                              corpus.parse_record, errors.append, first_line=41))
        assert [d.id for d in docs] == ["line-41", "line-44"]
        assert [e.line_number for e in errors] == [42]

    def test_unknown_keys_preserved_in_extra(self):
        docs = read_all('{"id":"a","text":"x","meta":{"src":"cc"},"lang":"en"}\n')
        assert docs[0].extra == {"meta": {"src": "cc"}, "lang": "en"}

    def test_invariant_violations_are_malformed_lines(self):
        errors = []
        docs = read_all(
            '{"id":"a","text":"x","dup_count":0}\n{"id":"b","text":"y"}\n', errors
        )
        assert [d.id for d in docs] == ["b"]
        assert errors[0].line_number == 1 and "dup_count" in errors[0].message

    @pytest.mark.parametrize("curated", ['"false"', '"true"', "1", "0", "null", "[]"])
    def test_curated_other_than_a_json_boolean_is_malformed(self, curated):
        errors = []
        docs = read_all(
            f'{{"id":"a","text":"x","curated":{curated}}}\n'
            '{"id":"b","text":"y","curated":false}\n{"id":"c","text":"z","curated":true}\n',
            errors,
        )
        assert [(d.id, d.curated) for d in docs] == [("b", False), ("c", True)]
        assert [(e.line_number, e.message) for e in errors] == [
            (1, '"curated" must be true or false')
        ]


class TestSurrogateEscapeCheck:
    """Only a line with a JSON escape of a surrogate is decoded twice."""

    def decodes(self, monkeypatch, line):
        calls = []

        def counted(text):
            calls.append(text)
            return decode_line(text)

        monkeypatch.setattr(corpus, "decode_line", counted)
        errors = []
        docs = list(read_records(io.StringIO(line), on_error=errors.append))
        return len(calls), docs, errors

    def test_an_escaped_accent_is_decoded_once(self, monkeypatch):
        count, docs, errors = self.decodes(monkeypatch, '{"id": "a", "text": "caf\\u00e9"}\n')
        assert (count, [d.text for d in docs], errors) == (1, ["café"], [])

    def test_an_escaped_surrogate_pair_is_checked_and_kept(self, monkeypatch):
        count, docs, errors = self.decodes(monkeypatch, '{"id": "a", "text": "\\ud83d\\ude00"}\n')
        assert (count, [d.text for d in docs], errors) == (2, ["\U0001f600"], [])

    def test_an_escaped_backslash_before_ud800_is_checked_and_kept(self, monkeypatch):
        count, docs, errors = self.decodes(monkeypatch, '{"id": "a", "text": "\\\\uD800"}\n')
        assert (count, [d.text for d in docs], errors) == (2, ["\\uD800"], [])

    def test_a_lone_surrogate_is_still_reported(self, monkeypatch):
        count, docs, errors = self.decodes(monkeypatch, '{"id": "a", "text": "\\uDBff"}\n')
        assert (count, docs) == (1, [])
        assert [e.line_number for e in errors] == [1]
        assert "cannot be encoded as UTF-8" in errors[0].message


class TestWriteRecords:
    def test_round_trip_three_docs(self):
        docs = [
            Document(id="a", text="alpha", curated=True, timestamp="2021-04-02"),
            Document(id="b", text="beta\nwith newline", dup_count=7),
            Document(
                id="c",
                text="gamma",
                source_class=SourceClass.CODE,
                extra={"repo": "x/y"},
            ),
        ]
        buf = io.StringIO()
        assert write_records(docs, buf) == 3
        assert list(read_records(io.StringIO(buf.getvalue()))) == docs

    def test_zero_docs_zero_lines(self):
        buf = io.StringIO()
        assert write_records([], buf) == 0
        assert buf.getvalue() == ""

    def test_one_line_per_document(self):
        buf = io.StringIO()
        write_records([Document(id="a", text="x\ny\nz")], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["text"] == "x\ny\nz"

    def test_io_failure_carries_written_count(self):
        class Flaky:
            def __init__(self):
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:  # first record takes 2 writes (json + \n)
                    raise OSError("disk full")

        docs = [Document(id=str(i), text="t") for i in range(3)]
        with pytest.raises(RecordWriteError) as exc_info:
            write_records(docs, Flaky())
        assert exc_info.value.written == 1


@given(
    st.lists(
        st.builds(
            Document,
            id=st.text(min_size=1, max_size=8),
            text=st.text(max_size=60),
            source_class=st.sampled_from(SourceClass),
            dup_count=st.integers(min_value=1, max_value=10_000),
            curated=st.booleans(),
            timestamp=st.none() | st.dates().map(str),
            extra=st.dictionaries(
                st.text(min_size=1, max_size=6).filter(
                    lambda k: k
                    not in {"id", "text", "source_class", "dup_count", "curated", "timestamp"}
                ),
                st.text(max_size=10),
                max_size=3,
            ),
        ),
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip(docs):
    buf = io.StringIO()
    write_records(docs, buf)
    assert list(read_records(io.StringIO(buf.getvalue()))) == docs


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# JSON whitespace, and characters that str.isspace() takes but JSON does not.
_BLANKS = st.text(st.sampled_from(" \t\r\n\x0c\xa0\u2028"), max_size=3)


@st.composite
def wire_lines(draw):
    """One JSON value as a line, then perhaps damaged in one of many ways."""
    separators = (draw(_BLANKS) + "," + draw(_BLANKS), draw(_BLANKS) + ":" + draw(_BLANKS))
    body = json.dumps(
        draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()), separators=separators
    )
    head = draw(st.sampled_from(["", "\ufeff", " ", "\n"]) | _BLANKS)
    tail = draw(
        st.sampled_from(["", "\n", "\r\n", " \n", "\n\n", "\r", "{}", " 1\n", "]\n", "x"])
        | _BLANKS
    )
    line = head + body + tail
    if draw(st.booleans()):
        line = line[: draw(st.integers(min_value=0, max_value=len(line)))]
    return line


def _outcome(decode, line):
    try:
        return "value", repr(decode(line))
    except ValueError as exc:
        return type(exc), str(exc)


@given(wire_lines())
@settings(max_examples=600, deadline=None)
def test_decode_line_matches_json_loads(line):
    # The same value (repr tells -0.0 from 0.0), or the same error class
    # and message, error position included.
    assert _outcome(decode_line, line) == _outcome(json.loads, line)


@pytest.mark.parametrize(
    "line",
    ["", "\n", "\r\n", "   \n", '{"a": 1}\r\n', '\ufeff{"a": 1}\n', '{"a": 1} {"b": 2}\n',
     '{"a": 1}\n\n', '{"a": [1, 2', "NaN\n", '"\\ud800"\n', "1e999\n"],
)
def test_decode_line_matches_json_loads_on_named_lines(line):
    assert _outcome(decode_line, line) == _outcome(json.loads, line)


@pytest.mark.parametrize(
    "line",
    [
        "[" * 100_000 + "]" * 100_000 + "\n",
        '{"a": ' + '{"b": ' * 5_000 + "1" + "}" * 5_001 + "\n",
        " " + "[" * 100_000 + "]" * 100_000 + "\n",  # the scanner rejects the blank: json.loads
        "[" * 100_000,  # truncated: the nesting fails first
    ],
    ids=["arrays", "objects", "leading-blank", "truncated"],
)
def test_decode_line_turns_deep_nesting_into_value_error(line):
    with pytest.raises(ValueError, match="^JSON value nested too deeply to decode$"):
        decode_line(line)


class TestWordCount:
    @pytest.mark.parametrize(
        "text,expected",
        [("a b  c", 3), ("", 0), ("  x ", 1), ("one", 1), ("\t\n ", 0)],
    )
    def test_cases(self, text, expected):
        assert word_count(text) == expected

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_splitter(self, text):
        naive = [w for w in text.split() if w]
        assert word_count(text) == len(naive)
