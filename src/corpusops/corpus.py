"""Canonical document model and newline-delimited JSON record streaming.

Every other module consumes or emits :class:`Document` streams.  Records on
the wire are UTF-8 JSON objects, one per line, with a required ``text`` key
and recognized keys ``id``, ``source_class``, ``dup_count``, ``curated``,
``timestamp``.  Unknown keys survive a read/write round-trip via
``Document.extra``.

Malformed lines are skipped and reported instead of aborting the stream:
curation runs over very large corpora must be fault-tolerant.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

__all__ = [
    "Document",
    "RecordError",
    "RecordWriteError",
    "SourceClass",
    "decode_line",
    "document_to_json",
    "line_id",
    "parse_record",
    "read_records",
    "read_rows",
    "word_count",
    "write_records",
]

_KNOWN_KEYS = ("id", "text", "source_class", "dup_count", "curated", "timestamp")

_LINE_ENDS = ("\n", "\r\n")
_scan_once = json.JSONDecoder().scan_once
# A JSON escape of a UTF-16 surrogate, the only escape that can decode to
# a lone one; an escaped backslash before "ud800" also matches.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

Row = TypeVar("Row")


class SourceClass(str, Enum):
    """Origin class of a document, used by dedup and mix weighting."""

    COMMON_CRAWL = "CommonCrawl"
    CURATED = "Curated"
    CODE = "Code"
    SYNTHETIC = "Synthetic"


@dataclass
class Document:
    """One corpus record.

    ``dup_count`` is the size of the near-duplicate cluster this document
    represents (1 = unique).  ``timestamp`` is an ISO-8601 date string;
    ISO dates compare correctly as strings so no parsing is done here.
    ``extra`` preserves unrecognized wire keys verbatim (any JSON value).
    """

    id: str
    text: str
    source_class: SourceClass = SourceClass.COMMON_CRAWL
    dup_count: int = 1
    curated: bool = False
    timestamp: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.dup_count < 1:
            raise ValueError(f"dup_count must be >= 1, got {self.dup_count}")


@dataclass
class RecordError:
    """A malformed input line, reported without stopping the stream."""

    line_number: int
    message: str


class RecordWriteError(OSError):
    """Raised when emission fails partway; ``written`` records made it out."""

    def __init__(self, written: int, cause: BaseException):
        super().__init__(f"record write failed after {written} records: {cause}")
        self.written = written


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs (whitespace-delimited words)."""
    return len(text.split())


def decode_line(line: str) -> Any:
    """The JSON value of one wire line: ``json.loads(line)``, but cheaper.

    A line that holds one value with nothing but its ``"\\n"`` or
    ``"\\r\\n"`` after it (the common case) is decoded by one call of
    the decoder's C scanner (``scan_once(line, 0)``), without the Python
    wrappers of ``json.loads`` or ``raw_decode``.  Every other line,
    including one the scanner rejects, goes to ``json.loads``, so the
    value or the ``ValueError`` (``json.JSONDecodeError``) is exactly
    json's.  A value nested too deeply for the decoder's recursion limit
    raises ``ValueError`` too, not ``RecursionError``, so a record reader
    skips and reports the line like any other malformed one.
    """
    try:
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            return json.loads(line)
        if end == len(line) or line[end:] in _LINE_ENDS:
            return obj
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON value nested too deeply to decode") from None


def line_id(line_number: int) -> str:
    """The id :func:`parse_record` gives a record without one: ``line-N``."""
    return f"line-{line_number}"


def parse_record(line: str, line_number: int) -> Document:
    """One wire line as a :class:`Document`; ``ValueError`` if malformed.

    ``line_number`` names the document when its ``id`` is missing or
    ``null``.  A lone surrogate in any field (JSON allows ``"\\ud800"``)
    is rejected by :func:`read_rows` before this parse runs.
    """
    obj = decode_line(line)
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    if "text" not in obj:
        raise ValueError('record is missing required key "text"')
    text = obj["text"]
    if not isinstance(text, str):
        raise ValueError('"text" must be a string')

    source = obj.get("source_class", SourceClass.COMMON_CRAWL.value)
    try:
        source_class = SourceClass(source)
    except ValueError:
        raise ValueError(f"unknown source_class {source!r}") from None

    dup_count = obj.get("dup_count", 1)
    if not isinstance(dup_count, int) or isinstance(dup_count, bool):
        raise ValueError('"dup_count" must be an integer')

    # id is recognized but optional on the wire; synthesize a per-shard
    # unique one from the line number when absent or null.  Any other
    # non-string id is named by its JSON text: true is "true", not "True".
    doc_id = obj.get("id")
    if doc_id is None:
        doc_id = line_id(line_number)
    elif not isinstance(doc_id, str):
        doc_id = json.dumps(doc_id, ensure_ascii=False)

    curated = obj.get("curated", False)
    if not isinstance(curated, bool):
        raise ValueError('"curated" must be true or false')

    timestamp = obj.get("timestamp")
    if timestamp is not None and not isinstance(timestamp, str):
        raise ValueError('"timestamp" must be a string')

    extra = {k: v for k, v in obj.items() if k not in _KNOWN_KEYS}
    return Document(
        id=doc_id,
        text=text,
        source_class=source_class,
        dup_count=dup_count,
        curated=curated,
        timestamp=timestamp,
        extra=extra,
    )


def _check_utf8(line: str) -> None:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(line[exc.start])
        what = (
            f"byte 0x{code - 0xDC00:02x}"  # an invalid byte, surrogate-escaped
            if 0xDC80 <= code <= 0xDCFF
            else f"lone surrogate U+{code:04X}"
        )
        raise ValueError(
            f"line is not valid UTF-8: {what} at character {exc.start}"
        ) from None


def _check_escapes(line: str) -> None:
    # A JSON escape such as "\ud800" decodes to a lone surrogate, which no
    # command can write as UTF-8.  Every key and value is checked.
    obj = decode_line(line)
    for key, value in obj.items() if isinstance(obj, dict) else [("record", obj)]:
        try:
            if isinstance(value, str):
                value.encode("utf-8")
            json.dumps([key, value], ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            at = f" at character {exc.start}" if exc.object is value else ""
            raise ValueError(
                f"{json.dumps(key)} cannot be encoded as UTF-8: {exc.reason}{at}"
            ) from None


def read_rows(
    stream: IO[str] | Iterable[str],
    parse: Callable[[str, int], Row],
    on_error: Callable[[RecordError], None] | None = None,
    first_line: int = 1,
) -> Iterator[Row]:
    """Yield ``parse(line, line_number)`` per non-blank input line, in order.

    Lines are numbered from ``first_line``, the number of the stream's
    first line in the whole input.  A line whose parse raises
    ``ValueError`` (bad JSON included, and JSON
    nested too deeply to decode) is passed to ``on_error`` as
    :class:`RecordError` with its line number; reading then
    continues with the next line.  So is a line that is not
    valid UTF-8: a stream decoded with ``errors="surrogateescape"`` turns
    each invalid byte into a lone surrogate, which UTF-8 cannot encode.
    So is a line whose JSON escapes (``"\\ud800"``) decode to a lone
    surrogate in any field; only lines with an escape of a surrogate
    (``\\uD800`` to ``\\uDFFF``, pairs included) pay for that check, and
    it runs before ``parse`` sees the line.
    The default handler logs a warning.
    """
    for line_number, line in enumerate(stream, start=first_line):
        if not line.strip():
            continue
        try:
            if not line.isascii():
                _check_utf8(line)
            if "\\u" in line and _SURROGATE_ESCAPE.search(line):
                _check_escapes(line)
            yield parse(line, line_number)
        except ValueError as exc:
            err = RecordError(line_number, str(exc))
            if on_error is not None:
                on_error(err)
            else:
                # logging is imported only when there is something to report.
                import logging

                logging.getLogger(__name__).warning(
                    "skipping line %d: %s", err.line_number, err.message
                )


def read_records(
    stream: IO[str] | Iterable[str],
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[Document]:
    """Yield :class:`Document` per input line, in order.

    Missing optional fields default (``dup_count=1``, ``curated=False``).
    Malformed lines (bad JSON, missing ``text``, bad field types) are
    skipped and reported as in :func:`read_rows`.  Blank lines are ignored.
    """
    return read_rows(stream, parse_record, on_error)


def document_to_json(doc: Document) -> dict[str, Any]:
    """Wire form of a document; inverse of the read-side parsing."""
    obj: dict[str, Any] = {
        "id": doc.id,
        "text": doc.text,
        "source_class": doc.source_class.value,
        "dup_count": doc.dup_count,
        "curated": doc.curated,
    }
    if doc.timestamp is not None:
        obj["timestamp"] = doc.timestamp
    obj.update(doc.extra)
    return obj


def write_records(records: Iterable[Document | str], stream: IO[str]) -> int:
    """Write one JSON line per record; returns the record count.

    A :class:`Document` is encoded: ``read_records(write_records(X))``
    reproduces X field for field, and embedded newlines and other control
    characters are JSON-escaped.  A ``str`` is a wire line as read, written
    as it is but for its line end, which becomes one ``"\\n"`` (a ``"\\r\\n"``
    or a missing one included).  A filter that passes such lines through
    emits its kept records field for field, not byte for byte: a key the
    input left out stays out, and the reader fills its default again.  An
    I/O failure aborts with :class:`RecordWriteError` carrying the number
    of records fully written so far.
    """
    written = 0
    for record in records:
        try:
            if type(record) is str:
                if record[-1:] != "\n" or record[-2:] == "\r\n":
                    record = record.rstrip("\r\n") + "\n"
                stream.write(record)
            else:
                stream.write(json.dumps(document_to_json(record), ensure_ascii=False))
                stream.write("\n")
        except OSError as exc:
            raise RecordWriteError(written, exc) from exc
        written += 1
    return written
