"""One record stream, parsed over byte ranges of the input in forked workers.

A command whose records need no other record (``transform topo``,
``transform qa``, ``dedup-exact``, ``pack``) reads its input through
:func:`split_rows`.  A large regular file is cut at line starts into one
byte range per worker; the main process parses the first range and a
forked child each other one.  The command sees every range's rows, and
every bad line's report, in input order, so whatever depends on stream
order stays in the main process.  Any other input is one range, parsed by
the main process alone.

The CLI imports this module only when a command that splits starts.
"""

from __future__ import annotations

import io
import marshal
import os
import stat
import sys
from contextlib import contextmanager, suppress
from itertools import chain, islice
from typing import IO, Any, Callable, Iterator, NoReturn

from corpusops.corpus import _INPUT_TEXT, RecordError, read_rows

# At most _MAX_WORKERS workers: one per CPU the process may run on, and one
# per MIN_RANGE_BYTES of input.  4 MiB keeps the benchmark's 2.8-2.9 MB
# web-dedup inputs at one worker: on a 2-CPU host, two workers took 0.095 s
# against 0.084 s for pack on 2.8 MB, and 0.118 s as one did for
# dedup-exact on 2.9 MB, while on 12.7 MB they took a quarter to a third
# off transform topo, dedup-exact and pack.
MIN_RANGE_BYTES = 4 << 20
_MAX_WORKERS = 4
# The read that places the cuts takes this much at a time.  A 1-MiB read
# is mapped anew each time and raised the main process's peak RSS by 2 MB.
_SCAN_BYTES = 64 << 10


def _worker_count(size: int) -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, _MAX_WORKERS, size // MIN_RANGE_BYTES))


def _worker_ranges(src: IO[str]) -> list[tuple[int, int, int]]:
    """(first byte, end byte, first line number) of each range but the first.

    Empty, so that the whole input is one range, unless ``src`` is a
    regular file (``-i file`` or ``< file``) with room for two workers.
    The ranges start at the stream's current offset, where a reread of
    ``< file`` starts too, and the first range is left to ``src``.  One
    binary read places the cuts and counts the lines before each; it stops
    at the last cut.
    """
    try:
        fd = src.fileno()
        status = os.fstat(fd)
        start = src.tell()
    except (AttributeError, OSError, ValueError):  # no descriptor, or a pipe
        return []
    if not stat.S_ISREG(status.st_mode):
        return []
    size = status.st_size
    parts = _worker_count(size - start)
    # A range starts at the first line start at or after its share of the bytes.
    targets = [start + (size - start) * k // parts for k in range(1, parts)]
    starts, pos, line = [], start, 1  # line: the number of the line at pos + done
    while targets:
        chunk = os.pread(fd, min(_SCAN_BYTES, size - pos), pos)
        if not chunk:
            break
        done = 0
        while targets and (end := chunk.find(b"\n", max(targets[0] - 1 - pos, done))) >= 0:
            line += chunk.count(b"\n", done, end + 1)
            done = end + 1
            if pos + done < size:
                starts.append((pos + done, line))
            targets = [t for t in targets if t > pos + done]
        line += chunk.count(b"\n", done)
        pos += len(chunk)
    ends = [offset for offset, _ in starts[1:]] + [size]
    return [(offset, end, first) for (offset, first), end in zip(starts, ends)]


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of a file descriptor, read without moving its offset.

    A forked worker shares the descriptor's offset with the main process,
    which reads the first range through it at the same time.
    """

    def __init__(self, fd: int, start: int, end: int):
        self.fd, self.pos, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.pos), self.pos)
        buffer[: len(data)] = data
        self.pos += len(data)
        return len(data)


# A worker writes its results file as frames: an 8-byte length, then one
# marshal-ed (line number, value).  The line number is None for a parsed
# row and that of the line for a bad line's message.  A worker that fails
# leaves the text of its exception in the file instead.


def _work(
    fd: int, span: tuple[int, int, int], parse: Callable[[str, int], Any], results: IO[bytes]
) -> NoReturn:
    """Parse one range in a forked child, then end the child with ``os._exit``.

    ``os._exit`` runs no atexit handler and flushes no stream the child
    inherited, so nothing the main process buffered is written twice.
    Whatever is raised, an interrupt included, ends the child here; the
    main process reports it.
    """
    status = 1
    try:
        def put(line_number: int | None, value: Any) -> None:
            frame = marshal.dumps((line_number, value))
            results.write(len(frame).to_bytes(8, "little"))
            results.write(frame)

        start, end, first = span
        raw = io.BufferedReader(_ByteRange(fd, start, end))
        with io.TextIOWrapper(raw, **_INPUT_TEXT) as lines:
            on_error = lambda err: put(err.line_number, err.message)  # noqa: E731
            for row in read_rows(lines, parse, on_error, first):
                put(None, row)
        results.flush()
        status = 0
    except BaseException as exc:
        with suppress(BaseException):
            results.seek(0)
            results.truncate()
            results.write(f"{type(exc).__name__}: {exc}".encode("utf-8", "backslashreplace"))
            results.flush()
    finally:
        os._exit(status)


@contextmanager
def split_rows(
    src: IO[str],
    parse: Callable[[str, int], Any],
    on_error: Callable[[RecordError], None],
) -> Iterator[Iterator[Any]]:
    """:func:`~corpusops.corpus.read_rows` over ``src``, its ranges parsed in parallel.

    ``src`` is decoded as every record stream is (``corpus._INPUT_TEXT``),
    as a worker decodes its range.  Yields an iterator over the rows of
    every range in range order, and passes each bad line to ``on_error``
    as it comes in that order; line numbers are those of the whole input.
    ``parse`` must return what :mod:`marshal` can write.  Standard output
    and error are flushed before the first fork.  A worker writes its rows
    to an anonymous temporary file in $TMPDIR, never to the command's
    streams, and the main process reads the file back once the worker has
    ended.  A failed worker raises ``ChildProcessError`` naming the first
    line of its range.
    When the block exits, every worker has ended, killed if need be.

    Workers are forked, not spawned, so they start without an interpreter
    start-up; the commands that split start no thread before they fork.
    """
    spans = _worker_ranges(src)
    files: list[IO[bytes]] = []  # one results file per worker
    live: list[int] = []  # the workers not yet waited for
    try:
        if spans:
            import signal
            import tempfile

            sys.stdout.flush()
            sys.stderr.flush()
        for span in spans:
            files.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _work(src.fileno(), span, parse, files[-1])
            live.append(pid)

        def rows_of(pid: int, results: IO[bytes], first: int) -> Iterator[Any]:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.remove(pid)
            results.seek(0)
            if code:
                failure = (f"killed by signal {-code}" if code < 0
                           else results.read().decode("utf-8", "replace"))
                raise ChildProcessError(f"the worker from line {first} failed: {failure}")
            while header := results.read(8):
                line_number, value = marshal.loads(results.read(int.from_bytes(header, "little")))
                if line_number is None:
                    yield value
                else:
                    on_error(RecordError(line_number, value))

        head = islice(src, spans[0][2] - 1) if spans else src
        yield chain(
            read_rows(head, parse, on_error),
            *map(rows_of, list(live), files, (first for _, _, first in spans)),
        )
        if spans:  # leave ``< file`` at its end, as reading it all would
            src.seek(0, os.SEEK_END)
    finally:
        for pid in live:  # not waited for, so a zombie at worst: kill finds it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for results in files:
            results.close()
