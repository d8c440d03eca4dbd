"""Adversarial input shapes, each run at n and 4n, whose work must grow
about 4x, not 16x.

A shape is bounded by a count of the work where one can see it.  Only
where the work happens inside one ``re`` call, which no count or spy can
observe, is it bounded by a ratio of timings, with an absolute slack for
timer noise on small inputs.
"""

import time

import pytest

from corpusops.transforms import RepoFile, extract_imports

N = 1_000


class RfindSpy(str):
    """A text that counts the characters its ``rfind`` calls scan."""

    scanned = 0

    def rfind(self, sub, start=0, end=None):
        end = len(self) if end is None else end
        self.scanned += max(0, end - start)
        return super().rfind(sub, start, end)


# One long line of import-like statements whose line-start anchor fails,
# so every candidate checks how far back its line starts.
ANCHORED_SHAPES = {
    "py": ("a.py", "x import a "),
    "rs-use": ("a.rs", "x use crate::a "),
    "rs-pub-mod": ("a.rs", "x pub mod a; "),
    "c": ("a.c", 'x #include "a" '),
}


@pytest.mark.parametrize("shape", sorted(ANCHORED_SHAPES))
def test_anchor_look_back_is_linear_in_line_length(shape):
    path, unit = ANCHORED_SHAPES[shape]
    scanned = []
    for n in (N, 4 * N):
        text = RfindSpy(unit * n)
        assert extract_imports(RepoFile(path, text)) == []
        scanned.append(text.scanned)
    assert 0 < scanned[1] <= 5 * scanned[0], scanned


def best_time(repo_file: RepoFile) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        extract_imports(repo_file)
        times.append(time.perf_counter() - start)
    return min(times)


# One long JS line whose "import ... from" never completes: the failed
# rescans happen inside one ``re`` call, so time is the only measure.
@pytest.mark.parametrize("unit", ["import a, ", "x import a from "])
def test_js_import_from_scan_is_linear_in_line_length(unit):
    small, large = (best_time(RepoFile("a.js", unit * n)) for n in (N, 4 * N))
    assert large < 8 * small + 0.05, (small, large)
