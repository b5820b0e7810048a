"""Machine speed probe: scales measured times to one fixed machine speed.

On a shared VM the same pure-Python code runs up to 1.7x slower for seconds
to minutes at a time, and process CPU time slows with it, so the cause is
other tenants on the host's cores and caches, not time slicing.  Taking the
fastest of a few repetitions does not remove it: a 10 ms query rarely runs
in a quiet moment, and a 3 s child never does.

So run.py times a fixed probe between pieces of measured work and reports
every time multiplied by REFERENCE_NS / (mean time of the probe calls made
near that work).  A reported time is the time the work takes when the probe
takes REFERENCE_NS, about the fast end of a 2-vCPU VM with Python 3.11.7.
The probe is a mix of what daxcalc does: JSON decoding, parsing words,
summing ring terms in dicts and integer row reduction, written here in the
benchmark's own code, so no change to daxcalc changes it.

On that VM in a noisy period, 5 s windows of the same explicit_kernel
queries spread 0.14-0.19 (IQR / median) as measured and 0.03 after scaling.
A probe that only copies growing dicts tracked the queries less well.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time

from reference import Group, phi_raw

REFERENCE_NS = 2_500_000
_GROUP = Group((("x", None), ("y", None), ("a", 2)))


def _probe_data():
    rng = random.Random(2006)
    discs = []
    while len(discs) < 400:
        raw = [(rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(1, 6))]
        word = _GROUP.reduce(raw)
        if word:
            discs.append((rng.choice((1, -1)), word))
    text = json.dumps([{"sign": s, "word": _GROUP.word_text(g)} for s, g in discs])
    matrix = [[rng.randint(-9, 9) for _ in range(14)] for _ in range(10)]
    return text, matrix


_TEXT, _MATRIX = _probe_data()


def _parse(word: str) -> tuple:
    raw = []
    for syllable in word.split("*"):
        name, _, exp = syllable.partition("^")
        raw.append((_GROUP.names.index(name), int(exp or 1)))
    return _GROUP.reduce(raw)


def _row_reduce(matrix: list) -> list:
    """Echelon form over the integers by repeated division with remainder."""
    m = [row[:] for row in matrix]
    top = 0
    for col in range(len(m[0])):
        while top < len(m):
            live = [i for i in range(top, len(m)) if m[i][col]]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(m[i][col]))
            m[top], m[pivot] = m[pivot], m[top]
            if len(live) == 1:
                top += 1
                break
            for i in range(top + 1, len(m)):
                q = m[i][col] // m[top][col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
    return m


def probe_ns() -> int:
    """Time of one call of the fixed probe, about 2.5 ms at the reference speed."""
    start = time.perf_counter_ns()
    discs = [(d["sign"], _parse(d["word"])) for d in json.loads(_TEXT)]
    _GROUP.ring_text(phi_raw(_GROUP, (), discs))
    _row_reduce(_MATRIX)
    return time.perf_counter_ns() - start


class Speed:
    """Probe calls of one run and the time at which each ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.probes: list[int] = []

    def probe(self, calls: int = 1) -> None:
        for _ in range(calls):
            self.probes.append(probe_ns())
            self.ends.append(time.perf_counter())

    def scale(self, elapsed: float, start: float, end: float, span: float) -> float:
        """elapsed, spent from start to end, at the reference speed.

        The speed is the mean of the probe calls that ended within span
        seconds of the work; each piece of work has a probe call on each side.
        """
        first = bisect.bisect_left(self.ends, start - span)
        last = bisect.bisect_right(self.ends, end + span)
        return elapsed * REFERENCE_NS / statistics.mean(self.probes[first:last])

    def factor(self) -> float:
        """Mean speed of the run as a share of the reference speed."""
        return REFERENCE_NS / statistics.mean(self.probes)
