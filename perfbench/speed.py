"""Speed normalisation: times expressed at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a factor of
1.5 or more between runs minutes apart (steal time, frequency, a busy
SMT sibling).  A raw time therefore moves with the host as much as with
the program.  To cancel that, every timed request is paired with a
fixed reference routine run right next to it, and each measured time is
reported as

    measured time x REFERENCE_MS / (the reference's time measured alongside)

that is, in milliseconds on a machine where the reference takes
``REFERENCE_MS``.  The reference is code of the same kind as the library's
hot paths — in pure Python, adjacency dicts, breadth-first search on a
deque and a Gray-code walk appended to a list; in numpy, a probability
grid of powers and an unbuffered ``add.at`` scatter — lives in this file
only and does not touch the program under test, so a change to the program moves
the normalised time and a change in host speed does not.  The raw times
are printed in the report beside the normalised ones.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable

import numpy as np

#: The reference routine's time, in ms, at the reference speed (about its
#: time on an idle 2-vCPU x86_64 VM with Python 3.11).
REFERENCE_MS = 4.2

#: A fixed 16-node multigraph, 29 links.
_LINKS = (
    (0, 3), (0, 9), (1, 4), (1, 12), (2, 5), (2, 14), (3, 7), (3, 11),
    (4, 8), (4, 15), (5, 6), (5, 10), (6, 13), (7, 2), (7, 12), (8, 0),
    (8, 13), (9, 1), (9, 14), (10, 11), (10, 15), (11, 6), (12, 5),
    (13, 9), (13, 3), (14, 8), (14, 10), (15, 7), (15, 1),
)


def _reachable(dead: set[int], start: int) -> int:
    adjacency: dict[int, list[int]] = {}
    for index, (u, v) in enumerate(_LINKS):
        if index in dead:
            continue
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


def _gray_codes(bits: int):
    code = 0
    for i in range(1, 1 << bits):
        code ^= i & -i
        yield code


_GRID = np.linspace(0.80, 0.999, 128)[:, None]
_EXPONENTS = (np.arange(1024) * 7919 % 23).astype(np.float64)[None, :]
_SLOTS = np.arange(4096) * 2654435761 % 1021


def reference() -> float:
    """The fixed reference work (about ``REFERENCE_MS`` at reference speed)."""
    total = 0
    for m in range(150):
        total += _reachable({m % 29, (m * 7) % 29}, m % 16)
    table = []
    for code in _gray_codes(12):
        table.append(code & 0xFF)
        table.append(code >> 8)
    grid = _GRID**_EXPONENTS
    sums = np.zeros(1021)
    for row in grid[:32]:
        np.add.at(sums, _SLOTS[: row.size], row)
    return total + len(table) + float(grid.sum()) + float(sums.sum())


#: Share of the reference timings dropped at each end before averaging.
TRIM = 0.1
#: Reference timings a ``ReferenceClock`` averages over: in the idle gaps
#: of the serve phase, about the last two or three seconds.
CLOCK_WINDOW = 25


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut: len(ordered) - cut] or ordered
    return statistics.fmean(kept)


class SpeedProbe:
    """Reference timings taken through a run, and the scale they give.

    ``mark()`` times the reference ``reps`` times.  A closed loop marks
    before every request and after the last, so request ``i`` lies
    between marks ``i`` and ``i + 1``.  Scales use a trimmed mean of
    timings, not a median: a host's speed flips on a scale of
    milliseconds (a busy SMT sibling, say), so single reference timings
    fall into a fast and a slow mode, while a request many times longer
    runs at the average of the two; the median of a two-mode sample jumps
    between the modes, the mean does not.
    """

    def __init__(self, clock: Callable[[], float], reps: int = 1) -> None:
        self.clock = clock
        self.reps = reps
        self.marks: list[list[float]] = []

    @property
    def samples(self) -> list[float]:
        return [t for mark in self.marks for t in mark]

    def mark(self) -> None:
        timings = []
        for _ in range(self.reps):
            start = self.clock()
            reference()
            timings.append(self.clock() - start)
        self.marks.append(timings)

    def scale(self, i: int | None = None, around: int = 0) -> float:
        """Factor from measured time to time at the reference speed.

        With ``i``, from the marks of requests ``i - around`` to
        ``i + around + 1`` only: the speed near request ``i``, so that a
        slow stretch of the run is corrected where it happened.  Without,
        from every timing.
        """
        window = self.marks if i is None else self.marks[max(0, i - around): i + around + 2]
        timings = [t for mark in window for t in mark]
        if not timings:
            raise ValueError("no reference timings taken")
        return REFERENCE_MS * 1e-3 / trimmed_mean(timings)

    def summary(self) -> dict[str, float]:
        return {
            "reference_ms_mean": trimmed_mean(self.samples) * 1e3 if self.samples else 0.0,
            "reference_samples": len(self.samples),
            "scale": self.scale() if self.samples else 0.0,
        }


class ReferenceClock:
    """Reference time, advanced by the wall clock at the host's current speed.

    An open-loop load generator schedules arrivals on this clock, so the
    offered load stays the same share of the program's capacity when the
    host slows down or speeds up during a run.  ``observe()`` takes one
    reference timing; the speed is the trimmed mean of the last
    ``CLOCK_WINDOW`` of them.  Between timings reference time runs at a fixed
    rate, so it is continuous and increasing.
    """

    def __init__(self, clock: Callable[[], float], scale: float) -> None:
        self.clock = clock
        self.scale = scale  # reference seconds per wall second
        self.probe = SpeedProbe(clock)  # every timing, for the run's summary
        self._wall0 = clock()
        self._ref0 = 0.0

    def now(self) -> float:
        """Reference seconds since the clock was made."""
        return self._ref0 + (self.clock() - self._wall0) * self.scale

    def wall_at(self, ref: float) -> float:
        """The wall-clock reading at reference time ``ref`` (at today's speed)."""
        return self._wall0 + (ref - self._ref0) / self.scale

    def observe(self) -> None:
        self.probe.mark()
        ref, wall = self.now(), self.clock()
        recent = self.probe.samples[-CLOCK_WINDOW:]
        self.scale = REFERENCE_MS * 1e-3 / trimmed_mean(recent)
        self._ref0, self._wall0 = ref, wall


def cpu_clock() -> float:
    """CPU time of the calling thread: blind to time spent descheduled."""
    return time.thread_time()
