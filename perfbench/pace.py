"""The host's speed, sampled between pieces of work, so times can be scaled.

A shared host runs this benchmark at a speed that moves by 40% and more over
seconds to minutes, the same for every kind of pure-Python work.  So a unit
runs a fixed reference loop (which calls nothing of the program) every
INTERVAL_S of work, between verdicts, and every time is reported at the
reference speed: the speed at which the loop takes REFERENCE_S.  A stretch of
work between two samples is scaled by REFERENCE_S over the mean of the two
loop times around it.  The loop's own time is not counted as work.

The samples divide a pass into segments.  ``mark()`` names the segment the
work that follows falls in; ``scale(mark)`` is that segment's factor.
"""

from __future__ import annotations

import time

# Seconds between samples, and the loop's seconds at the reference speed (about
# its median on the machine the baseline was measured on, see README.md).
INTERVAL_S = 0.25
REFERENCE_S = 0.010
LOOP_ITERATIONS = 40_000


def reference_loop() -> int:
    """Dict, integer, tuple and call work, as in the program's inner loops."""
    table: dict[int, int] = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + (i ^ total) % 7
        total += len((key, i)) + abs(key - 128)
    return total


class Pace:
    def __init__(self, tracer=None) -> None:
        self.tracer = tracer  # a traced unit keeps the loop out of the layers' self time
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        if self.tracer:
            self.tracer.enter("perfbench.pace")
        started = time.perf_counter()
        reference_loop()
        self.starts.append(started)
        self.ends.append(time.perf_counter())
        if self.tracer:
            self.tracer.exit()

    def tick(self) -> None:
        """Sample when INTERVAL_S of work has passed since the last sample."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def loop_s(self, count: int) -> float:
        """The median loop time of ``count`` fresh samples."""
        for _ in range(count):
            self.sample()
        loops = sorted(e - s for s, e in zip(self.starts[-count:], self.ends[-count:]))
        return loops[count // 2]

    def mark(self) -> int:
        """The segment that work starting now falls in (the next sample's index)."""
        return len(self.ends)

    def scale(self, mark: int) -> float:
        before = self.ends[mark - 1] - self.starts[mark - 1]
        after = self.ends[mark] - self.starts[mark]
        return REFERENCE_S / ((before + after) / 2)

    def work(self, first: int, last: int) -> float:
        """The scaled work seconds between samples ``first`` and ``last``."""
        return sum(
            (self.starts[k] - self.ends[k - 1]) * self.scale(k) for k in range(first + 1, last + 1)
        )
