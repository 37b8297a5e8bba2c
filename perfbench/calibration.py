"""Machine-speed calibration for noisy shared hosts.

On a host whose cores are shared with other tenants, the speed of the same
code switches between states up to 1.7x apart, each lasting from a fraction
of a second to tens of seconds.  A fixed pure-Python loop timed next to the
work switches with it, so the benchmark reports times scaled to the speed at
which this loop takes NOMINAL_S seconds.  Measured times are kept beside
them in the run's record.
"""

import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

NOMINAL_S = 1e-3


def calibration_loop() -> int:
    """Fixed integer, list, dict and Fraction work, like the package's."""
    total = 0
    row = list(range(1, 33))
    counts = {}
    for i in range(150):
        total += sum(a * b for a, b in zip(row, row[i % 5:]))
        counts[i % 13] = counts.get(i % 13, 0) + total % 97
        row = [x + 1 if x % 3 else x for x in row]
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 1)
    return total + acc.numerator % 7 + len(counts)


def sample(repeats: int) -> float:
    """Median seconds of `repeats` timed calibration loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scales(samples: Sequence[float], window: int) -> List[float]:
    """Per-job factor NOMINAL_S / (median calibration time of the jobs
    within `window` positions), applied to each job's measured time."""
    out = []
    for i in range(len(samples)):
        near = samples[max(0, i - window):i + window + 1]
        out.append(NOMINAL_S / statistics.median(near))
    return out


def scaled_interval(start: float, end: float,
                    marks: Sequence[Sequence[float]]) -> Tuple[float, float]:
    """Calibrated and measured seconds of the work in [start, end], where
    `marks` are the (start, end, median) of calibration samples taken inside
    the interval, in order.  The samples' own time is left out; the work
    between two samples is scaled by their mean, the work before the first
    and after the last by that sample alone."""
    calibrated = measured = 0.0
    cursor, before = start, marks[0][2]
    for mark_start, mark_end, median in [*marks, (end, end, marks[-1][2])]:
        work = mark_start - cursor
        measured += work
        calibrated += work * NOMINAL_S / ((before + median) / 2)
        cursor, before = mark_end, median
    return calibrated, measured
