"""Statistics and output checks shared by the workloads.

Kept free of any ``repro`` import so the unit tests of these rules run
without the program.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

#: Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float],
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample_count)``, with the nearest-rank
    percentile value, or ``None`` when even the median has fewer than ten
    samples above it (fewer than 20 samples).
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if count - rank >= TAIL_MIN_BEYOND:
            return percentile, float(ordered[rank - 1]), count
    return None


def count_failed(
    jobs: Iterable[Tuple[str, str, Optional[str]]],
) -> int:
    """Failed jobs among ``(status, digest, reference_digest)`` triples.

    A job fails when it did not finish as ``"done"``, or when a reference
    digest was computed for it and differs from the job's digest.  A job
    without a reference (``None``) was not re-run and counts on its status.
    """
    failed = 0
    for status, digest, reference in jobs:
        if status != "done" or (reference is not None and digest != reference):
            failed += 1
    return failed
