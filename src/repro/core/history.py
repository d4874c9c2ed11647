"""Per-task-type IPC sample histories, plus variance and CI estimators.

For each task type TaskPoint maintains two FIFO buffers of size H (paper
§III-B):

* the **history of valid samples** — IPCs of instances simulated in detail
  after the simulation was properly warmed; this is the history normally used
  to fast-forward, and the one discarded on resampling, and
* the **history of all samples** — IPCs of every instance simulated in
  detail, warmed or not; it serves as a fallback for rare task types that
  never accumulate enough valid samples.

The dispersion and confidence-interval estimators below
(:func:`unbiased_variance`, :func:`unbiased_coefficient_of_variation`,
:func:`mean_confidence_interval`) use the unbiased (``ddof=1``) variance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple


class SampleHistory:
    """A FIFO buffer of the most recent IPC samples of one task type.

    The mean (queried by the fast-forward estimator on *every* burst-mode
    decision) is maintained as a running sum while the buffer is filling and
    cached between mutations, making :meth:`mean` O(1) on the hot path.  The
    sum is deliberately **not** updated incrementally across evictions
    (``running -= evicted; running += new`` changes the floating-point
    rounding sequence): when the buffer is full, the cached sum is recomputed
    in buffer order, which keeps every mean bit-identical to the naive
    ``sum(samples) / len(samples)`` the estimator historically computed.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self.capacity = capacity
        self._samples: Deque[float] = deque(maxlen=capacity)
        self._sum = 0.0

    def add(self, ipc: float) -> None:
        """Append a sample; the oldest sample is dropped when full."""
        if ipc <= 0:
            raise ValueError(f"IPC samples must be positive, got {ipc}")
        if len(self._samples) == self.capacity:
            # Eviction: recompute the sum in buffer order (see class note).
            self._samples.append(ipc)
            total = 0.0
            for value in self._samples:
                total += value
            self._sum = total
        else:
            self._samples.append(ipc)
            self._sum += ipc

    def clear(self) -> None:
        """Discard all samples (used when the simulation is resampled)."""
        self._samples.clear()
        self._sum = 0.0

    @property
    def samples(self) -> List[float]:
        """Current samples, oldest first."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def is_empty(self) -> bool:
        """``True`` when no samples are recorded."""
        return not self._samples

    @property
    def is_full(self) -> bool:
        """``True`` when the buffer holds ``capacity`` samples."""
        return len(self._samples) == self.capacity

    def mean(self) -> Optional[float]:
        """Average IPC of the recorded samples, or ``None`` if empty."""
        if not self._samples:
            return None
        return self._sum / len(self._samples)


@dataclass
class TaskTypeState:
    """Sampling state of one task type."""

    task_type: str
    valid: SampleHistory
    all: SampleHistory

    @classmethod
    def create(cls, task_type: str, history_size: int) -> "TaskTypeState":
        """Create fresh (empty) state for ``task_type``."""
        return cls(
            task_type=task_type,
            valid=SampleHistory(history_size),
            all=SampleHistory(history_size),
        )

    @property
    def is_fully_sampled(self) -> bool:
        """``True`` when the history of valid samples is full."""
        return self.valid.is_full

    @property
    def is_rare(self) -> bool:
        """``True`` when the type has been observed but not fully sampled.

        The paper calls task types that occur too infrequently to fill their
        valid history within a sampling interval *rare task types*.
        """
        return not self.valid.is_full

    def record_detailed(self, ipc: float, valid: bool) -> None:
        """Record the IPC of an instance simulated in detail."""
        self.all.add(ipc)
        if valid:
            self.valid.add(ipc)


class HistoryTable:
    """All per-task-type sampling state of one simulation."""

    def __init__(self, history_size: int) -> None:
        if history_size < 1:
            raise ValueError("history_size must be >= 1")
        self.history_size = history_size
        self._types: Dict[str, TaskTypeState] = {}

    def state(self, task_type: str) -> TaskTypeState:
        """Return (creating if necessary) the state of ``task_type``."""
        state = self._types.get(task_type)
        if state is None:
            state = TaskTypeState.create(task_type, self.history_size)
            self._types[task_type] = state
        return state

    def known(self, task_type: str) -> bool:
        """``True`` if ``task_type`` has been observed before."""
        return task_type in self._types

    @property
    def states(self) -> List[TaskTypeState]:
        """All per-type states, in order of first observation."""
        return list(self._types.values())

    def all_fully_sampled(self) -> bool:
        """``True`` when every observed type's valid history is full."""
        return bool(self._types) and all(
            state.is_fully_sampled for state in self._types.values()
        )

    def clear_valid(self) -> None:
        """Discard the valid histories of all types (on resampling)."""
        for state in self._types.values():
            state.valid.clear()


# ----------------------------------------------------------------------
# Unbiased estimators and confidence-interval math (stratified engine)
# ----------------------------------------------------------------------

#: Two-sided 95% Student-t critical values for 1..30 degrees of freedom;
#: beyond that the normal quantile 1.96 is used.  Embedded because the
#: environment has no scipy and the stratified CI only ever needs the 95%
#: level (the level the paper-style accuracy tables report).
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)

_Z95 = 1.959964


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value for ``degrees_of_freedom``.

    Falls back to the normal quantile above 30 degrees of freedom; raises
    for non-positive degrees of freedom (no CI exists from one sample).
    """
    if degrees_of_freedom < 1:
        raise ValueError("t critical value requires >= 1 degree of freedom")
    if degrees_of_freedom <= len(_T95):
        return _T95[degrees_of_freedom - 1]
    return _Z95


def unbiased_variance(values: Sequence[float]) -> float:
    """Unbiased (``ddof=1``) sample variance; requires at least 2 samples."""
    n = len(values)
    if n < 2:
        raise ValueError("unbiased variance requires at least 2 samples")
    mean = sum(values) / n
    return sum((value - mean) ** 2 for value in values) / (n - 1)


def unbiased_std(values: Sequence[float]) -> float:
    """Unbiased-variance sample standard deviation (``ddof=1``)."""
    return math.sqrt(unbiased_variance(values))


def unbiased_coefficient_of_variation(values: Sequence[float]) -> Optional[float]:
    """Relative dispersion stddev/mean with the unbiased variance (ddof=1).

    ``None`` for fewer than 2 samples (undefined), ``math.inf`` for a
    zero-mean sample set (infinite relative dispersion) — the two cases are
    deliberately distinguishable.
    """
    if len(values) < 2:
        return None
    mean = sum(values) / len(values)
    if mean == 0:
        return math.inf
    return unbiased_std(values) / mean


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a sample mean."""

    mean: float
    half_width: float
    level: float = 0.95

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def covers(self, value: float) -> bool:
        """``True`` when ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper


def mean_confidence_interval(values: Sequence[float]) -> ConfidenceInterval:
    """95% Student-t confidence interval for the mean of ``values``.

    Uses the unbiased (``ddof=1``) variance; requires at least 2 samples.
    """
    n = len(values)
    if n < 2:
        raise ValueError("a confidence interval requires at least 2 samples")
    mean = sum(values) / n
    half_width = t_critical_95(n - 1) * unbiased_std(values) / math.sqrt(n)
    return ConfidenceInterval(mean=mean, half_width=half_width)


def combined_confidence(
    total_cycles: float,
    parts: Iterable[Tuple[float, Optional[float]]],
    **extra: object,
) -> Optional[Dict[str, object]]:
    """95% CI of an execution-time estimate, as a JSON-friendly dict.

    ``parts`` holds one ``(ff_cycles, relative_error)`` pair per estimator
    that fast-forwarded (a stratum, a task type): the cycles it estimated and
    the relative 95% error of its estimate, or ``None`` without one.  The
    errors are independent, so the contributions ``ff_cycles * error`` add in
    quadrature; parts without an error take the widest error seen (100% if
    there is none).  ``extra`` entries are appended to the dict.  Returns
    ``None`` when ``total_cycles`` is not positive or nothing was
    fast-forwarded.
    """
    if total_cycles <= 0:
        return None
    contributions: List[float] = []
    pending = 0.0  # ff cycles of parts without their own error
    widest = 0.0
    for ff_cycles, error in parts:
        if error is None:
            pending += ff_cycles
            continue
        widest = max(widest, error)
        contributions.append(ff_cycles * error)
    if pending > 0:
        contributions.append(pending * (widest if widest > 0 else 1.0))
    if not contributions:
        return None
    # Plain floats throughout: the dict must survive json.dumps (store
    # records, worker frames) and NumPy scalars leak in via ff_cycles.
    half_width = float(math.sqrt(sum(value * value for value in contributions)))
    total_cycles = float(total_cycles)
    return {
        "level": 0.95,
        "half_width_cycles": half_width,
        "half_width_percent": 100.0 * half_width / total_cycles,
        "lower_cycles": total_cycles - half_width,
        "upper_cycles": total_cycles + half_width,
        **extra,
    }
