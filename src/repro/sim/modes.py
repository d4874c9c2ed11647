"""Simulation modes and the mode-controller interface.

TaskPoint requires its host simulator to provide exactly two things (paper
§III-A): a detailed and a fast simulation mode, and the ability to run the
fast mode at a user-specified IPC.  The :class:`ModeController` protocol is
the hook through which a sampling methodology drives those modes: before each
task instance starts, the engine asks the controller which mode to use (and,
for burst mode, at which IPC); after each instance finishes, the engine
reports the measured timing back to the controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.runtime.task import TaskInstance


class SimulationMode(enum.Enum):
    """The two simulation modes of the TaskSim-style simulator."""

    DETAILED = "detailed"
    BURST = "burst"


@dataclass(frozen=True)
class ModeDecision:
    """Decision returned by a mode controller for one task instance.

    Attributes
    ----------
    mode:
        Simulation mode to use for the instance.
    ipc:
        Target IPC for burst mode.  Ignored in detailed mode.
    is_warmup:
        ``True`` if the instance is simulated in detail purely to warm
        micro-architectural state (its IPC is not a valid sample).
    """

    mode: SimulationMode
    ipc: Optional[float] = None
    is_warmup: bool = False

    def __post_init__(self) -> None:
        if self.mode is SimulationMode.BURST:
            if self.ipc is None or self.ipc <= 0:
                raise ValueError("burst mode requires a positive target IPC")


class CompletionInfo:
    """Timing information reported to the controller after an instance ends.

    A ``__slots__`` value class rather than a frozen dataclass: one is built
    per completed task instance on the engine hot path, and frozen-dataclass
    construction (``object.__setattr__`` per field) is measurably slower.
    """

    __slots__ = (
        "instance",
        "mode",
        "cycles",
        "ipc",
        "is_warmup",
        "start_cycle",
        "end_cycle",
        "worker_id",
        "active_workers",
    )

    def __init__(
        self,
        instance: TaskInstance,
        mode: SimulationMode,
        cycles: float,
        ipc: float,
        is_warmup: bool,
        start_cycle: float,
        end_cycle: float,
        worker_id: int,
        active_workers: int,
    ) -> None:
        self.instance = instance
        self.mode = mode
        self.cycles = cycles
        self.ipc = ipc
        self.is_warmup = is_warmup
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self.worker_id = worker_id
        self.active_workers = active_workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompletionInfo(instance={self.instance!r}, mode={self.mode},"
            f" cycles={self.cycles}, ipc={self.ipc})"
        )


@runtime_checkable
class ModeController(Protocol):
    """Decides, per task instance, whether to simulate in detail or burst."""

    def choose_mode(
        self,
        instance: TaskInstance,
        worker_id: int,
        active_workers: int,
        current_cycle: float,
    ) -> ModeDecision:
        """Return the mode decision for ``instance`` about to start."""
        ...

    def notify_completion(self, info: CompletionInfo) -> None:
        """Receive the measured timing of a completed instance."""
        ...


#: Shared immutable decisions — ModeDecision is frozen, so controllers on the
#: hot path return these singletons instead of allocating per instance.
DETAILED_DECISION = ModeDecision(mode=SimulationMode.DETAILED)
DETAILED_WARMUP_DECISION = ModeDecision(mode=SimulationMode.DETAILED, is_warmup=True)


def burst_decision(ipc: float) -> ModeDecision:
    """A burst-mode decision at ``ipc`` — the one shape every sampling
    controller (TaskPoint's periodic/lazy, the stratified engine, the
    fidelity controller) emits when it fast-forwards an instance.  Centralised so the validation in
    :class:`ModeDecision` is the single gatekeeper for fast-forward IPCs."""
    return ModeDecision(mode=SimulationMode.BURST, ipc=ipc)


class AlwaysDetailedController:
    """Baseline controller: every task instance is simulated in detail."""

    def choose_mode(
        self,
        instance: TaskInstance,
        worker_id: int,
        active_workers: int,
        current_cycle: float,
    ) -> ModeDecision:
        """Always choose detailed mode."""
        return DETAILED_DECISION

    def notify_completion(self, info: CompletionInfo) -> None:
        """No state to update."""


class FixedIpcController:
    """Controller that burst-simulates everything at one fixed IPC.

    Useful as a lower bound on simulation cost and for testing the burst
    machinery in isolation (this corresponds to TaskSim's original burst mode
    fed with a constant rather than trace-recorded cycle counts).
    """

    def __init__(self, ipc: float) -> None:
        if ipc <= 0:
            raise ValueError("IPC must be positive")
        self.ipc = ipc
        self._decision = ModeDecision(mode=SimulationMode.BURST, ipc=ipc)

    def choose_mode(
        self,
        instance: TaskInstance,
        worker_id: int,
        active_workers: int,
        current_cycle: float,
    ) -> ModeDecision:
        """Always choose burst mode at the configured IPC."""
        return self._decision

    def notify_completion(self, info: CompletionInfo) -> None:
        """No state to update."""
