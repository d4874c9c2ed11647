"""Task-based runtime system (OmpSs-style substrate).

The paper's experimental stack runs task-based OmpSs programs whose task
instances are scheduled dynamically by the Nanos++ runtime.  This package is
the reproduction's equivalent runtime: it tracks task instances and their
dependencies, maintains the ready queue and assigns ready instances to
simulated worker threads through a pluggable scheduling policy.

The runtime is deliberately independent of the simulator: it only reasons
about task readiness and assignment, while the simulator decides how long
each assigned instance takes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.task": ["TaskType", "TaskInstance", "TaskState"],
    "repro.runtime.dependencies": ["DependencyTracker", "TaskGraphBuilder"],
    "repro.runtime.scheduler": [
        "Scheduler",
        "FifoScheduler",
        "LocalityScheduler",
        "RandomScheduler",
        "make_scheduler",
    ],
    "repro.runtime.runtime": ["RuntimeSystem"],
})
