"""TaskSim-style trace-driven multi-core simulator.

The simulator replays an :class:`~repro.trace.trace.ApplicationTrace` on a
configurable multi-core architecture.  Worker threads obtain ready task
instances from the runtime system and execute them either in **detailed mode**
(ROB-occupancy core model plus cache hierarchy, see :mod:`repro.arch`) or in
**burst/fast mode** (a user-specified IPC applied to the instance's dynamic
instruction count), the two simulation modes the TaskPoint methodology
requires from its host simulator.

Which mode a given task instance uses is decided by a pluggable
:class:`~repro.sim.modes.ModeController`; the default controller simulates
everything in detail, and :class:`repro.core.TaskPointController` implements
the paper's sampling methodology.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.modes": [
        "SimulationMode",
        "ModeDecision",
        "ModeController",
        "AlwaysDetailedController",
        "FixedIpcController",
    ],
    "repro.sim.cost": ["SimulationCost"],
    "repro.sim.results": ["InstanceResult", "SimulationResult"],
    "repro.sim.engine": ["SimulationEngine"],
    "repro.sim.simulator": ["TaskSimSimulator", "simulate"],
})
