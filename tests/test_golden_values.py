"""Golden-value regression tests pinning simulation results bit-exactly.

The fingerprints below were captured from the pre-columnar-refactor
implementation (PR 1 tree) at scale 0.02, seed 1, 4 threads: total cycles as
IEEE-754 hex strings, deterministic cost counters, and a SHA-256 over every
per-instance result row (id, worker, mode, start/end cycle and IPC in hex,
warm-up flag) in completion order.

Any change to trace generation, scheduling, the detailed cost model, the
sampling controller or the fast-forward arithmetic that alters even the last
bit of any of these values fails here.  Intentional model changes must update
the fingerprints (regenerate with ``_fingerprint`` below) and justify the
drift in the commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.arch.config import high_performance_config, low_power_config
from repro.core.config import lazy_config, periodic_config
from repro.core.controller import TaskPointController
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.sim.simulator import TaskSimSimulator
from repro.workloads.registry import get_workload

from tests.conftest import KERNEL_EXTREMES, kernel_rule

SCALE = 0.02
SEED = 1
THREADS = 4

GOLDEN = {
    ("cholesky", "highperf", "detailed"): {
        "total_cycles": "0x1.05088f20de15dp+20",
        "num_instances": 392,
        "cost_detailed_instances": 392,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14551644,
        "instances_sha": "5eb1021bba428ad45a225f81c0ffafb93cad3f4c3ff95b138f9cbba8b2ee79e3",
    },
    ("cholesky", "highperf", "periodic"): {
        "total_cycles": "0x1.078a2df016746p+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "67e0d35c451d2675d044cdfc06e201bebdb12312e7290375bc2b1d377b5620c5",
    },
    ("cholesky", "highperf", "lazy"): {
        "total_cycles": "0x1.078a2df016746p+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "67e0d35c451d2675d044cdfc06e201bebdb12312e7290375bc2b1d377b5620c5",
    },
    ("cholesky", "lowpower", "detailed"): {
        "total_cycles": "0x1.aaf44d5555558p+20",
        "num_instances": 392,
        "cost_detailed_instances": 392,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14551644,
        "instances_sha": "eedf13eb14c430889efc4582a0da0e800a23d3f246dc64a0f0477c997a9c2955",
    },
    ("cholesky", "lowpower", "periodic"): {
        "total_cycles": "0x1.a32911c42f6cfp+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "5468cb8ff4e64b83fcf3f3078fcef2436d5438aac90969d0f7b62d9a3ceab353",
    },
    ("cholesky", "lowpower", "lazy"): {
        "total_cycles": "0x1.a32911c42f6cfp+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "5468cb8ff4e64b83fcf3f3078fcef2436d5438aac90969d0f7b62d9a3ceab353",
    },
    ("swaptions", "highperf", "detailed"): {
        "total_cycles": "0x1.e612f86060607p+19",
        "num_instances": 328,
        "cost_detailed_instances": 328,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14410107,
        "instances_sha": "8efa5eaa9128b5651d782cab9a7e3ddc6e064529e65fba1296f5730feaf275a4",
    },
    ("swaptions", "highperf", "periodic"): {
        "total_cycles": "0x1.e626eac71f361p+19",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "7e584e2a3786ce9528fa6560aded6678f75f32639019d04c3aeeab061faaca36",
    },
    ("swaptions", "highperf", "lazy"): {
        "total_cycles": "0x1.e626eac71f361p+19",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "7e584e2a3786ce9528fa6560aded6678f75f32639019d04c3aeeab061faaca36",
    },
    ("swaptions", "lowpower", "detailed"): {
        "total_cycles": "0x1.9f8c4aaaaaaa9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 328,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14410107,
        "instances_sha": "7e766c55d0e0a12fac7349517dd699249b19c8aafa798f2b2917fe9861c21bcb",
    },
    ("swaptions", "lowpower", "periodic"): {
        "total_cycles": "0x1.a5295ea06cfd9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "5167ad70042253303141e1c874646057dfeb47b0bbc88ea6e4163ee9c49e57e0",
    },
    ("swaptions", "lowpower", "lazy"): {
        "total_cycles": "0x1.a5295ea06cfd9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "5167ad70042253303141e1c874646057dfeb47b0bbc88ea6e4163ee9c49e57e0",
    },
}

_ARCHITECTURES = {
    "highperf": high_performance_config,
    "lowpower": low_power_config,
}


def _controller(mode: str):
    if mode == "detailed":
        return None
    if mode == "periodic":
        return TaskPointController(config=periodic_config())
    return TaskPointController(config=lazy_config())


def _fingerprint(result) -> dict:
    blob = ",".join(
        f"{i.instance_id}:{i.worker_id}:{i.mode.value}:{i.start_cycle.hex()}"
        f":{i.end_cycle.hex()}:{i.ipc.hex()}:{int(i.is_warmup)}"
        for i in result.instances
    )
    return {
        "total_cycles": result.total_cycles.hex(),
        "num_instances": result.num_instances,
        "cost_detailed_instances": result.cost.detailed_instances,
        "cost_burst_instances": result.cost.burst_instances,
        "cost_detailed_instr": result.cost.detailed_instructions,
        "instances_sha": hashlib.sha256(blob.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def traces():
    return {
        name: get_workload(name).generate(scale=SCALE, seed=SEED)
        for name in ("cholesky", "swaptions")
    }


@pytest.mark.parametrize(
    "workload,arch_name,mode", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_golden_simulation_values(traces, workload, arch_name, mode):
    simulator = TaskSimSimulator(architecture=_ARCHITECTURES[arch_name]())
    result = simulator.run(
        traces[workload],
        num_threads=THREADS,
        controller=_controller(mode),
        measure_wall_time=False,
    )
    assert _fingerprint(result) == GOLDEN[(workload, arch_name, mode)]


#: Every detailed-path implementation must reproduce the golden values: the
#: default engine is covered above (via the simulator; at 4 threads its
#: groups never clear the kernel's width floor); these pin the engine with
#: the kernel rule forced to each extreme — scalar walks only, and the
#: vector kernel from the first group — and the per-record reference engine
#: to the *same* fingerprints, so a drift in any one implementation — not
#: just a drift in all of them at once — fails loudly.
_BACKENDS = {
    "batched-scalar": (SimulationEngine, "scalar"),
    "kernel-forced": (SimulationEngine, "kernel"),
    "per-record": (ReferenceEngine, "scalar"),
}


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize(
    "workload,arch_name,mode", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_golden_values_backend_invariant(traces, workload, arch_name, mode, backend):
    engine_class, rule = _BACKENDS[backend]
    engine = engine_class(
        traces[workload],
        _ARCHITECTURES[arch_name](),
        num_threads=THREADS,
        controller=_controller(mode),
    )
    with kernel_rule(*KERNEL_EXTREMES[rule]):
        result = engine.run()
    assert _fingerprint(result) == GOLDEN[(workload, arch_name, mode)]
    if backend == "kernel-forced":
        assert engine.vector_stats["vector_instances"] > 0
