"""Golden-value regression tests pinning simulation results bit-exactly.

The fingerprints below were captured from the pre-columnar-refactor
implementation (PR 1 tree) at scale 0.02, seed 1, 4 threads: total cycles as
IEEE-754 hex strings, deterministic cost counters, and a SHA-256 over every
per-instance result row (id, worker, mode, start/end cycle and IPC in hex,
warm-up flag) in completion order.

The stratified and fidelity entries, and the 16-thread entries, were captured
before the three sampling engines shared one controller core.  They add the
hex half-width of each run's 95% confidence interval.  At 4 threads no engine
resamples; at 16 threads cholesky fires a thread-count resample in every
engine, plus a stratified empty-history and a fidelity drift re-open, so the
16-thread entries pin the resample paths.  The paper's period P = 250 never
elapses at these scales, so the ``periodic-p10`` entries (P = 10, 4 threads)
pin the period-elapsed resample.  Every sampled run also asserts the
resamples it fires (``RESAMPLES``).

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
from repro.core.controller import ResampleReason, TaskPointController
from repro.core.fidelity import FidelityController
from repro.core.stratified import StratifiedController
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine
from repro.sim.simulator import TaskSimSimulator
from repro.workloads.registry import get_workload

from tests.conftest import KERNEL_EXTREMES, kernel_rule

SCALE = 0.02
SEED = 1
THREADS = 4

GOLDEN = {
    ("cholesky", "highperf", "detailed", THREADS): {
        "total_cycles": "0x1.05088f20de15dp+20",
        "num_instances": 392,
        "cost_detailed_instances": 392,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14551644,
        "instances_sha": "5eb1021bba428ad45a225f81c0ffafb93cad3f4c3ff95b138f9cbba8b2ee79e3",
    },
    ("cholesky", "highperf", "periodic", THREADS): {
        "total_cycles": "0x1.078a2df016746p+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "67e0d35c451d2675d044cdfc06e201bebdb12312e7290375bc2b1d377b5620c5",
    },
    ("cholesky", "highperf", "lazy", THREADS): {
        "total_cycles": "0x1.078a2df016746p+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "67e0d35c451d2675d044cdfc06e201bebdb12312e7290375bc2b1d377b5620c5",
    },
    ("cholesky", "lowpower", "detailed", THREADS): {
        "total_cycles": "0x1.aaf44d5555558p+20",
        "num_instances": 392,
        "cost_detailed_instances": 392,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14551644,
        "instances_sha": "eedf13eb14c430889efc4582a0da0e800a23d3f246dc64a0f0477c997a9c2955",
    },
    ("cholesky", "lowpower", "periodic", THREADS): {
        "total_cycles": "0x1.a32911c42f6cfp+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "5468cb8ff4e64b83fcf3f3078fcef2436d5438aac90969d0f7b62d9a3ceab353",
    },
    ("cholesky", "lowpower", "lazy", THREADS): {
        "total_cycles": "0x1.a32911c42f6cfp+20",
        "num_instances": 392,
        "cost_detailed_instances": 44,
        "cost_burst_instances": 348,
        "cost_detailed_instr": 1624365,
        "instances_sha": "5468cb8ff4e64b83fcf3f3078fcef2436d5438aac90969d0f7b62d9a3ceab353",
    },
    ("swaptions", "highperf", "detailed", THREADS): {
        "total_cycles": "0x1.e612f86060607p+19",
        "num_instances": 328,
        "cost_detailed_instances": 328,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14410107,
        "instances_sha": "8efa5eaa9128b5651d782cab9a7e3ddc6e064529e65fba1296f5730feaf275a4",
    },
    ("swaptions", "highperf", "periodic", THREADS): {
        "total_cycles": "0x1.e626eac71f361p+19",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "7e584e2a3786ce9528fa6560aded6678f75f32639019d04c3aeeab061faaca36",
    },
    ("swaptions", "highperf", "lazy", THREADS): {
        "total_cycles": "0x1.e626eac71f361p+19",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "7e584e2a3786ce9528fa6560aded6678f75f32639019d04c3aeeab061faaca36",
    },
    ("swaptions", "lowpower", "detailed", THREADS): {
        "total_cycles": "0x1.9f8c4aaaaaaa9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 328,
        "cost_burst_instances": 0,
        "cost_detailed_instr": 14410107,
        "instances_sha": "7e766c55d0e0a12fac7349517dd699249b19c8aafa798f2b2917fe9861c21bcb",
    },
    ("swaptions", "lowpower", "periodic", THREADS): {
        "total_cycles": "0x1.a5295ea06cfd9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "5167ad70042253303141e1c874646057dfeb47b0bbc88ea6e4163ee9c49e57e0",
    },
    ("swaptions", "lowpower", "lazy", THREADS): {
        "total_cycles": "0x1.a5295ea06cfd9p+20",
        "num_instances": 328,
        "cost_detailed_instances": 15,
        "cost_burst_instances": 313,
        "cost_detailed_instr": 657761,
        "instances_sha": "5167ad70042253303141e1c874646057dfeb47b0bbc88ea6e4163ee9c49e57e0",
    },
    ("cholesky", "highperf", "stratified", THREADS): {
        "total_cycles": "0x1.06045e57976ddp+20",
        "num_instances": 392,
        "cost_detailed_instances": 34,
        "cost_burst_instances": 358,
        "cost_detailed_instr": 1259909,
        "instances_sha": "949a5bdb7f6f5c191efa2c429fb6a43dd689d1974fbc526b9acf7816e1755d10",
        "ci_half_width_cycles": "0x1.ed31a0bb95cd5p+16",
    },
    ("cholesky", "highperf", "fidelity", THREADS): {
        "total_cycles": "0x1.089685b774824p+20",
        "num_instances": 392,
        "cost_detailed_instances": 35,
        "cost_burst_instances": 357,
        "cost_detailed_instr": 1315078,
        "instances_sha": "bd3285a867449ef996a517d742fcc99cc2522e2ecd698f9740815db1f44aac76",
        "ci_half_width_cycles": "0x1.1dff709699e60p+13",
    },
    ("cholesky", "lowpower", "stratified", THREADS): {
        "total_cycles": "0x1.a0b7ba95c9af6p+20",
        "num_instances": 392,
        "cost_detailed_instances": 34,
        "cost_burst_instances": 358,
        "cost_detailed_instr": 1259909,
        "instances_sha": "a07a4053e89849f34b5f2570a61fe8c9bd32ec34e517875cb9e206dbd11a1e3c",
        "ci_half_width_cycles": "0x1.a4370fb8dff61p+18",
    },
    ("cholesky", "lowpower", "fidelity", THREADS): {
        "total_cycles": "0x1.ac04bde41b733p+20",
        "num_instances": 392,
        "cost_detailed_instances": 56,
        "cost_burst_instances": 336,
        "cost_detailed_instr": 2064097,
        "instances_sha": "585c33f89d1dd117eab7ab7f0dff1d11f7271481560ca1b80012322fa4794354",
        "ci_half_width_cycles": "0x1.217e8fb071cc2p+15",
    },
    ("swaptions", "highperf", "stratified", THREADS): {
        "total_cycles": "0x1.e3d531085d9dap+19",
        "num_instances": 328,
        "cost_detailed_instances": 13,
        "cost_burst_instances": 315,
        "cost_detailed_instr": 571550,
        "instances_sha": "69e52b46ba8b770757bb3cb36d26255f84df361f847a52cb8b4bd9b1185049b7",
        "ci_half_width_cycles": "0x1.44f4aae2e5816p+15",
    },
    ("swaptions", "highperf", "fidelity", THREADS): {
        "total_cycles": "0x1.e62a4d4545643p+19",
        "num_instances": 328,
        "cost_detailed_instances": 17,
        "cost_burst_instances": 311,
        "cost_detailed_instr": 744629,
        "instances_sha": "1d10e454d4f23e0c56882b60d2be6d3003466a094bfadeea7b2d9f030f487c28",
        "ci_half_width_cycles": "0x1.731aa4d16f5d0p+13",
    },
    ("swaptions", "lowpower", "stratified", THREADS): {
        "total_cycles": "0x1.a2690e03ee5fep+20",
        "num_instances": 328,
        "cost_detailed_instances": 13,
        "cost_burst_instances": 315,
        "cost_detailed_instr": 571550,
        "instances_sha": "17bb1518e4b03bd675d4d5c23c36ec89259bbc5d42c04f138b8ec45e4ae5da09",
        "ci_half_width_cycles": "0x1.3b8213c342ebcp+18",
    },
    ("swaptions", "lowpower", "fidelity", THREADS): {
        "total_cycles": "0x1.a15950af9ef73p+20",
        "num_instances": 328,
        "cost_detailed_instances": 31,
        "cost_burst_instances": 297,
        "cost_detailed_instr": 1360275,
        "instances_sha": "fd8e90a5bdd049a7cd8fd3609ba66b04fe43eeb78b93dad0547023fe49357bc5",
        "ci_half_width_cycles": "0x1.fc099b8eca234p+16",
    },
    ("cholesky", "highperf", "periodic-p10", THREADS): {
        "total_cycles": "0x1.0312c19d43fedp+20",
        "num_instances": 392,
        "cost_detailed_instances": 211,
        "cost_burst_instances": 181,
        "cost_detailed_instr": 7801839,
        "instances_sha": "d7b335449c677c5b56efe2f507e2d0e84068c4a22bef6b2df1eec83dbe3533e6",
    },
    ("swaptions", "lowpower", "periodic-p10", THREADS): {
        "total_cycles": "0x1.a0ffbf5c0e540p+20",
        "num_instances": 328,
        "cost_detailed_instances": 81,
        "cost_burst_instances": 247,
        "cost_detailed_instr": 3555027,
        "instances_sha": "fb6946eaed98a7788406ad983f12e9d8bcd697900f341fe8cff143882c48bda0",
    },
    ("cholesky", "highperf", "periodic", 16): {
        "total_cycles": "0x1.c3e847ebbeb77p+18",
        "num_instances": 392,
        "cost_detailed_instances": 374,
        "cost_burst_instances": 18,
        "cost_detailed_instr": 13898993,
        "instances_sha": "0afffd97e162156e6fcebdd9ce2d7617f418eafe61785fbb72b888046f411d1c",
    },
    ("cholesky", "highperf", "lazy", 16): {
        "total_cycles": "0x1.c3e847ebbeb77p+18",
        "num_instances": 392,
        "cost_detailed_instances": 374,
        "cost_burst_instances": 18,
        "cost_detailed_instr": 13898993,
        "instances_sha": "0afffd97e162156e6fcebdd9ce2d7617f418eafe61785fbb72b888046f411d1c",
    },
    ("cholesky", "highperf", "stratified", 16): {
        "total_cycles": "0x1.db4bbc5b2bba5p+18",
        "num_instances": 392,
        "cost_detailed_instances": 111,
        "cost_burst_instances": 281,
        "cost_detailed_instr": 4083719,
        "instances_sha": "6289243f0dbc4662cef043c73897a822d0500ee54ea414c558292d782084b4cb",
        "ci_half_width_cycles": "0x1.188614682fc78p+22",
    },
    ("cholesky", "highperf", "fidelity", 16): {
        "total_cycles": "0x1.ecf71c99c3ce4p+18",
        "num_instances": 392,
        "cost_detailed_instances": 173,
        "cost_burst_instances": 219,
        "cost_detailed_instr": 6376706,
        "instances_sha": "f138728f217f7c6a3a873c6b2a441a6d1537c97f5f8df844bef0ed1cf9a6ba83",
        "ci_half_width_cycles": "0x1.d1bd3e43bc912p+21",
    },
}

#: The resamples each sampled run fires (none where a key is absent): the
#: paths the 16-thread and ``periodic-p10`` entries pin.
RESAMPLES = {
    ("cholesky", "highperf", "periodic-p10", THREADS): {
        ResampleReason.PERIOD_ELAPSED: 4,
    },
    ("swaptions", "lowpower", "periodic-p10", THREADS): {
        ResampleReason.PERIOD_ELAPSED: 6,
    },
    ("cholesky", "highperf", "periodic", 16): {
        ResampleReason.THREAD_COUNT_CHANGE: 1,
    },
    ("cholesky", "highperf", "lazy", 16): {
        ResampleReason.THREAD_COUNT_CHANGE: 1,
    },
    ("cholesky", "highperf", "stratified", 16): {
        ResampleReason.EMPTY_HISTORY: 1,
        ResampleReason.THREAD_COUNT_CHANGE: 2,
    },
    ("cholesky", "highperf", "fidelity", 16): {
        ResampleReason.THREAD_COUNT_CHANGE: 3,
        ResampleReason.DRIFT: 1,
    },
}

_ARCHITECTURES = {
    "highperf": high_performance_config,
    "lowpower": low_power_config,
}


def _controller(mode: str, trace):
    if mode == "detailed":
        return None
    if mode == "periodic":
        return TaskPointController(config=periodic_config())
    if mode == "periodic-p10":
        return TaskPointController(config=periodic_config(sampling_period=10))
    if mode == "lazy":
        return TaskPointController(config=lazy_config())
    if mode == "stratified":
        return StratifiedController(trace)
    return FidelityController(trace)


def _fingerprint(result, controller=None) -> dict:
    blob = ",".join(
        f"{i.instance_id}:{i.worker_id}:{i.mode.value}:{i.start_cycle.hex()}"
        f":{i.end_cycle.hex()}:{i.ipc.hex()}:{int(i.is_warmup)}"
        for i in result.instances
    )
    fingerprint = {
        "total_cycles": result.total_cycles.hex(),
        "num_instances": result.num_instances,
        "cost_detailed_instances": result.cost.detailed_instances,
        "cost_burst_instances": result.cost.burst_instances,
        "cost_detailed_instr": result.cost.detailed_instructions,
        "instances_sha": hashlib.sha256(blob.encode()).hexdigest(),
    }
    confidence = getattr(getattr(controller, "stats", None), "confidence_summary", None)
    if confidence is not None:
        summary = confidence(result.total_cycles)
        fingerprint["ci_half_width_cycles"] = (
            None if summary is None else float(summary["half_width_cycles"]).hex()
        )
    return fingerprint


def _assert_resamples(controller, key) -> None:
    if controller is not None:
        assert dict(controller.stats.resample_reasons) == RESAMPLES.get(key, {})


def _case_id(key) -> str:
    workload, arch_name, mode, threads = key
    suffix = "" if threads == THREADS else f"-t{threads}"
    return f"{workload}-{arch_name}-{mode}{suffix}"


_CASES = [pytest.param(*key, id=_case_id(key)) for key in sorted(GOLDEN)]


@pytest.fixture(scope="module")
def traces():
    return {
        name: get_workload(name).generate(scale=SCALE, seed=SEED)
        for name in ("cholesky", "swaptions")
    }


@pytest.mark.parametrize("workload,arch_name,mode,threads", _CASES)
def test_golden_simulation_values(traces, workload, arch_name, mode, threads):
    simulator = TaskSimSimulator(architecture=_ARCHITECTURES[arch_name]())
    controller = _controller(mode, traces[workload])
    result = simulator.run(
        traces[workload],
        num_threads=threads,
        controller=controller,
        measure_wall_time=False,
    )
    key = (workload, arch_name, mode, threads)
    assert _fingerprint(result, controller) == GOLDEN[key]
    _assert_resamples(controller, key)


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
@pytest.mark.parametrize("workload,arch_name,mode,threads", _CASES)
def test_golden_values_backend_invariant(
    traces, workload, arch_name, mode, threads, backend
):
    engine_class, rule = _BACKENDS[backend]
    controller = _controller(mode, traces[workload])
    engine = engine_class(
        traces[workload],
        _ARCHITECTURES[arch_name](),
        num_threads=threads,
        controller=controller,
    )
    with kernel_rule(*KERNEL_EXTREMES[rule]):
        result = engine.run()
    key = (workload, arch_name, mode, threads)
    assert _fingerprint(result, controller) == GOLDEN[key]
    _assert_resamples(controller, key)
    if backend == "kernel-forced":
        assert engine.vector_stats["vector_instances"] > 0
