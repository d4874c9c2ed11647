"""Shared fixtures for the test suite.

The fixtures build small, fast traces and simulator configurations so the
whole suite runs in well under a minute while still exercising every layer of
the stack (traces, runtime, architecture, simulator, TaskPoint, analysis).
"""

from __future__ import annotations

import contextlib
import random
import sys
from unittest import mock

import pytest

from repro.arch.config import high_performance_config, low_power_config
from repro.trace.generator import TraceBuilder
from repro.trace.patterns import AddressSpaceAllocator
from repro.trace.records import MemoryEvent
from repro.trace.trace import ApplicationTrace
from repro.workloads.registry import get_workload


#: The engine's kernel engagement rule at its two extremes (group-width and
#: event floors, see :mod:`repro.sim.engine`): the vector kernel from the
#: first deferred group on, or never.
KERNEL_EXTREMES = {"kernel": (1, 0), "scalar": (sys.maxsize, sys.maxsize)}


@contextlib.contextmanager
def kernel_rule(min_group: int, min_events: int):
    """Engines run inside this block engage the kernel at these floors."""
    with mock.patch.multiple("repro.sim.engine", KERNEL_MIN_GROUP=min_group,
                             KERNEL_MIN_EVENTS=min_events):
        yield


def build_uniform_trace(
    name: str = "uniform",
    num_instances: int = 60,
    task_type: str = "work",
    instructions: int = 8_000,
    events_per_instance: int = 8,
    seed: int = 0,
) -> ApplicationTrace:
    """A trace of identical, independent task instances of one type."""
    builder = TraceBuilder(name=name, seed=seed)
    region = builder.allocator.allocate(8 * 1024 * 1024)
    rng = random.Random(seed)
    for index in range(num_instances):
        events = [
            MemoryEvent(address=region.base + ((index * 64 + j) * 64) % region.size, weight=10)
            for j in range(events_per_instance)
        ]
        builder.add_task(task_type, instructions=instructions, memory_events=events)
    return builder.build()


def build_two_type_trace(
    num_instances: int = 80, seed: int = 0, name: str = "two-type"
) -> ApplicationTrace:
    """A trace alternating two task types with different sizes."""
    builder = TraceBuilder(name=name, seed=seed)
    region = builder.allocator.allocate(16 * 1024 * 1024)
    for index in range(num_instances):
        if index % 2 == 0:
            builder.add_task(
                "small",
                instructions=4_000,
                memory_events=[MemoryEvent(address=region.offset(index * 4096), weight=5)],
            )
        else:
            builder.add_task(
                "large",
                instructions=20_000,
                memory_events=[
                    MemoryEvent(address=region.offset(index * 4096 + j * 64), weight=20)
                    for j in range(6)
                ],
            )
    return builder.build()


def build_chain_trace(length: int = 20, name: str = "chain") -> ApplicationTrace:
    """A fully serial trace (each instance depends on the previous one)."""
    builder = TraceBuilder(name=name, seed=0)
    region = builder.allocator.allocate(1024 * 1024)
    previous = None
    for index in range(length):
        deps = [previous] if previous is not None else []
        previous = builder.add_task(
            "stage",
            instructions=5_000,
            memory_events=[MemoryEvent(address=region.offset(index * 64), weight=4)],
            depends_on=deps,
        )
    return builder.build()


@pytest.fixture
def uniform_trace() -> ApplicationTrace:
    """Small single-type trace of independent instances."""
    return build_uniform_trace()


@pytest.fixture
def two_type_trace() -> ApplicationTrace:
    """Small trace with two task types of different sizes."""
    return build_two_type_trace()


@pytest.fixture
def chain_trace() -> ApplicationTrace:
    """Small fully-serial trace."""
    return build_chain_trace()


@pytest.fixture
def high_perf():
    """The Table II high-performance architecture configuration."""
    return high_performance_config()


@pytest.fixture
def low_power():
    """The Table II low-power architecture configuration."""
    return low_power_config()


@pytest.fixture
def allocator() -> AddressSpaceAllocator:
    """A fresh address-space allocator."""
    return AddressSpaceAllocator()


@pytest.fixture
def small_cholesky_trace() -> ApplicationTrace:
    """A very small cholesky workload trace (real dependency structure)."""
    return get_workload("cholesky").generate(scale=0.004, seed=3)
