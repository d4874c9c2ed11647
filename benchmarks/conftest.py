"""Session-scoped fixtures shared by all figure/table harnesses."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from common import ExperimentHarness  # noqa: E402


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--workloads",
        action="store",
        default=None,
        help=(
            "Comma-separated workload subset for benchmarks that support it "
            "(currently bench_perf_hotpath), e.g. --workloads=blackscholes. "
            "Equivalent to REPRO_BENCH_WORKLOADS; the flag wins if both are "
            "set."
        ),
    )


@pytest.fixture(scope="session")
def workloads_subset(request: pytest.FixtureRequest):
    """Optional workload-name subset from ``--workloads``/env, or ``None``."""
    raw = request.config.getoption("--workloads") or os.environ.get(
        "REPRO_BENCH_WORKLOADS", ""
    )
    names = [name.strip() for name in raw.split(",") if name.strip()]
    return names or None


@pytest.fixture(scope="session")
def cache() -> ExperimentHarness:
    """One experiment harness for the whole benchmark session.

    Detailed baseline simulations are the expensive part of every figure;
    the orchestrator's shared result store lets Figures 7/9 (and 8/10) use
    identical baselines, just as the paper evaluates both policies against
    the same detailed runs.  Set ``REPRO_BENCH_JOBS=N`` to run every grid on
    N async worker processes and ``REPRO_BENCH_CACHE_DIR`` to persist
    results across sessions.
    """
    return ExperimentHarness()
