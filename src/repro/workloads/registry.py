"""Benchmark registry: look up workloads by name.

The registry exposes the 19 benchmarks of Table I grouped as in the paper
(kernels, applications, PARSEC) plus the five-benchmark subset used for the
parameter sensitivity analysis of Section V-A.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.workloads import SENSITIVITY_SUBSET
from repro.workloads.applications import (
    CheckSparseLU,
    Cholesky,
    KMeans,
    KNearestNeighbours,
)
from repro.workloads.base import Workload
from repro.workloads.kernels import (
    AtomicMonteCarloDynamics,
    Convolution2D,
    DenseMatrixMultiplication,
    Histogram,
    NBody,
    Reduction,
    SparseMatrixVectorMultiplication,
    Stencil3D,
    VectorOperation,
)
from repro.workloads.parsec import (
    BlackScholes,
    BodyTrack,
    Canneal,
    Dedup,
    FreqMine,
    Swaptions,
)

_WORKLOAD_CLASSES: List[Type[Workload]] = [
    # Kernels (Table I order).
    Convolution2D,
    Stencil3D,
    AtomicMonteCarloDynamics,
    DenseMatrixMultiplication,
    Histogram,
    NBody,
    Reduction,
    SparseMatrixVectorMultiplication,
    VectorOperation,
    # Applications.
    CheckSparseLU,
    Cholesky,
    KMeans,
    KNearestNeighbours,
    # Task-based PARSEC.
    BlackScholes,
    BodyTrack,
    Canneal,
    Dedup,
    FreqMine,
    Swaptions,
]

_REGISTRY: Dict[str, Type[Workload]] = {cls.name: cls for cls in _WORKLOAD_CLASSES}

#: Benchmark names by group, in Table I order.
KERNEL_NAMES: List[str] = [cls.name for cls in _WORKLOAD_CLASSES if cls.category == "kernel"]
APPLICATION_NAMES: List[str] = [
    cls.name for cls in _WORKLOAD_CLASSES if cls.category == "application"
]
PARSEC_NAMES: List[str] = [cls.name for cls in _WORKLOAD_CLASSES if cls.category == "parsec"]


def list_workloads(category: str | None = None) -> List[str]:
    """Return benchmark names, optionally filtered by category.

    ``category`` may be ``"kernel"``, ``"application"`` or ``"parsec"``.
    """
    if category is None:
        return [cls.name for cls in _WORKLOAD_CLASSES]
    valid = {"kernel", "application", "parsec"}
    if category not in valid:
        raise ValueError(f"unknown category {category!r}; expected one of {sorted(valid)}")
    return [cls.name for cls in _WORKLOAD_CLASSES if cls.category == category]


def get_workload(name: str) -> Workload:
    """Instantiate the workload called ``name``.

    Raises ``KeyError`` with the list of known names if the benchmark does
    not exist.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known benchmarks: {sorted(_REGISTRY)}"
        ) from None
    return cls()


def all_workloads() -> List[Workload]:
    """Instantiate all 19 benchmarks in Table I order."""
    return [cls() for cls in _WORKLOAD_CLASSES]
