"""The 19 task-based benchmarks of the paper's Table I.

Each benchmark is a :class:`~repro.workloads.base.Workload` that generates an
:class:`~repro.trace.trace.ApplicationTrace` reproducing the paper's task
structure: the same number of task types, a (scalable) number of task
instances, the dependency pattern of the original program and the qualitative
memory/compute behaviour listed in Table I's *Properties* column.

The benchmarks fall into three groups:

* **kernels** — 2d-convolution, 3d-stencil, atomic-monte-carlo-dynamics,
  dense-matrix-multiplication, histogram, n-body, reduction,
  sparse-matrix-vector-multiplication, vector-operation;
* **applications** — checkSparseLU, cholesky, kmeans, knn;
* **PARSEC** — blackscholes, bodytrack, canneal, dedup, freqmine, swaptions.

Use :func:`repro.workloads.registry.get_workload` to obtain a workload by
name and :func:`repro.workloads.registry.list_workloads` to enumerate them.
"""

from repro._lazy import lazy_exports

#: The benchmarks used by the paper's sensitivity analysis (Section V-A):
#: those with an error above 5% for at least one history size.  Defined here,
#: not in the registry, so the CLI parser can read it without loading the
#: trace generators.
SENSITIVITY_SUBSET = [
    "2d-convolution",
    "3d-stencil",
    "atomic-monte-carlo-dynamics",
    "knn",
    "blackscholes",
]

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.base": ["Workload", "WorkloadInfo"],
    "repro.workloads.registry": [
        "get_workload",
        "list_workloads",
        "all_workloads",
        "KERNEL_NAMES",
        "APPLICATION_NAMES",
        "PARSEC_NAMES",
    ],
})
__all__.append("SENSITIVITY_SUBSET")
