"""Application traces for trace-driven simulation.

The TaskSim simulator used by the TaskPoint paper is trace driven: a native
execution of an OmpSs program is instrumented once, and the resulting trace
(task instances, their dynamic instruction counts and their memory behaviour)
is replayed by the simulator.  This package provides the equivalent trace
substrate for the reproduction:

* :class:`~repro.trace.columns.TraceColumns` is the one stored form of a
  trace: NumPy columns, checked by one validator,
* :class:`~repro.trace.trace.ApplicationTrace` bundles all task instances of a
  program together with the inter-task dependency graph,
* :class:`~repro.trace.records.MemoryEvent` is one row of the event columns;
  :class:`~repro.trace.records.ExecutionBlock` and
  :class:`~repro.trace.records.TaskTraceRecord` are per-instance views of
  the columns,
* :class:`~repro.trace.generator.TraceBuilder` and the address-pattern helpers
  in :mod:`repro.trace.patterns` are used by the synthetic workloads in
  :mod:`repro.workloads` to build traces,
* :mod:`repro.trace.io` saves traces to and loads them from ``.npz`` files.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.records": ["MemoryEvent", "ExecutionBlock", "TaskTraceRecord"],
    "repro.trace.columns": ["ColumnBuilder", "TaskTypeTable", "TraceColumns"],
    "repro.trace.trace": ["ApplicationTrace", "TraceStatistics"],
    "repro.trace.generator": ["TraceBuilder"],
    "repro.trace.patterns": [
        "AddressSpace",
        "strided_accesses",
        "random_accesses",
        "reuse_accesses",
    ],
    "repro.trace.io": ["load_trace", "save_trace"],
})
