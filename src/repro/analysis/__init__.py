"""Analysis and evaluation tooling.

This package contains everything needed to regenerate the paper's evaluation:

* :mod:`repro.analysis.variation` — per-task-type IPC variation statistics
  (the box plots of Figures 1 and 5),
* :mod:`repro.analysis.native` — the native-execution substitute (detailed
  simulation plus a calibrated system-noise model),
* :mod:`repro.analysis.accuracy` — execution-time error and simulation
  speedup of sampled versus detailed simulation (Figures 7-10),
* :mod:`repro.analysis.sweep` — parameter sensitivity sweeps over W, H and P
  (Figure 6),
* :mod:`repro.analysis.reporting` — plain-text rendering of the tables and
  figure data series.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.variation": [
        "BoxPlotStats",
        "TypeVariation",
        "VariationReport",
        "ipc_variation",
        "variation_grid",
    ],
    "repro.analysis.native": ["NativeExecutionModel", "native_execution"],
    "repro.analysis.accuracy": [
        "AccuracyResult",
        "AccuracySummary",
        "accuracy_from_experiments",
        "evaluate_benchmark",
        "evaluate_grid",
        "evaluate_specs",
        "grid_specs",
        "summarize",
    ],
    "repro.analysis.sweep": [
        "SweepPoint",
        "warmup_sweep",
        "history_sweep",
        "period_sweep",
    ],
    "repro.analysis.reporting": [
        "format_table",
        "render_accuracy_table",
        "render_variation_report",
    ],
})
