"""Per-layer metrics from a traced run's spans and counters."""

from __future__ import annotations

from typing import Dict, Sequence

from spans import Row, attributed, layer_self_times

#: Span name -> per-layer metric holding the span's summed self time.
SELF_TIME_METRICS = {
    "cli.startup": "cli.startup_s",
    "cli.main": "cli.self_s",
    "cli.exit": "cli.exit_s",
    "trace.generate": "trace.generate_s",
    "plan.build": "plan.build_s",
    "engine.detailed": "engine.detailed_s",
    "engine.sampled": "engine.sampled_s",
    "controller": "controller.s",
    "exp.runner": "runner.self_s",
    "result.serialise": "result.serialise_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "serve.submit": "serve.submit_s",
    "serve.watch": "serve.wait_s",
}

#: Counters copied as they are.
COUNT_METRICS = (
    "trace.calls", "trace.events", "plan.calls", "controller.calls",
    "controller.resamples", "engine.detailed_instances",
    "engine.ff_instances", "store.hits", "store.misses",
)


def layer_metrics(rows: Sequence[Row], counts: Dict[str, float]) -> Dict[str, float]:
    """Self time per layer and the layer counters, by metric name."""
    totals = layer_self_times(rows)
    metrics = {
        metric: totals.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        metrics[name] = float(counts.get(name, 0))
    return metrics


def unattributed(rows: Sequence[Row], traced_wall: float) -> Dict[str, float]:
    """The part of ``traced_wall`` no layer span covers, in s and percent."""
    seconds = max(0.0, traced_wall - attributed(layer_self_times(rows)))
    return {
        "unattributed_s": seconds,
        "unattributed_pct": 100.0 * seconds / traced_wall if traced_wall else 0.0,
    }
