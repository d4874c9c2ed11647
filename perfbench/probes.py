"""Spans around the calls into each layer's public functions.

:func:`install` wraps, in the running process, the entry points the
per-layer metrics are named after:

* ``trace.generate``   — ``Workload.generate`` (counts calls and events),
* ``plan.build``       — ``arch.batch.build_execution_plan``,
* ``engine.detailed`` / ``engine.sampled`` — ``SimulationEngine.__init__``
  and ``.run`` (a sampled engine is one given a controller),
* ``controller``       — construction of the three sampling controllers and
  every ``choose_mode``/``notify_completion`` call, through a delegating
  wrapper that :func:`repro.exp.runner.run_spec` passes as ``controller=``,
* ``exp.runner``       — ``run_spec`` (carries the spec id of its subtree),
* ``result.serialise`` — ``ExperimentResult.from_simulation/to_dict/from_dict``,
* ``store.get`` / ``store.put`` — ``ResultStore.get/put/put_if_absent``.

The wrappers only time and count; every call is forwarded unchanged, which
the workloads check by comparing traced results with untraced ones.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Tuple

from spans import SpanRecorder


class TracedController:
    """Delegating mode controller that records a span per decision."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def choose_mode(self, *args, **kwargs):
        recorder = self._recorder
        index = recorder.open("controller")
        try:
            return self._inner.choose_mode(*args, **kwargs)
        finally:
            recorder.close(index)
            recorder.counts["controller.calls"] += 1

    def notify_completion(self, info) -> None:
        recorder = self._recorder
        index = recorder.open("controller")
        try:
            self._inner.notify_completion(info)
        finally:
            recorder.close(index)
            recorder.counts["controller.calls"] += 1

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the layer entry points; returns a function that unwraps them."""
    import repro.arch.batch as batch
    import repro.exp.backends as backends
    import repro.exp.runner as runner
    from repro.exp.spec import ExperimentResult
    from repro.exp.store import ResultStore
    from repro.sim.engine import SimulationEngine
    from repro.workloads.base import Workload

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, name: str, replacement) -> None:
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def timed(span_name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = recorder.open(span_name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)
        return wrapper

    generate = Workload.generate

    def traced_generate(self, *args, **kwargs):
        index = recorder.open("trace.generate")
        try:
            trace = generate(self, *args, **kwargs)
        finally:
            recorder.close(index)
        recorder.count("trace.calls")
        recorder.count("trace.events", trace.columns.num_events)
        return trace

    patch(Workload, "generate", traced_generate)

    build_plan = batch.build_execution_plan

    def traced_build_plan(*args, **kwargs):
        recorder.count("plan.calls")
        index = recorder.open("plan.build")
        try:
            return build_plan(*args, **kwargs)
        finally:
            recorder.close(index)

    patch(batch, "build_execution_plan", traced_build_plan)

    engine_init = SimulationEngine.__init__
    engine_run = SimulationEngine.run

    def traced_engine_init(self, *args, **kwargs):
        controller = kwargs.get("controller", args[4] if len(args) > 4 else None)
        self._perfbench_span = (
            "engine.detailed" if controller is None else "engine.sampled"
        )
        index = recorder.open(self._perfbench_span)
        try:
            engine_init(self, *args, **kwargs)
        finally:
            recorder.close(index)

    def traced_engine_run(self):
        index = recorder.open(self._perfbench_span)
        try:
            result = engine_run(self)
        finally:
            recorder.close(index)
        if self._perfbench_span == "engine.sampled":
            recorder.count("engine.detailed_instances", result.cost.detailed_instances)
            recorder.count("engine.ff_instances", result.cost.burst_instances)
            recorder.count("controller.resamples", self.controller.stats.resamples)
        return result

    patch(SimulationEngine, "__init__", traced_engine_init)
    patch(SimulationEngine, "run", traced_engine_run)

    def traced_controller_class(cls):
        def make(*args, **kwargs):
            index = recorder.open("controller")
            try:
                inner = cls(*args, **kwargs)
            finally:
                recorder.close(index)
            return TracedController(inner, recorder)
        return make

    for name in ("TaskPointController", "StratifiedController", "FidelityController"):
        patch(runner, name, traced_controller_class(getattr(runner, name)))

    run_spec = runner.run_spec

    def traced_run_spec(spec):
        index = recorder.open("exp.runner", spec.content_key()[:12])
        try:
            return run_spec(spec)
        finally:
            recorder.close(index)

    patch(runner, "run_spec", traced_run_spec)
    patch(backends, "run_spec", traced_run_spec)

    from_simulation = ExperimentResult.__dict__["from_simulation"].__func__
    patch(ExperimentResult, "from_simulation",
          classmethod(timed("result.serialise", from_simulation)))
    from_dict = ExperimentResult.__dict__["from_dict"].__func__
    patch(ExperimentResult, "from_dict",
          classmethod(timed("result.serialise", from_dict)))
    patch(ExperimentResult, "to_dict",
          timed("result.serialise", ExperimentResult.to_dict))

    store_get = ResultStore.get

    def traced_get(self, spec):
        index = recorder.open("store.get")
        try:
            result = store_get(self, spec)
        finally:
            recorder.close(index)
        recorder.count("store.hits" if result is not None else "store.misses")
        return result

    patch(ResultStore, "get", traced_get)
    patch(ResultStore, "put", timed("store.put", ResultStore.put))
    patch(ResultStore, "put_if_absent", timed("store.put", ResultStore.put_if_absent))

    def uninstall() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        saved.clear()

    return uninstall
