"""Run one ``repro`` command with the layer probes installed.

Usage: ``python3 perfbench/traced.py SPANS_OUT <repro arguments...>``

Behaves like ``python3 -m repro <arguments>`` (same exit code), but records
the spans of :mod:`probes` and hands them to the parent through ``SPANS_OUT``
(:meth:`spans.SpanRecorder.handoff`) once the command returns.
``$PERFBENCH_SPAWN_T0`` is the parent's ``perf_counter()`` just before it
spawned this process; the span ``cli.startup`` runs from there to the end of
``import repro.cli``.  The daemon (``serve``) returns, and so hands off, after
a ``stop`` frame or SIGTERM.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import repro.cli  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main() -> int:
    imported = time.perf_counter()
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    spawned = float(os.environ.get("PERFBENCH_SPAWN_T0", imported))
    recorder.add("cli.startup", spawned, imported)
    probes.install(recorder)
    with recorder.span("cli.main"):
        code = repro.cli.main(argv)
    recorder.handoff(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
