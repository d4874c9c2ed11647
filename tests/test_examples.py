"""The example scripts run, and the public builder path stays byte-identical.

Each script under ``examples/`` runs in-process with :mod:`runpy`, as
``python examples/NAME.py`` runs it.
"""

import runpy
from pathlib import Path

import pytest

from test_trace_cache import _digest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: ``_digest`` of the trace ``build_custom_solver()`` builds through
#: ``TraceBuilder.add_task`` and the ``repro.trace.patterns`` helpers.
CUSTOM_SOLVER_DIGEST = "c152dbafe028891e"


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out  # every example reports what it found


def test_custom_workload_trace_is_pinned():
    namespace = runpy.run_path(str(EXAMPLES / "custom_workload.py"))
    assert _digest(namespace["build_custom_solver"]()) == CUSTOM_SOLVER_DIGEST
