"""Paths and process helpers shared by the workloads.

Everything the benchmark writes lives under ``.perfbench/`` in the checkout
it runs from; the program under test is imported from ``src/``.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"


@dataclass
class Report:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to its value; ``summary`` maps the
    workload's own end-to-end figures (printed, not gated) to
    ``(value, unit)``; ``problems`` lists every failed output check.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    summary: Dict[str, "tuple[float, str]"] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None

    def fail(self, problem: str) -> None:
        """Count one failed or incorrect operation."""
        self.failed += 1
        self.problems.append(problem)


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "cli.py").is_file()


def use_program() -> None:
    """Make ``import repro`` load the checkout's sources in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def env(**extra: str) -> dict:
    """Environment of a child process running the checkout's ``repro``."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SRC)
    environment.update(extra)
    return environment


def repro_argv(args: Sequence[str], spans_out: Optional[Path] = None) -> List[str]:
    """``python3 -m repro ARGS``, or its traced twin writing ``spans_out``."""
    if spans_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACED), str(spans_out), *args]


def workdir() -> tempfile.TemporaryDirectory:
    """A fresh scratch directory under ``.perfbench/``, removed on exit."""
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=WORK)


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def import_probe_seconds() -> float:
    """Wall of a fresh interpreter importing ``repro.cli`` (spawn to exit)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        env=env(), check=True, timeout=60,
    )
    return time.perf_counter() - start


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
