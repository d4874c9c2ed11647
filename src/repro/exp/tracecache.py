"""Content-addressed on-disk cache of generated traces, beside the result store.

Trace generation is deterministic in (benchmark, scale, seed), yet it is the
largest cost of a cold sampled run: at scale 0.05 the 19 benchmarks take
about 1.7 s to generate and 0.06 s to load back from uncompressed ``.npz``.
Without a cache every ``repro grid`` process, pool worker and service
worker pays the generation again.

A :class:`TraceCache` keeps each generated trace as one uncompressed
columnar ``.npz`` file (the :mod:`repro.trace.io` format) named by the
SHA-256 of (benchmark, scale, seed,
:data:`~repro.workloads.base.GENERATOR_VERSION`).  Every on-disk
:class:`~repro.exp.store.ResultStore` carries one in its ``traces/``
subdirectory, and :func:`repro.exp.run_experiments` makes it the trace
cache of every process that runs the store's specs (see
:func:`repro.exp.runner.use_trace_cache`).

* Entries are written atomically (a unique scratch file, then
  ``os.replace``), so racing writers of one trace leave one complete file
  and a reader sees a whole file or none.
* A missing, unreadable or mismatching entry is a miss: the caller
  regenerates the trace and rewrites the entry, so a damaged cache degrades
  to recomputation.  Writes are best effort for the same reason.
* A load refreshes the entry's mtime.  The cache has no budget of its own:
  a store's ``max_bytes`` covers its traces too, and
  :meth:`ResultStore.compact <repro.exp.store.ResultStore.compact>` evicts
  least recently used traces and results alike.

Results never depend on the cache: a loaded trace is column-for-column the
generated one, so simulations on it are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.trace.io import load_trace, save_trace
from repro.trace.trace import ApplicationTrace
from repro.workloads.base import GENERATOR_VERSION

#: Subdirectory of a result store's directory that holds its trace cache.
TRACE_SUBDIR = "traces"

_SUFFIX = ".npz"

#: What loading a damaged, truncated or vanished entry can raise.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def trace_key(benchmark: str, scale: float, seed: int) -> str:
    """Content key of the trace of ``benchmark`` at (``scale``, ``seed``)."""
    identity = json.dumps([benchmark, float(scale), int(seed), GENERATOR_VERSION])
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class TraceCache:
    """Directory of generated traces keyed by :func:`trace_key`.

    ``hits``, ``misses`` and ``writes`` count this process's operations;
    :meth:`stats` adds the directory's current size.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path(self, benchmark: str, scale: float, seed: int) -> Path:
        """Where the trace of (``benchmark``, ``scale``, ``seed``) lives."""
        return self.directory / f"{trace_key(benchmark, scale, seed)}{_SUFFIX}"

    def load(self, benchmark: str, scale: float, seed: int) -> Optional[ApplicationTrace]:
        """The cached trace, or ``None`` on a miss."""
        path = self.path(benchmark, scale, seed)
        try:
            trace = load_trace(path)
        except _UNREADABLE:
            trace = None
        if trace is None or not _describes(trace, benchmark, scale, seed):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced with eviction
            pass
        return trace

    def save(self, trace: ApplicationTrace, benchmark: str, scale: float, seed: int) -> None:
        """Cache ``trace`` as the trace of (``benchmark``, ``scale``, ``seed``).

        Best effort: a directory that cannot be written leaves the cache
        without the entry, and the trace is generated again next time.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            save_trace(trace, self.path(benchmark, scale, seed), compress=False)
        except OSError:
            return
        self.writes += 1

    # ------------------------------------------------------------------
    def scan(self) -> List[Tuple[float, Path, int]]:
        """``(mtime, path, size)`` of every cached trace still on disk."""
        entries = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(_SUFFIX) or entry.name.startswith("."):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue  # evicted by another process meanwhile
                    entries.append((stat.st_mtime, Path(entry.path), stat.st_size))
        except (FileNotFoundError, NotADirectoryError):
            pass
        return entries

    def total_bytes(self) -> int:
        """Bytes of all cached traces."""
        return sum(size for _, _, size in self.scan())

    def clear(self) -> int:
        """Delete every cached trace (and stray scratch files); returns the count."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except (FileNotFoundError, NotADirectoryError):
            return 0
        for name in names:
            is_entry = name.endswith(_SUFFIX) and not name.startswith(".")
            if is_entry or name.endswith(".tmp"):
                (self.directory / name).unlink(missing_ok=True)
                removed += is_entry
        return removed

    def stats(self) -> Dict[str, object]:
        """JSON-friendly snapshot: directory size plus this process's counters."""
        entries = self.scan()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, _, size in entries),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }


def _describes(trace: ApplicationTrace, benchmark: str, scale: float, seed: int) -> bool:
    """Whether a loaded entry is the trace its key names (guards the key)."""
    metadata = trace.metadata
    return (
        trace.name == benchmark
        and metadata.get("seed") == seed
        and metadata.get("scale") == scale
    )
