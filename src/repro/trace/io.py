"""Serialisation of application traces.

Synthetic traces are cheap to regenerate, but persisting them is useful to
pin down an exact experiment input (for instance when comparing two simulator
versions) and mirrors the trace-file workflow of the original TaskSim setup.

A trace file is a ``.npz`` archive: the NumPy arrays of
:class:`~repro.trace.columns.TraceColumns` plus a JSON header (name,
metadata, task-type names), written with :func:`numpy.savez_compressed` (or
uncompressed, ``compress=False`` — about ten times faster to write, the
choice of the experiment layer's trace cache).  Loading materialises no
record objects.

Trace files are untrusted input (hand-edited, truncated, or produced by
other tools).  A loaded trace goes through the same
:meth:`~repro.trace.columns.TraceColumns.validate` as every other trace, so
a corrupt file raises
:class:`~repro.trace.columns.TraceValidationError` instead of loading as a
silently different trace.
"""

from __future__ import annotations

import io as _io
import json
import os
import uuid
from pathlib import Path
from typing import Union

import numpy as np

from repro.trace.columns import TaskTypeTable, TraceColumns
from repro.trace.trace import ApplicationTrace

#: Format marker stored inside the NPZ archive.
NPZ_FORMAT_VERSION = 1

_COLUMN_KEYS = TraceColumns.ARRAYS


def _npz_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        raise ValueError(f"trace files are .npz archives, got {str(path)!r}")
    return path


def save_trace(
    trace: ApplicationTrace, path: Union[str, Path], compress: bool = True
) -> Path:
    """Write ``trace`` to the ``.npz`` file ``path``; returns the path.

    The archive is zip-deflated unless ``compress=False``.  Any other
    suffix raises :class:`ValueError`.
    """
    path = _npz_path(path)
    columns = trace.columns
    header = json.dumps(
        {
            "format_version": NPZ_FORMAT_VERSION,
            "name": trace.name,
            "metadata": trace.metadata,
            "task_types": list(columns.types.names),
        }
    )
    arrays = {key: getattr(columns, key) for key in _COLUMN_KEYS}
    arrays["header"] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
    # Assemble in memory and publish with an atomic rename so a torn write
    # cannot leave a half archive behind under the final name.  The scratch
    # name is unique: concurrent writers of one path (two workers caching
    # the same trace) each rename a complete archive of their own.  It is
    # created by open(), not mkstemp, so the umask sets the file's mode.
    buffer = _io.BytesIO()
    (np.savez_compressed if compress else np.savez)(buffer, **arrays)
    scratch = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with open(scratch, "xb") as handle:
            handle.write(buffer.getbuffer())
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return path


def load_trace(path: Union[str, Path]) -> ApplicationTrace:
    """Load a trace previously written by :func:`save_trace`.

    The trace is validated like every other (see module docstring).  Any
    suffix but ``.npz``, or an archive of another format version, raises
    :class:`ValueError`.
    """
    path = _npz_path(path)
    # Opened here, not by np.load: np.load leaks its own handle when the
    # file is not a readable archive.
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        version = header.get("format_version")
        if version != NPZ_FORMAT_VERSION:
            raise ValueError(f"unsupported columnar trace format version: {version}")
        columns = TraceColumns(
            types=TaskTypeTable(header["task_types"]),
            **{key: archive[key] for key in _COLUMN_KEYS},
        )
    return ApplicationTrace(
        name=header["name"],
        columns=columns,
        metadata=header.get("metadata", {}),
    )
