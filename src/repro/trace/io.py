"""Serialisation of application traces.

Synthetic traces are cheap to regenerate, but persisting them is useful to
pin down an exact experiment input (for instance when comparing two simulator
versions) and mirrors the trace-file workflow of the original TaskSim setup.

Two on-disk formats are supported, selected by file suffix:

* ``.json`` / ``.json.gz`` — the original record-oriented JSON format
  (format version 1), readable by any tool;
* ``.npz`` — the columnar format: the NumPy arrays of
  :class:`~repro.trace.columns.TraceColumns` written with
  :func:`numpy.savez_compressed` (or uncompressed, ``compress=False`` —
  about ten times faster to write, the choice of the experiment layer's
  trace cache).  This is both smaller and much faster to load because no
  record objects are materialised.

Trace files are untrusted input (hand-edited, truncated, or produced by
other tools), so :func:`load_trace` still validates structure — but on the
vectorised columnar fast path: instance-id density is checked during JSON
deserialisation (it is implicit in the NPZ layout) and the dependency/block
invariants run as NumPy array checks instead of the per-record O(n·deps)
Python loop that construction from records would perform.
"""

from __future__ import annotations

import gzip
import io as _io
import json
import os
import uuid
from pathlib import Path
from typing import Union

import numpy as np

from repro.trace.columns import TaskTypeTable, TraceColumns
from repro.trace.records import ExecutionBlock, MemoryEvent, TaskTraceRecord
from repro.trace.trace import ApplicationTrace, TraceValidationError

FORMAT_VERSION = 1

#: Format marker stored inside the NPZ archive.
NPZ_FORMAT_VERSION = 1

_COLUMN_KEYS = (
    "task_type_id",
    "instructions",
    "creation_order",
    "dep_offsets",
    "dep_targets",
    "block_offsets",
    "block_instructions",
    "event_offsets",
    "event_address",
    "event_is_write",
    "event_weight",
    "event_shared",
)


def _event_to_dict(event: MemoryEvent) -> dict:
    return {
        "a": event.address,
        "w": int(event.is_write),
        "n": event.weight,
        "s": int(event.shared),
    }


def _event_from_dict(data: dict) -> MemoryEvent:
    return MemoryEvent(
        address=data["a"],
        is_write=bool(data["w"]),
        weight=data["n"],
        shared=bool(data["s"]),
    )


def _record_to_dict(record: TaskTraceRecord) -> dict:
    return {
        "id": record.instance_id,
        "type": record.task_type,
        "instructions": record.instructions,
        "depends_on": list(record.depends_on),
        "creation_order": record.creation_order,
        "blocks": [
            {
                "instructions": block.instructions,
                "events": [_event_to_dict(event) for event in block.memory_events],
            }
            for block in record.blocks
        ],
    }


def _record_from_dict(data: dict) -> TaskTraceRecord:
    blocks = [
        ExecutionBlock(
            instructions=block["instructions"],
            memory_events=tuple(_event_from_dict(event) for event in block["events"]),
        )
        for block in data["blocks"]
    ]
    return TaskTraceRecord(
        instance_id=data["id"],
        task_type=data["type"],
        instructions=data["instructions"],
        blocks=blocks,
        depends_on=tuple(data["depends_on"]),
        creation_order=data.get("creation_order", data["id"]),
    )


def _is_npz(path: Path) -> bool:
    return path.suffix == ".npz"


def save_trace(
    trace: ApplicationTrace, path: Union[str, Path], compress: bool = True
) -> Path:
    """Write ``trace`` to ``path``; the suffix selects the format.

    ``.npz`` writes the compact columnar format (zip-deflated unless
    ``compress=False``); anything else writes JSON, with a ``.gz`` suffix
    selecting gzip compression.  Returns the path written.
    """
    path = Path(path)
    if _is_npz(path):
        return _save_npz(trace, path, compress)
    payload = {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "metadata": trace.metadata,
        "records": [_record_to_dict(record) for record in trace.records],
    }
    text = json.dumps(payload)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def load_trace(path: Union[str, Path]) -> ApplicationTrace:
    """Load a trace previously written by :func:`save_trace`.

    Structural invariants are enforced on the vectorised fast path (see
    module docstring); a corrupt or reordered file raises
    :class:`~repro.trace.trace.TraceValidationError` instead of loading as a
    silently different trace.
    """
    path = Path(path)
    if _is_npz(path):
        return _load_npz(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version: {version}")
    records = []
    for position, entry in enumerate(payload["records"]):
        if entry["id"] != position:
            raise TraceValidationError(
                f"record at position {position} has instance_id {entry['id']}"
            )
        records.append(_record_from_dict(entry))
    trace = ApplicationTrace(
        name=payload["name"],
        records=records,
        metadata=payload.get("metadata", {}),
        validated=True,  # skip the per-record Python loop ...
    )
    trace.validate()  # ... but run the vectorised columnar checks.
    return trace


# ----------------------------------------------------------------------
# Columnar (NPZ) format
# ----------------------------------------------------------------------
def _save_npz(trace: ApplicationTrace, path: Path, compress: bool) -> Path:
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


def _load_npz(path: Path) -> ApplicationTrace:
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
    # The file is untrusted input: check array integrity first, then let the
    # trace constructor run the (vectorised) semantic validation.
    columns.check_consistency()
    return ApplicationTrace(
        name=header["name"],
        columns=columns,
        metadata=header.get("metadata", {}),
    )
