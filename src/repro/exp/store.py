"""Persistent and in-memory experiment result stores.

The :class:`ResultStore` is an on-disk JSON cache keyed by the spec content
key.  Entries are written atomically (temp file + ``os.replace``) under a
per-shard advisory file lock (``fcntl.flock``), so concurrent multi-process —
and, via a shared filesystem, multi-host — writers cannot corrupt entries or
interleave half-written JSON.  Re-running a figure or sweep with unchanged
parameters is then a pure cache hit across processes and sessions.

Two properties keep concurrent stores byte-identical to a serial run:

* stored payloads are *normalised* — the host wall-clock time (the only
  nondeterministic result field) is dropped before serialisation, so the same
  spec produces the same bytes no matter which backend, process or host ran
  it, and
* :meth:`ResultStore.put_if_absent` lets racing writers deduplicate at the
  store level: the first writer wins and later ones leave the entry alone.

Failed specs are recorded as ``<key>.error.json`` diagnostics
(:meth:`ResultStore.record_failure`); they are never served as cached
results, so a re-run retries the spec instead of replaying the failure.

Layouts
-------
*Where* entries live on disk is pluggable (``layout=``):

* :class:`DirectoryLayout` (default) — the historical sharded layout,
  ``<dir>/<ab>/<key>.json`` with per-shard ``flock`` advisory locking and a
  fallback to pre-sharding flat entries directly in ``<dir>``.
* :class:`ObjectStoreLayout` — an object-store-shaped keyspace,
  ``<dir>/objects/<ab>/<cd>/<key>.json``.  Object stores have neither
  ``flock`` nor a legacy flat namespace, so this layout takes no advisory
  locks (writes are still atomic whole-object replacements, and racing
  ``put_if_absent`` writers converge because payloads are normalised — the
  last write is byte-identical to the first) and never consults a flat
  fallback.  It is the on-disk shape a future remote object-store backend
  serialises to, which is why the simulation service can point read replicas
  at it without workers in the loop.

Serving-grade accounting
------------------------
Both stores count ``hits``/``misses`` (:meth:`get`), ``evictions`` and
``compactions``, surfaced as one JSON-friendly dict by :meth:`stats` — the
simulation service daemon reports these through its ``stats`` frame.  A
``max_bytes`` budget turns the disk store into a size-bounded LRU:
:meth:`get` refreshes an entry's mtime, :meth:`compact` evicts
least-recently-used entries until the budget holds, and a write-side
accumulator triggers compaction automatically once puts overflow the budget.
Compaction never touches failure diagnostics and never evicts a **pinned**
entry (:meth:`pin`/:meth:`unpin`, refcounted) — the daemon pins every key of
an in-flight job, so a result an active job is about to serve cannot vanish
between its write and its read.

Trace cache
-----------
Beside its results, an on-disk store keeps the traces its specs were run on:
``<dir>/traces/`` is a :class:`~repro.exp.tracecache.TraceCache`
(``ResultStore.traces``), which :func:`repro.exp.run_experiments` routes
trace generation through.  Result entries never depend on it; it only
spares later runs on the same store the trace generation.  The ``max_bytes``
budget covers the cached traces too: compaction evicts least recently used
traces and results alike, so the budget bounds the whole directory.

:class:`MemoryResultStore` implements the same interface in memory; the
benchmark harnesses use it to share detailed baselines between figures within
one pytest session without persisting anything.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

try:  # advisory locking is POSIX-only; elsewhere the store degrades to
    import fcntl  # atomic-rename-only safety (no cross-process mutual exclusion)
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.tracecache import TRACE_SUBDIR, TraceCache

#: Environment variable selecting a default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Number of leading hex digits of the content key used as the shard name.
SHARD_DIGITS = 2

_ERROR_SUFFIX = ".error.json"


def _normalised_payload(spec: ExperimentSpec, result: ExperimentResult) -> str:
    """Canonical store entry text: spec + result minus host wall-clock time.

    Wall time is the only field of a result that depends on the executing
    host rather than on the spec; dropping it makes store entries
    byte-identical across backends, processes and machines (and
    :meth:`ResultStore.get` never served it anyway).
    """
    result_dict = result.to_dict()
    result_dict["wall_seconds"] = None
    payload = {"spec": spec.to_dict(), "result": result_dict}
    return json.dumps(payload, sort_keys=True, indent=1)


# ----------------------------------------------------------------------
class DirectoryLayout:
    """The historical sharded directory layout: ``<ab>/<key>.json``.

    Uses per-shard ``flock`` advisory locks and falls back to pre-sharding
    flat entries written directly into the store directory.
    """

    name = "directory"
    #: Whether writers serialise through per-shard advisory locks.
    uses_locks = True
    #: Whether pre-sharding flat entries in the root are consulted.
    legacy_flat = True

    def entry_relpath(self, key: str) -> str:
        return f"{key[:SHARD_DIGITS]}/{key}.json"

    def failure_relpath(self, key: str) -> str:
        return f"{key[:SHARD_DIGITS]}/{key}{_ERROR_SUFFIX}"

    def lock_name(self, key: str) -> str:
        return key[:SHARD_DIGITS]

    def iter_entries(self, directory: Path) -> Iterator[Path]:
        """All result entry files, excluding temp and failure files."""
        # pathlib's glob matches dotfiles, so exclude the ".tmp-*.json" files
        # an interrupted put() may leave behind, and the ".locks" directory.
        for pattern in ("*.json", "[0-9a-f]" * SHARD_DIGITS + "/*.json"):
            for path in directory.glob(pattern):
                if path.name.startswith(".") or path.name.endswith(_ERROR_SUFFIX):
                    continue
                yield path


class ObjectStoreLayout:
    """Object-store-shaped keyspace: ``objects/<ab>/<cd>/<key>.json``.

    Object stores offer atomic whole-object PUTs but no advisory locks and
    no legacy flat namespace, so this layout takes none: ``put_if_absent``
    degrades to check-then-write, which still converges because entry
    payloads are normalised (every winner writes the same bytes).
    """

    name = "object"
    uses_locks = False
    legacy_flat = False

    def entry_relpath(self, key: str) -> str:
        return f"objects/{key[:2]}/{key[2:4]}/{key}.json"

    def failure_relpath(self, key: str) -> str:
        return f"objects/{key[:2]}/{key[2:4]}/{key}{_ERROR_SUFFIX}"

    def lock_name(self, key: str) -> str:  # pragma: no cover - never locked
        return key[:2]

    def iter_entries(self, directory: Path) -> Iterator[Path]:
        for path in directory.glob("objects/*/*/*.json"):
            if path.name.startswith(".") or path.name.endswith(_ERROR_SUFFIX):
                continue
            yield path


#: Layout names accepted by :class:`ResultStore` and the CLI.
LAYOUT_NAMES = ("directory", "object")


def make_layout(layout: Union[None, str, DirectoryLayout, ObjectStoreLayout]):
    """Resolve a layout argument (name, instance or ``None``) to an instance."""
    if layout is None:
        return DirectoryLayout()
    if isinstance(layout, str):
        if layout == "directory":
            return DirectoryLayout()
        if layout == "object":
            return ObjectStoreLayout()
        raise ValueError(
            f"unknown store layout {layout!r} (choose from {LAYOUT_NAMES})"
        )
    return layout


class MemoryResultStore:
    """In-memory result store (shared baselines within one process).

    ``max_entries`` bounds the store to an LRU of that many results —
    :meth:`get` refreshes recency, overflowing :meth:`put` evicts the least
    recently used entry (never a pinned one) and counts it in ``evictions``.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._results: "collections.OrderedDict[str, ExperimentResult]" = (
            collections.OrderedDict()
        )
        self._failures: Dict[str, ExperimentFailure] = {}
        self._pins: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._results)

    def pin(self, key: str) -> None:
        """Protect ``key`` from eviction (refcounted)."""
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Drop one pin of ``key``; eviction applies again at refcount 0."""
        count = self._pins.get(key, 0) - 1
        if count <= 0:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Return the cached result of ``spec``, or ``None``."""
        key = spec.content_key()
        result = self._results.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._results.move_to_end(key)
        return result

    def _evict_overflow(self) -> None:
        if self.max_entries is None:
            return
        while len(self._results) > self.max_entries:
            victim = next(
                (k for k in self._results if k not in self._pins), None
            )
            if victim is None:
                return  # everything left is pinned; the budget yields
            del self._results[victim]
            self.evictions += 1

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """Cache ``result`` under ``spec``'s content key."""
        key = spec.content_key()
        self._results[key] = result
        self._results.move_to_end(key)
        self._failures.pop(key, None)
        self._evict_overflow()

    def put_if_absent(self, spec: ExperimentSpec, result: ExperimentResult) -> bool:
        """Cache ``result`` unless the key is present; ``True`` if written.

        Either way the spec is now known to succeed, so any stale failure
        record from an earlier attempt is dropped.
        """
        key = spec.content_key()
        if key in self._results:
            self._failures.pop(key, None)
            return False
        self.put(spec, result)
        return True

    def record_failure(self, spec: ExperimentSpec, failure: ExperimentFailure) -> None:
        """Keep the latest failure of ``spec`` for diagnosis (never served)."""
        self._failures[spec.content_key()] = failure

    def get_failure(self, spec: ExperimentSpec) -> Optional[ExperimentFailure]:
        """Return the recorded failure of ``spec``, or ``None``."""
        return self._failures.get(spec.content_key())

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counter snapshot (the daemon's ``stats`` frame)."""
        return {
            "layout": "memory",
            "entries": len(self._results),
            "failures": len(self._failures),
            "pinned": len(self._pins),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Drop all cached results and failures (counters are kept)."""
        self._results.clear()
        self._failures.clear()


class ResultStore:
    """On-disk JSON result cache keyed by spec content hash.

    Parameters
    ----------
    directory:
        Cache directory; created on first write.
    layout:
        Where entries live under ``directory``: ``"directory"`` (default,
        the sharded ``<ab>/<key>.json`` layout with per-shard locking and
        the pre-sharding flat fallback) or ``"object"`` (an object-store
        keyspace, lock-free).  A layout instance is accepted too.
    max_bytes:
        Optional LRU byte budget over the result entries.  :meth:`get`
        refreshes recency (mtime), :meth:`compact` evicts least recently
        used unpinned entries until the budget holds, and puts trigger
        compaction automatically once the accumulated writes overflow it.
        The budget covers the cached traces in ``traces/`` as well.
        Failure diagnostics and pinned keys are never evicted.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        layout: Union[None, str, DirectoryLayout, ObjectStoreLayout] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.directory = Path(directory).expanduser()
        self.layout = make_layout(layout)
        self.max_bytes = max_bytes
        #: Generated traces of this store's specs (see the module docstring).
        self.traces = TraceCache(self.directory / TRACE_SUBDIR)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compactions = 0
        self._pins: Dict[str, int] = {}
        #: Bytes written since the last budget check; ``None`` until the
        #: first budgeted put forces a directory scan.
        self._approx_bytes: Optional[int] = None

    # ------------------------------------------------------------------
    @staticmethod
    def shard(key: str) -> str:
        """Shard (subdirectory) name of content key ``key``."""
        return key[:SHARD_DIGITS]

    def _path(self, spec: ExperimentSpec) -> Path:
        return self.directory / self.layout.entry_relpath(spec.content_key())

    def _key_path(self, key: str) -> Path:
        return self.directory / self.layout.entry_relpath(key)

    def _legacy_path(self, spec: ExperimentSpec) -> Path:
        return self.directory / f"{spec.content_key()}.json"

    def _failure_path(self, spec: ExperimentSpec) -> Path:
        return self.directory / self.layout.failure_relpath(spec.content_key())

    def _entry_files(self) -> Iterator[Path]:
        """All result entry files, excluding temp and failure files."""
        if not self.directory.is_dir():
            return
        for path in self.layout.iter_entries(self.directory):
            yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    # ------------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Protect ``key``'s entry from compaction (refcounted).

        The simulation service pins every key of an in-flight job: a result
        written moments ago must still be there when the job's watcher reads
        it back, whatever the LRU budget says.
        """
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Drop one pin of ``key``; compaction applies again at refcount 0."""
        count = self._pins.get(key, 0) - 1
        if count <= 0:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count

    def pinned_keys(self) -> "set[str]":
        """Currently pinned content keys (diagnostics and tests)."""
        return set(self._pins)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Hold the advisory exclusive lock of ``key``'s shard.

        The lock serialises writers of one shard across processes (and across
        hosts sharing the filesystem, where the filesystem supports ``flock``
        semantics).  Readers never take it: entries are only ever replaced
        atomically, so a reader sees either the old or the new complete file.
        On platforms without ``fcntl``, and under the lock-free object-store
        layout, this is a no-op.
        """
        if fcntl is None or not self.layout.uses_locks:
            yield
            return
        lock_dir = self.directory / ".locks"
        lock_dir.mkdir(parents=True, exist_ok=True)
        lock_path = lock_dir / f"{self.layout.lock_name(key)}.lock"
        with open(lock_path, "w", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _write_atomically(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Return the stored result of ``spec``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (and are overwritten by
        the next :meth:`put`), so a damaged cache degrades to recomputation
        instead of failing the run.

        Host wall-clock time is dropped from served results: a stored entry
        may come from another session or machine, and pairing its wall time
        with a run timed here would produce a meaningless wall speedup.  The
        deterministic cost model is unaffected.

        Under a ``max_bytes`` budget a hit refreshes the entry's mtime, which
        is the recency signal :meth:`compact` evicts by — a warm entry the
        daemon keeps serving stays resident while cold ones age out.
        """
        paths = [self._path(spec)]
        if self.layout.legacy_flat:
            paths.append(self._legacy_path(spec))
        for path in paths:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                result = ExperimentResult.from_dict(payload["result"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
            result.wall_seconds = None
            self.hits += 1
            if self.max_bytes is not None:
                try:
                    os.utime(path)
                except OSError:  # pragma: no cover - raced with eviction
                    pass
            return result
        self.misses += 1
        return None

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        """Persist ``result`` atomically under ``spec``'s content key.

        The write happens under the shard's advisory lock and a stale
        ``<key>.error.json`` diagnostic from an earlier failed attempt is
        removed, so the store converges to one normalised entry per spec no
        matter how many processes retried it.
        """
        key = spec.content_key()
        text = _normalised_payload(spec, result)
        with self.lock(key):
            self._write_atomically(self._path(spec), text)
            self._failure_path(spec).unlink(missing_ok=True)
            if self.layout.legacy_flat:
                # A pre-sharding flat entry would otherwise shadow-count forever.
                self._legacy_path(spec).unlink(missing_ok=True)
        self._note_written(len(text))

    @staticmethod
    def _entry_is_valid(path: Path) -> bool:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            ExperimentResult.from_dict(payload["result"])
            return True
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def put_if_absent(self, spec: ExperimentSpec, result: ExperimentResult) -> bool:
        """Persist ``result`` unless a valid entry exists; ``True`` if written.

        This is the store-level deduplication primitive for concurrent
        writers: the check and the write happen under the shard lock, so of N
        racing processes exactly one writes the entry.  A corrupt existing
        entry (which :meth:`get` treats as a miss) counts as absent and is
        replaced, so the store never wedges on a damaged file; entries in the
        legacy flat layout count as present.

        The spec's stale ``<key>.error.json`` diagnostic (if any) is removed
        on *both* paths: the spec demonstrably succeeds now, and without the
        clean-up a spec that failed once — and was then recomputed by a
        sibling writer that won the race — would advertise its old failure
        forever next to a perfectly valid entry.
        """
        key = spec.content_key()
        path = self._path(spec)
        with self.lock(key):
            present = self._entry_is_valid(path) or (
                self.layout.legacy_flat
                and self._entry_is_valid(self._legacy_path(spec))
            )
            if present:
                self._failure_path(spec).unlink(missing_ok=True)
                return False
            text = _normalised_payload(spec, result)
            self._write_atomically(path, text)
            self._failure_path(spec).unlink(missing_ok=True)
            if self.layout.legacy_flat:
                self._legacy_path(spec).unlink(missing_ok=True)
        self._note_written(len(text))
        return True

    # ------------------------------------------------------------------
    def record_failure(self, spec: ExperimentSpec, failure: ExperimentFailure) -> None:
        """Persist a ``<key>.error.json`` diagnostic for a failed spec.

        Failure records are write-only from the orchestrator's point of view:
        :meth:`get` never serves them, so the spec is retried on the next
        run; they exist so a crashed grid can be diagnosed post-mortem.
        They live outside the LRU byte budget and are never compacted away.
        """
        key = spec.content_key()
        payload = {"spec": spec.to_dict(), "error": failure.to_dict()}
        text = json.dumps(payload, sort_keys=True, indent=1)
        with self.lock(key):
            self._write_atomically(self._failure_path(spec), text)

    def get_failure(self, spec: ExperimentSpec) -> Optional[ExperimentFailure]:
        """Return the recorded failure of ``spec``, or ``None``."""
        try:
            payload = json.loads(self._failure_path(spec).read_text(encoding="utf-8"))
            return ExperimentFailure.from_dict(payload["error"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # ------------------------------------------------------------------
    def _note_written(self, size: int) -> None:
        """Account one entry write towards the auto-compaction trigger.

        Result bytes are accumulated; trace bytes are measured, because
        worker processes write the traces without this object seeing it.
        """
        if self.max_bytes is None:
            return
        if self._approx_bytes is None:
            self._approx_bytes = sum(
                self._entry_size(path) for path in self._entry_files()
            )
        else:
            self._approx_bytes += size
        if self._approx_bytes + self.traces.total_bytes() > self.max_bytes:
            self.compact()

    @staticmethod
    def _entry_size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def total_bytes(self) -> int:
        """Total bytes of all result entries (failure diagnostics excluded)."""
        return sum(self._entry_size(path) for path in self._entry_files())

    def compact(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the byte budget holds.

        Returns the number of evicted entries.  Result entries and cached
        traces are ordered together by mtime (which :meth:`get` and trace
        loads refresh, making this an LRU); pinned keys and failure
        diagnostics are never candidates, so the budget yields when only
        pinned entries remain.  Each eviction re-checks the victim's mtime
        (a result under its shard lock) — an entry a concurrent reader just
        refreshed (or a writer just replaced) is spared this round rather
        than dropped on stale information.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            return 0
        entries = []
        result_bytes = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            result_bytes += stat.st_size
            key = path.name[: -len(".json")]
            if key in self._pins:
                continue
            entries.append((stat.st_mtime, stat.st_size, path, key))
        trace_bytes = 0
        for mtime, path, size in self.traces.scan():
            trace_bytes += size
            entries.append((mtime, size, path, None))
        entries.sort(key=lambda item: (item[0], item[2].name))
        evicted = 0
        for mtime, size, path, key in entries:
            if result_bytes + trace_bytes <= budget:
                break
            with self.lock(key) if key is not None else contextlib.nullcontext():
                try:
                    if path.stat().st_mtime > mtime:
                        continue  # refreshed since the scan: spare it
                    path.unlink()
                except OSError:
                    continue  # already gone (racing compactor or clear)
            if key is None:
                trace_bytes -= size
            else:
                result_bytes -= size
            evicted += 1
        self.evictions += evicted
        self.compactions += 1
        self._approx_bytes = result_bytes
        return evicted

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counter snapshot (the daemon's ``stats`` frame).

        ``entries``/``bytes`` scan the directory, so this is a monitoring
        call, not a hot-path one.  ``traces`` is the trace cache's snapshot;
        its hit/miss counters are this process's (the daemon's workers
        load traces in their own processes).
        """
        entries = 0
        total = 0
        for path in self._entry_files():
            entries += 1
            total += self._entry_size(path)
        return {
            "layout": self.layout.name,
            "entries": entries,
            "bytes": total,
            "pinned": len(self._pins),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "max_bytes": self.max_bytes,
            "traces": self.traces.stats(),
        }

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete all cache entries; return how many results were removed.

        Failure diagnostics, cached traces and leftover temp files are
        removed as well but not counted.
        """
        self.traces.clear()
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.rglob("*.json"):
            if ".locks" in path.parts:
                continue
            is_entry = (
                not path.name.startswith(".")
                and not path.name.endswith(_ERROR_SUFFIX)
            )
            path.unlink(missing_ok=True)
            if is_entry:
                removed += 1
        self._approx_bytes = 0 if self.max_bytes is not None else None
        return removed


def default_store() -> Optional[ResultStore]:
    """Store selected by the ``REPRO_CACHE_DIR`` environment variable."""
    directory = os.environ.get(CACHE_DIR_ENV)
    return ResultStore(directory) if directory else None
