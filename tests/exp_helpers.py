"""Shared helpers for the ``repro.exp`` test suites.

Two helpers define the repository's *byte-identity convention* — what "the
same results" means across backends, batch sizes, hosts and hash seeds — so
they live in exactly one place:

* :func:`deterministic_fields` — a result payload minus host wall-clock time
  (the only field that legitimately differs between runs);
* :func:`store_result_bytes` — the raw bytes of every *result* entry of an
  on-disk :class:`~repro.exp.store.ResultStore`.  Failure diagnostics
  (``*.error.json``) are excluded: they embed tracebacks, which legitimately
  differ between an in-process raise and a worker-side raise.

:func:`pipe_worker` starts a real worker process for the protocol-level
tests, which then speak frames to it on its stdin/stdout.

Importable as ``from exp_helpers import ...`` because pytest puts this
directory on ``sys.path`` for the suites here (there is no ``__init__.py``).
"""

import contextlib
import pathlib
import subprocess
import sys


def deterministic_fields(result):
    """Result payload minus host wall-clock time (the only noisy field)."""
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return payload


def store_result_bytes(directory):
    """Relative path -> bytes for every *result* entry (errors excluded)."""
    root = pathlib.Path(directory)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*.json")
        if not any(part.startswith(".") for part in path.relative_to(root).parts)
        and not path.name.endswith(".error.json")
    }


@contextlib.contextmanager
def pipe_worker(**env):
    """A ``python -m repro.exp.worker`` child with extra environment ``env``.

    Yields the :class:`subprocess.Popen`: write frames to its ``stdin``,
    read them from its ``stdout``.  A worker still running at exit is
    killed.
    """
    from repro.exp.distributed import worker_environment

    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.exp.worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=worker_environment(env),
    )
    with worker:
        try:
            yield worker
        finally:
            if worker.poll() is None:
                worker.kill()
