"""Synchronous client for the simulation service daemon.

:class:`ServiceClient` speaks the protocol-v5 service frames over a plain
TCP socket using the blocking :func:`repro.exp.protocol.read_frame` /
:func:`~repro.exp.protocol.write_frame` — the same wire format the workers
use, so there is nothing new to parse.  Each call opens its own
connection: the daemon is the stateful side (jobs live in its records and
journal), which is what lets a client disconnect mid-``watch`` and
re-attach later without disturbing the job.
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.exp import protocol
from repro.exp.spec import ExperimentSpec


class ServiceError(RuntimeError):
    """The daemon answered with an ``error_reply`` frame."""


class ServiceClient:
    """Blocking client of one ``repro serve`` daemon.

    Parameters
    ----------
    host / port:
        Daemon address (the ``--listen`` of ``repro serve``).
    timeout:
        Socket timeout per connection, in seconds.  ``watch`` applies it
        per frame, so a long job does not need a long timeout — but the
        gap between two unit completions must stay below it.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _roundtrip(self, message: Dict[str, object]) -> Dict[str, object]:
        """One request frame, one reply frame, on a fresh connection."""
        with self._connect() as sock:
            with sock.makefile("rwb") as stream:
                protocol.write_frame(stream, message)
                reply = protocol.read_frame(stream)
        if reply is None:
            raise ServiceError("daemon closed the connection without a reply")
        if reply.get("type") == "error_reply":
            raise ServiceError(str(reply.get("error")))
        return reply

    # ------------------------------------------------------------------
    def submit(
        self,
        specs: Sequence[Union[ExperimentSpec, Dict[str, object]]],
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> Dict[str, object]:
        """Submit a job; returns the ``submitted`` frame (incl. ``job`` id)."""
        encoded = [
            spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
            for spec in specs
        ]
        return self._roundtrip({
            "type": "submit",
            "tenant": tenant,
            "specs": encoded,
            "priority": priority,
        })

    def status(self, job_id: Optional[str] = None) -> Dict[str, object]:
        """One job's ``job_status`` frame, or ``service_status`` for all."""
        message: Dict[str, object] = {"type": "status"}
        if job_id is not None:
            message["job"] = job_id
        return self._roundtrip(message)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a job's pending specs; returns the ``cancel_ack`` frame."""
        return self._roundtrip({"type": "cancel", "job": job_id})

    def stats(self) -> Dict[str, object]:
        """The daemon's ``stats_report`` frame."""
        return self._roundtrip({"type": "stats"})

    def stop(self) -> Dict[str, object]:
        """Ask the daemon to shut down (journalled jobs persist)."""
        return self._roundtrip({"type": "stop"})

    # ------------------------------------------------------------------
    def watch(
        self,
        job_id: str,
        *,
        on_update: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Stream a job's progress until it finishes; returns ``job_done``.

        ``on_update`` receives every intermediate frame (the initial
        ``job_status`` snapshot and each ``job_update``).  The daemon keeps
        the job running if this connection drops — call :meth:`watch` again
        to re-attach.
        """
        with self._connect() as sock:
            with sock.makefile("rwb") as stream:
                protocol.write_frame(stream, {"type": "watch", "job": job_id})
                while True:
                    frame = protocol.read_frame(stream)
                    if frame is None:
                        raise ServiceError(
                            "daemon closed the watch stream before job_done"
                        )
                    kind = frame.get("type")
                    if kind == "error_reply":
                        raise ServiceError(str(frame.get("error")))
                    if kind == "job_done":
                        return frame
                    if on_update is not None:
                        on_update(frame)

    def wait(self, job_id: str) -> Dict[str, object]:
        """Watch ``job_id`` to completion, re-attaching on dropped streams."""
        while True:
            try:
                return self.watch(job_id)
            except (ConnectionError, socket.timeout):
                continue

    def results(self, job_id: str) -> List[Dict[str, object]]:
        """Convenience: the ``results`` list of the finished job."""
        return list(self.wait(job_id)["results"])
