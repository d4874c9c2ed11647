"""Multi-host dispatch for the experiment orchestrator.

This module turns :class:`~repro.exp.distributed.AsyncWorkerBackend` into a
cluster supervisor.  Every worker is a child process speaking frames on its
stdin/stdout, like a local one: a local host runs ``python -m
repro.exp.worker``, any other host runs ``ssh -T -o BatchMode=yes HOST
'<env prefix> python3 -m repro.exp.worker'``, whose pipes carry the remote
worker's frames.  Without a pseudo-terminal (``-T``) an SSH session is
transparent to binary data, and nothing listens for connections.  The
moving parts:

* :class:`HostSpec` / :func:`parse_hosts` — per-host worker budgets, parsed
  from the CLI syntax ``host1:4,host2:8``.  Host names beginning with
  ``local`` (``local``, ``localhost``, ``local0`` ...) launch via
  subprocess; anything else launches via SSH.  A host named twice is an
  error: its budgets and health accounting would split.
* :class:`HostState` — host-level health accounting shared by every slot of
  one machine: worker deaths count against the *host* as well as the slot,
  and a host whose workers crash-loop (``host_quarantine_retries``
  consecutive deaths with no completed job in between) is **quarantined** —
  its slots retire, requeueing any spec in hand, and the healthy hosts
  drain the queue.
* **Protocol check** — a worker whose ``hello`` names another
  :data:`~repro.exp.protocol.PROTOCOL_VERSION` (an SSH host with a
  different ``repro`` installed) fails its launch at once with a
  :class:`~repro.exp.distributed.SpawnError` naming both versions.
* **Compression** — the supervisor's ``hello_ack`` tells each worker to
  compress (``compress=`` on the backend), so spec and result frames
  shrink on high-latency links while pings stay raw.

A remote host needs ``python3`` (or ``remote_python`` / ``HostSpec.python``)
with ``repro`` and numpy importable, and non-interactive shells that print
nothing on stdout — the same rule as for rsync.

Results are byte-identical to a serial run at the :class:`ResultStore`
level: workers funnel through the same :func:`repro.exp.runner.run_spec`,
payloads are normalised before persistence, and ``put_if_absent`` makes
concurrent writers converge (``tests/test_exp_multihost.py`` asserts all of
this under fault injection, over local and fake-SSH hosts).
"""

from __future__ import annotations

import asyncio
import shlex
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Coroutine,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp.backends import Outcome
from repro.exp.distributed import (
    AsyncWorkerBackend,
    _Job,
    _Worker,
    worker_environment,
)


def _is_local_name(name: str) -> bool:
    return name == "127.0.0.1" or name.startswith("local")


@dataclass(frozen=True)
class HostSpec:
    """Static description of one execution host.

    Parameters
    ----------
    name:
        Host name.  Names starting with ``local`` (or ``127.0.0.1``) run
        workers as local subprocesses; anything else is an SSH destination
        (``user@host`` works).  Distinct local names (``local0``,
        ``local1``) simulate distinct hosts for tests and demos.
    workers:
        Worker budget: how many concurrent workers this host runs.
    via:
        Transport override: ``"auto"`` (from the name), ``"local"`` or
        ``"ssh"``.
    python:
        Interpreter to start workers with on this host (default: the
        backend's ``python`` locally, ``python3`` over SSH).
    env:
        Extra environment variables for this host's workers (fault
        injection in tests, per-host tuning in deployments).
    """

    name: str
    workers: int = 1
    via: str = "auto"
    python: Optional[str] = None
    env: Optional[Dict[str, str]] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"host {self.name!r} needs a worker budget >= 1")
        if self.via not in ("auto", "local", "ssh"):
            raise ValueError(f"unknown transport {self.via!r}")

    @property
    def is_local(self) -> bool:
        """Whether workers launch as local subprocesses (no SSH)."""
        if self.via == "auto":
            return _is_local_name(self.name)
        return self.via == "local"


def parse_hosts(raw: Union[str, Sequence[Union[str, HostSpec]]]) -> List[HostSpec]:
    """Parse the CLI host syntax ``host1:4,host2:8`` into :class:`HostSpec`\\ s.

    Accepts a comma-separated string, a sequence of ``name[:workers]``
    strings, or ready-made :class:`HostSpec` objects (passed through).  A
    bare name gets a budget of one worker; a name given twice is rejected.
    """
    parts: List[Union[str, HostSpec]]
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
    else:
        parts = list(raw)
    specs: List[HostSpec] = []
    for part in parts:
        if isinstance(part, HostSpec):
            specs.append(part)
            continue
        if not part:
            continue
        name, sep, count = part.rpartition(":")
        if not sep:
            name, count = part, "1"
        try:
            workers = int(count)
        except ValueError as exc:
            raise ValueError(
                f"malformed host entry {part!r} (expected NAME[:WORKERS])"
            ) from exc
        specs.append(HostSpec(name=name, workers=workers))
    if not specs:
        raise ValueError(f"no hosts in {raw!r}")
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ValueError(
                f"host {spec.name!r} is listed more than once "
                "(give it one entry with the summed budget)"
            )
        seen.add(spec.name)
    return specs


def parse_listen(raw: Union[None, int, str]) -> Tuple[str, int]:
    """Parse ``repro serve --listen`` (``PORT`` or ``HOST:PORT``).

    ``None`` means an ephemeral port on the loopback interface; a bare
    ``PORT`` binds loopback, ``:PORT`` every interface.
    """
    if raw is None:
        return ("127.0.0.1", 0)
    text = str(raw)
    if ":" in text:
        host, _, port = text.rpartition(":")
        return (host or "0.0.0.0", int(port))
    return ("127.0.0.1", int(text))


class HostState:
    """Runtime health accounting of one host, shared by all its slots."""

    def __init__(self, spec: HostSpec, quarantine_after: int) -> None:
        self.spec = spec
        self.quarantine_after = quarantine_after
        self.consecutive_deaths = 0
        self.completed = 0
        self.spawns = 0
        self.quarantined = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def budget(self) -> int:
        return self.spec.workers

    def record_death(self) -> bool:
        """Count one worker death; ``True`` when this newly quarantines."""
        self.consecutive_deaths += 1
        if not self.quarantined and self.consecutive_deaths > self.quarantine_after:
            self.quarantined = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_deaths = 0
        self.completed += 1


class MultiHostBackend(AsyncWorkerBackend):
    """Cluster supervisor dispatching experiments to workers on many hosts.

    The dispatch loop, heartbeats, retry/requeue, streaming store and
    determinism guarantees are inherited from
    :class:`~repro.exp.distributed.AsyncWorkerBackend`; this subclass only
    changes *which command* a slot launches: each of the ``sum(budgets)``
    slots is bound to a host and starts its workers there, as a local
    subprocess or through ``ssh``.

    Parameters (beyond the base class)
    ----------------------------------
    hosts:
        ``"host1:4,host2:8"``, or a sequence of such strings /
        :class:`HostSpec` objects.  Budgets replace ``num_workers``.
    compress:
        Exchange zlib-compressed frames with each worker (on by default;
        frames below the protocol's size floor always stay raw).
    host_quarantine_retries:
        Consecutive worker deaths (without a completed job in between) a
        *host* tolerates before it is quarantined; defaults to
        ``spawn_retries``.
    ssh_command:
        SSH client argv prefix for SSH hosts; the host name and the remote
        command follow it.
    remote_python:
        Interpreter SSH hosts start workers with, unless their
        :class:`HostSpec` names one.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[Union[str, HostSpec]]],
        *,
        compress: bool = True,
        host_quarantine_retries: Optional[int] = None,
        ssh_command: Sequence[str] = ("ssh", "-T", "-o", "BatchMode=yes"),
        remote_python: str = "python3",
        **kwargs,
    ) -> None:
        self.host_specs = parse_hosts(hosts)
        super().__init__(
            num_workers=sum(spec.workers for spec in self.host_specs), **kwargs
        )
        self.compress = compress
        self.host_quarantine_retries = (
            host_quarantine_retries
            if host_quarantine_retries is not None
            else self.spawn_retries
        )
        self.ssh_command = tuple(ssh_command)
        self.remote_python = remote_python
        self.host_stats: Dict[str, Dict[str, object]] = {}
        self._hosts: List[HostState] = []

    # ------------------------------------------------------------------
    async def _startup(self) -> None:
        self._hosts = [
            HostState(spec, self.host_quarantine_retries)
            for spec in self.host_specs
        ]
        self.host_stats = {}

    async def _teardown(self) -> None:
        self.host_stats = {
            host.name: {
                "spawns": host.spawns,
                "completed": host.completed,
                "quarantined": host.quarantined,
            }
            for host in self._hosts
        }

    def host_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Live per-host health accounting (the service's ``stats`` frame).

        ``host_stats`` is only written at :meth:`_teardown`, which a
        persistent service never reaches while serving; this reads the same
        numbers from the live :class:`HostState` objects instead.
        """
        return {
            host.name: {
                "budget": host.budget,
                "spawns": host.spawns,
                "completed": host.completed,
                "consecutive_deaths": host.consecutive_deaths,
                "quarantined": host.quarantined,
            }
            for host in self._hosts
        }

    def _slot_coroutines(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        num_jobs: int,
    ) -> List[Coroutine]:
        coroutines: List[Coroutine] = []
        for host in self._hosts:
            for _ in range(host.budget):
                coroutines.append(
                    self._worker_slot(
                        queue,
                        finish,
                        spawn=partial(self._spawn_host_worker, host),
                        host=host,
                    )
                )
        return coroutines

    def _worker_command(
        self, spec: HostSpec
    ) -> Tuple[List[str], Optional[Dict[str, str]]]:
        """``(argv, env)`` that starts one worker on ``spec``'s host.

        A local host gets the supervisor's environment (plus the extra
        variables); an SSH host inherits it for the ``ssh`` client, and the
        extra variables travel as an ``env KEY=VALUE ...`` prefix of the
        remote command, since SSH does not forward a client's environment.
        """
        extra = dict(self.worker_env)
        extra.update(spec.env or {})
        if spec.is_local:
            python = spec.python or self.python or sys.executable
            return [python, "-m", "repro.exp.worker"], worker_environment(extra)
        remote = [spec.python or self.remote_python, "-m", "repro.exp.worker"]
        if extra:
            remote[:0] = ["env"] + [
                f"{key}={value}" for key, value in sorted(extra.items())
            ]
        return [*self.ssh_command, spec.name, shlex.join(remote)], None

    async def _spawn_host_worker(self, host: HostState) -> _Worker:
        """Launch one worker on ``host``."""
        argv, env = self._worker_command(host.spec)
        worker = await self._spawn_worker(
            argv, env, host=host.name, compress=self.compress
        )
        host.spawns += 1
        return worker
