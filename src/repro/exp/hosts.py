"""Execution hosts of the worker backend.

:class:`~repro.exp.distributed.AsyncWorkerBackend` binds every dispatch slot
to a host.  Every worker is a child process speaking frames on its
stdin/stdout: a local host runs ``python -m repro.exp.worker``, any other
host runs ``ssh -T -o BatchMode=yes HOST '<env prefix> python3 -m
repro.exp.worker'``, whose pipes carry the remote worker's frames.  Without
a pseudo-terminal (``-T``) an SSH session is transparent to binary data, and
nothing listens for connections.  This module holds the host side of that:

* :class:`HostSpec` / :func:`parse_hosts` — per-host worker budgets, parsed
  from the CLI syntax ``host1:4,host2:8``, or from an int ``N`` meaning
  ``local:N``.  Host names beginning with ``local`` (``local``,
  ``localhost``, ``local0`` ...) launch via subprocess; anything else
  launches via SSH.  A host named twice is an error: its budgets and health
  accounting would split.
* :class:`HostState` — the health accounting shared by every slot of one
  host, and the backend's one crash-loop detector: a host whose workers die
  more than ``retries`` times in a row with no completed job in between is
  **quarantined**.  Its next completed job clears the quarantine.

A remote host needs ``python3`` (or ``remote_python`` / ``HostSpec.python``)
with ``repro`` and numpy importable, and non-interactive shells that print
nothing on stdout — the same rule as for rsync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union


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
    python:
        Interpreter to start workers with on this host (default: the
        backend's ``python`` locally, ``python3`` over SSH).
    env:
        Extra environment variables for this host's workers (fault
        injection in tests, per-host tuning in deployments).
    """

    name: str
    workers: int = 1
    python: Optional[str] = None
    env: Optional[Dict[str, str]] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"host {self.name!r} needs a worker budget >= 1")

    @property
    def is_local(self) -> bool:
        """Whether workers launch as local subprocesses (no SSH)."""
        return self.name == "127.0.0.1" or self.name.startswith("local")


#: What :func:`parse_hosts` accepts: ``"host1:4,host2:8"``, a sequence of
#: ``name[:workers]`` strings or :class:`HostSpec` objects, or an int ``N``
#: meaning ``local:N``.
Hosts = Union[int, str, Sequence[Union[str, HostSpec]]]


def parse_hosts(raw: Hosts) -> List[HostSpec]:
    """Parse the CLI host syntax ``host1:4,host2:8`` into :class:`HostSpec`\\ s.

    Accepts a comma-separated string, a sequence of ``name[:workers]``
    strings or ready-made :class:`HostSpec` objects (passed through), or an
    int ``N``, which is the host ``local`` with a budget of ``N``.  A bare
    name gets a budget of one worker; a name given twice is rejected.
    """
    if isinstance(raw, int):
        return [HostSpec("local", workers=raw)]
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
    """Runtime health accounting of one host, shared by all its slots.

    ``consecutive_deaths`` counts worker deaths (failed launches included)
    since the host last completed a job.  Past ``retries`` of them the host
    is quarantined; its next completed job resets the count and so clears
    the quarantine.
    """

    def __init__(self, spec: HostSpec, retries: int) -> None:
        self.spec = spec
        self.retries = retries
        self.consecutive_deaths = 0
        self.completed = 0
        self.spawns = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def budget(self) -> int:
        return self.spec.workers

    @property
    def quarantined(self) -> bool:
        return self.consecutive_deaths > self.retries

    def record_death(self) -> bool:
        """Count one worker death; ``True`` when this newly quarantines."""
        self.consecutive_deaths += 1
        return self.consecutive_deaths == self.retries + 1

    def record_success(self) -> None:
        self.consecutive_deaths = 0
        self.completed += 1

    def snapshot(self) -> Dict[str, object]:
        """The accounting as plain data (the service's ``stats`` frame)."""
        return {
            "budget": self.budget,
            "spawns": self.spawns,
            "completed": self.completed,
            "consecutive_deaths": self.consecutive_deaths,
            "quarantined": self.quarantined,
        }
