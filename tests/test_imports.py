"""Import cost and the lazy public surface of the ``repro`` packages.

Every package re-exports its public names lazily (PEP 562), so a process
imports only the layers its command runs.  The import budgets run each
process in a fresh ``python -X importtime`` interpreter and read the modules
it loaded; the surface tests check that laziness changed nothing a caller
can see.
"""

import importlib
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.arch",
    "repro.core",
    "repro.exp",
    "repro.runtime",
    "repro.serve",
    "repro.sim",
    "repro.trace",
    "repro.workloads",
]

#: Exported values that carry no ``__module__``, by package: name -> module
#: that defines it.
CONSTANT_OWNERS = {
    "repro": {"__version__": "repro"},
    "repro.exp": {"BACKEND_NAMES": "repro.exp", "CACHE_DIR_ENV": "repro.exp.store"},
    "repro.serve": {"AGING_TICKS": "repro.serve.queue"},
    "repro.workloads": {
        "SENSITIVITY_SUBSET": "repro.workloads",
        "KERNEL_NAMES": "repro.workloads.registry",
        "APPLICATION_NAMES": "repro.workloads.registry",
        "PARSEC_NAMES": "repro.workloads.registry",
    },
}


def run_importtime(args, timeout=120):
    """Run ``python -X importtime ARGS``; returns (process, imported modules)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in ("REPRO_CACHE_DIR", "REPRO_TRACE_CACHE", "REPRO_PROFILE"):
        env.pop(name, None)
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    }
    return completed, modules


def loaded(modules, roots):
    """The modules under any of ``roots`` (a root itself included)."""
    return sorted(
        name for name in modules
        if any(name == root or name.startswith(root + ".") for root in roots)
    )


@pytest.fixture
def closed_port():
    """A loopback port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestImportBudgets:
    @pytest.mark.parametrize("args", [
        ["-c", "import repro"],
        ["-c", "import repro.cli"],
        ["-m", "repro", "--help"],
    ], ids=["import-repro", "import-cli", "help"])
    def test_startup_loads_no_numpy_asyncio_or_futures(self, args):
        completed, modules = run_importtime(args)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "repro" in modules
        assert loaded(modules, ("numpy", "asyncio", "concurrent.futures")) == []

    def test_serial_grid_loads_no_transport_or_service(self, tmp_path):
        completed, modules = run_importtime([
            "-m", "repro", "grid", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", "--backend", "serial", "--cache-dir", str(tmp_path),
        ])
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.startswith("Accuracy grid: periodic")
        assert "repro.exp.runner" in modules  # the probe sees what ran
        assert loaded(modules, (
            "asyncio", "multiprocessing", "repro.serve", "repro.exp.distributed",
            "repro.exp.hosts", "repro.exp.worker", "repro.exp.protocol",
        )) == []

    def test_grid_loads_no_numpy_ma(self, tmp_path):
        # Plain ``np.unique`` imports numpy.ma, which costs every cold grid
        # process start-up time and resident memory; histogram and canneal
        # write shared data, so their plans record written lines.
        completed, modules = run_importtime([
            "-m", "repro", "grid", "--benchmarks", "histogram,canneal",
            "--threads", "4", "--scale", "0.004", "--backend", "serial",
            "--cache-dir", str(tmp_path),
        ])
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "repro.arch.batch" in modules  # the probe sees what ran
        assert loaded(modules, ("numpy.ma",)) == []

    @pytest.mark.parametrize("command", [
        ["status"], ["status", "job"], ["status", "--stats"],
        ["watch", "job"], ["cancel", "job"],
    ], ids=["status", "status-job", "stats", "watch", "cancel"])
    def test_client_commands_load_no_numpy(self, command, closed_port):
        completed, modules = run_importtime([
            "-m", "repro", *command,
            "--connect", f"127.0.0.1:{closed_port}", "--timeout", "10",
        ])
        assert completed.returncode == 2
        assert "error: " in completed.stderr
        assert "repro.serve.client" in modules
        assert loaded(modules, ("numpy",)) == []

    def test_job_list_loads_no_numpy(self):
        # `repro status` without a job id renders a table; a stub daemon
        # answers its one service_status frame.
        from repro.exp import protocol

        requests = []
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            server.settimeout(60.0)

            def answer():
                connection, _ = server.accept()
                with connection, connection.makefile("rwb") as stream:
                    requests.append(protocol.read_frame(stream))
                    protocol.write_frame(stream, {"type": "service_status", "jobs": [{
                        "job": "job-1", "tenant": "ci", "status": "done",
                        "counts": {"done": 2}, "total": 2, "cached": 1,
                    }]})

            daemon = threading.Thread(target=answer, daemon=True)
            daemon.start()
            completed, modules = run_importtime([
                "-m", "repro", "status",
                "--connect", f"127.0.0.1:{server.getsockname()[1]}",
                "--timeout", "10",
            ])
            daemon.join(timeout=10.0)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert requests == [{"type": "status"}]
        assert "job-1  ci      done    2/2   1" in completed.stdout
        assert "repro.analysis.reporting" in modules
        assert loaded(modules, ("numpy",)) == []

    def test_worker_loads_no_asyncio_or_service(self):
        completed, modules = run_importtime(["-c", "import repro.exp.worker"])
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert loaded(modules, ("asyncio", "repro.serve")) == []


class TestLazySurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        constants = CONSTANT_OWNERS.get(package, {})
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            owner = constants.get(name) or value.__module__
            assert getattr(importlib.import_module(owner), name) is value, name
            assert name in listed, name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_every_export(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_from_package_import_submodule_still_imports_it(self):
        completed, _ = run_importtime(["-c", (
            "import sys\n"
            "from repro.exp import protocol\n"
            "assert protocol is sys.modules['repro.exp.protocol']\n"
            "assert 'repro.exp.distributed' not in sys.modules\n"
        )])
        assert completed.returncode == 0, completed.stderr[-2000:]

    @pytest.mark.parametrize("old_home,new_home,name", [
        ("repro.core.stratified", "repro.core.config", "StratifiedConfig"),
        ("repro.core.fidelity", "repro.core.config", "FidelityConfig"),
        ("repro.exp.distributed", "repro.exp.backends", "parse_batch"),
        ("repro.exp.distributed", "repro.exp.backends", "DEFAULT_BATCH_CAP"),
        ("repro.exp.backends", "repro.exp", "BACKEND_NAMES"),
        ("repro.workloads.registry", "repro.workloads", "SENSITIVITY_SUBSET"),
    ])
    def test_moved_names_stay_importable_from_their_old_home(
        self, old_home, new_home, name
    ):
        old = getattr(importlib.import_module(old_home), name)
        assert old is getattr(importlib.import_module(new_home), name)
