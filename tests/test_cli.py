"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _resolve_sampling_args, _sampling_config, build_parser, main
from repro.core.config import TaskPointConfig
from repro.core.fidelity import FidelityConfig


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_simulate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "cholesky"])
        assert args.benchmark == "cholesky"
        assert args.threads == 8
        assert args.mode == "sampled"
        # Sampling flags parse to None sentinels; the resolution step picks
        # the engine, and the engine's config supplies the defaults.
        assert args.policy is None
        assert args.period is None
        _resolve_sampling_args(parser, args)
        assert args.policy == "periodic"
        config = _sampling_config(args)
        assert type(config) is TaskPointConfig
        assert config.sampling_period == 250
        assert config.warmup_instances == 2
        assert config.history_size == 4

    def test_compare_lazy_policy(self):
        args = build_parser().parse_args(
            ["compare", "dedup", "--policy", "lazy", "--threads", "4"]
        )
        assert args.policy == "lazy"
        assert args.threads == 4

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSamplingFlagValidation:
    """Satellite: sampling flags are validated at argparse time."""

    def _expect_usage_error(self, argv, capsys, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1.5", "-0.1", "abc"])
    def test_budget_out_of_range_rejected(self, value, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "stratified", "--budget", value],
            capsys, "--budget",
        )

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
    def test_error_budget_out_of_range_rejected(self, value, capsys):
        # Unlike --budget, --error-budget excludes 1: a 100% error budget
        # is meaningless.
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "fidelity",
             "--error-budget", value],
            capsys, "--error-budget",
        )

    @pytest.mark.parametrize("flag,value", [
        ("--period", "0"), ("--warmup", "-1"), ("--history", "0"),
        ("--jobs", "0"),
    ])
    def test_integer_flags_below_minimum_rejected(self, flag, value, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", flag, value], capsys, flag,
        )

    def test_period_rejected_for_lazy_policy(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--policy", "lazy", "--period", "100"],
            capsys, "--period",
        )

    def test_error_budget_rejected_for_periodic_policy(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--error-budget", "0.02"],
            capsys, "--error-budget",
        )

    def test_period_rejected_for_fidelity_mode(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "fidelity", "--period", "50"],
            capsys, "--period",
        )

    def test_warmup_rejected_for_stratified_mode(self, capsys):
        self._expect_usage_error(
            ["grid", "--benchmarks", "swaptions", "--mode", "stratified",
             "--warmup", "2"],
            capsys, "--warmup",
        )

    def test_sampling_flags_rejected_for_detailed_mode(self, capsys):
        self._expect_usage_error(
            ["simulate", "cholesky", "--mode", "detailed", "--period", "100"],
            capsys, "--period",
        )

    def test_conflicting_mode_and_policy_rejected(self, capsys):
        # simulate has distinct --mode and --policy flags; contradictory
        # engines are a usage error.  (On compare/grid --mode is an alias
        # of --policy, so the last spelling simply wins.)
        self._expect_usage_error(
            ["simulate", "cholesky", "--mode", "fidelity",
             "--policy", "periodic"],
            capsys, "--policy",
        )

    def test_fidelity_mode_resolves_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "swaptions", "--mode", "fidelity"])
        _resolve_sampling_args(parser, args)
        assert args.policy == "fidelity"
        config = _sampling_config(args)
        assert type(config) is FidelityConfig
        assert config.error_budget == pytest.approx(0.02)
        assert config.warmup_instances == 2

    def test_explicit_error_budget_survives_resolution(self):
        parser = build_parser()
        args = parser.parse_args(
            ["compare", "swaptions", "--mode", "fidelity",
             "--error-budget", "0.05"]
        )
        _resolve_sampling_args(parser, args)
        assert _sampling_config(args).error_budget == pytest.approx(0.05)


class TestCommands:
    def test_list_prints_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "cholesky" in output
        assert "freqmine" in output
        assert output.count("\n") >= 20

    def test_compare_runs_small_experiment(self, capsys):
        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "execution-time error" in output
        assert "simulation speedup" in output

    def test_simulate_detailed_mode(self, capsys):
        code = main([
            "simulate", "vector-operation", "--scale", "0.004", "--threads", "2",
            "--mode", "detailed",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "total_cycles" in output

    def test_simulate_sampled_low_power(self, capsys):
        code = main([
            "simulate", "histogram", "--scale", "0.004", "--threads", "2",
            "--architecture", "low-power",
        ])
        assert code == 0
        assert "benchmark" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,engine_lines", [
        pytest.param(["--mode", "stratified"], [], id="stratified"),
        pytest.param(["--mode", "fidelity", "--error-budget", "0.05"],
                     ["error budget", "committed types"], id="fidelity"),
    ])
    def test_simulate_engine_mode(self, capsys, flags, engine_lines):
        code = main([
            "simulate", "histogram", "--scale", "0.004", "--threads", "2",
            *flags,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "ci95 halfwidth" in output
        assert "ci95 cycles" in output
        for line in engine_lines:
            assert line in output

    def test_compare_fidelity_mode(self, capsys):
        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--mode", "fidelity", "--error-budget", "0.05",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "execution-time error" in output

    def test_variation_command(self, capsys):
        code = main(["variation", "swaptions", "--scale", "0.004", "--threads", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "within +/-5%" in output
        assert "simulate_swaption" in output

    def test_unknown_benchmark_exit_code(self, capsys):
        assert main(["compare", "not-a-benchmark", "--scale", "0.01"]) == 2
        assert "error" in capsys.readouterr().err

    def test_entry_point_freezes_the_heap_and_returns_the_exit_code(self):
        # In a child process: freezing here would pin every object of the
        # test process for the rest of the session.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        script = (
            "import gc, sys\n"
            "from repro.__main__ import run\n"
            "sys.argv = ['repro', 'compare', 'not-a-benchmark']\n"
            "code = run()\n"
            "print(code, gc.get_freeze_count() > 0)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert completed.stdout.splitlines()[-1] == "2 True", completed.stderr
        # The installed `repro` script runs the same function.
        setup = (root / "setup.py").read_text()
        assert '"repro = repro.__main__:run"' in setup

    @pytest.mark.parametrize("backend", [
        ["--backend", "serial"], ["--hosts", "local0:1"],
    ], ids=["serial", "multihost"])
    def test_jobs_requires_a_backend_that_uses_it(self, backend, capsys):
        # --jobs under a backend that takes no worker count is rejected
        # instead of being silently ignored.
        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy", "--jobs", "4", *backend,
        ])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,engine", [
        pytest.param(["--policy", "periodic"], "periodic P=250, W=2, H=4",
                     id="periodic"),
        pytest.param(["--policy", "lazy"], "lazy W=2, H=4", id="lazy"),
        # The stratified engine takes a detail budget; it has no history and
        # its own warm-up, so the title shows neither W nor H.
        pytest.param(["--policy", "stratified"], "stratified budget=0.02",
                     id="stratified"),
        pytest.param(["--policy", "fidelity"], "fidelity error-budget=0.02, W=2",
                     id="fidelity"),
        pytest.param(["--policy", "periodic", "--period", "100", "--warmup", "3",
                      "--history", "5"], "periodic P=100, W=3, H=5",
                     id="periodic-explicit"),
        pytest.param(["--policy", "lazy", "--warmup", "0", "--history", "1"],
                     "lazy W=0, H=1", id="lazy-explicit"),
        pytest.param(["--mode", "stratified", "--budget", "0.5"],
                     "stratified budget=0.5", id="stratified-explicit"),
        pytest.param(["--mode", "fidelity", "--warmup", "3",
                      "--error-budget", "0.05"],
                     "fidelity error-budget=0.05, W=3", id="fidelity-explicit"),
    ])
    def test_grid_title_names_only_the_engine_parameters(self, capsys, flags,
                                                         engine):
        code = main([
            "grid", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", *flags,
        ])
        assert code == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title == (
            f"Accuracy grid: {engine}, "
            "high-performance architecture, scale=0.004"
        )

    def test_grid_profile_flag_dumps_stats(self, tmp_path, capsys):
        import pstats

        profile_path = tmp_path / "grid.prof"
        code = main([
            "grid", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", "--profile", str(profile_path),
        ])
        assert code == 0
        assert profile_path.exists()
        stats = pstats.Stats(str(profile_path))
        # The dump covers the simulation phase: engine internals must appear.
        assert any("engine" in str(func[0]) for func in stats.stats)

    def test_sweep_profile_env_dumps_stats(self, tmp_path, monkeypatch, capsys):
        profile_path = tmp_path / "sweep.prof"
        monkeypatch.setenv("REPRO_PROFILE", str(profile_path))
        code = main([
            "sweep", "W", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", "--values", "1",
        ])
        assert code == 0
        assert profile_path.exists() and profile_path.stat().st_size > 0
