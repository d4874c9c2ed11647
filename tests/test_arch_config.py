"""Unit tests for architecture configurations (Table II presets)."""

from dataclasses import replace

import pytest

from repro.arch.config import (
    ArchitectureConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    high_performance_config,
    low_power_config,
)


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=32 * 1024, associativity=8, latency_cycles=4)
        assert config.num_sets == 64

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=1, latency_cycles=1)

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=1, latency_cycles=1, line_bytes=48)

    def test_size_must_be_multiple_of_way_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=4, latency_cycles=1)


class TestCoreConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=0, issue_width=4, commit_width=4)
        with pytest.raises(ValueError):
            CoreConfig(rob_size=64, issue_width=0, commit_width=4)
        with pytest.raises(ValueError):
            CoreConfig(rob_size=64, issue_width=4, commit_width=4, frequency_ghz=0)


class TestMemoryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(dram_bandwidth_lines_per_cycle=0)
        with pytest.raises(ValueError):
            MemoryConfig(dram_latency_cycles=-1)


class TestTable2Presets:
    def test_high_performance_matches_table2(self):
        config = high_performance_config()
        assert config.core.rob_size == 168
        assert config.core.issue_width == 4
        assert config.core.commit_width == 4
        assert config.l1.size_bytes == 32 * 1024
        assert config.l1.associativity == 8
        assert config.l1.latency_cycles == 4
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.associativity == 8
        assert config.l2.latency_cycles == 11
        assert config.l2.shared is False
        assert config.l3 is not None
        assert config.l3.size_bytes == 20 * 1024 * 1024
        assert config.l3.associativity == 20
        assert config.l3.latency_cycles == 28
        assert config.l3.shared is True
        assert config.cache_levels == 3

    def test_low_power_matches_table2(self):
        config = low_power_config()
        assert config.core.rob_size == 40
        assert config.core.issue_width == 3
        assert config.core.commit_width == 3
        assert config.l1.associativity == 2
        assert config.l2.size_bytes == 1024 * 1024
        assert config.l2.associativity == 16
        assert config.l2.latency_cycles == 21
        assert config.l2.shared is True
        assert config.l3 is None
        assert config.cache_levels == 2
        assert config.last_level is config.l2

    def test_with_core_returns_modified_copy(self):
        base = high_performance_config()
        modified = base.with_core(rob_size=256)
        assert modified.core.rob_size == 256
        assert base.core.rob_size == 168
        assert modified.l1 == base.l1

    def test_line_size_consistency_enforced(self):
        good = high_performance_config()
        with pytest.raises(ValueError):
            ArchitectureConfig(
                name="bad",
                core=good.core,
                l1=CacheConfig(size_bytes=32 * 1024, associativity=8, latency_cycles=4,
                               line_bytes=64),
                l2=CacheConfig(size_bytes=1024 * 1024, associativity=8, latency_cycles=10,
                               line_bytes=128),
            )

    @pytest.mark.parametrize(
        "shared",
        [(True, False, True), (True, True, True), (False, True, False)],
        ids=["shared-l1", "all-shared", "private-after-shared"],
    )
    def test_hierarchy_order_enforced(self, shared):
        # Each shape would be walked out of its described order, or charged
        # for the interconnect differently by the batched walk and the
        # per-record oracle (every level shared).
        good = high_performance_config()
        l1, l2, l3 = (
            replace(level, shared=flag)
            for level, flag in zip((good.l1, good.l2, good.l3), shared)
        )
        with pytest.raises(ValueError, match="L1 must be private"):
            ArchitectureConfig(name="bad", core=good.core, l1=l1, l2=l2, l3=l3)
