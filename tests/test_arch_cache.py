"""Unit tests for the set-associative cache model."""

from repro.arch.cache import Cache
from repro.arch.config import CacheConfig


def make_cache(size=4 * 1024, ways=4, line=64):
    return Cache(CacheConfig(size_bytes=size, associativity=ways, latency_cycles=2,
                             line_bytes=line), name="L1")


class TestBasicBehaviour:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F) is True

    def test_different_lines_miss(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1040) is False

    def test_probe_does_not_change_state(self):
        cache = make_cache()
        assert cache.probe(0x2000) is False
        cache.access(0x2000)
        hits_before = cache.stats.hits
        assert cache.probe(0x2000) is True
        assert cache.stats.hits == hits_before

    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(0x1035) == 0x1000


class TestReplacement:
    def test_lru_eviction(self):
        cache = make_cache(size=4 * 64, ways=4, line=64)  # one set, 4 ways
        lines = [i * 64 for i in range(4)]
        for address in lines:
            cache.access(address)
        # Touch line 0 so line 1 becomes LRU, then insert a new line.
        cache.access(lines[0])
        cache.access(5 * 64)
        assert cache.probe(lines[0]) is True
        assert cache.probe(lines[1]) is False
        assert cache.stats.evictions == 1

    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size=2 * 64, ways=2, line=64)
        cache.access(0, is_write=True)
        cache.access(64)
        cache.access(128)  # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_capacity_never_exceeded(self):
        cache = make_cache(size=1024, ways=4)
        for i in range(1000):
            cache.access(i * 64)
        assert cache.occupancy() <= 1.0

    def test_row_maps_tags_to_dirty_bits_in_lru_order(self):
        cache = make_cache()  # 16 sets: lines 3, 19 and 35 share set 3
        read_line, written_line, rewritten_line = 3, 19, 35
        cache.access(rewritten_line * 64)                 # read miss
        cache.access(written_line * 64, is_write=True)    # write miss
        cache.access(read_line * 64)                      # read miss
        cache.access(rewritten_line * 64, is_write=True)  # write hit
        assert list(cache._sets[3].items()) == [(1, True), (0, False), (2, True)]


class TestInvalidation:
    def test_invalidate_present_line(self):
        cache = make_cache()
        cache.access(0x4000)
        assert cache.invalidate(0x4000) is True
        assert cache.probe(0x4000) is False
        assert cache.stats.invalidations == 1

    def test_invalidate_absent_line(self):
        cache = make_cache()
        assert cache.invalidate(0x4000) is False
        assert cache.stats.invalidations == 0

    def test_invalidate_dirty_line_writes_back(self):
        cache = make_cache()
        cache.access(0x4000, is_write=True)
        cache.invalidate(0x4000)
        assert cache.stats.writebacks == 1

    def test_flush_clears_contents_keeps_stats(self):
        cache = make_cache()
        cache.access(0x100)
        cache.flush()
        assert cache.probe(0x100) is False
        assert cache.stats.misses == 1


class TestStatistics:
    def test_hit_and_miss_rate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == 2 / 3
        assert cache.stats.miss_rate == 1 / 3

    def test_rates_zero_when_idle(self):
        cache = make_cache()
        assert cache.stats.hit_rate == 0.0
        assert cache.stats.miss_rate == 0.0

    def test_reset_statistics(self):
        cache = make_cache()
        cache.access(0)
        cache.reset_statistics()
        assert cache.stats.accesses == 0
        assert cache.probe(0) is True

    def test_snapshot_keys(self):
        cache = make_cache()
        cache.access(0)
        snapshot = cache.snapshot()
        assert snapshot["name"] == "L1"
        assert snapshot["misses"] == 1
        assert 0.0 <= snapshot["occupancy"] <= 1.0
