"""L2 cache and memory hierarchy tests."""

import dataclasses
import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache, MainMemory, MemoryHierarchy
from repro.fastsim.l2 import FastL2


class TestMainMemory:
    def test_latency_formula(self):
        memory = MainMemory(base_latency=80, cycles_per_chunk=4, chunk_bytes=8)
        # Paper: 80 cycles + 4 per 8 bytes; a 32B block = 80 + 16.
        assert memory.access_latency(32) == 96

    def test_partial_chunk_rounds_up(self):
        memory = MainMemory(base_latency=80, cycles_per_chunk=4, chunk_bytes=8)
        assert memory.access_latency(9) == 80 + 8


class TestL2Cache:
    def setup_method(self):
        self.l2 = L2Cache(CacheGeometry(4096, 8, 32), latency=12)

    def test_miss_goes_to_memory(self):
        result = self.l2.access(0x1000)
        assert not result.hit
        assert result.latency == 12 + 96

    def test_hit_latency(self):
        self.l2.access(0x1000)
        result = self.l2.access(0x1000)
        assert result.hit
        assert result.latency == 12

    def test_store_marks_dirty(self):
        self.l2.access(0x1000, is_store=True)
        assert self.l2.array.block_at(0x1000).dirty

    def test_writeback_installs(self):
        self.l2.writeback(0x2000)
        assert self.l2.array.contains(0x2000)
        assert self.l2.array.block_at(0x2000).dirty

    def test_stats_tracked(self):
        self.l2.access(0x1000)
        self.l2.access(0x1000)
        assert self.l2.stats.loads == 2
        assert self.l2.stats.load_hits == 1


class TestMemoryHierarchy:
    def test_fetch_and_store_paths(self):
        hierarchy = MemoryHierarchy(L2Cache(CacheGeometry(4096, 8, 32), latency=12))
        assert hierarchy.fetch_block(0x100) == 108
        assert hierarchy.fetch_block(0x100) == 12  # now L2-resident
        assert hierarchy.store_block(0x100) == 12

    def test_writeback_absorbed(self):
        hierarchy = MemoryHierarchy(L2Cache(CacheGeometry(4096, 8, 32)))
        hierarchy.absorb_writeback(0x300)
        assert hierarchy.l2.array.contains(0x300)


class TestFastL2:
    """The array-state L2 answers and counts exactly like ``L2Cache``."""

    @pytest.mark.parametrize("replacement", ["lru", "plru", "fifo", "random"])
    @pytest.mark.parametrize("size, ways", [(1024, 1), (2048, 2), (4096, 8)])
    def test_random_stream_matches_reference(self, size, ways, replacement):
        geometry = CacheGeometry(size, ways, 32)
        memory = MainMemory(base_latency=40)
        reference = MemoryHierarchy(L2Cache(geometry, 7, memory, replacement))
        fast = FastL2(geometry, 7, memory, replacement)
        rng = random.Random(f"{size}-{ways}-{replacement}")
        # Four times the L2's blocks: hits, conflicts and dirty victims.
        blocks = 4 * size // 32
        for _ in range(3000):
            addr = rng.randrange(blocks) * 32 + rng.randrange(32)
            op = rng.choice(("fetch_block", "fetch_block", "store_block", "absorb_writeback"))
            assert getattr(fast, op)(addr) == getattr(reference, op)(addr)
        expected = dataclasses.asdict(reference.l2.stats)
        assert dataclasses.asdict(fast.stats) == expected
        assert expected["writebacks"] > 0 and expected["load_hits"] > 0

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            FastL2(CacheGeometry(4096, 1, 32), replacement="bogus")
