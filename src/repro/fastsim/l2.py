"""Array-state unified L2 for the fast backends.

:class:`FastL2` is :class:`~repro.cache.hierarchy.L2Cache` behind the
:class:`~repro.cache.hierarchy.MemoryHierarchy` surface
(``fetch_block`` / ``store_block`` / ``absorb_writeback``), restated
over plain per-set lists the way :mod:`repro.fastsim.missrate` restates
the L1 array: the same hits, fills, victims, dirty writebacks and
latencies, counted into the same :class:`~repro.cache.stats.CacheStats`
fields, without the cache/set/block object tower per access.

* LRU (and any direct-mapped L2): each set is one list of resident
  block addresses in MRU-first order; the tail is the victim.
* Any other replacement: way-indexed slot lists driven by the *real*
  :mod:`repro.cache.replacement` objects, so victim choice — the
  ``random`` RNG stream included — is the reference's by construction.

Per-set state is created on a set's first access, like the reference's
lazily built large arrays: a run touches a fraction of a 4096-set L2.

Dirty state is one set of block addresses: a block is dirty from the
write that marks it until its eviction.  Store misses and L1
writebacks count identically (write-allocate, no load-path latency for
the writeback), so both go through :meth:`FastL2._write`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import MainMemory
from repro.cache.replacement import make_replacement
from repro.cache.stats import CacheStats
from repro.utils.bitops import bit_mask


class FastL2:
    """Unified L2 plus main memory for the array-state L1 engines."""

    def __init__(
        self,
        geometry: CacheGeometry,
        latency: int = 12,
        memory: Optional[MainMemory] = None,
        replacement: str = "lru",
    ) -> None:
        memory = memory if memory is not None else MainMemory()
        self.latency = latency
        self.miss_latency = latency + memory.access_latency(geometry.block_bytes)
        self.stats = CacheStats()
        self._offset_bits = geometry.fields.offset_bits
        self._set_mask = bit_mask(geometry.fields.index_bits)
        self._assoc = geometry.associativity
        # Unknown replacement names raise at build, like the reference.
        make_replacement(replacement, geometry.associativity)
        self._dirty = set()
        # ``_lookup`` picks the kernel from this state on each access; a
        # stored bound method would be a self-reference cycle, leaving
        # each finished run's L2 to the cycle collector (peak RSS).
        assoc = geometry.associativity
        if replacement == "lru" or assoc == 1:
            self._orders = defaultdict(list)
        else:
            self._orders = None
            self._sets = defaultdict(
                lambda: ([-1] * assoc, make_replacement(replacement, assoc))
            )

    # ------------------------------------------------------------------ #
    # MemoryHierarchy surface
    # ------------------------------------------------------------------ #

    def fetch_block(self, addr: int) -> int:
        """Fetch a block for an L1 miss; returns added latency in cycles."""
        stats = self.stats
        stats.loads += 1
        stats.tag_probes += 1
        if self._lookup(addr >> self._offset_bits):
            stats.load_hits += 1
            stats.data_way_reads += 1
            return self.latency
        stats.data_way_writes += 1
        return self.miss_latency

    def store_block(self, addr: int) -> int:
        """Handle an L1 store miss (write-allocate): fetch for ownership."""
        return self.latency if self._write(addr) else self.miss_latency

    def absorb_writeback(self, addr: int) -> None:
        """Accept a dirty L1 victim (energy-only event)."""
        self._write(addr)

    # ------------------------------------------------------------------ #

    def _write(self, addr: int) -> bool:
        """A write-allocating store of ``addr``'s block; True on a hit."""
        block = addr >> self._offset_bits
        stats = self.stats
        stats.stores += 1
        stats.tag_probes += 1
        stats.data_way_writes += 1
        hit = self._lookup(block)
        if hit:
            stats.store_hits += 1
        self._dirty.add(block)
        return hit

    def _evict(self, victim: int) -> None:
        stats = self.stats
        stats.evictions += 1
        if victim in self._dirty:
            self._dirty.remove(victim)
            stats.writebacks += 1

    def _lookup(self, block: int) -> bool:
        """Reference ``block`` in its set, filling on a miss; True on a
        hit.  LRU runs here over the MRU-first list."""
        orders = self._orders
        if orders is None:
            return self._generic(block)
        order = orders[block & self._set_mask]
        if order and order[0] == block:
            return True  # already MRU: nothing moves
        try:
            order.remove(block)
        except ValueError:
            self.stats.fills += 1
            if len(order) >= self._assoc:
                self._evict(order.pop())
            order.insert(0, block)
            return False
        order.insert(0, block)
        return True

    def _generic(self, block: int) -> bool:
        """Way slots + the real replacement object; fill on a miss.

        Mirrors :class:`~repro.cache.cacheset.CacheSet`: lookup is
        first-matching-way, fills prefer the lowest invalid way, and
        only a full set consults the policy's ``victim()``.
        """
        ways, policy = self._sets[block & self._set_mask]
        try:
            way = ways.index(block)
        except ValueError:
            self.stats.fills += 1
            try:
                way = ways.index(-1)  # lowest invalid way first
            except ValueError:
                way = policy.victim()
                self._evict(ways[way])
            ways[way] = block
            policy.fill(way)
            return False
        policy.touch(way)
        return True
