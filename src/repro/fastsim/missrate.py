"""Batched functional miss-rate replay (the fast Table-4 path).

:func:`fast_miss_rate` computes exactly what
:func:`repro.sim.functional.measure_miss_rate` computes — same warmup
gating, same replacement behaviour, same ticks, same counts — but over
a pre-encoded flat address stream with per-set state held in plain
Python lists, so the per-access cost is a couple of C-level list
operations instead of a tower of cache/set/block/replacement objects.

The per-set state (:class:`_SetState`) owns one kernel per replacement
family and replays any range ``[start, end)``, counting every position
it replays:

* Direct-mapped: one resident block per set in a flat list.
* LRU (the paper's default and the hot path): each set is one list of
  resident block addresses in MRU-first order.  An MRU short-circuit
  skips all list surgery for the most common access — a repeat of the
  set's most recent block — and everything else falls out of
  ``list.remove`` + ``insert``.  (Index-slot recency arrays with
  per-way stamps were measured here and lost: at the paper's 4-way
  associativity the C-level scan of a tiny list beats per-access stamp
  bookkeeping and argmin scans in pure Python.)
* Any other registered replacement (``fifo``/``random``/``plru``):
  way-indexed slot lists driven by the *real*
  :mod:`repro.cache.replacement` policy objects, so victim choice —
  including the deterministic RNG stream of ``random`` — is identical
  to the reference by construction.

One driver cuts the stream at the warmup point and, when an
:class:`~repro.core.interval.IntervalTicker` is present, at every tick
boundary.  A static run is the no-tick case: ``replay(0, warmup)``
with its counts discarded, then ``replay(warmup, n)``.

A third tier vectorizes the same computation with numpy when available
(:mod:`repro.fastsim.vector`); this module stays dependency-free and is
its per-policy fallback.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import make_replacement
from repro.core.interval import ticker_for
from repro.sim.functional import MissRateResult, check_replay_args
from repro.utils.bitops import bit_mask
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.trace import Trace


def fast_miss_rate(
    trace: Union[Trace, EncodedTrace],
    geometry: CacheGeometry,
    replacement: str = "lru",
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Batched equivalent of :func:`~repro.sim.functional.measure_miss_rate`.

    Ticks when ``interval > 0`` and a ``policy_factory`` is given.  Per-set
    state persists across a tick unless the tick reconfigures; then it
    rebuilds cold, matching the reference's invalidate-all flush.
    Bypassed ranges never touch cache state: every access is a miss
    served by the next level, exactly the reference semantics.
    """
    check_replay_args(warmup_fraction, interval)
    ticker = ticker_for(interval, policy_factory, geometry)
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    n = len(encoded)
    warmup = int(n * warmup_fraction)
    is_load = encoded.is_load
    state = _SetState(encoded.blocks(geometry.fields), is_load, geometry, replacement)
    next_tick = interval if ticker is not None else n
    bypassed = False
    bypassed_accesses = 0
    # Cumulative over every position; ``warm`` is their value at warmup.
    misses = loads = load_misses = 0
    warm = (0, 0, 0)
    start = 0
    while start < n:
        end = min(next_tick, n)
        if start < warmup < end:
            end = warmup
        if bypassed:
            range_loads = is_load[start:end].count(1)
            range_misses, range_load_misses = end - start, range_loads
            bypassed_accesses += end - start
        else:
            range_misses, range_loads, range_load_misses = state.replay(start, end)
        misses += range_misses
        loads += range_loads
        load_misses += range_load_misses
        start = end
        if start == warmup:
            warm = (misses, loads, load_misses)
        if start == next_tick and start < n:
            action = ticker.tick(start, start, loads, misses)
            next_tick += interval
            if action is not None:
                if action.geometry is not None:
                    state.rebuild(action.geometry)
                if action.bypass is not None:
                    bypassed = action.bypass
    counts = (n - warmup, misses - warm[0], loads - warm[1], load_misses - warm[2])
    return MissRateResult.of(counts, ticker, bypassed_accesses)


class _SetState:
    """Per-set replay state plus the kernel that advances it.

    Holds a resident list (direct-mapped), MRU-first lists (LRU), or
    way slots plus real replacement objects (everything else), keyed
    off the *current* geometry so a reconfiguration can rebuild them
    fresh (invalidate-all, exactly like the reference array's
    :meth:`~repro.cache.sram.SetAssociativeCache.reconfigure`).  The
    block stream is decoded once: reconfiguration preserves
    ``block_bytes``, so only the set mask changes.
    """

    def __init__(self, blocks, is_load, geometry: CacheGeometry, replacement: str) -> None:
        self.blocks = blocks
        self.is_load = is_load
        self.replacement = replacement
        # Unknown replacement names must raise at build, like the
        # reference constructor, even on the direct-mapped path.
        make_replacement(replacement, geometry.associativity)
        self.rebuild(geometry)

    def rebuild(self, geometry: CacheGeometry) -> None:
        """Point the state at ``geometry`` with every set cold."""
        self.set_mask = bit_mask(geometry.fields.index_bits)
        self.assoc = geometry.associativity
        if geometry.associativity == 1:
            # Replacement policies never arbitrate one block per set,
            # so every name shares this kernel.
            self._kernel = self._direct_mapped
            self.resident = [-1] * geometry.num_sets
        elif self.replacement == "lru":
            self._kernel = self._lru
            self.orders = [[] for _ in range(geometry.num_sets)]
        else:
            self._kernel = self._generic
            self.slots = [[-1] * self.assoc for _ in range(geometry.num_sets)]
            self.policies = [
                make_replacement(self.replacement, self.assoc)
                for _ in range(geometry.num_sets)
            ]

    def replay(self, start: int, end: int) -> Tuple[int, int, int]:
        """Replay positions ``[start, end)``; return their
        ``(misses, loads, load_misses)``."""
        is_load = self.is_load[start:end]
        misses, load_misses = self._kernel(self.blocks[start:end], is_load)
        return misses, is_load.count(1), load_misses

    def _direct_mapped(self, blocks, is_load) -> Tuple[int, int]:
        set_mask, resident = self.set_mask, self.resident
        misses = load_misses = 0
        for block, load in zip(blocks, is_load):
            index = block & set_mask
            if resident[index] != block:
                resident[index] = block
                misses += 1
                load_misses += load
        return misses, load_misses

    def _lru(self, blocks, is_load) -> Tuple[int, int]:
        """MRU-first block lists: residency and recency in one structure.

        The hot-path trick is the MRU short-circuit: most accesses
        repeat the set's most recent block (spatial runs through a
        cache line), and for those the list is already in order — no
        remove/insert at all.
        """
        set_mask, orders, assoc = self.set_mask, self.orders, self.assoc
        misses = load_misses = 0
        for block, load in zip(blocks, is_load):
            order = orders[block & set_mask]
            if order and order[0] == block:
                continue  # already MRU: nothing moves
            try:
                order.remove(block)  # hit: re-insert at MRU below
            except ValueError:
                misses += 1
                load_misses += load
                if len(order) >= assoc:
                    order.pop()  # evict the LRU tail
            order.insert(0, block)
        return misses, load_misses

    def _generic(self, blocks, is_load) -> Tuple[int, int]:
        """Way-indexed slots + the real replacement policy objects.

        Mirrors :class:`~repro.cache.cacheset.CacheSet` exactly: lookup
        is first-matching-way, fills prefer the lowest invalid way, and
        only a full set consults the policy's ``victim()``.
        """
        set_mask, slots, policies = self.set_mask, self.slots, self.policies
        misses = load_misses = 0
        for block, load in zip(blocks, is_load):
            index = block & set_mask
            ways = slots[index]
            policy = policies[index]
            try:
                way = ways.index(block)
            except ValueError:
                try:
                    way = ways.index(-1)  # lowest invalid way first
                except ValueError:
                    way = policy.victim()
                ways[way] = block
                policy.fill(way)
                misses += 1
                load_misses += load
            else:
                policy.touch(way)
        return misses, load_misses
