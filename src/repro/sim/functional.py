"""Functional (timing-free) cache simulation.

Table 4 of the paper compares raw d-cache miss rates between a
direct-mapped and a 4-way set-associative 16K cache.  That experiment —
and workload calibration — only needs hit/miss behaviour, so this module
streams a trace's memory accesses through a bare
:class:`SetAssociativeCache` with no pipeline, which is an order of
magnitude faster than the full simulator.

This is the *reference* implementation of the functional path;
:func:`repro.fastsim.missrate.fast_miss_rate` is its batched equivalent
(``backend="fast"``), proven byte-identical by the differential suite.
One loop serves static and interval runs alike: a static run is the
case with no :class:`~repro.core.interval.IntervalTicker`, so its
boundary check never fires.  Counters run over every position, warmup
included (the ticker's cumulative view); the result subtracts the
snapshot taken at the warmup point.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SetAssociativeCache
from repro.core.interval import IntervalTicker, ticker_for
from repro.workload.instr import OP_LOAD, OP_STORE
from repro.workload.trace import Trace

#: Attribute memoizing the buffered memory-op arrays on a trace.
_MEM_OPS_ATTR = "_functional_mem_ops"


def trace_mem_ops(trace: Trace) -> Tuple[array, array]:
    """The trace's memory-op streams ``(addrs, is_load)``, memoized.

    One streaming pass buffers the memory ops into compact unsigned
    arrays (9 bytes/op) instead of a materialized Instr list: the
    counts are identical, a StreamingTrace (ingested file) is parsed
    at most once, and no per-instruction objects outlive their chunk.
    The buffers memoize on the trace (like the fast backend's encoding,
    but built independently of it — the differential suite relies on
    the two paths not sharing decode state), so sweeping many
    configurations over one file-backed trace parses it once.
    """
    memo = getattr(trace, _MEM_OPS_ATTR, None)
    if memo is None:
        addrs = array("Q")
        loads = array("b")
        for instr in trace:
            if instr.op == OP_LOAD or instr.op == OP_STORE:
                addrs.append(instr.addr)
                loads.append(1 if instr.op == OP_LOAD else 0)
        memo = (addrs, loads)
        setattr(trace, _MEM_OPS_ATTR, memo)
    return memo


@dataclass(frozen=True)
class MissRateResult:
    """Miss statistics from one functional run.

    The dynamics counters describe interval-tick activity when the run
    used a dynamic policy (``interval > 0``); they stay at their zero
    defaults on every static run.  ``bypassed_accesses`` counts every
    bypassed replay position, warmup included — it is observability
    metadata, not a result counter.
    """

    accesses: int
    misses: int
    load_accesses: int
    load_misses: int
    ticks: int = 0
    reconfigurations: int = 0
    bypass_toggles: int = 0
    bypassed_accesses: int = 0
    final_size_bytes: int = 0

    @classmethod
    def of(
        cls,
        counts: Tuple[int, int, int, int],
        ticker: Optional[IntervalTicker] = None,
        bypassed_accesses: int = 0,
    ) -> "MissRateResult":
        """Package ``(accesses, misses, load_accesses, load_misses)``,
        with the dynamics counters of ``ticker`` when the run ticked."""
        if ticker is None:
            return cls(*counts)
        return cls(
            *counts,
            ticks=ticker.ticks,
            reconfigurations=ticker.reconfigurations,
            bypass_toggles=ticker.bypass_toggles,
            bypassed_accesses=bypassed_accesses,
            final_size_bytes=ticker.geometry.size_bytes,
        )

    @property
    def miss_rate(self) -> float:
        """Overall miss ratio in [0, 1]."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_rate(self) -> float:
        """Load-only miss ratio in [0, 1]."""
        return self.load_misses / self.load_accesses if self.load_accesses else 0.0


def check_replay_args(warmup_fraction: float, interval: int) -> None:
    """Reject the arguments every miss-rate tier rejects, identically."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")


def measure_miss_rate(
    trace: Trace,
    geometry: CacheGeometry,
    replacement: str = "lru",
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Stream ``trace``'s memory accesses through a cache; LRU by default.

    Args:
        warmup_fraction: fraction of the trace's memory accesses used to
            warm the cache before counting (the paper's billions of
            instructions make cold-start effects negligible; ours would
            not be without a warmup window).
        interval: tick period in memory accesses.  With a
            ``policy_factory`` the run delivers
            :class:`~repro.core.interval.IntervalStats` every
            ``interval`` accesses and applies any returned
            reconfiguration.  0 disables ticking.
        policy_factory: zero-argument callable building a fresh dynamic
            policy (each tier builds its own so speculative tiers can
            restart cleanly).  ``None`` means a static run.

    The k-th tick fires just before position ``k*interval`` is
    processed (k >= 1, strictly inside the stream) and describes the
    preceding window; see :mod:`repro.core.interval` for the full
    timing and flush semantics.  This is the behavioural contract the
    fast and vector tiers match byte-for-byte.
    """
    check_replay_args(warmup_fraction, interval)
    ticker = ticker_for(interval, policy_factory, geometry)
    addrs, loads = trace_mem_ops(trace)
    n = len(addrs)
    warmup = int(n * warmup_fraction)
    cache = SetAssociativeCache(geometry, replacement=replacement)
    next_tick = interval if ticker is not None else -1
    bypassed = False
    bypassed_accesses = 0
    # Cumulative over every position; ``warm`` is their value at warmup.
    seen_loads = misses = load_misses = 0
    warm = (0, 0, 0)
    for position in range(n):
        if position == next_tick:
            action = ticker.tick(position, position, seen_loads, misses)
            next_tick += interval
            if action is not None:
                if action.geometry is not None:
                    cache.reconfigure(action.geometry)
                if action.bypass is not None:
                    bypassed = action.bypass
        if position == warmup:
            warm = (misses, seen_loads, load_misses)
        is_load = loads[position]
        seen_loads += is_load
        if bypassed:
            bypassed_accesses += 1
        else:
            addr = addrs[position]
            way = cache.probe(addr)
            if way is not None:
                cache.touch(addr, way)
                continue
            cache.fill(addr)
        misses += 1
        load_misses += is_load
    counts = (
        n - warmup,
        misses - warm[0],
        seen_loads - warm[1],
        load_misses - warm[2],
    )
    return MissRateResult.of(counts, ticker, bypassed_accesses)
