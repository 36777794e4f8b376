"""Vectorized numpy miss-rate kernels (the ``"vector"`` backend tier).

The python fast tier (:mod:`repro.fastsim.missrate`) already replays a
pre-encoded address stream in trace order, but still pays a Python-level
loop iteration per access.  This module removes the per-access loop for
the configurations whose hit/miss outcome can be computed *offline*:

* **Direct-mapped** — an access hits iff the previous access to its set
  touched the same block.  One set-major sort puts every set's accesses
  adjacent in time order, a single adjacent-compare classifies all of
  them, and one scatter restores trace order.
* **LRU** — the classic stack property: an access hits iff the number
  of distinct blocks touched in its set since the previous access to
  the same block is below the associativity.  That predicate never
  depends on cache *state*, so it vectorizes: adjacent same-block runs
  are distance-0 hits (the bulk of every stream), a previous-occurrence
  gather bounds the distinct count from above (``gap <= assoc`` means a
  certain hit) and below (2-way: any longer gap is a certain miss), a
  prefix-sum over 2-periodic positions resolves pure two-block
  alternation windows, and only the residue — a fraction of a percent
  of accesses on the paper's workloads — falls to an early-exit scalar
  scan over the collapsed stream.  2-way tree-PLRU *is* exact LRU (one
  bit pointing away from the last-used way), so it runs here too.

One predicate, :func:`serves`, names exactly those configurations, and
:func:`resolve_tier` applies it to the run's config before anything
executes: wider tree-PLRU, ``fifo``/``random`` (whose victims follow an
object-driven order; ``random``'s RNG stream must advance exactly as
the reference's does) and plugin replacement kinds resolve to the
python tier, so the tier a cache key records is the tier that runs.
:func:`vector_miss_rate` applies the same predicate for direct callers.

Interval runs take the same single entry point: the tick walk runs
inline over prefix sums of the static hit mask, speculating that no
tick changes state, and hands the run to the fast tier the first time
one does (see :func:`vector_miss_rate`).

The sort trick used throughout: set-major order with time order
preserved inside each set comes from one ``np.sort`` over the packed
key ``(set_index << 32) | position`` — several times faster than a
stable ``argsort`` — and the low half of the sorted key *is* the
gather permutation.  Because the set index is a suffix of the block
address, equal blocks always land in the same set, so adjacent-compare
logic needs only block values and set boundaries need no special
casing.
"""

from __future__ import annotations

import os
from typing import Tuple, Union

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import make_replacement
from repro.core.interval import ticker_for
from repro.fastsim.missrate import fast_miss_rate
from repro.sim.functional import MissRateResult, check_replay_args
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.trace import Trace

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

__all__ = [
    "NO_VECTOR_ENV",
    "numpy_available",
    "resolve_tier",
    "serves",
    "vector_enabled",
    "vector_miss_rate",
]

#: Set to a non-empty value other than ``0`` to opt out of the vector
#: tier even when numpy is importable (``backend="fast"`` then stays on
#: the python kernels, and ``backend="vector"`` falls back to them).
NO_VECTOR_ENV = "REPRO_NO_VECTOR"

_Counts = Tuple[int, int, int, int]


def numpy_available() -> bool:
    """True when numpy imported successfully."""
    return np is not None


def vector_enabled() -> bool:
    """True when the vector tier may run: numpy present and not opted out."""
    return np is not None and os.environ.get(NO_VECTOR_ENV, "0") in ("", "0")


def serves(associativity: int, replacement: str) -> bool:
    """True when a vector kernel replays this d-cache configuration.

    That is a direct-mapped cache (replacement never arbitrates), LRU,
    or 2-way tree-PLRU (exact LRU).  Reads config fields only, so it
    never raises: an unknown replacement name is left to the tier that
    runs, which rejects it like every other tier does.
    """
    return (
        associativity == 1
        or replacement == "lru"
        or (associativity == 2 and replacement == "plru")
    )


def resolve_tier(backend: str, mode: str, associativity: int, replacement: str) -> str:
    """The kernel tier a requested backend actually executes with.

    ``"fast"`` auto-upgrades to the vector kernels for miss-rate runs
    when they are enabled and :func:`serves` the run's d-cache
    ``associativity`` and ``replacement``; ``"vector"`` degrades to the
    python kernels otherwise (no numpy, :data:`NO_VECTOR_ENV` set, or a
    configuration no vector kernel replays).  Full-sim mode always
    resolves to the array-state python pipeline — energy accumulation
    stays a scalar pass so float-addition order is bit-identical to the
    reference.
    """
    if backend == "reference":
        return "reference"
    if mode != "missrate":
        return "fast"
    return "vector" if vector_enabled() and serves(associativity, replacement) else "fast"


def vector_miss_rate(
    trace: Union[Trace, EncodedTrace],
    geometry: CacheGeometry,
    replacement: str = "lru",
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Vectorized equivalent of
    :func:`~repro.sim.functional.measure_miss_rate`.

    Runs :func:`~repro.fastsim.missrate.fast_miss_rate` instead when
    the tier is disabled or :func:`serves` rejects the configuration
    (the runner never dispatches such a run here), and when the stream
    would overflow the packed sort key; results are identical either
    way.

    Ticking runs (``interval > 0`` with a ``policy_factory``) replay
    speculatively.  The kernels classify the whole stream against a
    *fixed* geometry, so they cannot follow a mid-run reconfiguration.
    But until the first tick that changes state, the dynamic run *is*
    the static replay, and each window's counters are prefix sums of
    the static hit mask.  So the ticks walk those prefix sums, and the
    moment one takes effect the run falls back to the fast tier, which
    reruns from the start with a fresh policy — every tick before the
    divergence replays identically, so the fallback is lossless.
    """
    if not (vector_enabled() and serves(geometry.associativity, replacement)):
        return fast_miss_rate(
            trace, geometry, replacement, warmup_fraction,
            interval=interval, policy_factory=policy_factory,
        )
    check_replay_args(warmup_fraction, interval)
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    hits = _vector_hits(encoded, geometry, replacement)
    ticker = None
    if hits is not None:
        is_load = encoded.is_load_np()
        ticker = ticker_for(interval, policy_factory, geometry)
    if ticker is not None:
        stops = np.arange(interval, hits.shape[0], interval, dtype=np.int64)
        loads = np.cumsum(is_load, dtype=np.int64)[stops - 1].tolist()
        misses = np.cumsum(~hits, dtype=np.int64)[stops - 1].tolist()
        for position, total_loads, total_misses in zip(stops.tolist(), loads, misses):
            if ticker.tick(position, position, total_loads, total_misses) is not None:
                hits = None
                break
    if hits is None:
        return fast_miss_rate(
            encoded, geometry, replacement, warmup_fraction,
            interval=interval, policy_factory=policy_factory,
        )
    warmup = int(hits.shape[0] * warmup_fraction)
    return MissRateResult.of(_tally(hits, is_load, warmup), ticker)


def _vector_hits(encoded: EncodedTrace, geometry: CacheGeometry, replacement: str):
    """Per-position hit mask over the whole stream, or ``None``.

    :func:`vector_miss_rate` folds the mask with :func:`_tally` and,
    when ticking, walks its prefix sums.  ``None`` means the stream is
    too long, or the cache too wide, for the packed sort key, and the
    python tier must run.
    """
    num_sets = geometry.num_sets
    assoc = geometry.associativity
    if num_sets > (1 << 32):
        return None  # set index would overflow the packed sort key
    blocks = encoded.blocks_np(geometry.fields)
    n = int(blocks.shape[0])
    if n >= (1 << 32):
        return None  # position would overflow the packed sort key
    if assoc == 1:
        # Replacement never arbitrates a direct-mapped cache, but an
        # unknown name must still raise exactly like the other tiers.
        make_replacement(replacement, 1)
        return _direct_mapped(blocks, num_sets)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # LRU, or a 2-way PLRU tree: its single bit always points at the
    # less recently used way, so it is exact LRU.
    return _lru(blocks, num_sets, assoc)


# ------------------------------------------------------------------ #
# Shared pieces
# ------------------------------------------------------------------ #


def _set_major_order(blocks, num_sets: int):
    """Sort the stream set-major with time order preserved per set.

    Returns ``(order, sorted_blocks)`` where ``order`` is the gather
    permutation (``sorted_blocks = blocks[order]``); scattering through
    it restores trace order.  One ``np.sort`` over the packed
    ``(set << 32) | position`` key replaces a stable argsort.
    """
    n = blocks.shape[0]
    index = blocks & np.uint64(num_sets - 1)
    key = (index << np.uint64(32)) | np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return order, blocks[order]


def _tally(hits, is_load, warmup: int) -> _Counts:
    """Fold the per-access hit flags into MissRateResult counts,
    ignoring the warmup prefix exactly like the scalar tiers do."""
    tail_hits = hits[warmup:]
    tail_loads = is_load[warmup:]
    miss = ~tail_hits
    return (
        int(tail_hits.shape[0]),
        int(np.count_nonzero(miss)),
        int(np.count_nonzero(tail_loads)),
        int(np.count_nonzero(miss & tail_loads)),
    )


# ------------------------------------------------------------------ #
# Direct-mapped
# ------------------------------------------------------------------ #


def _direct_mapped(blocks, num_sets: int):
    """Gather, adjacent-compare, scatter: the whole replay in one pass.

    In set-major order an access hits iff its predecessor *in the sort*
    is the same block: equal blocks share a set (the index is an address
    suffix), so set boundaries can never fake a hit.
    """
    n = blocks.shape[0]
    order, sorted_blocks = _set_major_order(blocks, num_sets)
    hit_sorted = np.zeros(n, dtype=bool)
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=hit_sorted[1:])
    hits = np.empty(n, dtype=bool)
    hits[order] = hit_sorted
    return hits


# ------------------------------------------------------------------ #
# LRU (stack-distance classification)
# ------------------------------------------------------------------ #


def _lru(blocks, num_sets: int, assoc: int):
    """Classify every access by the LRU stack property, statelessly.

    Layered so each (cheaper) rule resolves the bulk of what the
    previous one left:

    1. adjacent same-block runs within a set are distance-0 hits;
    2. over the collapsed (run-start) stream, ``gap <= assoc`` between
       consecutive occurrences of a block certainly hits, no previous
       occurrence certainly misses;
    3. at ``assoc == 2`` every remaining access certainly misses
       (collapsed neighbours are distinct, so any longer window holds
       at least two distinct blocks);
    4. at ``assoc >= 3`` a pure two-block alternation window (checked
       with one prefix sum over 2-periodic positions) certainly hits;
    5. the residue gets an early-exit scalar scan that stops at
       ``assoc`` distinct blocks.
    """
    n = blocks.shape[0]
    order, sorted_blocks = _set_major_order(blocks, num_sets)
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=run_start[1:])
    hits_sorted = ~run_start

    collapsed_pos = np.flatnonzero(run_start)
    collapsed = sorted_blocks[collapsed_pos]
    m = collapsed.shape[0]
    # Previous occurrence of the same block in the collapsed stream
    # (same block means same set, and a set's span is contiguous, so
    # everything between two occurrences belongs to the same set).
    by_block = np.argsort(collapsed, kind="stable")
    prev = np.full(m, -1, dtype=np.int64)
    same = collapsed[by_block[1:]] == collapsed[by_block[:-1]]
    prev[by_block[1:][same]] = by_block[:-1][same]
    position = np.arange(m, dtype=np.int64)
    gap = position - prev
    has_prev = prev >= 0
    hit = has_prev & (gap <= assoc)
    resolved = hit | ~has_prev
    if assoc > 2:
        # Pure two-block alternation: c[j] == c[j-2] throughout the
        # window body means exactly two distinct blocks -> a hit.
        alternating = np.zeros(m, dtype=bool)
        alternating[2:] = collapsed[2:] == collapsed[:-2]
        prefix = np.empty(m + 1, dtype=np.int64)
        prefix[0] = 0
        np.cumsum(alternating, out=prefix[1:])
        low = prev + 3
        span = position - low
        candidates = np.flatnonzero(~resolved & (span > 0))
        full = (prefix[position[candidates]] - prefix[low[candidates]]) == span[candidates]
        alternation_hits = candidates[full]
        hit[alternation_hits] = True
        resolved[alternation_hits] = True
        unresolved = np.flatnonzero(~resolved)
        if unresolved.size:
            _scan_unresolved(collapsed, prev, unresolved, assoc, hit)

    hits_sorted[collapsed_pos] = hit
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def _scan_unresolved(collapsed, prev, unresolved, assoc: int, hit) -> None:
    """Scalar residue: count distinct blocks backward, stop early.

    The window between occurrences is at most a few dozen entries for
    real streams and the scan exits at ``assoc`` distinct blocks, so
    this touches a vanishing fraction of the collapsed stream.
    """
    blocks_list = collapsed.tolist()
    prev_list = prev.tolist()
    for k in unresolved.tolist():
        stop = prev_list[k]
        distinct = set()
        is_hit = True
        j = k - 1
        while j > stop:
            distinct.add(blocks_list[j])
            if len(distinct) >= assoc:
                is_hit = False
                break
            j -= 1
        hit[k] = is_hit
