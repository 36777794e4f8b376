"""Single-run backend: execute one (benchmark, config) point, memoized.

This module is the execution backend of the sweep engine
(:mod:`repro.sweep`): it owns trace memoization, result caching, and the
two run modes — ``"sim"`` (the full out-of-order simulator) and
``"missrate"`` (the functional hit/miss model behind Table 4).  A run's
``backend`` selects the implementation of either mode:
``"fast"`` runs miss-rate points through the batched per-set replay and
sim points through the array-state core/fetch/engine pipeline of
:mod:`repro.fastsim`; ``"vector"`` runs miss-rate points through the
numpy kernels (:mod:`repro.fastsim.vector`) and sim points through the
same fast pipeline.  All tiers are byte-identical to ``"reference"`` by
contract, and one decision per run picks the tier
(:func:`repro.fastsim.resolve_tier`): a miss-rate run on ``"fast"`` or
``"vector"`` takes the vector kernels when numpy is importable and they
serve its d-cache (direct-mapped, LRU, or 2-way PLRU), and the python
kernels otherwise; ``REPRO_NO_VECTOR=1`` pins both to the python
kernels.  The cache key records the tier so decided.
One frozen :class:`RunSpec` names a run everywhere: it is the argument
of every primitive below, the sweep engine's worker payload, and the
source of the cache key.  The engine composes the primitives directly:

* :func:`load_cached` — resolve a run against the in-process and
  on-disk caches without executing anything;
* :func:`execute` — run the simulation, no caching (safe to call from a
  worker process);
* :func:`store_result` — publish a result into both caches.

Experiments share runs heavily (every figure normalizes against the same
parallel-access baseline), so results are memoized two ways:

* an in-process dictionary for the current interpreter;
* an optional on-disk JSON cache under ``.repro_cache/`` (disable by
  setting ``REPRO_DISK_CACHE=0``) keyed by a SHA-256 of the
  :class:`RunSpec` (benchmark, config, instructions, salt, mode,
  backend, resolved tier, interval) *plus a schema version derived from
  the flat field names of* :class:`SimResult` (see
  :meth:`~repro.sim.results.SimResult.flat_field_names`), so stale
  entries written by an older result schema are simply not found
  instead of crashing — or worse, silently satisfying —
  deserialization.  Entries are stored via
  :meth:`~repro.sim.results.SimResult.to_flat` and rebuilt with
  :meth:`~repro.sim.results.SimResult.from_flat`.

Traces are also memoized per (benchmark, instructions, salt) because
generation is pure.

Workloads may be files as well as synthetic benchmarks: a benchmark
name of the form ``trace://path[#format]`` streams the named file
through the registered reader (:mod:`repro.workload.formats`) instead
of the generator, with ``instructions`` acting as a replay cap.  Both
cache layers key such runs by the file's *content fingerprint*
(:func:`workload_id`), so editing a trace on disk always re-executes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.vector import resolve_tier, vector_miss_rate
from repro.sim.config import SystemConfig
from repro.sim.functional import MissRateResult, measure_miss_rate
from repro.sim.results import DynamicsMetrics, L1Metrics, SimResult
from repro.sim.simulator import BACKENDS, Simulator
from repro.workload.artifact import load_artifact, write_artifact
from repro.workload.encode import (
    _CACHE_ATTR as _ENCODE_ATTR,
    ENCODER_VERSION,
    EncodedTrace,
    encode_trace,
)
from repro.workload.formats import is_trace_ref, load_trace_ref, trace_ref_fingerprint
from repro.workload.generator import GENERATOR_VERSION, generate_trace
from repro.workload.trace import Trace

__all__ = [
    "BACKENDS",
    "RUN_MODES",
    "RunSpec",
    "artifact_dir",
    "artifact_stats",
    "cache_key",
    "clear_caches",
    "disk_cache_dir",
    "ensure_artifact",
    "execute",
    "get_trace",
    "load_cached",
    "reset_artifact_stats",
    "run_benchmark",
    "store_result",
    "workload_id",
]

#: Run modes understood by the backend.
RUN_MODES = ("sim", "missrate")

#: Functional measurement per resolved kernel tier.
_MISSRATE_MEASURES = {
    "reference": measure_miss_rate,
    "fast": fast_miss_rate,
    "vector": vector_miss_rate,
}

_RESULT_CACHE: Dict[str, SimResult] = {}

#: Traces (and, via their on-object memos, encodings) kept in memory,
#: in LRU order.  Bounded: a long-lived service process would otherwise
#: pin every distinct trace+limit's full trace and flat arrays forever.
#: Eviction is safe — regeneration/re-ingest is pure, and the persisted
#: artifact makes a re-encode after eviction cheap.
_TRACE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()


def _trace_cache_capacity() -> int:
    """Max traces kept in memory (``REPRO_TRACE_CACHE``, default 16).

    Raises:
        ValueError: ``REPRO_TRACE_CACHE`` is set to a non-integer or a
            negative value.  A silent fallback here would hide a typo'd
            tuning knob until a long-lived service OOMs.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", "16")
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TRACE_CACHE must be an integer, got {raw!r}"
        ) from None
    if capacity < 0:
        raise ValueError(
            f"REPRO_TRACE_CACHE must be >= 0, got {capacity}"
        )
    return max(1, capacity)

#: Flat keys a cached JSON blob must carry to round-trip losslessly.
_RESULT_FIELDS = SimResult.flat_field_names()

#: The same schema with the optional dynamics section attached — what a
#: ticked run's blob carries.  Both spellings are valid on disk.
_RESULT_FIELDS_WITH_DYNAMICS = tuple(
    sorted(_RESULT_FIELDS + SimResult.optional_flat_field_names())
)

#: Cache schema version: changing any result section's shape changes
#: every key, so entries written by an older schema are ignored, not
#: mis-parsed.  The v2->v3 bump marks the nested-sections redesign.
SCHEMA_VERSION = hashlib.sha256(",".join(_RESULT_FIELDS).encode("utf-8")).hexdigest()[:12]


def disk_cache_dir() -> Optional[Path]:
    """The on-disk result-cache directory, or ``None`` when disabled.

    Honors ``REPRO_DISK_CACHE=0`` (disable) and ``REPRO_CACHE_DIR``
    (location; default ``.repro_cache``).  This directory is the shared
    result store of the sweep service: every worker/shard publishes
    per-run results here under schema-versioned keys, so overlapping
    jobs resolve each other's completed work.
    """
    if os.environ.get("REPRO_DISK_CACHE", "1") == "0":
        return None
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def workload_id(benchmark: str) -> str:
    """Content identity of a workload name, as cache keys see it.

    Synthetic benchmark names are their own identity (generation is
    pure).  A ``trace://`` reference resolves to the named file's
    content fingerprint — SHA-256 of its bytes plus the reader's format
    name/version — so editing a trace on disk, or changing how a format
    is parsed, can never serve a stale cached result.

    Raises:
        ValueError: a trace reference whose file is missing/unreadable
            or whose format is unknown.
    """
    if is_trace_ref(benchmark):
        return f"{benchmark}@{trace_ref_fingerprint(benchmark)}"
    return benchmark


# ------------------------------------------------------------------ #
# Encoded-trace artifacts (persistent, mmap-shared across workers)
# ------------------------------------------------------------------ #

#: Attribute carrying a trace's artifact cache key on the trace object.
_ARTIFACT_KEY_ATTR = "_artifact_key"

#: Per-process counters behind :func:`artifact_stats` (and the CLI's
#: ``[artifacts: N loaded, M written]`` stderr line).
_ARTIFACT_COUNTS = {"loads": 0, "stores": 0}
_ARTIFACT_LOCK = threading.Lock()

#: Section names known to be on disk per artifact key (from a load or a
#: publish this process performed) — a publish whose sections add
#: nothing over this set is skipped.
_ARTIFACT_ON_DISK: Dict[str, FrozenSet[str]] = {}

#: Keys whose exports failed value-range checks: never retried.
_ARTIFACT_UNCACHEABLE: set = set()


def artifact_dir() -> Optional[Path]:
    """The encoded-trace artifact directory, or ``None`` when disabled.

    Lives beside the run cache (``<cache>/artifacts``), so it inherits
    the run cache's switches: ``REPRO_DISK_CACHE=0`` or an unwritable
    ``REPRO_CACHE_DIR`` disables it too.  ``REPRO_NO_ARTIFACTS=1``
    disables artifacts alone, leaving result caching on — the knob the
    byte-identity CI diffs flip.
    """
    if os.environ.get("REPRO_NO_ARTIFACTS", "0") == "1":
        return None
    root = disk_cache_dir()
    if root is None:
        return None
    path = root / "artifacts"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def _artifact_key(benchmark: str, instructions: int, salt: int) -> str:
    """Stable identity of one workload's encoding.

    ``workload_id`` already folds a ``trace://`` file's content
    fingerprint (bytes + reader format/version) into the name; the
    generator and encoder versions cover the two remaining ways the
    flat arrays could change meaning without the inputs changing.
    """
    payload = (
        f"{workload_id(benchmark)}|{instructions}|{salt}"
        f"|gen=v{GENERATOR_VERSION}|enc=v{ENCODER_VERSION}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _section_names(encoded: EncodedTrace) -> FrozenSet[str]:
    """Sections a run has requested from ``encoded`` (plus any backing
    artifact's), without materializing any payload.

    Requested, not present: a synthetic trace's encoding arrives seeded
    with every stream, but the memory-op stream counts only once a
    kernel asked for it and the instruction sections only once
    :meth:`~EncodedTrace.ensure_instr_arrays` ran — so a reference-only
    run names nothing and publishes nothing.
    """
    from repro.workload.artifact import INSTR_SECTIONS

    names = set()
    if encoded._addrs is not None or encoded.ops is not None:
        names.update(("addrs", "is_load"))
    names.update(f"blocks:{bits}" for bits in encoded._block_cache)
    names.update(f"blocks:{key[1]}" for key in encoded._np_cache if key[0] == "blocks")
    if encoded._artifact is not None:
        names.update(encoded._artifact.section_names())
    if encoded.ops is not None:
        names.update(name for name, _dtype in INSTR_SECTIONS)
    return frozenset(names)


def _attach_artifact(trace: Trace, key: str) -> None:
    """Hook a freshly memoized trace up to the artifact cache.

    Always stamps the key (so a later publish knows where to write);
    when a valid artifact already exists on disk, pre-seeds the trace's
    encoding memo with an artifact-backed :class:`EncodedTrace`, so the
    fast/vector tiers skip the encode pass entirely and numpy views
    alias the mapped pages.
    """
    setattr(trace, _ARTIFACT_KEY_ATTR, key)
    directory = artifact_dir()
    if directory is None:
        return
    artifact = load_artifact(directory / f"{key}.etr")
    if artifact is None:
        return
    setattr(trace, _ENCODE_ATTR, EncodedTrace.from_artifact(artifact))
    with _ARTIFACT_LOCK:
        _ARTIFACT_COUNTS["loads"] += 1
        _ARTIFACT_ON_DISK[key] = frozenset(artifact.section_names())


def _publish_artifact(trace: Trace) -> None:
    """Persist whatever ``trace``'s encoding was asked for (best-effort).

    No-op when artifacts are disabled, when no run requested any
    section (a reference-only run requests none), or when everything
    requested is already on disk.  A re-publish after new sections
    appear (e.g. a full-sim run adding instruction arrays to a
    mem-stream-only artifact) rewrites the file with the union —
    artifact-resident sections pass through as mapped bytes, so
    upgrades never re-read the source.
    """
    directory = artifact_dir()
    if directory is None:
        return
    key = getattr(trace, _ARTIFACT_KEY_ATTR, None)
    encoded = getattr(trace, _ENCODE_ATTR, None)
    if key is None or encoded is None or key in _ARTIFACT_UNCACHEABLE:
        return
    names = _section_names(encoded)
    if names <= _ARTIFACT_ON_DISK.get(key, frozenset()):
        return
    try:
        sections = encoded.export_sections()
    except (OverflowError, ValueError, TypeError):
        # A source value out of range for its on-disk dtype: this
        # workload is un-cacheable, permanently.
        _ARTIFACT_UNCACHEABLE.add(key)
        return
    if write_artifact(
        directory / f"{key}.etr", encoded.name, encoded.instructions, sections
    ):
        with _ARTIFACT_LOCK:
            _ARTIFACT_COUNTS["stores"] += 1
            _ARTIFACT_ON_DISK[key] = frozenset(sections)


def ensure_artifact(
    benchmark: str, instructions: int, salt: int = 0, mode: str = "missrate"
) -> Optional[Path]:
    """Build-or-load the workload's artifact now; return its path.

    A sweep pool task calls this in the worker that owns the workload,
    before running its points; the artifact then serves later processes
    (service restarts, later CLI runs) without re-parsing or
    re-encoding.  ``mode="sim"`` additionally persists the full
    instruction arrays; for an artifact-backed encoding both forces are
    O(1), so re-ensuring is free.
    """
    directory = artifact_dir()
    if directory is None:
        return None
    trace = get_trace(benchmark, instructions, salt)
    encoded = encode_trace(trace)
    if mode == "sim":
        encoded.ensure_instr_arrays(trace)
    len(encoded)  # force the mem stream (no-op when artifact-backed)
    _publish_artifact(trace)
    key = getattr(trace, _ARTIFACT_KEY_ATTR, None)
    if key is None:  # pragma: no cover - get_trace always stamps it
        return None
    path = directory / f"{key}.etr"
    return path if path.exists() else None


def artifact_stats() -> Dict[str, int]:
    """Artifact cache activity and footprint (for ``/stats`` and CLI).

    ``loads``/``stores`` count this process's artifact opens and
    publishes; ``files``/``bytes`` scan the shared directory.
    """
    with _ARTIFACT_LOCK:
        stats = dict(_ARTIFACT_COUNTS)
    stats["files"] = 0
    stats["bytes"] = 0
    directory = artifact_dir()
    if directory is not None:
        for path in directory.glob("*.etr"):
            try:
                stats["bytes"] += path.stat().st_size
                stats["files"] += 1
            except OSError:  # pragma: no cover - racing a concurrent gc
                continue
    return stats


def reset_artifact_stats() -> None:
    """Zero the per-process load/store counters (tests, CLI runs)."""
    with _ARTIFACT_LOCK:
        _ARTIFACT_COUNTS["loads"] = 0
        _ARTIFACT_COUNTS["stores"] = 0


def _interval_token(interval: int) -> str:
    """The cache-key component naming the tick period (``static`` = none)."""
    return "static" if interval == 0 else f"interval={interval}"


@dataclass(frozen=True)
class RunSpec:
    """One simulation point: everything that identifies a run.

    Attributes:
        benchmark: application name (see ``repro.workload.profiles``)
            or a ``trace://path[#format]`` reference.
        config: full system configuration.
        instructions: dynamic instruction count of the trace; for a
            trace reference, a replay cap where 0 means the whole file.
        salt: trace-generation salt (distinct salts = distinct traces).
        mode: ``"sim"`` for the full out-of-order simulation or
            ``"missrate"`` for the functional hit/miss model (Table 4).
        backend: ``"reference"``, ``"fast"`` (the batched backend), or
            ``"vector"`` (the numpy kernel tier; miss-rate mode only,
            sim points run the fast pipeline).  Results are
            byte-identical — the tiers trade introspectability for
            speed.
        interval: tick period for dynamic policies (accesses in
            miss-rate mode, cycles in sim mode); ``0`` = no ticks.

    Raises:
        ValueError: an unknown mode or backend, a non-positive
            instruction count (a negative one for a trace reference), or
            a negative interval.
    """

    benchmark: str
    config: SystemConfig
    instructions: int
    salt: int = 0
    mode: str = "sim"
    backend: str = "reference"
    interval: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(f"unknown run mode {self.mode!r}; valid: {RUN_MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; valid: {BACKENDS}")
        if self.instructions < 0 or (
            self.instructions == 0 and not is_trace_ref(self.benchmark)
        ):
            raise ValueError(
                f"instructions must be positive (0 = the whole file for a "
                f"trace:// ref), got {self.instructions}"
            )
        if self.interval < 0:
            raise ValueError(
                f"interval must be >= 0 (0 = no ticks), got {self.interval}"
            )

    def key(self) -> str:
        """The cache key this spec resolves to."""
        return cache_key(self)

    def describe(self) -> str:
        """One-line human description."""
        suffix = "" if self.mode == "sim" else f" ({self.mode})"
        if self.backend != "reference":
            suffix += f" [{self.backend}]"
        if self.interval > 0:
            suffix += f" [interval={self.interval}]"
        return (
            f"{self.benchmark} x {self.config.describe()} "
            f"@ {self.instructions}i/s{self.salt}{suffix}"
        )


def _tier(run: RunSpec) -> str:
    """The kernel tier ``run`` executes on: the one decision both
    :func:`cache_key` and :func:`execute` read."""
    return resolve_tier(
        run.backend, run.mode, run.config.dcache.associativity, run.config.replacement
    )


def cache_key(run: RunSpec) -> str:
    """Stable cache key for one run (includes the result-schema version).

    The v3->v4 payload bump adds the execution backend: reference and
    fast results are byte-identical by contract, but keeping their
    entries distinct means a cached result always names the backend
    that actually produced it (and a backend bug can never satisfy the
    other backend's lookups).  The v4->v5 bump replaces the raw
    benchmark name with :func:`workload_id`, folding the content
    fingerprint of file-backed (``trace://``) workloads into every key.
    The v5->v6 bump adds the *resolved* kernel tier next to the
    requested backend: backend resolution depends on the environment
    (``"fast"`` auto-upgrades to the vector kernels when numpy is
    importable) and on the d-cache config (only the configurations
    :func:`repro.fastsim.vector.serves` names run on them), so the tier
    that actually executed must be part of the entry's identity for the
    same provenance reason.  The v7->v8
    bump embeds the tick period (``static`` when 0): a dynamic policy's
    behaviour is a function of the interval, so the same config at two
    intervals is two distinct runs (the policy's own parameters already
    ride in via ``config.key()``).  The v8->v9 bump drops the chunk-plan
    component the v6->v7 bump had added for chunk-parallel replay, which
    no longer exists.
    """
    payload = (
        f"{workload_id(run.benchmark)}|{run.config.key()}|{run.instructions}"
        f"|{run.salt}|{run.mode}|{run.backend}|{_tier(run)}"
        f"|{_interval_token(run.interval)}|v9:{SCHEMA_VERSION}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_disk(key: str) -> Optional[SimResult]:
    directory = disk_cache_dir()
    if directory is None:
        return None
    path = directory / f"{key}.json"
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or tuple(sorted(data)) not in (
            _RESULT_FIELDS,
            _RESULT_FIELDS_WITH_DYNAMICS,
        ):
            return None  # stale or foreign schema: treat as a miss
        return SimResult.from_flat(data)
    except (OSError, ValueError, TypeError):
        return None


def _store_disk(key: str, result: SimResult) -> None:
    directory = disk_cache_dir()
    if directory is None:
        return
    path = directory / f"{key}.json"
    # Atomic publish (temp sibling + rename, the trace writers'
    # convention): concurrent workers and service shards share this
    # directory, so a reader must never observe a torn entry.  Both
    # backends write byte-identical results for one key, so concurrent
    # writers racing on the final rename are harmless.  The temp name
    # carries the thread id too: service worker threads publish from
    # one process, and a shared temp file would tear under truncation.
    tmp = path.with_name(
        f".tmp{os.getpid()}.{threading.get_native_id()}.{path.name}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(result.to_flat(), handle)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        # caching is best-effort


def get_trace(benchmark: str, instructions: int, salt: int = 0) -> Trace:
    """Return the (memoized) trace for a benchmark or ``trace://`` ref.

    Synthetic benchmarks generate exactly ``instructions`` instructions.
    For a trace reference the file streams back instead: ``instructions``
    caps the replay length (``<= 0`` means the whole file), ``salt`` is
    ignored, and the memo key carries the file's content fingerprint so
    an edited file is re-ingested, never served from memory.
    """
    if is_trace_ref(benchmark):
        key = (workload_id(benchmark), instructions, salt)
        trace = _TRACE_CACHE.get(key)
        if trace is None:
            trace = load_trace_ref(
                benchmark, limit=instructions if instructions > 0 else None
            )
            _attach_artifact(trace, _artifact_key(benchmark, instructions, salt))
            _trace_cache_put(key, trace)
        else:
            _TRACE_CACHE.move_to_end(key)
        return trace
    key = (benchmark, instructions, salt)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = generate_trace(benchmark, instructions, salt)
        _attach_artifact(trace, _artifact_key(benchmark, instructions, salt))
        _trace_cache_put(key, trace)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


def _trace_cache_put(key: Tuple[str, int, int], trace: Trace) -> None:
    """Insert into the trace memo, evicting least-recently-used
    entries past the capacity bound."""
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    capacity = _trace_cache_capacity()
    while len(_TRACE_CACHE) > capacity:
        _TRACE_CACHE.popitem(last=False)


# ------------------------------------------------------------------ #
# Sweep-engine primitives
# ------------------------------------------------------------------ #


def load_cached(run: RunSpec) -> Optional[SimResult]:
    """Resolve one run against the caches; ``None`` means "must execute"."""
    key = cache_key(run)
    cached = _RESULT_CACHE.get(key)
    if cached is None:
        cached = _load_disk(key)
        if cached is not None:
            _RESULT_CACHE[key] = cached
    return cached


def _build_missrate_result(
    trace: Trace, config: SystemConfig, measured: MissRateResult,
    interval: int = 0,
) -> SimResult:
    """Package functional miss counters as a :class:`SimResult`."""
    result = SimResult(benchmark=trace.name, config_key=config.key())
    # The replayed count: identical to ``instructions`` for synthetic
    # benchmarks, the (possibly capped) file length for ingested traces.
    # len() is free here — the measurement pass already memoized a
    # streaming trace's length.
    result.core.instructions = len(trace)
    result.dcache = L1Metrics(
        loads=measured.load_accesses,
        stores=measured.accesses - measured.load_accesses,
        load_misses=measured.load_misses,
        misses=measured.misses,
    )
    if measured.ticks > 0:
        result.dynamics = DynamicsMetrics(
            interval=interval,
            ticks=measured.ticks,
            reconfigurations=measured.reconfigurations,
            bypass_toggles=measured.bypass_toggles,
            bypassed_accesses=measured.bypassed_accesses,
            final_size_bytes=measured.final_size_bytes,
        )
    return result


def _dynamic_policy_factory(run: RunSpec):
    """The zero-arg policy factory a miss-rate replay ticks with, or ``None``.

    This is the one tick decision: a factory is returned only when
    ``run.interval > 0`` and the d-cache policy kind is dynamic.  Every
    tier ticks if and only if it is given one, so a static config at
    ``interval > 0`` is byte-identical to the same config at
    ``interval == 0`` — only its cache key differs.
    """
    from repro.core.registry import get_policy

    spec = run.config.dcache_policy
    if run.interval <= 0 or not get_policy(spec.kind, "dcache").dynamic:
        return None
    return spec.build


def execute(run: RunSpec) -> SimResult:
    """Run one point, bypassing all caches (worker-process safe)."""
    trace = get_trace(run.benchmark, run.instructions, run.salt)
    config = run.config
    if run.mode == "sim":
        return Simulator(config, backend=run.backend, interval=run.interval).run(trace)
    measured = _MISSRATE_MEASURES[_tier(run)](
        trace, config.dcache.geometry(), replacement=config.replacement,
        interval=run.interval, policy_factory=_dynamic_policy_factory(run),
    )
    return _build_missrate_result(trace, config, measured, run.interval)


def store_result(run: RunSpec, result: SimResult) -> None:
    """Publish a result into the in-process and on-disk caches."""
    key = cache_key(run)
    _RESULT_CACHE[key] = result
    _store_disk(key, result)


def run_benchmark(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    use_cache: bool = True,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> SimResult:
    """Simulate ``benchmark`` under ``config``; memoized."""
    run = RunSpec(benchmark, config, instructions, salt, mode, backend, interval)
    if use_cache:
        cached = load_cached(run)
        if cached is not None:
            return cached
    result = execute(run)
    if use_cache:
        store_result(run, result)
    # Persist whatever the run just encoded, independent of the result
    # caches (`use_cache=False` governs result reuse, not derived
    # state): the next process — pool worker or service restart — maps
    # it instead of re-encoding.  The reference tier requests no
    # section, so this is a no-op there.
    trace = _TRACE_CACHE.get(
        (workload_id(benchmark) if is_trace_ref(benchmark) else benchmark,
         instructions, salt)
    )
    if trace is not None:
        _publish_artifact(trace)
    return result


def clear_caches(disk: bool = False) -> None:
    """Drop memoized traces/results (tests use this for isolation)."""
    _RESULT_CACHE.clear()
    _TRACE_CACHE.clear()
    _ARTIFACT_ON_DISK.clear()
    _ARTIFACT_UNCACHEABLE.clear()
    if disk:
        directory = disk_cache_dir()
        if directory is not None:
            for path in directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        artifacts = artifact_dir()
        if artifacts is not None:
            for path in artifacts.glob("*.etr"):
                try:
                    path.unlink()
                except OSError:
                    pass
