"""Fast-backend unit and golden-trace equivalence tests.

The differential suite (``test_differential.py``) explores random
traces; this module pins the acceptance contract on *golden* traces —
the deterministic synthetic benchmarks the experiments actually run —
for every registered policy kind, and unit-tests the encoding layer,
the kernel registry, the runner integration, and the plugin-fallback
path.
"""

from __future__ import annotations

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.engine import DCacheEngine
from repro.core.policy import DCachePolicy, MODE_PARALLEL, ProbePlan
from repro.core.registry import iter_policies, register_policy, unregister_policy
from repro.fastsim import FastBackendUnsupported, FastDCacheEngine, fast_dcache_kinds
from repro.fastsim.kernels import make_dcache_kernel
from repro.fastsim.missrate import fast_miss_rate
from repro.sim import runner
from repro.sim.runner import RunSpec
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import Simulator
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.generator import generate_trace
from repro.workload.instr import OP_LOAD, OP_STORE

#: Small system keeping the per-kind sweep fast but conflict-rich.
SMALL = SystemConfig(
    icache=CacheLevelConfig(2, 4, 32, 1),
    dcache=CacheLevelConfig(2, 4, 32, 1),
    l2=CacheLevelConfig(16, 4, 32, 6),
)

#: Golden traces: deterministic synthetic benchmarks, fixed lengths.
GOLDEN = [("gcc", 8_000, 0), ("swim", 8_000, 0), ("vortex", 6_000, 1)]


def _flat_pair(config, trace):
    reference = Simulator(config, backend="reference").run(trace).to_flat()
    fast = Simulator(config, backend="fast").run(trace).to_flat()
    return reference, fast


@pytest.mark.parametrize("kind", [info.kind for info in iter_policies("dcache")])
def test_golden_traces_identical_per_dcache_kind(kind):
    """Acceptance: byte-identical results on golden traces, every kind."""
    config = SMALL.with_dcache_policy(kind)
    for benchmark, instructions, salt in GOLDEN:
        trace = generate_trace(benchmark, instructions, salt)
        reference, fast = _flat_pair(config, trace)
        assert reference == fast, (kind, benchmark)


@pytest.mark.parametrize("kind", [info.kind for info in iter_policies("icache")])
def test_golden_traces_identical_per_icache_kind(kind):
    """Same contract for the i-cache fetch-policy family."""
    config = SMALL.with_icache_policy(kind)
    for benchmark, instructions, salt in GOLDEN[:2]:
        trace = generate_trace(benchmark, instructions, salt)
        reference, fast = _flat_pair(config, trace)
        assert reference == fast, (kind, benchmark)


def test_json_serialization_identical_across_backends():
    """to_flat() dumps byte-identically: dict-valued fields serialize in
    canonical order, not in backend-dependent insertion order."""
    import json

    trace = generate_trace("gcc", 4_000, 0)
    config = SMALL.with_dcache_policy("seldm_waypred")
    reference = Simulator(config, backend="reference").run(trace)
    fast = Simulator(config, backend="fast").run(trace)
    assert json.dumps(reference.to_flat()) == json.dumps(fast.to_flat())


def test_fast_kernels_cover_every_builtin_kind():
    """The kernel registry tracks the policy registry's d-cache side.

    Dynamic kinds are excluded by design: they fall back to the
    reference engine so the interval driver can reach the live policy
    instance (and byte-identity across backends comes for free).
    """
    assert set(fast_dcache_kinds()) == {
        info.kind for info in iter_policies("dcache") if not info.dynamic
    }


def test_unknown_kind_raises_fast_backend_unsupported():
    with pytest.raises(FastBackendUnsupported):
        make_dcache_kernel("nonesuch", {}, CacheGeometry(1024, 2, 32).fields)


def test_plugin_policy_falls_back_to_reference_engine():
    """A registered plugin kind without a fast kernel still simulates
    (the fast backend swaps in the reference engine for that side)."""

    @register_policy("fallback_probe", side="dcache", label="Fallback probe")
    class FallbackProbePolicy(DCachePolicy):
        name = "fallback_probe"

        def plan_load(self, pc, addr, xor_handle):
            return ProbePlan(mode=MODE_PARALLEL, kind="parallel")

    try:
        config = SMALL.with_dcache_policy("fallback_probe")
        simulator = Simulator(config, backend="fast")
        assert isinstance(simulator.dcache, DCacheEngine)
        trace = generate_trace("gcc", 2_000, 0)
        reference = Simulator(config).run(trace).to_flat()
        fast = Simulator(config, backend="fast").run(trace).to_flat()
        assert reference == fast
    finally:
        unregister_policy("fallback_probe", side="dcache")


def test_simulator_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        Simulator(SystemConfig(), backend="warp")
    with pytest.raises(ValueError, match="unknown backend"):
        runner.execute(RunSpec("gcc", SystemConfig(), 2_000, backend="warp"))


def test_fast_backend_uses_fast_engines():
    simulator = Simulator(SMALL, backend="fast")
    assert isinstance(simulator.dcache, FastDCacheEngine)
    assert simulator.backend == "fast"


# ------------------------------------------------------------------ #
# Encoding layer
# ------------------------------------------------------------------ #


def test_encoded_trace_matches_memory_stream():
    trace = generate_trace("gcc", 4_000, 0)
    encoded = encode_trace(trace)
    mem = [i for i in trace.instructions if i.op in (OP_LOAD, OP_STORE)]
    assert len(encoded) == len(mem)
    assert encoded.instructions == len(trace)
    assert list(encoded.addrs) == [i.addr for i in mem]
    assert list(encoded.is_load) == [1 if i.op == OP_LOAD else 0 for i in mem]


def test_encoding_is_memoized_on_the_trace():
    trace = generate_trace("gcc", 2_000, 0)
    assert encode_trace(trace) is encode_trace(trace)


def test_block_decode_is_memoized_per_block_size():
    trace = generate_trace("gcc", 2_000, 0)
    encoded = EncodedTrace(trace)
    fields = CacheGeometry(16 * 1024, 4, 32).fields
    blocks = encoded.blocks(fields)
    assert encoded.blocks(fields) is blocks
    # A geometry with the same block size shares the decode.
    other = CacheGeometry(16 * 1024, 1, 32).fields
    assert encoded.blocks(other) is blocks
    # Values agree with the scalar decode.
    assert blocks[:16] == [fields.block_address(a) for a in encoded.addrs[:16]]


def test_fast_miss_rate_accepts_encoded_trace():
    trace = generate_trace("swim", 4_000, 0)
    geometry = CacheGeometry(8 * 1024, 2, 32)
    from_trace = fast_miss_rate(trace, geometry)
    from_encoded = fast_miss_rate(encode_trace(trace), geometry)
    assert from_trace == from_encoded == measure_miss_rate(trace, geometry)


# ------------------------------------------------------------------ #
# Runner integration
# ------------------------------------------------------------------ #


def test_runner_missrate_backends_agree():
    config = SystemConfig().with_dcache(associativity=4)
    reference = runner.execute(RunSpec("gcc", config, 6_000, mode="missrate"))
    fast = runner.execute(RunSpec("gcc", config, 6_000, mode="missrate", backend="fast"))
    assert reference.to_flat() == fast.to_flat()


def test_cache_keys_never_collide_across_backends():
    config = SystemConfig()
    keys = {
        runner.cache_key(RunSpec("gcc", config, 1_000, mode=mode, backend=backend))
        for mode in runner.RUN_MODES
        for backend in runner.BACKENDS
    }
    assert len(keys) == len(runner.RUN_MODES) * len(runner.BACKENDS)


def test_runspec_carries_and_validates_backend():
    from repro.sweep.spec import RunSpec, SweepSpec

    fast = RunSpec("gcc", SMALL, 2_000, backend="fast")
    reference = RunSpec("gcc", SMALL, 2_000)
    assert fast != reference and fast.key() != reference.key()
    assert "[fast]" in fast.describe() and "[fast]" not in reference.describe()
    with pytest.raises(ValueError, match="unknown backend"):
        RunSpec("gcc", SMALL, 2_000, backend="warp")
    spec = SweepSpec.from_grid("s", ("gcc",), (SMALL,), 2_000, backend="fast")
    assert all(run.backend == "fast" for run in spec)


def test_sweep_engine_runs_fast_specs(tmp_path, monkeypatch):
    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import RunSpec

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_caches()
    engine = SweepEngine(jobs=1)
    fast = engine.run_one(RunSpec("gcc", SMALL, 2_000, backend="fast"))
    reference = engine.run_one(RunSpec("gcc", SMALL, 2_000))
    assert fast.to_flat() == reference.to_flat()
    runner.clear_caches()


def test_run_benchmark_caches_per_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_caches()
    config = SMALL
    fast = runner.run_benchmark("gcc", config, 2_000, backend="fast")
    # The fast result must not satisfy a reference lookup (distinct keys).
    assert runner.load_cached(RunSpec("gcc", config, 2_000, backend="fast")) is not None
    assert runner.load_cached(RunSpec("gcc", config, 2_000)) is None
    reference = runner.run_benchmark("gcc", config, 2_000)
    assert reference.to_flat() == fast.to_flat()
    runner.clear_caches()
