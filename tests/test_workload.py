"""Workload generation: determinism, coherence, and stream behaviour."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import DeterministicRng
from repro.workload.artifact import INSTR_SECTIONS, list_to_bytes
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.instr import MEMORY_OPS, OP_LOAD, OP_STORE
from repro.workload.trace import Trace
from repro.workload.profiles import BENCHMARKS, benchmark_names, get_profile
from repro.workload.streams import (
    ChaseStream,
    ConflictStream,
    HotDataLayout,
    ObjectPoolStream,
    ScalarStream,
    WalkStream,
)


class TestProfiles:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARKS) == 11
        assert len(benchmark_names()) == 11

    def test_suites_partition(self):
        assert set(benchmark_names("int")) | set(benchmark_names("fp")) == set(
            benchmark_names()
        )
        assert not set(benchmark_names("int")) & set(benchmark_names("fp"))

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("specjbb")

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            benchmark_names("vector")

    def test_paper_targets_recorded(self):
        for profile in BENCHMARKS.values():
            assert profile.paper_dm_miss_pct > 0
            assert profile.paper_sa4_miss_pct > 0


class TestDeterminism:
    def test_same_trace_twice(self):
        a = generate_trace("gcc", 3000)
        b = generate_trace("gcc", 3000)
        assert [i.pc for i in a] == [i.pc for i in b]
        assert [i.addr for i in a] == [i.addr for i in b]

    def test_salt_changes_trace(self):
        a = generate_trace("gcc", 3000, salt=0)
        b = generate_trace("gcc", 3000, salt=1)
        assert [i.addr for i in a] != [i.addr for i in b]

    def test_benchmarks_differ(self):
        a = generate_trace("gcc", 3000)
        b = generate_trace("go", 3000)
        assert [i.pc for i in a] != [i.pc for i in b]


class TestTraceCoherence:
    @pytest.mark.parametrize("bench", ["gcc", "mgrid", "fpppp"])
    def test_control_flow_coherent(self, bench):
        """Taken targets match the next PC; fallthroughs are sequential."""
        trace = generate_trace(bench, 8000)
        instrs = trace.instructions
        for i in range(len(instrs) - 1):
            current, following = instrs[i], instrs[i + 1]
            if current.is_control:
                if current.taken:
                    assert following.pc == current.target
                else:
                    assert following.pc == current.pc + 4
            else:
                assert following.pc == current.pc + 4

    def test_exact_length(self):
        assert len(generate_trace("li", 5001)) == 5001

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_trace("li", 0)

    def test_loads_have_handles_and_dests(self):
        trace = generate_trace("gcc", 5000)
        for instr in trace:
            if instr.op == OP_LOAD:
                assert instr.dst >= 0
                assert instr.addr > 0
            if instr.op == OP_STORE:
                assert instr.dst == -1

    def test_summary_consistent(self):
        trace = generate_trace("gcc", 5000)
        summary = trace.summary()
        assert summary.instructions == 5000
        assert summary.loads + summary.stores + summary.branches + summary.calls + \
            summary.returns + summary.int_ops + summary.fp_ops == 5000

    def test_calls_and_returns_present(self):
        summary = generate_trace("gcc", 20_000).summary()
        assert summary.calls > 0
        assert summary.returns > 0

    def test_fp_profile_has_fp_ops(self):
        summary = generate_trace("mgrid", 10_000).summary()
        assert summary.fp_ops > summary.instructions * 0.2


class TestStreams:
    def test_scalar_stays_in_block(self):
        rng = DeterministicRng("t")
        stream = ScalarStream(0x1000)
        for _ in range(50):
            assert stream.next_address(rng) >> 5 == 0x1000 >> 5

    def test_walk_is_sequential_and_wraps(self):
        rng = DeterministicRng("t")
        stream = WalkStream(0x1000, 64, stride=8)
        addrs = [stream.next_address(rng) for _ in range(9)]
        assert addrs[:8] == [0x1000 + 8 * i for i in range(8)]
        assert addrs[8] == 0x1000  # wrapped

    def test_walk_rejects_short(self):
        with pytest.raises(ValueError):
            WalkStream(0, 4, stride=8)

    def test_conflict_members_share_position(self):
        stream = ConflictStream(5, [100, 200, 300])
        positions = {(a >> 5) & 0x1FF for a in stream.addresses}
        assert positions == {5}
        tags = {(a >> 5) >> 9 for a in stream.addresses}
        assert len(tags) == 3

    def test_conflict_runs(self):
        rng = DeterministicRng("t")
        stream = ConflictStream(5, [100, 200], run_length=50)
        blocks = [stream.next_address(rng) >> 5 for _ in range(40)]
        assert len(set(blocks)) == 1  # still inside the first run

    def test_conflict_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ConflictStream(5, [100])
        with pytest.raises(ValueError):
            ConflictStream(5, [100, 100])
        with pytest.raises(ValueError):
            ConflictStream(5, [100, 200], run_length=0)

    def test_pool_varies_blocks(self):
        rng = DeterministicRng("t")
        stream = ObjectPoolStream([0x1000, 0x2000, 0x3000])
        blocks = {stream.next_address(rng) >> 5 for _ in range(100)}
        assert len(blocks) == 3

    def test_chase_in_region(self):
        rng = DeterministicRng("t")
        stream = ChaseStream(0x1000, 1024)
        for _ in range(100):
            addr = stream.next_address(rng)
            assert 0x1000 <= addr < 0x1000 + 1024


class TestHotDataLayout:
    def test_positions_unique(self):
        layout = HotDataLayout(DeterministicRng("t"))
        chunk = layout.take_chunk(16)
        blocks = [layout.take_block() for _ in range(100)]
        positions = {(b >> 5) & 0x1FF for b in blocks}
        assert len(positions) == 100  # all distinct
        assert all(p >= 16 for p in positions)  # chunk positions reserved

    def test_exhaustion_raises(self):
        layout = HotDataLayout(DeterministicRng("t"))
        with pytest.raises(RuntimeError):
            for _ in range(600):
                layout.take_block()

    def test_tags_vary(self):
        layout = HotDataLayout(DeterministicRng("t"))
        blocks = [layout.take_block() for _ in range(32)]
        tags = {(b >> 5) >> 9 for b in blocks}
        assert len(tags) > 1


class TestGeneratorInternals:
    def test_stream_pool_matches_counts(self):
        generator = TraceGenerator(get_profile("gcc"))
        profile = generator.profile
        expected = (
            profile.num_scalars + profile.num_pools + profile.num_walks
            + profile.num_conflict_groups + profile.num_chases
        )
        assert len(generator.streams) == expected

    def test_all_memory_sites_bound(self):
        generator = TraceGenerator(get_profile("gcc"))
        from repro.workload.codegen import SLOT_LOAD, SLOT_STORE

        for func in generator.layout.functions:
            for block in func.blocks:
                for slot, stream_id in zip(block.slots, block.stream_ids):
                    if slot in (SLOT_LOAD, SLOT_STORE):
                        assert 0 <= stream_id < len(generator.streams)


# ------------------------------------------------------------------ #
# Column emission: identity with the committed digests, and the
# column-backed trace's agreement with its own columns
# ------------------------------------------------------------------ #

#: Per-column SHA-256 digests of every profile x salt {0, 5} x length
#: {1, 37, 20000}, written by scripts/generator_digests.py from the
#: generator that built ``Instr`` objects and encoded them afterwards.
DIGESTS = Path(__file__).resolve().parent / "data" / "generator_digests.json"

COLUMNS = [name for name, _dtype in INSTR_SECTIONS]


def _columns(trace):
    encoded = encode_trace(trace)
    encoded.ensure_instr_arrays(trace)
    return [getattr(encoded, name) for name in COLUMNS]


class TestColumnEmission:
    def test_columns_match_committed_digests(self):
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
        assert len(expected) == 11 * 2 * 3
        for key, digests in sorted(expected.items()):
            name, salt, length = key.split("/")
            trace = generate_trace(name, int(length), int(salt))
            actual = {
                column: hashlib.sha256(list_to_bytes(values, dtype)).hexdigest()
                for (column, dtype), values in zip(INSTR_SECTIONS, _columns(trace))
            }
            assert actual == digests, key

    def test_encoding_is_seeded_not_built(self):
        trace = generate_trace("gcc", 500)
        encoded = encode_trace(trace)
        assert encoded.ops is None and encoded._addrs is None
        assert encoded.instructions == 500
        assert len(encoded) == sum(op in MEMORY_OPS for op in _columns(trace)[0])
        assert all(isinstance(taken, bool) for taken in encoded.takens)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "10", None, True, False])
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(TypeError, match="num_instructions"):
            generate_trace("gcc", bad)

    @settings(max_examples=15)
    @given(
        name=st.sampled_from(sorted(BENCHMARKS)),
        salt=st.integers(0, 7),
        n=st.integers(1, 5000),
        extra=st.integers(0, 300),
    )
    def test_shorter_trace_is_a_prefix(self, name, salt, n, extra):
        short = _columns(generate_trace(name, n, salt))
        longer = _columns(generate_trace(name, n + extra, salt))
        assert short == [column[:n] for column in longer]

    @settings(max_examples=15)
    @given(
        name=st.sampled_from(sorted(BENCHMARKS)),
        salt=st.integers(0, 7),
        n=st.integers(1, 5000),
    )
    def test_instr_view_reencodes_to_the_seeded_columns(self, name, salt, n):
        trace = generate_trace(name, n, salt)
        source = Trace(trace.name, list(trace))
        fresh = EncodedTrace(source)
        fresh.ensure_instr_arrays(source)
        assert [getattr(fresh, c) for c in COLUMNS] == _columns(trace)
        mem_only = EncodedTrace(source)  # the chunked pass, not a derivation
        assert mem_only.addrs == encode_trace(trace).addrs
        assert mem_only.is_load == encode_trace(trace).is_load

    @settings(max_examples=15)
    @given(
        name=st.sampled_from(sorted(BENCHMARKS)),
        salt=st.integers(0, 7),
        n=st.integers(1, 5000),
        chunk=st.integers(1, 2000),
    )
    def test_trace_surface_agrees_with_columns(self, name, salt, n, chunk):
        trace = generate_trace(name, n, salt)
        ops, pcs, dsts, src1s, src2s, daddrs, takens, targets, xors = _columns(trace)
        assert len(trace) == n
        rows = [
            (i.op, i.pc, i.dst, i.src1, i.src2, i.addr, i.taken, i.target, i.xor_handle)
            for chunk_list in trace.iter_chunks(chunk)
            for i in chunk_list
        ]
        assert rows == list(zip(ops, pcs, dsts, src1s, src2s, daddrs, takens, targets, xors))
        for index in {0, n // 2, n - 1}:
            assert (trace[index].op, trace[index].pc) == (ops[index], pcs[index])
        summary = trace.summary()
        assert summary.instructions == n
        assert summary.loads == ops.count(OP_LOAD)
        assert summary.stores == ops.count(OP_STORE)
        assert summary.unique_load_pcs == len(
            {pc for op, pc in zip(ops, pcs) if op == OP_LOAD}
        )
        assert summary.unique_blocks_touched == len({pc >> 5 for pc in pcs})
