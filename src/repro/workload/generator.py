"""Trace synthesis: streams + code layout -> encoded instruction columns.

A :class:`TraceGenerator` builds one benchmark profile's synthetic
program: data streams (:mod:`repro.workload.streams`) placed in memory,
and a static code layout (:mod:`repro.workload.codegen`) whose memory
sites a probe walk binds to streams.  :meth:`TraceGenerator.generate`
then walks the layout and emits every dynamic instruction straight into
the nine per-instruction columns of
:class:`~repro.workload.encode.EncodedTrace` (op, pc, dst, src1, src2,
data address, taken, target, XOR handle) plus the memory-op stream, in
one fused loop.  No :class:`~repro.workload.instr.Instr` is built: the
returned trace is column-backed with its encoding memo already seeded,
so the fast and vector tiers never run an encoding pass, and ``Instr``
objects materialize only when a consumer iterates the trace (the
reference pipeline, ``summary()``, ``trace convert``).

Four independent RNG streams feed the loop (``walk`` for control flow,
``regs`` for register choice, ``addr`` for stream addresses, ``noise``
for XOR-handle perturbation), and each is drawn from in a fixed order,
so (profile, salt, length) identifies one trace; a trace is a prefix of
every longer trace with the same profile and salt.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import List

from repro.utils.rng import DeterministicRng
from repro.workload.codegen import (
    ControlFlowWalker,
    LayoutParameters,
    SLOT_FP,
    SLOT_INT,
    SLOT_LOAD,
    TERM_CALL,
    TERM_FALL,
    TERM_RET,
    bind_streams,
    build_layout,
    measure_block_weights,
)
from repro.workload.encode import seeded_trace
from repro.workload.instr import OP_BRANCH, OP_CALL, OP_INT, OP_RET
from repro.workload.profiles import BenchmarkProfile, get_profile
from repro.workload.streams import (
    AddressStream,
    ChaseStream,
    ConflictStream,
    HotDataLayout,
    ObjectPoolStream,
    RegionAllocator,
    ScalarStream,
    WalkStream,
)
from repro.workload.trace import Trace

#: Version of the synthesis pipeline as cache keys see it.  Generation
#: is pure, so (benchmark, instructions, salt) identifies a synthetic
#: trace *for one version of this module* — bump on any change to the
#: generated streams so persisted encoded-trace artifacts keyed on the
#: old behavior are never served for the new one.
GENERATOR_VERSION = 1

#: log2 of the block size used for XOR-handle construction.
_BLOCK_SHIFT = 5

#: A perturbed XOR handle is the block address XOR (1 + a 12-bit draw).
_NOISE_MASK = (1 << 12) - 1

# Register file split: integer r1..r30, floating point f32..f62.
_INT_REGS = list(range(1, 31))
_FP_REGS = list(range(32, 63))


class TraceGenerator:
    """Generates deterministic traces for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, salt: int = 0) -> None:
        self.profile = profile
        self._rng = DeterministicRng(f"workload/{profile.name}", salt)
        self.streams = self._build_streams()
        params = self._layout_parameters()
        self.layout = build_layout(params, self._rng.fork("layout"))
        # Two-pass binding: probe-walk the layout to measure real block
        # execution frequencies, then bind memory sites to stream
        # families so the *dynamic* family mix matches the profile.
        weights = measure_block_weights(self.layout, self._rng.fork("probe"))
        bind_streams(self.layout, params, self._rng.fork("bind"), weights)
        self._walker = ControlFlowWalker(self.layout, self._rng.fork("walk"))
        self._regs_rng = self._rng.fork("regs")
        self._addr_rng = self._rng.fork("addr")
        self._noise_rng = self._rng.fork("noise")
        # Register model: the most recently written integer and fp
        # registers, load results, and ALU results, plus the round-robin
        # destination cursors.  Kept across generate() calls.
        self._recent_int = deque([1, 2, 3, 4], maxlen=8)
        self._recent_fp = deque([32, 33, 34, 35], maxlen=8)
        self._recent_load = deque([1, 2], maxlen=4)
        self._recent_alu = deque([3, 4], maxlen=4)
        self._cursors = (0, 0)

    def _build_streams(self) -> List[AddressStream]:
        """Instantiate the stream pool in family order.

        The hot working set (scalars, object pools, small arrays,
        conflict-group positions) is placed by :class:`HotDataLayout` so
        no two hot blocks share a direct-mapped position, while their
        tags — and hence ways — vary.  Large streaming regions (big
        walks, chases) live above the hot segment with cache coloring.
        """
        profile = self.profile
        allocator = RegionAllocator()
        hot = HotDataLayout(self._rng.fork("hot"))
        rng = self._rng.fork("streams")
        streams: List[AddressStream] = []
        for _ in range(profile.num_scalars):
            streams.append(ScalarStream(hot.take_block()))
        for _ in range(profile.num_pools):
            blocks = [hot.take_block() for _ in range(profile.pool_blocks)]
            streams.append(ObjectPoolStream(blocks))
        # Exactly round(frac * n) big walk instances.  Bigs take the
        # *last* indices: site binding fills instances least-loaded-first
        # starting at index 0, so the hottest sites land on small arrays
        # and the big streaming arrays keep their intended modest share.
        num_big = round(profile.walk_big_frac * profile.num_walks)
        for index in range(profile.num_walks):
            big = index >= profile.num_walks - num_big
            if big:
                size = max(int(profile.walk_big_kb * 1024), 4 * profile.walk_stride)
                base = allocator.region(size, align=4096, color=True)
            else:
                size = max(int(profile.walk_small_kb * 1024), 4 * profile.walk_stride)
                base = hot.take_chunk((size + 31) // 32)
            streams.append(WalkStream(base, size, stride=profile.walk_stride))
        for _ in range(profile.num_conflict_groups):
            tags = allocator.conflict_tags(profile.conflict_group_size)
            streams.append(
                ConflictStream(
                    hot.take_position(), tags, run_length=profile.conflict_run_length
                )
            )
        for _ in range(profile.num_chases):
            size = int(profile.chase_kb * 1024)
            streams.append(ChaseStream(allocator.region(size), size))
        return streams

    def _layout_parameters(self) -> LayoutParameters:
        profile = self.profile
        counts = [
            profile.num_scalars,
            profile.num_pools,
            profile.num_walks,
            profile.num_conflict_groups,
            profile.num_chases,
        ]
        first_ids = []
        running = 0
        for count in counts:
            first_ids.append(running)
            running += count
        return LayoutParameters(
            num_functions=profile.num_functions,
            blocks_per_function=profile.blocks_per_function,
            mean_block_len=profile.mean_block_len,
            mem_frac=profile.mem_frac,
            store_share=profile.store_share,
            fp_frac=profile.fp_frac,
            cond_frac=profile.cond_frac,
            call_frac=profile.call_frac,
            loop_frac=profile.loop_frac,
            mean_trip=profile.mean_trip,
            branch_bias=profile.branch_bias,
            num_streams=running,
            stream_weights=profile.stream_weights(),
            stream_first_id=first_ids,
            stream_counts=counts,
        )

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def generate(self, num_instructions: int) -> Trace:
        """Produce a trace of exactly ``num_instructions`` instructions.

        Branch targets are made coherent with the dynamic path: a taken
        control instruction's ``target`` equals the next instruction's
        block start (the walker runs one block past the end when the
        last instruction is taken), so the fetch model and predictors
        observe a self-consistent program.

        Raises:
            TypeError: ``num_instructions`` is not an int (bools too).
            ValueError: ``num_instructions`` is below 1.
        """
        if isinstance(num_instructions, bool) or not isinstance(num_instructions, int):
            raise TypeError(
                f"num_instructions must be an int, got {num_instructions!r}"
            )
        if num_instructions < 1:
            raise ValueError("num_instructions must be >= 1")
        n = num_instructions

        next_block = self._walker.next_block
        regs = self._regs_rng.source
        regs_random, regs_randint, regs_choice = regs.random, regs.randint, regs.choice
        addr_rng = self._addr_rng.source
        noise = self._noise_rng.source
        noise_random, noise_randint = noise.random, noise.randint
        scale = self.profile.xor_noise_scale
        next_address = [stream.next_address for stream in self.streams]
        noise_p = [min(1.0, stream.handle_noise * scale) for stream in self.streams]
        # Address base registers by stream family: pointer families
        # (pools, conflict structures, chases) take recent load results,
        # arrays and scalars induction/frame registers.
        pointer = [
            isinstance(stream, (ObjectPoolStream, ConflictStream, ChaseStream))
            for stream in self.streams
        ]
        recent_int = self._recent_int
        recent_fp = self._recent_fp
        recent_load = self._recent_load
        recent_alu = self._recent_alu
        int_push, fp_push = recent_int.append, recent_fp.append
        load_push, alu_push = recent_load.append, recent_alu.append
        int_cursor, fp_cursor = self._cursors

        def source(pool, registers):
            """A source register, strongly biased to recent producers.

            ~85% of sources come from the last few written registers,
            the most recent heavily favored: real code consumes values
            almost immediately, which puts load latency on the critical
            path (why the paper's 2-cycle sequential d-cache costs ~11%
            performance despite an 8-wide out-of-order core).
            """
            if regs_random() < 0.85:
                back = 0
                limit = len(pool) - 1
                while back < limit and regs_random() < 0.45:
                    back += 1
                return pool[-1 - back]
            return regs_choice(registers)

        # The columns are preallocated at their defaults, so each
        # instruction stores only the fields it sets.
        ops = [OP_INT] * n
        pcs = [0] * n
        dsts = [-1] * n
        src1s = [-1] * n
        src2s = [-1] * n
        daddrs = [0] * n
        takens = [False] * n
        targets = [0] * n
        xors = [0] * n
        addrs = array("Q")
        is_load = array("b")
        mem_push, kind_push = addrs.append, is_load.append
        pending = -1  # index of a taken terminator awaiting its target
        i = 0
        while True:
            block, taken, _aux_pc = next_block()
            pc = block.start_pc
            if pending >= 0:
                targets[pending] = pc
                pending = -1
                if i >= n:
                    break
            slots = block.slots
            if len(slots) > n - i:
                slots = slots[:n - i]
            # Slot kinds are opcodes: the body's ops and pcs are slices.
            # Destinations go round-robin over the 30 integer and 31 fp
            # registers.
            end = i + len(slots)
            ops[i:end] = slots
            pcs[i:end] = range(pc, pc + 4 * len(slots), 4)
            for kind, stream_id in zip(slots, block.stream_ids):
                if kind == SLOT_INT:
                    int_cursor = (int_cursor + 1) % 30
                    dsts[i] = dst = _INT_REGS[int_cursor]
                    int_push(dst)
                    alu_push(dst)
                    src1s[i] = source(recent_int, _INT_REGS)
                    src2s[i] = source(recent_int, _INT_REGS)
                elif kind == SLOT_FP:
                    fp_cursor = (fp_cursor + 1) % 31
                    dsts[i] = dst = _FP_REGS[fp_cursor]
                    fp_push(dst)
                    src1s[i] = source(recent_fp, _FP_REGS)
                    src2s[i] = source(recent_fp, _FP_REGS)
                else:
                    daddrs[i] = addr = next_address[stream_id](addr_rng)
                    mem_push(addr)
                    if kind == SLOT_LOAD:
                        kind_push(1)
                        block_addr = addr >> _BLOCK_SHIFT
                        p = noise_p[stream_id]  # DeterministicRng.chance
                        if p > 0.0 and (p >= 1.0 or noise_random() < p):
                            xors[i] = block_addr ^ (1 + noise_randint(0, _NOISE_MASK))
                        else:
                            xors[i] = block_addr
                        int_cursor = (int_cursor + 1) % 30
                        dsts[i] = dst = _INT_REGS[int_cursor]
                        int_push(dst)
                    else:
                        kind_push(0)
                    # The address register: an induction/frame register
                    # (an ALU result, so array walks never wait on cache
                    # latency), or for pointer families often the last
                    # load result (``p->next``), which puts hit latency
                    # on the dependence chain.
                    if not pointer[stream_id]:
                        src1s[i] = recent_alu[-1 - regs_randint(0, len(recent_alu) - 1)]
                    elif regs_random() < 0.7:
                        src1s[i] = recent_load[-1]
                    else:
                        src1s[i] = source(recent_int, _INT_REGS)
                    if kind == SLOT_LOAD:
                        load_push(dst)
                    else:
                        src2s[i] = source(recent_int, _INT_REGS)
                i += 1
            if i >= n:
                break

            # The terminator slot.  A taken one gets its target from the
            # next block.
            pcs[i] = pc + 4 * len(slots)
            term = block.term_kind
            if term == TERM_FALL or (term == TERM_CALL and not taken):
                # Filler ALU op (fall-through, or a call elided by the
                # depth limit) keeps PCs contiguous.
                int_cursor = (int_cursor + 1) % 30
                dsts[i] = dst = _INT_REGS[int_cursor]
                int_push(dst)
                alu_push(dst)
            else:
                if term == TERM_CALL:
                    ops[i] = OP_CALL
                elif term == TERM_RET:
                    ops[i] = OP_RET
                else:  # TERM_COND / TERM_LOOP: the condition is often a fresh load
                    ops[i] = OP_BRANCH
                    if regs_random() < 0.6:
                        src1s[i] = recent_load[-1]
                    else:
                        src1s[i] = source(recent_int, _INT_REGS)
                if taken:
                    takens[i] = True
                    pending = i
            i += 1
            if i >= n and pending < 0:
                break

        self._cursors = (int_cursor, fp_cursor)
        columns = (ops, pcs, dsts, src1s, src2s, daddrs, takens, targets, xors)
        return seeded_trace(self.profile.name, columns, addrs, is_load)


def generate_trace(benchmark: str, num_instructions: int, salt: int = 0) -> Trace:
    """Convenience wrapper: profile lookup + generation."""
    return TraceGenerator(get_profile(benchmark), salt).generate(num_instructions)
