"""Synthetic static code layout and its dynamic control-flow walker.

The i-cache experiments (Figure 10) need a realistic fetch-address
stream: sequential runs inside basic blocks (SAWP territory), taken
branches and loop back-edges (BTB territory), calls/returns (RAS
territory), and a code footprint that may or may not fit the L1 i-cache
(fpppp's does not, which is why its way-prediction accuracy drops).

The model: a program is a set of functions laid out contiguously in a
code region.  Each function is a sequence of *segments*; a segment is
either one basic block or a loop over a few consecutive blocks with a
per-site trip count.  Block terminators are conditional branches (with a
per-site bias), calls, loop back-edges, or fall-throughs; the last block
returns.  Every static property (slot opcodes, stream bindings, branch
biases, trip counts) is fixed at build time so PC-indexed predictors see
a stable program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.utils.rng import DeterministicRng
from repro.workload.instr import OP_FP, OP_INT, OP_LOAD, OP_STORE

#: Code region base address; far below the data regions.
CODE_BASE = 0x0040_0000
#: Bytes per instruction.
INSTR_BYTES = 4

# Slot kinds fixed at layout time.  Each is the opcode of the
# instructions the slot emits, so a block's ``slots`` list is also its
# body's op column.
SLOT_INT = OP_INT
SLOT_FP = OP_FP
SLOT_LOAD = OP_LOAD
SLOT_STORE = OP_STORE

# Terminator kinds.
TERM_FALL = 0  #: fall through, no branch instruction
TERM_COND = 1  #: conditional branch skipping the next block when taken
TERM_CALL = 2  #: call another function
TERM_LOOP = 3  #: loop back-edge (taken while trips remain)
TERM_RET = 4  #: function return


@dataclass
class BlockSpec:
    """One static basic block.

    Attributes:
        start_pc: address of the first instruction.
        slots: per-instruction kind, ``SLOT_*``; terminator not included.
        stream_ids: for each slot, the bound data-stream index (memory
            slots) or -1.
        term_kind: one of the ``TERM_*`` constants.
        term_bias: probability a ``TERM_COND`` branch is taken.
        term_target_pc: branch/call target (filled during layout).
        callee: function index for ``TERM_CALL``.
        loop_trip: nominal trip count for ``TERM_LOOP`` sites.
    """

    start_pc: int
    slots: List[int]
    stream_ids: List[int]
    term_kind: int
    term_bias: float = 0.5
    term_target_pc: int = 0
    callee: int = -1
    loop_trip: int = 1

    @property
    def num_instrs(self) -> int:
        """Instructions in the block including the terminator slot.

        Fall-through blocks still occupy the slot (the generator emits a
        filler ALU instruction there) so PCs stay contiguous.
        """
        return len(self.slots) + 1

    @property
    def term_pc(self) -> int:
        """PC of the terminator instruction."""
        return self.start_pc + len(self.slots) * INSTR_BYTES

    @property
    def end_pc(self) -> int:
        """Address one past the last instruction."""
        return self.start_pc + self.num_instrs * INSTR_BYTES


@dataclass
class Segment:
    """A run of blocks, possibly looped.

    Attributes:
        block_indices: indices into the function's block list.
        is_loop: whether the segment repeats.
    """

    block_indices: List[int]
    is_loop: bool = False


@dataclass
class FunctionSpec:
    """One static function: contiguous blocks grouped into segments."""

    index: int
    entry_pc: int
    blocks: List[BlockSpec] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)


@dataclass
class CodeLayout:
    """The whole synthetic program."""

    functions: List[FunctionSpec]
    code_bytes: int

    @property
    def code_kb(self) -> float:
        """Static code footprint in KiB."""
        return self.code_bytes / 1024.0


class LayoutParameters:
    """Knobs consumed by :func:`build_layout`; see BenchmarkProfile."""

    def __init__(
        self,
        num_functions: int,
        blocks_per_function: int,
        mean_block_len: float,
        mem_frac: float,
        store_share: float,
        fp_frac: float,
        cond_frac: float,
        call_frac: float,
        loop_frac: float,
        mean_trip: float,
        branch_bias: float,
        num_streams: int,
        stream_weights: List[float],
        stream_first_id: List[int],
        stream_counts: List[int],
    ) -> None:
        self.num_functions = num_functions
        self.blocks_per_function = blocks_per_function
        self.mean_block_len = mean_block_len
        self.mem_frac = mem_frac
        self.store_share = store_share
        self.fp_frac = fp_frac
        self.cond_frac = cond_frac
        self.call_frac = call_frac
        self.loop_frac = loop_frac
        self.mean_trip = mean_trip
        self.branch_bias = branch_bias
        self.num_streams = num_streams
        self.stream_weights = stream_weights
        self.stream_first_id = stream_first_id
        self.stream_counts = stream_counts


def measure_block_weights(layout: "CodeLayout", rng: DeterministicRng,
                          probe_blocks: int = 25_000) -> Dict[int, int]:
    """Estimate dynamic execution counts per block by walking the layout.

    Static heuristics (loop trip counts) miss call-frequency effects —
    a leaf function invoked from a hot loop executes orders of magnitude
    more often than its static weight suggests.  A short probe walk with
    an independent RNG measures the real distribution.

    Returns:
        Map from block ``start_pc`` to observed execution count (>= 1
        for every block, so unvisited sites still get bound).
    """
    next_block = ControlFlowWalker(layout, rng).next_block
    counts: Dict[int, int] = {}
    for _ in range(probe_blocks):
        pc = next_block()[0].start_pc
        counts[pc] = counts.get(pc, 0) + 1
    return counts


def bind_streams(
    layout: "CodeLayout",
    params: "LayoutParameters",
    rng: DeterministicRng,
    block_weights: Dict[int, int],
) -> None:
    """Assign a stream instance to every memory site, weighted by the
    measured execution counts.

    A naive independent draw per static site makes the *dynamic* family
    mix wildly variable: a conflict-group site landing in a hot loop can
    multiply the conflict share tenfold.  Greedy quota-filling over the
    measured weights (largest sites first) keeps the dynamic family mix
    close to the configured weights.
    """
    sites = []
    for func in layout.functions:
        for block in func.blocks:
            weight = block_weights.get(block.start_pc, 1)
            for slot_index, slot in enumerate(block.slots):
                if slot in (SLOT_LOAD, SLOT_STORE):
                    sites.append((weight, block, slot_index))
    if not sites:
        return

    rng.shuffle(sites)
    sites.sort(key=lambda item: item[0], reverse=True)  # stable: keeps shuffle for ties

    total_weight = float(sum(weight for weight, _, _ in sites))
    weight_sum = float(sum(params.stream_weights))
    quotas = [total_weight * w / weight_sum for w in params.stream_weights]
    assigned = [0.0] * len(quotas)
    instance_loads = [[0.0] * count for count in params.stream_counts]

    for weight, block, slot_index in sites:
        # Largest absolute remaining deficit takes the site.  Processing
        # sites hottest-first means the big sites land on big-quota
        # families (hot scalars, hot array walks) and small-quota
        # families fill from the cooler tail without overshooting.
        family = max(
            range(len(quotas)),
            key=lambda f: (quotas[f] - assigned[f], params.stream_weights[f]),
        )
        assigned[family] += weight
        # Within the family, the least-loaded instance takes the site so
        # every instance carries an equal dynamic share (this is what
        # pins the big-array fraction of walk accesses).
        loads = instance_loads[family]
        instance = min(range(len(loads)), key=loads.__getitem__)
        loads[instance] += weight
        block.stream_ids[slot_index] = params.stream_first_id[family] + instance


def _build_block(
    pc: int, rng: DeterministicRng, params: LayoutParameters
) -> Tuple[List[int], List[int]]:
    """Return (slots, stream_ids) for one block body.

    Stream ids are placeholders (-1); :func:`_bind_streams` fills them
    once loop structure (execution weights) is known.
    """
    length = rng.geometric(max(params.mean_block_len - 1, 1.0), maximum=24)
    slots: List[int] = []
    stream_ids: List[int] = []
    for _ in range(length):
        if rng.chance(params.mem_frac):
            if rng.chance(params.store_share):
                slots.append(SLOT_STORE)
            else:
                slots.append(SLOT_LOAD)
        else:
            if rng.chance(params.fp_frac):
                slots.append(SLOT_FP)
            else:
                slots.append(SLOT_INT)
        stream_ids.append(-1)
    return slots, stream_ids


def build_layout(params: LayoutParameters, rng: DeterministicRng) -> CodeLayout:
    """Build the static program."""
    functions: List[FunctionSpec] = []
    pc = CODE_BASE
    for func_index in range(params.num_functions):
        func = FunctionSpec(index=func_index, entry_pc=pc)
        # --- blocks ---
        num_blocks = max(2, params.blocks_per_function)
        for _ in range(num_blocks):
            slots, stream_ids = _build_block(pc, rng, params)
            block = BlockSpec(start_pc=pc, slots=slots, stream_ids=stream_ids, term_kind=TERM_FALL)
            func.blocks.append(block)
            # Reserve space for a terminator; unused when TERM_FALL.
            pc += (len(slots) + 1) * INSTR_BYTES
        # --- segments: group consecutive blocks, some looped ---
        cursor = 0
        while cursor < num_blocks - 1:  # last block is the return
            if rng.chance(params.loop_frac) and cursor + 2 <= num_blocks - 1:
                body = rng.randint(1, min(3, num_blocks - 1 - cursor))
                indices = list(range(cursor, cursor + body))
                func.segments.append(Segment(block_indices=indices, is_loop=True))
                tail = func.blocks[indices[-1]]
                tail.term_kind = TERM_LOOP
                tail.term_target_pc = func.blocks[indices[0]].start_pc
                tail.loop_trip = rng.geometric(params.mean_trip, maximum=64)
                cursor += body
            else:
                indices = [cursor]
                func.segments.append(Segment(block_indices=indices, is_loop=False))
                cursor += 1
        # Terminators for non-loop blocks.
        for segment in func.segments:
            if segment.is_loop:
                continue
            block = func.blocks[segment.block_indices[0]]
            draw = rng.uniform()
            if draw < params.cond_frac:
                block.term_kind = TERM_COND
                # Biased either way: half the sites mostly-taken.
                bias = params.branch_bias if rng.chance(0.5) else 1.0 - params.branch_bias
                block.term_bias = bias
            elif draw < params.cond_frac + params.call_frac and params.num_functions > 1:
                block.term_kind = TERM_CALL
                # Callee fixed at build time (a static call site).
                block.callee = rng.randint(1, params.num_functions - 1)
        # The final block returns.
        func.blocks[-1].term_kind = TERM_RET
        func.segments.append(Segment(block_indices=[num_blocks - 1], is_loop=False))
        functions.append(func)

    # Resolve conditional-branch targets now that addresses are final:
    # a taken conditional skips the next block.
    for func in functions:
        for i, block in enumerate(func.blocks):
            if block.term_kind == TERM_COND:
                if i + 2 < len(func.blocks):
                    block.term_target_pc = func.blocks[i + 2].start_pc
                else:
                    block.term_target_pc = func.blocks[-1].start_pc
            elif block.term_kind == TERM_CALL:
                block.term_target_pc = functions[block.callee].entry_pc

    return CodeLayout(functions=functions, code_bytes=pc - CODE_BASE)


class _Frame:
    """One function activation: its segments, where the walk is inside
    them, and where execution resumes on return."""

    __slots__ = ("segments", "index", "blocks", "position", "trips", "return_pc")

    def __init__(self, segments: list, trips: int, return_pc: int) -> None:
        self.segments = segments  # (blocks, is_loop, nominal trips) per segment
        self.index = 0  # current segment
        self.blocks = segments[0][0]  # the current segment's blocks
        self.position = 0  # within ``blocks``
        self.trips = trips  # loop trips left in the current segment
        self.return_pc = return_pc


class ControlFlowWalker:
    """Walks the layout, yielding (block, taken) pairs in execution order.

    ``taken`` reports how the block's terminator resolved, which the
    generator turns into branch instructions.  The walker restarts the
    program's hot outer loop when execution falls off ``main`` (function
    0), so traces of any length can be produced.

    The walk runs once per dynamic block (and 25k times more in every
    generator's probe walk), so each function's segments are
    precomputed as ``(blocks, is_loop, nominal_trips)`` tuples and the
    innermost frame is kept at hand.
    """

    def __init__(self, layout: CodeLayout, rng: DeterministicRng, max_call_depth: int = 8) -> None:
        self.layout = layout
        self.rng = rng
        self.max_call_depth = max_call_depth
        self._random = rng.source.random
        self._randint = rng.source.randint
        self._segments = [
            [
                (
                    [func.blocks[index] for index in segment.block_indices],
                    segment.is_loop,
                    func.blocks[segment.block_indices[-1]].loop_trip,
                )
                for segment in func.segments
            ]
            for func in layout.functions
        ]
        self._main_entry = layout.functions[0].entry_pc
        self._stack: List[_Frame] = []
        self._enter_function(0, return_pc=0)

    def _enter_function(self, index: int, return_pc: int) -> None:
        segments = self._segments[index]
        _blocks, is_loop, trips = segments[0]
        self._frame = _Frame(segments, trips if is_loop else 1, return_pc)
        self._stack.append(self._frame)

    def _advance_segment(self, frame: _Frame) -> None:
        frame.index += 1
        frame.position = 0
        if frame.index < len(frame.segments):
            frame.blocks, is_loop, trips = frame.segments[frame.index]
            # Re-draw around the nominal trip count for variety.
            frame.trips = max(1, trips + self._randint(-1, 1)) if is_loop else 1

    def next_block(self) -> Tuple[BlockSpec, bool, int]:
        """Return (block, terminator_taken, return_pc_for_calls_or_rets).

        ``return_pc`` is meaningful for TERM_CALL (address execution
        resumes at) and TERM_RET (the target of the return).
        """
        frame = self._frame
        blocks = frame.blocks
        position = frame.position
        block = blocks[position]
        kind = block.term_kind

        # Steps that stay inside the segment, or enter a callee, return
        # early: only leaving a segment can strand a frame past its end.
        taken = False
        aux_pc = 0
        if kind == TERM_FALL:
            if position + 1 < len(blocks):
                frame.position = position + 1
                return block, False, 0
            self._advance_segment(frame)
        elif kind == TERM_LOOP:
            frame.trips -= 1
            if frame.trips > 0:
                frame.position = 0
                return block, True, 0
            self._advance_segment(frame)
        elif kind == TERM_COND:
            bias = block.term_bias  # DeterministicRng.chance, draw for draw
            taken = bias > 0.0 and (bias >= 1.0 or self._random() < bias)
            self._advance_segment(frame)
            if taken and frame.index < len(frame.segments) - 1:
                # Skip the next segment, but never past the return block.
                self._advance_segment(frame)
        elif kind == TERM_CALL:
            aux_pc = block.term_pc + INSTR_BYTES
            self._advance_segment(frame)  # resume after the call
            if len(self._stack) < self.max_call_depth:
                self._enter_function(block.callee, return_pc=aux_pc)
                return block, True, aux_pc
            # Too deep: the call is elided, not taken.
        elif kind == TERM_RET:
            taken = True
            stack = self._stack
            stack.pop()
            if stack:
                aux_pc = frame.return_pc
                self._frame = stack[-1]
            else:
                # Program finished: restart main (outer program loop).
                self._enter_function(0, return_pc=0)
                aux_pc = self._main_entry

        # Falling past the last segment means implicit return.
        frame = self._frame
        if frame.index >= len(frame.segments):
            stack = self._stack
            while stack and stack[-1].index >= len(stack[-1].segments):
                stack.pop()
            if stack:
                self._frame = stack[-1]
            else:
                self._enter_function(0, return_pc=0)
        return block, taken, aux_pc
