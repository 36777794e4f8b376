"""Array-state out-of-order core for the fast backend.

Cycle-for-cycle transcription of
:class:`~repro.cpu.ooo.OutOfOrderCore` — the same four stages in the
same commit-first order, the same widths, the same port arbitration,
the same register-renaming semantics — restated over flat arrays so
the per-cycle cost is list indexing instead of object-graph traversal:

* the ROB deque of ``_RobEntry`` objects becomes parallel
  fixed-length lists indexed ``sequence % rob_size`` with monotonically
  increasing head/tail sequence numbers.  Producer links are sequence
  numbers: a producer older than ``head`` has committed and a
  committed producer is ready by construction (commit requires
  ``done <= cycle``), which is exactly the reference semantics of
  holding a reference to a retired entry;
* issue is driven by producer wakeup instead of a window scan.  At
  dispatch each consumer resolves its producers once: a committed one
  (older than ``head``) is ready, an issued one bounds the consumer's
  wake cycle by its ``done`` (which never changes after issue), and an
  unissued one parks the consumer on its slot's waiter list and counts
  as a blocker.  An issuing producer releases its waiters; one left
  with no blockers sleeps in a ``(wake, seq)`` heap, which each cycle
  drains into a sequence-ordered *ready* list.  The issue stage walks
  only that list, oldest first, under the reference's width and port
  limits — the same candidates in the same order as the reference's
  full ROB scan, since an entry is issuable exactly when every
  producer has issued and completed.  This relies on every latency
  being at least one cycle (:class:`~repro.cpu.config.CoreConfig`
  enforces it): no result is consumable in its own issue cycle;
* fetched instructions arrive as packed ints through the deques of
  :class:`~repro.fastsim.fetch.FastFetchUnit` instead of
  ``FetchedInstr`` objects.

The d-cache is driven through the same ``load``/``store`` surface as
the reference core, so both engine backends (and plugin fallbacks)
observe the identical access sequence — which is what keeps energy
accumulation, latencies, and every counter byte-identical under
``SimResult.to_flat()``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappush, heappop
from typing import Optional

from repro.cpu.config import CoreConfig
from repro.cpu.ooo import deadlock_limit
from repro.cpu.stats import CoreStats
from repro.fastsim.fetch import FastFetchUnit
from repro.workload.instr import OP_FP, OP_INT, OP_LOAD, OP_STORE

#: ``r_done`` of a slot that has not issued: later than any real cycle,
#: so the commit test ``done > cycle`` also covers "not yet issued".
_UNISSUED = 1 << 62


class FastCore:
    """Runs one encoded trace to completion against an L1 pair."""

    def __init__(
        self,
        config: CoreConfig,
        fetch_unit: FastFetchUnit,
        dcache,
        stats: Optional[CoreStats] = None,
        interval: int = 0,
        on_tick=None,
    ) -> None:
        self.config = config
        self.fetch_unit = fetch_unit
        self.dcache = dcache
        self.stats = stats if stats is not None else CoreStats()
        #: Interval-tick plumbing, identical to the reference core's:
        #: ``on_tick(cycle)`` fires at the top of each cycle that is a
        #: positive multiple of ``interval``.  The idle skip clamps its
        #: jumps at the next tick boundary so the tick *count* matches
        #: the reference core even across event-free stretches.
        self.interval = interval
        self.on_tick = on_tick

    # ------------------------------------------------------------------ #

    def run(self) -> CoreStats:
        """Simulate until the trace is fully committed."""
        config = self.config
        stats = self.stats
        fetch_unit = self.fetch_unit
        encoded = fetch_unit.encoded
        t_ops = encoded.ops
        t_pcs = encoded.pcs
        t_dsts = encoded.dsts
        t_src1s = encoded.src1s
        t_src2s = encoded.src2s
        t_addrs = encoded.daddrs
        t_xors = encoded.xors
        n = encoded.instructions

        # Tuple fast paths when the engines offer them (the array-state
        # engines do); reference/plugin engines adapt through the
        # outcome objects, once, here.
        load_tuple = getattr(self.dcache, "load_tuple", None)
        if load_tuple is None:
            def load_tuple(pc, addr, xor_handle, _load=self.dcache.load):
                outcome = _load(pc, addr, xor_handle)
                return outcome.hit, outcome.latency, outcome.kind, outcome.way

        store_tuple = getattr(self.dcache, "store_tuple", None)
        if store_tuple is None:
            def store_tuple(pc, addr, _store=self.dcache.store):
                outcome = _store(pc, addr)
                return outcome.hit, outcome.latency

        fetch = fetch_unit.fetch
        resume = fetch_unit.resume
        queue = fetch_unit.queue

        rob_size = config.rob_size
        lsq_size = config.lsq_size
        queue_limit = 2 * config.fetch_width
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        num_ports = config.dcache_ports
        int_latency = config.int_latency
        fp_latency = config.fp_latency
        branch_latency = config.branch_latency
        redirect_penalty = config.redirect_penalty

        # ROB as parallel circular arrays; head/tail are sequence numbers.
        # ``r_done`` holds _UNISSUED until the slot issues.
        r_index = [0] * rob_size  # trace index of the instruction
        r_done = [0] * rob_size
        r_ismem = [False] * rob_size
        r_resolves = [0] * rob_size
        # Wakeup state: unissued in-window producers still awaited, the
        # latest completion cycle among the issued ones, and the
        # consumer sequences parked on this slot until it issues.
        r_blockers = [0] * rob_size
        r_wake = [0] * rob_size
        r_waiters = [None] * rob_size
        head = 0
        tail = 0
        lsq_count = 0
        # Rename map: architectural register -> youngest producer sequence.
        rename = [-1] * 64
        # Consumers whose producers have all issued, as packed
        # ``(wake << seq_bits) | seq`` ints: heap order is (wake, seq).
        seq_bits = max(n.bit_length(), 1)
        seq_mask = (1 << seq_bits) - 1
        sleeping = []
        # Sequences issuable now, oldest first.
        ready = []

        committed_total = 0
        issued_total = 0
        dispatched_total = 0
        int_ops = 0
        fp_ops = 0
        loads = 0
        stores = 0
        rob_full_stalls = 0
        lsq_full_stalls = 0

        cycle = 0
        last_commit_cycle = 0
        valve = deadlock_limit(n)
        on_tick = self.on_tick
        interval = self.interval
        next_tick = interval if on_tick is not None and interval > 0 else 0

        while queue or head != tail or fetch_unit.index < n:
            if next_tick and cycle == next_tick:
                on_tick(cycle)
                next_tick += interval
            # ---- commit: in-order retirement, up to commit_width ---- #
            count = 0
            while head != tail and count < commit_width:
                slot = head % rob_size
                if r_done[slot] > cycle:  # unissued or still executing
                    break
                head += 1
                if r_ismem[slot]:
                    lsq_count -= 1
                count += 1
            if count:
                committed_total += count
                last_commit_cycle = cycle

            # ---- issue: oldest-first over the ready list ---- #
            if sleeping and sleeping[0] >> seq_bits <= cycle:
                bound = (cycle + 1) << seq_bits
                while sleeping and sleeping[0] < bound:
                    insort(ready, heappop(sleeping) & seq_mask)
            issued = 0
            if ready:
                ports = num_ports
                keep = 0
                visited = 0
                for seq in ready:
                    if issued >= issue_width:
                        break
                    visited += 1
                    slot = seq % rob_size
                    if r_ismem[slot] and ports == 0:
                        ready[keep] = seq
                        keep += 1
                        continue
                    index = r_index[slot]
                    op = t_ops[index]
                    if op == OP_LOAD:
                        latency = load_tuple(t_pcs[index], t_addrs[index], t_xors[index])[1]
                        loads += 1
                        ports -= 1
                    elif op == OP_STORE:
                        store_tuple(t_pcs[index], t_addrs[index])
                        # The store retires through the LSQ; it does not
                        # produce a register value, so a nominal 1-cycle
                        # occupancy suffices.
                        latency = 1
                        stores += 1
                        ports -= 1
                    elif op == OP_FP:
                        latency = fp_latency
                        fp_ops += 1
                    elif op == OP_INT:
                        latency = int_latency
                        int_ops += 1
                    else:  # branches, calls, returns
                        latency = branch_latency
                        int_ops += 1

                    done = cycle + latency
                    r_done[slot] = done
                    if r_resolves[slot]:
                        resume(done + redirect_penalty)
                    waiters = r_waiters[slot]
                    if waiters is not None:
                        # Release the parked consumers; ``done > cycle``
                        # (latencies are >= 1), so none issues this cycle.
                        r_waiters[slot] = None
                        for consumer in waiters:
                            wslot = consumer % rob_size
                            if done > r_wake[wslot]:
                                r_wake[wslot] = done
                            left = r_blockers[wslot] - 1
                            r_blockers[wslot] = left
                            if not left:
                                heappush(sleeping, (r_wake[wslot] << seq_bits) | consumer)
                    issued += 1
                del ready[keep:visited]
                issued_total += issued

            # ---- dispatch: fetch queue -> ROB/LSQ ---- #
            dispatched = 0
            while queue and dispatched < dispatch_width:
                if tail - head >= rob_size:
                    rob_full_stalls += 1
                    break
                packed = queue[0]
                index = packed >> 1
                op = t_ops[index]
                is_mem = op == OP_LOAD or op == OP_STORE
                if is_mem and lsq_count >= lsq_size:
                    lsq_full_stalls += 1
                    break
                queue.popleft()
                slot = tail % rob_size
                r_index[slot] = index
                r_done[slot] = _UNISSUED
                r_ismem[slot] = is_mem
                r_resolves[slot] = packed & 1
                # Resolve the producers now: a committed one (older than
                # head) is ready, an issued one bounds the wake cycle,
                # an unissued one parks this consumer on its slot.
                blockers = 0
                wake = 0
                for src in (t_src1s[index], t_src2s[index]):
                    if src < 0:
                        continue
                    producer = rename[src]
                    if producer >= head:
                        pslot = producer % rob_size
                        done = r_done[pslot]
                        if done == _UNISSUED:
                            blockers += 1
                            waiters = r_waiters[pslot]
                            if waiters is None:
                                r_waiters[pslot] = [tail]
                            else:
                                waiters.append(tail)
                        elif done > wake:
                            wake = done
                if blockers:
                    r_blockers[slot] = blockers
                    r_wake[slot] = wake
                elif wake > cycle + 1:
                    heappush(sleeping, (wake << seq_bits) | tail)
                else:
                    ready.append(tail)  # the youngest: order holds
                dst = t_dsts[index]
                if dst >= 0:
                    rename[dst] = tail
                tail += 1
                if is_mem:
                    lsq_count += 1
                dispatched += 1
            dispatched_total += dispatched

            # ---- fetch: one i-cache block per cycle ---- #
            if len(queue) < queue_limit:
                fetch_active = fetch(cycle)
            else:
                fetch_active = False

            # ---- idle skip: jump over provably event-free cycles ---- #
            # When a cycle performs no work at all, the machine state is
            # frozen except for the clock; every future enabler has a
            # known time — the head-of-ROB completion (commit), the
            # earliest sleeping wake (issue; an idle cycle leaves the
            # ready list empty, since its oldest entry would have
            # issued, and every parked consumer waits on an older
            # unissued producer whose own chain bottoms out in a
            # sleeping entry), or the fetch unit's block-arrival cycle.
            # Jumping to the earliest of them and bulk-adding the
            # per-cycle stall counters the reference core would have
            # incremented leaves every observable value identical while
            # eliding the dominant stall-spin cost.
            if count == 0 and issued == 0 and dispatched == 0 and not fetch_active:
                event = -1
                if head != tail:
                    done = r_done[head % rob_size]
                    if done != _UNISSUED:
                        event = done  # > cycle, else it committed
                if sleeping:
                    wake = sleeping[0] >> seq_bits  # > cycle: drained above
                    if event < 0 or wake < event:
                        event = wake
                fetchable = fetch_unit.index < n and len(queue) < queue_limit
                if fetchable and not fetch_unit.branch_stalled:
                    arrival = fetch_unit._ready_cycle
                    if arrival > cycle and (event < 0 or arrival < event):
                        event = arrival
                if next_tick and event > next_tick:
                    # A pending tick must be visited exactly like the
                    # reference core would: clamp the jump and let the
                    # remaining skip resume after the tick fires.
                    event = next_tick
                if event > cycle + 1:
                    skipped = event - cycle - 1
                    if fetchable:
                        stats.fetch_stall_cycles += skipped
                    if queue:
                        if tail - head >= rob_size:
                            rob_full_stalls += skipped
                        else:
                            op = t_ops[queue[0] >> 1]
                            if (op == OP_LOAD or op == OP_STORE) and lsq_count >= lsq_size:
                                lsq_full_stalls += skipped
                    cycle = event - 1  # the increment below lands on it

            cycle += 1
            if cycle - last_commit_cycle > valve:
                raise RuntimeError(
                    f"core deadlock at cycle {cycle}: rob={tail - head} "
                    f"fetchq={len(queue)} committed={committed_total}"
                )

        stats.cycles = cycle
        stats.committed += committed_total
        stats.issued += issued_total
        stats.dispatched += dispatched_total
        stats.int_ops += int_ops
        stats.fp_ops += fp_ops
        stats.loads += loads
        stats.stores += stores
        stats.rob_full_stalls += rob_full_stalls
        stats.lsq_full_stalls += lsq_full_stalls
        return stats
