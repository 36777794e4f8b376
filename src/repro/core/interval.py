"""Phase-aware policy hooks: interval statistics and reconfiguration.

The paper's way-prediction/selective-DM trade-off is chosen statically
per run, but the dynamic-reconfiguration literature (Mittal's DRI-cache
survey, Jalili & Erez's cache-level prediction — see PAPERS.md) adapts
the cache *mid-run* from observed phase behaviour.  This module defines
the contract that makes registered policies phase-aware:

* :class:`IntervalStats` — an immutable snapshot of one observation
  window (every N memory accesses in ``mode="missrate"``, every N
  cycles in ``mode="sim"``), carrying per-window and cumulative
  counters plus the cache's current shape.
* ``PolicyTick`` protocol — any registered policy *may* implement
  ``on_interval(stats) -> Optional[ReconfigureAction]``.  Policies that
  do are *dynamic* (:func:`is_dynamic_policy`); everyone else never
  sees a tick and behaves exactly as before.
* :class:`ReconfigureAction` — what a tick may request: a new
  :class:`~repro.cache.geometry.CacheGeometry` (flush-and-resize)
  and/or an L1-bypass toggle.
* :class:`IntervalTicker` — the one tick protocol every tier shares.
  A replay loop hands it cumulative counters at each boundary; the
  ticker builds the window's :class:`IntervalStats` from the deltas,
  calls ``on_interval``, validates the action, counts what took
  effect, and returns only that part for the loop to apply.  The
  reference and fast miss-rate replays, the vector tier's speculative
  walk, and the simulator's cycle ticks all drive this one class.

Reconfigure semantics (the documented flush policy):

* **Invalidate-all.**  Applying a new geometry drops every resident
  block and resets replacement state — the array restarts cold, as if
  freshly constructed.  In full simulation dirty blocks are written
  back to the next level first, so no stores are lost.  This is the
  semantics DRI-style resizing literature assumes, and it is what
  keeps the batched/vector tiers byte-identical to the reference:
  "fresh state at a deterministic point" replays the same everywhere.
* **Cumulative statistics.**  Counters (loads, misses, energy, ...) are
  never reset by a reconfiguration; results aggregate across the whole
  run regardless of how many times the shape changed.
* **Stable block decomposition.**  A reconfiguration may change
  capacity and associativity but must preserve ``block_bytes`` and
  ``address_bits`` (:func:`validate_reconfigure`); the block-address
  stream is decoded once per run on the batched tiers.

Ticks fire *before* the access (missrate) or cycle (sim) that crosses
the boundary: with ``interval=N`` the k-th tick is delivered just
before position/cycle ``k*N`` is processed, and describes the window
``[(k-1)*N, k*N)``.  Warmup does not gate observation — policies see
every access in the window — while result counting keeps its usual
warmup gating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry

__all__ = [
    "IntervalStats",
    "IntervalTicker",
    "ReconfigureAction",
    "is_dynamic_policy",
    "ticker_for",
    "validate_reconfigure",
]


@dataclass(frozen=True)
class IntervalStats:
    """One observation window, as delivered to ``on_interval``.

    Attributes:
        index: 0-based tick number within the run.
        position: stream position (missrate mode) or cycle (sim mode)
            at which the tick fires; the window it describes is
            ``[position - interval, position)``.
        interval: the configured tick period.
        accesses: memory accesses observed in the window (warmup
            included — observation is not gated the way counting is).
        loads: load accesses in the window.
        stores: store accesses in the window.
        misses: misses in the window.
        way_mispredicts: mispredicted first probes in the window
            (sim mode; always 0 in missrate mode, which has no
            prediction machinery).
        energy_delta: cache + prediction energy charged during the
            window, in the ledger's units (sim mode; 0.0 in missrate).
        total_accesses: cumulative accesses since the start of the run.
        total_misses: cumulative misses since the start of the run.
        geometry: the cache's *current* shape (reflecting any earlier
            reconfigurations).
        bypassed: whether L1 bypass is currently engaged.
    """

    index: int
    position: int
    interval: int
    accesses: int
    loads: int
    stores: int
    misses: int
    way_mispredicts: int
    energy_delta: float
    total_accesses: int
    total_misses: int
    geometry: CacheGeometry
    bypassed: bool

    @property
    def miss_rate(self) -> float:
        """The window's miss ratio in [0, 1] (0.0 for an empty window)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def total_miss_rate(self) -> float:
        """Cumulative miss ratio in [0, 1] since the start of the run."""
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0


@dataclass(frozen=True)
class ReconfigureAction:
    """What one tick may request; ``None`` fields leave state unchanged.

    Attributes:
        geometry: flush the cache and rebuild it with this shape
            (invalidate-all semantics; see the module docstring).
        bypass: engage (``True``) or release (``False``) L1 bypass:
            while engaged, accesses skip the L1 entirely and count as
            misses served by the next level, leaving cache state
            untouched.
    """

    geometry: Optional[CacheGeometry] = None
    bypass: Optional[bool] = None


def is_dynamic_policy(policy: object) -> bool:
    """Whether ``policy`` (an instance *or* factory class) takes ticks.

    Detection is structural: anything with a callable ``on_interval``
    attribute participates.  The policy base classes deliberately do
    not define the hook, so static policies stay non-dynamic and are
    never ticked (and therefore never pay for interval bookkeeping).
    """
    return callable(getattr(policy, "on_interval", None))


def validate_reconfigure(current: CacheGeometry, new: CacheGeometry) -> None:
    """Reject reconfigurations that change the block decomposition.

    Capacity and associativity may change freely; ``block_bytes`` and
    ``address_bits`` are fixed for the life of a run (the batched tiers
    decode the trace into block addresses exactly once).
    """
    if new.block_bytes != current.block_bytes:
        raise ValueError(
            "reconfigure may not change block_bytes "
            f"({current.block_bytes} -> {new.block_bytes})"
        )
    if new.address_bits != current.address_bits:
        raise ValueError(
            "reconfigure may not change address_bits "
            f"({current.address_bits} -> {new.address_bits})"
        )


class IntervalTicker:
    """Delivers ticks to one dynamic policy and tracks what they change.

    The replay loop owns the counters and the cache; the ticker owns the
    policy, the cache's current shape and bypass state as the policy
    sees them, and the dynamics counters a result reports.

    Attributes:
        policy: the dynamic policy being ticked.
        interval: the tick period (accesses or cycles).
        geometry: the cache's current shape.
        bypassed: whether L1 bypass is currently engaged.
        ticks / reconfigurations / bypass_toggles: what the run did.
    """

    def __init__(self, policy, interval: int, geometry: CacheGeometry) -> None:
        self.policy = policy
        self.interval = interval
        self.geometry = geometry
        self.bypassed = False
        self.ticks = 0
        self.reconfigurations = 0
        self.bypass_toggles = 0
        self._previous = (0, 0, 0, 0, 0.0)

    def tick(
        self,
        position: int,
        accesses: int,
        loads: int,
        misses: int,
        way_mispredicts: int = 0,
        energy: float = 0.0,
    ) -> Optional[ReconfigureAction]:
        """Deliver the window ending at ``position``; return its effect.

        The counters are cumulative since the start of the run; the
        window is their delta since the previous tick.  Returns the
        part of the policy's action that changes state — a geometry
        that differs from the current one (already validated) and/or a
        bypass flip — or ``None`` when the tick changes nothing.
        """
        (prev_accesses, prev_loads, prev_misses,
         prev_mispredicts, prev_energy) = self._previous
        window_accesses = accesses - prev_accesses
        window_loads = loads - prev_loads
        action = self.policy.on_interval(IntervalStats(
            index=self.ticks,
            position=position,
            interval=self.interval,
            accesses=window_accesses,
            loads=window_loads,
            stores=window_accesses - window_loads,
            misses=misses - prev_misses,
            way_mispredicts=way_mispredicts - prev_mispredicts,
            energy_delta=energy - prev_energy,
            total_accesses=accesses,
            total_misses=misses,
            geometry=self.geometry,
            bypassed=self.bypassed,
        ))
        self.ticks += 1
        self._previous = (accesses, loads, misses, way_mispredicts, energy)
        if action is None:
            return None
        geometry = bypass = None
        if action.geometry is not None and action.geometry != self.geometry:
            validate_reconfigure(self.geometry, action.geometry)
            geometry = self.geometry = action.geometry
            self.reconfigurations += 1
        if action.bypass is not None and action.bypass != self.bypassed:
            bypass = self.bypassed = action.bypass
            self.bypass_toggles += 1
        if geometry is None and bypass is None:
            return None
        return ReconfigureAction(geometry=geometry, bypass=bypass)


def ticker_for(
    interval: int, policy_factory, geometry: CacheGeometry
) -> Optional[IntervalTicker]:
    """A ticker for one miss-rate replay, or ``None`` for a static run.

    A replay ticks if and only if ``interval > 0`` and it was given a
    policy factory; the caller (the runner) passes a factory only for
    dynamic policy kinds.  The policy is built here, once per replay.
    """
    if interval <= 0 or policy_factory is None:
        return None
    return IntervalTicker(policy_factory(), interval, geometry)
