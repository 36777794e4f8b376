"""The simulator: builds a system from a config and runs one trace.

Two interchangeable backends build the L1 engines:

* ``"reference"`` — the per-access object-dispatch engines
  (:class:`~repro.core.engine.DCacheEngine`,
  :class:`~repro.core.icache.ICacheEngine`);
* ``"fast"`` — the array-state engines with inlined policy kernels
  (:mod:`repro.fastsim`), byte-identical by contract (enforced by the
  differential suite).  Policy kinds without a fast kernel — plugins —
  silently fall back to the reference engine for that cache side, so
  the fast backend is always safe to request.

``"vector"`` is also accepted and builds the same fast pipeline: the
vector tier accelerates functional miss-rate runs only
(:mod:`repro.fastsim.vector`), while full simulation keeps the scalar
array-state engines so energy accumulates in the reference's exact
float-addition order.

The backend also selects the pipeline implementation for ``run``: the
fast backend replays the pre-encoded instruction arrays through the
array-state core and fetch unit (:class:`~repro.fastsim.core.FastCore`,
:class:`~repro.fastsim.fetch.FastFetchUnit`), which drive whichever L1
engines were built — including reference fallbacks — through the same
``load``/``store``/``fetch`` surface, so the mode="sim" contract stays
byte-identical end to end.  Below the L1s the non-reference backends
build the array-state L2 (:class:`~repro.fastsim.l2.FastL2`), which
counts into the same ``CacheStats`` fields the L2 energy is read from.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.hierarchy import L2Cache, MainMemory, MemoryHierarchy
from repro.core.engine import DCacheEngine
from repro.core.factory import build_dcache_policy, build_icache_policy
from repro.core.icache import ICacheEngine
from repro.core.interval import IntervalTicker, is_dynamic_policy
from repro.fastsim import (
    FastBackendUnsupported,
    FastCore,
    FastDCacheEngine,
    FastFetchUnit,
    FastICacheEngine,
    FastL2,
)
from repro.cpu.fetch import FetchUnit
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.stats import CoreStats
from repro.energy.cactilite import CactiLite
from repro.energy.ledger import EnergyLedger
from repro.energy.processor import WattchLite, WattchParameters
from repro.energy.tables import PredictionStructureEnergy
from repro.sim.config import SystemConfig
from repro.sim.results import (
    CoreMetrics,
    DynamicsMetrics,
    EnergyMetrics,
    L1Metrics,
    L2Metrics,
    SimResult,
)
from repro.workload.trace import Trace


#: Backend tiers a run can request.  The simulator builds the same
#: array-state pipeline for "fast" and "vector" (see module docstring);
#: the tiers only diverge on the functional miss-rate path.
BACKENDS = ("reference", "fast", "vector")


class _IntervalDriver:
    """Feeds the d-cache engine's cumulative counters to a ticker.

    Only the reference engine ever hosts a dynamic policy (dynamic
    kinds have no fast kernels, so the fast backend falls back for that
    side), so ``engine.policy``, ``engine.reconfigure`` and
    ``engine.bypassed`` always exist here.  ``way_mispredicts`` is the
    engine's second-probe count and the energy its d-cache + prediction
    ledger charge — the two signals the paper's section 4 feedback
    schemes key on.
    """

    def __init__(
        self, engine: DCacheEngine, ledger: EnergyLedger, interval: int
    ) -> None:
        self.engine = engine
        self.ledger = ledger
        self.ticker = IntervalTicker(engine.policy, interval, engine.geometry)

    def __call__(self, cycle: int) -> None:
        engine = self.engine
        stats = engine.stats
        energy = self.ledger.get(engine.ENERGY_COMPONENT) + self.ledger.get(
            engine.PREDICTION_COMPONENT
        )
        action = self.ticker.tick(
            cycle, stats.accesses, stats.loads, stats.misses,
            stats.second_probes, energy,
        )
        if action is None:
            return
        if action.geometry is not None:
            engine.reconfigure(action.geometry)
        if action.bypass is not None:
            engine.bypassed = action.bypass


class Simulator:
    """One system instance; construct fresh per run (state is not reusable).

    Args:
        config: the system to build.
        wattch: processor-energy parameters (defaults to the paper's).
        backend: ``"reference"``, ``"fast"``, or ``"vector"`` (see the
            module docstring; the last two build identical pipelines
            here).
        interval: tick period in *cycles*; with a dynamic d-cache
            policy the run delivers
            :class:`~repro.core.interval.IntervalStats` to its
            ``on_interval`` hook every ``interval`` cycles and applies
            any returned reconfiguration/bypass action.  0 (default)
            disables ticking; static policies are never ticked.
    """

    def __init__(
        self,
        config: SystemConfig,
        wattch: Optional[WattchParameters] = None,
        backend: str = "reference",
        interval: int = 0,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
        if interval < 0:
            raise ValueError(f"interval must be >= 0 (0 = no ticks), got {interval}")
        self.config = config
        self.backend = backend
        self.interval = interval
        self.ledger = EnergyLedger()
        cacti = CactiLite()

        # Backing hierarchy (shared, unified L2 as in Table 1).
        memory = MainMemory(
            base_latency=config.memory_latency,
            cycles_per_chunk=config.memory_cycles_per_chunk,
            chunk_bytes=config.memory_chunk_bytes,
        )
        l2_shape = dict(
            geometry=config.l2.geometry(),
            latency=config.l2.latency,
            memory=memory,
            replacement=config.replacement,
        )
        if backend == "reference":
            self.l2 = L2Cache(**l2_shape)
            hierarchy = MemoryHierarchy(self.l2)
        else:
            # The array-state L2 carries the hierarchy surface itself.
            self.l2 = hierarchy = FastL2(**l2_shape)
        self._l2_energy_model = cacti.energy_model(config.l2.geometry())

        # Prediction-structure energies sized from the policy specs
        # (policies that declare no tables fall back to paper sizes;
        # the structures only charge energy when a policy uses them).
        dspec = config.dcache_policy
        pred_energy = PredictionStructureEnergy.build(
            table_entries=dspec.get("table_entries", 1024),
            victim_entries=dspec.get("victim_entries", 16),
            way_bits=max(config.dcache.geometry().fields.way_bits, 1),
        )
        ipred_energy = PredictionStructureEnergy.build(
            table_entries=config.icache_policy.get("sawp_entries", 1024),
            table_bits=max(config.icache.geometry().fields.way_bits, 1),
            way_bits=max(config.icache.geometry().fields.way_bits, 1),
        )

        # L1 engines, per the selected backend.
        self.dcache = None
        self.icache = None
        if backend != "reference":
            try:
                self.dcache = FastDCacheEngine(
                    geometry=config.dcache.geometry(),
                    spec=dspec,
                    hierarchy=hierarchy,
                    energy=cacti.energy_model(config.dcache.geometry()),
                    pred_energy=pred_energy,
                    ledger=self.ledger,
                    base_latency=config.dcache.latency,
                    replacement=config.replacement,
                )
            except FastBackendUnsupported:
                pass  # plugin kind: reference engine below
            try:
                self.icache = FastICacheEngine(
                    geometry=config.icache.geometry(),
                    hierarchy=hierarchy,
                    energy=cacti.energy_model(config.icache.geometry()),
                    pred_energy=ipred_energy,
                    ledger=self.ledger,
                    base_latency=config.icache.latency,
                    spec=config.icache_policy,
                    replacement=config.replacement,
                )
            except FastBackendUnsupported:
                pass
        if self.dcache is None:
            self.dcache = DCacheEngine(
                geometry=config.dcache.geometry(),
                policy=build_dcache_policy(dspec),
                hierarchy=hierarchy,
                energy=cacti.energy_model(config.dcache.geometry()),
                pred_energy=pred_energy,
                ledger=self.ledger,
                base_latency=config.dcache.latency,
                replacement=config.replacement,
            )
        if self.icache is None:
            self.icache = ICacheEngine(
                geometry=config.icache.geometry(),
                hierarchy=hierarchy,
                energy=cacti.energy_model(config.icache.geometry()),
                pred_energy=ipred_energy,
                ledger=self.ledger,
                base_latency=config.icache.latency,
                policy=build_icache_policy(config.icache_policy),
                replacement=config.replacement,
            )
        self.wattch = WattchLite(wattch if wattch is not None else WattchParameters())

    # ------------------------------------------------------------------ #

    def run(self, trace: Trace) -> SimResult:
        """Execute ``trace`` and assemble the result record."""
        core_stats = CoreStats()
        driver = None
        if self.interval > 0 and is_dynamic_policy(
            getattr(self.dcache, "policy", None)
        ):
            driver = _IntervalDriver(self.dcache, self.ledger, self.interval)
        tick_interval = self.interval if driver is not None else 0
        if self.backend != "reference":
            fast_fetch = FastFetchUnit(trace, self.icache, self.config.core, core_stats)
            FastCore(
                self.config.core, fast_fetch, self.dcache, core_stats,
                interval=tick_interval, on_tick=driver,
            ).run()
        else:
            fetch_unit = FetchUnit(trace, self.icache, self.config.core, core_stats)
            OutOfOrderCore(
                self.config.core, fetch_unit, self.dcache, core_stats,
                interval=tick_interval, on_tick=driver,
            ).run()

        # Fast engines accumulate energy locally; publish it before the
        # ledger is read (no-op for the reference engines).
        for engine in (self.dcache, self.icache):
            flush = getattr(engine, "flush_energy", None)
            if flush is not None:
                flush()

        # Post-run L2 energy: the L2 uses sequential (tag-then-way) access
        # as in the Alpha 21164, so each access costs one-way energy.
        l2_stats = self.l2.stats
        l2_energy = (
            l2_stats.accesses * self._l2_energy_model.one_way_read()
            + l2_stats.fills * self._l2_energy_model.fill_write()
        )
        self.ledger.charge("l2", l2_energy)

        energy = dict(self.ledger.as_dict())
        report = self.wattch.report(
            cycles=core_stats.cycles,
            fetched_instrs=core_stats.fetched,
            fetch_cycles=core_stats.fetch_cycles,
            dispatched_instrs=core_stats.dispatched,
            issued_instrs=core_stats.issued,
            int_ops=core_stats.int_ops,
            fp_ops=core_stats.fp_ops,
            mem_ops=core_stats.mem_ops,
            committed_instrs=core_stats.committed,
            cache_energies={
                "l1_icache": energy.get("l1_icache", 0.0)
                + energy.get("prediction_icache", 0.0),
                "l1_dcache": energy.get("l1_dcache", 0.0)
                + energy.get("prediction_dcache", 0.0),
                "l2": energy.get("l2", 0.0),
            },
        )

        def l1_metrics(stats) -> L1Metrics:
            return L1Metrics(
                loads=stats.loads,
                stores=stats.stores,
                load_misses=stats.load_misses,
                misses=stats.misses,
                predictions=stats.predictions,
                correct_predictions=stats.correct_predictions,
                second_probes=stats.second_probes,
                kinds=dict(stats.access_kinds),
            )

        dynamics = DynamicsMetrics()
        if driver is not None and driver.ticker.ticks > 0:
            ticker = driver.ticker
            dynamics = DynamicsMetrics(
                interval=self.interval,
                ticks=ticker.ticks,
                reconfigurations=ticker.reconfigurations,
                bypass_toggles=ticker.bypass_toggles,
                bypassed_accesses=self.dcache.bypassed_accesses,
                final_size_bytes=self.dcache.geometry.size_bytes,
            )

        return SimResult(
            benchmark=trace.name,
            config_key=self.config.key(),
            core=CoreMetrics(
                instructions=len(trace),
                cycles=core_stats.cycles,
                committed=core_stats.committed,
                branches=core_stats.branches,
                branch_mispredicts=core_stats.branch_mispredicts,
                fetch_cycles=core_stats.fetch_cycles,
            ),
            dcache=l1_metrics(self.dcache.stats),
            icache=l1_metrics(self.icache.stats),
            l2=L2Metrics(accesses=l2_stats.accesses, misses=l2_stats.misses),
            energy=EnergyMetrics(
                components=energy,
                processor=dict(report.components),
            ),
            dynamics=dynamics,
        )
