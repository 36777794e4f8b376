"""The batched fast-path simulation backend.

Every result the project reports can be produced by one of three
backend tiers:

* ``"reference"`` — the original object-dispatch engines: per-access
  :class:`~repro.core.engine.DCacheEngine` /
  :class:`~repro.core.icache.ICacheEngine` driven over ``Instr``
  objects.  Maximally introspectable, layer by layer.
* ``"fast"`` — this package.  Traces are pre-encoded into flat arrays
  (:mod:`repro.workload.encode`), the functional miss-rate path runs as
  a batched per-set replay (:mod:`repro.fastsim.missrate`), and the full
  simulator swaps in array-state L1 engines with per-policy inlined
  kernels (:mod:`repro.fastsim.dcache`, :mod:`repro.fastsim.icache`)
  for every registered d-cache kind and the i-cache fetch family —
  driven by the array-state out-of-order core and fetch unit
  (:mod:`repro.fastsim.core`, :mod:`repro.fastsim.fetch`) with the
  table-state branch predictors of :mod:`repro.fastsim.predictors`,
  over the array-state L2 of :mod:`repro.fastsim.l2`, so
  ``mode="sim"`` runs batched end to end.
* ``"vector"`` — the numpy kernel tier (:mod:`repro.fastsim.vector`)
  for functional miss-rate runs: direct-mapped, LRU and 2-way PLRU
  replays become whole-stream gather/scatter classification.
  ``backend="fast"`` auto-upgrades to it when numpy is importable (opt
  out with ``REPRO_NO_VECTOR=1``).  :func:`resolve_tier` decides the
  tier once from the run's config, so wider PLRU, ``fifo``/``random``,
  plugin replacements and environments without numpy resolve to the
  python kernels before anything runs, with identical results.

The fast backend's contract is *byte-identical results*: the same
:class:`~repro.sim.functional.MissRateResult` and the same
:class:`~repro.sim.results.SimResult` (``to_flat()`` equality, energy
floats included — the kernels accumulate energy in the reference
engines' exact float-addition order).  The differential property suite
(``tests/test_differential.py``) and the golden-trace equivalence tests
(``tests/test_fastsim.py``) enforce the contract for every policy kind
in the registry; policy kinds without a fast kernel (third-party
plugins) raise :class:`FastBackendUnsupported` and the simulator falls
back to the reference engine for that cache side, keeping results
correct by construction.
"""

from repro.fastsim.core import FastCore
from repro.fastsim.dcache import FastDCacheEngine
from repro.fastsim.fetch import FastFetchUnit
from repro.fastsim.icache import FastICacheEngine
from repro.fastsim.kernels import FastBackendUnsupported, fast_dcache_kinds
from repro.fastsim.l2 import FastL2
from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.predictors import (
    FastBranchTargetBuffer,
    FastHybridPredictor,
    FastReturnAddressStack,
)
from repro.fastsim.vector import (
    numpy_available,
    resolve_tier,
    vector_enabled,
    vector_miss_rate,
)

__all__ = [
    "FastBackendUnsupported",
    "FastBranchTargetBuffer",
    "FastCore",
    "FastDCacheEngine",
    "FastFetchUnit",
    "FastHybridPredictor",
    "FastICacheEngine",
    "FastL2",
    "FastReturnAddressStack",
    "fast_dcache_kinds",
    "fast_miss_rate",
    "numpy_available",
    "resolve_tier",
    "vector_enabled",
    "vector_miss_rate",
]
