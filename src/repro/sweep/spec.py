"""Declarative run descriptions: what to simulate, not how.

A :class:`~repro.sim.runner.RunSpec` names one simulation point and a
:class:`SweepSpec` names a grid of them.  ``RunSpec`` lives beside the
cache key in :mod:`repro.sim.runner` and is re-exported here.  Specs
carry no execution policy: the same spec resolves against the caches,
runs serially, or fans out over a process pool depending only on the
:class:`~repro.sweep.engine.SweepEngine` it is handed to, which is what
makes every experiment's grid trivially parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence, Tuple

from repro.sim.config import SystemConfig
from repro.sim.runner import RunSpec

__all__ = ["RunSpec", "SweepSpec"]


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered, de-duplicated grid of runs.

    Build directly from runs, combine with ``merged``, or expand a
    cartesian product with :meth:`from_grid`.  Duplicate specs are
    dropped on construction (first occurrence wins) so experiments can
    declare overlapping grids — e.g. every figure naming the same
    parallel baseline — without paying for the overlap.
    """

    name: str
    runs: Tuple[RunSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.runs))
        if deduped != tuple(self.runs):
            object.__setattr__(self, "runs", deduped)
        else:
            object.__setattr__(self, "runs", tuple(self.runs))

    @classmethod
    def from_grid(
        cls,
        name: str,
        benchmarks: Sequence[str],
        configs: Sequence[SystemConfig],
        instructions: int,
        salts: Sequence[int] = (0,),
        mode: str = "sim",
        backend: str = "reference",
        interval: int = 0,
    ) -> "SweepSpec":
        """Cartesian product benchmarks x configs x salts."""
        runs = tuple(
            RunSpec(benchmark, config, instructions, salt, mode, backend, interval)
            for benchmark in benchmarks
            for config in configs
            for salt in salts
        )
        return cls(name=name, runs=runs)

    def merged(self, other: "SweepSpec", name: str = "") -> "SweepSpec":
        """Union of two sweeps (order-preserving, de-duplicated)."""
        return SweepSpec(name=name or self.name, runs=self.runs + other.runs)

    def extended(self, runs: Iterable[RunSpec]) -> "SweepSpec":
        """Copy with extra runs appended (de-duplicated)."""
        return replace(self, runs=self.runs + tuple(runs))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)
