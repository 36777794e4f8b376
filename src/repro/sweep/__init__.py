"""Sweep orchestration: declarative run grids with parallel execution.

The layer between "what to simulate" and "how it runs":

* :class:`RunSpec` / :class:`SweepSpec` — one run and a declarative
  grid of runs (``repro.sweep.spec``; ``RunSpec`` is defined beside the
  cache key in ``repro.sim.runner``);
* :class:`SweepEngine` — resolves specs against the runner caches and
  fans misses out over a process pool (``repro.sweep.engine``);
* :class:`SweepResult` — spec-keyed results with JSON/tabular export
  (``repro.sweep.result``);
* :mod:`repro.sweep.analyze` — design-point summaries (the paper's
  mean relative E-D / performance-degradation reduction).

Quick start::

    from repro import SystemConfig
    from repro.sweep import SweepEngine, SweepSpec

    baseline = SystemConfig()
    spec = SweepSpec.from_grid(
        "demo",
        benchmarks=("gcc", "swim"),
        configs=(baseline, baseline.with_dcache_policy("seldm_waypred")),
        instructions=25_000,
    )
    sweep = SweepEngine(jobs=4).run(spec)
    print(sweep.to_table())
    tech, base = sweep.pair("gcc", spec.runs[1].config, baseline, 25_000)
"""

from repro.sweep.analyze import (
    DesignPoint,
    PointSummary,
    design_space_spec,
    render_summaries,
    summarize,
)
from repro.sweep.engine import SweepEngine, default_engine, default_jobs
from repro.sweep.result import SweepResult, SweepStats
from repro.sweep.spec import RunSpec, SweepSpec

__all__ = [
    "DesignPoint",
    "PointSummary",
    "RunSpec",
    "SweepEngine",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "default_engine",
    "default_jobs",
    "design_space_spec",
    "render_summaries",
    "summarize",
]
