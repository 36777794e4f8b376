"""Simulation wiring: configs, the simulator, results, and the runner."""

from repro.sim.config import CacheLevelConfig, SystemConfig, paper_baseline
from repro.sim.results import SimResult, relative_energy_delay
from repro.sim.simulator import Simulator
from repro.sim.runner import (
    RunSpec,
    clear_caches,
    execute,
    load_cached,
    run_benchmark,
    store_result,
)

__all__ = [
    "CacheLevelConfig",
    "RunSpec",
    "SimResult",
    "Simulator",
    "SystemConfig",
    "clear_caches",
    "execute",
    "load_cached",
    "paper_baseline",
    "relative_energy_delay",
    "run_benchmark",
    "store_result",
]
