"""The sweep engine: resolve a spec against the caches, execute the rest.

Execution policy lives here and only here.  The engine:

1. resolves each run (specs arrive already de-duplicated) against the
   runner's in-process/on-disk caches (recorded as ``cache_hits``);
2. executes the misses — serially for ``jobs == 1`` (the deterministic
   in-process path tests rely on), or for ``jobs > 1`` as per-workload
   slices over a ``ProcessPoolExecutor``: the worker that owns a slice
   builds its trace and artifact, then runs its points;
3. publishes each fresh result into the caches from the parent process
   as its task lands (single writer, so concurrent sweeps never race on
   disk, and completed work survives an interrupted sweep);
4. returns a :class:`~repro.sweep.result.SweepResult` keyed by spec.

Pool progress events arrive in task-completion order, with the done
count still monotonic.  Results are keyed by *what ran*, never by
completion order, so the same spec yields byte-identical exports at any
job count.  If a process pool cannot be created (restricted sandboxes),
the engine degrades to serial execution instead of failing.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim import runner
from repro.sim.results import SimResult
from repro.sweep.result import SweepResult, SweepStats
from repro.sweep.spec import RunSpec, SweepSpec


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial).

    Raises:
        ValueError: ``REPRO_JOBS`` is not an integer >= 1; the message
            names the variable.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


#: Per-completed-run callback: ``(done, total, spec, cache_hit)``.
#: ``done`` counts every resolved run — cache hits and executions alike —
#: monotonically up to ``total`` (the spec's unique run count), so a
#: subscriber can render "done/total" without knowing the cache state.
ProgressCallback = Callable[[int, int, RunSpec, bool], None]


class _ProgressReporter:
    """Monotonic done-counter shared by the hit/serial/pool paths."""

    def __init__(self, callback: Optional[ProgressCallback], total: int) -> None:
        self.callback = callback
        self.total = total
        self.done = 0

    def __call__(self, run: RunSpec, cache_hit: bool) -> None:
        self.done += 1
        if self.callback is not None:
            self.callback(self.done, self.total, run, cache_hit)


class SweepEngine:
    """Executes :class:`~repro.sweep.spec.SweepSpec` grids.

    Args:
        jobs: worker processes; 1 means deterministic in-process serial
            execution (no pool is ever created).
        use_cache: resolve against and publish to the runner caches.
        progress: optional default :data:`ProgressCallback`
            ``(done, total, spec, cache_hit)`` invoked as each run of a
            sweep completes — cache hits during resolution as well as
            executed runs as their results land.  The count rises
            monotonically to ``total`` even if the pool fails over to
            serial execution mid-sweep.  A callback passed to
            :meth:`run` overrides this default for that call.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.use_cache = use_cache
        self.progress = progress

    # -------------------------------------------------------------- #

    def run(
        self, spec: SweepSpec, progress: Optional[ProgressCallback] = None
    ) -> SweepResult:
        """Resolve and execute every run in ``spec``.

        Args:
            spec: the grid to resolve and execute.
            progress: per-call :data:`ProgressCallback` overriding the
                engine default (the sweep service streams per-run
                events through this hook).
        """
        started = time.perf_counter()
        unique: List[RunSpec] = list(spec.runs)  # SweepSpec already de-duplicates
        report = _ProgressReporter(
            progress if progress is not None else self.progress, len(unique)
        )
        result = SweepResult(spec=spec)
        pending: List[RunSpec] = []
        for run in unique:
            cached = runner.load_cached(run) if self.use_cache else None
            if cached is not None:
                result.results[run] = cached
                report(run, True)
            else:
                pending.append(run)

        for run, sim_result in self._execute(pending, report):
            result.results[run] = sim_result

        result.stats = SweepStats(
            unique=len(unique),
            cache_hits=len(unique) - len(pending),
            executed=len(pending),
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
        )
        return result

    def run_one(self, run: RunSpec) -> SimResult:
        """Convenience: execute a single spec through the same path."""
        sweep = self.run(SweepSpec(name=run.describe(), runs=(run,)))
        return sweep[run]

    # -------------------------------------------------------------- #

    def _store(self, run: RunSpec, sim_result: SimResult) -> None:
        """Publish one result immediately (results survive interruption)."""
        if self.use_cache:
            runner.store_result(run, sim_result)

    def _execute(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> List[Tuple[RunSpec, SimResult]]:
        if not pending:
            return []
        done: List[Tuple[RunSpec, SimResult]] = []
        if self.jobs > 1 and len(pending) > 1:
            pool_done, pending = self._execute_pool(pending, report)
            done.extend(pool_done)
        done.extend(self._execute_serial(pending, report))
        return done

    def _execute_serial(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> List[Tuple[RunSpec, SimResult]]:
        out: List[Tuple[RunSpec, SimResult]] = []
        for run in pending:
            sim_result = runner.execute(run)
            self._store(run, sim_result)
            out.append((run, sim_result))
            report(run, False)
        return out

    def _execute_pool(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> Tuple[List[Tuple[RunSpec, SimResult]], List[RunSpec]]:
        """Fan per-workload slices (:func:`_workload_tasks`) out over a
        process pool.  Each task's results are stored and reported as it
        finishes, so progress arrives in completion order.

        Returns ``(completed, remaining)``: ``remaining`` is non-empty
        only when the pool infrastructure itself failed (no worker
        processes, workers killed, unpicklable payload) — those runs
        fall back to serial execution without losing completed work.  A
        simulation error raised *inside* a worker propagates unchanged;
        results completed before it are already cached.
        """
        workers = min(self.jobs, len(pending))
        out: List[Tuple[RunSpec, SimResult]] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_workload, task)
                    for task in _workload_tasks(pending, workers)
                ]
                for future in as_completed(futures):
                    for run, sim_result in future.result():
                        self._store(run, sim_result)
                        out.append((run, sim_result))
                        report(run, False)
                return out, []
        except (OSError, BrokenProcessPool, PicklingError, ImportError):
            # Pool infrastructure failed (e.g. no worker processes in a
            # restricted sandbox); hand the unfinished runs back.
            completed = {run for run, _ in out}
            return out, [run for run in pending if run not in completed]


def _workload_tasks(pending: List[RunSpec], workers: int) -> List[List[RunSpec]]:
    """Cut ``pending`` into pool tasks that never span two workloads.

    Runs are grouped by workload ``(benchmark, instructions, salt)`` in
    spec order, and each group is cut into slices of at most
    ``ceil(len(pending) / workers)`` runs, so a one-workload sweep still
    keeps every worker busy.
    """
    bound = -(-len(pending) // workers)
    groups: Dict[Tuple[str, int, int], List[RunSpec]] = {}
    for run in pending:
        groups.setdefault((run.benchmark, run.instructions, run.salt), []).append(run)
    return [
        group[start:start + bound]
        for group in groups.values()
        for start in range(0, len(group), bound)
    ]


def _run_workload(runs: List[RunSpec]) -> List[Tuple[RunSpec, SimResult]]:
    """Pool task: build the workload's trace and artifact, run the points.

    The reference tier requests no encoding, so reference-only tasks
    publish no artifact.
    """
    accelerated = [run for run in runs if run.backend != "reference"]
    if accelerated:
        first = runs[0]
        runner.ensure_artifact(
            first.benchmark, first.instructions, first.salt,
            mode="sim" if any(run.mode == "sim" for run in accelerated)
            else "missrate",
        )
    return [(run, runner.execute(run)) for run in runs]


def default_engine() -> SweepEngine:
    """Engine honoring ``REPRO_JOBS`` — what experiments use when the
    caller does not supply one."""
    return SweepEngine(jobs=default_jobs())
