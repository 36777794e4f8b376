"""Span recording around the program's public layer boundaries.

The benchmark never edits the program.  When tracing is on, a
:class:`Tracer` swaps each boundary function named in :data:`LAYERS`
for a thin wrapper that records one :class:`Span` per call (name,
start, end, parent span, pid and a few counts), and puts the original
back on :meth:`Tracer.uninstall`.  When tracing is off nothing is
installed, so the timed program is the untouched one.

Sweep pools fork after the wrappers are installed, so workers inherit
them.  A worker flushes its spans to ``<spool>/<pid>.jsonl`` each time a
root span (one executed point) ends; :meth:`Tracer.collect` merges
those files with the parent's in-memory spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One call through a wrapped boundary.

    ``id`` and ``parent`` are unique per ``pid``; ``counts`` holds
    per-call quantities read from the arguments or the return value.
    """

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    pid: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _instr_count(_args, result) -> Dict[str, float]:
    return {"instructions": len(result)}


def _sim_counts(_args, result) -> Dict[str, float]:
    return {"instructions": result.core.instructions}


def _missrate_counts(tier: str) -> Callable:
    def counts(_args, result) -> Dict[str, float]:
        return {"accesses": result.accesses, "tier_" + tier: 1}
    return counts


def _hit_count(key: str) -> Callable:
    def counts(_args, result) -> Dict[str, float]:
        return {key: 1 if result else 0}
    return counts


#: (module, attribute path, span name, counts-from-(args, result)).
#: A dotted attribute path names a method, patched on its class; a plain
#: name is a module function, rebound wherever a ``repro`` module holds
#: it (module globals and module-level dispatch dicts alike).
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.workload.generator", "generate_trace", "workload.generate", _instr_count),
    ("repro.workload.encode", "encode_trace", "workload.encode", None),
    ("repro.workload.encode", "EncodedTrace.ensure_instr_arrays", "workload.encode", None),
    ("repro.workload.encode", "EncodedTrace._ensure_mem_arrays", "workload.encode", None),
    ("repro.workload.artifact", "load_artifact", "workload.artifact_load",
     _hit_count("loads")),
    ("repro.workload.artifact", "write_artifact", "workload.artifact_write",
     _hit_count("stores")),
    ("repro.workload.formats", "trace_ref_fingerprint", "workload.fingerprint", None),
    ("repro.sim.simulator", "Simulator.__init__", "sim.engine_build", None),
    ("repro.sim.simulator", "Simulator.run", "sim.run", _sim_counts),
    ("repro.fastsim.vector", "vector_miss_rate", "sim.missrate", _missrate_counts("vector")),
    ("repro.fastsim.missrate", "fast_miss_rate", "sim.missrate", _missrate_counts("fast")),
    ("repro.sim.functional", "measure_miss_rate", "sim.missrate",
     _missrate_counts("reference")),
    ("repro.sim.runner", "load_cached", "sim.result_load", _hit_count("hits")),
    ("repro.sim.runner", "store_result", "sim.result_store", None),
    ("repro.sim.runner", "get_trace", "workload.get_trace", None),
    ("repro.sim.runner", "ensure_artifact", "workload.ensure_artifact", None),
    ("repro.sim.runner", "execute", "sim.execute", None),
)


class Tracer:
    """Records spans at the :data:`LAYERS` boundaries while installed.

    Args:
        spool: directory where forked workers flush their spans.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._owner = os.getpid()
        self._undo: List[Callable[[], None]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def begin(self, name: str) -> Span:
        """Open a span as a child of the innermost open span."""
        self._next_id += 1
        span = Span(
            id=self._next_id,
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            pid=os.getpid(),
        )
        self._stack.append(span.id)
        return span

    def end(self, span: Span, counts: Optional[Dict[str, float]] = None) -> None:
        """Close ``span``; a worker's closed root span flushes to the spool."""
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        self._stack.remove(span.id)
        self.spans.append(span)
        if span.parent is None and os.getpid() != self._owner:
            self._flush()

    def _flush(self) -> None:
        path = self.spool / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        self.spans.clear()

    def _after_fork(self) -> None:
        # A forked worker starts with no open spans and none recorded:
        # the parent's copies stay the parent's.
        self.spans = []
        self._stack = []

    def wrap(self, name: str, func: Callable, counts: Optional[Callable]) -> Callable:
        """``func`` recording one ``name`` span per call."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.end(span, counts(args, result) if counts and result is not None
                           else None)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -------------------------------------------------------------- #
    # Installing wrappers
    # -------------------------------------------------------------- #

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS`."""
        for module_name, attr, name, counts in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                self._patch_method(getattr(module, class_name), method, name, counts)
            else:
                original = getattr(module, attr)
                self._rebind(original, self.wrap(name, original, counts))
        self._patch_pool()

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, cls: type, method: str, name: str, counts) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, self.wrap(name, original, counts))
        self._undo.append(lambda: setattr(cls, method, original))

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every ``repro`` module binding of ``original`` at
        ``replacement``: globals imported by name and values of
        module-level dicts (tier dispatch tables)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append(functools.partial(namespace.__setitem__, key, original))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = replacement
                            self._undo.append(functools.partial(value.__setitem__, dkey, original))

    def _patch_pool(self) -> None:
        """Record a ``sweep.pool`` span from pool entry to shutdown."""
        from concurrent.futures import ProcessPoolExecutor

        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._perfbench_workers = max_workers or os.cpu_count() or 1
                self._perfbench_span = tracer.begin("sweep.pool")

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    span = self.__dict__.pop("_perfbench_span", None)
                    if span is not None:
                        tracer.end(span, {"workers": self._perfbench_workers})

        self._rebind(ProcessPoolExecutor, TracedPool)

    # -------------------------------------------------------------- #
    # Collecting
    # -------------------------------------------------------------- #

    def collect(self) -> List[Span]:
        """The parent's spans plus every span a worker flushed."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(Span(**json.loads(line)) for line in handle if line.strip())
        return spans


def is_wrapped(func: Any) -> bool:
    """True when ``func`` is a perfbench wrapper."""
    return getattr(func, "__wrapped_by_perfbench__", False)


# ------------------------------------------------------------------ #
# Span arithmetic
# ------------------------------------------------------------------ #


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Self time per ``(pid, id)``: duration minus what children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append((span.start, span.end))
    return {
        (span.pid, span.id): span.duration
        - _covered(children.get((span.pid, span.id), []), span.start, span.end)
        for span in spans
    }
