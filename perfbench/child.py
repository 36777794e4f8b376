"""One cold repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, with an empty
``REPRO_CACHE_DIR`` and every other ``REPRO_*`` variable cleared, and
reads the JSON it writes to ``--out``.  Set-up (imports and spec
construction) is timed from ``--spawned``, the parent's
``time.monotonic()`` just before it started this process; the timed
phase is one ``SweepEngine.run`` over the workload's spec.

Modes:

* default: the timed sweep, plus per-point digests and model counts;
* ``--setup-only``: stop at the start of the timed phase;
* ``--reference``: run the listed points on the reference tier and
  report their digests (the check for seeds without committed digests).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _tree_mb(directory: Path, pattern: str) -> float:
    return sum(p.stat().st_size for p in directory.rglob(pattern)) / 1e6


def layer_metrics(spans, owner: int, wall: float) -> Dict[str, float]:
    """Reduce recorded spans to the per-layer metrics.

    Times are self times summed over every process (pool workers run
    in parallel, so a layer's busy time can exceed ``wall``), except
    ``sweep.prefetch_s`` and ``sweep.pool_s``, which are durations in
    the benchmark process.
    """
    from spans import self_times

    own = self_times(spans)
    by_id = {(s.pid, s.id): s for s in spans}

    def named(name: str) -> list:
        return [s for s in spans if s.name == name]

    def self_sum(name: str) -> float:
        return sum(own[(s.pid, s.id)] for s in named(name))

    def count_sum(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in named(name))

    def parent_of(span):
        return by_id.get((span.pid, span.parent)) if span.parent is not None else None

    def per(seconds: float, amount: float) -> float:
        return seconds * 1e9 / amount if amount else 0.0

    generate_s = self_sum("workload.generate")
    run_self_s = self_sum("sim.run")
    missrate_s = self_sum("sim.missrate")
    top_missrate = [
        s for s in named("sim.missrate")
        if getattr(parent_of(s), "name", None) != "sim.missrate"
    ]
    vector_calls = [s for s in named("sim.missrate") if s.counts.get("tier_vector")]
    fallbacks = [
        s for s in named("sim.missrate")
        if s.counts.get("tier_fast")
        and getattr(parent_of(s), "counts", {}).get("tier_vector")
    ]
    pools = [s for s in named("sweep.pool") if s.pid == owner]
    pool_capacity = sum(s.duration * s.counts.get("workers", 1) for s in pools)
    worker_busy = sum(s.duration for s in spans if s.pid != owner and s.parent is None)
    prefetch = [
        s for s in spans
        if s.pid == owner and s.parent is None
        and s.name in ("workload.get_trace", "workload.ensure_artifact")
    ]
    attributed = sum(own[(s.pid, s.id)] for s in spans if s.pid == owner)
    return {
        "workload.generate_s": generate_s,
        "workload.generate_calls": len(named("workload.generate")),
        "workload.generate_ns_per_instr": per(
            generate_s, count_sum("workload.generate", "instructions")),
        "workload.encode_s": self_sum("workload.encode"),
        "workload.artifact_load_s": self_sum("workload.artifact_load"),
        "workload.artifact_loads": count_sum("workload.artifact_load", "loads"),
        "workload.artifact_write_s": self_sum("workload.artifact_write"),
        "workload.artifact_stores": count_sum("workload.artifact_write", "stores"),
        "workload.fingerprint_s": self_sum("workload.fingerprint"),
        "workload.fingerprint_calls": len(named("workload.fingerprint")),
        "sim.engine_build_s": self_sum("sim.engine_build"),
        "sim.run_self_s": run_self_s,
        "sim.run_ns_per_instr": per(run_self_s, count_sum("sim.run", "instructions")),
        "sim.missrate_s": missrate_s,
        "sim.missrate_calls": len(top_missrate),
        "sim.missrate_ns_per_access": per(
            missrate_s, sum(s.counts.get("accesses", 0) for s in top_missrate)),
        "fastsim.vector_fallbacks": len(fallbacks),
        "fastsim.vector_fallback_frac": len(fallbacks) / len(vector_calls) if vector_calls else 0.0,
        "sim.result_load_s": self_sum("sim.result_load"),
        "sim.result_hits": count_sum("sim.result_load", "hits"),
        "sim.result_store_s": self_sum("sim.result_store"),
        "sim.result_stores": len(named("sim.result_store")),
        "sweep.prefetch_s": sum(s.duration for s in prefetch),
        "sweep.pool_s": sum(s.duration for s in pools),
        "sweep.worker_busy_frac": worker_busy / pool_capacity if pool_capacity else 0.0,
        "bench.unattributed_s": wall - attributed,
    }


def model_counts(results) -> Dict[str, float]:
    """Simulated counts summed over the points (sim points only)."""
    sims = [r for r in results if r.core.cycles > 0]
    accesses = sum(r.dcache.accesses for r in sims)
    first_probe = sum(r.dcache.accesses - r.dcache.misses - r.dcache.second_probes for r in sims)
    return {
        "model.instructions": sum(r.core.instructions for r in sims),
        "model.cycles": sum(r.core.cycles for r in sims),
        "model.dcache_accesses": accesses,
        "model.dcache_first_probe_hit_frac": first_probe / accesses if accesses else 0.0,
        "model.l2_accesses": sum(r.l2.accesses for r in sims),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--salt", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", default="",
                        help="comma-separated salt:index points to run on the reference tier")
    args = parser.parse_args(argv)

    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import SweepSpec
    from workloads import WORKLOADS, digest, fig11_reduction

    workload = WORKLOADS[args.workload]
    keys = workload.keys()
    out: Dict[str, object] = {}
    if args.reference:
        pairs = [tuple(int(n) for n in pair.split(":")) for pair in args.reference.split(",")]
        runs = [workload.spec(salt, backend="reference").runs[index] for salt, index in pairs]
        sweep = SweepEngine(jobs=1).run(SweepSpec(name=workload.name, runs=tuple(runs)))
        digests: Dict[str, Dict[str, str]] = {}
        for (salt, index), run in zip(pairs, runs):
            digests.setdefault(str(salt), {})[keys[index]] = digest(sweep[run])
        Path(args.out).write_text(json.dumps({"digests": digests}))
        return 0

    spec = workload.spec(args.salt)
    engine = SweepEngine(jobs=workload.jobs)
    tracer = None
    if args.trace:
        from spans import Tracer

        spool = Path(os.environ["REPRO_CACHE_DIR"]).parent / "spans"
        spool.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spool)
        tracer.install()
    first: List[float] = []

    def on_progress(done, total, run, cache_hit) -> None:
        if not first:
            first.append(time.perf_counter())

    out["setup_s"] = time.monotonic() - args.spawned
    if args.setup_only:
        Path(args.out).write_text(json.dumps(out))
        return 0

    started = time.perf_counter()
    try:
        sweep = engine.run(spec, progress=on_progress)
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()

    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    results = [sweep[run] for run in spec.runs]
    by_key = dict(zip(keys, results))
    out.update({
        "salt": args.salt,
        "wall_s": wall,
        "first_result_s": first[0] - started,
        "peak_rss_mb": (self_usage + worker_usage) / 1024.0,
        "instructions": sum(r.core.instructions for r in results),
        "digests": {key: digest(r) for key, r in by_key.items()},
        "model": model_counts(results),
    })
    if workload.mode == "sim":
        out["fig11_reduction"] = fig11_reduction(by_key, workload.profiles)
    if tracer is not None:
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        layers = layer_metrics(tracer.collect(), os.getpid(), wall)
        layers["workload.artifact_mb"] = _tree_mb(cache, "*.etr")
        layers["sim.result_cache_mb"] = _tree_mb(cache, "*.json")
        out["layers"] = layers
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
