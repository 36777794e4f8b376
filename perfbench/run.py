"""Repository benchmark: cold sweeps through ``SweepEngine.run``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig11-sim-fast --seed 0 --seconds 40 --trace 0

Each repetition is a fresh process (``child.py``) with an empty result
cache and artifact store, so every repetition is a cold run.  The
command repeats until ``--seconds`` have passed (at least
:data:`MIN_REPS` times), checks every point against the expected
digests, prints each metric by name with its unit, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics
(medians over repetitions); ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics.

``--write-expected`` regenerates ``expected.json`` (digests of every
point at seed 0, produced on the reference tier).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: The seed whose digests are committed; it maps to trace salt 0.
DEFAULT_SEED = 0
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up-only processes per untraced run, on top of each repetition's own.
SETUP_PROBES = 4
#: Per-process limit; a hung repetition is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics and their units, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_kips", "kinstr/s"),
    ("first_result_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
)

#: Per-layer metrics and their units, in print order.
PER_LAYER = (
    ("workload.generate_s", "s"),
    ("workload.generate_calls", "count"),
    ("workload.generate_ns_per_instr", "ns/instr"),
    ("workload.encode_s", "s"),
    ("workload.artifact_load_s", "s"),
    ("workload.artifact_loads", "count"),
    ("workload.artifact_write_s", "s"),
    ("workload.artifact_stores", "count"),
    ("workload.artifact_mb", "MB"),
    ("workload.fingerprint_s", "s"),
    ("workload.fingerprint_calls", "count"),
    ("sim.engine_build_s", "s"),
    ("sim.run_self_s", "s"),
    ("sim.run_ns_per_instr", "ns/instr"),
    ("sim.missrate_s", "s"),
    ("sim.missrate_calls", "count"),
    ("sim.missrate_ns_per_access", "ns/access"),
    ("fastsim.vector_fallbacks", "count"),
    ("fastsim.vector_fallback_frac", "frac"),
    ("sim.result_load_s", "s"),
    ("sim.result_hits", "count"),
    ("sim.result_store_s", "s"),
    ("sim.result_stores", "count"),
    ("sim.result_cache_mb", "MB"),
    ("sweep.prefetch_s", "s"),
    ("sweep.pool_s", "s"),
    ("sweep.worker_busy_frac", "frac"),
    ("model.instructions", "count"),
    ("model.cycles", "count"),
    ("model.dcache_accesses", "count"),
    ("model.dcache_first_probe_hit_frac", "frac"),
    ("model.l2_accesses", "count"),
    ("bench.unattributed_s", "s"),
    ("trace.overhead_frac", "frac"),
)

#: Figure 11's mean energy-delay reductions as the paper reports them.
PAPER_FIG11 = {"combined": 0.08, "perfect": 0.10}


def child_env(work: Path, cache_dir: Path) -> Dict[str, str]:
    """The parent's environment with every ``REPRO_*`` variable cleared,
    a private result cache and the checkout's ``src`` on the path.

    Bytecode goes to one cache per run under ``work``, whatever the
    caller's ``PYTHONDONTWRITEBYTECODE`` says and whatever ``.pyc``
    files the checkout holds, so only a run's first process compiles.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def run_child(work: Path, args: List[str]) -> Tuple[Optional[dict], str]:
    """Run ``child.py`` in a fresh process and cache directory.

    Returns ``(output, error)``: the child's JSON, or ``None`` and the
    tail of its stderr.  The child and any pool workers it left behind
    are killed at :data:`CHILD_TIMEOUT_S`.
    """
    cache = Path(tempfile.mkdtemp(prefix="rep", dir=work))
    out = cache / "out.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out),
           "--spawned", repr(time.monotonic())] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(work, cache / "cache"),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\nkilled after {CHILD_TIMEOUT_S:.0f} s"
    except BaseException:
        # Interrupted (SIGTERM arrives as SystemExit): leave no child behind.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        if proc.returncode == 0:
            return json.loads(out.read_text()), ""
        return None, stderr.strip()[-2000:]
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def check_points(
    reps: List[dict], expected: Dict[str, Dict[str, str]], keys: List[str]
) -> Tuple[int, List[str]]:
    """Count points whose digest is missing or differs from ``expected``.

    ``expected`` maps a salt (as a string) to ``{point key: digest}``.
    Each repetition is checked against the digests for its salt; points
    without one must agree with the first repetition at the same salt.
    Returns ``(failed points, one message per mismatch)``.
    """
    failed = 0
    messages = []
    first: Dict[str, Dict[str, str]] = {}
    for index, rep in enumerate(reps):
        salt = str(rep["salt"])
        got = rep["digests"]
        want_all = expected.get(salt, {})
        seen = first.setdefault(salt, got)
        for key in keys:
            want = want_all.get(key, seen.get(key))
            if got.get(key) is None or got.get(key) != want:
                failed += 1
                messages.append(f"rep {index} salt {salt}: {key}: got {got.get(key)} "
                                f"expected {want}")
    return failed, messages


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run", dir=work_root))
    try:
        if args.write_expected:
            return write_expected(work, WORKLOADS)
        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; valid: {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        if args.seed < 0:
            print("error: --seed must be >= 0", file=sys.stderr)
            return 2
        return bench(work, WORKLOADS[args.workload], args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def write_expected(work: Path, workloads) -> int:
    """Digest every point of every salt seed 0 can use, on the reference tier."""
    from workloads import MAX_REPS

    expected = {}
    for name, workload in sorted(workloads.items()):
        salts = sorted({workload.salt(DEFAULT_SEED, rep) for rep in range(MAX_REPS)})
        points = ",".join(f"{salt}:{index}" for salt in salts
                          for index in range(len(workload.keys())))
        out, error = run_child(work, ["--workload", name, "--reference", points])
        if out is None:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
        expected[name] = out["digests"]
        print(f"{name}: {len(salts)} salts x {len(workload.keys())} points", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def bench(work: Path, workload, args) -> int:
    from workloads import MAX_REPS

    keys = workload.keys()
    reps: List[dict] = []  # untraced repetitions
    traced: List[dict] = []
    errors: List[str] = []
    crashed = 0
    started = time.monotonic()
    for rep in range(MAX_REPS):
        # A traced run pairs an untraced and a traced repetition on one
        # salt, alternating which goes first.
        base = ["--workload", workload.name, "--salt", str(workload.salt(args.seed, rep))]
        flags = ([0, 1] if rep % 2 == 0 else [1, 0]) if args.trace else [0]
        for flag in flags:
            out, error = run_child(work, base + ["--trace", str(flag)])
            if out is None:
                crashed += 1
                errors.append(error)
            else:
                (traced if flag else reps).append(out)
        if crashed and not (reps or traced):
            break  # nothing runs: do not spin until the deadline
        if time.monotonic() - started >= args.seconds and rep + 1 >= (
            1 if args.trace else MIN_REPS
        ):
            break
    setups = [rep["setup_s"] for rep in reps]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            out, error = run_child(work, ["--workload", workload.name, "--setup-only"])
            if out is None:
                errors.append(error)
            else:
                setups.append(out["setup_s"])

    for error in errors:
        print(f"repetition failed:\n{error}", file=sys.stderr)
    measured = reps + traced
    if not (traced if args.trace else reps):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    # Correctness: committed digests at the default seed; otherwise a
    # fixed sample re-run on the reference tier, outside the timed phase.
    if args.seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text())[workload.name]
    else:
        sample = workload.sample(sorted({rep["salt"] for rep in measured}))
        points = ",".join(f"{salt}:{index}" for salt, index in sample)
        out, error = run_child(work, ["--workload", workload.name, "--reference", points])
        if out is None:
            print(f"reference check failed:\n{error}", file=sys.stderr)
            expected = {}
            for salt, index in sample:
                expected.setdefault(str(salt), {})[keys[index]] = "reference check failed"
        else:
            expected = out["digests"]
    failed, messages = check_points(measured, expected, keys)
    failed += crashed * len(keys)
    attempted = (len(measured) + crashed) * len(keys)
    for message in messages:
        print(f"MISMATCH {message}")

    metrics: Dict[str, dict] = {}
    lines = []
    if args.trace:
        values = {
            name: statistics.median(rep["layers"][name] if name in rep["layers"]
                                    else rep["model"][name] for rep in traced)
            for name, _unit in PER_LAYER
            if name != "trace.overhead_frac"
        }
        # Pairs share a salt, so their ratio cancels the trace's own cost.
        ratios = [t["wall_s"] / u["wall_s"] for t, u in zip(traced, reps)
                  if t["salt"] == u["salt"]]
        values["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:36s} {values[name]:14.6g} {unit}")
        lines.append(f"(medians of {len(traced)} traced repetitions; "
                     f"overhead from {len(ratios)} traced/untraced pairs)")
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [rep["wall_s"] for rep in reps],
            "sim_kips": [rep["instructions"] / 1e3 / rep["wall_s"] for rep in reps],
            "first_result_s": [rep["first_result_s"] for rep in reps],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        }
        for name, unit in END_TO_END:
            if name == "pass_frac":
                value = 1.0 - failed / attempted
                metrics[name] = {"value": value, "unit": unit}
                lines.append(f"{name:16s} {value:12.6g} {unit:9s} "
                             f"(fail_frac {failed / attempted:.6g}: "
                             f"{failed} of {attempted} points)")
                continue
            q1, median, q3 = quartiles(samples[name])
            metrics[name] = {"value": median, "unit": unit}
            lines.append(f"{name:16s} {median:12.6g} {unit:9s} "
                         f"(median of {len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g})")

    print(f"workload {workload.name}: seed {args.seed}, {len(keys)} points, "
          f"jobs {workload.jobs}, trace {args.trace}")
    for line in lines:
        print(line)
    by_salt = {rep["salt"]: rep["fig11_reduction"] for rep in measured if "fig11_reduction" in rep}
    if by_salt:
        model = {label: statistics.mean(r[label] for r in by_salt.values()) for label in PAPER_FIG11}
        print("model vs paper, Figure 11 mean processor energy-delay reduction: "
              + ", ".join(f"{label} {model[label] * 100:.1f}% (paper {paper * 100:.0f}%)"
                          for label, paper in PAPER_FIG11.items())
              + f" over {', '.join(workload.profiles)} at {len(by_salt)} salts. The model is "
              "not validated against hardware: tests/golden/ holds its own earlier output.")
    print(f"host: cpu_count {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy_version()}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
