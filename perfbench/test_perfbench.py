"""Tests of the benchmark's own code.

Run from the checkout root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.sim import runner  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Two tiny workloads (sim serial, miss-rate on a pool) in a private cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in [k for k in os.environ if k.startswith("REPRO_") and k != "REPRO_CACHE_DIR"]:
        monkeypatch.delenv(name)
    sim = workloads.Workload("tiny-sim", ("gcc", "swim"), workloads.fig11_configs,
                             "sim", "fast", 1, True, instructions=2_000)
    miss = workloads.Workload("tiny-miss", ("gcc", "swim"),
                              lambda: workloads.missrate_configs()[:4],
                              "missrate", "vector", 2, False, instructions=3_000)
    monkeypatch.setitem(workloads.WORKLOADS, sim.name, sim)
    monkeypatch.setitem(workloads.WORKLOADS, miss.name, miss)
    runner.clear_caches()
    yield tmp_path
    runner.clear_caches()


def run_child(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "out.json"
    assert child.main(["--out", str(out), "--spawned", "0", *args]) == 0
    return json.loads(out.read_text())


def wrapped_bindings() -> list:
    """Every perfbench wrapper reachable from a loaded ``repro`` module."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            values = value.values() if type(value) is dict else [value]
            if isinstance(value, type):
                values = list(vars(value).values()) + [value]
            found += [f"{name}.{key}" for v in values
                      if spans.is_wrapped(v) or getattr(v, "__name__", "") == "TracedPool"]
    return found


# ------------------------------------------------------------------ #
# Expected-output check
# ------------------------------------------------------------------ #


def test_matching_digests_pass(tiny):
    out = run_child(tiny, "--workload", "tiny-sim", "--salt", "0", "--trace", "0")
    failed, messages = run.check_points([out, out], {"0": dict(out["digests"])},
                                        workloads.WORKLOADS["tiny-sim"].keys())
    assert (failed, messages) == (0, [])


def test_corrupted_expected_digest_raises_fail_frac(tiny):
    out = run_child(tiny, "--workload", "tiny-sim", "--salt", "0", "--trace", "0")
    keys = workloads.WORKLOADS["tiny-sim"].keys()
    expected = dict(out["digests"])
    expected[keys[3]] = "0" * 20
    failed, messages = run.check_points([out, out], {"0": expected}, keys)
    assert failed == 2
    assert all(keys[3] in message for message in messages)


def test_repetitions_on_one_salt_must_agree_where_no_digest_is_committed():
    keys = ["a|x", "b|x"]
    first = {"salt": 4, "digests": {"a|x": "1", "b|x": "2"}}
    second = {"salt": 4, "digests": {"a|x": "1", "b|x": "3"}}
    other = {"salt": 5, "digests": {"a|x": "9", "b|x": "9"}}
    failed, messages = run.check_points([first, second, other], {"4": {"a|x": "1"}}, keys)
    assert failed == 1 and "b|x" in messages[0]


def test_committed_digests_cover_every_point_and_salt():
    expected = json.loads(run.EXPECTED.read_text())
    for name, workload in workloads.WORKLOADS.items():
        if name.startswith("tiny"):
            continue
        salts = {str(workload.salt(run.DEFAULT_SEED, rep)) for rep in range(workloads.MAX_REPS)}
        assert set(expected[name]) == salts
        for digests in expected[name].values():
            assert sorted(digests) == sorted(workload.keys())


def test_seed_picks_fresh_salts_per_repetition_only_for_sim_workloads():
    sim, miss = workloads.WORKLOADS["fig11-sim-fast"], workloads.WORKLOADS["missrate-sweep"]
    assert len({sim.salt(3, rep) for rep in range(workloads.MAX_REPS)}) == workloads.MAX_REPS
    assert {sim.salt(3, rep) for rep in range(4)}.isdisjoint(sim.salt(4, rep) for rep in range(4))
    assert {miss.salt(3, rep) for rep in range(4)} == {3}


def test_reference_tier_matches_the_fast_tier(tiny):
    timed = run_child(tiny, "--workload", "tiny-sim", "--salt", "5", "--trace", "0")
    sample = workloads.WORKLOADS["tiny-sim"].sample([5, 6])
    runner.clear_caches()
    ref = run_child(tiny, "--workload", "tiny-sim",
                    "--reference", ",".join(f"{s}:{i}" for s, i in sample))
    assert list(ref["digests"]) == ["5", "6"]
    assert all(timed["digests"][k] == v for k, v in ref["digests"]["5"].items())


# ------------------------------------------------------------------ #
# Span arithmetic
# ------------------------------------------------------------------ #


def span(id, parent, start, end, name="x", pid=1, **counts):
    return spans.Span(id, parent, name, start, end, pid, counts)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),   # overlaps span 2: covered time is 1..6
        span(4, 2, 2.0, 3.0),   # grandchild: only span 2 loses it
        span(5, 1, 9.0, 12.0),  # runs past its parent: clipped at 10
        span(1, None, 0.0, 2.0, pid=2),  # same id, other process
    ]
    own = spans.self_times(recorded)
    assert own[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[(1, 2)] == pytest.approx(2.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 4)] == pytest.approx(1.0)
    assert own[(2, 1)] == pytest.approx(2.0)


def test_layer_metrics_from_nested_spans():
    recorded = [
        span(1, None, 0.0, 1.0, "workload.get_trace"),
        span(2, 1, 0.0, 0.8, "workload.generate", instructions=1000),
        span(3, None, 1.0, 5.0, "sweep.pool", workers=2),
        span(4, 3, 4.0, 4.5, "sim.result_store"),
        span(1, None, 1.5, 3.5, "sim.execute", pid=7),
        span(2, 1, 1.5, 3.0, "sim.missrate", pid=7, accesses=100, tier_vector=1),
        span(3, 2, 2.0, 3.0, "sim.missrate", pid=7, accesses=100, tier_fast=1),
    ]
    layers = child.layer_metrics(recorded, owner=1, wall=6.0)
    assert layers["workload.generate_s"] == pytest.approx(0.8)
    assert layers["workload.generate_ns_per_instr"] == pytest.approx(0.8e9 / 1000)
    assert layers["sweep.prefetch_s"] == pytest.approx(1.0)
    assert layers["sweep.pool_s"] == pytest.approx(4.0)
    assert layers["sweep.worker_busy_frac"] == pytest.approx(2.0 / 8.0)
    assert layers["sim.missrate_s"] == pytest.approx(1.5)
    assert layers["sim.missrate_calls"] == 1
    assert layers["sim.missrate_ns_per_access"] == pytest.approx(1.5e9 / 100)
    assert layers["fastsim.vector_fallbacks"] == 1
    assert layers["fastsim.vector_fallback_frac"] == 1.0
    assert layers["bench.unattributed_s"] == pytest.approx(6.0 - 1.0 - 4.0)


# ------------------------------------------------------------------ #
# Wrappers
# ------------------------------------------------------------------ #


def test_untraced_run_installs_no_wrapper(tiny, monkeypatch):
    installed = []
    monkeypatch.setattr(spans.Tracer, "install", lambda self: installed.append(self))
    out = run_child(tiny, "--workload", "tiny-sim", "--salt", "0", "--trace", "0")
    assert installed == [] and "layers" not in out
    assert wrapped_bindings() == []


def test_traced_run_records_and_then_removes_every_wrapper(tiny):
    out = run_child(tiny, "--workload", "tiny-sim", "--salt", "0", "--trace", "1")
    assert wrapped_bindings() == []
    layers = out["layers"]
    assert layers["workload.generate_calls"] == 2
    assert layers["sim.result_stores"] == 8
    assert layers["sim.run_self_s"] > 0 and layers["sim.engine_build_s"] > 0
    assert layers["sim.missrate_calls"] == 0


def test_traced_pool_gathers_worker_spans(tiny):
    out = run_child(tiny, "--workload", "tiny-miss", "--salt", "0", "--trace", "1")
    assert wrapped_bindings() == []
    layers = out["layers"]
    assert layers["sim.missrate_calls"] == 8  # every point ran in a worker
    assert layers["sweep.pool_s"] > 0 and 0 < layers["sweep.worker_busy_frac"] <= 1
    assert layers["workload.artifact_stores"] == 2


def test_bench_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fig11-sim-fast", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_metric_lists_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
