"""Checks on the benchmark itself: repeatable counts and bytes, tracer rebinding.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run as entry  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", autouse=True)
def built_tables():
    return workloads.build_tables()


def traced_run(name, rounds):
    tracer = spans.Tracer()
    tracer.install()
    try:
        run = workloads.run_workload(name, SEED, rounds=rounds, tracer=tracer)
        tracer.check_rebound()
    finally:
        tracer.uninstall()
    return tracer, run


@pytest.mark.parametrize("name, rounds", [("sweep", 1), ("ensemble", 12)])
def test_one_seed_gives_identical_counts_and_allocation_bytes(name, rounds):
    units = spans.metric_units()
    seen = []
    for _ in range(2):
        tracer, run = traced_run(name, rounds)
        assert not run.check_failures
        layer = spans.layer_metrics(tracer.spans)
        counts = {k: v for k, v in layer.items() if units[k] == "count"}
        counts.update(run.counts)
        seen.append((counts, run.digest.hexdigest()))
    assert seen[0] == seen[1]
    assert seen[0][0]["tables.mmse_inverse.calls"] > 0
    untraced = workloads.run_workload(name, SEED, rounds=rounds)
    assert untraced.digest.hexdigest() == seen[0][1]


def test_wrapped_names_are_rebound_in_every_importing_module():
    tracer, _ = traced_run("ensemble", 1)
    sites = set(tracer.bindings["waterfill.solve_epoch"])
    assert {f"mercuryflow.{m}.solve_epoch" for m in ("waterfill", "offline", "online", "evaluation")} <= sites
    for name in spans.SPAN_NAMES:
        assert tracer.bindings[name], name


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == spans.metric_units()
    done = workloads.Run(elapsed_s=1.0, latencies_s=[0.5])
    reported = {k: u for k, (_, u) in entry.end_to_end(done, setup_s=1.0).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    # `ensemble-fresh` runs by name only: it counts known failures (README)
    assert names | {"ensemble-fresh"} == set(workloads.ROUNDS) == set(entry.WORKLOADS)
