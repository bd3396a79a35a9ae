"""The benchmark's own tests (tiny sizes, same code as the real runs).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pkgutil
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("demo16", "sweep_b", "telemetry_360p")


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _predictions() -> dict:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main([
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--file-mb", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1]), out


def test_layer_map_covers_every_module():
    import repro

    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    assert len(modules) > 50
    for name in modules:
        assert layers.layer_of(name) in layers.LAYERS
    assert set(layers.PACKAGE_LAYER.values()) | set(
        layers.MODULE_LAYER.values()) == set(layers.LAYERS)


def test_unmapped_module_fails_loudly():
    with pytest.raises(layers.UnmappedModuleError):
        layers.layer_of("json.decoder")
    from repro.sim.core import Simulator

    tracer = layers.Tracer().install()
    try:
        sim = Simulator()
        event = sim.event()
        event.callbacks.append(lambda _event: None)  # this module: unmapped
        event.succeed()
        with pytest.raises(layers.UnmappedModuleError):
            sim.run()
    finally:
        tracer.uninstall()


def test_benchmark_json_matches_contract_and_predictions():
    bench = _bench_json()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    predictions = _predictions()["per_layer"]
    names = {m["name"] for m in bench["per_layer"]}
    assert set(predictions) == names
    known = names | set(run.END_TO_END)
    for entry in predictions.values():
        assert set(entry["moves"]) <= known
        assert set(entry["on"]) | set(entry.get("unchanged_on", ())) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_pass(capsys, workload):
    result, out = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    bench = _bench_json()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "digest " in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_pass(capsys, workload):
    result, out = _run(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in _bench_json()["per_layer"])
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    tolerance = _predictions()["self_time_tolerance"]
    assert total == pytest.approx(metrics["trace.traced_s"], rel=tolerance)
    assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1.0)
    obs = ("obs.bus_events", "obs.trace_mb", "obs.wide_records", "obs.offline_s",
           "obs.calls", "obs.self_s")
    if workload == "telemetry_360p":
        assert all(metrics[name] > 0 for name in obs)
    else:
        assert all(metrics[name] == 0 for name in obs)
    for layer in ("sim", "net", "xia", "transport"):
        assert metrics[f"{layer}.calls"] > 0
    if workload == "sweep_b":
        assert metrics["experiments.parallel_efficiency"] > 0
        assert metrics["mobility.coverage_lookups"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
