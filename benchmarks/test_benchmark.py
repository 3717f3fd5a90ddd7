"""Tests of the benchmark itself, on shrunken workloads.

Run with ``python -m pytest benchmarks``; each test starts a few fresh
interpreters, so the module takes some seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import pytest

import layers
import run


def _final_json(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--tiny", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(workload: run.Workload) -> dict:
    return run.measure(workload, seconds=0, trace=False, deadline=time.monotonic() + 120)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_tiny_run_of_every_workload_reports_every_metric():
    result = _final_json("--workload", "all", "--seed", "5", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(run.WORKLOADS)
    expected = {f"{w}.{m}": unit for w in run.WORKLOADS for m, unit in run.END_TO_END.items()}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_layers_and_matches_untraced_outputs():
    # correct=true includes the byte comparison of traced and untraced outputs
    result = _final_json("--workload", "all", "--seed", "6", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m}": unit for w in run.WORKLOADS for m, unit in layers.PER_LAYER.items()}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert metrics["engine-scale.operators.band_entries"] > 0
    assert metrics["horizon-verify.classical.rk4_steps"] > 0
    # the trajectory call writes three 64-row CSVs; verify writes more
    assert metrics["horizon-verify.trajectory.csv_rows"] > 3 * 64
    assert metrics["horizon-verify.laguerre.rule_orders"] > 0
    assert all(metrics[f"horizon-verify.verify.{check}_s"] > 0 for check in layers.VERIFY_CHECKS)


def test_perturbed_verify_counts_as_failure():
    workload = run.make_workload("horizon-verify", seed=7, tiny=True)
    verify = next(call for call in workload.calls if call[0] == "verify")
    verify.append("--perturb")
    result = _measure(workload)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_corrupted_output_counts_as_failure():
    workload = run.make_workload("engine-scale", seed=8, tiny=True)
    check = workload.gate

    def corrupt_then_check(out):
        path = out / "converge.csv"
        path.write_text(path.read_text().replace("\n3,", "\n3,nan,", 1))
        check(out)

    workload.gate = corrupt_then_check
    result = _measure(workload)
    assert result["failed"] == result["attempted"] >= 1 and not result["correct"]


def test_output_comparison_ignores_only_the_manifest_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, stamp in ((a, "2026-01-01"), (b, "2026-01-02")):
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"timestamp": stamp, "n": 1}))
        (d / "trajectory.csv").write_text("t\n0\n")
    assert run.output_differences(a, b) == []
    (b / "trajectory.csv").write_text("t\n1\n")
    assert run.output_differences(a, b) == ["trajectory.csv"]


@pytest.mark.parametrize("kind", ["scalar", "spinor"])
def test_band_entry_count_matches_the_band(kind):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from landau_packets import FieldConfig, build_operator_band
    from landau_packets.operators import MOMENTUM_OBSERVABLES, OBSERVABLES

    cfg = FieldConfig(h=0.1, b_z=0.4)
    for observable in MOMENTUM_OBSERVABLES if kind == "scalar" else OBSERVABLES:
        band = build_operator_band(range(8, 15), observable, cfg, 11, kind=kind)
        if not hasattr(band, "entries"):
            pytest.skip("the band no longer stores its elements as entries")
        assert layers.band_entry_count(7, observable, kind) == len(band.entries)


def test_seed_leaves_the_amount_of_work_unchanged():
    # the horizon is one anomalous period, so the RK4 substeps per sample
    # interval (default step: 1024 per classical cyclotron period) are fixed
    steps = set()
    for seed in range(20):
        b_z = run.seeded_values(seed)[0]
        workload = run.make_workload("horizon-verify", seed)
        args = workload.calls[0]
        t_max = float(args[args.index("--t-max") + 1])
        samples = int(args[args.index("--samples") + 1])
        gamma = math.hypot(b_z, math.sqrt(1.0 + run.b_perp(100) ** 2))
        dt = 2.0 * math.pi * gamma / (2.0 * run.H * 1024)
        steps.add((samples - 1) * math.ceil(t_max / samples / dt - 1e-12))
    assert len(steps) == 1 and 1.3e5 < steps.pop() < 1.5e5
