"""Smoke test of ``tools/verdict_map.py`` on two configurations."""

import csv
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def verdict_map():
    spec = importlib.util.spec_from_file_location("verdict_map", ROOT / "tools" / "verdict_map.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_holds_every_verdict_configuration(verdict_map):
    from test_acceptance import VERDICTS

    assert {tuple(param.values) for param in VERDICTS} <= set(verdict_map.GRID)
    assert len(verdict_map.GRID) == 1152


def test_two_configurations(verdict_map, tmp_path):
    default = (0.1, 1.16141e-3, 0.5, 100, 1)
    drifting = (0.1, 0.0, 0.5, 100_000, 1)
    # the levels fall from n = 1 to 2 on this branch, so validate rejects it
    falling = (10.0, 5.0, 1000.0, 1, -1)
    path = tmp_path / "map.csv"
    assert verdict_map.write_map(path, [default, drifting, falling]) == 27
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == list(verdict_map.COLUMNS)

    first = rows[:13]
    assert [row["check"] for row in first][:2] == ["packet-normalization", "band-hermiticity"]
    assert all(row["passed"] == "1" and row["reason"] == "" for row in first)
    # E^2 = 1 + b_z^2 + 4 h n to within the anomaly's shift
    assert float(first[0]["E"]) == pytest.approx(41.25**0.5, rel=1e-3)

    drift = {row["check"]: row for row in rows[13:26]}["bmt-invariant-drift"]
    assert drift["passed"] == "0"
    assert float(drift["margin"]) > 1
    unit = 2.0**-52 * float(drift["E"]) ** 2
    assert float(drift["roundoff_units"]) == pytest.approx(float(drift["residual"]) / unit, rel=1e-12)

    assert rows[26]["check"] == "" and rows[26]["reason"].startswith("anomaly, h, n: the levels fall")
