"""Benchmark of the landau-packets command line.

    python3 benchmarks/run.py --workload {engine-scale,horizon-verify,all}
                              [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  Each
repetition runs the workload's CLI calls one after another, each in a fresh
interpreter with a single BLAS/OpenMP thread, writing into a temporary
directory under ``.bench_tmp`` in the checkout, and then checks the output
files.  Repetitions repeat until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
one untraced repetition is followed by traced ones, the per-layer metrics
are printed, and the first traced repetition's output files must equal the
untraced one's byte for byte.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

WORKLOADS = ("engine-scale", "horizon-verify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}

H = 0.1
ANOMALY = 1.16141e-3
CSV_HEADER = "t,Px,Py,Pz,S0,Sx,Sy,Sz,resSP,resSS"

#: interpreter starts timed before the repetitions, on top of one per CLI call
SETUP_PROBES = 3
#: every run ends within this many seconds of its start
RUN_LIMIT_S = 170.0
#: one BLAS/OpenMP thread (no more than the cores) keeps timings steady on a
#: shared machine and matches the serial Python parts of the program
THREADS = "1"


class GateFailure(Exception):
    """An output file breaks a documented property."""


@dataclass
class Workload:
    name: str
    calls: list[list[str]]
    gate: Callable[[Path], None]
    seeded: str


def seeded_values(seed: int) -> tuple[float, int]:
    """Longitudinal momentum b_z in [0.2, 0.8] and helicity sign."""
    rng = random.Random(seed)
    return round(rng.uniform(0.2, 0.8), 6), rng.choice((1, -1))


def b_perp(n: int) -> float:
    """Spin-1/2 transverse momentum of level n."""
    return 2.0 * math.sqrt(H * n)


def anomalous_period(n: int, b_z: float, anomaly: float) -> float:
    """Lab-time period of the classical anomalous precession at level n."""
    b = math.sqrt(1.0 + b_perp(n) ** 2)
    return 2.0 * math.pi * math.hypot(b_z, b) / (2.0 * anomaly * H * b)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The CLI calls of one workload; ``tiny`` shrinks them for tests."""
    b_z, epsilon = seeded_values(seed)
    anomaly = 0.02 if tiny and name == "horizon-verify" else ANOMALY
    common = ["--h", repr(H), "--anomaly", repr(anomaly), "--b-z", repr(b_z), "--epsilon", str(epsilon)]
    seeded = f"b_z={b_z} epsilon={epsilon}"
    if name == "engine-scale":
        n, n_list, samples = (1000, [3, 10], 64) if tiny else (10000, [3, 100, 1000, 10000], 256)
        calls = [[
            "converge", *common, "--mode", "uniform-gap", "--n", str(n),
            "--n-list", ",".join(map(str, n_list)), "--samples", str(samples),
        ]]
        return Workload(name, calls, lambda out: gate_engine_scale(out, n, n_list), seeded)
    if name == "horizon-verify":
        n, levels, samples, periods = (100, 5, 64, 1 / 32) if tiny else (100, 100, 8192, 1.0)
        n_list = [10, 20] if tiny else list(range(20, 201, 20))
        t_max = periods * anomalous_period(n, b_z, anomaly)
        calls = [
            [
                "trajectory", *common, "--mode", "exact", "--n", str(n), "--levels", str(levels),
                "--samples", str(samples), "--t-max", repr(t_max),
            ],
            ["verify", *common],
            ["oracle", *common, "--n-list", ",".join(map(str, n_list))],
        ]

        def gate(out: Path) -> None:
            gate_horizon_exact(out, n, levels, samples, b_z)
            gate_self_check(out, n_list)

        return Workload(name, calls, gate, seeded)
    raise ValueError(f"unknown workload {name!r}")


def read_csv(path: Path, header: str, rows: int) -> list[list[float]]:
    """Numeric rows of a CSV that must have ``header``, ``rows`` data rows
    and only finite values."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise GateFailure(f"{path.name}: header {lines[:1]} is not {header!r}")
    width = header.count(",") + 1
    data = []
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        if len(values) != width or not all(math.isfinite(v) for v in values):
            raise GateFailure(f"{path.name}: malformed or non-finite row {line!r}")
        data.append(values)
    if len(data) != rows:
        raise GateFailure(f"{path.name}: {len(data)} rows, expected {rows}")
    return data


def gate_engine_scale(out: Path, n: int, n_list: list[int]) -> None:
    data = read_csv(out / "converge.csv", "levels,factor,factor_defect,classical_gap", len(n_list))
    for (levels, _, defect, gap), expected in zip(data, n_list):
        if levels != expected:
            raise GateFailure(f"converge.csv: row for {levels} levels, expected {expected}")
        if defect > 1e-10:
            raise GateFailure(f"converge.csv: factor_defect {defect:.3e} > 1e-10 at N={expected}")
        ideal = b_perp(n) / expected
        if abs(gap - ideal) > gap_rtol(expected) * ideal:
            raise GateFailure(f"converge.csv: classical_gap {gap!r} is not b_perp/N = {ideal!r}")


def gap_rtol(levels: int) -> float:
    """Relative tolerance on the classical gap b_perp/N, as the package's
    own tests set it: 1e-10 up to 10^3 levels and 1e-9 beyond.  At 10^4
    levels summation roundoff of about 1e-14 b_perp, the size of
    factor_defect, is already 1e-10 of the gap."""
    return 1e-10 if levels <= 1000 else 1e-9


def gate_horizon_exact(out: Path, n: int, levels: int, samples: int, b_z: float) -> None:
    tables = {
        name: read_csv(out / name, CSV_HEADER, samples)
        for name in ("trajectory.csv", "closed_form.csv", "classical.csv")
    }
    engine, closed = tables["trajectory.csv"], tables["closed_form.csv"]
    start = max(abs(a - b) for a, b in zip(engine[0][:8], closed[0][:8]))
    if start > 1e-10:
        raise GateFailure(f"engine and closed form differ by {start:.3e} at t = 0")
    radius = (levels - 1) / levels * b_perp(n) * (1.0 + 1e-12)
    for name, rows in tables.items():
        drift = max(abs(row[3] - b_z) for row in rows)
        if drift > 1e-12:
            raise GateFailure(f"{name}: Pz departs from b_z by {drift:.3e}")
        if name != "classical.csv":
            widest = max(math.hypot(row[1], row[2]) for row in rows)
            if widest > radius:
                raise GateFailure(f"{name}: |P_perp| {widest!r} exceeds (N-1)/N b_perp")
    for name in ("manifest.json", "comparison.json"):
        json.loads((out / name).read_text())


def gate_self_check(out: Path, n_list: list[int]) -> None:
    report = json.loads((out / "verify.json").read_text())
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        raise GateFailure(f"verify.json: failed checks {failed}")
    rows = read_csv(out / "oracle.csv", "n,rel_err_x,rel_err_y,err_z", len(n_list))
    logs_n = [math.log(row[0]) for row in rows]
    for column, label in ((1, "x"), (2, "y")):
        slope = statistics.linear_regression(logs_n, [math.log(row[column]) for row in rows]).slope
        if abs(slope + 1.0) > 0.1:
            raise GateFailure(f"oracle.csv: decay exponent {label} {slope:.4f} not within 0.1 of -1")


@dataclass
class Repetition:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    totals: Counter = field(default_factory=Counter)
    duration_s: float = 0.0
    out: Path | None = None


class Runner:
    """Starts the fresh interpreters of one benchmark run, one at a time."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self.environment: dict = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = THREADS
        self.env.pop("SEMICLASSICAL_OUTPUT_DIR", None)

    def child(self, mode: str, cli_args: list[str], cwd: Path) -> dict:
        """Run child.py once; the result carries ``setup_s`` or, if the
        interpreter died before reporting, only ``crashed``."""
        result_path = cwd / "child.json"
        start = time.monotonic()
        try:
            with open(cwd / "child.log", "ab") as log:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args],
                    cwd=cwd, env=self.env, stdout=log, stderr=log,
                    timeout=max(1.0, self.deadline - start),
                )
        except subprocess.TimeoutExpired:
            return {"crashed": "killed at the run's time limit"}
        try:
            result = json.loads(result_path.read_text())
            result_path.unlink()
        except (OSError, ValueError):
            tail = (cwd / "child.log").read_text(errors="replace").strip().splitlines()[-3:]
            return {"crashed": f"exit {proc.returncode}: " + " / ".join(tail)}
        result["setup_s"] = result["ready"] - start
        self.environment = result["environment"]
        return result

    def check_source(self) -> None:
        """Start one untimed interpreter, which also fills the bytecode
        cache, and insist the package comes from this checkout."""
        result = self.child("setup", [], self.scratch)
        if "crashed" in result:
            raise SystemExit(f"cannot start the package: {result['crashed']}")
        module = Path(result["module"])
        if SRC.resolve() not in module.resolve().parents:
            raise SystemExit(f"landau_packets was imported from {module}, not from {SRC}")

    def repetition(self, workload: Workload, mode: str) -> Repetition:
        start = time.monotonic()
        rep = Repetition(out=Path(tempfile.mkdtemp(dir=self.scratch)))
        for cli_args in workload.calls:
            result = self.child(mode, [*cli_args, "--output-dir", "out"], rep.out)
            if "crashed" in result:
                rep.errors.append(f"{cli_args[0]} died: {result['crashed']}")
                break
            rep.setups.append(result["setup_s"])
            rep.wall_s += result["wall_s"]
            rep.peak_rss_mb = max(rep.peak_rss_mb, result["peak_rss_mb"])
            rep.totals.update(result.get("layers", {}))
            for name in result.get("untraced", []):
                print(f"warning: {name} not traced, its layer metric reads low", file=sys.stderr)
            if result["exit"] != 0:
                rep.errors.append(f"{cli_args[0]} exited {result['exit']}")
                break
        else:
            try:
                workload.gate(rep.out / "out")
            except (GateFailure, OSError, ValueError, KeyError) as exc:
                rep.errors.append(f"output check: {exc}")
        rep.duration_s = time.monotonic() - start
        return rep


def output_differences(a: Path, b: Path) -> list[str]:
    """Files that differ between two output directories; the manifest's
    wall-clock ``timestamp`` is ignored."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file sets {names_a} and {names_b}"]
    differ = []
    for name in names_a:
        left, right = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "manifest.json":
            left, right = (json.loads(x) for x in (left, right))
            left.pop("timestamp", None)
            right.pop("timestamp", None)
        if left != right:
            differ.append(name)
    return differ


def measure(workload: Workload, seconds: float, trace: bool, deadline: float) -> dict:
    """One benchmark run of a workload: repetitions for ``seconds``, then
    the result object and a readable summary under ``summary``."""
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        runner = Runner(scratch, deadline)
        runner.check_source()
        setups = [] if trace else [runner.child("setup", [], scratch)["setup_s"] for _ in range(SETUP_PROBES)]
        reference = runner.repetition(workload, "plain") if trace else None
        reps: list[Repetition] = []
        start = time.monotonic()
        while True:
            rep = runner.repetition(workload, "trace" if trace else "plain")
            if trace and not reps and not (rep.errors or reference.errors):
                differ = output_differences(reference.out / "out", rep.out / "out")
                if differ:
                    rep.errors.append(f"traced outputs differ from untraced: {differ}")
            shutil.rmtree(rep.out)
            reps.append(rep)
            # stop at the repetition boundary nearest to ``seconds``
            now = time.monotonic()
            if now - start + 0.5 * rep.duration_s >= seconds:
                break
            if now + max(r.duration_s for r in reps) > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    done = reps + ([reference] if reference else [])
    failed = sum(1 for rep in done if rep.errors)
    timed = [rep for rep in reps if rep.setups]
    if not timed:
        raise SystemExit(f"{workload.name}: no repetition ran: {reps[0].errors}")
    for index, rep in enumerate(done):
        for error in rep.errors:
            print(f"{workload.name} repetition {index} failed: {error}", file=sys.stderr)
    if trace:
        per_rep = [layers.derive(rep.totals) for rep in timed]
        values = {name: statistics.median(r[name] for r in per_rep) for name in layers.PER_LAYER}
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in timed) - reference.wall_s
        units = layers.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups + [s for rep in timed for s in rep.setups]),
            "wall_s": statistics.median(rep.wall_s for rep in timed),
            "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in timed),
            "success_rate": (len(done) - failed) / len(done),
        }
        units = END_TO_END
    summary = [
        f"workload {workload.name} ({workload.seeded}); "
        + " then ".join(" ".join(call) for call in workload.calls),
        f"  repetitions: {len(done)} attempted, {failed} failed, error_rate {failed / len(done):.4g}"
        + (f"; wall_s is the median of {len(timed)}, setup_s of {len(setups) + sum(len(r.setups) for r in timed)}"
           " interpreter starts" if not trace else f"; traced medians of {len(timed)}"),
        *(f"  {name} {value:.6g} {units[name]}" for name, value in values.items()),
        "  repetition wall_s " + " ".join(f"{rep.wall_s:.4g}" for rep in timed),
        "  environment " + json.dumps({"cores": os.cpu_count(), "threads": int(THREADS), **runner.environment}),
    ]
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "landau_packets" / "cli.py").is_file():
        print(f"error: no landau_packets sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        workload = make_workload(name, args.seed, tiny=args.tiny)
        results[name] = measure(workload, args.seconds, bool(args.trace), deadline)
        print("\n".join(results[name].pop("summary")), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
