"""Compare the command line's outputs at this checkout with another checkout's.

    python tools/same_outputs.py PARENT_CHECKOUT

The calls are the CLI calls of both benchmark workloads at seeds 1, 7 and
13, read from ``benchmarks/run.make_workload``, the default ``trajectory``,
``converge``, ``verify`` and ``oracle``, and ten edge calls: the drift gate
of ``trajectory`` (exit 4), the step caps of ``trajectory`` and ``verify``
(exit 2), a ``trajectory`` whose sample count alone passes the step cap
(exit 2), a failing ``verify`` (exit 3), ``verify`` and a coarse-grid
``trajectory`` where the anomalous rates set the order-8 step, a
``trajectory`` at level 10^5 and anomaly 5, where the order-8 maps change
most with the momentum's length, an exact-mode ``converge`` whose packets
span two level chunks, and the paper-scale exact-mode ``trajectory``:
10^4 levels at level 10^5 over one anomalous period on 8 192 samples.
Each call runs in a fresh interpreter against the ``src`` directory of
PARENT_CHECKOUT and of this checkout, once with one BLAS thread and once
with two, writing into ``out`` under its own temporary directory, so both
sides print and record the same output path.  The exit code, stdout,
stderr and every output file are compared byte for byte.  Every
difference is listed, and the exit code is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7, 13)
THREADS = ("1", "2")
DEFAULT_CALLS = (["trajectory"], ["converge"], ["verify"], ["oracle"])
EDGE_CALLS = (
    ["trajectory", "--anomaly", "0", "--n", "100000", "--t-max", "2e6", "--samples", "64"],
    ["trajectory", "--t-max", "1e12"],
    ["trajectory", "--samples", "10000002"],
    ["verify", "--anomaly", "1e-7"],
    ["verify", "--n", "100000", "--anomaly", "0"],
    ["verify", "--anomaly", "5"],
    ["trajectory", "--anomaly", "5", "--samples", "16", "--t-max", "30"],
    ["trajectory", "--n", "100000", "--anomaly", "5", "--samples", "64", "--t-max", "5000"],
    ["converge", "--mode", "exact", "--n", "3000", "--n-list", "2000,2001"],
    ["trajectory", "--mode", "exact", "--n", "100000", "--levels", "10000", "--samples", "8192", "--t-max", "27101"],
)


def cli_calls() -> list[tuple[str, list[str]]]:
    """(label, argv) of every compared call."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run

    calls = []
    for name in run.WORKLOADS:
        for seed in SEEDS:
            for argv in run.make_workload(name, seed).calls:
                calls.append((f"{name} seed {seed} {argv[0]}", argv))
    calls += [(f"default {argv[0]}", argv) for argv in DEFAULT_CALLS]
    calls += [(f"edge {' '.join(argv)}", argv) for argv in EDGE_CALLS]
    return calls


def run_call(src: Path, argv: list[str], threads: str) -> dict[str, bytes]:
    """The exit code, stdout, stderr and output files of one call."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
    env.pop("SEMICLASSICAL_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as work:
        result = subprocess.run(
            [sys.executable, "-m", "landau_packets.cli", *argv, "--output-dir", "out"],
            cwd=work, env=env, capture_output=True,
        )
        out = Path(work, "out")
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
    return {
        "exit code": str(result.returncode).encode(),
        "stdout": result.stdout,
        "stderr": result.stderr,
        **{f"file {name}": data for name, data in files.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src directory is compared")
    args = parser.parse_args(argv)
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "landau_packets").is_dir():
        parser.error(f"{args.parent}: no src/landau_packets")

    calls = cli_calls()
    differences = []
    for label, call in calls:
        for threads in THREADS:
            before = run_call(parent_src, call, threads)
            after = run_call(ROOT / "src", call, threads)
            for key in sorted(before.keys() | after.keys()):
                if before.get(key) != after.get(key):
                    differences.append(f"{label} ({threads} BLAS threads): {key} differs")
    for line in differences:
        print(line)
    runs = len(calls) * len(THREADS)
    print(f"{len(differences)} differences over {len(calls)} calls x {len(THREADS)} thread counts ({runs} pairs of runs)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
