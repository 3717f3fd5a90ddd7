"""Map ``verify``'s verdict over a fixed logarithmic grid of configurations.

    python tools/verdict_map.py OUTPUT.csv

The grid is the Cartesian product of these axes, 1 152 configurations
(h, anomaly, b_z, n, epsilon):

    h        1e-8, 1e-3, 0.1, 0.5, 2, 10
    anomaly  0, 1.16141e-3, 1, 5
    b_z      0, 0.5, 100, 1000, 3000, 40000
    n        1, 100, 1e5, 3e5
    epsilon  -1, +1

Each axis spans its range in steps of about a decade or less, and the
grid contains every configuration of
``tests/test_acceptance.py::test_verify_verdict``.  Each configuration
runs ``verify.run_all_checks`` as ``verify`` does, after the same
``RunConfig.validate``.  A configuration that ``validate`` or a check's own
input guard rejects (``DomainError``) is skipped, and its row records the
reason.  Every other configuration writes one row per check:

    h, anomaly, b_z, n, epsilon   the configuration
    E                             the reference energy energy_spinor(n, epsilon)
    check                         the check's name
    passed                        1 or 0
    residual, tolerance, margin   as in verify.json, empty where None
    roundoff_units                residual / (u * E^2), u the double's epsilon;
                                  a scale only where the residual is an
                                  error (oracle-convergence's is an exponent)
    reason                        why the configuration was skipped

Most configurations take 0.03-0.2 s on one core; the largest anomalous
rates take up to 5 s, and the whole grid ran in under 9 minutes on a 2-core
VM.  The rows come in grid order, and every value is written with 17
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from landau_packets import verify  # noqa: E402
from landau_packets.cli import RunConfig  # noqa: E402
from landau_packets.errors import DomainError  # noqa: E402
from landau_packets.kinematics import energy_spinor  # noqa: E402

H = (1e-8, 1e-3, 0.1, 0.5, 2.0, 10.0)
ANOMALY = (0.0, 1.16141e-3, 1.0, 5.0)
B_Z = (0.0, 0.5, 100.0, 1000.0, 3000.0, 40000.0)
N = (1, 100, 100_000, 300_000)
EPSILON = (-1, 1)

GRID = tuple(itertools.product(H, ANOMALY, B_Z, N, EPSILON))

COLUMNS = (
    "h", "anomaly", "b_z", "n", "epsilon", "E", "check", "passed",
    "residual", "tolerance", "margin", "roundoff_units", "reason",
)


def _number(value) -> str:
    return "" if value is None else f"{value:.17g}"


def verdict_rows(config: tuple[float, float, float, int, int]) -> list[dict[str, str]]:
    """The rows of one configuration (h, anomaly, b_z, n, epsilon): one per
    check, or one giving the reason it was skipped."""
    h, anomaly, b_z, n, epsilon = config
    fields = {
        "h": _number(h), "anomaly": _number(anomaly), "b_z": _number(b_z), "n": str(n), "epsilon": str(epsilon),
    }
    run = RunConfig(h=h, anomaly=anomaly, b_z=b_z, n=n, epsilon=epsilon)
    try:
        run.validate()
        report = verify.run_all_checks(run.field, n, epsilon)
    except DomainError as exc:
        return [{**fields, "reason": str(exc)}]
    energy = energy_spinor(run.field, n, epsilon)
    unit = sys.float_info.epsilon * energy**2
    return [
        {
            **fields,
            "E": _number(energy),
            "check": check.name,
            "passed": str(int(bool(check.passed))),
            "residual": _number(check.residual),
            "tolerance": _number(check.tolerance),
            "margin": _number(check.margin),
            "roundoff_units": "" if check.residual is None else _number(check.residual / unit),
        }
        for check in report.checks
    ]


def write_map(path: Path, configs=GRID) -> int:
    """Write the rows of ``configs`` to ``path``; the number of rows."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        for config in configs:
            for row in verdict_rows(config):
                writer.writerow(row)
                rows += 1
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="CSV file to write")
    args = parser.parse_args(argv)
    rows = write_map(args.output)
    print(f"wrote {rows} rows over {len(GRID)} configurations to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
