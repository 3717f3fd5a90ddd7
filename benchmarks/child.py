"""One landau-packets CLI call in a fresh interpreter.

Usage: python3 child.py RESULT_JSON {setup,plain,trace} [CLI ARGS...]

The package must be importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH).  Writes a JSON object to RESULT_JSON with ``ready``, the
CLOCK_MONOTONIC reading once ``landau_packets.cli`` is imported and its
parser built, and, unless the mode is ``setup``, the CLI's exit code, the
wall time of ``cli.main`` and, in ``trace`` mode, the per-layer totals.
Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    result_path, mode, *argv = sys.argv[1:]
    import landau_packets
    from landau_packets import cli

    cli.build_parser()
    result = {"ready": time.monotonic(), "module": landau_packets.__file__, "exit": 0}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            result["exit"] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            result["exit"] = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.totals()
            result["untraced"] = tracer.missing
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
