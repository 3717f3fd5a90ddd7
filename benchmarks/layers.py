"""Per-layer spans and counters for a traced benchmark run.

The package is instrumented from outside: ``Tracer.install`` replaces each
timed public function of ``landau_packets`` with a wrapper wherever a module
holds a reference to it, so a call made through a name one module imported
from another (``evolution`` calls ``build_operator_band`` that way) is seen
too.  Spans are kept in memory as (name, parent, start, end) and reduced to
additive totals when the traced call ends; ``derive`` turns totals summed
over one repetition's CLI calls into the reported per-layer metrics.

This module imports nothing from the package at import time, so the
benchmark's ``run.py`` can read the metric names without loading numpy or scipy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import time
from collections import Counter

VERIFY_CHECKS = (
    "packet_normalization",
    "band_hermiticity",
    "structure_sums",
    "engine_closed_form",
    "factor_law",
    "invariants",
    "polarization_tensor",
    "bmt_match",
    "rk4_order",
    "bmt_drift",
    "orthonormality",
    "oracle_convergence",
    "determinism",
)
COMMANDS = ("trajectory", "converge", "verify", "oracle")

#: every reported per-layer metric with its unit
PER_LAYER = {
    "packets.build_s": "s",
    "packets.sums_s": "s",
    "packets.states": "count",
    "operators.band_s": "s",
    "operators.band_entries": "count",
    "evolution.expectation_s": "s",
    "evolution.evolve_s": "s",
    "evolution.closed_form_s": "s",
    "evolution.state_samples": "count",
    "classical.integrate_s": "s",
    "classical.rk4_steps": "count",
    "classical.step_us": "us",
    "laguerre.rule_s": "s",
    "laguerre.rule_orders": "count",
    "laguerre.rule_hit_ratio": "ratio",
    "laguerre.profile_s": "s",
    "trajectory.csv_s": "s",
    "trajectory.csv_rows": "count",
    "trajectory.csv_bytes": "bytes",
    "trajectory.compare_s": "s",
    **{f"verify.{check}_s": "s" for check in VERIFY_CHECKS},
    **{f"cli.{command}_s": "s" for command in COMMANDS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# spans reported as self time (duration minus direct children); every other
# span name is reported as busy time, counting nested spans of one name once
_SELF_SPANS = ("evolution.evolve",)


def band_entry_count(level_count: int, observable: str, kind: str) -> int:
    """Nonzero matrix elements of one observable's band over a window of
    ``level_count`` adjacent levels, for b_z != 0.

    Transverse components connect adjacent levels (two directions per
    adjacent pair); Pz is diagonal and spin preserving; Sz and S0 are
    diagonal with spin-preserving and spin-flip parts.  Spin-1/2 states
    double every count except the two level-diagonal spin-flip parts,
    which double it again.
    """
    adjacent = 2 * (level_count - 1)
    spins = 1 if kind == "scalar" else 2
    if observable in ("Px", "Py", "Sx", "Sy"):
        return spins * adjacent
    if observable == "Pz":
        return spins * level_count
    return 2 * spins * level_count


class Tracer:
    """Nested wall-clock spans plus integer counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._rule = None

    def wrap(self, name: str, fn, after=None):
        """Time every call of ``fn`` as span ``name``; ``after`` receives
        the counters, the result and the bound arguments of a call that
        returned."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            span = [name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    after(self.counts, result, bound.arguments)
                except (AttributeError, KeyError, TypeError):
                    # a changed signature or data type must not break the
                    # traced program; the counter then reads low
                    if f"{name} counter" not in self.missing:
                        self.missing.append(f"{name} counter")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the timed functions of every ``landau_packets`` module."""
        import landau_packets

        modules = [landau_packets] + [
            importlib.import_module(f"landau_packets.{info.name}")
            for info in pkgutil.iter_modules(landau_packets.__path__)
        ]
        by_name = {module.__name__.rsplit(".", 1)[-1]: module for module in modules}

        def patch(module_name: str, attr: str, span: str, after=None):
            original = getattr(by_name.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return None
            wrapper = self.wrap(span, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            return wrapper

        classical = by_name["classical"]

        def packet_states(counts, packet, args):
            counts["packets.states"] += len(packet.levels) * (1 if packet.kind == "scalar" else 2)

        def band_entries(counts, band, args):
            counts["operators.band_entries"] += band_entry_count(
                len(tuple(args["levels"])), args["observable"], args["kind"]
            )

        def state_samples(counts, traj, args):
            packet = args["packet"]
            spinor = packet.kind != "scalar"
            states = len(packet.levels) * (2 if spinor else 1)
            counts["evolution.state_samples"] += states * len(args["times"]) * (7 if spinor else 3)

        def rk4_steps(counts, traj, args):
            dt = args["dt"]
            if dt is None:
                dt = classical.default_step(args["h_field"], args["init"].u[0])
            grid = args["record_times"]
            if grid is None:
                steps = max(1, math.ceil(args["t_max"] / dt))
            else:
                grid = [float(t) for t in grid]
                steps = sum(
                    max(1, math.ceil((b - a) / dt - 1e-12)) for a, b in zip(grid[:-1], grid[1:])
                )
            counts["classical.rk4_steps"] += steps

        self._rule = getattr(by_name["laguerre"], "radial_rule", None)
        built = {"misses": 0}

        def rule_orders(counts, rule, args):
            misses = self._rule.cache_info().misses
            if misses > built["misses"]:
                counts["laguerre.rule_orders"] += args["order"]
            built["misses"] = misses

        def csv_size(counts, _, args):
            counts["trajectory.csv_rows"] += len(args["self"].times)
            counts["trajectory.csv_bytes"] += os.path.getsize(args["path"])

        patch("packets", "build_spinor_packet", "packets.build", packet_states)
        patch("packets", "build_scalar_packet", "packets.build", packet_states)
        patch("packets", "structure_sums", "packets.sums")
        patch("operators", "build_operator_band", "operators.band", band_entries)
        patch("evolution", "expectation_series", "evolution.expectation")
        patch("evolution", "evolve_packet", "evolution.evolve", state_samples)
        for attr in ("closed_form_trajectory", "closed_form_momentum", "closed_form_spin"):
            patch("evolution", attr, "evolution.closed_form")
        patch("classical", "bmt_integrate", "classical.integrate", rk4_steps)
        patch("laguerre", "radial_rule", "laguerre.rule", rule_orders)
        patch("laguerre", "laguerre_I", "laguerre.profile")
        patch("trajectory", "compare_trajectories", "trajectory.compare")
        trajectory_cls = by_name["trajectory"].Trajectory
        trajectory_cls.to_csv = self.wrap("trajectory.csv", trajectory_cls.to_csv, csv_size)

        # run_all_checks iterates ALL_CHECKS and dispatches on identity with
        # check_packet_normalization; patch() replaced that global with the
        # same wrapper the rebuilt tuple holds, so the dispatch still matches
        verify = by_name["verify"]
        wrapped = []
        for check in verify.ALL_CHECKS:
            name = check.__name__.removeprefix("check_")
            if name not in VERIFY_CHECKS:
                self.missing.append(f"verify.{check.__name__}")
            wrapped.append(patch("verify", check.__name__, f"verify.{name}") or check)
        verify.ALL_CHECKS = tuple(wrapped)

        for command in COMMANDS:
            patch("cli", f"cmd_{command}", f"cli.{command}")

    def totals(self) -> dict:
        """Additive per-layer totals of everything traced so far."""
        out = Counter()
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end) in enumerate(self.spans):
            if name in _SELF_SPANS:
                out[name] += end - start - child_time[index]
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                out[name] += end - start
        out.update(self.counts)
        if self._rule is not None:
            info = self._rule.cache_info()
            out["laguerre.rule_hits"] = info.hits
            out["laguerre.rule_misses"] = info.misses
        out["trace.spans"] = len(self.spans)
        return dict(out)


def derive(totals: dict) -> dict:
    """Per-layer metrics from totals summed over one repetition's calls.

    ``trace.overhead_s`` needs an untraced repetition and is filled in by
    ``run.py``.
    """
    out = {
        name: float(totals.get(name[:-2] if name.endswith("_s") else name, 0.0))
        for name in PER_LAYER
    }
    steps = totals.get("classical.rk4_steps", 0)
    if steps:
        out["classical.step_us"] = 1e6 * totals.get("classical.integrate", 0.0) / steps
    lookups = totals.get("laguerre.rule_hits", 0) + totals.get("laguerre.rule_misses", 0)
    if lookups:
        out["laguerre.rule_hit_ratio"] = totals["laguerre.rule_hits"] / lookups
    return out
