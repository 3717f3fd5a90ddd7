"""Command-line front end.

Subcommands:

    trajectory   run the engine, the closed forms and the classical
                 integrator on one configuration; write CSVs, a manifest
                 and a comparison summary
    converge     sweep the level count and tabulate the contrast factor
                 and the gap to the classical motion
    verify       run the self-verification suite, write a JSON report
    oracle       quadrature vs closed-form convergence of the exact
                 momentum matrix elements

Configuration comes from flags, optionally merged over a flat key=value
file (flags win), read as UTF-8.  ``READS`` lists the keys each command
reads and checks: the physical ones for all, the time grid and energy model
for ``trajectory`` and ``converge``, the level count for ``trajectory``, the
seed for ``verify``.  The file may set any key; a command ignores those it
does not read, but not an unknown key or a mistyped value.  The environment
variable SEMICLASSICAL_OUTPUT_DIR sets the default output directory; an
empty one, or one a non-directory blocks, is rejected before any work, and
an OSError while writing is reported as a configuration error.  Exit codes:
0 success, 1 stdout closed before the command finished printing (no
traceback; the files written so far stay), 2 configuration error (an
argument argparse rejects included, in one line), 3 verification failure,
4 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, classical, evolution, laguerre, packets, verify
from .errors import AccuracyError, DomainError, IntegrationAccuracyError
from .kinematics import DEFAULT_ANOMALY, FieldConfig, SpinKinematics, energy_spinor
from .trajectory import compare_trajectories, write_table

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_ACCURACY = 4

#: invariant drift of the classical run beyond this aborts ``trajectory``
DRIFT_LIMIT = 1e-6
#: the most time samples any command takes: every sample interval costs the
#: classical integrator at least one step, and the count is checked before
#: any grid is built
MAX_SAMPLES = classical.MAX_STEPS + 1
#: the most levels in one packet, 100 times the paper's 10^4: building and
#: evolving a packet holds about 80 bytes and takes about 3 us per level, and
#: the count is checked before any packet is built
MAX_LEVELS = 10**6


@dataclass
class RunConfig:
    h: float = 0.1
    anomaly: float = DEFAULT_ANOMALY
    b_z: float = 0.5
    n: int = 100
    levels: int = 3
    epsilon: int = 1
    mode: str = evolution.UNIFORM_GAP
    t_max: float | None = None
    samples: int = 256
    seed: int = 0
    output_dir: str = "."

    def validate(self, command: str) -> None:
        """Reject a configuration ``command`` cannot run: check the keys it
        reads, and the gap from level n to n+1 if it is in EVOLVES_AT_N."""
        reads = READS[command]
        FieldConfig(h=self.h, anomaly=self.anomaly, b_z=self.b_z)  # checks h, anomaly
        if self.n < 1:
            raise DomainError(f"n: must be >= 1, got {self.n}")
        if "levels" in reads and self.levels < 1:
            raise DomainError(f"levels: must be >= 1, got {self.levels}")
        if "levels" in reads and self.levels > MAX_LEVELS:
            raise DomainError(f"levels: must be <= {MAX_LEVELS}, got {self.levels}")
        if self.epsilon not in (-1, 1):
            raise DomainError(f"epsilon: must be +1 or -1, got {self.epsilon}")
        if "mode" in reads and self.mode not in (evolution.UNIFORM_GAP, evolution.EXACT):
            raise DomainError(f"mode: must be 'uniform-gap' or 'exact', got {self.mode!r}")
        if "samples" in reads and self.samples < 2:
            raise DomainError(f"samples: must be >= 2, got {self.samples}")
        if "samples" in reads and self.samples > MAX_SAMPLES:
            raise DomainError(
                f"samples: must be <= {MAX_SAMPLES}, one more than the classical integrator's "
                f"step cap {classical.MAX_STEPS}, got {self.samples}"
            )
        if "t_max" in reads and self.t_max is not None and not (math.isfinite(self.t_max) and self.t_max > 0):
            raise DomainError(f"t_max: must be finite and > 0, got {self.t_max}")
        if "seed" in reads and self.seed < 0:
            raise DomainError(f"seed: must be >= 0, got {self.seed}")
        try:
            energies = [energy_spinor(self.field, m, z) for m in (self.n, self.n + 1) for z in (-1, 1)]
        except OverflowError:
            energies = [math.inf]
        if not all(map(math.isfinite, energies)):
            raise DomainError(
                f"h, anomaly, n: the level energies at n={self.n} and n+1 overflow "
                f"at h={self.h}, anomaly={self.anomaly}"
            )
        if not (command in EVOLVES_AT_N and self.h > 0):
            return
        gap = SpinKinematics.from_field(self.field, self.n, self.epsilon).omega
        if gap < 0:
            # the epsilon = -1 levels fall while b(n) + b(n+1) < 2 anomaly h,
            # whatever b_z
            raise DomainError(
                f"anomaly, h, n: the levels fall from n={self.n} to n+1 (gap {gap:.3g}) at "
                f"anomaly={self.anomaly}, h={self.h}, epsilon={self.epsilon}; "
                "a smaller anomaly or h, or a larger n, makes them rise"
            )
        if gap == 0:
            # without any b_z, h alone is the cause when even the gap between
            # levels 1 and 2 rounds to zero, and n alone when the gap at n does
            at_rest = FieldConfig(h=self.h, anomaly=self.anomaly)
            if SpinKinematics.from_field(at_rest, 1, self.epsilon).omega == 0:
                raise DomainError(
                    f"h: the gap between levels rounds to zero at h={self.h} "
                    "even between levels 1 and 2 at b_z=0"
                )
            cause = "n" if SpinKinematics.from_field(at_rest, self.n, self.epsilon).omega == 0 else "b_z"
            raise DomainError(
                f"{cause}: the gap between levels n={self.n} and n+1 rounds to zero at b_z={self.b_z}"
            )

    @property
    def field(self) -> FieldConfig:
        return FieldConfig(h=self.h, anomaly=self.anomaly, b_z=self.b_z)


#: the type and argparse options of every key a configuration file may set
_KEYS = {
    "h": dict(type=float, help="dimensionless field strength"),
    "anomaly": dict(type=float, help="anomalous-moment ratio"),
    "b_z": dict(type=float, help="longitudinal momentum"),
    "n": dict(type=int, help="reference level"),
    "epsilon": dict(type=int, choices=(-1, 1), help="helicity sign"),
    "output_dir": dict(type=str, help="output directory"),
    "levels": dict(type=int, help="number of levels in the packet"),
    "mode": dict(type=str, choices=(evolution.UNIFORM_GAP, evolution.EXACT), help="energy model"),
    "t_max": dict(type=float, help="time span (default two cyclotron periods)"),
    "samples": dict(type=int, help="number of time samples"),
    "seed": dict(type=int, help="seed of the amplitude --perturb corrupts"),
}
_SHARED = ("h", "anomaly", "b_z", "n", "epsilon", "output_dir")
_TIME_GRID = ("mode", "t_max", "samples")
#: the keys each command reads, takes as flags and validates; oracle uses only
#: h and b_z of _SHARED but takes all of it, as callers pass it the others' flags
READS = {
    "trajectory": (*_SHARED, "levels", *_TIME_GRID),
    "converge": (*_SHARED, *_TIME_GRID),
    "verify": (*_SHARED, "seed"),
    "oracle": _SHARED,
}
#: the commands that evolve phases at level n, so need a positive gap to n+1
EVOLVES_AT_N = frozenset(("trajectory", "converge", "verify"))


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DomainError(f"config: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"config: cannot read {path}: not UTF-8 text at byte {exc.start}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _KEYS[key]["type"]
        try:
            values[key] = kind(value)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {key}: expected {kind.__name__}, got {value!r}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags over the configuration file over the defaults, validated for
    ``args.command``; the output directory defaults to
    SEMICLASSICAL_OUTPUT_DIR when that is set."""
    values = _parse_config_file(args.config) if args.config else {}
    values.setdefault("output_dir", os.environ.get("SEMICLASSICAL_OUTPUT_DIR", RunConfig.output_dir))
    for key in READS[args.command]:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**values)
    cfg.validate(args.command)
    _check_output_dir(cfg.output_dir)
    return cfg


def _check_output_dir(path: str) -> None:
    """Reject, before any work and without creating anything, an output
    directory that is empty or that a non-directory blocks: the path itself
    or the nearest of its ancestors that exists."""
    if not path or "\0" in path:
        raise DomainError(f"output_dir: must be a nonempty path without a NUL character, got {path!r}")
    blocker = os.path.abspath(path)
    while not os.path.exists(blocker) and os.path.dirname(blocker) != blocker:
        blocker = os.path.dirname(blocker)
    if not os.path.isdir(blocker):
        raise DomainError(f"output_dir: cannot create {path}: {blocker} is not a directory")


@contextlib.contextmanager
def _writing(cfg: RunConfig):
    """Create the output directory and report an OSError of the writes
    inside this block as a configuration error of ``output_dir``."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        yield
    except OSError as exc:
        path = exc.filename or cfg.output_dir
        raise DomainError(f"output_dir: cannot write {path}: {exc.strerror or exc}") from exc


def _json_dump(payload: dict, path: str) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _manifest(cfg: RunConfig, packet: packets.PacketSpec) -> dict:
    kin = packet.reference
    sums = packets.structure_sums(packet)
    return {
        "tool": "landau-packets",
        "version": __version__,
        "config": asdict(cfg),
        "derived": {
            "b_perp": kin.b_perp,
            "b": kin.b,
            "energy": kin.energy,
            "kappa": kin.kappa,
            "zeta_perp": kin.zeta_perp,
            "zeta_z": kin.zeta_z,
            "omega_exact": kin.omega,
            "omega_asymptotic": classical.cyclotron_omega(cfg.h, kin.energy),
            "omega_a_exact": kin.omega_a,
            "omega_a_closed": classical.anomalous_omega(cfg.h, math.hypot(kin.b_z, kin.b), kin.b, cfg.anomaly),
            "levels_window": [packet.levels[0], packet.levels[-1]],
            "contrast_factor": packets.contrast_factor(cfg.levels),
            "normalization_defect": packets.normalization_defect(packet),
            "sums": {
                "adjacent_same_spin": sums.adjacent_same_spin.real,
                "adjacent_spin_flip": sums.adjacent_spin_flip.real,
                "diagonal_spin_flip": sums.diagonal_spin_flip.real,
                "population_imbalance": sums.population_imbalance.real,
            },
        },
    }


def cmd_trajectory(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    field = cfg.field

    packet = packets.build_spinor_packet(cfg.n, cfg.levels, field, cfg.epsilon)
    times = evolution.sample_times(packet.reference.omega, samples=cfg.samples, t_max=cfg.t_max)
    ref = classical.classical_reference(field, cfg.n, cfg.epsilon)
    # a t_max beyond the integrator's step cap is rejected before anything is written
    steps = int(np.sum(classical.step_counts(times, ref.step, "t_max")))

    engine = evolution.evolve_packet(packet, times, mode=cfg.mode)
    closed = evolution.closed_form_trajectory(packet.reference, cfg.levels, times)
    bmt = classical.bmt_integrate(ref.init, cfg.h, times, ref.step)
    drift = bmt.invariant_residual
    if drift > DRIFT_LIMIT:
        # the step is fixed by the reference and the drift grows with the
        # span, so the span is what the user can shorten
        raise IntegrationAccuracyError(
            f"invariant drift {drift:.3e} exceeds {DRIFT_LIMIT} over the span t = 0 to "
            f"{times[-1]:.6g} in {steps} steps; use a shorter t_max"
        )

    factor = engine.amplitude_factor(packet.reference.b_perp)
    comparison = {
        "momentum_amplitude_factor": factor,
        "engine_vs_closed_form": compare_trajectories(engine, closed),
        "engine_vs_classical": compare_trajectories(engine, bmt),
        "closed_form_vs_classical": compare_trajectories(closed, bmt),
    }
    with _writing(cfg):
        engine.to_csv(os.path.join(cfg.output_dir, "trajectory.csv"))
        closed.to_csv(os.path.join(cfg.output_dir, "closed_form.csv"))
        bmt.to_csv(os.path.join(cfg.output_dir, "classical.csv"))
        _json_dump(_manifest(cfg, packet), os.path.join(cfg.output_dir, "manifest.json"))
        _json_dump(comparison, os.path.join(cfg.output_dir, "comparison.json"))
    print(f"levels={cfg.levels} momentum amplitude factor {factor:.12f}")
    print(f"wrote trajectory.csv, closed_form.csv, classical.csv, manifest.json, comparison.json")
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    n_list = args.n_list
    if not n_list:
        raise DomainError("n_list: need at least one level count")
    if max(n_list) > MAX_LEVELS:
        raise DomainError(f"n_list: each level count must be <= {MAX_LEVELS}, got {max(n_list)}")
    field = cfg.field

    kin = SpinKinematics.from_field(field, cfg.n, cfg.epsilon)
    times = evolution.sample_times(kin.omega, samples=cfg.samples, t_max=cfg.t_max)
    reference = evolution.closed_form_momentum(kin, None, times)
    rows = []
    for levels in n_list:
        packet = packets.build_spinor_packet(cfg.n, levels, field, cfg.epsilon)
        traj = evolution.evolve_packet(packet, times, mode=cfg.mode)
        factor = traj.amplitude_factor(kin.b_perp)
        gap = float(np.max(np.abs(traj.p[:, :2] - reference[:, :2])))
        rows.append((levels, factor, abs(factor - packets.contrast_factor(levels)), gap))

    path = os.path.join(cfg.output_dir, "converge.csv")
    with _writing(cfg):
        write_table(path, "levels,factor,factor_defect,classical_gap", rows)
    for levels, factor, defect, gap in rows:
        print(f"levels={levels:6d} factor={factor:.12f} defect={defect:.3e} gap={gap:.6e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    report = verify.run_all_checks(
        cfg.field, cfg.n, cfg.epsilon, perturb=args.perturb, seed=cfg.seed
    )
    payload = report.as_dict()
    payload["config"] = asdict(cfg)
    with _writing(cfg):
        _json_dump(payload, os.path.join(cfg.output_dir, "verify.json"))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        extra = "" if check.residual is None else f" residual={check.residual:.3e}"
        extra += "" if check.margin is None else f" margin={check.margin:.3g}"
        print(f"{status} {check.name}{extra}")
    if not report.passed:
        print("verification FAILED")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    rows = laguerre.semiclassical_convergence(args.radial_s, cfg.h, args.n_list, b_z=cfg.b_z)
    # err_y equals err_x bit for bit, so one fit gives both exponents
    exponent = laguerre.fit_decay_exponent(args.n_list, [r[1] for r in rows])

    path = os.path.join(cfg.output_dir, "oracle.csv")
    with _writing(cfg):
        write_table(path, "n,rel_err_x,rel_err_y,err_z", rows)
    for n, ex, ey, ez in rows:
        print(f"n={n:4d} rel_err_x={ex:.6e} rel_err_y={ey:.6e} err_z={ez:.3e}")
    print(f"decay exponent x: {exponent:.4f}  y: {exponent:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise DomainError, so that
    ``main`` reports them as every other configuration error."""

    def error(self, message: str):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each command takes
    --config, a flag per key it reads (READS) and flags that are no keys."""
    parser = _Parser(
        prog="landau-packets",
        description="Cyclotron motion and spin precession from Landau-level wave packets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}
    for command, summary in (
        ("trajectory", "run one configuration and write CSVs"),
        ("converge", "sweep the level count"),
        ("verify", "run the self-verification suite"),
        ("oracle", "quadrature convergence of exact matrix elements"),
    ):
        parsers[command] = sub.add_parser(command, help=summary)
        parsers[command].add_argument("--config", help="flat key=value configuration file")
        for key in READS[command]:
            parsers[command].add_argument("--" + key.replace("_", "-"), dest=key, **_KEYS[key])
    parsers["converge"].add_argument("--n-list", dest="n_list", type=_int_list, default=(3, 10, 100),
                                     help="comma-separated level counts")
    parsers["verify"].add_argument("--perturb", action="store_true",
                                   help="corrupt one amplitude to demonstrate failure detection")
    parsers["oracle"].add_argument("--n-list", dest="n_list", type=_int_list, default=(10, 20, 40, 80),
                                   help="comma-separated levels to scan")
    parsers["oracle"].add_argument("--radial-s", dest="radial_s", type=int, default=0,
                                   help="radial quantum number of the scanned states")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name at each call, so that a wrapped cmd_* is the one run
        code = globals()[f"cmd_{args.command}"](args)
        # a closed stdout shows here at the latest, not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's SIGPIPE idiom: stdout goes to devnull, so that the flush
        # at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except DomainError as exc:
        # a newline in an argument or a path would break the one-line message
        print(f"configuration error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"numerical accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
