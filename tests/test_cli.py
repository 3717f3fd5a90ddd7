import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import landau_packets
from landau_packets import FieldConfig, classical, evolution, laguerre, verify
from landau_packets.cli import EXIT_ACCURACY, EXIT_CLOSED_STDOUT, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from landau_packets.errors import QuadratureAccuracyError

FAST = ["--h", "0.1", "--anomaly", "0.02", "--b-z", "0.5", "--n", "100"]


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = np.loadtxt(handle, delimiter=",")
    return header, np.atleast_2d(rows)


class TestTrajectoryCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        code = main(["trajectory", *FAST, "--levels", "3", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        for name in ("trajectory.csv", "closed_form.csv", "classical.csv", "manifest.json", "comparison.json"):
            assert (tmp_path / name).exists()
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "Px", "Py", "Pz", "S0", "Sx", "Sy", "Sz", "resSP", "resSS"]
        assert rows.shape == (256, 10)
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison["momentum_amplitude_factor"] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert comparison["engine_vs_closed_form"]["Px"] < 1e-10
        out = capsys.readouterr().out
        assert "momentum amplitude factor 0.66666666" in out

    def test_single_level_flat_px(self, tmp_path):
        main(["trajectory", *FAST, "--levels", "1", "--output-dir", str(tmp_path)])
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert np.max(np.abs(rows[:, 1])) == 0.0

    def test_exact_mode_dephases_from_closed_form(self, tmp_path):
        code = main(["trajectory", *FAST, "--levels", "3", "--mode", "exact",
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison["engine_vs_closed_form"]["Px"] > 1e-6

    def test_zero_anomaly_manifest(self, tmp_path):
        code = main(
            ["trajectory", "--h", "0.1", "--anomaly", "0", "--b-z", "0.5", "--n", "100",
             "--levels", "3", "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["derived"]["omega_a_exact"] == 0.0
        assert manifest["derived"]["omega_a_closed"] == 0.0

    def test_manifest_derived_constants(self, tmp_path):
        main(["trajectory", *FAST, "--levels", "5", "--output-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["b_perp"] == pytest.approx(2 * math.sqrt(0.1 * 100), rel=1e-12)
        assert derived["contrast_factor"] == pytest.approx(0.8)
        assert derived["levels_window"] == [98, 102]
        assert derived["normalization_defect"] <= 1e-14
        assert manifest.keys() == {"config", "derived", "tool", "version"}

    def test_determinism_byte_identical(self, tmp_path):
        # a rerun into the same directory rewrites every file, the manifest included, byte for byte
        runs = []
        for _ in range(2):
            assert main(["trajectory", *FAST, "--levels", "3", "--output-dir", str(tmp_path)]) == EXIT_OK
            runs.append({path.name: path.read_bytes() for path in tmp_path.iterdir()})
        assert runs[0].keys() == {
            "trajectory.csv", "closed_form.csv", "classical.csv", "manifest.json", "comparison.json"
        }
        assert runs[0] == runs[1]

    def test_invalid_config_names_field(self, tmp_path, capsys):
        code = main(["trajectory", "--h", "-1", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "h" in capsys.readouterr().err

    def test_invalid_levels(self, tmp_path, capsys):
        code = main(["trajectory", *FAST, "--levels", "0", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "levels" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max_rejected(self, tmp_path, capsys, t_max):
        out = tmp_path / "out"
        code = main(["trajectory", *FAST, "--t-max", t_max, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: t_max:")
        assert not out.exists()

    @pytest.mark.parametrize("t_max", ["1e12", "1e300"])
    def test_step_count_beyond_the_cap_rejected(self, tmp_path, capsys, t_max):
        # more order-8 steps than classical.MAX_STEPS between the samples
        out = tmp_path / "out"
        code = main(["trajectory", *FAST, "--samples", "16", "--t-max", t_max, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: t_max:") and err.count("\n") == 1
        assert f"more than {classical.MAX_STEPS}" in err
        assert not out.exists()

    def test_samples_past_the_step_cap_name_samples(self, tmp_path, capsys):
        # every sample interval takes at least one step, so 10^7 + 2 samples
        # pass classical.MAX_STEPS whatever t_max is; the count is rejected
        # before the 80 MB grid is built
        out = tmp_path / "out"
        samples = classical.MAX_STEPS + 2
        tracemalloc.start()
        try:
            code = main(["trajectory", *FAST, "--samples", str(samples), "--output-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: samples: {samples} samples take at least {samples - 1} steps "
            f"of the classical integrator, more than {classical.MAX_STEPS}\n"
        )
        assert peak < 2**20
        assert not out.exists()

    def test_drift_failure_names_the_span(self, tmp_path, capsys):
        # about 320 cyclotron periods at anomaly 0 drift past DRIFT_LIMIT;
        # the step is fixed by the state, so the message points at t_max
        out = tmp_path / "out"
        code = main(["trajectory", "--anomaly", "0", "--n", "100000", "--t-max", "2e6", "--samples", "64",
                     "--output-dir", str(out)])
        assert code == EXIT_ACCURACY
        err = capsys.readouterr().err
        assert err.startswith("numerical accuracy error: invariant drift") and err.count("\n") == 1
        assert "over the span t = 0 to 1.96875e+06 in " in err and "use a shorter t_max" in err
        assert not out.exists()

    def test_hermitian_gate_names_b_z(self, tmp_path, capsys):
        # the engine's imaginary residue grows with E^2: 1.2e-12 at b_z = 4e4
        out = tmp_path / "out"
        code = main(["trajectory", "--b-z", "4e4", "--output-dir", str(out)])
        assert code == EXIT_ACCURACY
        err = capsys.readouterr().err
        assert err.startswith("numerical accuracy error: imaginary residue") and err.count("\n") == 1
        assert "reference energy E = 40000" in err and "a smaller b_z, h or n lowers it" in err
        assert not out.exists()


class TestConvergeCommand:
    def test_factor_table(self, tmp_path):
        code = main(
            ["converge", *FAST, "--n", "1200", "--n-list", "1,3,10,100",
             "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "converge.csv") as handle:
            header = handle.readline().strip()
            rows = [line.strip().split(",") for line in handle]
        assert header == "levels,factor,factor_defect,classical_gap"
        factors = {int(r[0]): float(r[1]) for r in rows}
        gaps = [float(r[3]) for r in rows]
        assert factors[1] == 0.0
        assert factors[3] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert factors[10] == pytest.approx(0.9, abs=1e-10)
        assert factors[100] == pytest.approx(0.99, abs=1e-10)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # the classical gap at 100 levels is b_perp/100
        b_perp = 2 * math.sqrt(0.1 * 1200)
        assert gaps[-1] == pytest.approx(b_perp / 100, rel=1e-10)

    @pytest.mark.parametrize(
        "samples",
        [
            8,
            64,
            1024,
            # the grid misses the quarter period, where |Px| peaks: the
            # sampled factor reads 5.3e-5 low at 3 levels, 7.8e-5 at 100
            pytest.param(250, marks=pytest.mark.xfail(strict=True, reason="quarter period off the grid")),
        ],
    )
    def test_factor_read_on_the_default_span(self, tmp_path, samples):
        # the factor is max|Px| / b_perp over the samples; on the default
        # two-period span the grid holds the quarter period when the sample
        # count is a multiple of 8
        code = main(["converge", "--n-list", "3,100", "--samples", str(samples), "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "converge.csv")
        assert rows[:, 0].tolist() == [3, 100]
        tolerance = 1e-10 if samples == 250 else 1e-12
        assert np.all(rows[:, 2] <= tolerance), rows[:, 2]

    def test_empty_level_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["converge", *FAST, "--n-list", ",", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: n_list:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--n", "2", "--n-list", "3,9"], "levels: window -2..6 reaches below"),
            (["--h", "0"], "b_perp = 0"),
        ],
    )
    def test_failing_run_writes_nothing(self, tmp_path, capsys, flags, message):
        # a packet or reference rejected while computing leaves no directory behind
        out = tmp_path / "out"
        code = main(["converge", *FAST, *flags, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")
        assert not out.exists()


class TestVerifyCommand:
    def test_default_configuration_passes(self, tmp_path, capsys):
        code = main(["verify", *FAST, "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        assert out.count("PASS") == len(report["checks"])
        names = {check["name"] for check in report["checks"]}
        assert "structure-sums" in names and "bmt-closed-form-match" in names

    def test_reports_margin_of_every_check(self, tmp_path, capsys):
        # margin = residual / tolerance, null where either is missing, and
        # deterministic: a rerun writes the same report
        reports = []
        for run in ("a", "b"):
            assert main(["verify", *FAST, "--output-dir", str(tmp_path / run)]) == EXIT_OK
            reports.append(json.loads((tmp_path / run / "verify.json").read_text()))
        checks = reports[0]["checks"]
        for check in checks:
            if check["residual"] is None or check["tolerance"] is None:
                assert check["margin"] is None, check["name"]
            else:
                assert check["margin"] == check["residual"] / check["tolerance"], check["name"]
                assert 0 <= check["margin"] <= 1, check["name"]
        assert {c["name"] for c in checks if c["margin"] is None} == {"integrator-order", "oracle-convergence", "determinism"}
        assert [c["margin"] for c in checks] == [c["margin"] for c in reports[1]["checks"]]
        out = capsys.readouterr().out  # both runs
        assert out.count(" margin=") == 2 * sum(c["margin"] is not None for c in checks)

    def test_dirac_case_passes(self, tmp_path):
        # without an anomaly the spin does not precess relative to the orbit
        code = main(["verify", *FAST, "--anomaly", "0", "--output-dir", str(tmp_path)])
        report = json.loads((tmp_path / "verify.json").read_text())
        assert code == EXIT_OK
        assert len(report["checks"]) == len(verify.ALL_CHECKS) == 13
        assert all(check["passed"] for check in report["checks"])

    def test_dirac_case_at_rest_with_negative_helicity(self, tmp_path):
        # kappa = -1 exactly, where the linear form kappa/(kappa+1) that
        # structure-sums records has no value
        code = main(["verify", "--anomaly", "0", "--b-z", "0", "--epsilon", "-1", "--output-dir", str(tmp_path)])
        report = json.loads((tmp_path / "verify.json").read_text())
        assert code == EXIT_OK
        sums = next(check for check in report["checks"] if check["name"] == "structure-sums")
        assert sums["details"]["linear_form_value"] is None

    def test_paper_scale_passes(self, tmp_path, capsys):
        # 10^4 levels at the default h, b_z and anomaly: the default step
        # must resolve the anomalous coupling frequency for the drift check
        code = main(["verify", "--n", "10000", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK, capsys.readouterr().out
        report = json.loads((tmp_path / "verify.json").read_text())
        drift = next(c for c in report["checks"] if c["name"] == "bmt-invariant-drift")
        assert drift["residual"] <= 0.2 * drift["tolerance"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_low_reference_levels(self, n):
        # the fixed level counts keep only the windows at or above level 1
        cfg = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
        results = [
            verify.check_packet_normalization(cfg, n, +1, perturb=False),
            verify.check_band_hermiticity(cfg, n, +1),
            verify.check_structure_sums(cfg, n, +1),
            verify.check_engine_closed_form(cfg, n, +1),
            verify.check_determinism(cfg, n, +1),
        ]
        assert all(result.passed for result in results), [r.name for r in results if not r.passed]
        details = results[2].details
        assert ("adjacent_spin_flip_constructed_3_levels" in details) == (n > 1)

    def test_flip_sum_discrepancy_reported(self, tmp_path):
        main(["verify", *FAST, "--output-dir", str(tmp_path)])
        report = json.loads((tmp_path / "verify.json").read_text())
        sums_check = next(c for c in report["checks"] if c["name"] == "structure-sums")
        details = sums_check["details"]
        constructed = details["adjacent_spin_flip_constructed_3_levels"]
        assert constructed == pytest.approx(details["quadratic_form_value"], rel=1e-12)
        assert abs(constructed - details["linear_form_value"]) > 1e-3

    def test_perturbed_amplitude_fails(self, tmp_path, capsys):
        code = main(["verify", *FAST, "--perturb", "--output-dir", str(tmp_path)])
        assert code == EXIT_VERIFY
        report = json.loads((tmp_path / "verify.json").read_text())
        norm_check = next(c for c in report["checks"] if c["name"] == "packet-normalization")
        assert norm_check["passed"] is False
        assert report["passed"] is False
        assert "FAIL packet-normalization" in capsys.readouterr().out

    def test_integrator_failure_still_writes_report(self, tmp_path, monkeypatch, capsys):
        # a default step far too coarse fails the drift check without
        # aborting the suite; the match check's 128-sample grid still forces
        # about 16 order-8 steps per period here, which pass
        monkeypatch.setattr(classical, "STEPS_PER_PERIOD", 4)
        code = main(["verify", *FAST, "--output-dir", str(tmp_path)])
        assert code == EXIT_VERIFY
        report = json.loads((tmp_path / "verify.json").read_text())
        failed = {check["name"] for check in report["checks"] if not check["passed"]}
        assert failed == {"bmt-invariant-drift"}
        assert "FAIL bmt-invariant-drift" in capsys.readouterr().out

    def test_engine_accuracy_failure_still_writes_report(self, tmp_path, monkeypatch, capsys):
        # a Hermitian-residue gate no residue can pass fails the three checks
        # that evolve packets, with the engine's message, and the rest run
        monkeypatch.setattr(evolution, "HERMITIAN_IMAG_TOL", -1.0)
        code = main(["verify", *FAST, "--output-dir", str(tmp_path)])
        assert code == EXIT_VERIFY
        report = json.loads((tmp_path / "verify.json").read_text())
        assert len(report["checks"]) == 13
        failed = {check["name"]: check for check in report["checks"] if not check["passed"]}
        assert set(failed) == {"engine-closed-form", "factor-law", "determinism"}
        for check in failed.values():
            assert "imaginary residue" in check["details"]["error"]
            assert "a smaller b_z, h or n lowers it" in check["details"]["error"]
        assert "verification FAILED" in capsys.readouterr().out

    def test_anomalous_period_past_the_step_cap_names_the_anomaly(self, tmp_path, capsys):
        # bmt-closed-form-match integrates one anomalous period, which grows
        # as 1/anomaly: at 1e-7 it takes 5e7 order-8 steps
        out = tmp_path / "out"
        code = main(["verify", "--anomaly", "1e-7", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: anomaly:") and err.count("\n") == 1
        assert not out.exists()

    def test_order_check_past_the_step_cap_names_n_and_anomaly(self, tmp_path, capsys):
        # integrator-order takes 16 steps per period of the anomalous
        # coupling, whose rate grows with n and the anomaly: 1e8 steps here
        out = tmp_path / "out"
        code = main(["verify", "--anomaly", "1e5", "--n", "10000", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: n, anomaly: reaching t = ") and err.count("\n") == 1
        assert not out.exists()

    def test_failing_run_writes_nothing(self, tmp_path, capsys):
        # h = 0 leaves the reference without transverse momentum
        out = tmp_path / "out"
        code = main(["verify", *FAST, "--h", "0", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: b_perp = 0")
        assert not out.exists()


class TestOracleCommand:
    def test_exponent_and_table(self, tmp_path, capsys):
        code = main(
            ["oracle", "--h", "0.1", "--n-list", "10,20,40,80", "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "oracle.csv") as handle:
            assert handle.readline().strip() == "n,rel_err_x,rel_err_y,err_z"
            rows = [line.strip().split(",") for line in handle]
        errs = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # the longitudinal element is exactly diagonal
        assert all(float(r[3]) < 1e-10 for r in rows)
        out = capsys.readouterr().out
        exponent = float(out.split("decay exponent x:")[1].split()[0])
        assert abs(exponent + 1.0) < 0.1

    def test_level_bound(self, tmp_path, capsys):
        code = main(["oracle", "--n-list", "10,20000", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "n_list" in capsys.readouterr().err

    @pytest.mark.parametrize("n_list", [",", "10", "10,10"])
    def test_fit_needs_two_levels(self, tmp_path, capsys, n_list):
        out = tmp_path / "out"
        code = main(["oracle", "--n-list", n_list, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: n_list:")
        assert not out.exists()

    def test_exponent_past_former_cap(self, tmp_path, capsys):
        code = main(["oracle", "--h", "0.1", "--n-list", "250,500", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        exponent = float(out.split("decay exponent x:")[1].split()[0])
        assert abs(exponent + 1.0) < 0.1

    def test_exponent_to_ten_thousand_levels(self, tmp_path, capsys):
        code = main(["oracle", "--h", "0.1", "--n-list", "1000,10000", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        exponent = float(out.split("decay exponent x:")[1].split()[0])
        assert abs(exponent + 1.0) < 0.1

    def test_radial_number_at_cap(self, tmp_path):
        code = main(
            ["oracle", "--radial-s", "100", "--n-list", "100,1000", "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("radial_s", ["101", "-1"])
    def test_radial_number_bound(self, tmp_path, capsys, radial_s):
        out = tmp_path / "out"
        code = main(["oracle", "--radial-s", radial_s, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: radial_s:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_levels_below_radial_number(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["oracle", "--radial-s", "20", "--n-list", "10,40", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: n_list:")
        assert not out.exists()

    @pytest.mark.parametrize("b_z", ["1e8", "1e10"])
    def test_large_b_z_accepted(self, tmp_path, b_z):
        # the oracle evolves no phases, so a gap between levels n and n+1
        # that rounds to zero at b_z does not concern it; its transverse
        # errors do not depend on b_z
        tables = {}
        for value in ("0.5", b_z):
            out = tmp_path / value
            assert main(["oracle", "--n-list", "10,20", "--b-z", value, "--output-dir", str(out)]) == EXIT_OK
            tables[value] = read_csv(out / "oracle.csv")[1]
        np.testing.assert_array_equal(tables[b_z][:, :3], tables["0.5"][:, :3])

    def test_failing_quadrature_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def unresolved(*args, **kwargs):
            raise QuadratureAccuracyError("order doubling did not converge")

        monkeypatch.setattr(laguerre, "semiclassical_convergence", unresolved)
        out = tmp_path / "out"
        code = main(["oracle", "--n-list", "10,20", "--output-dir", str(out)])
        assert code == EXIT_ACCURACY
        assert capsys.readouterr().err.startswith("numerical accuracy error: order doubling")
        assert not out.exists()


def _run_traced(probe: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``probe`` in a child interpreter that imports the package and the
    benchmark's ``layers`` from this checkout."""
    root = Path(__file__).resolve().parents[1]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmarks")]),
    }
    env.pop("SEMICLASSICAL_OUTPUT_DIR", None)
    return subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True, text=True)


class TestTracedRun:
    def test_benchmark_tracer_finds_every_name(self, tmp_path):
        # the benchmark's tracer patches package names from outside and only
        # warns when one is gone; a tiny call of every command must leave
        # nothing untraced
        probe = (
            "import sys\n"
            "from layers import Tracer\n"
            "from landau_packets import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "common = ['--h', '0.1', '--anomaly', '0.02', '--b-z', '0.5', '--n', '100']\n"
            "calls = [\n"
            "    ['trajectory', *common, '--levels', '3', '--samples', '16', '--mode', 'exact'],\n"
            "    ['converge', *common, '--n-list', '3,10', '--samples', '16'],\n"
            "    ['verify', *common],\n"
            "    ['oracle', '--h', '0.1', '--n-list', '10,20'],\n"
            "]\n"
            "codes = [cli.main([*call, '--output-dir', call[0]]) for call in calls]\n"
            "print(codes, tracer.missing)\n"
            "sys.exit(int(any(codes) or bool(tracer.missing)))\n"
        )
        result = _run_traced(probe, tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] []"

    def test_step_counter_matches_the_steps_taken(self, tmp_path):
        # the tracer counts the steps from bmt_integrate's grid and dt; at
        # anomaly 5 the step resolves the anomalous rates, 32 times the
        # cyclotron rate, so a step derived from the orbit alone reads low
        probe = (
            "from layers import Tracer\n"
            "from landau_packets import FieldConfig, classical, cli, evolution\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "code = cli.main(['trajectory', '--anomaly', '5', '--samples', '16', '--t-max', '30',\n"
            "                 '--output-dir', 'out'])\n"
            "ref = classical.classical_reference(FieldConfig(h=0.1, anomaly=5.0, b_z=0.5), 100)\n"
            "times = evolution.sample_times(ref.kin.omega, samples=16, t_max=30.0)\n"
            "taken = int(classical.step_counts(times, ref.step).sum())\n"
            "print(code, tracer.totals()['classical.rk4_steps'], taken, tracer.missing)\n"
        )
        result = _run_traced(probe, tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        code, counted, taken, missing = result.stdout.strip().splitlines()[-1].split(" ", 3)
        assert (code, missing) == ("0", "[]")
        assert int(counted) == int(taken) > 16


    def test_parser_built_before_the_tracer_runs_the_traced_command(self, tmp_path):
        # the benchmark's child builds the parser before it installs the
        # tracer; main still has to run the wrapped cmd_* the tracer left
        probe = (
            "from layers import Tracer\n"
            "from landau_packets import cli\n"
            "cli.build_parser()\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "code = cli.main(['oracle', '--n-list', '10,20', '--output-dir', 'out'])\n"
            "print(code, cli.build_parser() is cli.build_parser(), 'cli.oracle' in tracer.totals())\n"
        )
        result = _run_traced(probe, tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip().splitlines()[-1] == "0 True True"


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", [["converge", "--n-list", "3,100", "--samples", "8"], ["verify"]], ids=["converge", "verify"]
    )
    def test_exits_one_without_a_traceback(self, tmp_path, argv, buffered):
        # the reader of stdout is gone before the command prints: an
        # unbuffered print raises at once, a buffered one at the flush
        src = str(Path(landau_packets.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("SEMICLASSICAL_OUTPUT_DIR", None)
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "landau_packets.cli", *argv, "--output-dir", "out"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == EXIT_CLOSED_STDOUT
        assert err == b""
        # the outputs are written before the first print, and they stay
        assert os.listdir(tmp_path / "out") == [f"{argv[0]}.csv" if argv[0] == "converge" else "verify.json"]


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # the package needs numpy only; scipy would add to every call's start-up
        src = str(Path(landau_packets.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = "import sys, landau_packets.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_default_verify_loads_no_random_or_polynomial(self, tmp_path):
        # numpy imports both lazily; a verify run without --perturb needs
        # neither, and each would add 10-15 ms to its start
        src = str(Path(landau_packets.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = (
            "import sys; from landau_packets.cli import main; "
            f"code = main(['verify', '--output-dir', {str(tmp_path)!r}]); "
            "print(code, 'numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.split()[-3:] == ["0", "False", "False"]


#: the flags every command takes, and those each takes besides
SHARED_FLAGS = {"--config", "--h", "--anomaly", "--b-z", "--n", "--epsilon", "--output-dir"}
OWN_FLAGS = {
    "trajectory": {"--levels", "--mode", "--t-max", "--samples"},
    "converge": {"--mode", "--t-max", "--samples", "--n-list"},
    "verify": {"--perturb", "--seed"},
    "oracle": {"--n-list", "--radial-s"},
}
#: a value each run-shape flag would parse to, were it taken
SHAPE_VALUES = {"--levels": "5", "--mode": "exact", "--t-max": "10", "--samples": "64", "--seed": "3"}


class TestArgumentParsing:
    @pytest.mark.parametrize(
        "argv,message",
        [
            *[([command, flag, SHAPE_VALUES[flag]], f"unrecognized arguments: {flag} {SHAPE_VALUES[flag]}")
              for command in OWN_FLAGS for flag in sorted(SHAPE_VALUES.keys() - OWN_FLAGS[command])],
            *[([command, "--n", "abc"], "argument --n: invalid int value: 'abc'") for command in OWN_FLAGS],
            *[([command, "--epsilon", "2"], "argument --epsilon: invalid choice: 2") for command in OWN_FLAGS],
            ([], "the following arguments are required: command"),
            (["verify", "--bogus\nx"], "unrecognized arguments: --bogus\\nx"),
            (["oracle", "--config", "absent\n.cfg"], "config: cannot read absent\\n.cfg"),
        ],
    )
    def test_rejected_in_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # argparse's rejections take the path of every configuration error
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--output-dir", "out"] if argv else [])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", OWN_FLAGS)
    def test_help_lists_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == SHARED_FLAGS | OWN_FLAGS[command]

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr().out == f"landau-packets {landau_packets.__version__}\n"

    @pytest.mark.parametrize("command", OWN_FLAGS)
    def test_config_file_sets_every_key_for_every_command(self, tmp_path, command):
        # a command ignores the keys it does not read, and verify.json echoes them
        config = tmp_path / "run.cfg"
        config.write_text("levels = 5\nmode = exact\nt_max = 10\nsamples = 64\nseed = 3\n")
        out = tmp_path / "out"
        levels = ["--n-list", "10,20"] if "--n-list" in OWN_FLAGS[command] else []
        assert main([command, "--config", str(config), *levels, "--output-dir", str(out)]) == EXIT_OK
        if command == "verify":
            echoed = json.loads((out / "verify.json").read_text())["config"]
            assert echoed | {"levels": 5, "mode": "exact", "t_max": 10.0, "samples": 64, "seed": 3} == echoed

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's generator takes no negative seed; validate rejects it first
        out = tmp_path / "out"
        code = main(["verify", "--perturb", "--seed", "-1", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: seed: must be >= 0, got -1\n"
        assert not out.exists()


class TestConfigHandling:
    def test_config_file_merging(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h = 0.2\nn = 64\nlevels = 5\nb_z = 0.1  # comment\n")
        out_dir = tmp_path / "out"
        code = main(
            ["trajectory", "--config", str(config), "--levels", "3", "--anomaly", "0.01",
             "--output-dir", str(out_dir)]
        )
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["h"] == 0.2          # from file
        assert manifest["config"]["levels"] == 3       # flag wins
        assert manifest["config"]["n"] == 64

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 3\n")
        code = main(["trajectory", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "mystery" in capsys.readouterr().err

    def test_non_integer_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "float_n.cfg"
        config.write_text("n = 3.0\n")
        code = main(["trajectory", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "n: expected int, got '3.0'" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code = main(["trajectory", "--config", str(tmp_path / "absent.cfg"),
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "absent.cfg" in err

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes("h = 0.1  # \u00e9\n".encode("latin-1"))
        out = tmp_path / "out"
        code = main(["trajectory", "--config", str(config), "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: config: cannot read {config}: not UTF-8 text at byte 11\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trajectory", "converge", "verify", "oracle"])
    def test_empty_output_dir_rejected(self, tmp_path, monkeypatch, capsys, command):
        # rejected before any work, and nothing is created
        monkeypatch.chdir(tmp_path)
        assert main([command, "--output-dir="]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: output_dir: must be a nonempty path without a NUL character, got ''\n"
        )
        assert os.listdir(tmp_path) == []

    def test_output_dir_with_a_nul_character_rejected(self, tmp_path, monkeypatch, capsys):
        # a configuration file can hold what argv cannot
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nul.cfg").write_text("output_dir = a\0b\n")
        assert main(["oracle", "--config", "nul.cfg"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: output_dir: must be a nonempty path without a NUL character, got 'a\\x00b'\n"
        )
        assert os.listdir(tmp_path) == ["nul.cfg"]

    def test_empty_output_dir_from_the_environment_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SEMICLASSICAL_OUTPUT_DIR", "")
        assert main(["verify"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: output_dir: must be a nonempty path")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["trajectory", "converge", "verify", "oracle"])
    def test_output_dir_that_is_a_file_rejected(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code = main([command, "--output-dir", str(blocker)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: output_dir: cannot create {blocker}: {blocker} is not a directory\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    @pytest.mark.parametrize("command", ["trajectory", "converge", "verify", "oracle"])
    def test_output_dir_through_a_file_rejected(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" / "out"
        code = main([command, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: output_dir: cannot create {out}: {blocker} is not a directory\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_write_failure_names_the_file(self, tmp_path, capsys):
        # an OSError while writing is one line naming the file it could not write
        (tmp_path / "converge.csv").mkdir()
        code = main(["converge", *FAST, "--n-list", "3", "--samples", "8", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: output_dir: cannot write {tmp_path / 'converge.csv'}: Is a directory\n"

    def test_overflowing_b_z_rejected(self, tmp_path, capsys):
        code = main(["trajectory", *FAST, "--b-z", "1e200", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: b_z:") and err.count("\n") == 1

    @pytest.mark.parametrize("b_z", ["1e8", "1e12", "1e150"])
    def test_vanishing_level_gap_names_b_z(self, tmp_path, capsys, b_z):
        code = main(["trajectory", *FAST, "--b-z", b_z, "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: b_z:") and err.count("\n") == 1
        assert "n=100" in err

    @pytest.mark.parametrize("n", ["1", "5"])
    def test_falling_levels_name_anomaly_h_and_n(self, tmp_path, capsys, n):
        # on the epsilon = -1 branch the levels fall while b(n) + b(n+1)
        # < 2 anomaly h: the gap reads -1.12 at n = 1 and -0.59 at n = 5
        out = tmp_path / "out"
        flags = ["--h", "2", "--anomaly", "5", "--epsilon", "-1", "--b-z", "0.5", "--n", n]
        for command in ("trajectory", "verify"):
            code = main([command, *flags, "--output-dir", str(out)])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: anomaly, h, n: the levels fall from n={n} to n+1")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_rising_levels_run(self, tmp_path):
        # the same branch rises from n = 12 on
        flags = ["--h", "2", "--anomaly", "5", "--epsilon", "-1", "--b-z", "0.5", "--n", "20"]
        assert main(["trajectory", *flags, "--samples", "16", "--output-dir", str(tmp_path)]) == EXIT_OK

    def test_vanishing_gap_above_falling_levels_names_b_z(self, tmp_path, capsys):
        # the gap at n = 20 rounds to zero at b_z = 1e12; the falling gap
        # between levels 1 and 2 is not a gap that rounds to zero, so h is
        # not the cause
        flags = ["--h", "2", "--anomaly", "5", "--epsilon", "-1", "--b-z", "1e12", "--n", "20"]
        assert main(["trajectory", *flags, "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: b_z: the gap between levels n=20")

    @pytest.mark.parametrize("h", ["1e-300", "1e-17"])
    def test_vanishing_level_gap_names_h(self, tmp_path, capsys, h):
        # no level fits: the gap rounds to zero even between levels 1 and 2
        out = tmp_path / "out"
        code = main(["verify", "--h", h, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: h:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("h", ["1e-16", "1e-12", "1e-8", "1e-5", "0.1"])
    def test_invariants_halving_stands_above_roundoff(self, tmp_path, capsys, h):
        # four-vector-invariants halves an anomaly whose residuals stand
        # above roundoff, or verify rejects h: at h = 1e-16 no anomaly the
        # kinematics accept lifts the residual, which grows as anomaly * h^2
        out = tmp_path / "out"
        code = main(["verify", "--h", h, "--output-dir", str(out)])
        if h == "1e-16":
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error: h:") and err.count("\n") == 1
            assert "four-vector-invariants" in err and not out.exists()
            return
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
        invariants = checks["four-vector-invariants"]
        assert invariants["passed"] and abs(invariants["details"]["anomaly_halving_ratio"] - 2.0) <= 0.2

    @pytest.mark.parametrize("b_z", ["0", "0.5"])
    def test_vanishing_level_gap_names_n(self, tmp_path, capsys, b_z):
        out = tmp_path / "out"
        code = main(["trajectory", *FAST, "--n", str(10**30), "--b-z", b_z, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: n:") and err.count("\n") == 1
        assert f"n={10**30}" in err and not out.exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            *[(command, flags) for command in ("trajectory", "converge", "verify", "oracle")
              for flags in (["--h", "1e300"], ["--anomaly", "1e300"], ["--n", str(10**400)])],
            ("trajectory", ["--h", "1e307", "--anomaly", "0"]),
            ("oracle", ["--h", "1e307"]),
        ],
    )
    def test_overflowing_kinematics_rejected(self, tmp_path, capsys, command, flags):
        # level energies that overflow, or a level too large for a float
        out = tmp_path / "out"
        code = main([command, *flags, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: h, anomaly, n:") and err.count("\n") == 1
        assert not out.exists()

    def test_nan_field_names_field(self, tmp_path, capsys):
        code = main(["trajectory", *FAST, "--h", "nan", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: h: must be finite")

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMICLASSICAL_OUTPUT_DIR", str(tmp_path / "env_out"))
        code = main(["trajectory", *FAST, "--levels", "3"])
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "trajectory.csv").exists()

    def test_table_rows_match_per_value_formatting(self, tmp_path):
        # converge.csv and oracle.csv rows: the table writer prints the bytes
        # of the per-value f-string, the integer column as %d prints it; a
        # level count validate accepts stays below 2**53
        from landau_packets.trajectory import write_table

        special = [-0.0, 5e-324, 1e308, math.inf, 3.0, 1e16, 0.1, 1 / 3, math.nan]
        rows = [
            (levels, *(special * 2)[i : i + 3])
            for levels in (1, 10000, 2**53)
            for i in range(len(special))
        ]
        write_table(tmp_path / "table.csv", "n,a,b,c", rows)
        expected = "n,a,b,c\n" + "".join(f"{n},{a:.17g},{b:.17g},{c:.17g}\n" for n, a, b, c in rows)
        assert (tmp_path / "table.csv").read_bytes() == expected.encode()

    def test_csv_round_trip_precision(self, tmp_path):
        # 17 significant digits reproduce the in-memory doubles exactly
        from landau_packets.evolution import sample_times, evolve_packet
        from landau_packets.kinematics import FieldConfig, cyclotron_frequency
        from landau_packets.packets import build_spinor_packet

        cfg = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
        packet = build_spinor_packet(100, 3, cfg, +1)
        times = sample_times(cyclotron_frequency(cfg, 100, 1)[0], samples=32)
        traj = evolve_packet(packet, times)
        path = tmp_path / "round_trip.csv"
        traj.to_csv(path)
        _, rows = read_csv(path)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:4], traj.p)
        assert np.array_equal(rows[:, 4:8], traj.s)
