import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landau_packets
from landau_packets import FieldConfig, classical, evolution, verify
from landau_packets.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main

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
        packet = manifest["packet"]
        assert packet["levels"] == [98, 99, 100, 101, 102]
        assert packet["epsilon"] == 1
        assert len(packet["amplitudes"]) == 10
        total = sum(a["re"] ** 2 + a["im"] ** 2 for a in packet["amplitudes"])
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_determinism_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for target in (dir_a, dir_b):
            main(["trajectory", *FAST, "--levels", "3", "--output-dir", str(target)])
        for name in ("trajectory.csv", "closed_form.csv", "classical.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

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

    def test_empty_level_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["converge", *FAST, "--n-list", ",", "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: n_list:")
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
        assert "verification FAILED" in capsys.readouterr().out


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


class TestTracedRun:
    def test_benchmark_tracer_finds_every_name(self, tmp_path):
        # the benchmark's tracer patches package names from outside and only
        # warns when one is gone; a tiny call of every command must leave
        # nothing untraced
        root = Path(__file__).resolve().parents[1]
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
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmarks")]),
        }
        env.pop("SEMICLASSICAL_OUTPUT_DIR", None)
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] []"


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

    def test_table_rows_match_per_value_formatting(self):
        # converge.csv and oracle.csv rows: one %-format prints the bytes of
        # the per-value f-string
        from landau_packets.cli import _TABLE_ROW

        special = [-0.0, 5e-324, 1e308, math.inf, 3.0, 1e16, 0.1, 1 / 3, math.nan]
        for levels in (1, 10000, 10**30):
            for i in range(len(special)):
                row = (levels, *(special * 2)[i : i + 3])
                expected = f"{row[0]},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n"
                assert _TABLE_ROW % row == expected

    def test_csv_round_trip_precision(self, tmp_path):
        # 17 significant digits reproduce the in-memory doubles exactly
        from landau_packets.evolution import sample_times, evolve_packet
        from landau_packets.kinematics import FieldConfig, cyclotron_frequency
        from landau_packets.packets import build_spinor_packet

        cfg = FieldConfig(h=0.1, anomaly=0.02, b_z=0.5)
        packet = build_spinor_packet(100, 3, cfg, +1)
        times = sample_times(cyclotron_frequency(cfg, 100, 1)[0], samples=32)
        traj = evolve_packet(packet, cfg, times)
        path = tmp_path / "round_trip.csv"
        traj.to_csv(path)
        _, rows = read_csv(path)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:4], traj.p)
        assert np.array_equal(rows[:, 4:8], traj.s)
