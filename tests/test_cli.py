"""End-to-end tests of the command-line surface: subcommands, file formats,
exit codes, config precedence, and output determinism."""

import json
import os

import numpy as np
import pytest

from quenchfront import cli


def run(args, tmp_path, sub=""):
    out = tmp_path / (sub or "out")
    out.mkdir(exist_ok=True)
    code = cli.main(args + ["--outdir", str(out)])
    return code, out


def read_meta(path):
    with open(path) as fh:
        header = fh.readline()
    assert header.startswith("# ")
    meta = dict(kv.split("=", 1) for kv in header[2:].split())
    body = np.genfromtxt(path, delimiter=",", skip_header=1)
    return meta, body


class TestFront:
    def test_moving_front(self, tmp_path, capsys):
        code, out = run(["front", "--c", "1.2", "--eps", "0.0025"], tmp_path)
        assert code == 0
        assert "mu_fr" in capsys.readouterr().out
        meta, body = read_meta(out / "front_profile.csv")
        assert meta["columns"] == "zeta,xi,mu,u,v"
        assert body.shape[1] == 5
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["mu_fr"] > 0.36
        manifest = json.loads((out / "front_manifest.json").read_text())
        assert set(manifest["outputs"]) == {"front_profile.csv", "front_diagnostics.json"}
        for name in manifest["outputs"]:
            assert (out / name).stat().st_size > 0

    def test_speed_out_of_range(self, tmp_path):
        code, _ = run(["front", "--c", "2.5", "--eps", "0.0025"], tmp_path)
        assert code == 1

    def test_stationary_with_inner_columns(self, tmp_path, capsys):
        code, out = run(["front", "--c", "0", "--eps", "0.00981"], tmp_path)
        assert code == 0
        meta, body = read_meta(out / "front_profile.csv")
        assert meta["columns"].endswith("u_inner")
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["u_at_origin"] > 0.1

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "front.cfg"
        cfgfile.write_text("c = 1.2\neps = 0.0025\nn = 2501\n")
        out = tmp_path / "cfg_out"
        out.mkdir()
        code = cli.main(
            ["front", "--config", str(cfgfile), "--eps", "0.004", "--outdir", str(out)]
        )
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["eps"] == 0.004  # flag wins over config entry

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this line has no equals sign\n")
        code, _ = run(["front", "--config", str(bad), "--c", "1.2", "--eps", "0.0025"], tmp_path)
        assert code == 1


class TestDelaySweep:
    def test_fold_mode(self, tmp_path, capsys):
        code, out = run(
            ["delay-sweep", "--c", "1.2", "--fold", "--eps-decade", "3e-5:1e-3", "--points", "5"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert summary["exponent"] == pytest.approx(2.0 / 3.0, abs=0.03)
        assert summary["prefactor"] == pytest.approx(summary["reference_prefactor"], rel=0.06)

    def test_fold_mode_sequential_runs_byte_identical(self, tmp_path):
        args = ["delay-sweep", "--c", "0.8", "--fold", "--eps-decade", "3e-5:1e-3", "--points", "5"]
        _, out1 = run(args, tmp_path, "one")
        _, out2 = run(args, tmp_path, "two")
        assert (out1 / "delay_sweep.csv").read_bytes() == (out2 / "delay_sweep.csv").read_bytes()

    def test_single_point_fit_refused(self, tmp_path, capsys):
        code, out = run(
            ["delay-sweep", "--c", "1.2", "--fold", "--eps-decade", "1e-4:1e-4", "--points", "1"],
            tmp_path,
        )
        assert code == 1
        assert "refused" in capsys.readouterr().err
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert "refused" in summary["fit"]
        meta, body = read_meta(out / "delay_sweep.csv")
        assert body.size > 0

    def test_bvp_mode(self, tmp_path, capsys):
        code, out = run(
            ["delay-sweep", "--c", "1.2", "--eps-decade", "1e-3:2.5e-3", "--points", "3"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert 0.5 < summary["slope"] < 0.8
        assert summary["converged"] == 3

    def test_bad_range(self, tmp_path):
        code, _ = run(["delay-sweep", "--c", "1.2", "--eps-decade", "oops"], tmp_path)
        assert code == 1


class TestPainleve:
    def test_default_run(self, tmp_path, capsys):
        code, out = run(["painleve"], tmp_path)
        assert code == 0
        assert "w(0) = " in capsys.readouterr().out
        summary = json.loads((out / "painleve_summary.json").read_text())
        assert summary["w0"] >= 0.3550280
        assert max(summary["boundary_residuals"]) < 1e-8
        assert summary["ground_state"] < 0.0
        meta, body = read_meta(out / "painleve_profile.csv")
        assert meta["columns"] == "eta,w,wprime,V"

    def test_classification(self, tmp_path):
        code, out = run(["painleve", "--classify", "0.5,1.5"], tmp_path)
        assert code == 0
        meta, body = read_meta(out / "painleve_classification.csv")
        assert body.shape[0] == 2

    def test_window_flag(self, tmp_path):
        code, out = run(["painleve", "--window", "12", "8", "--n", "4001"], tmp_path)
        assert code == 0


class TestPde:
    def test_frozen_speed_row(self, tmp_path, capsys):
        code, out = run(
            ["pde", "--frozen-mu", "1", "--domain", "0", "150", "--n", "1501",
             "--t-end", "50"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "pde_summary.json").read_text())
        assert summary["measured_speed"] == pytest.approx(2.0, abs=0.06)
        assert "invasion speed" in capsys.readouterr().out

    def test_homogeneous_quench_compare(self, tmp_path):
        code, out = run(
            ["pde", "--alpha", "0", "--eps", "0.005", "--domain", "0", "220",
             "--n", "2201", "--t-end", "120", "--compare"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "pde_summary.json").read_text())
        assert summary["nonnegative_after_transient"] is True
        assert summary["growing"] is True
        meta, body = read_meta(out / "pde_front_track.csv")
        assert meta["columns"] == "t,x_fr_num,x_fr_pred,diff"

    @pytest.mark.parametrize(
        "extra", [["--frozen-mu", "1"], ["--ic", "front-seed"], ["--alpha", "0.5"]]
    )
    def test_compare_outside_homogeneous_quench_is_usage_error(self, tmp_path, capsys, extra):
        code, out = run(["pde", "--compare", "--t-end", "2", *extra], tmp_path)
        assert code == 1
        assert "comparison" in capsys.readouterr().err
        assert not (out / "pde_snapshots.csv").exists()  # refused before simulating

    def test_compare_front_never_crossing_is_solver_failure(self, tmp_path, capsys):
        code, _ = run(
            ["pde", "--compare", "--t-end", "2", "--domain", "0", "20", "--n", "201"], tmp_path
        )
        assert code == 2
        assert "front never crossed" in capsys.readouterr().err

    def test_bad_dt_is_usage_error(self, tmp_path):
        code, _ = run(
            ["pde", "--frozen-mu", "1", "--domain", "0", "100", "--n", "101", "--dt", "5.0"],
            tmp_path,
        )
        assert code == 1

    def test_determinism(self, tmp_path):
        args = ["pde", "--frozen-mu", "1", "--domain", "0", "100", "--n", "1001", "--t-end", "20"]
        _, out1 = run(args, tmp_path, "one")
        _, out2 = run(args, tmp_path, "two")
        for name in ("pde_snapshots.csv", "pde_front_track.csv", "pde_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "pde_manifest.json").read_text())
        m2 = json.loads((out2 / "pde_manifest.json").read_text())
        assert m1["config_digest"] == m2["config_digest"]


class TestConfigValues:
    """Config entries go through the same argparse actions as their flags."""

    BASE = "alpha = 0\neps = 0.05\nn = 501\nt_end = 20\n"

    def run_config(self, tmp_path, text):
        cfgfile = tmp_path / "pde.cfg"
        cfgfile.write_text(self.BASE + text)
        return run(["pde", "--config", str(cfgfile)], tmp_path)

    def test_multi_value_option(self, tmp_path):
        code, out = self.run_config(tmp_path, "domain = 0 50\n")
        assert code == 0
        meta, _ = read_meta(out / "pde_snapshots.csv")
        assert (float(meta["x_lo"]), float(meta["x_hi"])) == (0.0, 50.0)

    @pytest.mark.parametrize("value", ["0 fifty", "0", "0 50 100"])
    def test_bad_multi_value_is_usage_error(self, tmp_path, capsys, value):
        code, _ = self.run_config(tmp_path, f"domain = {value}\n")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,on", [("false", False), ("0", False), ("true", True), ("1", True)]
    )
    def test_switch_values(self, tmp_path, value, on):
        code, out = self.run_config(tmp_path, f"domain = 0 50\ncompare = {value}\n")
        assert code == 0
        meta, _ = read_meta(out / "pde_front_track.csv")
        expected = "t,x_fr_num,x_fr_pred,diff" if on else "t,x_fr_num"
        assert meta["columns"] == expected

    @pytest.mark.parametrize("value", ["yes", "False", "2", ""])
    def test_bad_switch_is_usage_error(self, tmp_path, capsys, value):
        code, _ = self.run_config(tmp_path, f"domain = 0 50\ncompare = {value}\n")
        assert code == 1
        assert "compare" in capsys.readouterr().err


class TestEnvironmentOutdir:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        target.mkdir()
        monkeypatch.setenv("QUENCHFRONT_OUTDIR", str(target))
        code = cli.main(["painleve", "--n", "4001"])
        assert code == 0
        assert (target / "painleve_summary.json").exists()
