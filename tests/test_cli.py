"""End-to-end tests of the command-line surface: subcommands, file formats,
exit codes, config precedence, and output determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenchfront import cli
from quenchfront.painleve import CertificateError, solve_hastings_mcleod
from quenchfront.pdesim import (
    DT_CAP, DT_PER_H, SimConfig, SimulationAbort, simulate, spreading_speed,
)
from quenchfront.solvercore import JacobianSingularError, OdeBlowUpError, SolveError
from quenchfront.travelingwave import QuenchParams, front_branch


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

    @pytest.mark.parametrize(
        "extra,stop", [([], "residual"), (["--n", "16001"], "step")], ids=["default", "n16001"]
    )
    def test_diagnostics_record_the_newton_stop(self, tmp_path, extra, stop):
        # on 15 885 nodes the residual's rounding floor lies above the 1e-10
        # tolerance, and the step test ends the solve at residual 2.5e-10
        code, out = run(["front", "--c", "1.2", "--eps", "0.0025", *extra], tmp_path)
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["stop"] == stop
        assert (diag["residual"] <= 1e-10) == (stop == "residual")

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

    def test_diagnostics_record_the_mesh_used(self, tmp_path, capsys):
        # direct Newton on +-L (default 5/eps) at every eps
        for sub, eps, half in (("above", "0.0025", 2000.0), ("below", "0.0005", 10000.0)):
            code, out = run(["front", "--c", "1.2", "--eps", eps], tmp_path, sub)
            assert code == 0
            meta, body = read_meta(out / "front_profile.csv")
            diag = json.loads((out / "front_diagnostics.json").read_text())
            zeta = body[:, 0]
            assert "solver" not in diag
            assert diag["n"] == body.shape[0]
            assert diag["L"] == pytest.approx(0.5 * (zeta[-1] - zeta[0]), rel=1e-12)
            assert diag["L"] == half and float(meta["L"]) == half and meta["n"] == "4001"

    @pytest.mark.parametrize(
        "extra, config, key, value",
        [
            (["--n", "8001"], "", "n", 8001),
            (["--L", "12000"], "", "L", 12000.0),
            ([], "n = 8001\n", "n", 8001),
        ],
        ids=["flag-n", "flag-L", "config-n"],
    )
    def test_mesh_options_honoured_below_1e_3(self, tmp_path, capsys, extra, config, key, value):
        args = ["front", "--c", "1.2", "--eps", "5e-4", *extra]
        if config:
            cfgfile = tmp_path / "front.cfg"
            cfgfile.write_text(config)
            args += ["--config", str(cfgfile)]
        code, out = run(args, tmp_path)
        assert code == 0
        meta, _ = read_meta(out / "front_profile.csv")
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert "solver" not in diag
        assert float(meta[key]) == value
        if key == "L":
            assert diag["L"] == value
        else:  # the graded mesh has about n nodes
            assert value <= diag["n"] <= 1.05 * value

    def test_short_domain_refused(self, tmp_path, capsys):
        code, out = run(["front", "--c", "1.2", "--eps", "5e-4", "--L", "10"], tmp_path)
        assert code == 1
        assert "domain too short" in capsys.readouterr().err
        assert not (out / "front_profile.csv").exists()

    def test_speed_near_two_solved(self, tmp_path, capsys):
        code, out = run(["front", "--c", "1.9", "--eps", "5e-4"], tmp_path)
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert "solver" not in diag
        assert 1.9**2 / 4.0 < diag["mu_fr"] < 1.0

    def test_instability_point_beyond_focus_refused(self, tmp_path, capsys):
        # an explicit --L 5/eps puts atanh(c^2/4)/eps = 2647.9 beyond L/2:
        # refused before any mesh
        code, out = run(["front", "--c", "1.99", "--eps", "1e-3", "--L", "5000"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "c=1.99, eps=0.001" in err and "--L must exceed 2 zeta_c = 5295.8" in err
        assert "focus interval" not in err
        assert not (out / "front_profile.csv").exists()
        code, out = run(["front", "--c", "1.99", "--eps", "1e-3", "--L", "20000"], tmp_path, "long")
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert "solver" not in diag and diag["mu_fr"] == pytest.approx(0.99162, abs=1e-5)
        # the default L = max(5/eps, 2 zeta_c + 1/eps) = 6295.8 passes it:
        # measured 70 iterations, mu_fr 0.991618
        code, out = run(["front", "--c", "1.99", "--eps", "1e-3"], tmp_path, "default")
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["L"] == pytest.approx(2.0 * math.atanh(1.99**2 / 4.0) / 1e-3 + 1e3, rel=1e-12)
        assert diag["iterations"] <= 72 and diag["mu_fr"] == pytest.approx(0.991618, abs=1e-6)

    def test_direct_solve_where_the_affine_seed_failed(self, tmp_path, capsys):
        # from the affine seed direct Newton stalled at (1.8, 1e-5), and the
        # eps-continuation landed it; from the projective tail it converges,
        # and a one-target branch poses the same discrete problem (0.0
        # apart, measured)
        code, out = run(["front", "--c", "1.8", "--eps", "1e-5"], tmp_path)
        assert code == 0
        meta, body = read_meta(out / "front_profile.csv")
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert "solver" not in diag
        assert diag["mu_fr"] == pytest.approx(front_branch(1.8, [1e-5]).fronts[0].mu_fr, abs=1e-7)
        assert float(meta["L"]) == 5.0 / 1e-5 and meta["n"] == "4001"
        assert diag["n"] == body.shape[0]
        assert diag["L"] == pytest.approx(0.5 * (body[-1, 0] - body[0, 0]), rel=1e-12)

    @pytest.mark.parametrize("c", ["0", "0.4", "1.2", "1.6"])
    @pytest.mark.parametrize("eps", ["5e-4", "1e-4"])
    def test_direct_agrees_with_continuation(self, tmp_path, capsys, c, eps):
        code, out = run(["front", "--c", c, "--eps", eps], tmp_path)
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert "solver" not in diag
        ref = front_branch(float(c), [float(eps)]).fronts[0]
        if c == "0":
            assert diag["u_at_origin"] == pytest.approx(ref.u_at_origin, abs=1e-7)
        else:
            assert diag["mu_fr"] == pytest.approx(ref.mu_fr, abs=1e-7)

    @pytest.mark.parametrize("c,eps,L", [("1.999", "0.06", "150"), ("1.999", "0.08", "150")])
    def test_direct_failure_reports_its_newton_report(self, tmp_path, capsys, c, eps, L):
        # near c = 2 at large eps direct Newton can stall: these two run all
        # 80 iterations (measured), and front has no second solver
        code, out = run(["front", "--c", c, "--eps", eps, "--L", L], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"solver failure: front solve failed at c={c}, eps={float(eps)}")
        failure = json.loads((out / "front_failure.json").read_text())
        assert err == f"solver failure: {failure['error']}\n"
        assert failure["iterations"] == 80 and failure["final_residual_norm"] > 1e-10
        assert not (out / "front_profile.csv").exists()

    @pytest.mark.parametrize("c", [0.6, 1.2, 1.8, 1.95])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_one_direct_solve_covers_the_speed_range(self, tmp_path, c, eps):
        # one Newton solve from the seed at front's defaults (L = 5/eps,
        # n = 4001); the affine seed failed at every eps <= 1e-6 case here
        # but (0.6, 1e-6).  Over c in {0, 0.2, ..., 1.8, 1.9, 1.95} x nine
        # eps from 1e-2 to 1e-7 the continuous seed took 1272 iterations in
        # all and at most 42, at (1.8, 1e-7) (measured)
        code, out = run(["front", "--c", str(c), "--eps", str(eps)], tmp_path)
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["iterations"] <= 42 and diag["L"] == pytest.approx(5.0 / eps, rel=1e-12)
        if c > 0.0:
            assert c * c / 4.0 < diag["mu_fr"] < 1.0

    def test_small_gamma_solved(self, tmp_path, capsys):
        # gamma = c/eps^{1/3} = 0.01: from the delay-law anchor this exited 2
        # at residual 1.070e+06; the tail anchor solves it in 9 iterations
        code, out = run(["front", "--c", "0.001", "--eps", "0.001"], tmp_path)
        assert code == 0
        diag = json.loads((out / "front_diagnostics.json").read_text())
        assert diag["iterations"] <= 30 and diag["mu_fr"] < 0.001**2 / 4.0

    def test_ramp_option_gone(self, tmp_path, capsys):
        code, out = run(
            ["front", "--c", "1.2", "--eps", "0.0025", "--ramp", "linear-clipped"], tmp_path
        )
        assert code == 1
        assert "unrecognized arguments: --ramp" in capsys.readouterr().err
        assert not (out / "front_profile.csv").exists()

    def test_ramp_config_key_refused(self, tmp_path, capsys):
        cfgfile = tmp_path / "front.cfg"
        cfgfile.write_text("c = 1.2\neps = 0.0025\nramp = tanh\n")
        with mock.patch.object(cli, "solve_front") as solve:
            code, out = run(["front", "--config", str(cfgfile)], tmp_path)
        assert code == 1
        assert "key 'ramp' names no option" in capsys.readouterr().err
        solve.assert_not_called()
        assert not (out / "front_profile.csv").exists()

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
        assert "fit refused" in capsys.readouterr().err
        assert not (out / "delay_sweep.csv").exists()
        assert not (out / "delay_sweep_summary.json").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--c", "1.2", "--eps-decade", "1e-4:0.05"], "ramp rate must lie in (0, 1e-2], got 0.0105737"),
            (["--c", "1.99999", "--eps-decade", "1e-4:1e-2"], "predicted interface mu_fr = 1.000"),
            (["--c", "0", "--eps-decade", "1e-5:1e-3"], "speed must lie in (0, 2)"),
            (["--c", "1.2", "--eps-decade", "1e-5:1e-3", "--delta", "0.8"], "section offset"),
        ],
        ids=["eps", "mu-fr", "c", "delta"],
    )
    def test_fold_out_of_range_refused_before_integrating(self, tmp_path, capsys, extra, message):
        with mock.patch.object(cli, "run_fold_passage") as passage:
            code, out = run(["delay-sweep", "--fold", "--points", "5", *extra], tmp_path)
        assert code == 1
        assert message in capsys.readouterr().err
        passage.assert_not_called()
        assert not (out / "delay_sweep.csv").exists()

    @pytest.mark.parametrize(
        "c,decade,points",
        [("1.2", "1e-16:1e-14", "5"), ("1.9999", "1e-10:1e-8", "9")],
        ids=["eps-low", "eps-near-two"],
    )
    def test_fold_runs_down_to_small_eps_and_near_two(self, tmp_path, c, decade, points):
        # eps down to 1e-16, and c = 1.9999 near eps = 3e-10, fit the 2/3 law
        args = ["delay-sweep", "--fold", "--c", c, "--eps-decade", decade, "--points", points]
        code, out = run(args, tmp_path)
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert summary["exponent"] == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_bvp_mode_refuses_zero_speed(self, tmp_path, capsys):
        # at c = 0 there is no interface threshold, so no delay to fit
        with mock.patch.object(cli, "solve_front") as solve:
            code, out = run(
                ["delay-sweep", "--c", "0", "--eps-decade", "1e-3:1e-2", "--points", "6"], tmp_path
            )
        assert code == 1
        assert "front --c 0" in capsys.readouterr().err
        solve.assert_not_called()
        assert not (out / "delay_sweep.csv").exists()

    def test_bvp_mode(self, tmp_path, capsys):
        code, out = run(
            ["delay-sweep", "--c", "1.2", "--eps-decade", "1e-3:2.5e-3", "--points", "3"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert 0.5 < summary["slope"] < 0.8
        assert summary["converged"] == 3

    def test_repeated_eps_fit_refused(self, tmp_path, capsys):
        code, out = run(
            ["delay-sweep", "--c", "1.2", "--eps-decade", "1e-3:1e-3", "--points", "3"], tmp_path
        )
        assert code == 0
        assert "slope" not in capsys.readouterr().out
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert summary["fit"] == "refused: need at least 2 distinct converged eps"
        assert "slope" not in summary and "prefactor" not in summary
        assert (summary["converged"], summary["total"]) == (3, 3)

    def test_too_few_converged_is_solver_failure(self, tmp_path, capsys):
        # one solve per eps, each at front's defaults; only eps = 1e-3 converges
        def solve(quench, half):
            assert half == 5.0 / quench.epsilon
            if quench.epsilon != 1e-3:
                raise SolveError("front solve failed")
            return SimpleNamespace(mu_fr=0.37)

        with mock.patch.object(cli, "solve_front", mock.Mock(side_effect=solve)):
            code, out = run(
                ["delay-sweep", "--c", "1.2", "--eps-decade", "1e-4:1e-3", "--points", "5"],
                tmp_path,
            )
        assert code == 2
        assert capsys.readouterr().err == "solver failure: 1 of 5 eps points converged\n"
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert (summary["converged"], summary["total"]) == (1, 5)
        assert (out / "delay_sweep.csv").exists()

    @pytest.mark.parametrize("c", ["1.9", "1.95"])
    def test_speed_near_two_solved(self, tmp_path, capsys, c):
        # one direct solve per eps lands each, with slopes 0.644 and 0.640
        # measured
        code, out = run(
            ["delay-sweep", "--c", c, "--eps-decade", "2.5e-4:2.5e-3", "--points", "5"], tmp_path
        )
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert (summary["converged"], summary["total"]) == (5, 5)
        assert 0.6 < summary["slope"] < 2.0 / 3.0

    def test_speed_past_the_old_default_domain_solved(self, tmp_path, capsys):
        # on L = 5/eps, atanh(c^2/4)/eps > L/2 for every eps once c >=
        # 1.98661; the default domain passes it, and every point converges
        # (measured 12-47 iterations)
        code, out = run(
            ["delay-sweep", "--c", "1.99", "--eps-decade", "2.5e-4:2.5e-3", "--points", "5"],
            tmp_path,
        )
        assert code == 0
        summary = json.loads((out / "delay_sweep_summary.json").read_text())
        assert (summary["converged"], summary["total"]) == (5, 5)

    def test_eps_above_the_ramp_range_refused_before_solving(self, tmp_path, capsys):
        with mock.patch.object(cli, "solve_front") as solve:
            code, out = run(
                ["delay-sweep", "--c", "1.2", "--eps-decade", "1e-3:0.2", "--points", "5"], tmp_path
            )
        assert code == 1
        assert "ramp rate must lie in (0, 0.1]" in capsys.readouterr().err
        solve.assert_not_called()
        assert not list(out.glob("*"))

    def test_bad_range(self, tmp_path):
        code, _ = run(["delay-sweep", "--c", "1.2", "--eps-decade", "oops"], tmp_path)
        assert code == 1
        code, _ = run(["delay-sweep", "--c", "1.2", "--eps-decade", "0:1e-3"], tmp_path)
        assert code == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--points", "-1"), ("--points", "0"), ("--points", "2.5"),
            ("--eps-decade", "1e-4:-1e-3"), ("--eps-decade", "nan:1e-3"),
            ("--eps-decade", "1e-4:inf"), ("--eps-decade", "1e-4:1e-3:1e-2"),
        ],
    )
    def test_bad_input_refused_naming_its_flag(self, tmp_path, capsys, flag, value):
        args = {"--c": "1.2", "--eps-decade": "1e-4:1e-3", "--points": "5", flag: value}
        with mock.patch.object(cli, "solve_front") as solve:
            code, out = run(["delay-sweep", *(t for kv in args.items() for t in kv)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and repr(value) in err
        solve.assert_not_called()
        assert not (out / "delay_sweep.csv").exists()


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

    @pytest.mark.parametrize("value", ["0.5,abc", "inf", "0.5,nan", ""])
    def test_bad_classify_refused_before_solving(self, tmp_path, capsys, value):
        with mock.patch.object(cli, "solve_hastings_mcleod") as solve:
            code, out = run(["painleve", "--classify", value], tmp_path)
        assert code == 1
        assert "argument --classify:" in capsys.readouterr().err
        solve.assert_not_called()
        assert not (out / "painleve_profile.csv").exists()

    def test_classify_past_pole_event_refused_before_solving(self, tmp_path, capsys):
        with mock.patch.object(cli, "solve_hastings_mcleod") as solve:
            code, out = run(["painleve", "--classify", "0.5,1e150"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: tail multiplier k = 1e+150 starts at |k Ai(8)| = 4.69e+142, "
            "at or past the pole event |w| = 1e3\n"
        )
        solve.assert_not_called()
        assert not list(out.glob("*"))

    def test_window_flag(self, tmp_path):
        code, out = run(["painleve", "--window", "12", "8", "--n", "4001"], tmp_path)
        assert code == 0

    def test_classes_do_not_depend_on_the_window(self, tmp_path):
        # from eta = 30 the start 1.5 Ai(30) = 2.5e-27 would lie far below the
        # classifier's atol; it classifies on its own fixed range instead
        rows = {}
        for window in (["12", "8"], ["12", "30"]):
            sub = "_".join(window)
            code, out = run(
                ["painleve", "--window", *window, "--n", "4001", "--classify", "1.5,0.5"],
                tmp_path,
                sub,
            )
            assert code == 0
            rows[sub] = (out / "painleve_classification.csv").read_text().splitlines()[1:]
        assert rows["12_30"][0].startswith("1.5,pole,")
        assert rows["12_30"][1] == "0.5,oscillatory-decay,nan"
        assert rows["12_30"] == rows["12_8"]

    @pytest.mark.parametrize(
        "window", [("nan", "8"), ("inf", "8"), ("12", "nan"), ("12", "inf")],
        ids=["left-nan", "left-inf", "right-nan", "right-inf"],
    )
    def test_non_finite_window_refused(self, tmp_path, capsys, window):
        code, out = run(["painleve", "--window", *window], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window ends must be finite") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_window_past_airy_underflow_refused(self, tmp_path, capsys):
        # scipy gives Ai(110) = 0, so the right-end Robin ratio Ai'/Ai is 0/0
        code, out = run(["painleve", "--window", "12", "110"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: window (12, 110) ends where Ai underflows: Ai(110) = 0\n"
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("eps", ["0", "-0.005"])
    def test_nonpositive_eps_is_usage_error(self, tmp_path, capsys, eps):
        with mock.patch.object(cli, "simulate") as sim:
            code, out = run(["pde", "--eps", eps, "--t-end", "40"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: epsilon must be positive\n"
        sim.assert_not_called()
        assert not list(out.glob("*"))

    def test_grid_below_the_positivity_floor_refused(self, tmp_path, capsys):
        # at h = 5 no step up to the cap 0.2 reaches the floor 25 h^2/144 =
        # 4.34 (a run at dt = 0.2 would abort, non-finite), nor at h = 1.087
        # (floor 0.205); h = 1 needs dt >= 0.1736, which the default --dt,
        # min(h/5, 0.2) = 0.2, meets
        with pytest.raises(ValueError, match="the grid must be finer"):
            SimConfig(frozen_mu=1.0, domain=(0.0, 100.0), n=21, t_end=40.0)
        grid = ["pde", "--frozen-mu", "1", "--domain", "0", "100", "--t-end", "40"]
        for n, dt in (("21", []), ("93", []), ("101", ["--dt", "0.1"])):
            with mock.patch.object(cli, "simulate") as sim:
                code, out = run([*grid, "--n", n, *dt], tmp_path, n)
            assert code == 1
            err = capsys.readouterr().err
            assert "positivity floor" in err and "--dt" in err
            if n == "93":
                assert "the grid must be finer; see --dt (default min(h/5, 0.2)) and --n" in err
            sim.assert_not_called()
            assert not list(out.glob("*"))
        coarse = [*grid, "--n", "101"]
        code, out = run([*coarse, "--dt", "0.6"], tmp_path, "refused")
        assert code == 1
        err = capsys.readouterr().err
        assert f"min({DT_PER_H:g} h, {DT_CAP:g})" in err and "--dt" in err
        assert not (out / "pde_snapshots.csv").exists()
        code, out = run(coarse, tmp_path, "accepted")
        assert code == 0
        meta, _ = read_meta(out / "pde_front_track.csv")
        assert float(meta["dt"]) == DT_CAP

    @pytest.mark.parametrize(
        "mu,dt,accepted", [("1", "0.2", True), ("2", "0.1", True), ("2", "0.2", True),
                           ("4", "0.1", True), ("2.5", "0.2", False), ("4", "0.2", False)]
    )
    def test_grid_refused_by_its_spreading_speed(self, tmp_path, capsys, mu, dt, accepted):
        # on h = 0.5 the march spreads 0.33 %, 0.37 %, 2.21 %, 2.36 %, 3.56 %
        # and 7.79 % below 2 sqrt(mu); the bound is 2.5 %.  At mu = 1 the
        # positivity floor refuses every grid coarse enough to miss it
        # (h > 1.79 at dt = 0.04, h > 1.74 at dt = 0.2)
        argv = ["pde", "--frozen-mu", mu, "--domain", "0", "100", "--n", "201", "--t-end", "1",
                "--dt", dt]
        with mock.patch.object(cli, "simulate", side_effect=SimulationAbort(0.0, np.zeros(201))):
            code, _ = run(argv, tmp_path)
        assert code == (4 if accepted else 1)
        assert ("grid too coarse" in capsys.readouterr().err) != accepted

    @pytest.mark.parametrize(
        "bad", [["--ic-width", "0"], ["--ic-width", "-5"], ["--ic-amplitude", "nan"]]
    )
    def test_bad_initial_condition_is_usage_error(self, tmp_path, capsys, bad):
        code, out = run(["pde", "--t-end", "2", *bad], tmp_path)
        assert code == 1
        assert "error: ic_" in capsys.readouterr().err
        assert not (out / "pde_snapshots.csv").exists()

    @pytest.mark.parametrize(
        "bad,message",
        [
            (["--frame", "lab", "--c", "1.5"], "error: c = 1.5 is the comoving-frame speed"),
            (["--frame", "comoving", "--alpha", "0.7"], "error: alpha = 0.7 is the lab-frame"),
            (["--frozen-mu", "1", "--alpha", "0.5"], "error: alpha = 0.5 is the lab-frame"),
            (["--ic", "zero"], "argument --ic: invalid choice: 'zero'"),
            (["--frame", "comoving", "--c", "5"], "error: comoving speed |c| = 5 exceeds 4"),
            (["--frame", "comoving", "--c", "-5"], "error: comoving speed |c| = 5 exceeds 4"),
        ],
        ids=["c-in-lab-frame", "alpha-comoving", "alpha-frozen-mu", "ic-zero", "c=5", "c=-5"],
    )
    def test_option_the_mode_ignores_is_usage_error(self, tmp_path, capsys, bad, message):
        with mock.patch.object(cli, "simulate") as sim:
            code, out = run(["pde", "--t-end", "2", *bad], tmp_path)
        assert code == 1
        assert message in capsys.readouterr().err
        sim.assert_not_called()
        assert not list(out.glob("*"))

    def test_default_dt_follows_the_grid(self, tmp_path):
        # the default --dt is min(h/5, 0.2): on h = 0.05 that is 0.01, below
        # the largest step 0.025; on h = 0.8, 0.16 lies above the positivity
        # floor 0.111 (and spreads at 1.995); on h = 1.0714 h/5 = 0.214
        # would exceed the cap, and dt = 0.2 lies above the floor 0.1993
        for grid, dt in ((["--n", "6001"], 0.05 / 5.0), (["--domain", "0", "600"], 0.8 / 5.0),
                         (["--n", "281"], DT_CAP)):
            code, out = run(["pde", *grid, "--t-end", "1"], tmp_path, grid[-1])
            assert code == 0
            meta, _ = read_meta(out / "pde_front_track.csv")
            assert float(meta["dt"]) == dt

    def test_manifest_reports_steps_and_wall_time(self, tmp_path):
        code, out = run(
            ["pde", "--frozen-mu", "1", "--domain", "0", "20", "--n", "101", "--t-end", "1"],
            tmp_path,
        )
        assert code == 0
        manifest = json.loads((out / "pde_manifest.json").read_text())
        assert manifest["steps"] == 25  # ceil(1 / 0.04), the default --dt h/5 on h = 0.2
        assert 0.0 < manifest["wall_s"] <= manifest["wall_time"]
        assert manifest["spreading_speed"] == spreading_speed(0.2, 0.04, 1.0)

    def test_snapshot_bytes_equal_per_value_format(self, tmp_path):
        code, out = run(
            ["pde", "--frozen-mu", "1", "--domain", "0", "20", "--n", "101", "--t-end", "1"],
            tmp_path,
        )
        assert code == 0
        res = simulate(SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0, dt=0.04))
        expected = "".join(
            ",".join(cli._fmt(v) for v in (t, x, u)) + "\n"
            for t, snap in zip(res.times, res.snapshots)
            for x, u in zip(res.x, snap)
        )
        body = (out / "pde_snapshots.csv").read_text().split("\n", 1)[1]
        assert body == expected
        # values whose repr is not a plain decimal
        snaps = np.array([[np.nan, -0.0, 1e-300, 3.0], [np.inf, -np.inf, 0.1, 2.5e17]])
        times, x = np.array([0.0, 1e-5]), np.array([-1.0, 0.0, 1.0 / 3.0, 7.0])
        per_value = "".join(
            ",".join(cli._fmt(v) for v in (t, xv, u)) + "\n"
            for t, snap in zip(times, snaps)
            for xv, u in zip(x, snap)
        )
        assert "".join(cli._snapshot_lines(times, x, snaps)) == per_value

    def test_front_track_bytes_equal_per_value_format(self, tmp_path):
        code, out = run(
            ["pde", "--frozen-mu", "1", "--domain", "0", "20", "--n", "101", "--t-end", "1"],
            tmp_path,
        )
        assert code == 0
        res = simulate(SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0, dt=0.04))
        expected = "".join(
            ",".join(cli._fmt(v) for v in row) + "\n"
            for row in zip(res.track.times, res.track.x_fr_num)
        )
        body = (out / "pde_front_track.csv").read_text().split("\n", 1)[1]
        assert body == expected
        # four columns (the --compare track) with values whose repr is not a plain decimal
        cols = (
            np.array([0.0, 1e-5, 2.5e17]), np.array([np.nan, -0.0, 1.0 / 3.0]),
            np.array([np.inf, -np.inf, 1e-300]), np.array([-1.0, 0.1, 7.0]),
        )
        per_value = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in zip(*cols))
        assert "".join(cli._column_lines(*cols)) == per_value

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

    @pytest.mark.parametrize(
        "line", ["epsilon_typo = 0.004", "fold = true", "config = other.cfg", "help = true"]
    )
    def test_unknown_key_refused_before_simulating(self, tmp_path, capsys, line):
        with mock.patch.object(cli, "simulate") as sim:
            code, out = self.run_config(tmp_path, line + "\n")
        assert code == 1
        assert f"key {line.split()[0]!r} names no option" in capsys.readouterr().err
        sim.assert_not_called()
        assert not (out / "pde_snapshots.csv").exists()


class TestConfigRoundTrip:
    """A --config file parses to the same Namespace as the equivalent flags."""

    floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

    @staticmethod
    def parse(*argvs):
        """The Namespace each argv hands to the pde command."""
        seen = []
        with mock.patch.object(cli, "cmd_pde", lambda args: seen.append(args) or 0):
            for argv in argvs:
                assert cli.main(argv) == 0
        return seen

    @given(
        alpha=floats,
        eps=floats,
        frozen_mu=st.none() | floats,
        domain=st.tuples(floats, floats),
        n=st.integers(-10**6, 10**6),
        ic=st.sampled_from(["small-bump", "front-seed"]),
        switch=st.sampled_from(["true", "1", "false", "0"]),
    )
    @example(alpha=-1e-05, eps=0.005, frozen_mu=None, domain=(-1e-05, 50.0), n=501,
             ic="front-seed", switch="1")
    @settings(max_examples=150, deadline=None)
    def test_config_matches_flags(
        self, tmp_path_factory, alpha, eps, frozen_mu, domain, n, ic, switch
    ):
        entries = {
            "alpha": repr(alpha), "eps": repr(eps), "domain": f"{domain[0]!r} {domain[1]!r}",
            "n": str(n), "ic": ic, "compare": switch,
        }
        if frozen_mu is not None:
            entries["frozen-mu"] = repr(frozen_mu)
        flags = []
        for key, value in entries.items():
            if key != "compare":
                flags += [f"--{key}", *value.split()]
        if switch in ("true", "1"):
            flags.append("--compare")
        cfgfile = tmp_path_factory.mktemp("cfg") / "pde.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        from_config, from_flags = self.parse(["pde", "--config", str(cfgfile)], ["pde", *flags])
        assert from_config == from_flags
        assert from_config.domain == list(domain)
        assert from_config.compare is (switch in ("true", "1"))


class TestEnvironmentOutdir:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        target.mkdir()
        monkeypatch.setenv("QUENCHFRONT_OUTDIR", str(target))
        code = cli.main(["painleve", "--n", "4001"])
        assert code == 0
        assert (target / "painleve_summary.json").exists()


class TestExitTable:
    """``main`` alone maps what a command raises to its exit code and
    stderr prefix."""

    @pytest.mark.parametrize(
        "exc,code,prefix",
        [
            (ValueError("refused"), 1, "error"),
            (SolveError("no front"), 2, "solver failure"),
            (JacobianSingularError(7), 2, "solver failure"),
            (CertificateError("not positive"), 3, "certificate failure"),
            (SimulationAbort(1.5, np.zeros(3)), 4, "simulation abort"),
            (OdeBlowUpError(0.5, np.zeros(2)), 2, "solver failure"),
            # each solver's own SolveError message, under the id of the
            # per-solver class it was raised as before SolveError merged them
            pytest.param(
                SolveError("branch seed failed at eps=0.05"), 2, "solver failure",
                id="FrontSolveError-2-solver failure",
            ),
            pytest.param(
                SolveError("left separatrix missed (iterate exceeded the pole guard)"),
                2, "solver failure",
                id="HMSolveError-2-solver failure",
            ),
            pytest.param(
                SolveError("stiff/blow-up: step underflow at t=-0.125"),
                2, "solver failure",
                id="FoldPassageError-2-solver failure",
            ),
            pytest.param(
                SolveError("front never crossed the tracking level"), 2, "solver failure",
                id="QuenchComparisonError-2-solver failure",
            ),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
    )
    def test_every_row_maps_through_main(self, capsys, exc, code, prefix):
        def command(args):
            raise exc

        with mock.patch.object(cli, "cmd_pde", command):
            assert cli.main(["pde"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_unlisted_exception_is_not_an_exit_code(self):
        with mock.patch.object(cli, "cmd_pde", mock.Mock(side_effect=RuntimeError("bug"))):
            with pytest.raises(RuntimeError, match="bug"):
                cli.main(["pde"])


class TestFailureArtifacts:
    """Each documented failure file is written before the failure reaches
    ``main``."""

    def test_front_failure_json(self, tmp_path, capsys):
        # the one direct solve fails: its report is written
        report = SimpleNamespace(iterations=80, final_residual_norm=1.5e-3)
        failure = SolveError("Newton stalled", report)
        with mock.patch.object(cli, "solve_front", mock.Mock(side_effect=failure)) as solve:
            code, out = run(["front", "--c", "1.2", "--eps", "0.0025"], tmp_path)
        assert code == 2
        solve.assert_called_once_with(QuenchParams(1.2, 0.0025), 2000.0, n=4001)
        assert capsys.readouterr().err == "solver failure: Newton stalled\n"
        assert json.loads((out / "front_failure.json").read_text()) == {
            "error": "Newton stalled", "iterations": 80, "final_residual_norm": 1.5e-3,
        }
        assert not (out / "front_profile.csv").exists()

    def test_painleve_certificate_failure(self, tmp_path, capsys):
        failure = CertificateError("lower bound violated")
        with mock.patch.object(cli, "certify_lower_bound", mock.Mock(side_effect=failure)):
            code, out = run(["painleve", "--n", "4001"], tmp_path)
        assert code == 3
        assert capsys.readouterr().err == "certificate failure: lower bound violated\n"
        summary = json.loads((out / "painleve_summary.json").read_text())
        assert summary["certificate_failure"] == "lower bound violated"
        assert not (out / "painleve_manifest.json").exists()

    def test_painleve_w0_below_airy(self, tmp_path, capsys):
        # w and w' scaled by 0.95 keep the potential, lower-bound and
        # ground-state certificates but put w(0) = 0.3487 below Ai(0)
        sol = solve_hastings_mcleod()
        low = dataclasses.replace(sol, w=0.95 * sol.w, wprime=0.95 * sol.wprime)
        with mock.patch.object(cli, "solve_hastings_mcleod", mock.Mock(return_value=low)):
            code, out = run(["painleve"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("certificate failure: w(0) = 0.3487") and "below Ai(0) = 0.355028054" in err
        summary = json.loads((out / "painleve_summary.json").read_text())
        assert err == f"certificate failure: {summary['certificate_failure']}\n"
        assert summary["lower_bound"] == "certified" and summary["ground_state"] < 0.0
        assert not (out / "painleve_manifest.json").exists()

    def test_pde_last_state(self, tmp_path, capsys):
        abort = SimulationAbort(1.5, np.array([0.25, -0.5]))
        with mock.patch.object(cli, "simulate", mock.Mock(side_effect=abort)):
            code, out = run(["pde", "--t-end", "2"], tmp_path)
        assert code == 4
        assert capsys.readouterr().err.startswith("simulation abort: simulation aborted at t = 1.5")
        meta, body = read_meta(out / "pde_last_state.csv")
        assert float(meta["t"]) == 1.5 and meta["columns"] == "u"
        assert list(body) == [0.25, -0.5]
        assert not (out / "pde_snapshots.csv").exists()


class TestProcess:
    """``python -m quenchfront.cli`` as its own process: the documented exit
    code and a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "args,code,message,written",
        [
            (
                ["front", "--c", "1.999", "--eps", "0.08", "--L", "150"],
                2,
                "solver failure: front solve failed at c=1.999, eps=0.08",
                ["front_failure.json"],
            ),
            (["painleve", "--classify", "0.5,abc"], 1, "argument --classify:", []),
            (["painleve", "--classify", "1e150"], 1, "error: tail multiplier k = 1e+150", []),
            (["front", "--config", "typo.cfg"], 1, "key 'epsilon_typo' names no option", []),
            (["pde", "--dt", "0"], 1, "error: dt must be positive and finite", []),
            (
                ["front", "--c", "1.2", "--eps", "0.0025", "--L", "inf"],
                1,
                "error: mesh ends must be finite",
                [],
            ),
            (
                ["front", "--c", "1.2", "--eps", "0.0025", "--L", "1e300"],
                2,
                "solver failure: jacobian singular",
                [],
            ),
        ],
        ids=[
            "seed-failure", "bad-classify", "classify-past-pole", "unknown-config-key", "zero-dt",
            "infinite-L", "singular-jacobian",
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, args, code, message, written):
        (tmp_path / "typo.cfg").write_text("c = 1.2\neps = 0.004\nepsilon_typo = 0.004\nfold = true\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "quenchfront.cli", *args, "--outdir", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == code
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        # no data, summary or manifest: at most the documented failure report
        assert sorted(p.name for p in (tmp_path / "out").glob("*")) == written
