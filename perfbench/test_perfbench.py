"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They check metric naming against BENCHMARK.json, that a result corrupted on
purpose counts as failed, that counters repeat exactly and reproduce the
seed anchors, and that the launcher refuses to run without the package
sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
from calib import Calibrator  # noqa: E402
import workloads  # noqa: E402
from quenchfront import folddelay, stability, travelingwave  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_metric_names_and_units_match_the_spec():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == bench.END_TO_END_UNITS
    assert layer == {**PER_LAYER_UNITS, **bench.EXTRA_LAYER_UNITS}
    names = [*e2e, *layer, *(w["name"] for w in SPEC["workloads"])]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_emits_every_end_to_end_metric():
    records = [
        bench.PassRecord(seconds=1.0, cpu_seconds=0.5 + 0.01 * i, cal_seconds=10.0 + 0.2 * i,
                         results=3, attempted=4, failed=i % 2)
        for i in range(12)
    ]
    metrics, info = bench.end_to_end(records, setup_s=1.0, cal_s=0.05)
    assert set(metrics) == bench.END_TO_END_UNITS.keys()
    assert all(m["value"] > 0 for m in metrics.values())
    assert info["tail"] == {"percentile": pytest.approx(100 * 2 / 12), "samples": 12,
                            "beyond": 10}
    assert metrics["wall_cal_tail"]["value"] == pytest.approx(10.2)
    assert info["cpu"]["pass_s_tail"] == pytest.approx(0.51)
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 0, os.path.join(ROOT, ".bench_tmp"))
        assert ops and all(callable(op.run) and callable(op.check) for op in ops)


def test_fronts_run_prints_the_contract_result():
    proc = _run("--workload", "fronts", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == bench.END_TO_END_UNITS.keys()
    # the c = 1.9 branch is a known defect and must show as a failure
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_corrupted_fit_raises_fail_frac(monkeypatch):
    def fake_passage(c, eps, delta=0.25):
        return folddelay.FoldDelayRecord(c, eps, 2.0 * eps ** (2 / 3), delta, False)

    def fake_fit(records):
        return folddelay.DelayFit(exponent=0.5, prefactor=2.13, reference_prefactor=2.13)

    monkeypatch.setattr(folddelay, "run_fold_passage", fake_passage)
    monkeypatch.setattr(folddelay, "fit_delay_scaling", fake_fit)
    ops = workloads.build("fold", 0, "")[:2]
    rec = bench.run_pass(ops, [0, 1])
    assert rec.failed == 2 and rec.incorrect == 2
    assert rec.seconds == 0.0 and rec.results == 0 and rec.spans == []
    metrics, _ = bench.end_to_end([rec], setup_s=1.0, cal_s=0.05)
    assert metrics["ok_frac"]["value"] == 0.0


def test_seed_zero_is_the_readme_input_and_jitter_stays_in_range():
    assert workloads.Inputs(0).grid(1e-5, 1e-3, 7) == list(np.geomspace(1e-5, 1e-3, 7))
    a = workloads.Inputs(5).grid(2.5e-4, 2.5e-3, 10)
    assert a == workloads.Inputs(5).grid(2.5e-4, 2.5e-3, 10)
    for got, base in zip(a, np.geomspace(2.5e-4, 2.5e-3, 10)):
        assert base <= got < base * (1 + workloads.EPS_JITTER)
    assert a[-1] / a[0] == pytest.approx(10.0, rel=1e-12)
    assert next(workloads.pass_orders(0, 5)) == [0, 1, 2, 3, 4]
    assert sorted(next(workloads.pass_orders(7, 5))) == [0, 1, 2, 3, 4]


def test_counters_repeat_and_reproduce_the_anchors():
    t = Tracer()
    with t.installed():
        for pass_id in (1, 2):
            t.pass_id = pass_id
            front = travelingwave.solve_front(travelingwave.QuenchParams(1.2, 2.5e-3), 2000.0, 4001)
            travelingwave.front_branch(1.2, np.geomspace(2.5e-4, 2.5e-3, 10))
        t.pass_id = 3
        travelingwave.solve_front(travelingwave.QuenchParams(1.2, 2.5e-3), 2000.0, 4001)
        t.pass_id = 4
        travelingwave.front_branch(1.2, np.geomspace(2.5e-4, 2.5e-3, 10))
        t.pass_id = 5
        folddelay.run_fold_passage(1.2, 1e-5, 0.25)
        t.pass_id = 6
        stability.build_Lc(front, h=0.25)
    assert t.exact_counters(1) == t.exact_counters(2)
    assert t.counters[3]["solvercore.newton.iters"] == 9
    assert t.counters[4]["travelingwave.branch_entries"] == 17
    assert t.counters[4]["travelingwave.mesh_nodes"] == 3613
    assert t.counters[5]["solvercore.ode.steps"] == 11485
    assert t.counters[6]["stability.nodes"] == 15999
    layers = t.layer_metrics(1)
    assert set(layers) == PER_LAYER_UNITS.keys()
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["travelingwave.self_s"] >= layers["travelingwave.assembly_s"] > 0
    # the rebinding is undone on exit
    assert travelingwave.solve_front.__qualname__ == "solve_front"


def test_calibration_process_samples_and_ends():
    affinity = os.sched_getaffinity(0)
    with Calibrator() as cal:
        assert len(os.sched_getaffinity(0)) == 1
        t0 = time.perf_counter()
        time.sleep(0.3)
        t1 = time.perf_counter()
    assert cal._proc.returncode == 0
    assert os.sched_getaffinity(0) == affinity
    assert len(cal.samples) >= 2
    assert cal.cpu_per_kernel(t0, t1) > 0 and cal.median() > 0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".bench_tmp", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("--workload", "fronts", "--seed", "0", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
