"""Measure one workload and print its result as the last line of stdout.

Set-up (input generation and warm-up) runs SETUP_REPEATS times and its
median, plus the one-off import time, is ``setup_s``.  The measured loop then
runs whole passes until the next pass would likely end after ``--seconds``
(at least one pass; two with ``--trace 1``).

A pass's time is the summed run time of the operations that returned a
result passing its check: a failed operation counts in ``failed`` and never
in a timing.

Untraced runs (``--trace 0``) report the bounded end-to-end times in
calibration units (``cal``, see calib.py): each verified operation's CPU
time divided by the CPU time of a reference kernel that a second process,
time-sharing the same CPU, repeats over the same interval.  The raw CPU
seconds go to the details line.

Traced runs (``--trace 1``) run alone on the machine's CPUs, without the
calibration process, and their passes alternate untraced and traced: the
per-layer metrics come from the traced passes, the wall-clock ``wall_s``,
``wall_s_tail`` and ``solves_per_s`` from the untraced ones, and
``trace.overhead_s`` is the difference of the two median pass times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import workloads
from calib import Calibrator
from tracer import PER_LAYER_UNITS, Tracer

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many passes above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal": "cal",
    "wall_cal_tail": "cal",
    "solves_per_cal": "1/cal",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

EXTRA_LAYER_UNITS = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "solves_per_s": "1/s",
    "fail_frac": "frac",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class PassRecord:
    traced: bool = False
    elapsed: float = 0.0  # wall time of the whole pass, checks included
    seconds: float = 0.0  # wall time of the verified operations
    cpu_seconds: float = 0.0  # CPU time of the verified operations
    results: int = 0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (start, end, CPU s) of each verified operation
    cal_seconds: float = 0.0  # CPU time of the verified operations in calibration units


def run_pass(ops: list, order: list[int]) -> PassRecord:
    rec = PassRecord()
    t_pass = time.perf_counter()
    for i in order:
        op = ops[i]
        rec.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            rec.failed += 1
            rec.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        t1, cpu = time.perf_counter(), time.process_time() - c0
        try:
            n_results = op.check(out)
        except workloads.CheckFailed as exc:
            rec.failed += 1
            rec.incorrect += 1
            rec.errors.append(f"{op.name}: check failed: {exc}")
            continue
        rec.seconds += t1 - t0
        rec.cpu_seconds += cpu
        rec.spans.append((t0, t1, cpu))
        rec.results += n_results
    rec.elapsed = time.perf_counter() - t_pass
    return rec


def measure(
    ops: list, seed: int, seconds: float, tracer: Tracer | None
) -> tuple[list[PassRecord], float | None]:
    """Run passes until the next one would likely end after ``seconds``.
    Untraced runs go under a Calibrator and also return its median kernel
    CPU time; traced runs return None for it."""
    orders = workloads.pass_orders(seed, len(ops))
    records: list[PassRecord] = []
    min_passes = 2 if tracer is not None else 1
    with contextlib.nullcontext() if tracer is not None else Calibrator() as cal:
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(records) % 2 == 1
            order = next(orders)
            gc.collect()  # every pass starts from the same collector state
            if traced:
                tracer.pass_id = len(records)
                with tracer.installed():
                    rec = run_pass(ops, order)
            else:
                rec = run_pass(ops, order)
            rec.traced = traced
            records.append(rec)
            elapsed = time.perf_counter() - start
            longest = max(r.elapsed for r in records)
            if len(records) >= min_passes and elapsed + longest > seconds:
                break
    if cal is None:
        return records, None
    for rec in records:
        rec.cal_seconds = sum(cpu / cal.cpu_per_kernel(t0, t1) for t0, t1, cpu in rec.spans)
    return records, cal.median()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, passes beyond it): the highest order statistic
    with at least TAIL_BEYOND passes above it, or the maximum when there are
    too few passes for that."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND  # 1-based rank
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / n, n - k


def times(records: list[PassRecord], key: str) -> tuple[float, float, float, dict]:
    """Median and tail pass time and median verified results per unit time,
    with pass times read from the PassRecord field ``key``."""
    values = [getattr(r, key) for r in records]
    value, pct, beyond = tail(values)
    rate = statistics.median(
        r.results / getattr(r, key) if getattr(r, key) > 0 else 0.0 for r in records
    )
    return statistics.median(values), value, rate, {
        "percentile": pct, "samples": len(values), "beyond": beyond
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records: list[PassRecord], setup_s: float, cal_s: float) -> tuple[dict, dict]:
    wall, wall_tail, rate, tail_info = times(records, "cal_seconds")
    cpu, cpu_tail, cpu_rate, _ = times(records, "cpu_seconds")
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    metrics = {
        "setup_s": setup_s,
        "wall_cal": wall,
        "wall_cal_tail": wall_tail,
        "solves_per_cal": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    info = {
        "tail": tail_info,
        "cpu": {"pass_s": cpu, "pass_s_tail": cpu_tail, "solves_per_s": cpu_rate,
                "kernel_s": cal_s},
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def per_layer(records: list[PassRecord], tracer: Tracer) -> tuple[dict, dict]:
    traced = [i for i, r in enumerate(records) if r.traced]
    layers = [tracer.layer_metrics(i) for i in traced]
    exact = [tracer.exact_counters(i) for i in traced]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m in layers]
        # counts repeat exactly between passes; times vary, so take the median
        metrics[name] = values[0] if unit in ("count", "B") else statistics.median(values)
    plain = [r for r in records if not r.traced]
    wall, wall_tail, rate, tail_info = times(plain, "seconds")
    traced_wall = statistics.median(records[i].seconds for i in traced)
    metrics.update(
        {
            "wall_s": wall,
            "wall_s_tail": wall_tail,
            "solves_per_s": rate,
            "fail_frac": sum(r.failed for r in records) / sum(r.attempted for r in records),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
        }
    )
    units = {**PER_LAYER_UNITS, **EXTRA_LAYER_UNITS}
    # cli.bytes_written may differ by a few bytes: run manifests carry wall time
    counts = [
        {**e, **{k: m[k] for k, u in PER_LAYER_UNITS.items() if u == "count"}}
        for e, m in zip(exact, layers)
    ]
    info = {
        "tail": tail_info,
        "counters": exact[0],
        "counters_repeat": all(c == counts[0] for c in counts),
    }
    return {k: _metric(v, units[k]) for k, v in metrics.items()}, info


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str], root: str, t_start: float) -> int:
    import_s = time.perf_counter() - t_start
    args = parse_args(argv)
    scratch = os.path.join(root, ".bench_tmp")
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, scratch)
        workloads.warm_up(args.workload, scratch)
        setup_runs.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_runs)

    tracer = Tracer() if args.trace else None
    try:
        records, cal_s = measure(ops, args.seed, args.seconds, tracer)
    except Exception:
        traceback.print_exc()
        return 2

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "passes": [
            {"traced": r.traced, "elapsed": r.elapsed, "seconds": r.seconds,
             "cpu_seconds": r.cpu_seconds, "cal_seconds": r.cal_seconds,
             "results": r.results, "attempted": r.attempted, "failed": r.failed}
            for r in records
        ],
        "errors": sorted({e for r in records for e in r.errors}),
    }
    if tracer is None:
        metrics, extra = end_to_end(records, setup_s, cal_s)
    else:
        metrics, extra = per_layer(records, tracer)
        trace_dir = os.path.join(root, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        extra["trace_file"] = os.path.relpath(path, root)
    info.update(extra)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not any(r.incorrect for r in records),
                "attempted": sum(r.attempted for r in records),
                "failed": sum(r.failed for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0
