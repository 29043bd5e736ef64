"""Machine-speed reference measured while a workload runs.

The speed of a shared host swings by up to 2x within a second and drifts
over minutes, far more than any bound a regression gate can use.  A
:class:`Calibrator` pins the benchmark process to one CPU and runs a fixed
kernel back to back in a child process pinned to the same CPU, so that the
two time-share one core and see the same speed at every moment.  An
operation's CPU time divided by the mean CPU time of the kernel repetitions
that overlap it is its time in *calibration units* (``cal``): a measure of
the program's work from which the host's speed swings largely cancel.

The child is ``python3 calib.py CPU``: it prints ``ready`` once warm, repeats
the kernel until a line (or end of file) arrives on its stdin, then prints
its samples as JSON.  End of file also stops it if the benchmark dies.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def kernel(x: np.ndarray, lu) -> None:
    """Fixed work in the solvers' mix: an interpreter loop, a loop of
    3-element numpy updates, 4000-element vector operations and sparse
    tridiagonal solves of size 3000; about 50 ms of CPU on a 2.1 GHz Xeon."""
    s = 0
    for i in range(150_000):
        s += (i * i) % 7
    a = np.ones(3)
    for _ in range(8_000):
        a = a * 1.0000001 + 1e-9
        float(a[0])
    for i in range(600):
        float(np.tanh(x * (1.0 + 1e-4 * i))[::7].sum())
    u = x[:3000].copy()
    for _ in range(150):
        u = lu.solve(u + 0.01 * (u - u**3))


def _child(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    x = np.linspace(0.0, 1.0, 4000)
    lu = splu(diags([-1.0, 3.0, -1.0], [-1, 0, 1], shape=(3000, 3000), format="csc"))
    kernel(x, lu)
    stop = threading.Event()

    def wait_for_stop():
        sys.stdin.readline()
        stop.set()

    threading.Thread(target=wait_for_stop, daemon=True).start()
    print("ready", flush=True)
    samples = []
    while not stop.is_set():
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: shared with the parent
        c0 = time.process_time()
        kernel(x, lu)
        samples.append((t0, time.perf_counter(), time.process_time() - c0))
    json.dump(samples, sys.stdout)
    sys.stdout.flush()


class Calibrator:
    """Context manager: pins this process and the kernel child to one CPU;
    on exit the child has ended, its samples (wall start, wall end, CPU
    seconds) are in ``samples`` and the original CPU affinity is restored."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._starts: list[float] = []

    def __enter__(self) -> "Calibrator":
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self._proc.stdout], [], [], START_TIMEOUT_S)
        if not ready or self._proc.stdout.readline().strip() != "ready":
            self._end(kill=True)
            raise RuntimeError("calibration process did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate("stop\n", timeout=STOP_TIMEOUT_S)
            self.samples = [tuple(s) for s in json.loads(out)]
        finally:
            self._end(kill=self._proc.poll() is None)
        self._starts = [s[0] for s in self.samples]

    def _end(self, kill: bool) -> None:
        if kill:
            self._proc.kill()
        self._proc.wait()
        os.sched_setaffinity(0, self._affinity)

    def cpu_per_kernel(self, t0: float, t1: float) -> float:
        """Mean kernel CPU time over the repetitions overlapping [t0, t1]."""
        i = max(bisect.bisect_left(self._starts, t0) - 1, 0)
        cpu = []
        while i < len(self.samples) and self.samples[i][0] < t1:
            if self.samples[i][1] > t0:
                cpu.append(self.samples[i][2])
            i += 1
        if not cpu:  # interval outside the sampled range: nearest repetition
            cpu.append(self.samples[min(i, len(self.samples) - 1)][2])
        return statistics.fmean(cpu)

    def median(self) -> float:
        return statistics.median(s[2] for s in self.samples)


if __name__ == "__main__":
    _child(int(sys.argv[1]))
