"""Workload inputs, the operations of one pass, and their correctness checks.

Each workload is a closed loop: one pass runs its operations in order and the
next pass starts when it ends.  Seed 0 gives exactly the README and
acceptance-suite inputs in their canonical order.  A nonzero seed raises each
ramp rate by a factor drawn from [1, 1 + EPS_JITTER) -- upward only, because
several inputs sit exactly on the validated edge ``L = 5/eps`` -- and
shuffles the order of operations in every pass.  All points of one eps grid
share their factor, so a grid keeps the span (one decade for the c = 0
branch) that its fit requires.

Library calls go through module attributes (``travelingwave.front_branch``,
not a name imported here) so that the tracer's rebinding sees them.  A check
raises :class:`CheckFailed`; a passing check returns the number of verified
solver results (fronts returned, fold passages, connection solves,
eigen-solves, PDE runs).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quenchfront import cli, folddelay, painleve, pdesim, solvercore, specfun, stability
from quenchfront import travelingwave

WORKLOADS = ("fronts", "fold", "spectra", "pde")

# upper end of the multiplicative ramp-rate jitter for nonzero seeds
EPS_JITTER = 0.01

# pinned tolerances of the acceptance suite
HM_W0_MIN = 0.3550280
OMEGA0 = 2.338107
MONOTONE_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Inputs:
    """Ramp rates for one seed; ``eps(x)`` returns x itself at seed 0."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def _factor(self) -> float:
        return 1.0 if self.seed == 0 else 1.0 + EPS_JITTER * self._rng.random()

    def eps(self, value: float) -> float:
        return float(value) * self._factor()

    def grid(self, lo: float, hi: float, n: int) -> list[float]:
        factor = self._factor()
        return [float(e) * factor for e in np.geomspace(lo, hi, n)]


def pass_orders(seed: int, n_ops: int):
    """Operation order of each successive pass."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(range(n_ops))
        if seed != 0:
            rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# fronts: banded Newton, continuation, travelingwave assembly
# ---------------------------------------------------------------------------


def _check_monotone(front) -> None:
    _require(
        float(np.min(np.diff(front.u))) >= -MONOTONE_TOL,
        f"front at c={front.params.c}, eps={front.params.epsilon} is not monotone",
    )


def _check_moving_branch(c: float, n_targets: int, slope_window: tuple | None):
    def check(branch) -> int:
        fronts = branch.fronts
        _require(len(fronts) == n_targets, f"c={c}: {len(fronts)} of {n_targets} fronts")
        for f in fronts:
            _check_monotone(f)
        _require(all(f.mu_fr is not None for f in fronts), f"c={c}: front without interface")
        eps = np.array([f.params.epsilon for f in fronts])
        delays = np.array([f.mu_fr - c * c / 4.0 for f in fronts])
        _require(bool(np.all(delays > 0.0)), f"c={c}: nonpositive delay mu_fr - c^2/4")
        if slope_window is not None:
            slope = float(np.polyfit(np.log(eps), np.log(delays), 1)[0])
            lo, hi = slope_window
            _require(lo <= slope <= hi, f"c={c}: delay slope {slope:.4f} outside [{lo}, {hi}]")
        return len(fronts)

    return check


def _check_pitchfork(out) -> int:
    branch, slope = out
    _require(len(branch.fronts) == 8, f"c=0: {len(branch.fronts)} of 8 fronts")
    for f in branch.fronts:
        _check_monotone(f)
    _require(abs(slope - 1.0 / 3.0) <= 0.05, f"c=0: amplitude exponent {slope:.4f}")
    return len(branch.fronts)


def _check_front(plateau: bool):
    def check(front) -> int:
        _check_monotone(front)
        c = front.params.c
        if c > 0.0:
            _require(
                front.mu_fr is not None and front.mu_fr > c * c / 4.0,
                f"c={c}: interface not delayed past mu_c",
            )
        else:
            _require(front.u_at_origin is not None and front.u_at_origin > 0.0, "c=0: u(0) <= 0")
        if plateau:
            left = front.mu <= 0.26
            _require(float(np.max(front.u[left])) < 1e-3, "plateau invariant violated")
        return 1

    return check


def fronts_ops(inp: Inputs) -> list[Operation]:
    tw = travelingwave
    ops = []
    for c in (0.4, 0.8, 1.2, 1.6, 1.9):
        targets = inp.grid(2.5e-4, 2.5e-3, 10)
        window = (0.60, 0.70) if c == 1.2 else None  # criterion 3 is stated at c = 1.2
        ops.append(
            Operation(
                f"front_branch(c={c})",
                lambda c=c, t=targets: tw.front_branch(c, t),
                _check_moving_branch(c, len(targets), window),
            )
        )
    targets0 = inp.grid(1e-3, 1e-2, 8)

    def pitchfork(t=targets0):
        branch = tw.front_branch(0.0, t)
        return branch, tw.stationary_amplitude_at_pitchfork(branch.fronts)

    ops.append(Operation("front_branch(c=0)", pitchfork, _check_pitchfork))
    e1, e2, e3, e0 = inp.eps(2.5e-3), inp.eps(2.5e-3), inp.eps(5e-3), inp.eps(9.81e-3)
    # the plateau invariant of criterion 9 is stated for the eps = 5e-3 front
    for label, c, eps, half, n, plateau in (
        ("solve_front(1.2, 2.5e-3, n=4001)", 1.2, e1, 2000.0, 4001, False),
        ("solve_front(1.2, 2.5e-3, n=8001)", 1.2, e2, 2000.0, 8001, False),
        ("solve_front(1.2, 5e-3, n=3001)", 1.2, e3, 1000.0, 3001, True),
        ("solve_front(0, 9.81e-3, n=4001)", 0.0, e0, 5.0 / e0 + 1.0, 4001, False),
    ):
        ops.append(
            Operation(
                label,
                lambda c=c, eps=eps, half=half, n=n: tw.solve_front(
                    tw.QuenchParams(c, eps), half, n
                ),
                _check_front(plateau),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# fold: adaptive RK steps, event location, Airy-tail classification
# ---------------------------------------------------------------------------


def _check_fold(c: float):
    def check(out) -> int:
        records, fit = out
        _require(abs(fit.exponent - 0.667) <= 0.02, f"c={c}: fold exponent {fit.exponent:.4f}")
        ref = OMEGA0 * (1.0 - c**4 / 16.0) ** (2.0 / 3.0)
        _require(
            abs(fit.prefactor / ref - 1.0) <= 0.05,
            f"c={c}: prefactor {fit.prefactor:.4f} vs {ref:.4f}",
        )
        return len(records)

    return check


def _check_class(expected: str):
    def check(cls) -> int:
        _require(cls.kind == expected, f"tail class {cls.kind!r}, expected {expected!r}")
        return 0

    return check


def fold_ops(inp: Inputs) -> list[Operation]:
    fd = folddelay
    ops = []
    for c in (1.2, 1.6):
        eps_list = inp.grid(1e-5, 1e-3, 7)

        def passage(c=c, eps_list=eps_list):
            records = [fd.run_fold_passage(c, e, 0.25) for e in eps_list]
            return records, fd.fit_delay_scaling(records)

        ops.append(Operation(f"fold(c={c})", passage, _check_fold(c)))
    for k, expected in ((0.5, "oscillatory-decay"), (1.5, "pole")):
        ops.append(
            Operation(
                f"classify_airy_tail({k})",
                lambda k=k: painleve.classify_airy_tail(k),
                _check_class(expected),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# spectra: Sturm eigen-solves at 3 999 and 15 999 nodes, Airy seed loop
# ---------------------------------------------------------------------------


def _connection():
    pl = painleve
    sol = pl.solve_hastings_mcleod(12.0, 8.0, 8001)
    cert = pl.certify_potential_positive(sol)
    lower = pl.certify_lower_bound(sol)
    ground = pl.linearization_ground_state(sol)
    return sol, cert, lower, ground


def _check_connection(out) -> int:
    sol, cert, lower, ground = out
    w0 = float(np.interp(0.0, sol.eta, sol.w))
    _require(w0 >= HM_W0_MIN, f"w(0) = {w0:.7f} < {HM_W0_MIN}")
    _require(cert.min_value > 0.0 and cert.margin_bound > 0.0, "potential not certified")
    _require(lower is True, "lower bound not certified")
    _require(float(np.max(np.diff(sol.w))) <= MONOTONE_TOL, "connection not monotone")
    _require(float(ground.eigenvalues[0]) < 0.0, "connection ground state not negative")
    return 2


def _check_lc(out) -> int:
    front, spec = out
    _check_monotone(front)
    _require(float(spec.eigenvalues[0]) < 0.0, f"lambda0(Lc) = {spec.eigenvalues[0]} >= 0")
    return 2


BOX_N, BOX_L = 49, 10.0


def _box_oracle():
    h = BOX_L / (BOX_N + 1)
    return solvercore.eig_tridiag_symmetric(
        np.full(BOX_N, -2.0 / h**2 - 1.0), np.full(BOX_N - 1, 1.0 / h**2), 3
    )


def _check_box(spec) -> int:
    h = BOX_L / (BOX_N + 1)
    for k, lam in enumerate(spec.eigenvalues, start=1):
        want = -1.0 - (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * BOX_L)) ** 2
        _require(abs(lam - want) <= 1e-8, f"box eigenvalue {k}: {lam} vs {want}")
    return 1


def spectra_ops(inp: Inputs) -> list[Operation]:
    eps = inp.eps(2.5e-3)

    def lc(eps=eps):
        front = travelingwave.solve_front(travelingwave.QuenchParams(1.2, eps), 2000.0, 4001)
        op = stability.build_Lc(front, h=0.25)
        return front, stability.leading_eigenvalues(op, 3)

    return [
        Operation("connection(12, 8, 8001)", _connection, _check_connection),
        Operation("Lc(1.2, 2.5e-3, h=0.25)", lc, _check_lc),
        Operation("box_oracle(49)", _box_oracle, _check_box),
    ]


# ---------------------------------------------------------------------------
# pde: semi-implicit stepper (frozen mu, rebuilt mu, comoving) and CLI output
# ---------------------------------------------------------------------------


def _cli_pde(scratch_root: str, argv: list[str]):
    """Run ``quenchfront pde ARGV`` in-process with a temporary --outdir under
    ``scratch_root``; returns the exit code and the parsed pde_summary.json."""

    def run():
        os.makedirs(scratch_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch_root) as out, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["pde", *argv, "--outdir", out])
            summary_path = os.path.join(out, "pde_summary.json")
            summary = None
            if os.path.exists(summary_path):
                with open(summary_path) as fh:
                    summary = json.load(fh)
        return rc, summary

    return run


def _check_speed(out) -> int:
    rc, summary = out
    _require(rc == 0 and summary is not None, f"pde --frozen-mu exit code {rc}")
    speed = summary.get("measured_speed", math.nan)
    _require(abs(speed - 2.0) <= 0.05, f"invasion speed {speed}")
    return 1


def _check_quench(out) -> int:
    rc, summary = out
    _require(rc == 0 and summary is not None, f"pde --compare exit code {rc}")
    _require(summary["nonnegative_after_transient"], "quench lead negative")
    _require(summary["growing"], "quench lead not growing")
    return 1


COMOVING_DOMAIN, COMOVING_N = (-60.0, 367.6), 2139  # h = 0.2


def _check_comoving(res) -> int:
    _require(bool(np.all(np.isfinite(res.snapshots[-1]))), "comoving state not finite")
    return 1


def pde_ops(inp: Inputs, scratch_root: str) -> list[Operation]:
    eps_q = inp.eps(0.005)
    eps_c = inp.eps(2.5e-3)

    def comoving(eps=eps_c):
        return pdesim.simulate(
            pdesim.SimConfig(
                frame="comoving", c=1.2, epsilon=eps, domain=COMOVING_DOMAIN, n=COMOVING_N,
                t_end=300.0, ic="front-seed", snapshot_dt=300.0,
            )
        )

    return [
        Operation("pde --frozen-mu 1", _cli_pde(scratch_root, ["--frozen-mu", "1", "--t-end", "60"]),
                  _check_speed),
        Operation("pde --alpha 0 --compare",
                  _cli_pde(scratch_root, ["--alpha", "0", "--eps", repr(eps_q), "--compare"]),
                  _check_quench),
        Operation("simulate(comoving, c=1.2)", comoving, _check_comoving),
    ]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, scratch_root: str) -> list[Operation]:
    inp = Inputs(seed)
    if workload == "fronts":
        return fronts_ops(inp)
    if workload == "fold":
        return fold_ops(inp)
    if workload == "spectra":
        return spectra_ops(inp)
    if workload == "pde":
        return pde_ops(inp, scratch_root)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, scratch_root: str) -> None:
    """Small calls through every layer the workload uses, so that lazy
    imports and the cached Omega0 are in place before the first pass."""
    specfun.omega0.cache_clear()
    specfun.omega0()
    tw = travelingwave
    if workload in ("fronts", "spectra"):
        front = tw.solve_front(tw.QuenchParams(1.2, 0.01), 500.0, 2001)
    if workload == "fronts":
        tw.front_branch(1.2, [0.02])
    elif workload == "fold":
        folddelay.run_fold_passage(1.2, 1e-2, 0.25)
        painleve.classify_airy_tail(1.5)
    elif workload == "spectra":
        stability.leading_eigenvalues(stability.build_Lc(front, h=2.0), 1)
        painleve.airy(0.0)
    elif workload == "pde":
        pdesim.simulate(pdesim.SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0))
        _cli_pde(scratch_root, ["--frozen-mu", "1", "--domain", "0", "20", "--n", "101",
                           "--t-end", "1"])()
