"""Command-line surface.

Each subcommand reproduces one quantitative claim about quenched fronts:

* ``front``        -- one traveling/stationary front profile behind the
  tanh ramp mu = -tanh(eps (x - ct)), the only ramp solved, and its
  interface delay against the law mu_fr = c^2/4 + Omega0 (1-c^4/16)^{2/3}
  eps^{2/3}.
* ``delay-sweep``  -- the eps^{2/3} delay scaling, from the full front BVP
  or (``--fold``) from the reduced slow-passage system.
* ``painleve``     -- the connection profile of w'' = eta w + 2 w^3 with
  its positivity/lower-bound/ground-state certificates.
* ``pde``          -- direct simulations: invasion at speed 2 under frozen
  mu = 1, relaxation to the BVP front in the comoving frame, and the
  homogeneous quench against the characteristic prediction
  x0 + int 2 sqrt(mu).

Data files are plain CSV with a single '#'-prefixed metadata line
(key=value pairs, including the column list); fit summaries and manifests
are JSON.  Identical configurations produce bit-identical data files; the
manifest (wall time) is excluded from that guarantee.

Exit codes: 0 success, 1 usage/config error, 2 solver failure,
3 certificate failure, 4 simulation abort.  Commands raise; ``main`` maps
what they raise through the one table ``_FAILURES`` (``ValueError`` -> 1
``error:``; front, connection, fold-passage and quench-comparison failures
and a singular Newton Jacobian -> 2 ``solver failure:``; certificates -> 3;
simulation aborts -> 4).  A BVP ``delay-sweep`` that converges on fewer
than 80 % of its points writes its results, then raises a front failure
(exit 2, ``solver failure: k of n eps points converged``); it fits a slope
only when at least two distinct eps converged.  Parsing refuses
with exit 1, before any work, a config key that names no option of the
subcommand, a ``painleve --classify`` token that is not a finite number,
and a ``delay-sweep --points`` below 1 or ``--eps-decade`` not LO:HI with
both ends positive.  Before any solve, ``pde`` refuses with exit 1 a
non-finite number, a ``--dt`` or ``--eps`` that is not positive and a
``--level`` outside (0, 1), ``front`` a non-finite ``--L`` and ``painleve``
a non-finite ``--window`` end.  A
``--fold`` sweep too short to fit (refused before any passage runs) and a
``--compare`` run that is not a lab-frame homogeneous quench are usage
errors; a compared front that never crosses the level or never leaves the
transient is a solver failure.  ``front`` below eps = 1e-3 runs the
eps-continuation, which sizes its own mesh, so an explicit ``--L`` or
``--n`` there is a usage error, as is a continuation (``front`` or the BVP
``delay-sweep``) at a speed so close to 2 that its start is refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .folddelay import (
    FoldPassageError,
    check_fit_sweep,
    check_passage,
    fit_delay_scaling,
    run_fold_passage,
)
from .painleve import (
    CertificateError,
    HMSolveError,
    certify_lower_bound,
    certify_potential_positive,
    classify_airy_tail,
    linearization_ground_state,
    solve_hastings_mcleod,
)
from .pdesim import (
    QuenchComparisonError,
    SimConfig,
    SimulationAbort,
    check_quench_comparable,
    compare_homogeneous_quench,
    simulate,
)
from .solvercore import JacobianSingularError
from .travelingwave import (
    FrontSolveError,
    QuenchParams,
    compare_with_rescaled_profile,
    front_branch,
    predicted_delay,
    rescaled_inner_profile,
    solve_front,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATE = 3
EXIT_SIMULATION = 4

# what a command raises -> (exit code, stderr prefix)
_FAILURES = {
    ValueError: (EXIT_USAGE, "error"),
    FrontSolveError: (EXIT_SOLVER, "solver failure"),
    JacobianSingularError: (EXIT_SOLVER, "solver failure"),
    HMSolveError: (EXIT_SOLVER, "solver failure"),
    FoldPassageError: (EXIT_SOLVER, "solver failure"),
    QuenchComparisonError: (EXIT_SOLVER, "solver failure"),
    CertificateError: (EXIT_CERTIFICATE, "certificate failure"),
    SimulationAbort: (EXIT_SIMULATION, "simulation abort"),
}


@dataclass
class RunManifest:
    command: str
    config_digest: str
    tool_version: str
    outputs: list[str]
    wall_time: float


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_lines(path: str, meta: dict, columns: list[str], lines) -> str:
    """Write the metadata header, then ``lines`` (each ending in a newline)."""
    meta = dict(meta)
    meta["columns"] = ",".join(columns)
    header = "# " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)
    return path


def _write_csv(path: str, meta: dict, columns: list[str], rows) -> str:
    return _write_lines(path, meta, columns, (",".join(_fmt(v) for v in row) + "\n" for row in rows))


def _snapshot_lines(times: np.ndarray, x: np.ndarray, snapshots: np.ndarray):
    """Rows t,x,u of every snapshot, one block of lines per snapshot.

    The bytes equal ``_fmt`` on each value (``repr`` of the float); x is
    formatted once, and each block goes through ``ndarray.tolist`` instead
    of a type check and float conversion per numpy scalar."""
    xs = [repr(v) + "," for v in x.tolist()]
    for t, snap in zip(times.tolist(), snapshots):
        prefix = repr(t) + ","
        yield "".join([prefix + xv + repr(uv) + "\n" for xv, uv in zip(xs, snap.tolist())])


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


def _digest(params: dict) -> str:
    text = "\n".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _finish(
    command: str, params: dict, outputs: list[str], outdir: str, t0: float, **stats
) -> None:
    """Check the declared outputs and write the run manifest; ``stats``
    (what the solver did) go next to ``wall_time``."""
    manifest = RunManifest(
        command=command,
        config_digest=_digest(params),
        tool_version=__version__,
        outputs=[os.path.basename(p) for p in outputs],
        wall_time=time.time() - t0,
    )
    for p in outputs:
        if not (os.path.exists(p) and os.path.getsize(p) > 0):
            raise RuntimeError(f"declared output {p} missing or empty")
    _write_json(os.path.join(outdir, f"{command}_manifest.json"), {**asdict(manifest), **stats})


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("QUENCHFRONT_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _config_tokens(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """Turn the flat key = value file at ``path`` into command-line tokens
    for ``subparser``, so each value passes through the same argparse action
    (type, nargs, choices) as its flag.  Each key must name an option of the
    subcommand other than ``config`` (``-`` and ``_`` alike); switches take
    exactly true/false/1/0."""
    options = {
        a.dest: a
        for a in subparser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    entries = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                dest = key.replace("-", "_")
                if dest not in options:
                    raise ValueError(f"key {key!r} names no option of {subparser.prog}")
                entries[dest] = value
    except (OSError, ValueError) as exc:
        subparser.error(f"config file: {exc}")
    tokens = []
    for dest, raw in entries.items():
        action = options[dest]
        flag = action.option_strings[0]
        if action.nargs == 0:
            if raw not in ("true", "false", "1", "0"):
                subparser.error(f"config entry {dest} = {raw!r}: expected true, false, 1 or 0")
            if raw in ("true", "1"):
                tokens.append(flag)
        elif action.nargs is None:
            tokens.append(f"{flag}={raw}")  # one token, so values like -1 stay values
        else:
            tokens += [flag, *raw.split()]
    return tokens


# ---------------------------------------------------------------------------
# front
# ---------------------------------------------------------------------------

def cmd_front(args) -> int:
    t0 = time.time()
    if args.c is None or args.eps is None:
        raise ValueError("front needs --c and --eps (flags or config file)")
    c, eps = args.c, args.eps
    outdir = _outdir(args)
    params = {"c": c, "eps": eps}
    quench = QuenchParams(c, eps)
    if eps < 1e-3 and (args.L is not None or args.n is not None):
        raise ValueError(
            "--L and --n apply only at eps >= 1e-3; below it the "
            "eps-continuation sizes its own mesh"
        )
    try:
        if eps >= 1e-3:
            half = args.L if args.L is not None else 5.0 / eps
            n = args.n if args.n is not None else 4001
            params.update(L=half, n=n)
            sol = solve_front(quench, half, n=n)
        else:
            sol = front_branch(c, [eps]).fronts[0]
    except FrontSolveError as exc:
        report = exc.report
        _write_json(
            os.path.join(outdir, "front_failure.json"),
            {
                "error": str(exc),
                "iterations": getattr(report, "iterations", None),
                "final_residual_norm": getattr(report, "final_residual_norm", None),
            },
        )
        raise

    meta = dict(params)
    columns = ["zeta", "xi", "mu", "u", "v"]
    rows = zip(sol.zeta, sol.xi, sol.mu, sol.u, sol.v)
    if c == 0.0:
        hm = solve_hastings_mcleod()
        inner = rescaled_inner_profile(sol, hm.eta, hm.w)
        dev, eps23 = compare_with_rescaled_profile(sol, hm.eta, hm.w)
        meta.update(u_at_origin=sol.u_at_origin, inner_sup_deviation=dev, eps_two_thirds=eps23)
        columns = ["zeta", "xi", "mu", "u", "v", "u_inner"]
        rows = zip(sol.zeta, sol.xi, sol.mu, sol.u, sol.v, inner)
    profile = _write_csv(os.path.join(outdir, "front_profile.csv"), meta, columns, rows)

    diag = {
        "c": c,
        "eps": eps,
        "mu_fr": sol.mu_fr,
        "zeta_fr": sol.zeta_fr,
        "mu_fr_pred": predicted_delay(c, eps) if c > 0 else None,
        "u_at_origin": sol.u_at_origin,
        "residual": sol.report.final_residual_norm,
        "iterations": sol.report.iterations,
        "n": sol.mesh.count,
        "L": 0.5 * float(sol.zeta[-1] - sol.zeta[0]),
    }
    diag_path = _write_json(os.path.join(outdir, "front_diagnostics.json"), diag)
    if c > 0:
        print(
            f"mu_fr = {sol.mu_fr:.8f} (mu_c = {c*c/4:.6f}, "
            f"predicted {diag['mu_fr_pred']:.8f})"
        )
    else:
        print(f"u(xi=0) = {sol.u_at_origin:.8f}")
    _finish("front", params, [profile, diag_path], outdir, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# delay-sweep
# ---------------------------------------------------------------------------

def cmd_delay_sweep(args) -> int:
    t0 = time.time()
    outdir = _outdir(args)
    if args.c is None or args.eps_decade is None:
        raise ValueError("delay-sweep needs --c and --eps-decade")
    lo, hi = args.eps_decade
    eps_list = np.geomspace(lo, hi, args.points)
    if args.fold:
        # refuse what a passage or the fit would refuse before integrating
        for e in eps_list:
            check_passage(args.c, float(e), args.delta)
        try:
            check_fit_sweep(eps_list)
        except ValueError as exc:
            raise ValueError(f"fit refused: {exc}") from exc
    params = {
        "c": args.c, "eps_lo": lo, "eps_hi": hi, "points": args.points,
        "fold": args.fold, "delta": args.delta,
    }
    mu_c = args.c**2 / 4.0
    rows, summary = [], {"c": args.c, "mode": "fold" if args.fold else "bvp"}
    if args.fold:
        records = [run_fold_passage(args.c, float(e), args.delta) for e in eps_list]
        for rec in records:
            rows.append((rec.epsilon, rec.theta_exit, rec.theta_fold, rec.delta))
        columns = ["eps", "theta_exit", "theta_fold", "delta"]
        fit = fit_delay_scaling(records)
        summary.update(
            exponent=fit.exponent,
            prefactor=fit.prefactor,
            reference_prefactor=fit.reference_prefactor,
        )
        converged = len(records)
        total = len(eps_list)
    else:
        branch = front_branch(args.c, eps_list, strict=False)
        got = {f.params.epsilon: f for f in branch.fronts}
        delays = []
        for e in eps_list:
            f = got.get(float(e))
            if f is None or f.mu_fr is None:
                rows.append((float(e), math.nan, math.nan, math.nan, False))
            else:
                rows.append(
                    (f.params.epsilon, f.mu_fr, f.mu_fr - mu_c, predicted_delay(args.c, f.params.epsilon), True)
                )
                delays.append((f.params.epsilon, f.mu_fr - mu_c))
        columns = ["eps", "mu_fr", "delay", "mu_fr_pred", "converged"]
        converged, total = len(delays), len(eps_list)
        if len({d[0] for d in delays}) >= 2:
            le = np.log([d[0] for d in delays])
            ld = np.log([d[1] for d in delays])
            slope, intercept = np.polyfit(le, ld, 1)
            summary.update(slope=float(slope), prefactor=float(math.exp(intercept)))
        else:
            summary["fit"] = "refused: need at least 2 distinct converged eps"
    summary["converged"] = converged
    summary["total"] = total
    csv_path = _write_csv(os.path.join(outdir, "delay_sweep.csv"), params, columns, rows)
    json_path = _write_json(os.path.join(outdir, "delay_sweep_summary.json"), summary)
    if "slope" in summary:
        print(f"slope = {summary['slope']:.4f}")
    if "exponent" in summary:
        print(
            f"exponent = {summary['exponent']:.4f}, prefactor = {summary['prefactor']:.4f} "
            f"(reference {summary['reference_prefactor']:.4f})"
        )
    _finish("delay-sweep", params, [csv_path, json_path], outdir, t0)
    if converged < 0.8 * total:
        raise FrontSolveError(f"{converged} of {total} eps points converged")
    return EXIT_OK


# ---------------------------------------------------------------------------
# painleve
# ---------------------------------------------------------------------------

def cmd_painleve(args) -> int:
    t0 = time.time()
    outdir = _outdir(args)
    l_minus, l_plus = args.window
    params = {
        "l_minus": l_minus, "l_plus": l_plus, "n": args.n,
        "classify": ",".join(_fmt(k) for k in args.classify),
    }
    sol = solve_hastings_mcleod(l_minus, l_plus, args.n)
    outputs = []
    v = sol.eta + 6.0 * sol.w**2
    outputs.append(
        _write_csv(
            os.path.join(outdir, "painleve_profile.csv"),
            params,
            ["eta", "w", "wprime", "V"],
            zip(sol.eta, sol.w, sol.wprime, v),
        )
    )
    w0 = float(np.interp(0.0, sol.eta, sol.w))
    summary = {
        "w0": w0,
        "boundary_residuals": list(sol.boundary_residuals),
        "iterations": sol.report.iterations,
    }
    try:
        cert = certify_potential_positive(sol)
        certify_lower_bound(sol)
        spec = linearization_ground_state(sol)
        summary.update(
            potential_min=cert.min_value,
            potential_margin=cert.margin_bound,
            lower_bound="certified",
            ground_state=float(spec.eigenvalues[0]),
            leading_eigenvalues=[float(x) for x in spec.eigenvalues],
        )
    except CertificateError as exc:
        summary["certificate_failure"] = str(exc)
        _write_json(os.path.join(outdir, "painleve_summary.json"), summary)
        raise
    if args.classify:
        rows = []
        for k in args.classify:
            tc = classify_airy_tail(k, l_minus=min(l_minus, 8.0), l_plus=l_plus)
            rows.append((k, tc.kind, tc.pole_position if tc.pole_position is not None else math.nan))
            print(f"k = {k}: {tc.kind}" + (f" at eta = {tc.pole_position:.4f}" if tc.pole_position else ""))
        outputs.append(
            _write_csv(
                os.path.join(outdir, "painleve_classification.csv"),
                params,
                ["k", "class", "pole_position"],
                rows,
            )
        )
    outputs.append(_write_json(os.path.join(outdir, "painleve_summary.json"), summary))
    print(f"w(0) = {w0:.9f} >= 0.355028: {'PASS' if w0 >= 0.3550280 else 'FAIL'}")
    _finish("painleve", params, outputs, outdir, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pde
# ---------------------------------------------------------------------------

def cmd_pde(args) -> int:
    t0 = time.time()
    outdir = _outdir(args)
    cfg = SimConfig(
        frame=args.frame,
        alpha=args.alpha,
        c=args.c,
        epsilon=args.eps,
        domain=(args.domain[0], args.domain[1]),
        n=args.n,
        t_end=args.t_end,
        dt=args.dt,
        ic=args.ic,
        ic_amplitude=args.ic_amplitude,
        ic_width=args.ic_width,
        frozen_mu=args.frozen_mu,
        track_level=args.level,
    )
    if args.compare:
        check_quench_comparable(cfg)
    params = {
        "frame": cfg.frame, "alpha": cfg.alpha, "c": cfg.c, "eps": cfg.epsilon,
        "x_lo": cfg.domain[0], "x_hi": cfg.domain[1], "n": cfg.n,
        "t_end": cfg.t_end, "dt": cfg.dt, "ic": cfg.ic,
        "frozen_mu": cfg.frozen_mu if cfg.frozen_mu is not None else "none",
        "level": cfg.track_level,
    }
    try:
        res = simulate(cfg)
    except SimulationAbort as exc:
        _write_csv(
            os.path.join(outdir, "pde_last_state.csv"),
            {"t": exc.t, **params},
            ["u"],
            ((v,) for v in exc.u),
        )
        raise
    compare = compare_homogeneous_quench(cfg, result=res) if args.compare else None
    outputs = []
    outputs.append(
        _write_lines(
            os.path.join(outdir, "pde_snapshots.csv"), params, ["t", "x", "u"],
            _snapshot_lines(res.times, res.x, res.snapshots),
        )
    )
    summary = {"frame": cfg.frame, "multiple_crossings": res.track.multiple_crossings}
    if compare is not None:
        track_rows = zip(compare.times, compare.x_fr_num, compare.x_fr_pred, compare.difference)
        columns = ["t", "x_fr_num", "x_fr_pred", "diff"]
        summary.update(
            t_transient=compare.t_transient,
            nonnegative_after_transient=compare.nonnegative_after_transient,
            growing=compare.growing,
            final_lead=float(compare.difference[-1]),
        )
    else:
        track_rows = zip(res.track.times, res.track.x_fr_num)
        columns = ["t", "x_fr_num"]
    outputs.append(
        _write_csv(os.path.join(outdir, "pde_front_track.csv"), params, columns, track_rows)
    )
    if cfg.frozen_mu is not None and cfg.frozen_mu > 0:
        tt, xx = res.track.times, res.track.x_fr_num
        sel = np.isfinite(xx) & (tt >= 0.5 * cfg.t_end)
        if np.sum(sel) >= 2:
            speed = float(np.polyfit(tt[sel], xx[sel], 1)[0])
            expected = 2.0 * math.sqrt(cfg.frozen_mu)
            summary.update(measured_speed=speed, expected_speed=expected)
            print(f"invasion speed = {speed:.4f} (expected {expected:.4f})")
    outputs.append(_write_json(os.path.join(outdir, "pde_summary.json"), summary))
    if compare is not None:
        print(
            f"front lead after transient (t >= {compare.t_transient:.1f}): "
            f"min {float(np.min(compare.difference)):.4f}, final {float(compare.difference[-1]):.4f}"
        )
    _finish("pde", params, outputs, outdir, t0, steps=res.steps, wall_s=res.wall_s)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text and refuse it unless ``ok``."""

    def parse(value: str):
        try:
            out = convert(value)
            if ok(out):
                return out
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


_speed = _checked(float, lambda c: 0.0 <= c < 2.0, "a quench speed in [0, 2)")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_eps_range = _checked(
    lambda v: tuple(float(s) for s in v.split(":")),
    lambda r: len(r) == 2 and all(0.0 < e < math.inf for e in r),
    "LO:HI with both ends positive",
)
_multipliers = _checked(
    lambda v: [float(s) for s in v.split(",")],
    lambda ks: all(map(math.isfinite, ks)),
    "comma-separated finite numbers",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchfront",
        description="Invasion fronts behind a slowly varying quenching ramp.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None)
    common.add_argument("--config", help="flat key=value config file")

    p = sub.add_parser(
        "front",
        parents=[common],
        help="solve one front profile",
        description=(
            "Solve the quenched traveling-front boundary-value problem and "
            "report the interface delay against the law mu_fr = c^2/4 + "
            "Omega0 (1 - c^4/16)^{2/3} eps^{2/3}; at c = 0, report the "
            "amplitude u(xi=0) and the comparison against the rescaled "
            "connection profile sqrt(2) eps^{1/3} w(eps^{1/3} xi)."
        ),
    )
    p.add_argument("--c", type=_speed, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument(
        "--L", type=float, default=None,
        help="domain halflength (default 5/eps); only for eps >= 1e-3",
    )
    p.add_argument(
        "--n", type=int, default=None, help="mesh nodes (default 4001); only for eps >= 1e-3"
    )
    p.set_defaults(func=cmd_front)

    p = sub.add_parser(
        "delay-sweep",
        parents=[common],
        help="interface-delay scaling over a range of ramp rates",
        description=(
            "Measure the eps^{2/3} interface-delay scaling: log-log slope of "
            "mu_fr - c^2/4 against eps from the front BVP (the measured "
            "exponent is near 0.65 over [2.5e-4, 2.5e-3]), or with --fold the "
            "slow-passage delay of the reduced planar system with exponent "
            "2/3 and prefactor Omega0 (1 - c^4/16)^{2/3}."
        ),
    )
    p.add_argument("--c", type=_speed, default=None)
    p.add_argument("--eps-decade", type=_eps_range, default=None, help="LO:HI range for eps")
    p.add_argument("--points", type=_positive_int, default=10)
    p.add_argument("--fold", action="store_true", help="reduced slow-passage system only")
    p.add_argument("--delta", type=float, default=0.25, help="fold section offset")
    p.set_defaults(func=cmd_delay_sweep)

    p = sub.add_parser(
        "painleve",
        parents=[common],
        help="connection profile and certificates",
        description=(
            "Solve the connection problem w'' = eta w + 2 w^3 (decaying like "
            "Ai on the right, sqrt(-eta/2) on the left), certify w(0) >= "
            "Ai(0) = 0.355028, the positivity of eta + 6 w^2, the lower bound "
            "w > sqrt(-eta/6), and the negative ground state of the "
            "linearization; optionally classify k*Ai tails across the "
            "separatrix."
        ),
    )
    p.add_argument("--window", type=float, nargs=2, default=[12.0, 8.0], metavar=("LMINUS", "LPLUS"))
    p.add_argument("--n", type=int, default=8001)
    p.add_argument(
        "--classify", type=_multipliers, default=(), help="comma-separated tail multipliers k"
    )
    p.set_defaults(func=cmd_painleve)

    p = sub.add_parser(
        "pde",
        parents=[common],
        help="direct simulation with front tracking",
        description=(
            "Direct simulation of u_t = u_xx + mu u - u^3: frozen mu = 1 "
            "bumps invade at asymptotic speed 2; the homogeneous quench "
            "(alpha = 0) front runs slightly ahead of the characteristic "
            "prediction x0 + int 2 sqrt(mu(s)) ds; comoving runs relax to "
            "the BVP front."
        ),
    )
    p.add_argument("--frame", choices=["lab", "comoving"], default="lab")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.005)
    p.add_argument("--frozen-mu", type=float, default=None)
    p.add_argument("--domain", type=float, nargs=2, default=[0.0, 300.0])
    p.add_argument("--n", type=int, default=3001)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument(
        "--dt", type=float, default=None,
        help="SBDF2 time step (default and maximum min(0.2 h, 0.5): 0.2 h for accuracy, "
        "0.5 for the explicit reaction's stability dt |f'(u)| < 4/3)",
    )
    p.add_argument("--ic", choices=["small-bump", "front-seed", "zero"], default="small-bump")
    p.add_argument("--ic-amplitude", type=float, default=0.05)
    p.add_argument("--ic-width", type=float, default=5.0)
    p.add_argument(
        "--level", type=float, default=0.2, help="tracked level crossing of u, in (0, 1)"
    )
    p.add_argument("--compare", action="store_true", help="homogeneous-quench comparison")
    p.set_defaults(func=cmd_pde)
    # argparse's default pattern takes only plain decimals (-5, -.5) as
    # negative numbers and reads -1e-05 as an unknown option, so
    # "--domain -1e-05 50" (or domain = -1e-05 50 in a config file) would be
    # refused; any "-digit" or "-.digit" token is a value here.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    parser.qf_subparsers = sub.choices
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config tokens go right after the subcommand, so explicit flags,
            # parsed later, win (flags > config file > built-in defaults)
            i = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, parser.qf_subparsers[args.command])
            args = parser.parse_args(argv[:i] + tokens + argv[i:])
        del args.config  # its entries now stand as flags
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(row for kind, row in _FAILURES.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
