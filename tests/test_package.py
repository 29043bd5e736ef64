"""Package-level checks: every exported name exists, every exported
exception has a row of the CLI exit table, every command of the
README's "Command line" block parses, the ``pde`` and ``front`` paths
load no scipy module they do not run, the names the benchmark tracer
rebinds still exist and still carry the calls it counts, every tracer hook
runs on the attributes it reads, and every stored field has a reader."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import textwrap

import pytest

import quenchfront
from quenchfront import cli
from quenchfront.painleve import CertificateError
from quenchfront.pdesim import SimulationAbort
from quenchfront.solvercore import JacobianSingularError, SolveError

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(quenchfront.__path__)]
    assert "travelingwave" in names
    for name in names:
        module = importlib.import_module(f"quenchfront.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"quenchfront.{name}.__all__ names missing objects: {missing}"


def test_every_exported_exception_has_an_exit_code():
    # a solver module's failure class maps through an existing row of the
    # exit table, never a row of its own and never an unmapped traceback
    exported = set()
    for name in (m.name for m in pkgutil.iter_modules(quenchfront.__path__)):
        module = importlib.import_module(f"quenchfront.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                exported.add(obj)
    assert exported
    unmapped = [e.__name__ for e in exported if not issubclass(e, tuple(cli._FAILURES))]
    assert not unmapped
    # one row per outcome
    assert set(cli._FAILURES) == {
        ValueError, SolveError, JacobianSingularError, CertificateError, SimulationAbort,
    }


def test_readme_commands_parse():
    # parsing only: a renamed or removed flag fails here, and no solve runs
    with open(README) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("quenchfront ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert args.func is getattr(cli, "cmd_" + args.command.replace("-", "_"))


def test_pde_and_front_load_no_unused_scipy(tmp_path):
    # in a fresh process: scipy.optimize, interpolate and integrate cost
    # about 0.3 s and 20 MB of import, and none of these commands uses them
    script = textwrap.dedent(
        """
        import sys
        from quenchfront import cli

        cases = [
            ["pde", "--frozen-mu", "1", "--domain", "0", "20", "--n", "101", "--t-end", "1"],
            ["pde", "--frame", "comoving", "--c", "1.2", "--eps", "0.05", "--ic", "front-seed",
             "--domain", "-20", "60", "--n", "201", "--t-end", "1"],
            ["pde", "--eps", "0.05", "--domain", "0", "60", "--n", "301", "--t-end", "30",
             "--compare"],
            ["front", "--c", "1.2", "--eps", "0.01"],
            ["painleve"],
        ]
        for argv in cases:
            assert cli.main(argv + ["--outdir", "out"]) == 0, argv
        heavy = ("scipy.optimize", "scipy.interpolate", "scipy.integrate")
        print("loaded:", *(m for m in heavy if m in sys.modules))
        """
    )
    src = os.path.dirname(os.path.dirname(quenchfront.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


def _tracer_module():
    path = os.path.join(os.path.dirname(README), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_tracer_rebinds_resolve():
    # the benchmark's tracer rebinds these names and reads these parameters;
    # a rename here silently drops its counters
    tracer = _tracer_module()
    missing = [f"{m.__name__}.{a}" for m, a, _ in tracer._BINDINGS if not hasattr(m, a)]
    assert not missing
    from quenchfront import solvercore, travelingwave

    def params(fn):
        return inspect.signature(fn).parameters

    assert {"residual", "jacobian"} <= params(solvercore.solve_bvp).keys()
    assert "field" in params(solvercore.integrate_ode)
    assert "diag" in params(solvercore.eig_tridiag_symmetric)
    # the front system finds solve_bvp as a module global, so the rebinding
    # counts every front Newton call
    t = tracer.Tracer()
    with t.installed():
        travelingwave.solve_front(travelingwave.QuenchParams(1.2, 0.01), 500.0, 2001)
        travelingwave.front_branch(1.2, [0.02, 0.01])
    counts = t.counters[0]
    assert counts["solvercore.continuation.calls"] == 1
    assert counts["solvercore.continuation.steps"] > 0
    # the direct solve, the branch start, then one call per step or reject
    assert counts["solvercore.newton.calls"] == 2 + (
        counts["solvercore.continuation.steps"] + counts["solvercore.continuation.rejects"]
    )


# the counters the tracer's hooks fill, with the attribute each one reads
_HOOK_COUNTERS = [
    "solvercore.newton.iters",  # NewtonReport.iterations
    "solvercore.newton.halvings",  # NewtonReport.damping_history
    "solvercore.continuation.steps",  # ContinuationBranch.step_history
    "solvercore.ode.steps",  # OdeResult.t
    "solvercore.ode.rhs_evals",  # integrate_ode's ``field``
    "solvercore.eig.nodes",  # eig_tridiag_symmetric's ``diag``
    "travelingwave.fronts",  # FrontBranch.fronts
    "travelingwave.mesh_nodes",  # FrontSolution.mesh.count, FrontBranch.mesh.count
    "travelingwave.branch_entries",  # FrontBranch.branch.entries
    "stability.nodes",  # LcOperator.n
    "pdesim.node_steps",  # SimResult.config
    "cli.bytes_written",  # the files of main's --outdir
]


def test_every_tracer_hook_runs(tmp_path):
    # one small call per layer the tracer binds, so that every hook reads
    # the attributes it counts from, not only the names it rebinds
    tracer = _tracer_module()
    from quenchfront import folddelay, painleve, pdesim, stability, travelingwave

    t = tracer.Tracer()
    with t.installed():
        front = travelingwave.solve_front(travelingwave.QuenchParams(1.2, 0.01), 500.0, 2001)
        travelingwave.front_branch(1.2, [0.02, 0.01])
        folddelay.run_fold_passage(1.2, 1e-2)
        painleve.classify_airy_tail(1.5)
        painleve.linearization_ground_state(painleve.solve_hastings_mcleod(8, 6, 4001))
        stability.leading_eigenvalues(stability.build_Lc(front, h=2.0), 1)
        pdesim.simulate(pdesim.SimConfig(frozen_mu=1.0, domain=(0.0, 20.0), n=101, t_end=1.0))
        argv = ["pde", "--frozen-mu", "1", "--domain", "0", "20", "--n", "101", "--t-end", "1"]
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
    counts = t.counters[0]
    assert {name: counts[name] for name in _HOOK_COUNTERS if counts[name] <= 0} == {}
    called = {name.removesuffix(".calls") for name in counts if name.endswith(".calls")}
    # every bound layer but the fits, certificates and quench comparison
    assert called >= {name for _, _, name in tracer._BINDINGS} - {
        "folddelay.fit_delay_scaling",
        "painleve.certify_potential_positive",
        "painleve.certify_lower_bound",
        "pdesim.compare_homogeneous_quench",
    }
    spans = {span[0] for span in t.spans}
    assert {"travelingwave.assembly", "painleve.assembly"} <= spans


# stored fields no attribute read names, each with the reason it stays
_UNREAD_FIELDS = {
    # the benchmark's workloads build five-field records; the field goes with
    # the compact chart's benchmark change
    ("FoldDelayRecord", "compact_chart_used"),
}


def _stored_fields(tree: ast.Module):
    """(class, name) of every dataclass field and every ``self.name = ...``."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.target.id
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield cls.name, node.attr


def test_every_stored_field_is_read():
    # a floor, not a proof: reads are matched by attribute name alone, so a
    # field escapes when any object's attribute of that name is read (before
    # FrontTrack.level was deleted, ``args.level`` in the CLI hid it)
    root = os.path.dirname(README)
    stored, read = set(), set()
    for top in ("src", "tests", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in (f for f in files if f.endswith(".py")):
                with open(os.path.join(dirpath, name)) as fh:
                    tree = ast.parse(fh.read())
                if top == "src":
                    stored.update(_stored_fields(tree))
                read.update(
                    node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                )
    assert ("_LogFrontSystem", "mesh") in stored and _UNREAD_FIELDS <= stored
    assert sorted(f for f in stored - _UNREAD_FIELDS if f[1] not in read) == []


def test_dt_bound_quoted_from_the_module_constants():
    # SimConfig's check, its message, the --dt help, the module docstring
    # and the README pdesim row all quote min(DT_PER_H h, DT_CAP) and the
    # explicit reaction's stability limit 32/45
    from quenchfront import pdesim

    bound = f"min({pdesim.DT_PER_H:g} h, {pdesim.DT_CAP:g})"
    with open(README) as fh:
        row = next(line for line in fh if line.startswith("| `quenchfront.pdesim`"))
    assert "SBDF4" in row and f"dt ≤ {bound}" in row
    assert "SBDF4" in pdesim.__doc__ and f"dt <= {bound}" in pdesim.__doc__
    pde = cli.build_parser().qf_subparsers["pde"]
    help_text = next(a.help for a in pde._actions if "--dt" in a.option_strings)
    assert "SBDF4" in help_text and bound in help_text
    h = 1.0
    assert pdesim.SimConfig(domain=(0.0, 100.0), n=101).dt == min(pdesim.DT_PER_H * h, pdesim.DT_CAP)
    with pytest.raises(ValueError, match="SBDF4") as err:
        pdesim.SimConfig(domain=(0.0, 100.0), n=101, dt=1.01 * pdesim.DT_CAP)
    assert bound in str(err.value)
    for text in (row, pdesim.__doc__, help_text, str(err.value)):
        assert "32/45" in text and "20/21" not in text


def test_front_domain_and_core_cap_quoted_from_the_module():
    # the front --L help, README's front paragraph and solve_front's
    # docstring all quote the default-domain rule and the core-cell cap
    import math

    import numpy as np

    from quenchfront import travelingwave as tw

    rule, cap = "max(5/eps, 2 zeta_c + 1/eps)", f"core cells at most {tw.CORE_SPACING:g}"
    with open(README) as fh:
        paragraph = next(p for p in fh.read().split("\n\n") if "`front` solves by one" in p)
    front = cli.build_parser().qf_subparsers["front"]
    help_text = next(a.help for a in front._actions if "--L" in a.option_strings)
    for text in (paragraph, help_text, tw.solve_front.__doc__):
        flat = " ".join(text.replace("`", "").split())
        assert rule in flat and cap in flat
    assert rule in " ".join(tw.default_halflength.__doc__.split())
    for c, eps in ((1.2, 1e-3), (1.99, 1e-3), (0.0, 1e-9)):
        zeta_c = math.atanh(c * c / 4.0) / eps
        assert tw.default_halflength(tw.QuenchParams(c, eps)) == max(5.0 / eps, 2.0 * zeta_c + 1.0 / eps)
    params = tw.QuenchParams(1.9, 1e-9)  # the cap binds: about 12.4k nodes
    mesh = tw._front_mesh(params, tw.default_halflength(params), 4001)
    h = np.diff(mesh.nodes)
    assert h.min() == pytest.approx(tw.CORE_SPACING, abs=1e-6) and mesh.count > 3 * 4001


def test_quoted_stability_limit_from_the_scheme_weights():
    # SBDF4's explicit reaction on u' = f' u (A4 = 0), with z = dt f', has
    # the amplification polynomial s G^4 = sum_i (wu_i + z wf_i) G^(3-i)
    # with simulate's own weights.  At the boundary-locus point G = -1,
    # z = (s - sum_i wu_i (-1)^(3-i))/sum_i wf_i (-1)^(3-i) = 128/-180
    from fractions import Fraction

    import numpy as np

    from quenchfront import pdesim

    s, m, weights = pdesim._SCHEMES[-1]
    assert (s, m) == (25.0, 12.0)
    sign = [(-1) ** (3 - i) for i in range(4)]
    num = Fraction(s) - sum(Fraction(wu) * g for (wu, _), g in zip(weights, sign))
    den = sum(Fraction(wf) * g for (_, wf), g in zip(weights, sign))
    assert (num, den) == (128, -180) and num / den == Fraction(-32, 45)

    def roots(z):
        return np.roots([s] + [-(wu + z * wf) for wu, wf in weights])

    # every root inside the unit disk for dt |f'| in (0, 2 DT_CAP] ...
    for z in -np.linspace(1e-6, 2.0 * pdesim.DT_CAP, 201):
        assert np.max(np.abs(roots(z))) < 1.0
    # ... and just past 32/45 one leaves it through -1
    assert np.min(roots(-(32.0 / 45.0) * (1.0 + 1e-6)).real) < -1.0


def test_readme_suite_size_quoted_from_bench_suite():
    # README quotes the tier-1 count and time recorded in BENCH_suite.json
    with open(os.path.join(os.path.dirname(README), "BENCH_suite.json")) as fh:
        tier1 = json.load(fh)["tier1"]
    with open(README) as fh:
        text = fh.read()
    assert f"full suite ({tier1['tests']} tests, about {round(tier1['wall_s'])} s" in text
