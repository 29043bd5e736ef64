"""Package-level checks: every exported name exists, every command of the
README's "Command line" block parses, and the ``pde`` and ``front`` paths
load no scipy module they do not run."""

import importlib
import os
import pkgutil
import shlex
import subprocess
import sys
import textwrap

import pytest

import quenchfront
from quenchfront import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(quenchfront.__path__)]
    assert "travelingwave" in names
    for name in names:
        module = importlib.import_module(f"quenchfront.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"quenchfront.{name}.__all__ names missing objects: {missing}"


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
