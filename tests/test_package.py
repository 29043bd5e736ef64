"""Package-level checks: every exported name exists, and every command of
the README's "Command line" block parses."""

import importlib
import os
import pkgutil
import shlex

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
