"""The package runs as `python -m gaspower` with the CLI's exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import gaspower

PACKAGE = Path(gaspower.__file__).parent


def run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_validate_bundled_network():
    done = run_module("gaspower", "validate", "--network",
                      str(PACKAGE / "fixtures" / "network.json"))
    assert done.returncode == 0, done.stderr
    assert "valid (6 pipes, 1 compressors, 9 busses, 1 plants)" in done.stdout


def test_cli_module_runs_the_command():
    done = run_module("gaspower.cli", "validate", "--network",
                      str(PACKAGE / "fixtures" / "network.json"))
    assert done.returncode == 0, done.stderr
    assert "valid" in done.stdout


def test_no_arguments_is_an_input_error():
    done = run_module("gaspower")
    assert done.returncode == 2
    assert "usage: gaspower" in done.stderr
