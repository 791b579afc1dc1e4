"""Fixtures that run the command line: in a real process, or through cli.main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from circgeo import cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_cli():
    """`python -m circgeo` in a new process, numpy RuntimeWarnings as errors."""

    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "circgeo", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    return run


@pytest.fixture
def run_main(capsys):
    """run_cli's result from cli.main in this process."""

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run
