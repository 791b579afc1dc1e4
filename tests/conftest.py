"""Fixtures that run the command line, in a real process or through cli.main,
and Python in a child process, optionally on another OpenBLAS kernel."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circgeo import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args, env=None):
    """python with args in a new process that imports circgeo from SRC, numpy
    RuntimeWarnings as errors; env adds to this process's environment."""
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
    )


@pytest.fixture
def run_python():
    return _run_python


@pytest.fixture
def run_cli():
    """`python -m circgeo` in a new process, numpy RuntimeWarnings as errors."""
    return lambda *args, env=None: _run_python("-m", "circgeo", *args, env=env)


@pytest.fixture(params=["Haswell", "Prescott"])
def blas_kernel(request):
    """An OpenBLAS kernel that a child process runs on through OPENBLAS_CORETYPE:
    Haswell is the AVX2 kernel, which AMD Zen CPUs get too, and Prescott the
    SSE3 one. An AVX-512 CPU runs neither unless told to."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS names these kernels on x86-64 only")
    features = np._core._multiarray_umath.__cpu_features__
    if request.param == "Haswell" and not features.get("AVX2"):
        pytest.skip("this CPU cannot run the AVX2 kernel")
    return request.param


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
