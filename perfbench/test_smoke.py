"""Smoke test of the benchmark at tiny sizes: metric names, result schema, exit codes.

It sets no timing bounds. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import reference  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])
    assert "fail_frac = " in proc.stdout
    if trace:
        work = HERE / "_work" / workload
        layers = json.loads((work / "layers.json").read_text(encoding="utf-8"))["metrics"]
        for name in ("frames.self_s", "conics.self_s", "oracle.self_s", "quadrics.sample_quadric.self_s"):
            assert name in layers
        if workload == "verify-suite":
            assert sum(name.endswith(".s") for name in layers) == 28
        with np.load(work / "spans.npz") as spans:
            assert spans["name"].size == spans["parent"].size == spans["start_ns"].size > 0


def test_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in ("1", "3"):
        proc = bench("--workload", "batch-classify", "--seed", "5", "--seconds", seconds, "--trace", "0", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(rows: np.ndarray, a: float, b: float, characters: list[str]) -> bytes:
    cos = reference.reference_cos_phi(rows, a, b).tolist()
    lines = [f"metric a={a!r} b={b!r}", "tolerance eps_null=1e-09 eps_angle=1e-09", f"rows n={len(rows)}"]
    for i, ((x, y, z), c, character) in enumerate(zip(rows.tolist(), cos, characters)):
        phi = float(np.arccos(np.clip(c, -0.5, 1.0)))
        lines.append(f"row index={i} x={x!r} y={y!r} z={z!r} cos_phi={c!r} phi_rad={phi!r} character={character}")
    return ("\n".join(lines) + "\n").encode()


def test_batch_checker_blames_only_scale_exposed_rows():
    a, b = 2.0, 0.5
    rows = np.array([[1.0, 2.0, 3.0], [1e300, 2e300, 3e300], [0.0, 0.0, 0.0]])
    right = ["spacelike", "spacelike", "error:zero-vector"]
    assert reference.check_batch(rows, a, b, 0, _report(rows, a, b, right)).errors == []

    exposed_wrong = reference.check_batch(rows, a, b, 0, _report(rows, a, b, ["spacelike", "null", right[2]]))
    assert exposed_wrong.failed == 1 and exposed_wrong.errors == []

    safe_wrong = reference.check_batch(rows, a, b, 0, _report(rows, a, b, ["timelike", *right[1:]]))
    assert safe_wrong.failed == 1 and safe_wrong.errors

    aborted = reference.check_batch(rows[1:2], a, b, 1, b"")
    assert aborted.failed == 1 and aborted.errors == []
