"""Seeded inputs for the three workloads and the circgeo commands that read them.

The same (workload, seed, size) always yields the same files and flags. The
program receives only what is written here: a CSV, a level constant or a
verify seed. Each command carries the reference check of its own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("batch-classify", "mesh-export", "verify-suite")


@dataclass(frozen=True)
class Sizes:
    batch_rows: int
    mesh_rows: int  # profile rows of the one-sheet mesh; two-branch meshes get half per branch
    mesh_columns: int
    verify_trials: int


# Full sizes follow the figures the benchmark was specified with: 20k batch
# rows, --samples 256,512 and verify --trials 1000, the last being the size
# the verify speed target is quoted at. Larger batches (100k rows take 11-16 s)
# would leave too few samples in one run.
SIZES = {
    "full": Sizes(batch_rows=20_000, mesh_rows=256, mesh_columns=512, verify_trials=1000),
    "smoke": Sizes(batch_rows=200, mesh_rows=8, mesh_columns=8, verify_trials=3),
}

# Shares of the batch CSV. Scaled rows are uniform rows times 2**k with k
# uniform over the whole float exponent range (SCALE_EXPONENTS). The shares
# are a chosen mix, not measured traffic: most rows ordinary, and enough of
# each edge case (null band, zero, extreme scale) that its cost shows.
BATCH_MIX = {"uniform": 0.70, "near_null": 0.10, "zero": 0.05, "scaled": 0.15}
SCALE_EXPONENTS = (-1070, 1019)
# Near-null rows have cos_phi uniform in +-NEAR_NULL_SPAN * eps_null.
NEAR_NULL_SPAN = 4.0


@dataclass(frozen=True)
class Command:
    """One circgeo invocation: its arguments, the file it writes, and its check.

    check(exit_code, stdout, output_file_bytes) returns the run's Verdict.
    Only timed commands give time samples and are traced; an untimed one
    runs once per benchmark run and is checked, so its failures count in
    fail_frac.
    """

    args: list[str]
    output: Path | None
    check: Callable[[int, bytes, bytes], reference.Verdict]
    timed: bool = True


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def batch_metric(rng: np.random.Generator) -> tuple[float, float]:
    """Metric circ(a, b, b) with both eigenvalues at least a fifth of a."""
    a = float(rng.uniform(1.0, 4.0))
    return a, a * float(rng.uniform(-0.4, 0.8))


def near_null_rows(rng: np.random.Generator, n: int, a: float, b: float) -> np.ndarray:
    """Rows with cos_phi = t for t uniform in +-NEAR_NULL_SPAN * eps_null.

    Write u = (s/3)(1, 1, 1) + w with w orthogonal to (1, 1, 1). Then
    g(u, qu) = (a-b)(s^2/3 - |w|^2/2) + b s^2 and
    g(u, u) = (a-b)(s^2/3 + |w|^2) + b s^2, so cos_phi = t exactly when
    |w|^2 = s^2 (1 - t)((a-b)/3 + b) / ((a-b)(1/2 + t)).
    """
    s = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    t = rng.uniform(-NEAR_NULL_SPAN, NEAR_NULL_SPAN, n) * reference.EPS_NULL
    w_norm = np.sqrt(s * s * (1.0 - t) * ((a - b) / 3.0 + b) / ((a - b) * (0.5 + t)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    w = w_norm[:, None] * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    return (s / 3.0)[:, None] + w


def batch_rows(rng: np.random.Generator, n: int, a: float, b: float) -> np.ndarray:
    counts = {kind: round(share * n) for kind, share in BATCH_MIX.items()}
    counts["uniform"] = n - sum(c for kind, c in counts.items() if kind != "uniform")
    exponents = rng.integers(SCALE_EXPONENTS[0], SCALE_EXPONENTS[1], counts["scaled"], endpoint=True)
    parts = [
        rng.uniform(-10.0, 10.0, (counts["uniform"], 3)),
        near_null_rows(rng, counts["near_null"], a, b),
        np.zeros((counts["zero"], 3)),
        np.ldexp(rng.uniform(-10.0, 10.0, (counts["scaled"], 3)), exponents[:, None]),
    ]
    return np.vstack(parts)[rng.permutation(n)]


def write_csv(path: Path, rows: np.ndarray) -> None:
    lines = ["x,y,z"] + [f"{x!r},{y!r},{z!r}" for x, y, z in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def mesh_levels(rng: np.random.Generator) -> list[float]:
    """One level constant per class: cone, two sheets, one sheet."""
    return [0.0, float(rng.uniform(0.5, 9.0)), -float(rng.uniform(0.5, 9.0))]


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Command]:
    """Write the workload's inputs under workdir and return its commands."""
    sizes = SIZES[size]
    rng = _rng(seed, WORKLOADS.index(workload))
    if workload == "batch-classify":
        a, b = batch_metric(rng)
        rows = batch_rows(rng, sizes.batch_rows, a, b)
        # Rows outside the safe magnitude range go to a second, untimed CSV:
        # some of them make classify-batch abort (ROADMAP, "Scale-safe"), and
        # an aborted command would time only part of the work.
        exposed = reference.scale_exposed(rows)
        commands = []
        for name, part, timed in (("vectors", rows[~exposed], True), ("exposed", rows[exposed], False)):
            csv, report = workdir / f"{name}.csv", workdir / f"{name}-report.txt"
            write_csv(csv, part)
            args = ["classify-batch", f"--metric={a!r},{b!r}", f"--input={csv}", f"--output={report}"]
            check = lambda code, out, rep, part=part: reference.check_batch(part, a, b, code, rep)
            commands.append(Command(args, report, check, timed))
        return commands
    if workload == "mesh-export":
        commands = []
        n_vertices = sizes.mesh_rows * sizes.mesh_columns
        for level, r2 in enumerate(mesh_levels(rng)):
            # Two-branch surfaces emit every profile row twice, so all three
            # commands write the same number of vertices.
            rows = sizes.mesh_rows if r2 < 0.0 else sizes.mesh_rows // 2
            mesh = workdir / f"mesh{level}.obj"
            args = ["quadric", f"--r2={r2!r}", f"--mesh={mesh}", f"--samples={rows},{sizes.mesh_columns}"]
            check = lambda code, out, data, r2=r2: reference.check_mesh(r2, n_vertices, code, out, data)
            commands.append(Command(args, mesh, check))
        return commands
    if workload == "verify-suite":
        trials = sizes.verify_trials
        args = ["verify", f"--seed={seed}", f"--trials={trials}"]
        return [Command(args, None, lambda code, out, _: reference.check_verify(seed, trials, code, out))]
    raise ValueError(f"unknown workload {workload!r}")
