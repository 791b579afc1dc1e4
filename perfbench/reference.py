"""Reference checkers for the benchmark's workloads.

Every checker recomputes what the circgeo command should have produced from
the generated inputs alone. Nothing here imports circgeo: the batch reference
materializes circ(a, b, b) as a dense matrix, the mesh reference re-evaluates
the surface equation, and the verify reference parses the report format.

A checker returns a Verdict. `items` is the number of work items the output
covers, `failed` the items whose output is wrong, and `errors` describes
anything that makes the output incorrect as a whole. The batch checker is the
one place where an item may fail without an error: rows whose magnitude lies
outside [2**-480, 2**480) reach the float overflow and underflow defect of
circgeo's inner products, so a wrong answer there is counted in `failed` and
reported as fail_frac, while a wrong answer on any other row is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# circgeo's documented default null band (README, "Numerical conventions").
EPS_NULL = 1e-9
# Rows whose character is compared only if |cos_phi| is farther than this from
# the band edge eps_null: closer than that, rounding may legitimately decide.
BAND_MARGIN = 1e-12
# Finite cos_phi values must agree to this share of max(1, |cos_phi|).
COS_RTOL = 1e-12
# cos(phi_rad) must agree with the clamped reference cosine to this.
PHI_COS_TOL = 1e-11
# Magnitudes whose squares stay well inside the normal float range.
SAFE_MAX = 2.0**480
SAFE_MIN = 2.0**-480
# Mesh vertices satisfy x'^2+y'^2-2z'^2 = -r2 to this share of 1 + |r2|.
MESH_RTOL = 1e-9


@dataclass
class Verdict:
    items: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)


def _field_float(token: str, key: str) -> float:
    name, _, value = token.partition("=")
    if name != key:
        raise ValueError(f"expected {key}=..., got {token!r}")
    return float(value)


def reference_cos_phi(rows: np.ndarray, a: float, b: float) -> np.ndarray:
    """cos_phi = g(u, qu) / g(u, u) with g the dense matrix circ(a, b, b).

    Each row is first divided by the power of two of its largest component,
    which is exact, so the products neither overflow nor underflow. Zero rows
    give nan.
    """
    metric = np.array([[a, b, b], [b, a, b], [b, b, a]])
    largest = np.max(np.abs(rows), axis=1)
    _, exponent = np.frexp(largest)
    scaled = np.ldexp(rows, -exponent[:, None])
    shifted = scaled[:, [1, 2, 0]]  # q(x, y, z) = (y, z, x)
    g_uu = np.einsum("ni,ij,nj->n", scaled, metric, scaled)
    g_uq = np.einsum("ni,ij,nj->n", scaled, metric, shifted)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(largest == 0.0, np.nan, g_uq / g_uu)


def scale_exposed(rows: np.ndarray) -> np.ndarray:
    """Nonzero rows whose largest component lies outside [SAFE_MIN, SAFE_MAX)."""
    largest = np.max(np.abs(rows), axis=1)
    return (largest > 0.0) & ((largest >= SAFE_MAX) | (largest < SAFE_MIN))


def _blame(verdict: Verdict, rows: np.ndarray, wrong: np.ndarray, describe: Callable[[int], str]) -> None:
    """Count wrong rows as failed; any of them inside the safe range is an error."""
    verdict.failed = int(np.count_nonzero(wrong))
    unexpected = np.flatnonzero(wrong & ~scale_exposed(rows))
    if unexpected.size:
        i = int(unexpected[0])
        verdict.errors.append(
            f"{unexpected.size} rows inside the safe magnitude range are wrong, first at index {i}: {describe(i)}"
        )


def check_batch(rows: np.ndarray, a: float, b: float, code: int, report: bytes) -> Verdict:
    """Check a classify-batch report against the dense-matrix reference.

    A run that exits nonzero fails every row; it is an error unless every row
    is scale-exposed.
    """
    n = len(rows)
    verdict = Verdict(items=n)
    lines = report.decode("utf-8").split("\n")
    if code != 0 or lines[-1] != "" or len(lines) != n + 4:
        _blame(verdict, rows, np.ones(n, bool), lambda i: f"exit code {code}, {len(lines) - 1} report lines")
        verdict.notes = {"failed_in_aborted_run": n}
        return verdict
    try:
        head = lines[0].split(" ")
        metric_ok = head[0] == "metric" and (
            _field_float(head[1], "a"),
            _field_float(head[2], "b"),
        ) == (a, b)
        eps = _field_float(lines[1].split(" ")[1], "eps_null")
        count_ok = lines[2] == f"rows n={n}"
        fields = [line.split(" ") for line in lines[3:-1]]
        index = np.array([int(f[1].removeprefix("index=")) for f in fields])
        xyz = np.array(
            [[_field_float(f[2], "x"), _field_float(f[3], "y"), _field_float(f[4], "z")] for f in fields]
        )
        cos_p = np.array([_field_float(f[5], "cos_phi") for f in fields])
        phi_p = np.array([_field_float(f[6], "phi_rad") for f in fields])
        char_p = np.array([f[7].removeprefix("character=") for f in fields])
    except (IndexError, ValueError) as exc:
        verdict.errors.append(f"malformed report: {exc}")
        verdict.failed = n
        return verdict
    if not (metric_ok and count_ok and eps == EPS_NULL):
        verdict.errors.append("report header does not match the metric, row count or eps_null")
    if not np.array_equal(index, np.arange(n)) or not np.array_equal(xyz, rows):
        verdict.errors.append("report rows are not the input rows in input order")
        verdict.failed = n
        return verdict

    cos_ref = reference_cos_phi(rows, a, b)
    zero = np.isnan(cos_ref)
    side = np.where(cos_ref > 0.0, "spacelike", "timelike")
    char_ref = np.where(np.abs(cos_ref) <= EPS_NULL, "null", side)
    near_edge = np.abs(np.abs(cos_ref) - EPS_NULL) <= BAND_MARGIN
    char_ok = (char_p == char_ref) | (near_edge & ((char_p == "null") | (char_p == side)))
    with np.errstate(invalid="ignore"):
        cos_ok = np.abs(cos_p - cos_ref) <= COS_RTOL * np.maximum(1.0, np.abs(cos_ref))
        phi_ok = np.abs(np.cos(phi_p) - np.clip(cos_ref, -0.5, 1.0)) <= PHI_COS_TOL
    zero_ok = (char_p == "error:zero-vector") & np.isnan(cos_p) & np.isnan(phi_p)
    wrong = np.where(zero, ~zero_ok, ~(char_ok & cos_ok & phi_ok))

    _blame(
        verdict,
        rows,
        wrong,
        lambda i: f"got {char_p[i]} cos_phi={float(cos_p[i])!r}, expected {char_ref[i]} cos_phi={float(cos_ref[i])!r}",
    )
    verdict.notes = {
        "zero_vector_rows": int(np.count_nonzero(zero & zero_ok)),
        "failed_in_aborted_run": 0,
        "failed_nan_cos_phi": int(np.count_nonzero(wrong & ~zero & np.isnan(cos_p))),
        "failed_false_zero_vector": int(np.count_nonzero(wrong & ~zero & (char_p == "error:zero-vector"))),
    }
    return verdict


def quadric_expectation(r2: float) -> tuple[str, str]:
    """(class, character) of the level set f(v, v) = r2."""
    if abs(r2) <= EPS_NULL:
        return "cone", "null"
    return ("two-sheets", "spacelike") if r2 > 0.0 else ("one-sheet", "timelike")


def check_mesh(r2: float, n_vertices: int, code: int, stdout: bytes, mesh: bytes) -> Verdict:
    """Check a quadric --mesh run: the summary lines and every vertex."""
    verdict = Verdict(items=n_vertices)
    if code != 0:
        verdict.errors.append(f"exit code {code}")
        verdict.failed = n_vertices
        return verdict
    kind, character = quadric_expectation(r2)
    out = stdout.decode("utf-8").split("\n")
    prefix = "equation=x'^2+y'^2-2z'^2 = "
    if (
        len(out) != 4
        or out[0] != f"class={kind}"
        or out[2] != f"character={character}"
        or not out[1].startswith(prefix)
        or float(out[1].removeprefix(prefix)) != -r2
    ):
        verdict.errors.append(f"unexpected quadric summary {out[:3]!r} for r2={r2!r}")
    tokens = np.array(mesh.split())
    if tokens.size != 4 * n_vertices or not np.all(tokens[0::4] == b"v"):
        verdict.errors.append(f"mesh has {tokens.size // 4} vertex lines, expected {n_vertices}")
        verdict.failed = n_vertices
        return verdict
    xyz = tokens.reshape(-1, 4)[:, 1:].astype(float)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    residual = np.abs(x * x + y * y - 2.0 * z * z + r2)
    bad = ~(residual <= MESH_RTOL * (1.0 + abs(r2)))
    verdict.failed = int(np.count_nonzero(bad))
    if verdict.failed:
        verdict.errors.append(f"{verdict.failed} vertices are off the surface by more than {MESH_RTOL}")
    return verdict


_CHECK_LINE = re.compile(r"(ok  |FAIL) (\S+) +trials=(\d+) max_residual=(\S+) tol=(\S+)")


def check_verify(seed: int, trials: int, code: int, stdout: bytes) -> Verdict:
    """Check a verify report: every family passes and the totals add up.

    Byte-identity with a repeat run of the same flags is checked by the
    runner, which compares every repeat against the first checked output.
    """
    verdict = Verdict(items=0)
    lines = stdout.decode("utf-8").split("\n")
    if len(lines) < 3 or lines[-1] != "" or lines[0] != f"seed={seed} trials={trials}":
        verdict.errors.append("verify output does not start with the seed and trials line")
        return verdict
    names = set()
    failures = 0
    for line in lines[1:-2]:
        match = _CHECK_LINE.fullmatch(line)
        if match is None:
            verdict.errors.append(f"malformed check line {line!r}")
            continue
        status, name, count, residual, tol = match.groups()
        names.add(name)
        verdict.items += int(count)
        if status == "FAIL" or not float(residual) <= float(tol):
            failures += 1
            verdict.failed += int(count)
    summary = f"result=pass checks={len(lines) - 3} failed=0"
    if code != 0 or lines[-2] != summary or failures or len(names) != len(lines) - 3:
        verdict.errors.append(f"exit code {code}, summary {lines[-2]!r}, expected {summary!r}")
    return verdict

