"""Command-line surface: classification, batch reports, mesh export, verification.

Exit codes: 0 success, 1 verification or residual failure, 2 usage/input error
or a file that cannot be read or written.
All output is deterministic for fixed flags (and seed); floats print as the
shortest decimal that round-trips.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys

import numpy as np

from .core import (
    CHARACTER_BY_CODE,
    CODE_ZERO_VECTOR,
    EPS_ANGLE,
    EPS_NULL,
    CirculantMetric,
    GeometryError,
    InvariantViolation,
    ZeroVectorError,
    as_vector,
    clamp_cos,
    classify_many,
    fmt_float,
)
from .frames import gram_matrix, orthonormal_q_basis
from .quadrics import (
    QuadricSpec,
    classify_quadric,
    cone_sphere_intersection,
    quadric_equation,
    radius_vector_character,
    sample_quadric,
)
from .conics import ConicSpec, classify_conic, conic_coefficients, discriminant
from .oracle import run_suite


def _parse_numbers(flag: str, form: str, text: str, convert=float) -> list:
    """The comma-separated numbers of a flag, one for each field of `form`, e.g. 'A,B'."""
    parts = text.split(",")
    try:
        if len(parts) == form.count(",") + 1:
            return [convert(p) for p in parts]
    except ValueError:
        pass
    raise GeometryError(f"{flag} expects {form!r}, got {text!r}")


def _vector_line(label: str, v: np.ndarray) -> str:
    return f"{label} = {fmt_float(v[0])} {fmt_float(v[1])} {fmt_float(v[2])}"


# Report names of classify_many's character codes.
_CHARACTER_NAMES = [c.value for c in CHARACTER_BY_CODE] + ["error:zero-vector", "error:non-finite"]
# Rows a report or mesh turns into Python objects at a time, so peak memory
# does not grow with the row count. A mesh formats each distinct value once
# per block: deduplicating whole columns would save more repr calls but hold
# every distinct string at once.
_REPORT_BLOCK = 4096


def _python_rows(*columns):
    """zip(*columns) over Python numbers, converted _REPORT_BLOCK rows at a time."""
    for start in range(0, len(columns[0]), _REPORT_BLOCK):
        yield from zip(*(column[start : start + _REPORT_BLOCK].tolist() for column in columns))


def _fmt_column(column: np.ndarray) -> list[str]:
    """fmt_float of each entry of a 1-d float array, calling repr once per distinct value.

    np.unique merges -0.0 with 0.0 and every nan with the others, which
    fmt_float prints alike ('0', 'nan'), so the merge changes no string.
    """
    unique, inverse = np.unique(column, return_inverse=True)
    # fmt_float without a Python frame per value.
    strings = list(map(str.removesuffix, map(repr, (unique + 0.0).tolist()), itertools.repeat(".0")))
    return [strings[i] for i in inverse.tolist()]


def _cmd_classify(args) -> int:
    metric = CirculantMetric(*_parse_numbers("--metric", "A,B", args.metric))
    vector = np.array(_parse_numbers("--vector", "X,Y,Z", args.vector))
    cos, code, f_uu = classify_many(metric, vector[None, :], args.eps)
    as_vector(vector)  # once --eps has passed: a non-finite vector is an input error, not a row code
    if code[0] == CODE_ZERO_VECTOR:
        raise ZeroVectorError("causal character is undefined for the zero vector")
    c = float(cos[0])
    phi = math.acos(clamp_cos(c))
    print(
        f"character={_CHARACTER_NAMES[code[0]]} cos_phi={fmt_float(c)} "
        f"phi_rad={fmt_float(phi)} f_uu={fmt_float(f_uu[0])}"
    )
    return 0


def _read_batch_rows(path: str) -> np.ndarray:
    """The CSV's rows as an (N, 3) float array; every input error names its line."""
    with open(path, "rb") as fh:
        values = []
        # Each line is decoded on its own, so a bad byte is blamed on its line.
        # The header comes first even from an empty file, which then fails it.
        for lineno, raw in enumerate(itertools.chain([fh.readline()], fh), start=1):
            try:
                line = raw.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError:
                raise GeometryError(f"line {lineno}: not valid UTF-8") from None
            if lineno == 1:
                if line.strip() != "x,y,z":
                    raise GeometryError("line 1: expected CSV header 'x,y,z'")
                continue
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise GeometryError(f"line {lineno}: expected three comma-separated reals, got {line!r}")
            try:
                values.extend(map(float, parts))
            except ValueError:
                raise GeometryError(f"line {lineno}: could not parse {line!r}") from None
    return np.array(values, dtype=float).reshape(-1, 3)


def _cmd_classify_batch(args) -> int:
    metric = CirculantMetric(*_parse_numbers("--metric", "A,B", args.metric))
    rows = _read_batch_rows(args.input)
    cos, code, _ = classify_many(metric, rows)
    # classify_many has range-checked every cosine; nan rows stay nan.
    clamped = np.clip(cos, -0.5, 1.0)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"metric a={fmt_float(metric.a)} b={fmt_float(metric.b)}\n")
        fh.write(f"tolerance eps_null={fmt_float(EPS_NULL)} eps_angle={fmt_float(EPS_ANGLE)}\n")
        fh.write(f"rows n={len(rows)}\n")
        for index, (x, y, z, c, clamp, k) in enumerate(_python_rows(*rows.T, cos, clamped, code)):
            fh.write(
                f"row index={index} x={fmt_float(x)} y={fmt_float(y)} z={fmt_float(z)} "
                f"cos_phi={fmt_float(c)} phi_rad={fmt_float(math.acos(clamp))} "
                f"character={_CHARACTER_NAMES[k]}\n"
            )
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_qbasis(args) -> int:
    metric = CirculantMetric(*_parse_numbers("--metric", "A,B", args.metric))
    basis = orthonormal_q_basis(metric)
    residual = float(np.max(np.abs(gram_matrix(metric, basis.vectors()) - np.eye(3))))
    print(_vector_line("u", basis.u))
    print(_vector_line("qu", basis.qu))
    print(_vector_line("q2u", basis.q2u))
    print(f"gram_residual={fmt_float(residual)}")
    return 0 if residual <= 1e-10 else 1


def _cmd_quadric(args) -> int:
    spec = QuadricSpec(args.r2)
    # --samples is parsed, and the mesh sampled and its file opened, first,
    # so a bad --samples, --t-max or --mesh prints nothing.
    samples = _parse_numbers("--samples", "NS,NT", args.samples, int)
    mesh = contextlib.nullcontext()
    if args.mesh is not None:
        vertices = sample_quadric(spec, *samples, extent=args.t_max)
        mesh = open(args.mesh, "w", encoding="utf-8", newline="\n")
    with mesh as fh:
        print(f"class={classify_quadric(spec).value}")
        print(f"equation={quadric_equation(spec)}")
        print(f"character={radius_vector_character(spec).value}")
        if fh is not None:
            for start in range(0, len(vertices), _REPORT_BLOCK):
                block = vertices[start : start + _REPORT_BLOCK]
                fh.write("".join(map("v {} {} {}\n".format, *map(_fmt_column, block.T))))
    return 0


def _cmd_conic(args) -> int:
    if args.cos_phi is not None:
        spec = ConicSpec(args.cos_phi, args.r2)
    else:
        spec = ConicSpec.from_phi(args.phi, args.r2)
    k = conic_coefficients(spec)
    result = classify_conic(spec)
    print(f"A={fmt_float(k.A)} B={fmt_float(k.B)} C={fmt_float(k.C)}")
    print(f"discriminant={fmt_float(discriminant(spec))}")
    print(f"class={result.kind.value}")
    print(f"equation={result.equation}")
    if result.circle_radius is not None:
        print(f"radius={fmt_float(result.circle_radius)}")
    if result.extension:
        print("extension=true")
    return 0


def _cmd_intersect(args) -> int:
    circle = cone_sphere_intersection()
    print(f"x'^2+y'^2 = {fmt_float(circle.radius_sq)}")
    print(f"z' = ±{fmt_float(circle.z_planes[0])}")
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.seed, args.trials)
    print(f"seed={args.seed} trials={args.trials}")
    failed = 0
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(
            f"{status} {r.name:<32} trials={r.trials} "
            f"max_residual={fmt_float(r.max_residual)} tol={fmt_float(r.tolerance)}"
        )
    print(f"result={'pass' if failed == 0 else 'fail'} checks={len(reports)} failed={failed}")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circgeo",
        description="Circulant tangent-space geometry: causal classification, "
        "quadric and conic pipelines, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="causal character of one vector")
    p.add_argument("--metric", required=True, help="metric coefficients 'A,B'")
    p.add_argument("--vector", required=True, help="vector components 'X,Y,Z'")
    p.add_argument("--eps", type=float, default=EPS_NULL, help="null-band tolerance override")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-batch", help="classify a CSV of vectors into a report file")
    p.add_argument("--metric", required=True, help="metric coefficients 'A,B'")
    p.add_argument("--input", required=True, help="CSV file with header x,y,z")
    p.add_argument("--output", required=True, help="report file to write")
    p.set_defaults(func=_cmd_classify_batch)

    p = sub.add_parser("qbasis", help="deterministic orthonormal shift basis")
    p.add_argument("--metric", required=True, help="metric coefficients 'A,B'")
    p.set_defaults(func=_cmd_qbasis)

    p = sub.add_parser("quadric", help="classify the surface f(v,v) = r2, optionally mesh it")
    p.add_argument("--r2", type=float, required=True, help="level constant r^2")
    p.add_argument("--mesh", default=None, help="write vertices 'v x y z' to this file")
    p.add_argument("--samples", default="32,64", help="mesh grid 'NS,NT' (default 32,64)")
    p.add_argument("--t-max", type=float, default=None, help="cylindrical-radius reach of the mesh")
    p.set_defaults(func=_cmd_quadric)

    p = sub.add_parser("conic", help="classify the plane locus f(v,v) = r2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=float, default=None, help="shift angle in radians")
    group.add_argument("--cos-phi", type=float, default=None, help="cosine of the shift angle")
    p.add_argument("--r2", type=float, required=True, help="level constant r^2")
    p.set_defaults(func=_cmd_conic)

    p = sub.add_parser("intersect", help="cone and unit-sphere intersection circles")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("verify", help="run the deterministic oracle suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
