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
import re
import sys

import numpy as np

from .core import (
    CHARACTER_BY_CODE,
    CODE_ZERO_VECTOR,
    EPS_ANGLE,
    EPS_NULL,
    BadSampleCountsError,
    BadTrialCountError,
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
    mesh_extent,
    mesh_profile,
    quadric_equation,
    radius_vector_character,
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
# Vertices a mesh joins at a time (whole rows, at least this many, or pieces
# of a wider row): peak memory does not grow with the row count.
_MESH_BLOCK = 4096
# Number strings a mesh keeps for later rows (~10 MB at most), so its memory
# grows with its rows plus its columns, not their product.
_MESH_KEPT = 1 << 18
# CSV rows classify-batch parses, classifies and reports at a time: beside
# the float arrays of all rows it holds one block of Python strings and floats.
_BATCH_ROWS = 2048


def _reprs(values) -> list[str]:
    """fmt_float of each value, without a Python frame per value."""
    return list(map(str.removesuffix, map(repr, np.add(values, 0.0).tolist()), itertools.repeat(".0")))


def _lines(*fields) -> str:
    """The text of lines made of fields: a str repeats on every line, a list[str] gives one per line.

    The lists are of equal length, one entry per line. One str.join over a
    flat token list: no format call per line.
    """
    n = next(len(field) for field in fields if not isinstance(field, str))
    tokens = [None] * (len(fields) * n)
    for i, field in enumerate(fields):
        tokens[i :: len(fields)] = [field] * n if isinstance(field, str) else field
    return "".join(tokens)


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


def _check_line(lineno: int, raw: bytes) -> list[float]:
    """The three reals of one CSV line; an error names the line."""
    try:
        line = raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError:
        raise GeometryError(f"line {lineno}: not valid UTF-8") from None
    parts = line.strip().split(",")
    if len(parts) != 3:
        raise GeometryError(f"line {lineno}: expected three comma-separated reals, got {line!r}")
    try:
        return list(map(float, parts))
    except ValueError:
        raise GeometryError(f"line {lineno}: could not parse {line!r}") from None


def _parse_block(raws: list[bytes]) -> np.ndarray:
    """The (n, 3) reals of n CSV lines in one decode and one conversion.

    np.array calls float() on each token, as _check_line does. Raises
    ValueError (UnicodeDecodeError is one) where some line needs
    _check_line, to be named or to be stripped first. Lines split on '\n'
    alone: str.splitlines also splits on '\r', '\x0b', '\x1c' and others.
    """
    lines = b"".join(raws).decode("utf-8").removesuffix("\n").split("\n")
    if set(map(str.count, lines, itertools.repeat(","))) != {2}:
        raise ValueError("a line without exactly two commas")
    return np.array(",".join(lines).split(","), dtype=float).reshape(-1, 3)


def _read_batch_rows(path: str) -> list[np.ndarray]:
    """The CSV's rows as (n, 3) float blocks of up to _BATCH_ROWS rows; every input error names its line."""
    with open(path, "rb") as fh:
        # The header comes first even from an empty file, which then fails it.
        try:
            header = fh.readline().decode("utf-8")
        except UnicodeDecodeError:
            raise GeometryError("line 1: not valid UTF-8") from None
        if header.strip() != "x,y,z":
            raise GeometryError("line 1: expected CSV header 'x,y,z'")
        blocks, lineno = [], 2
        for raws in iter(lambda: list(itertools.islice(fh, _BATCH_ROWS)), []):
            try:
                blocks.append(_parse_block(raws))
            except ValueError:  # line by line, so the first bad line is the one named
                blocks.append(np.array([_check_line(i, raw) for i, raw in enumerate(raws, lineno)]))
            lineno += len(raws)
    return blocks


def _cmd_classify_batch(args) -> int:
    metric = CirculantMetric(*_parse_numbers("--metric", "A,B", args.metric))
    blocks = _read_batch_rows(args.input)
    # Every row is classified before the report is opened, so an
    # InvariantViolation leaves no file behind.
    classified = [classify_many(metric, rows)[:2] for rows in blocks]
    n = sum(map(len, blocks))
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"metric a={fmt_float(metric.a)} b={fmt_float(metric.b)}\n")
        fh.write(f"tolerance eps_null={fmt_float(EPS_NULL)} eps_angle={fmt_float(EPS_ANGLE)}\n")
        fh.write(f"rows n={n}\n")
        start = 0
        for rows, (cos, code) in zip(blocks, classified):
            # classify_many has range-checked every cosine; nan rows stay nan.
            clamped = np.clip(cos, -0.5, 1.0).tolist()
            fh.write(_lines(
                "row index=", list(map(str, range(start, start + len(rows)))),
                " x=", _reprs(rows[:, 0]), " y=", _reprs(rows[:, 1]), " z=", _reprs(rows[:, 2]),
                " cos_phi=", _reprs(cos),
                # math.acos, not np.arccos, which can differ in the last bit.
                " phi_rad=", _reprs(list(map(math.acos, clamped))),
                " character=", [_CHARACTER_NAMES[k] for k in code.tolist()],
                "\n",
            ))
            start += len(rows)
    print(f"wrote {n} rows to {args.output}")
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


def _write_mesh(fh, radius, height, cos, sin) -> None:
    """Write vertex (radius[i] cos[j], radius[i] sin[j], height[i]) to fh as a 'v x y z' line, row i major.

    x and y print from radius[i] times the distinct magnitudes of cos and sin, formatted once for all rows that
    share the radius (the mirror branch; the one sheet's rows i and n - 1 - i where bitwise equal). The lines of
    whole rows, at least _MESH_BLOCK vertices, or of pieces of a wider row, are one join of a token list.
    """
    # np.unique without return_inverse imports numpy.ma (~9 ms, 1.3 MB).
    mags, slot = np.unique(np.abs(np.concatenate((cos, sin))), return_inverse=True)
    n, m = len(cos), len(mags)
    # Angle j's x and y columns in a group's table: the + strings of mags, then the negated ones.
    xcol, ycol = slot[:n] + m * (cos < 0), slot[n:] + m * (sin < 0)
    # A radius's strings wait, joined, for its later groups until its last row, while fewer than _MESH_KEPT wait.
    unique, key = np.unique(radius, return_inverse=True)
    last = len(radius) - 1 - np.unique(radius[::-1], return_index=True)[1]  # each radius's last row
    kept = np.full(len(unique), None, dtype=object)  # a waiting radius's strings, each followed by " "
    room = _MESH_KEPT // m  # how many more radii may wait
    step, width, tokens = -(-_MESH_BLOCK // n), min(n, _MESH_BLOCK), []
    for start in range(0, len(radius), step):
        distinct, place = np.unique(key[start : start + step], return_inverse=True)
        products = unique[distinct, None] * mags
        old, zero = kept[distinct].astype(bool), products == 0.0
        strings = np.full(products.shape, "0", dtype=object)
        strings[old] = np.array("".join(kept[distinct[old]]).split(" ")[:-1], dtype=object).reshape(-1, m)
        fresh = ~old[:, None] & ~zero
        strings[fresh] = np.array(_reprs(products[fresh]), dtype=object)
        # The radii whose last row is in this group stop waiting; new ones that come back start.
        later = last[distinct] >= start + step
        drop, keep = distinct[old & ~later], np.flatnonzero(~old & later)[:room]
        kept[drop], room = None, room + len(drop) - len(keep)
        kept[distinct[keep]] = np.array(list(map(" ".join, strings[keep].tolist())), dtype=object) + " "
        # r * -c is -(r * c) exactly, so a negation prints '-' and the + string, or '0' where the product is 0.
        table = np.concatenate((strings, np.where(zero, "0", "-" + strings)), axis=1)
        z = np.array([f" {z}\n" for z in _reprs(height[start : start + len(place)])], dtype=object)[:, None]
        for cols in (slice(lo, lo + width) for lo in range(0, n, width)):
            x, y = (table[place[:, None], col[cols]] for col in (xcol, ycol))
            if len(tokens) != 5 * x.size:
                tokens = ["v ", None, " ", None, None] * x.size
            tokens[1::5], tokens[3::5] = x.ravel().tolist(), y.ravel().tolist()
            tokens[4::5] = np.broadcast_to(z, x.shape).ravel().tolist()
            fh.write("".join(tokens))


def _cmd_quadric(args) -> int:
    spec = QuadricSpec(args.r2)
    # Flags checked, profile computed and --mesh file opened first: a bad flag or path prints nothing.
    n_s, n_theta = _parse_numbers("--samples", "NS,NT", args.samples, int)
    profile = None
    try:  # mesh_profile runs mesh_extent's checks itself
        if args.mesh is None:
            mesh_extent(spec, n_s, n_theta, args.t_max)
        else:
            profile = mesh_profile(spec, n_s, n_theta, args.t_max)
    except (BadSampleCountsError, MemoryError) as exc:  # MemoryError: numpy cannot allocate the profile
        raise GeometryError(f"--samples {args.samples}: {exc}") from None
    with open(args.mesh, "w", encoding="utf-8", newline="\n") if profile else contextlib.nullcontext() as fh:
        print(f"class={classify_quadric(spec).value}")
        print(f"equation={quadric_equation(spec)}")
        print(f"character={radius_vector_character(spec).value}")
        if profile:
            _write_mesh(fh, *profile)
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
    try:
        reports = run_suite(args.seed, args.trials)
    except (BadTrialCountError, MemoryError) as exc:  # MemoryError: numpy cannot allocate the trials
        raise GeometryError(f"--trials {args.trials}: {exc}") from None
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads '-1,2,3', '-1e5' or '-.5' after a flag as its value.

    argparse's own negative-number test knows only '-1' and '-1.5' and takes
    the rest for options; no option here starts with '-' and a digit. The
    subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
