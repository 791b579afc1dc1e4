"""Command-line surface: formats, exit codes, determinism.

Tests that read only stdout, stderr, the exit code, a report or a mesh file
call cli.main in this process; the rest start `python -m circgeo`, with numpy
RuntimeWarnings as errors, for what only a real process shows (the entry
point, no traceback, and an empty stdout before a failed --mesh).
"""

import hashlib
import io
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from circgeo import GeometryError, QuadricSpec, cli, core, fmt_float, mesh_profile, sample_quadric

DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------- classify


def test_classify_spacelike_line(run_main):
    result = run_main("classify", "--metric", "1,0", "--vector", "1,1,1")
    assert result.returncode == 0
    assert result.stdout == "character=spacelike cos_phi=1 phi_rad=0 f_uu=6\n"


def test_classify_null(run_main):
    result = run_main("classify", "--metric", "1,0", "--vector", "1,0,0")
    assert result.returncode == 0
    assert "character=null" in result.stdout


def test_classify_eps_overrides_null_band(run_main):
    vector = ("--metric", "1,0", "--vector", "1,0,1e-12")  # cos_phi = 1e-12
    assert "character=null" in run_main("classify", *vector).stdout
    assert "character=spacelike" in run_main("classify", *vector, "--eps", "1e-13").stdout
    for bad in ("0", "1e-3", "nan"):
        result = run_main("classify", *vector, "--eps", bad)
        assert result.returncode == 2
        assert "eps_null must lie in (0, 1e-3)" in result.stderr


def test_classify_invalid_metric_exits_2(run_main):
    result = run_main("classify", "--metric", "1,1", "--vector", "1,0,0")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_classify_zero_vector_exits_2(run_main):
    result = run_main("classify", "--metric", "1,0", "--vector", "0,0,0")
    assert result.returncode == 2


def test_classify_malformed_vector_exits_2(run_main):
    result = run_main("classify", "--metric", "1,0", "--vector", "1,oops,0")
    assert result.returncode == 2


def test_classify_non_finite_vector_exits_2(run_main):
    result = run_main("classify", "--metric", "1,0", "--vector=1,2,nan")
    assert result.returncode == 2
    assert result.stderr == "error: vector components must be finite\n"


@pytest.mark.parametrize("vector", ["nan,0,0", "1,inf,0", "-inf,2,3"])
def test_classify_non_finite_components_exit_2(run_main, vector):
    result = run_main("classify", "--metric", "1,0", f"--vector={vector}")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: vector components must be finite\n"


def classify_fields(run, *args):
    result = run("classify", *args)
    assert result.returncode == 0, result.stderr
    return dict(field.split("=") for field in result.stdout.split())


def test_classify_huge_vector_is_spacelike(run_main):
    # 1e200**2 overflows, which once read cos_phi=nan and character=null.
    fields = classify_fields(run_main, "--metric", "2,0.5", "--vector=1e200,1e200,1e200")
    assert fields == {"character": "spacelike", "cos_phi": "1", "phi_rad": "0", "f_uu": "inf"}


def test_classify_large_vector_has_finite_cos_phi(run_main):
    fields = classify_fields(run_main, "--metric", "2,0.5", "--vector=1e155,-2e155,5e154")
    # g(u, u) = 8 and g(u, qu) = -3.625 for u = (1, -2, 0.5).
    assert abs(float(fields["cos_phi"]) + 0.453125) <= 1e-15
    assert fields["character"] == "timelike"
    assert abs(math.cos(float(fields["phi_rad"])) + 0.453125) <= 1e-15


def test_classify_tiny_vector_is_not_zero(run_main):
    # 1e-200**2 underflows to 0, which once read as a zero vector.
    fields = classify_fields(run_main, "--metric", "2,0.5", "--vector=1e-200,1e-200,1e-200")
    assert fields == {"character": "spacelike", "cos_phi": "1", "phi_rad": "0", "f_uu": "0"}


def test_invariant_violation_exits_1(monkeypatch, capsys):
    from circgeo import InvariantViolation, cli

    def broken(*args):
        raise InvariantViolation("shift-angle cosine nan outside [-1/2, 1]")

    monkeypatch.setattr(cli, "classify_many", broken)
    assert cli.main(["classify", "--metric", "1,0", "--vector", "1,1,1"]) == 1
    assert capsys.readouterr().err == "error: shift-angle cosine nan outside [-1/2, 1]\n"


# ---------------------------------------------------------------- batch


def test_batch_roundtrip(tmp_path, run_main):
    csv = tmp_path / "in.csv"
    out = tmp_path / "report.txt"
    csv.write_text("x,y,z\n1,2,3\n1,0,0\n0,0,0\n1,-1,0\n5,5,5\n", encoding="utf-8")
    result = run_main("classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(out))
    assert result.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric a=1 b=0"
    assert lines[1].startswith("tolerance eps_null=")
    assert lines[2] == "rows n=5"
    rows = [line for line in lines if line.startswith("row ")]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        assert f"index={i} " in row
    assert "character=null" in rows[1]
    assert "character=error:zero-vector" in rows[2]
    assert "character=timelike" in rows[3]
    assert "character=spacelike" in rows[4]


def test_batch_header_only(tmp_path, run_main):
    csv = tmp_path / "empty.csv"
    out = tmp_path / "report.txt"
    csv.write_text("x,y,z\n", encoding="utf-8")
    result = run_main("classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(out))
    assert result.returncode == 0
    assert "rows n=0" in out.read_text(encoding="utf-8")


def test_batch_bad_header_exits_2(tmp_path, run_main):
    csv = tmp_path / "bad.csv"
    csv.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    result = run_main(
        "classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(csv) + ".out"
    )
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_batch_unwritable_output_exits_2(tmp_path, run_cli):
    csv = tmp_path / "rows.csv"
    csv.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    out = tmp_path / "missing" / "report.txt"
    result = run_cli("classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(out))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert not out.exists()


def test_batch_unreadable_input_exits_2(tmp_path, run_main):
    csv = tmp_path / "missing.csv"
    result = run_main("classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(tmp_path / "r.txt"))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and str(csv) in result.stderr


def test_batch_bad_row_names_line(tmp_path, run_main):
    csv = tmp_path / "bad_row.csv"
    csv.write_text("x,y,z\n1,2,3\n4,nope,6\n", encoding="utf-8")
    result = run_main(
        "classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(csv) + ".out"
    )
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_batch_invalid_utf8_names_line(tmp_path, run_main):
    # A text reader decodes ahead in chunks, so the bad byte used to fail the
    # header read with a traceback instead of naming its line.
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"x,y,z\n1,2,3\n4,5,6\xff\n7,8,9\n")
    result = run_main(
        "classify-batch", "--metric", "1,0", "--input", str(csv), "--output", str(csv) + ".out"
    )
    assert result.returncode == 2
    assert result.stderr == "error: line 3: not valid UTF-8\n"


def test_batch_golden_report(tmp_path, run_main):
    # The report of this corpus (uniform, near-null, zero and mixed-magnitude
    # rows) was captured from the row-by-row implementation that preceded the
    # vectorised kernel; every byte must stay the same.
    out = tmp_path / "report.txt"
    result = run_main(
        "classify-batch", "--metric", "1.75,0.375",
        "--input", str(DATA / "batch_golden.csv"), "--output", str(out),
    )
    assert result.returncode == 0
    assert result.stdout == f"wrote 500 rows to {out}\n"
    assert out.read_bytes() == (DATA / "batch_golden_report.txt").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 499])
def test_batch_golden_report_at_any_block_size(tmp_path, run_main, monkeypatch, block):
    # One-row blocks, blocks that do not divide the 500 rows, and one short
    # last block write the same report as one 2048-row block.
    monkeypatch.setattr(cli, "_BATCH_ROWS", block)
    out = tmp_path / "report.txt"
    result = run_main(
        "classify-batch", "--metric", "1.75,0.375",
        "--input", str(DATA / "batch_golden.csv"), "--output", str(out),
    )
    assert result.returncode == 0
    assert out.read_bytes() == (DATA / "batch_golden_report.txt").read_bytes()


def test_batch_golden_report_on_other_blas_kernels(tmp_path, run_cli, blas_kernel):
    out = tmp_path / "report.txt"
    result = run_cli(
        "classify-batch", "--metric", "1.75,0.375",
        "--input", str(DATA / "batch_golden.csv"), "--output", str(out),
        env={"OPENBLAS_CORETYPE": blas_kernel},
    )
    assert result.returncode == 0
    assert out.read_bytes() == (DATA / "batch_golden_report.txt").read_bytes()


def _core_lines(run, *args):
    """(lines of core.py that run(*args) executes, its result); the previous tracer is restored."""
    lines = set()

    def in_core(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return in_core

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_core if frame.f_code.co_filename == core.__file__ else None)
    try:
        result = run(*args)
    finally:
        sys.settrace(previous)
    return lines, result


def test_verify_runs_every_core_line_that_classify_batch_runs(tmp_path, run_main):
    # One kernel path: the oracle re-checks the very statements that the
    # batch report is printed from, whatever rows the report carries.
    csv = tmp_path / "rows.csv"
    rows = ["1,2,3", "0,0,0", "-0.0,0,0", "nan,1,2", "1,inf,0", "-inf,0,0", "1e300,-2e300,5e299", "1,0,0"]
    csv.write_text("x,y,z\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    batch, result = _core_lines(
        run_main, "classify-batch", "--metric", "1.75,0.375",
        "--input", str(csv), "--output", str(tmp_path / "report.txt"),
    )
    assert result.returncode == 0
    verify, result = _core_lines(run_main, "verify", "--seed", "7", "--trials", "50")
    assert result.returncode == 0
    assert batch and sorted(batch - verify) == []


def batch_report(run, tmp_path, rows, metric="2,0.5"):
    """Report lines of classify-batch on rows of CSV text, each split into a field dict."""
    csv = tmp_path / "rows.csv"
    out = tmp_path / "report.txt"
    csv.write_text("x,y,z\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    result = run("classify-batch", "--metric", metric, "--input", str(csv), "--output", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text(encoding="utf-8").splitlines()[3:]
    return [dict(field.split("=") for field in line.split()[1:]) for line in lines]


def test_batch_extreme_magnitudes(tmp_path, run_main):
    rows = batch_report(
        run_main, tmp_path, ["1e200,1e200,1e200", "1e155,-2e155,5e154", "1e-200,1e-200,1e-200"]
    )
    assert [r["character"] for r in rows] == ["spacelike", "timelike", "spacelike"]
    assert rows[0]["cos_phi"] == rows[2]["cos_phi"] == "1"
    assert abs(float(rows[1]["cos_phi"]) + 0.453125) <= 1e-15


def test_batch_rows_scaled_by_2_pow_540(tmp_path, run_main):
    # Squares of 2**540 overflow and squares of 2**-540 underflow; the rows
    # must still read exactly as their unscaled originals.
    base = [(1.0, 2.0, 3.0), (3.0, -1.0, 2.0), (1.0, -1.0, 0.0), (1.0, 0.0, 0.0), (-0.5, 4.0, 1.25)]
    texts = []
    for k in (0, 540, -540):
        texts += [",".join(repr(math.ldexp(c, k)) for c in u) for u in base]
    rows = batch_report(run_main, tmp_path, texts, metric="1,0")
    keys = ("cos_phi", "phi_rad", "character")
    plain = [[r[key] for key in keys] for r in rows[: len(base)]]
    assert [[r[key] for key in keys] for r in rows[len(base) : 2 * len(base)]] == plain
    assert [[r[key] for key in keys] for r in rows[2 * len(base) :]] == plain
    assert [p[2] for p in plain] == ["spacelike", "spacelike", "timelike", "null", "spacelike"]


def test_batch_non_finite_rows_are_row_errors(tmp_path, run_main):
    rows = batch_report(run_main, tmp_path, ["1,1,1", "nan,0,0", "1,inf,0", "-inf,2,3", "0,0,0"])
    assert [r["character"] for r in rows] == [
        "spacelike", "error:non-finite", "error:non-finite", "error:non-finite", "error:zero-vector",
    ]
    for r in rows[1:]:
        assert (r["cos_phi"], r["phi_rad"]) == ("nan", "nan")
    assert (rows[1]["x"], rows[2]["y"], rows[3]["x"]) == ("nan", "inf", "-inf")


def test_batch_report_across_block_edges(tmp_path, run_main):
    # 8,193 rows end one row past a multiple of 2048, so they cross the edges
    # of the command's 2048-row blocks. The rows at two edges are zero,
    # signed-zero and subnormal, non-finite, and scaled by 2**1000 and
    # 2**-1000. Row 5000 is wrapped in '\x1c', which only the line-by-line
    # parse accepts, so its block takes that path between bulk-parsed ones.
    # The report must read as one fmt_float-per-cell line per row.
    from circgeo import CHARACTER_BY_CODE, CirculantMetric, classify_many

    rows = np.random.default_rng(5).uniform(-10.0, 10.0, size=(8193, 3))
    rows[4095] = 0.0
    rows[4096] = (-0.0, 5e-324, -2.5e-310)
    rows[4097] = (math.nan, math.inf, -math.inf)
    rows[8191] = np.ldexp(rows[8191], 1000)
    rows[8192] = np.ldexp(rows[8192], -1000)
    csv = tmp_path / "rows.csv"
    out = tmp_path / "report.txt"
    lines = [f"{x!r},{y!r},{z!r}\n" for x, y, z in rows.tolist()]
    lines[5000] = f"\x1c{lines[5000][:-1]}\x1c\n"
    csv.write_text("x,y,z\n" + "".join(lines), encoding="utf-8")
    assert len(rows) == 4 * cli._BATCH_ROWS + 1
    result = run_main("classify-batch", "--metric", "2,0.5", "--input", str(csv), "--output", str(out))
    assert (result.returncode, result.stdout) == (0, f"wrote 8193 rows to {out}\n")
    cos, code, _ = classify_many(CirculantMetric(2.0, 0.5), rows)
    clamped = np.clip(cos, -0.5, 1.0)
    names = [c.value for c in CHARACTER_BY_CODE] + ["error:zero-vector", "error:non-finite"]
    expected = [
        f"row index={index} x={fmt_float(x)} y={fmt_float(y)} z={fmt_float(z)} "
        f"cos_phi={fmt_float(c)} phi_rad={fmt_float(math.acos(clamp))} character={names[k]}\n"
        for index, ((x, y, z), c, clamp, k) in enumerate(
            zip(rows.tolist(), cos.tolist(), clamped.tolist(), code.tolist())
        )
    ]
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[2] == "rows n=8193\n"
    assert lines[3:] == expected
    assert [names[k] for k in code[4095:4098]] == ["error:zero-vector", "spacelike", "error:non-finite"]


def _batch_lines(n=6000):
    """n CSV lines of seeded reals, as bytes without their newlines: ~370 KB, three 2048-row blocks."""
    rows = np.random.default_rng(14).uniform(-10.0, 10.0, size=(n, 3))
    return [f"{x!r},{y!r},{z!r}".encode() for x, y, z in rows.tolist()]


def _batch_errors(tmp_path, run_main, body):
    """The exit code and stderr of classify-batch on b'x,y,z\\n' + body; no report may be written."""
    csv, out = tmp_path / "rows.csv", tmp_path / "report.txt"
    csv.write_bytes(b"x,y,z\n" + body)
    result = run_main("classify-batch", "--metric", "2,0.5", "--input", str(csv), "--output", str(out))
    assert result.stdout == "" and not out.exists()
    return result.returncode, result.stderr


def test_batch_parse_errors_across_read_blocks(tmp_path, run_main):
    # Each block of rows is parsed at once and only a failing block line by
    # line, which must still name the first bad line of the file.
    lines = _batch_lines()
    bad = list(lines)
    bad[5000 - 2] = b"1.5,2.5,nope"  # lines[0] is line 2
    assert _batch_errors(tmp_path, run_main, b"\n".join(bad) + b"\n") == (
        2, "error: line 5000: could not parse '1.5,2.5,nope'\n")
    # A field-count error before a bad byte of the same block is the one named.
    bad = list(lines)
    bad[3990 - 2] = b"1.5,2.5"
    bad[4000 - 2] += b"\xff"
    assert len(lines) > 2 * cli._BATCH_ROWS and (3990 - 2) // cli._BATCH_ROWS == (4000 - 2) // cli._BATCH_ROWS
    assert _batch_errors(tmp_path, run_main, b"\n".join(bad) + b"\n") == (
        2, "error: line 3990: expected three comma-separated reals, got '1.5,2.5'\n")
    # Four fields and then two: the block still holds three tokens a line.
    bad = list(lines)
    bad[4500 - 2 : 4502 - 2] = [b"1,2,3,4", b"5,6"]
    assert _batch_errors(tmp_path, run_main, b"\n".join(bad) + b"\n") == (
        2, "error: line 4500: expected three comma-separated reals, got '1,2,3,4'\n")
    assert _batch_errors(tmp_path, run_main, b"\n".join(lines) + b"\n\n") == (
        2, "error: line 6002: expected three comma-separated reals, got ''\n")


def test_batch_crlf_without_final_newline(tmp_path, run_main):
    reports = []
    for name, body in (("lf", b"\n".join(_batch_lines()) + b"\n"), ("crlf", b"\r\n".join(_batch_lines()))):
        csv, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
        csv.write_bytes(b"x,y,z\r\n" + body)
        result = run_main("classify-batch", "--metric", "2,0.5", "--input", str(csv), "--output", str(out))
        assert (result.returncode, result.stderr) == (0, "")
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# Tokens float() reads, some only through its own rules (underscores between
# digits, Unicode digits and whitespace, any case of inf and nan), and tokens
# it rejects. The command must read each as float() does, in a bulk block.
_FLOAT_TOKENS = ["1_0", "١٢٣", "٣.٥", "  5  ", "\x0c2", "infinity", "inF", "-nan", "1e500", "1e-400", "+.5",
                 "5.", "1\r"]
_NON_FLOAT_TOKENS = ["_1", "1__0", "0x1p3", "nan(123)", "", " "]


@pytest.mark.parametrize("token", _FLOAT_TOKENS)
def test_batch_tokens_parse_as_float(tmp_path, token):
    bits = np.array([float(token)] * 3).view(np.int64)
    line = f"{token},{token},{token}".encode()
    assert np.array_equal(cli._parse_block([line + b"\n", line]).view(np.int64), np.tile(bits, (2, 1)))
    csv = tmp_path / "rows.csv"
    csv.write_bytes(b"x,y,z\n1,2,3\n" + line + b"\n")
    assert np.array_equal(np.concatenate(cli._read_batch_rows(str(csv)))[1].view(np.int64), bits)


def test_batch_line_that_only_strips_parse(tmp_path):
    # str.strip drops '\x1c' at the ends of a line, float() does not: the bulk
    # conversion fails, and the line-by-line read must still accept the line.
    with pytest.raises(ValueError):
        cli._parse_block([b"\x1c1,2,3\x1c\n"])
    csv = tmp_path / "rows.csv"
    csv.write_bytes(b"x,y,z\n4,5,6\n\x1c1,2,3\x1c\n")
    assert np.concatenate(cli._read_batch_rows(str(csv))).tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]


@pytest.mark.parametrize("token", _NON_FLOAT_TOKENS)
def test_batch_tokens_float_rejects(tmp_path, run_main, token):
    line = f"1,{token},3"
    with pytest.raises(ValueError):
        cli._parse_block([line.encode()])
    assert _batch_errors(tmp_path, run_main, f"1,2,3\n{line}\n".encode()) == (
        2, f"error: line 3: could not parse {line!r}\n")


def test_batch_memory_is_bounded_per_row(tmp_path, capsys, monkeypatch):
    # With small blocks, a 20k-row CSV spans many blocks, and the command's
    # peak is that of its float arrays and one block. Parsing into a list of
    # Python floats and classifying all rows at once read ~144 B/row here;
    # concatenating the parsed blocks into one array, ~54 B/row; keeping
    # them as blocks, ~45 B/row. A first run pays one-time costs untraced.
    rows = np.random.default_rng(3).uniform(-10.0, 10.0, size=(20_000, 3))
    csv = tmp_path / "rows.csv"
    csv.write_text("x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows.tolist()), encoding="utf-8")
    monkeypatch.setattr(cli, "_BATCH_ROWS", 256)
    argv = ["classify-batch", "--metric", "2,0.5", "--input", str(csv), "--output", str(tmp_path / "r.txt")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        code = cli.main(argv)
        per_row = tracemalloc.get_traced_memory()[1] / len(rows)
    finally:
        tracemalloc.stop()
    assert code == 0
    assert per_row < 50, per_row


# ---------------------------------------------------------------- qbasis


def test_qbasis_identity_metric(run_main):
    result = run_main("qbasis", "--metric", "1,0")
    assert result.returncode == 0
    u_line = result.stdout.splitlines()[0]
    values = [float(p) for p in u_line.split("=")[1].split()]
    s3 = math.sqrt(3.0)
    expected = [(1.0 + s3) / 3.0, (1.0 - s3) / 3.0, 1.0 / 3.0]
    assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-12
    assert "gram_residual=" in result.stdout


def test_qbasis_general_metric(run_main):
    result = run_main("qbasis", "--metric", "2,1")
    assert result.returncode == 0


def test_qbasis_invalid_metric(run_main):
    assert run_main("qbasis", "--metric", "1,1").returncode == 2


def test_qbasis_near_float_max_metric(run_cli):
    # a + 2b overflows unscaled, which once exited 2 with a numpy warning.
    result = run_cli("qbasis", "--metric", "1e308,5e307")
    assert result.returncode == 0
    assert result.stderr == ""


# ---------------------------------------------------------------- quadric


def test_quadric_cone(run_main):
    result = run_main("quadric", "--r2", "0")
    assert result.returncode == 0
    assert "class=cone" in result.stdout
    assert "x'^2+y'^2-2z'^2 = 0" in result.stdout
    assert "character=null" in result.stdout


def test_quadric_two_sheets_equation(run_main):
    result = run_main("quadric", "--r2", "2")
    assert "class=two-sheets" in result.stdout
    assert "x'^2+y'^2-2z'^2 = -2" in result.stdout


@pytest.mark.parametrize("r2", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("mesh", [False, True])
def test_quadric_non_finite_r2_exits_2(tmp_path, run_main, r2, mesh):
    path = tmp_path / "out.obj"
    result = run_main("quadric", f"--r2={r2}", *(["--mesh", str(path)] if mesh else []))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: quadric level constant must be finite\n"
    assert not path.exists()


def test_quadric_mesh_file(tmp_path, run_main):
    mesh = tmp_path / "out.obj"
    result = run_main("quadric", "--r2", "-1", "--mesh", str(mesh), "--samples", "6,9")
    assert result.returncode == 0
    lines = mesh.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6 * 9  # one-sheet surface: single branch
    for line in lines:
        parts = line.split()
        assert parts[0] == "v" and len(parts) == 4
        x, y, z = (float(p) for p in parts[1:])
        assert abs(x * x + y * y - 2.0 * z * z - 1.0) <= 1e-9 * 2.0


# SHA-256 of the mesh files; r2 = 1e-300 lies in the null band, so it meshes
# the cone. 64,1024 spans 16 (one sheet) or 32 (two branches) groups of four
# rows, 4000,3 five groups of 1366 rows and a short one.
# The angles come from quadrics._unit_circle, whose cos and sin keep the
# circle's symmetries exact; the writer prints each vertex as fmt_float does.
MESH_SHA256 = {
    ("0", "64,1024"): "9dfa1eb92c3e97608c8f7b84af00d7cd56faf8e35e60102c44f7544668d90914",
    ("2.5", "64,1024"): "9b9b06832932b10c0bb80b902e9b24aada0e687dfa23488e6d569687b00f775c",
    ("-1", "64,1024"): "fb2a3d814949d1917e12fbd29bab762baf64f762edc3f4019f537dcdf572cdc6",
    ("1e-300", "64,1024"): "9dfa1eb92c3e97608c8f7b84af00d7cd56faf8e35e60102c44f7544668d90914",
    ("0", "2,3"): "ccf725c45e06c8c5e05c2c127dc40b818ad2790b02bf579f07d907314acb409d",
    ("2.5", "2,3"): "2e70898b28abb8b7880ec84ac4e62da5d8f9afbbdcfd6a3f0e276b1444e743ed",
    ("-1", "2,3"): "9f889e66f083d89d0bcfaa448a2f0191f33350769f785b52c9f7e82d698cc933",
    ("1e-300", "2,3"): "ccf725c45e06c8c5e05c2c127dc40b818ad2790b02bf579f07d907314acb409d",
    # Meshes whose rows do not fill their last group, and an odd-length
    # one-sheet mesh (65 * 1001 vertices).
    ("0", "65,1000"): "cca27425a198c30912e2b42ce7fd19f5753ad5a4074b9c57a6f5c04f8ebf47da",
    ("2.5", "33,777"): "d038c12209706e25d036f4fe7e97112f3073d23136ab1e78f51a9452f1a58865",
    ("-1", "65,1001"): "9acf0852209b7fb15fdc8fd0d459945c4d119fe755ca9af1f3d7287f82dc9221",
    # A tall, thin two-sheet mesh (8000 rows of 3), an odd n_theta on the one
    # sheet, and a cone of subnormal extent (third field: --t-max), whose
    # products r * |cos| underflow to +-0 and print 0.
    ("2.5", "4000,3"): "2f3b0b7b35be588e49dabc04774c06a62a8fefbb20c399dda794cdbad279a866",
    ("-1", "301,9"): "8111aebad308262eb03632c841a73d966e78c67e2d82720b466f17771f1c28eb",
    ("0", "5,7", "5e-324"): "92742c1600dec832d61eac72936c56c7510469a1fad80ae2bdef50cc536e9006",
}


@pytest.mark.parametrize("key", MESH_SHA256, ids="-".join)
def test_quadric_mesh_golden_digest(tmp_path, run_main, key):
    r2, samples, *t_max = key
    mesh = tmp_path / "out.obj"
    result = run_main("quadric", f"--r2={r2}", "--mesh", str(mesh), "--samples", samples, *(f"--t-max={t}" for t in t_max))
    assert result.returncode == 0
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == MESH_SHA256[key]


# The writer's repr calls for a 64 x 1024 mesh: one per nonzero product of a
# distinct radius and a distinct magnitude of cos and sin (256 of them: the
# angle table keeps the quarter-turn symmetry exact), and one per row for z.
# The mirror branch shares its radii with the + branch (63 of them nonzero
# for the cone and the two sheets), the one sheet's rows i and 63 - i where
# they are bitwise equal (45 distinct radii). The count is exact, so a
# writer that formats more than it needs to fails here before any timing
# shows it.
@pytest.mark.parametrize(("r2", "calls"), [("0", 16_256), ("2.5", 16_256), ("-1", 11_584)])
def test_quadric_mesh_repr_calls(tmp_path, run_main, monkeypatch, r2, calls):
    counted = []

    def counting_repr(value):
        counted.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    result = run_main("quadric", f"--r2={r2}", "--mesh", str(tmp_path / "out.obj"), "--samples", "64,1024")
    assert result.returncode == 0
    assert len(counted) == calls


_FMT_EDGES = [0.0, -0.0, math.nan, float(np.copysign(math.nan, -1.0)), math.inf, -math.inf, 5e-324, -5e-324,
              1e16, -1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 2.0**53, 2.0**53 + 2]


@settings(max_examples=100, deadline=None)
@given(
    # the cone, levels in its null band, two sheets, one sheet
    r2=st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, -1e-10]) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
    # (n_s, n_theta): small; tall and thin, 1366 rows of 3 to a 4096-vertex
    # group; short and wide, one or a few rows to a group
    shape=st.tuples(st.integers(2, 40), st.integers(3, 40))
    | st.tuples(st.sampled_from([683, 684, 1366, 1367]), st.sampled_from([3, 4]))
    | st.tuples(st.integers(2, 3), st.sampled_from([1023, 1024, 4097])),
    # radii whose products underflow to 0 and print 0
    t_max=st.none() | st.floats(5e-324, 1e3) | st.sampled_from([5e-324, 1e-322, 2.2250738585072014e-308]),
)
def test_write_mesh_matches_fmt_float(r2, shape, t_max):
    spec, (n_s, n_theta) = QuadricSpec(r2), shape
    try:
        vertices = sample_quadric(spec, n_s, n_theta, t_max)
    except GeometryError:  # an extent too large for the level
        return
    out = io.StringIO()
    cli._write_mesh(out, *mesh_profile(spec, n_s, n_theta, t_max))
    expected = [f"v {fmt_float(x)} {fmt_float(y)} {fmt_float(z)}\n" for x, y, z in vertices.tolist()]
    assert out.getvalue().splitlines(True) == expected


@pytest.mark.parametrize("key", [("2.5", "33,777"), ("-1", "65,1001"), ("2.5", "4000,3")], ids="-".join)
def test_quadric_mesh_digest_with_little_room_to_keep(tmp_path, run_main, monkeypatch, key):
    # With room for only some rows' strings to wait for the later rows that
    # share them, the rest are formatted again; the file stays the same.
    monkeypatch.setattr(cli, "_MESH_KEPT", 3000)
    mesh = tmp_path / "out.obj"
    assert run_main("quadric", f"--r2={key[0]}", "--mesh", str(mesh), "--samples", key[1]).returncode == 0
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == MESH_SHA256[key]


@pytest.mark.parametrize(("key", "block"), [
    *((key, block) for key in [("-1", "301,9"), ("0", "5,7", "5e-324")] for block in (1, 5, 7)),
    (("2.5", "4000,3"), 5), (("2.5", "4000,3"), 7),
], ids=lambda p: "-".join(p) if isinstance(p, tuple) else str(p))
def test_quadric_mesh_digest_at_any_block_size(tmp_path, run_main, monkeypatch, key, block):
    # Groups of one row and of several (two or three rows of 3), rows of 9 or
    # 7 cut into one-vertex pieces or into pieces with a short last one: the
    # file stays the same.
    monkeypatch.setattr(cli, "_MESH_BLOCK", block)
    r2, samples, *t_max = key
    mesh = tmp_path / "out.obj"
    result = run_main("quadric", f"--r2={r2}", "--mesh", str(mesh), "--samples", samples, *(f"--t-max={t}" for t in t_max))
    assert result.returncode == 0
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == MESH_SHA256[key]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.one_of(st.floats(), st.integers(-(10**17), 10**17).map(float)), max_size=40))
def test_reprs_match_fmt_float(pool):
    values = pool + _FMT_EDGES + [-x for x in pool + _FMT_EDGES]
    expected = [fmt_float(x) for x in values]
    assert cli._reprs(np.array(values)) == expected
    assert cli._reprs(values) == expected


# n and the template are parameters, so a failing n shows in the test id.
# Shrinking pool and seed adds ~20 s to a failure at n = 4097 and tells no more.
@pytest.mark.parametrize("n", [0, 1, 2, 40, 4095, 4096, 4097])
@pytest.mark.parametrize("template", [
    "v {} {} {}\n",
    "row index={} x={} y={} z={} cos_phi={} phi_rad={} character={}\n",
], ids=["mesh", "report"])  # the batch report's line has 15 fields
@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(pool=st.lists(st.text(max_size=12), min_size=1, max_size=20), seed=st.integers(0, 2**32 - 1))
def test_lines_match_one_format_per_line(pool, n, seed, template):
    constants = template.split("{}")
    columns = np.random.default_rng(seed).integers(len(pool), size=(len(constants) - 1, n)).tolist()
    columns = [[pool[i] for i in column] for column in columns]
    fields = [field for pair in zip(constants, columns) for field in pair] + constants[-1:]
    # As lists of lines, so that a failure reports the first line that differs
    # rather than a diff of two texts of up to 4097 lines.
    assert cli._lines(*fields).splitlines(True) == "".join(map(template.format, *columns)).splitlines(True)


def test_quadric_bad_samples_exit_2(tmp_path, run_main):
    mesh = tmp_path / "out.obj"
    with_mesh = ["--mesh", str(mesh)]
    for flags in (
        [*with_mesh, "--samples", "1,2"],
        [*with_mesh, "--samples", "1,3"],
        [*with_mesh, "--t-max", "inf"],
        # checked without --mesh too
        ["--samples", "1,2"],
        ["--t-max", "inf"],
        ["--t-max", "-1"],
        ["--samples", "bad,x"],
    ):
        result = run_main("quadric", "--r2", "1", *flags)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error:" in result.stderr
        assert not mesh.exists()
    assert result.stderr == "error: --samples expects 'NS,NT', got 'bad,x'\n"


def _overcommit_refuses_huge_allocations():
    """True where an allocation beyond the machine's memory fails at once
    (Linux overcommit heuristic or strict mode) instead of being granted."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.parametrize(
    "samples",
    [
        # beyond the address space: rejected before numpy sees them (2**63
        # rows once raised IndexError, 2**63 - 1 columns wrote an empty mesh)
        "2,100000000000000000000",
        "9223372036854775808,3",
        "2,9223372036854775807",
        pytest.param("2,1000000000000", marks=pytest.mark.skipif(
            not _overcommit_refuses_huge_allocations(), reason="a 7 TiB allocation might be granted")),
        pytest.param("3000000000000,3", marks=pytest.mark.skipif(
            not _overcommit_refuses_huge_allocations(), reason="a 22 TiB allocation might be granted")),
    ],
)
def test_quadric_huge_samples_exit_2(tmp_path, run_main, samples):
    mesh = tmp_path / "out.obj"
    result = run_main("quadric", "--r2", "1", "--mesh", str(mesh), "--samples", samples)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: --samples {samples}: ")
    assert result.stderr.count("\n") == 1
    assert not mesh.exists()


def test_quadric_mesh_without_temp_dir(tmp_path, run_main, monkeypatch):
    # The mesh writer needs no temp file, also for a two-branch surface.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    mesh = tmp_path / "out.obj"
    for r2 in ("2.5", "-1"):
        result = run_main("quadric", "--r2", r2, "--mesh", str(mesh), "--samples", "4,8")
        assert (result.returncode, result.stderr) == (0, "")
        assert len(mesh.read_text(encoding="utf-8").splitlines()) == (8 if r2 == "2.5" else 4) * 8


def _mesh_write_peak(path, r2, samples):
    """Peak bytes tracemalloc sees while cli.main writes one mesh."""
    tracemalloc.start()
    try:
        assert cli.main(["quadric", f"--r2={r2}", "--mesh", str(path), "--samples", samples]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadric_mirror_branch_does_not_hold_its_lines(tmp_path, capsys):
    # Both meshes have 65,536 vertices. The two-sheet one writes its mirror
    # rows from the strings its + branch keeps, so its peak stays near the
    # one-sheet peak; holding the mirror text in memory reads ~1.6x. A first
    # mesh pays one-time costs (imports, argparse caches) untraced.
    assert cli.main(["quadric", "--r2=-1", "--mesh", str(tmp_path / "warm.obj"), "--samples", "4,8"]) == 0
    two_sheets = _mesh_write_peak(tmp_path / "two.obj", "2.5", "32,1024")
    one_sheet = _mesh_write_peak(tmp_path / "one.obj", "-1", "64,1024")
    assert two_sheets <= 1.2 * one_sheet, (two_sheets, one_sheet)


def test_quadric_unwritable_mesh_exits_2_before_output(tmp_path, run_cli):
    mesh = tmp_path / "missing" / "out.obj"
    result = run_cli("quadric", "--r2", "1", "--mesh", str(mesh))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert not mesh.exists()


@pytest.mark.parametrize("r2", ["1e-8", "-1e-8"])
def test_quadric_mesh_extent_overflow_exits_2(tmp_path, r2, run_main):
    # t_max / sqrt(|r2|) overflows; the mesh once held nan and inf vertices.
    mesh = tmp_path / "t.obj"
    result = run_main("quadric", f"--r2={r2}", "--t-max=1e308", "--mesh", str(mesh), "--samples", "2,3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: mesh extent 1e+308 is too large for r2 = {float(r2)!r}: extent/sqrt(|r2|) overflows\n"
    assert not mesh.exists()


def test_quadric_profile_overflow_exits_2(tmp_path, run_main):
    # t_max / sqrt(r2) is finite, but a*sinh(asinh(t_max/a)) rounds past the
    # largest float; the mesh once held inf and nan vertices and exited 0.
    mesh = tmp_path / "t.obj"
    for flags in (["--mesh", str(mesh)], []):
        result = run_main("quadric", "--r2", "1.2455470671072877", "--samples", "2,3",
                          "--t-max", "1.7976931348623157e308", *flags)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: mesh extent 1.7976931348623157e+308 is too large for "
            "r2 = 1.2455470671072877: the profile overflows\n"
        )
        assert not mesh.exists()


def test_flag_parse_errors_name_flag_form_and_text(tmp_path, run_main):
    mesh = str(tmp_path / "out.obj")
    for args, message in (
        (("classify", "--metric", "1,oops", "--vector", "1,0,0"), "--metric expects 'A,B', got '1,oops'"),
        (("classify", "--metric", "1,0", "--vector", "1,0"), "--vector expects 'X,Y,Z', got '1,0'"),
        (("quadric", "--r2", "1", "--mesh", mesh, "--samples", "4.5,8"), "--samples expects 'NS,NT', got '4.5,8'"),
    ):
        result = run_main(*args)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"


def test_negative_values_parse_like_the_equals_form(run_main):
    for command, *pairs in (
        ("classify", ("--metric", "1,0"), ("--vector", "-1,2,3")),
        ("classify", ("--metric", "1,0"), ("--vector", "-1e-3,2,3")),
        ("classify", ("--metric", "-1,0"), ("--vector", "1,2,3")),  # exits 2: not positive definite
        ("quadric", ("--r2", "-1e5")),
        ("quadric", ("--r2", "-1e-3")),
        ("conic", ("--cos-phi", "-2.5e-1"), ("--r2", "-1")),
        ("conic", ("--cos-phi", "-.5"), ("--r2", "-1e5")),
    ):
        spaced = run_main(command, *(word for pair in pairs for word in pair))
        equals = run_main(command, *(f"{flag}={value}" for flag, value in pairs))
        assert "expected one argument" not in spaced.stderr, pairs
        assert (spaced.returncode, spaced.stdout, spaced.stderr) == (
            equals.returncode, equals.stdout, equals.stderr), pairs
    help_text = run_main("quadric", "-h")
    assert help_text.returncode == 0
    assert help_text.stdout.startswith("usage: circgeo quadric")


# ---------------------------------------------------------------- conic


def test_conic_right_angle_hyperbola(run_main):
    result = run_main("conic", "--cos-phi", "0", "--r2", "1")
    assert result.returncode == 0
    assert "A=0 B=1 C=0" in result.stdout
    assert "discriminant=1" in result.stdout
    assert "class=hyperbola" in result.stdout
    assert "equation=xy = 0.5" in result.stdout
    assert "extension" not in result.stdout


def test_conic_circle(run_main):
    result = run_main("conic", "--cos-phi", "-0.5", "--r2", "-1")
    assert result.returncode == 0
    assert "class=circle" in result.stdout
    assert "equation=x^2+y^2 = 1" in result.stdout
    assert "radius=1" in result.stdout


def test_conic_extension_flag(run_main):
    result = run_main("conic", "--cos-phi", "-0.4", "--r2", "1")
    assert result.returncode == 0
    assert "class=no-real-points" in result.stdout
    assert "extension=true" in result.stdout


def test_conic_phi_input(run_main):
    result = run_main("conic", "--phi", "1.5707963267948966", "--r2", "1")
    assert result.returncode == 0
    assert "class=hyperbola" in result.stdout


@pytest.mark.parametrize("r2", ["1e308", "-1e308"])
def test_conic_degenerate_angle_r2_overflow_exits_2(r2, run_main):
    # -3 * r2 overflows; the equation once printed as ±inf or -inf.
    result = run_main("conic", "--cos-phi=-0.3333333333333333", f"--r2={r2}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: r2 = {float(r2)!r} ")


def test_conic_out_of_domain_phi_exits_2(run_main):
    assert run_main("conic", "--phi", "2.5", "--r2", "0").returncode == 2


def test_conic_requires_exactly_one_angle_flag(run_main):
    assert run_main("conic", "--r2", "1").returncode == 2
    assert (
        run_main("conic", "--phi", "1.0", "--cos-phi", "0.5", "--r2", "1").returncode == 2
    )


# ---------------------------------------------------------------- intersect / verify


def test_intersect_output(run_main):
    result = run_main("intersect")
    assert result.returncode == 0
    assert "x'^2+y'^2 = 0.6666666666666666" in result.stdout
    assert "z' = ±0.5773502691896258" in result.stdout


def test_verify_small_run_passes(run_main):
    result = run_main("verify", "--seed", "42", "--trials", "50")
    assert result.returncode == 0
    assert "result=pass" in result.stdout


def test_verify_failing_families_exit_1(run_main, monkeypatch):
    # Two mutants, each caught by one family: a wrong cone-sphere radius and
    # a doubled discriminant.
    import dataclasses

    from circgeo import oracle

    circle = oracle.cone_sphere_intersection()
    wrong_radius = dataclasses.replace(circle, radius_sq=0.7)
    monkeypatch.setattr(oracle, "cone_sphere_intersection", lambda: wrong_radius)
    discriminant = oracle.discriminant
    monkeypatch.setattr(oracle, "discriminant", lambda spec: 2.0 * discriminant(spec))
    result = run_main("verify", "--seed", "42", "--trials", "50")
    assert result.returncode == 1
    first, *lines, last = result.stdout.splitlines()
    assert (first, last) == ("seed=42 trials=50", "result=fail checks=28 failed=2")
    fields = [re.fullmatch(r"(ok  |FAIL) (\w+) +trials=\d+ max_residual=\S+ tol=\S+", line) for line in lines]
    assert all(fields), lines
    assert [m[2] for m in fields] == list(oracle.SUITE_NAMES)
    failed = [m[2] for m in fields if m[1] == "FAIL"]
    assert failed == ["cone_sphere_circles", "discriminant_closed_form"]


def test_verify_deterministic_bytes(run_cli):
    a = run_cli("verify", "--seed", "9", "--trials", "60")
    b = run_cli("verify", "--seed", "9", "--trials", "60")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_bad_trials_exits_2(run_main):
    assert run_main("verify", "--trials", "0").returncode == 2


@pytest.mark.parametrize(
    "trials",
    [
        # Neither count gets allocated: 21.3 PiB of draws, which the
        # overcommit policy refuses (numpy's MemoryError), and a count past
        # the address space (numpy's ValueError).
        pytest.param("1000000000000000", marks=pytest.mark.skipif(
            not _overcommit_refuses_huge_allocations(), reason="a 21 PiB allocation might be granted")),
        "100000000000000000000000",
    ],
)
def test_verify_huge_trials_exit_2(run_main, trials):
    result = run_main("verify", "--trials", trials)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: --trials {trials}: ")
    assert result.stderr.count("\n") == 1


def test_verify_negative_seed_exits_2(run_main):
    result = run_main("verify", "--seed", "-1", "--trials", "1")
    assert result.returncode == 2
    assert result.stderr == "error: seed must be >= 0, got -1\n"
