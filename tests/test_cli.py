"""Command-line surface: formats, exit codes, determinism.

Tests that read only stdout, stderr, the exit code, a report or a mesh file
call cli.main in this process; the rest start `python -m circgeo`, with numpy
RuntimeWarnings as errors, for what only a real process shows (the entry
point, no traceback, and an empty stdout before a failed --mesh).
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo import cli, fmt_float

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


# SHA-256 of the mesh files that the writer formatting one vertex at a time
# with fmt_float produced; r2 = 1e-300 lies in the null band, so it meshes
# the cone. 64,1024 spans 16 (one sheet) or 32 (two branches) 4096-row blocks.
MESH_SHA256 = {
    ("0", "64,1024"): "f181cd993379a37e9c587ab1645661f50522fe7289ee7aaacab856e793f86975",
    ("2.5", "64,1024"): "bd12ab6ccb2156917c091d65038367db063ccdfb240b237c2f9db4291d5fc71b",
    ("-1", "64,1024"): "cce77bfd9d95edd3baac70e12929ae40c5e8154ce503f44990ba910ec44a3c76",
    ("1e-300", "64,1024"): "f181cd993379a37e9c587ab1645661f50522fe7289ee7aaacab856e793f86975",
    ("0", "2,3"): "cb940e5109d67b91284008f871b5e1a5aed7ee8fe8389e6782b01f38961b005a",
    ("2.5", "2,3"): "2c51a410ec07f3e6bbef2980426d129ebc34655c4bd08fbd4637b31883d401c8",
    ("-1", "2,3"): "19a545968a0228cd664b1cfdc75fd835b82938ec7881a13a7c357fa636ef1493",
    ("1e-300", "2,3"): "cb940e5109d67b91284008f871b5e1a5aed7ee8fe8389e6782b01f38961b005a",
}


@pytest.mark.parametrize(("r2", "samples"), list(MESH_SHA256))
def test_quadric_mesh_golden_digest(tmp_path, run_main, r2, samples):
    mesh = tmp_path / "out.obj"
    result = run_main("quadric", f"--r2={r2}", "--mesh", str(mesh), "--samples", samples)
    assert result.returncode == 0
    assert hashlib.sha256(mesh.read_bytes()).hexdigest() == MESH_SHA256[r2, samples]


_FMT_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, -1e16,
              math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 2.0**53, 2.0**53 + 2]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.one_of(st.floats(), st.integers(-(10**17), 10**17).map(float)), max_size=40
    ),
    n=st.sampled_from([0, 1, 4095, 4096, 4097]) | st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_fmt_column_matches_fmt_float(pool, n, seed):
    # Values drawn with repeats from a small pool; the column starts with
    # 0.0 and -0.0, so both zeros share np.unique's one slot.
    column = np.random.default_rng(seed).choice(np.array(pool + _FMT_EDGES), size=n)
    column[:2] = [0.0, -0.0][:n]
    assert cli._fmt_column(column) == [fmt_float(x) for x in column.tolist()]


def test_quadric_bad_samples_exit_2(tmp_path, run_main):
    mesh = tmp_path / "out.obj"
    with_mesh = ["--mesh", str(mesh)]
    for flags in (
        [*with_mesh, "--samples", "1,2"],
        [*with_mesh, "--samples", "1,3"],
        [*with_mesh, "--t-max", "inf"],
        ["--samples", "bad,x"],  # parsed without --mesh too
    ):
        result = run_main("quadric", "--r2", "1", *flags)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error:" in result.stderr
        assert not mesh.exists()
    assert result.stderr == "error: --samples expects 'NS,NT', got 'bad,x'\n"


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


def test_verify_deterministic_bytes(run_cli):
    a = run_cli("verify", "--seed", "9", "--trials", "60")
    b = run_cli("verify", "--seed", "9", "--trials", "60")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_bad_trials_exits_2(run_main):
    assert run_main("verify", "--trials", "0").returncode == 2


def test_verify_negative_seed_exits_2(run_main):
    result = run_main("verify", "--seed", "-1", "--trials", "1")
    assert result.returncode == 2
    assert result.stderr == "error: seed must be >= 0, got -1\n"
