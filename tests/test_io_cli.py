"""Tests for the file formats and the command line interface."""

import argparse
import math

import numpy as np
import pytest

from uniformizer import energy, io_cli, optimize, surfaces
from uniformizer.errors import (
    FormatError,
    NonTriangleFace,
    OpenMesh,
    UniformizerError,
)
from uniformizer.penner import ConeAngleTarget, DecoratedMetric


TETRA_OBJ = """\
# regular tetrahedron
v 1 1 1
v 1 -1 -1
v -1 1 -1
v -1 -1 1
f 1 2 3
f 1 3 4
f 1 4 2
f 2 4 3
"""


def write_tetra_obj(tmp_path):
    path = tmp_path / "tetra.obj"
    path.write_text(TETRA_OBJ)
    return str(path)


def test_surface_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    metric = surfaces.random_sphere(9, rng)
    n = metric.triangulation.num_vertices
    theta = rng.uniform(1, 7, n)
    path = str(tmp_path / "a.surf")
    text1 = io_cli.write_surface(path, metric, theta=theta,
                                 labels=["v%d" % v for v in range(n)])
    sf = io_cli.read_surface(path)
    assert sf.triangulation.num_triangles == metric.triangulation.num_triangles
    np.testing.assert_array_equal(sf.metric.lam, metric.lam)
    np.testing.assert_array_equal(sf.theta, theta)
    assert sf.labels == ["v%d" % v for v in range(n)]
    path2 = str(tmp_path / "b.surf")
    text2 = io_cli.write_surface(path2, sf.metric, theta=sf.theta,
                                 labels=sf.labels)
    assert text1 == text2


def test_surface_lengths_section(tmp_path):
    path = tmp_path / "l.surf"
    path.write_text(
        "uniformizer-surface 1\n"
        "triangles 2\n"
        "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"
        "lengths\n1\n1\n1.4142135623730951\n")
    sf = io_cli.read_surface(str(path))
    np.testing.assert_allclose(sf.metric.lam,
                               [0.0, 0.0, 2 * math.log(math.sqrt(2.0))],
                               atol=1e-15)


def test_surface_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.surf"
    path.write_text(
        "uniformizer-surface 1\n\n# a comment\n"
        "triangles 2\n"
        "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"
        "lambda\n0\n0\n0\n")
    sf = io_cli.read_surface(str(path))
    assert sf.triangulation.genus == 1


@pytest.mark.parametrize("text", [
    "not-the-format\n",
    "uniformizer-surface 1\ntriangles x\n",
    "uniformizer-surface 1\ntriangles 2\nglue 0 0 1 1\n",
    ("uniformizer-surface 1\ntriangles 2\n"
     "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"),
    ("uniformizer-surface 1\ntriangles 2\n"
     "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\nlambda\n0\n0\n"),
    ("uniformizer-surface 1\ntriangles 2\n"
     "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\nlengths\n1\n-1\n1\n"),
    ("uniformizer-surface 1\ntriangles 2\n"
     "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\nwhatever\n"),
])
def test_surface_malformed_rejected(tmp_path, text):
    path = tmp_path / "bad.surf"
    path.write_text(text)
    with pytest.raises((UniformizerError, ValueError)):
        io_cli.read_surface(str(path))


def test_ingest_obj_tetrahedron(tmp_path):
    path = write_tetra_obj(tmp_path)
    tri, metric = io_cli.ingest_obj(path)
    assert tri.num_vertices == 4
    assert tri.num_edges == 6
    assert tri.genus == 0
    np.testing.assert_allclose(metric.lengths, 2.0 * math.sqrt(2.0),
                               rtol=1e-12)


def test_ingest_obj_rejects_quad(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(NonTriangleFace):
        io_cli.ingest_obj(str(path))


def test_ingest_obj_rejects_open_mesh(tmp_path):
    path = tmp_path / "open.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(OpenMesh):
        io_cli.ingest_obj(str(path))


@pytest.mark.parametrize("fourth, last_line", [
    ("9", "v -1 -1 1"),
    # Index 0 would read as the last vertex, 4: the tetrahedron again.
    ("0", "v -1 -1 1"),
    # Relative index -1 is vertex 4 in OBJ, but would read as vertex 3.
    ("-1", "v -1 -1 1"),
    ("4", "v -1 -1"),
], ids=["past_last", "zero", "relative", "two_coordinates"])
def test_check_rejects_malformed_obj(tmp_path, capsys, fourth, last_line):
    # The closed tetrahedron, its faces naming vertex 4 as fourth.
    lines = [ln.replace("4", fourth) if ln.startswith("f") else ln
             for ln in TETRA_OBJ.replace("v -1 -1 1", last_line).split("\n")]
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError):
        io_cli.ingest_obj(str(path))
    assert io_cli.cli_dispatch(["check", str(path)]) == 2
    assert "FormatError" in capsys.readouterr().err


def _pinched_obj(tmp_path):
    """An OBJ of a random sphere in which two vertices whose stars share
    no vertex take one label: a pinched, non-manifold vertex."""
    rng = np.random.default_rng(9)
    faces = surfaces.random_sphere(30, rng).triangulation.corner_vertex
    faces = faces.reshape(-1, 3)
    star = [set(faces[(faces == v).any(axis=1)].ravel()) for v in range(30)]
    far = next(v for v in range(30) if not star[v] & star[0])
    faces = np.where(faces == far, 0, faces)
    lines = ["v %r %r %r" % tuple(p)
             for p in rng.normal(size=(30, 3)).tolist()]
    lines += ["f %d %d %d" % tuple(f) for f in (faces + 1).tolist()]
    path = tmp_path / "pinched.obj"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_ingest_obj_rejects_pinched_vertex(tmp_path, capsys):
    path = _pinched_obj(tmp_path)
    with pytest.raises(OpenMesh, match="label 0 is on 2 surface vertices"):
        io_cli.ingest_obj(path)
    assert io_cli.cli_dispatch(["check", path]) == 2
    assert "OpenMesh" in capsys.readouterr().err


def test_write_report(tmp_path):
    path = str(tmp_path / "r.txt")
    io_cli.write_report(path, [("status", "Converged"),
                               ("energy", 1.25)])
    text = open(path).read()
    assert "status: Converged" in text
    assert "energy: 1.25" in text


def test_cli_check(tmp_path, capsys):
    path = str(tmp_path / "t.surf")
    io_cli.write_surface(path, surfaces.square_torus())
    assert io_cli.cli_dispatch(["check", path]) == 0
    out = capsys.readouterr().out
    assert "genus: 1" in out
    assert "delaunay: ok" in out


def test_cli_check_prints_the_target_defect_without_evaluating(
        tmp_path, capsys, monkeypatch):
    evaluated = []
    monkeypatch.setattr(energy, "_evaluate",
                        lambda *args: evaluated.append(args))
    metric = surfaces.octahedron_sphere()
    theta = np.full(6, 4.0 * math.pi / 3.0)
    theta[0] += 2e-9
    defect = optimize.gauss_bonnet_defect(metric, ConeAngleTarget(theta))
    path = str(tmp_path / "o.surf")
    io_cli.write_surface(path, metric, theta=theta)
    assert io_cli.cli_dispatch(["check", path]) == 0
    assert ("gauss-bonnet defect of the target = %.6e (chi=2)"
            % defect) in capsys.readouterr().out
    # Without a theta section the target is 2 pi at every vertex, which
    # misses Gauss-Bonnet by 2 pi chi.
    io_cli.write_surface(path, metric)
    assert io_cli.cli_dispatch(["check", path]) == 0
    assert ("gauss-bonnet defect of the target = %.6e (chi=2)"
            % (4.0 * math.pi)) in capsys.readouterr().out
    assert evaluated == []


def test_cli_check_rejects_disconnected_surface(tmp_path, capsys):
    # Two disjoint one-vertex tori in one file.
    path = tmp_path / "two.surf"
    path.write_text(
        "uniformizer-surface 1\n"
        "triangles 4\n"
        "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"
        "glue 2 0 3 1\nglue 2 1 3 2\nglue 2 2 3 0\n"
        "lambda\n0\n0\n0\n0\n0\n0\n")
    assert io_cli.cli_dispatch(["check", str(path)]) == 2
    assert "connected components" in capsys.readouterr().err


def test_cli_delaunay_writes_output(tmp_path, capsys):
    rng = np.random.default_rng(62)
    metric = surfaces.random_sphere(8, rng)
    src = str(tmp_path / "in.surf")
    dst = str(tmp_path / "out.surf")
    io_cli.write_surface(src, metric)
    assert io_cli.cli_dispatch(["delaunay", src, "--out", dst]) == 0
    sf = io_cli.read_surface(dst)
    from uniformizer.delaunay import check_delaunay
    assert check_delaunay(sf.metric).ok


def test_cli_distance(tmp_path, capsys):
    path = str(tmp_path / "o.surf")
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    assert io_cli.cli_dispatch(["distance", path,
                                "--from", "5", "--to", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.log(4.0), abs=1e-10)


def test_cli_distance_same_vertex_exit_2(tmp_path):
    path = str(tmp_path / "o.surf")
    io_cli.write_surface(path, surfaces.three_vertex_sphere())
    assert io_cli.cli_dispatch(["distance", path,
                                "--from", "1", "--to", "1"]) == 2


def test_cli_uniformize_sphere_obj_output(tmp_path, capsys):
    obj_in = write_tetra_obj(tmp_path)
    obj_out = str(tmp_path / "out.obj")
    report = str(tmp_path / "report.txt")
    rc = io_cli.cli_dispatch(["uniformize-sphere", obj_in, "--vinf", "0",
                              "--out-obj", obj_out, "--report", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kind: InscribedPolyhedron" in out
    verts = []
    for ln in open(obj_out):
        parts = ln.split()
        if parts and parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
    assert len(verts) == 4
    for p in verts:
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-9)
    assert "status: Converged" in open(report).read()


def test_cli_uniformize_torus(tmp_path, capsys):
    path = str(tmp_path / "t.surf")
    io_cli.write_surface(path, surfaces.square_torus())
    assert io_cli.cli_dispatch(["uniformize-torus", path]) == 0
    out = capsys.readouterr().out
    tau = [float(x) for x in out.splitlines()[0].split()[1:]]
    assert tau[0] == pytest.approx(0.0, abs=1e-8)
    assert tau[1] == pytest.approx(1.0, abs=1e-8)


def test_cli_prescribe_angles_uniform(tmp_path, capsys):
    rng = np.random.default_rng(63)
    metric = surfaces.random_torus(3, rng, lam_range=(-0.5, 0.5))
    path = str(tmp_path / "t.surf")
    out = str(tmp_path / "flat.surf")
    io_cli.write_surface(path, metric)
    assert io_cli.cli_dispatch(["prescribe-angles", path,
                                "--theta", "uniform", "--out", out]) == 0
    sf = io_cli.read_surface(out)
    np.testing.assert_allclose(sf.theta, 2.0 * math.pi, atol=1e-8)


def test_cli_prescribe_angles_short_theta_file_exit_2(tmp_path, capsys):
    # A theta file with one angle too few is a validation error that
    # names both counts, not a numpy shape error.
    path = str(tmp_path / "o.surf")
    theta = tmp_path / "theta.txt"
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    theta.write_text("%r\n" % (2.0 * math.pi * 4 / 5) * 5)
    assert io_cli.cli_dispatch(["prescribe-angles", path,
                                "--theta", str(theta)]) == 2
    captured = capsys.readouterr()
    assert "WrongLength" in captured.err
    assert "cone angles of shape (5,) for 6 vertices" in captured.err


def test_cli_prescribe_angles_off_gauss_bonnet_exit_2(tmp_path, capsys):
    # Off by more than the gradient tolerance: rejected before the solve,
    # where it used to run 500 iterations and exit 3.
    path = str(tmp_path / "o.surf")
    theta = tmp_path / "theta.txt"
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    values = [4.0 * math.pi / 3.0] * 6
    values[0] += 2e-9
    theta.write_text("".join("%r\n" % x for x in values))
    assert io_cli.cli_dispatch(["prescribe-angles", path,
                                "--theta", str(theta)]) == 2
    err = capsys.readouterr().err
    assert "GaussBonnetViolated" in err and "(bound 1e-10)" in err


@pytest.mark.parametrize("command", [
    ["uniformize-sphere", "--vinf", "0"], ["uniformize-torus"],
    ["prescribe-angles", "--theta", "uniform"]])
def test_cli_nan_tolerance_exit_2(tmp_path, capsys, command):
    path = str(tmp_path / "s.surf")
    io_cli.write_surface(path, surfaces.octahedron_sphere()
                         if command[0] == "uniformize-sphere"
                         else surfaces.square_torus())
    assert io_cli.cli_dispatch(command[:1] + [path] + command[1:]
                               + ["--tol", "nan"]) == 2
    assert "must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, tol", [
    (["uniformize-sphere", "--vinf", "0"], optimize.PUNCTURED_TOL),
    (["uniformize-torus"], optimize.CONFORMAL_TOL),
    (["prescribe-angles", "--theta", "uniform"], optimize.CONFORMAL_TOL)])
def test_cli_solver_defaults_are_the_solvers(command, tol):
    args = io_cli._build_parser().parse_args(
        command[:1] + ["s.surf"] + command[1:])
    assert (args.tol, args.max_iter) == (tol, optimize.MAX_ITERATIONS)


def test_cli_builds_its_parser_once(monkeypatch):
    assert io_cli.cli_dispatch(["no-such-command"]) == 1
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert io_cli.cli_dispatch(["no-such-command"]) == 1
    assert io_cli.cli_dispatch(["check", "/nonexistent/file.surf"]) == 2
    assert built == []


def test_cli_energy(tmp_path, capsys):
    path = str(tmp_path / "t.surf")
    ufile = str(tmp_path / "u.txt")
    io_cli.write_surface(path, surfaces.square_torus())
    open(ufile, "w").write("0\n")
    assert io_cli.cli_dispatch(["energy", path, "--u", ufile]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value: ")
    grad = [float(x) for x in out.splitlines()[1].split()[1:]]
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


@pytest.mark.parametrize("vinf", ["99", "-7"])
def test_cli_energy_unknown_vinf_exit_2(tmp_path, capsys, vinf):
    path = str(tmp_path / "o.surf")
    ufile = str(tmp_path / "u.txt")
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    open(ufile, "w").write("0\n" * 6)
    assert io_cli.cli_dispatch(["energy", path, "--u", ufile,
                                "--vinf", vinf]) == 2
    assert "UnknownVertex" in capsys.readouterr().err


@pytest.mark.parametrize("vinf", [[], ["--vinf", "0"]],
                         ids=["conformal", "punctured"])
def test_cli_energy_wrong_length_u_exit_2(tmp_path, capsys, vinf):
    path = str(tmp_path / "o.surf")
    ufile = str(tmp_path / "u.txt")
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    open(ufile, "w").write("0\n" * 5)
    assert io_cli.cli_dispatch(["energy", path, "--u", ufile] + vinf) == 2
    assert "WrongLength: u of shape (5,) for 6 vertices" \
        in capsys.readouterr().err


def test_cli_delaunay_undecorated(tmp_path, capsys):
    path = str(tmp_path / "o.surf")
    io_cli.write_surface(path, surfaces.octahedron_sphere())
    assert io_cli.cli_dispatch(["delaunay", path, "--adjusted",
                                "--undecorated", "0,5"]) == 0
    assert capsys.readouterr().out.startswith("flips: ")
    for ids in ("99", "-1", "0,6"):
        assert io_cli.cli_dispatch(["delaunay", path,
                                    "--undecorated", ids]) == 2
        assert "UnknownVertex" in capsys.readouterr().err


def test_cli_arc_overflow_exit_2(tmp_path, capsys):
    # lambda = 3000 on one edge overflows a horocyclic arc; the CLI must
    # report an error, not leak an OverflowError traceback.
    base = surfaces.tetrahedron_sphere()
    lam = base.lam.copy()
    lam[0] = 3000.0
    path = str(tmp_path / "big.surf")
    io_cli.write_surface(path, DecoratedMetric(base.triangulation, lam))
    for command in ("check", "delaunay"):
        assert io_cli.cli_dispatch([command, path]) == 2
        captured = capsys.readouterr()
        assert "ArcOverflow" in captured.err
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("error", [ZeroDivisionError, FloatingPointError])
def test_cli_numeric_error_exit_2(tmp_path, capsys, monkeypatch, error):
    # A raw numeric error from any command is reported on one line with
    # exit code 2, without a traceback.
    def fail(args):
        raise error("numbers went wrong")

    monkeypatch.setitem(io_cli._COMMANDS, "check", fail)
    path = str(tmp_path / "t.surf")
    io_cli.write_surface(path, surfaces.tetrahedron_sphere())
    assert io_cli.cli_dispatch(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s: numbers went wrong\n" % error.__name__
    assert "Traceback" not in captured.out + captured.err


def test_cli_usage_errors_exit_1():
    assert io_cli.cli_dispatch(["no-such-command"]) == 1
    assert io_cli.cli_dispatch(["distance", "x.surf", "--from", "0"]) == 1


def test_cli_missing_file_exit_2():
    assert io_cli.cli_dispatch(["check", "/nonexistent/file.surf"]) == 2


def test_cli_solver_failure_exit_3(tmp_path):
    rng = np.random.default_rng(64)
    metric = surfaces.random_sphere(8, rng)
    path = str(tmp_path / "s.surf")
    io_cli.write_surface(path, metric)
    rc = io_cli.cli_dispatch(["uniformize-sphere", path, "--vinf", "0",
                              "--max-iter", "1"])
    assert rc == 3
