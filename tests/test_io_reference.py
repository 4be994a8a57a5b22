"""Surface files against the line-by-line references of reference_io:
the bulk writer must give byte for byte the same text, the bulk reader
bitwise the same tables, lambdas, angles and labels, and on corrupted
files the same exception class and message; the report lines must be
the same strings."""

import math
import os
import tempfile
from collections import namedtuple

import numpy as np
from hypothesis import event, given, settings, strategies as st

import reference_io as ref
from uniformizer import delaunay, io_cli, surfaces
from uniformizer.optimize import SolveReport
from uniformizer.penner import PartialDecoration

GENERATORS = {0: surfaces.random_sphere, 1: surfaces.random_torus,
              2: surfaces.random_genus2}
Raised = namedtuple("Raised", "kind message")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class and message below
        return Raised(type(exc), str(exc))


def _surface(genus, n, rng, lam_range, flipped):
    metric = GENERATORS[genus](max(n, 4 if genus == 0 else 1), rng,
                               lam_range)
    if flipped:  # edges whose sides are listed after a flip
        nv = metric.triangulation.num_vertices
        metric = delaunay.make_delaunay(
            metric, PartialDecoration.zeros(nv)).metric
    return metric


def _extras(metric, rng, with_theta, with_labels):
    nv = metric.triangulation.num_vertices
    theta = None
    if with_theta:
        theta = rng.uniform(0.1, 12.0, nv) * 10.0 ** rng.integers(-300, 300,
                                                                  nv)
        theta[rng.random(nv) < 0.1] = rng.choice([np.inf, -np.inf, np.nan,
                                                  0.0, -0.0])
    labels = None
    if with_labels:
        labels = ["v%d" % v if v % 3 else v for v in
                  rng.permutation(nv).tolist()]
    return theta, labels


def _write_both(metric, theta, labels):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.surf"), os.path.join(tmp, "b.surf")
        text = io_cli.write_surface(a, metric, theta, labels)
        want = ref.write_surface(b, metric, theta, labels)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    return text, want


def _lengths(lines, rng):
    """The lambda section of a file's lines rewritten as lengths."""
    start = lines.index("lambda")
    for i in range(start + 1, len(lines)):
        if lines[i] in ("theta", "labels"):
            break
        lines[i] = "%.17g" % math.exp(float(lines[i]) / 2.0)
    lines[start] = "lengths"
    return lines


def _decorate(lines, rng):
    """Comments, blank lines and surrounding blanks, which both readers
    must skip."""
    out = []
    for ln in lines:
        r = rng.random()
        if r < 0.05:
            out.append("# comment %s" % ln)
        elif r < 0.1:
            out.append("   ")
        out.append(" \t" + ln + "  " if rng.random() < 0.1 else ln)
    return out


def _corrupt(lines, kind, rng):
    lines = list(lines)
    glue = [i for i, ln in enumerate(lines) if ln.startswith("glue ")]
    start = next((k for k, ln in enumerate(lines)
                  if ln in ("lambda", "lengths")), len(lines) - 1)
    values = list(range(start + 1, len(lines)))
    i = int(rng.choice(glue)) if glue else len(lines) - 1
    v = int(rng.choice(values)) if values else len(lines) - 1
    words = lines[i].split()
    w = int(rng.integers(1, len(words))) if len(words) > 1 else 0
    if kind == "short":
        lines[i] = " ".join(words[:-1])
    elif kind == "long":
        lines[i] = lines[i] + " " + str(rng.integers(3))
    elif kind == "nonint":
        words[w] = str(rng.choice(["x", "1.5", "0x1", "glue", "-"]))
        lines[i] = " ".join(words)
    elif kind == "huge":
        words[w] = "99999999999999999999"
        lines[i] = " ".join(words)
    elif kind == "side":
        words[w] = str(rng.choice([3, -1, 7]))
        lines[i] = " ".join(words)
    elif kind == "dupglue":
        lines.insert(i, lines[i])
    elif kind == "dropglue":
        del lines[i]
    elif kind == "count" and glue:
        lines[1] = "triangles %d" % (len(glue) * 2 // 3
                                     + int(rng.choice([-1, 1])))
    elif kind == "header" and len(lines) > 1:
        lines[1] = str(rng.choice(["triangles", "triangles x",
                                   "triangle 2", "triangles 2 2"]))
    elif kind == "format":
        lines[0] = "uniformizer-surface 2"
    elif kind == "nofloat":
        lines[v] = str(rng.choice(["abc", "1,5", "1.0 2.0", "nan(1)"]))
    elif kind == "nonpositive":
        lines[v] = str(rng.choice(["0", "-1", "-0"]))
    elif kind == "missing":
        del lines[v]
    elif kind == "extra":
        lines.insert(v, "0.5")
    elif kind == "unknown":
        lines.insert(int(rng.integers(start, len(lines) + 1)), "whatever")
    elif kind == "nolambda":
        end = next((k for k in range(start + 1, len(lines))
                    if lines[k] in ("theta", "labels")), len(lines))
        del lines[start:end]
    elif kind == "twice":
        lines += ["lengths"] + ["1"] * len(glue)
    elif kind == "truncate":
        del lines[int(rng.integers(len(lines))):]
    return lines


FAULTS = ["short", "long", "nonint", "huge", "side", "dupglue", "dropglue",
          "count", "header", "format", "nofloat", "nonpositive", "missing",
          "extra", "unknown", "nolambda", "twice", "truncate"]


def _read_both(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.surf")
        with open(path, "w") as fh:
            fh.write(text)
        return (_outcome(io_cli.read_surface, path),
                _outcome(ref.read_surface, path))


def _assert_same_surface(got, want):
    tri, expected = got.triangulation, want.triangulation
    assert tri.num_vertices == expected.num_vertices
    for name in ("glue", "side_edge", "corner_vertex", "edge_sides"):
        a, b = getattr(tri, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.metric.lam.tobytes() == want.metric.lam.tobytes()
    if want.theta is None:
        assert got.theta is None
    else:
        assert got.theta.dtype == want.theta.dtype
        assert got.theta.tobytes() == want.theta.tobytes()
    assert got.labels == want.labels


@settings(max_examples=200, deadline=None)
@given(genus=st.sampled_from([0, 1, 2]), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16),
       lam_range=st.sampled_from([(-2.0, 2.0), (-12.0, 12.0)]),
       flipped=st.booleans(), with_theta=st.booleans(),
       with_labels=st.booleans(), lengths=st.booleans(),
       decorated=st.booleans())
def test_surface_files_match_reference(genus, n, seed, lam_range, flipped,
                                       with_theta, with_labels, lengths,
                                       decorated):
    rng = np.random.default_rng(seed)
    metric = _surface(genus, n, rng, lam_range, flipped)
    theta, labels = _extras(metric, rng, with_theta, with_labels)
    text, want_text = _write_both(metric, theta, labels)
    assert text == want_text
    lines = text.splitlines()
    if lengths:
        lines = _lengths(lines, rng)
    if decorated:
        lines = _decorate(lines, rng)
    got, want = _read_both("\n".join(lines) + "\n")
    assert not isinstance(want, Raised), want
    _assert_same_surface(got, want)
    if not (lengths or decorated or flipped):
        # Read back and written again, the text is the same (after flips
        # the edges are renumbered in glue line order when read).
        assert _write_both(got.metric, got.theta, got.labels)[0] == text


@settings(max_examples=400, deadline=None)
@given(genus=st.sampled_from([0, 1, 2]), n=st.integers(1, 12),
       seed=st.integers(0, 2 ** 16), with_theta=st.booleans(),
       with_labels=st.booleans(), lengths=st.booleans(),
       faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3))
def test_corrupted_surface_files_match_reference(genus, n, seed, with_theta,
                                                 with_labels, lengths,
                                                 faults):
    rng = np.random.default_rng(seed)
    metric = _surface(genus, n, rng, (-2.0, 2.0), False)
    theta, labels = _extras(metric, rng, with_theta, with_labels)
    lines = io_cli.write_surface(os.devnull, metric, theta,
                                 labels).splitlines()
    if lengths:
        lines = _lengths(lines, rng)
    for kind in faults:
        event(kind)
        if lines:
            lines = _corrupt(lines, kind, rng)
    got, want = _read_both("\n".join(lines) + "\n")
    if isinstance(want, Raised):
        event("raises %s" % want.kind.__name__)
        assert got == want
    else:
        event("reads")
        _assert_same_surface(got, want)


HEAD = "uniformizer-surface 1\ntriangles 2\n"
GLUE = "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"


def test_corrupted_glue_blocks_match_reference():
    # Glue blocks whose words line up in fives although a line is short:
    # the first bad line decides, as it does line by line.
    tail = "lambda\n0\n0\n0\n"
    for block in ["glue 0 0 1\nglue glue 0 1 1 2\nglue 0 2 1 0\n",
                  "glue 0 0 1 1\nglue 0 glue 1 2\nglue 0 2 1 0\n",
                  "glue 0 x 1 1\nglue 0 1 1\nglue 0 2 1 0\n",
                  "glue 0 0 1 1 1\nglue 0 1 1\nglue 0 2 1 0\n",
                  "glue 99999999999999999999 0 1 1\nglue 0 1 1\n",
                  "glue 99999999999999999999 0 1 1\nglue 0 x 1 2\n",
                  "glue 0 0 1 1\nglue 0 1 1 2\nglue 0 2 1 0\n"
                  "glue\t0 2 1 0\n",
                  "glue 0 0 1 1\nglue 0 1 1 2\n#glue 0 2 1 0\nglue 0 2 1 0\n",
                  ""]:
        got, want = _read_both(HEAD + block + tail)
        if isinstance(want, Raised):
            assert got == want, block
        else:
            _assert_same_surface(got, want)


def test_short_value_sections_match_reference():
    # A value that is not a number is reported before the missing ones.
    for values in ["lambda\n0\nx\n", "lambda\nx\n", "lambda\n0\n0\n",
                   "lambda\n0\n0\n0\ntheta\n",
                   "lambda\n0\n0\n0\ntheta\ny\n",
                   "lambda\n0\n0\n0\nlabels\n", "lengths\n1\n-1\n"]:
        got, want = _read_both(HEAD + GLUE + values)
        assert isinstance(want, Raised)
        assert got == want, values


def test_lengths_take_the_log_of_the_reference():
    # Lengths whose np.log differs from math.log in the last bit, where
    # this numpy has any: lambda must still be bitwise the reference's.
    x = np.exp(np.random.default_rng(0).uniform(-30.0, 30.0, 100000))
    odd = x[np.log(x) != np.array(list(map(math.log, x.tolist())))]
    lengths = np.concatenate([odd, [1.0, 2.0, 3.0]])[:3]
    got, want = _read_both(HEAD + GLUE + "lengths\n"
                           + "".join("%r\n" % v for v in lengths.tolist()))
    _assert_same_surface(got, want)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2 ** 16),
       bounded=st.booleans())
def test_report_lines_match_reference(n, seed, bounded):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    u[rng.random(n) < 0.2] = rng.choice([np.inf, -np.inf, np.nan])
    residuals = ({"stationarity": rng.random(), "complementarity": 0.0,
                  "feasibility": np.float64(rng.random())} if bounded
                 else {"grad_inf": rng.random()})
    report = SolveReport(u, int(rng.integers(50)), int(rng.integers(1000)),
                         sorted(rng.choice(max(n, 1), min(n, 3),
                                           replace=False).tolist()),
                         residuals, "Converged", energy=float(rng.normal()),
                         seconds=float(rng.random()))
    assert io_cli._report_lines(report) == ref.report_lines(report)


def test_report_lines_of_a_solve_match_reference():
    metric = surfaces.random_sphere(20, np.random.default_rng(3))
    from uniformizer.optimize import minimize_punctured_energy
    report = minimize_punctured_energy(metric, 0)
    assert not np.isfinite(report.u_final).all()
    assert io_cli._report_lines(report) == ref.report_lines(report)
