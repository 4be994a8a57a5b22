"""File formats and the command line interface.

The canonical text format (SurfaceFile) stores the gluing list, so it
can encode self-glued tori and multi-edges that vertex-indexed face
lists cannot.  Grammar (blank lines and '#' comments are ignored):

    uniformizer-surface 1
    triangles <T>
    glue <t1> <s1> <t2> <s2>     (one line per edge)
    lambda                        (or: lengths)
    <value>                       (one line per edge, in glue order)
    theta                         (optional; one line per vertex)
    <value>
    labels                        (optional; one line per vertex)
    <string>

Edges are indexed by the order of the glue lines; lengths are converted
on ingestion via lambda = 2 log(length).  Numbers are emitted with 17
significant digits so that emit -> ingest -> emit is bitwise stable.

Files are converted a block at a time: the glue block is one split and
one integer conversion, each value section one float conversion, and
each block is written with one format.  Errors are those of a
line-by-line parse, raised at the same first bad line; a token that is
not a number raises FormatError, in the OBJ reader and the CLI too.
"""

import argparse
import functools
import itertools
import logging
import math
import sys

import numpy as np

from . import delaunay as _delaunay
from . import energy as _energy
from . import mesh_core
from . import optimize as _optimize
from . import realize as _realize
from .errors import (
    UniformizerError,
    SolverFailure,
    FormatError,
    NonTriangleFace,
    OpenMesh,
    ZeroLengthEdge,
)
from .penner import ConeAngleTarget, DecoratedMetric, PartialDecoration

FORMAT_LINE = "uniformizer-surface 1"


class SurfaceFile:
    """Parsed contents of the canonical text format."""

    def __init__(self, triangulation, metric, theta=None, labels=None):
        self.triangulation = triangulation
        self.metric = metric
        self.theta = theta
        self.labels = labels


def _fmt(x):
    return "%.17g" % x


def _values(x):
    """One "%.17g" line per value of x."""
    x = np.asarray(x, dtype=float).tolist()
    return ("%.17g\n" * len(x)) % tuple(x)


def write_surface(path, metric, theta=None, labels=None):
    tri = metric.triangulation
    sides = tri.edge_sides
    glue = np.stack([sides // 3, sides % 3], axis=-1).ravel().tolist()
    parts = [FORMAT_LINE + "\n", "triangles %d\n" % tri.num_triangles,
             ("glue %d %d %d %d\n" * tri.num_edges) % tuple(glue),
             "lambda\n", _values(metric.lam)]
    if theta is not None:
        parts += ["theta\n", _values(theta)]
    if labels is not None:
        parts += ["labels\n"] + ["%s\n" % (s,) for s in labels]
    text = "".join(parts)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _glue_records(block):
    """The (E, 2, 2) int array of a block of glue lines.  Raises at the
    first line, in file order, that is not 'glue' and four integers, as
    parsing line by line would."""
    words = " ".join(block).split()
    # Each line starts with 'glue'; if 'glue' occurs once per line, at
    # every fifth word, then every line has exactly five words.
    if (len(words) != 5 * len(block) or words.count("glue") != len(block)
            or words[::5].count("glue") != len(block)):
        for ln in block:
            parts = ln.split()
            if len(parts) != 5:
                raise FormatError("malformed glue line %r" % " ".join(parts))
            list(map(int, parts[1:]))
    del words[::5]
    # Python ints first, so that a non-integer is reported before a value
    # too large for the array.
    return np.array(list(map(int, words)), dtype=np.intp).reshape(-1, 2, 2)


def _floats(block):
    return np.array(block, dtype=float)


def _format_errors(read):
    """read, raising a token that is not a number as FormatError."""
    @functools.wraps(read)
    def wrapped(path):
        try:
            return read(path)
        except UniformizerError:
            raise
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return wrapped


@_format_errors
def _read_numbers(path):
    """The whitespace separated numbers of a file, as floats."""
    with open(path) as fh:
        return _floats(fh.read().split())


@_format_errors
def read_surface(path):
    with open(path) as fh:
        raw = fh.read()
    lines = [ln for ln in map(str.strip, raw.splitlines())
             if ln and ln[0] != "#"]
    if not lines or lines[0] != FORMAT_LINE:
        raise FormatError("missing format line %r" % FORMAT_LINE)
    pos = 1

    def take(count, convert=list):
        """The next count lines, converted; every line present is
        converted before a missing one is reported."""
        nonlocal pos
        block = convert(lines[pos:pos + count])
        pos += count
        if len(block) < count:
            raise FormatError("unexpected end of file")
        return block

    header = take(1)[0].split()
    if len(header) != 2 or header[0] != "triangles":
        raise FormatError("expected 'triangles <T>'")
    ntri = int(header[1])

    block = list(itertools.takewhile(lambda ln: ln.startswith("glue "),
                                     lines[pos:]))
    pos += len(block)
    records = _glue_records(block)
    tri = mesh_core.build_from_gluings(records)
    if tri.num_triangles != ntri:
        raise FormatError("triangle count %d does not match gluing list"
                          % ntri)
    # Edge i of the file is the edge the i-th glue line describes; the
    # derived tables may number edges differently, so remap per-edge
    # value lists through the gluing list.
    edge_of_line = tri.side_edge[3 * records[:, 0, 0] + records[:, 0, 1]]
    if not np.array_equal(np.sort(edge_of_line), np.arange(tri.num_edges)):
        raise FormatError("glue lines do not enumerate the edges")

    lam = None
    theta = None
    labels = None
    while pos < len(lines):
        section = take(1)[0]
        if section in ("lambda", "lengths"):
            if lam is not None:
                raise FormatError("both lambda and lengths given")
            vals = take(tri.num_edges, _floats)
            if section == "lengths":
                if (vals <= 0).any():
                    raise FormatError("lengths must be strictly positive")
                # math.log, not np.log, keeps lambda bitwise stable.
                vals = 2.0 * np.array(list(map(math.log, vals.tolist())))
            lam = np.zeros(tri.num_edges)
            lam[edge_of_line] = vals
        elif section == "theta":
            theta = take(tri.num_vertices, _floats)
        elif section == "labels":
            labels = take(tri.num_vertices)
        else:
            raise FormatError("unknown section %r" % section)
    if lam is None:
        raise FormatError("no lambda or lengths section")
    return SurfaceFile(tri, DecoratedMetric(tri, lam), theta, labels)


def write_report(path, entries):
    """key: value lines, numbers with 17 significant digits."""
    lines = []
    for key, value in entries:
        if isinstance(value, float):
            value = _fmt(value)
        lines.append("%s: %s" % (key, value))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


@_format_errors
def ingest_obj(path):
    """Closed triangle mesh -> (Triangulation, DecoratedMetric) with
    lambda = 2 log(edge length).  A vertex line with fewer than three
    coordinates, and a face index outside 1..n for n vertices (relative
    indices included), raise FormatError."""
    verts = []
    faces = []
    with open(path) as fh:
        for ln in fh:
            parts = ln.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise FormatError("vertex line %r has fewer than three "
                                      "coordinates" % ln.strip())
                verts.append(np.array([float(x) for x in parts[1:4]]))
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                if len(idx) != 3:
                    raise NonTriangleFace("face with %d vertices" % len(idx))
                faces.append(tuple(i - 1 for i in idx))
    if not faces:
        raise OpenMesh("no faces in %s" % path)
    bad = [i for face in faces for i in face if not 0 <= i < len(verts)]
    if bad:
        raise FormatError("face index %d names none of the %d vertices"
                          % (bad[0] + 1, len(verts)))
    try:
        tri, labels = mesh_core.build_from_faces(faces)
    except UniformizerError as exc:
        raise OpenMesh(str(exc))

    lam = np.zeros(tri.num_edges)
    for e, (v1, v2) in enumerate(tri.edge_verts.tolist()):
        a, b = labels[v1], labels[v2]
        length = float(np.linalg.norm(verts[a] - verts[b]))
        if length <= 0:
            raise ZeroLengthEdge("edge between obj vertices %d and %d"
                                 % (a + 1, b + 1))
        lam[e] = 2.0 * math.log(length)
    return tri, DecoratedMetric(tri, lam)


def emit_obj(path, realization):
    """Write a sphere realization's vertices (points in space) and faces
    as an ASCII OBJ."""
    order = sorted(realization.vertex_positions)
    index = {v: i + 1 for i, v in enumerate(order)}
    lines = []
    for v in order:
        p = realization.vertex_positions[v]
        lines.append("v %s %s %s" % (_fmt(p[0]), _fmt(p[1]), _fmt(p[2])))
    for face in realization.faces:
        lines.append("f " + " ".join(str(index[v]) for v in face))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_input(path):
    if path.endswith(".obj"):
        tri, metric = ingest_obj(path)
        return SurfaceFile(tri, metric)
    return read_surface(path)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _solver_arguments(p, tol):
    """The gradient tolerance and iteration limit of a solve command."""
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--max-iter", type=int, default=_optimize.MAX_ITERATIONS)


@functools.cache
def _build_parser():
    """The parser of all commands, built once: parsing leaves it as is."""
    parser = _Parser(prog="uniformizer",
                     description="Discrete uniformization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate input and report "
                                     "Delaunay and Gauss-Bonnet status")
    p.add_argument("input")

    p = sub.add_parser("delaunay", help="run the flip algorithm")
    p.add_argument("input")
    p.add_argument("--adjusted", action="store_true")
    p.add_argument("--undecorated", default="",
                   help="comma separated vertex ids with missing "
                        "horocycles")
    p.add_argument("--out", default=None)

    p = sub.add_parser("distance", help="horocycle distance between "
                                        "two vertices")
    p.add_argument("input")
    p.add_argument("--from", dest="v_from", type=int, required=True)
    p.add_argument("--to", dest="v_to", type=int, required=True)

    p = sub.add_parser("uniformize-sphere",
                       help="inscribed polyhedron / two-sided polygon")
    p.add_argument("input")
    p.add_argument("--vinf", type=int, required=True)
    _solver_arguments(p, _optimize.PUNCTURED_TOL)
    p.add_argument("--out-obj", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("uniformize-torus", help="flat torus modulus")
    p.add_argument("input")
    _solver_arguments(p, _optimize.CONFORMAL_TOL)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("prescribe-angles",
                       help="flat metric with prescribed cone angles")
    p.add_argument("input")
    p.add_argument("--theta", required=True,
                   help="'uniform' or a file with one angle per vertex")
    _solver_arguments(p, _optimize.CONFORMAL_TOL)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("energy", help="print energy value and gradient")
    p.add_argument("input")
    p.add_argument("--u", required=True,
                   help="file with one u value per vertex")
    p.add_argument("--vinf", type=int, default=None)
    return parser


def _report_lines(report):
    entries = [("status", report.status),
               ("iterations", report.iterations),
               ("flips", report.flips_total),
               ("energy", report.energy),
               ("seconds", report.seconds)]
    for key, value in sorted(report.kkt_residuals.items()):
        entries.append(("kkt_" + key, float(value)))
    if report.active_set:
        entries.append(("active_set",
                        ",".join(str(v) for v in report.active_set)))
    u = np.atleast_1d(report.u_final)
    entries.append(("u_final",
                    " ".join(map(_fmt, u[np.isfinite(u)].tolist()))))
    return entries


def _file_target(sf):
    """The file's theta section as a target, else 2 pi at every vertex."""
    if sf.theta is not None:
        return ConeAngleTarget(sf.theta)
    return ConeAngleTarget.uniform(sf.triangulation.num_vertices)


def _cmd_check(args):
    sf = _load_input(args.input)
    tri = sf.triangulation
    chk = _delaunay.check_delaunay(sf.metric)
    defect = _optimize.gauss_bonnet_defect(sf.metric, _file_target(sf))
    print("triangles: %d  edges: %d  vertices: %d  genus: %d"
          % (tri.num_triangles, tri.num_edges, tri.num_vertices, tri.genus))
    print("delaunay: %s  violations: %d  nonessential: %d"
          % ("ok" if chk.ok else "violated", len(chk.violations),
             len(chk.nonessential)))
    print("gauss-bonnet defect of the target = %.6e (chi=%d)"
          % (defect, tri.euler_characteristic))
    return 0


def _cmd_delaunay(args):
    sf = _load_input(args.input)
    tri = sf.triangulation
    u = np.zeros(tri.num_vertices)
    if args.undecorated:
        for v in map(_format_errors(int), args.undecorated.split(",")):
            mesh_core.check_vertex(tri, v)
            u[v] = np.inf
    mode = _delaunay.ADJUSTED if args.adjusted else _delaunay.PLAIN
    result = _delaunay.make_delaunay(sf.metric, PartialDecoration(u),
                                     mode=mode)
    print("flips: %d  nonessential: %d"
          % (len(result.flips), len(result.nonessential_edges)))
    for e, before, after in result.flips:
        print("flip %d %s %s" % (e, _fmt(before), _fmt(after)))
    if args.out:
        write_surface(args.out, result.metric, theta=sf.theta)
    return 0


def _cmd_distance(args):
    sf = _load_input(args.input)
    value = _delaunay.horocycle_distance(sf.metric, args.v_from, args.v_to)
    print(_fmt(value))
    return 0


def _cmd_uniformize_sphere(args):
    sf = _load_input(args.input)
    opts = _optimize.SolveOptions(args.tol, args.max_iter)
    realization = _realize.uniformize_sphere(sf.metric, args.vinf, opts)
    diagnostics = sorted(realization.diagnostics.items())
    print("kind: %s" % realization.kind)
    for key, value in diagnostics:
        print("%s: %s" % (key, value))
    if args.out_obj:
        emit_obj(args.out_obj, realization)
    if args.report:
        write_report(args.report,
                     [("kind", realization.kind)] + diagnostics
                     + _report_lines(realization.report))
    return 0


def _cmd_uniformize_torus(args):
    sf = _load_input(args.input)
    opts = _optimize.SolveOptions(args.tol, args.max_iter)
    realization = _realize.uniformize_torus(sf.metric, opts)
    v1, v2 = realization.lattice
    print("tau: %s %s" % (_fmt(realization.tau.real),
                          _fmt(realization.tau.imag)))
    print("lattice: %s %s %s %s" % (_fmt(v1.real), _fmt(v1.imag),
                                    _fmt(v2.real), _fmt(v2.imag)))
    if args.out:
        write_surface(args.out, realization.metric)
    if args.report:
        write_report(args.report,
                     [("tau_re", realization.tau.real),
                      ("tau_im", realization.tau.imag)]
                     + _report_lines(realization.report))
    return 0


def _uniform_angles(tri):
    """One cone angle per vertex, all equal up to rounding, that sum to
    the Gauss-Bonnet total 2 pi (2g - 2 + n) in floating point.

    Each angle is a multiple of the total's ulp, and so is every partial
    sum, exactly: the angles sum to the total in any order.  The
    remainder of that division adds one ulp to each of the first
    vertices, so no angle is off total / n by more than one ulp of the
    total.
    """
    n = tri.num_vertices
    total = 2.0 * math.pi * (2 * tri.genus - 2 + n)
    step = math.ulp(total)
    base, extra = divmod(round(total / step), n)
    theta = np.full(n, base * step)
    theta[:extra] = (base + 1) * step
    return theta


def _cmd_prescribe_angles(args):
    sf = _load_input(args.input)
    if args.theta == "uniform":
        theta = _uniform_angles(sf.triangulation)
    else:
        theta = _read_numbers(args.theta)
    target = ConeAngleTarget(theta)
    opts = _optimize.SolveOptions(args.tol, args.max_iter)
    realization = _realize.prescribe_cone_angles(sf.metric, target, opts)
    print("max angle error: %s"
          % _fmt(realization.diagnostics["max_angle_error"]))
    if args.out:
        write_surface(args.out, realization.metric,
                      theta=realization.theta_tilde)
    if args.report:
        write_report(args.report, _report_lines(realization.report))
    return 0


def _cmd_energy(args):
    sf = _load_input(args.input)
    u = _read_numbers(args.u)
    if args.vinf is None:
        ev = _energy.conformal_energy(sf.metric, _file_target(sf), u)
    else:
        ev = _energy.punctured_energy(sf.metric, args.vinf, u)
    print("value: %s" % _fmt(ev.value))
    print("gradient: " + " ".join(_fmt(g) for g in ev.gradient))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "delaunay": _cmd_delaunay,
    "distance": _cmd_distance,
    "uniformize-sphere": _cmd_uniformize_sphere,
    "uniformize-torus": _cmd_uniformize_torus,
    "prescribe-angles": _cmd_prescribe_angles,
    "energy": _cmd_energy,
}


def cli_dispatch(argv):
    """Run one subcommand; returns the process exit code.

    0 success, 1 usage error, 2 validation error, 3 solver failure.
    """
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except SolverFailure as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3
    except (UniformizerError, OSError, ValueError, ArithmeticError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


def main():
    logging.basicConfig(level=logging.WARNING)
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
