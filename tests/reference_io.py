"""Line-by-line references for the surface file format: the parser that
takes one line at a time, the writer that formats one line at a time,
and the report lines that format u_final one numpy scalar at a time.

These are the loops that io_cli's bulk conversions replaced, kept as the
oracle of their tests.  They share with the package only the gluing
builder, the format line and the SurfaceFile and DecoratedMetric
classes.
"""

import math

import numpy as np

from uniformizer import mesh_core
from uniformizer.errors import FormatError
from uniformizer.io_cli import FORMAT_LINE, SurfaceFile
from uniformizer.penner import DecoratedMetric


def _fmt(x):
    return "%.17g" % x


def _number(convert, token):
    """convert(token); a token that is not a number raises FormatError."""
    try:
        return convert(token)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_surface(path, metric, theta=None, labels=None):
    tri = metric.triangulation
    lines = [FORMAT_LINE, "triangles %d" % tri.num_triangles]
    for k1, k2 in tri.edge_sides.tolist():
        t1, s1 = divmod(k1, 3)
        t2, s2 = divmod(k2, 3)
        lines.append("glue %d %d %d %d" % (t1, s1, t2, s2))
    lines.append("lambda")
    lines += [_fmt(x) for x in metric.lam]
    if theta is not None:
        lines.append("theta")
        lines += [_fmt(x) for x in np.asarray(theta, dtype=float)]
    if labels is not None:
        lines.append("labels")
        lines += [str(s) for s in labels]
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_surface(path):
    with open(path) as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != FORMAT_LINE:
        raise FormatError("missing format line %r" % FORMAT_LINE)
    pos = 1

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of file")
        ln = lines[pos]
        pos += 1
        return ln

    header = take().split()
    if len(header) != 2 or header[0] != "triangles":
        raise FormatError("expected 'triangles <T>'")
    ntri = _number(int, header[1])

    gluing = []
    while pos < len(lines) and lines[pos].startswith("glue "):
        parts = take().split()
        if len(parts) != 5:
            raise FormatError("malformed glue line %r" % " ".join(parts))
        t1, s1, t2, s2 = (_number(int, p) for p in parts[1:])
        gluing.append(((t1, s1), (t2, s2)))
    tri = mesh_core.build_from_gluings(gluing)
    if tri.num_triangles != ntri:
        raise FormatError("triangle count %d does not match gluing list"
                          % ntri)
    edge_of_line = tri.side_edge[[3 * t1 + s1 for ((t1, s1), _) in gluing]]
    if not np.array_equal(np.sort(edge_of_line), np.arange(tri.num_edges)):
        raise FormatError("glue lines do not enumerate the edges")

    lam = None
    theta = None
    labels = None
    while pos < len(lines):
        section = take()
        if section in ("lambda", "lengths"):
            if lam is not None:
                raise FormatError("both lambda and lengths given")
            vals = [_number(float, take()) for _ in range(tri.num_edges)]
            if section == "lengths":
                if any(v <= 0 for v in vals):
                    raise FormatError("lengths must be strictly positive")
                vals = [2.0 * math.log(v) for v in vals]
            lam = np.zeros(tri.num_edges)
            lam[edge_of_line] = vals
        elif section == "theta":
            theta = np.array([_number(float, take())
                              for _ in range(tri.num_vertices)])
        elif section == "labels":
            labels = [take() for _ in range(tri.num_vertices)]
        else:
            raise FormatError("unknown section %r" % section)
    if lam is None:
        raise FormatError("no lambda or lengths section")
    return SurfaceFile(tri, DecoratedMetric(tri, lam), theta, labels)


def report_lines(report):
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
    finite = [x for x in np.atleast_1d(report.u_final)
              if math.isfinite(x)]
    entries.append(("u_final", " ".join(_fmt(x) for x in finite)))
    return entries
