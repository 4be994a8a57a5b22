"""The benchmark workloads: input generation, one timed pass, output checks.

Each workload is a closed loop with one caller: a pass runs its operations
one after another, and only the calls into the package are timed.  Every
operation's output is checked after its timer stops; an operation fails
when it raises or when its output fails the check.

    sphere         uniformize_sphere + kkt_check on ten random n=100 spheres:
                   the genus-0 pipeline, where every energy evaluation
                   re-runs the adjusted flip algorithm (flip kernel,
                   Delaunay pass, active-set solver, certification).
    lattice_torus  the uniformize-torus CLI on a 40x40 equilateral lattice
                   torus: already Delaunay, so no flips; energy assembly,
                   sparse solve, torus layout and file I/O do the work.
    delaunay_cold  one cold make_delaunay per random sphere, plain and
                   adjusted: long flip chains instead of many short re-runs.
                   Runs by hand and in --smoke; it is not in BENCHMARK.json,
                   whose time budget buys longer runs of the other two.
"""

import contextlib
import cmath
import hashlib
import io
import math
import os
import time

import numpy as np

from uniformizer import delaunay, io_cli, mesh_core, optimize, penner, realize
from uniformizer import surfaces

# Input sizes per mode; "smoke" only checks that everything runs.  The
# solve time of one random sphere varies by about 25 % from one seed to
# the next, so a sphere pass averages ten n=100 spheres (about 25 s):
# three n=200 spheres (35-50 s) spread 0.3 across seeds.
SIZES = {
    "full": {"sphere_n": 100, "spheres": 10, "cold_n": 200, "cold_spheres": 10,
             "lattice": 40},
    "smoke": {"sphere_n": 16, "spheres": 1, "cold_n": 16, "cold_spheres": 2,
              "lattice": 6},
}

# Criterion-5 bounds of the acceptance suite.
SPHERE_TOL = 1e-8
# The lattice torus is equilateral, so tau is e^{i pi/3}; the boundary
# representative with Re tau = -1/2 is accepted too.
TAU_TOL = 1e-8
TAUS = (cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3))

REFERENCE_FACES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference_faces.json")


def face_digest(faces):
    """Short hash of a polyhedron's face set (each face as a vertex set)."""
    key = sorted(tuple(sorted(f)) for f in faces)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def sphere_inputs(seed, size):
    rng = np.random.default_rng(seed)
    n = size["sphere_n"]
    return [surfaces.random_sphere(n, rng) for _ in range(size["spheres"])]


def cold_inputs(seed, size):
    rng = np.random.default_rng(seed)
    n = size["cold_n"]
    return [surfaces.random_sphere(n, rng, (-4.0, 4.0))
            for _ in range(size["cold_spheres"])]


def lattice_torus(m, rng):
    """m x m equilateral lattice torus, conformally rescaled by a random u."""
    def v(i, j):
        return (i % m) + m * (j % m)
    faces = []
    for i in range(m):
        for j in range(m):
            faces.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            faces.append((v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)))
    tri, _ = mesh_core.build_from_faces(faces, genus_hint=1)
    metric = penner.DecoratedMetric(tri, np.zeros(tri.num_edges))
    return penner.fiber_shift(metric,
                              rng.uniform(-0.3, 0.3, tri.num_vertices))


def _call(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.span(name, fn, *args)


class Sphere:
    name = "sphere"

    def __init__(self, seed, size, workdir, references):
        self.seed = seed
        self.size = size
        self.references = references.get("n%d" % size["sphere_n"], {}) \
            .get(str(seed), [])

    def generate(self):
        self.metrics = sphere_inputs(self.seed, self.size)

    def write(self):
        pass

    def run_pass(self, tracer):
        """Returns (seconds, list of failure messages, operations)."""
        seconds = 0.0
        failures = []
        for i, metric in enumerate(self.metrics):
            t0 = time.perf_counter()
            try:
                real = _call(tracer, "realize.uniformize_sphere",
                             realize.uniformize_sphere, metric, 0)
                kkt = _call(tracer, "optimize.kkt_check", optimize.kkt_check,
                            metric, 0, real.report.u_final)
            except Exception as exc:  # counted as a failed operation
                seconds += time.perf_counter() - t0
                failures.append("sphere %d: %s: %s"
                                % (i, type(exc).__name__, exc))
                continue
            seconds += time.perf_counter() - t0
            ref = self.references[i] if i < len(self.references) else None
            problem = check_polyhedron(real, kkt, ref)
            if problem:
                failures.append("sphere %d: %s" % (i, problem))
        return seconds, failures, len(self.metrics)


def check_polyhedron(real, kkt, reference_digest):
    """None if the certified polyhedron is right, else what is wrong."""
    if not kkt.passed:
        return "kkt_check failed"
    if real.kind != realize.INSCRIBED_POLYHEDRON:
        return "kind %s" % real.kind
    d = real.diagnostics
    if not (d["on_sphere"] <= SPHERE_TOL and d["planarity"] <= SPHERE_TOL
            and d["convexity_margin"] >= -SPHERE_TOL):
        return "certificate out of bounds: %r" % (d,)
    # Recompute the certificate from the output itself.
    verts = sorted(real.vertex_positions)
    row = {v: i for i, v in enumerate(verts)}
    pts = np.array([real.vertex_positions[v] for v in verts])
    if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > SPHERE_TOL:
        return "vertex off the unit sphere"
    edges = {}
    for face in real.faces:
        fp = pts[[row[v] for v in face]]
        normal = np.linalg.svd(fp - fp.mean(axis=0))[2][-1]
        side = (pts - fp[0]) @ normal
        if np.max(np.abs(side[[row[v] for v in face]])) > SPHERE_TOL:
            return "face not planar"
        if min(side.max(), -side.min()) > SPHERE_TOL:
            return "vertices on both sides of a face plane"
        for a, b in zip(face, face[1:] + face[:1]):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    if set(edges.values()) != {2}:
        return "faces do not close up"
    if len(verts) - len(edges) + len(real.faces) != 2:
        return "Euler characteristic is not 2"
    if reference_digest is not None \
            and face_digest(real.faces) != reference_digest:
        return "face set differs from the recorded reference"
    return None


class LatticeTorus:
    name = "lattice_torus"

    def __init__(self, seed, size, workdir, references):
        self.seed = seed
        self.size = size
        self.paths = [os.path.join(workdir, f)
                      for f in ("in.surf", "out.surf", "report.txt")]
        self.bytes_written = 0

    def generate(self):
        self.metric = lattice_torus(self.size["lattice"],
                                    np.random.default_rng(self.seed))

    def write(self):
        io_cli.write_surface(self.paths[0], self.metric)

    def run_pass(self, tracer):
        inp, out, rep = self.paths
        argv = ["uniformize-torus", inp, "--out", out, "--report", rep]
        for path in (out, rep):
            if os.path.exists(path):
                os.remove(path)
        printed = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(printed):
                code = _call(tracer, "io_cli.cli_dispatch",
                             io_cli.cli_dispatch, argv)
        except Exception as exc:  # counted as a failed operation
            seconds = time.perf_counter() - t0
            return seconds, ["%s: %s" % (type(exc).__name__, exc)], 1
        seconds = time.perf_counter() - t0
        problem = check_torus_report(code, rep, printed.getvalue())
        self.bytes_written = sum(os.path.getsize(p) for p in (out, rep)
                                 if os.path.exists(p))
        return seconds, [problem] if problem else [], 1


def check_torus_report(code, report_path, printed):
    if code != 0:
        return "exit code %d: %s" % (code, printed.strip()[-200:])
    entries = {}
    with open(report_path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            entries[key.strip()] = value.strip()
    tau = complex(float(entries["tau_re"]), float(entries["tau_im"]))
    if min(abs(tau - t) for t in TAUS) > TAU_TOL:
        return "tau %r is not e^(i pi/3)" % (tau,)
    return None


class DelaunayCold:
    name = "delaunay_cold"

    def __init__(self, seed, size, workdir, references):
        self.seed = seed
        self.size = size

    def generate(self):
        self.metrics = cold_inputs(self.seed, self.size)
        n = self.size["cold_n"]
        plain = penner.PartialDecoration.zeros(n)
        vertex0_undecorated = np.zeros(n)
        vertex0_undecorated[0] = np.inf
        adjusted = penner.PartialDecoration(vertex0_undecorated)
        self.runs = [(m, u, mode) for m in self.metrics
                     for u, mode in ((plain, delaunay.PLAIN),
                                     (adjusted, delaunay.ADJUSTED))]

    def write(self):
        pass

    def run_pass(self, tracer):
        seconds = 0.0
        failures = []
        for i, (metric, u, mode) in enumerate(self.runs):
            t0 = time.perf_counter()
            try:
                # No span of its own: tracing already replaces
                # delaunay.make_delaunay (see spans.CALL_SITES).
                result = delaunay.make_delaunay(metric, u, mode)
            except Exception as exc:  # counted as a failed operation
                seconds += time.perf_counter() - t0
                failures.append("run %d: %s: %s"
                                % (i, type(exc).__name__, exc))
                continue
            seconds += time.perf_counter() - t0
            if not delaunay.check_delaunay(result.metric, u).ok:
                failures.append("run %d (%s): not Delaunay" % (i, mode))
        return seconds, failures, len(self.runs)


WORKLOADS = {w.name: w for w in (Sphere, LatticeTorus, DelaunayCold)}
