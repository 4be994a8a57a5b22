"""The solved outputs do not depend on how the input is labelled or
triangulated: relabelling the triangles (and rotating their sides), or
Ptolemy-flipping random disjoint edges, describes the same decorated
surface, so the torus modulus, the sphere's status, faces, u and the
Gram matrix of its vertex positions agree to round-off.  Nor does the
sphere's polyhedron depend on the vertex sent to infinity: its faces and
dihedral angles are those of the one ideal polyhedron with the input's
metric, and its faces are those of the convex hull of its vertices."""

import cmath
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph
from scipy.spatial import ConvexHull

from helpers import cube_sphere, random_flips, relabelled
from uniformizer import optimize, realize, surfaces

TRANSFORMS = {
    "relabel": relabelled,
    "flips": lambda metric, rng: random_flips(metric, rng,
                                              int(rng.integers(1, 4))),
}
# Round-off moves tau by about 3e-14 and u by about 1.4e-14 under either
# transform; the bound leaves a margin above that.
TOL = 1e-12
# The sphere's positions are developed along a tree of triangles that
# follows their numbering, so rounding moves the Gram matrix of the
# positions further: by up to 2.7e-10 on the ten spheres below, and by
# up to 2.0e-9 on the 200 spheres of the benchmark's seeds 0-19.
GRAM_TOL = 2.0e-9
# The dihedral angles of the sphere's polyhedron with v_inf = 0 and 7
# differ by up to 5.5e-9 on the ten spheres below.
BENDING_TOL = 1e-8
# Hull facets whose plane equations agree to this lie in one face.
PLANE_TOL = 1e-9


def _torus(s):
    return surfaces.random_torus(400, np.random.default_rng(s), (-2.0, 2.0))


@functools.cache
def _tau(s):
    return realize.uniformize_torus(_torus(s)).tau


def _spheres():
    # The ten n=100 spheres of the benchmark's sphere workload, seed 0.
    rng = np.random.default_rng(0)
    return [surfaces.random_sphere(100, rng) for _ in range(10)]


def _sphere_outcome(metric):
    """(status, faces as vertex sets, u_final, Gram matrix of the vertex
    positions in id order), or the error class."""
    try:
        real = realize.uniformize_sphere(metric, 0)
    except Exception as exc:  # compared by class below
        return type(exc), None, None, None
    faces = sorted(tuple(sorted(f)) for f in real.faces)
    pos = real.vertex_positions
    points = np.array([pos[v] for v in sorted(pos)])
    return real.report.status, faces, real.report.u_final, points @ points.T


@functools.cache
def _sphere_outcomes():
    return [_sphere_outcome(m) for m in _spheres()]


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("s", range(5))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_torus_modulus_is_invariant(transform, s, seed):
    metric = TRANSFORMS[transform](_torus(s), np.random.default_rng(seed))
    assert abs(realize.uniformize_torus(metric).tau - _tau(s)) <= TOL


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_outcome_is_invariant(transform, seed):
    rng = np.random.default_rng(seed)
    for metric, (status, faces, u, gram) in zip(_spheres(),
                                                 _sphere_outcomes()):
        got = _sphere_outcome(TRANSFORMS[transform](metric, rng))
        assert got[:2] == (status, faces)
        if u is not None:
            # u is +inf at v_inf in both.
            np.testing.assert_allclose(got[2], u, rtol=0, atol=TOL)
            np.testing.assert_allclose(got[3], gram, rtol=0, atol=GRAM_TOL)


def _bending(real):
    """The exterior dihedral angle of each edge of a polyhedron, by its
    vertex pair: |arg(-cr)| of the edge's ends and one more vertex of each
    of its two faces, in the stereographic coordinate of the positions
    turned by one radian, so that no vertex sits at the pole.  Rotations
    preserve cross ratios; the absolute value leaves out the orientation
    of the faces, whose sign the certificate checks."""
    c, s = np.cos(1.0), np.sin(1.0)
    z = {v: (x + 1j * (c * y - s * h)) / (1.0 - s * y - c * h)
         for v, (x, y, h) in real.vertex_positions.items()}
    faces_of = {}
    for face in real.faces:
        for a, b in zip(face, face[1:] + face[:1]):
            faces_of.setdefault((min(a, b), max(a, b)), []).append(face)
    bending = {}
    for (i, j), (f1, f2) in faces_of.items():
        k = next(v for v in f1 if v not in (i, j))
        l = next(v for v in f2 if v not in (i, j))
        bending[i, j] = abs(cmath.phase(-(z[k] - z[i]) * (z[l] - z[j])
                                        / ((z[k] - z[j]) * (z[l] - z[i]))))
    return bending


@pytest.mark.parametrize("s", range(11), ids=[
    "sphere %d" % s for s in range(10)] + ["cube"])
def test_sphere_polyhedron_does_not_depend_on_v_inf(s):
    metric = _spheres()[s] if s < 10 else cube_sphere()[0]
    first, second = (realize.uniformize_sphere(metric, v) for v in (0, 7))
    assert (sorted(tuple(sorted(f)) for f in first.faces)
            == sorted(tuple(sorted(f)) for f in second.faces))
    bending, other = _bending(first), _bending(second)
    assert bending.keys() == other.keys()
    for edge, angle in bending.items():
        assert abs(other[edge] - angle) <= BENDING_TOL


def _hull_faces(positions):
    """The faces of the convex hull of the positions, each as a sorted
    vertex tuple: qhull's triangles merged by their plane equations."""
    verts = sorted(positions)
    hull = ConvexHull(np.array([positions[v] for v in verts]))
    eq = hull.equations
    same = np.abs(eq[:, None] - eq[None]).max(axis=2) <= PLANE_TOL
    count, label = csgraph.connected_components(same, directed=False)
    return sorted(tuple(sorted({verts[i] for i in
                                hull.simplices[label == f].ravel().tolist()}))
                  for f in range(count))


@pytest.mark.parametrize("s", range(11), ids=[
    "sphere %d" % s for s in range(10)] + ["cube"])
def test_sphere_faces_match_the_convex_hull(s):
    metric = _spheres()[s] if s < 10 else cube_sphere()[0]
    real = realize.uniformize_sphere(metric, 0)
    assert (_hull_faces(real.vertex_positions)
            == sorted(tuple(sorted(f)) for f in real.faces))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "sphere 70/2 stalls in the line search after three rounds of flips "
    "(ROADMAP items 4 and 11)"))
def test_sphere_70_2_certifies_after_flips():
    # The third n=100 sphere of seed 70 certifies as given, and after a
    # relabelling, but after random_flips(..., default_rng(0), 3) its
    # solve ends in LineSearchFailure.
    rng = np.random.default_rng(70)
    metric = [surfaces.random_sphere(100, rng) for _ in range(3)][2]
    status, faces = _sphere_outcome(metric)[:2]
    if status != optimize.CONVERGED:
        pytest.fail("sphere 70/2 no longer certifies as given: %s" % status)
    flipped = random_flips(metric, np.random.default_rng(0), 3)
    assert _sphere_outcome(flipped)[:2] == (status, faces)
