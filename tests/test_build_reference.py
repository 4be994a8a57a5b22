"""How triangulations are built, against the loop references of
reference_build: the in-place random generators must give bitwise the
same tables and lambdas and leave the rng in the same state, and the
array builders must give the same tables and labels on valid input and
the same exception class and message on corrupted input."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import reference_build as ref
from uniformizer import mesh_core, surfaces
from uniformizer.errors import PinchedVertex

GENERATORS = {0: "random_sphere", 1: "random_torus", 2: "random_genus2"}
Raised = namedtuple("Raised", "kind message")


def _tables(tri):
    return (tri.glue, tri.side_edge, tri.corner_vertex, tri.edge_sides)


def _assert_same_triangulation(tri, expected):
    assert tri.num_vertices == expected.num_vertices
    for got, want in zip(_tables(tri), _tables(expected)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # compared by class and message below
        return Raised(type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(genus=st.sampled_from([0, 1, 2]), n=st.integers(0, 90),
       seed=st.integers(0, 2 ** 16),
       lam_range=st.sampled_from([(-2.0, 2.0), (-6.0, 6.0), (0.5, 0.75)]))
def test_generators_match_reference(genus, n, seed, lam_range):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    name = GENERATORS[genus]
    got = _outcome(getattr(surfaces, name), n, rng, lam_range)
    want = _outcome(getattr(ref, name), n, rng_ref, lam_range)
    if isinstance(want, Raised):
        assert got == want
    else:
        _assert_same_triangulation(got.triangulation, want.triangulation)
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.triangulation.genus == genus
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("name", sorted(GENERATORS.values()))
def test_generators_derive_tables_once(name, monkeypatch):
    calls = []
    derive = mesh_core._derive_tables
    monkeypatch.setattr(mesh_core, "_derive_tables",
                        lambda glue: calls.append(len(glue)) or derive(glue))
    metric = getattr(surfaces, name)(40, np.random.default_rng(0))
    assert calls == [3 * metric.triangulation.num_triangles]


def test_subdivide_triangle_matches_reference():
    rng = np.random.default_rng(11)
    for metric in (surfaces.three_vertex_sphere(), surfaces.square_torus(),
                   surfaces.random_genus2(5, rng)):
        tri = metric.triangulation
        for t in range(tri.num_triangles):
            _assert_same_triangulation(mesh_core.subdivide_triangle(tri, t),
                                       ref.subdivide_triangle(tri, t))


def _records(tri, rng):
    """tri's gluing as shuffled records, with the triangles renumbered and
    each record's sides in random order."""
    perm = rng.permutation(tri.num_triangles)
    pairs = rng.permutation(tri.edge_sides)
    swap = rng.random(len(pairs)) < 0.5
    pairs[swap] = pairs[swap, ::-1]
    return [((int(perm[a // 3]), a % 3), (int(perm[b // 3]), b % 3))
            for a, b in pairs.tolist()]


def _corrupt_records(records, kind, rng):
    records = list(records)
    i, j = rng.integers(len(records), size=2).tolist()
    a, b = records[i]
    if kind == "self":
        records[i] = (a, a)
    elif kind == "double":
        records[i] = (a, records[j][rng.integers(2)])
    elif kind == "repeat":
        records.insert(j, records[i])
    elif kind == "missing":
        del records[i]
    elif kind == "range":
        records[i] = (a, [(b[0], 3), (-1, b[1]), (b[0], -2)][j % 3])
    elif kind == "beyond":  # a triangle past the others: unglued sides
        records[i] = (a, (1 + max(max(x[0], y[0]) for x, y in records),
                          b[1]))
    elif kind == "disconnected":
        shift = 1 + max(max(x[0], y[0]) for x, y in records)
        records += [((x[0] + shift, x[1]), (y[0] + shift, y[1]))
                    for x, y in records]
    elif kind == "empty":
        records = []
    return records


RECORD_FAULTS = ["self", "double", "repeat", "missing", "range", "beyond",
                 "disconnected", "empty"]


@settings(max_examples=250, deadline=None)
@given(genus=st.sampled_from([0, 1, 2]), n=st.integers(1, 25),
       seed=st.integers(0, 2 ** 16),
       faults=st.lists(st.sampled_from(RECORD_FAULTS), max_size=3),
       hint=st.sampled_from([None, "right", "wrong"]))
def test_build_from_gluings_matches_reference(genus, n, seed, faults, hint):
    rng = np.random.default_rng(seed)
    name = GENERATORS[genus]
    tri = getattr(surfaces, name)(max(n, 4 if genus == 0 else 1),
                                  rng).triangulation
    records = _records(tri, rng)
    for kind in faults:
        event(kind)
        if records:
            records = _corrupt_records(records, kind, rng)
    genus_hint = {None: None, "right": genus, "wrong": genus + 1}[hint]
    got = _outcome(mesh_core.build_from_gluings, records, genus_hint)
    want = _outcome(ref.build_from_gluings, records, genus_hint)
    event("raises" if isinstance(want, Raised) else "builds")
    if isinstance(want, Raised):
        assert got == want
    else:
        _assert_same_triangulation(got, want)


def _lattice_torus_faces(k):
    faces = []
    for i in range(k):
        for j in range(k):
            a, b = i * k + j, i * k + (j + 1) % k
            c, d = ((i + 1) % k) * k + (j + 1) % k, ((i + 1) % k) * k + j
            faces += [(a, b, c), (a, c, d)]
    return faces


def _faces(genus, n, rng):
    """A simplicial surface as relabeled, shuffled and rotated faces:
    a random sphere (repeated splits of the tetrahedron keep it
    simplicial) or a lattice torus."""
    if genus == 0:
        tri = surfaces.random_sphere(max(n, 4), rng).triangulation
        faces = tri.corner_vertex.reshape(-1, 3)
    else:
        faces = np.array(_lattice_torus_faces(3 + n % 4))
    labels = 3 + 7 * rng.permutation(faces.max() + 1)
    faces = rng.permutation(labels[faces])
    rot = rng.integers(3, size=len(faces))
    faces = np.take_along_axis(faces, (rot[:, None] + np.arange(3)) % 3, 1)
    return [tuple(f) for f in faces.tolist()]


def _corrupt_faces(faces, kind, rng):
    faces = list(faces)
    i, j = rng.integers(len(faces), size=2).tolist()
    a, b, c = faces[i] if len(faces[i]) == 3 else (0, 1, 2)
    x, y = faces[j][0], faces[j][-1]
    if kind == "open":
        del faces[i]
    elif kind == "repeat":
        faces.insert(j, (b, c, a))
    elif kind == "reverse":
        faces[i] = (a, c, b)
    elif kind == "merge":  # one label for two neighbouring vertices
        faces = [tuple(y if v == x else v for v in f) for f in faces]
    elif kind == "pinch":  # one label for two vertices far apart: each
        # stays its own surface vertex; the reference returns the label
        # twice, build_from_faces raises PinchedVertex
        star = {}
        for f in faces:
            for v in f:
                star.setdefault(v, set()).update(f)
        far = sorted(v for v in star if not star[v] & star[x])
        if far:
            y = far[rng.integers(len(far))]
            faces = [tuple(y if v == x else v for v in f) for f in faces]
    elif kind == "relabel":  # one corner takes another label
        faces[i] = (x, b, c)
    elif kind == "loop":
        faces[i] = (a, a, b)
    elif kind == "quad":
        faces[i] = (a, b, c, x)
    elif kind == "pair":
        faces[i] = (a, b)
    elif kind == "disconnected":
        faces += [tuple(v + 1000 for v in f) for f in faces]
    elif kind == "empty":
        faces = []
    return faces


FACE_FAULTS = ["open", "repeat", "reverse", "merge", "pinch", "relabel",
               "loop", "quad", "pair", "disconnected", "empty"]


@settings(max_examples=250, deadline=None)
@given(genus=st.sampled_from([0, 1]), n=st.integers(4, 30),
       seed=st.integers(0, 2 ** 16),
       faults=st.lists(st.sampled_from(FACE_FAULTS), max_size=3),
       hint=st.sampled_from([None, "right", "wrong"]))
def test_build_from_faces_matches_reference(genus, n, seed, faults, hint):
    rng = np.random.default_rng(seed)
    faces = _faces(genus, n, rng)
    for kind in faults:
        event(kind)
        if faces:
            faces = _corrupt_faces(faces, kind, rng)
    genus_hint = {None: None, "right": genus, "wrong": genus + 1}[hint]
    got = _outcome(mesh_core.build_from_faces, faces, genus_hint)
    want = _outcome(ref.build_from_faces, faces, genus_hint)
    event("raises" if isinstance(want, Raised) else "builds")
    if isinstance(want, Raised):
        assert got == want
    elif len(set(want[1])) < len(want[1]):
        event("pinched")
        assert got.kind is PinchedVertex
        first = next(v for v in want[1] if want[1].count(v) > 1)
        assert "label %r " % first in got.message
    else:
        _assert_same_triangulation(got[0], want[0])
        assert got[1] == want[1]
        # Each corner's vertex carries the corner's input label.
        assert np.array_equal(np.array(got[1])[got[0].corner_vertex],
                              np.ravel(faces))
        assert all(type(v) is int for v in got[1])


@pytest.mark.parametrize("faces", [
    [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2), (1, 2, 0)],  # repeated
    [(0, 1, 2), (0, 2, 3), (0, 3, 1)],  # open
    [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3)],  # not a triangle
    [(0, 0, 1)],  # a side glued to itself
    [(0, 0, 1), (2, 3, 4), (2, 4, 3)],
    [],
])
def test_build_from_faces_errors_match_reference(faces):
    assert _outcome(mesh_core.build_from_faces, faces) \
        == _outcome(ref.build_from_faces, faces)
