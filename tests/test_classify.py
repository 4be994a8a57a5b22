"""mesh_core.classify_subcomplex against the cell-by-cell reference
classifier (reference_classify.py) on random kept vertex sets."""

from collections import Counter

import numpy as np

from helpers import vertex_corners
from reference_classify import reference_classify
from uniformizer import mesh_core, surfaces

SURFACES = [
    lambda rng: surfaces.random_sphere(int(rng.integers(4, 30)), rng),
    lambda rng: surfaces.random_torus(int(rng.integers(1, 20)), rng),
    lambda rng: surfaces.genus2_one_vertex(),
    lambda rng: surfaces.octahedron_sphere(),
    lambda rng: surfaces.three_vertex_sphere(),
]


def _kept_sets(n, rng):
    """All vertices but one, a random fraction, and all but 1-3."""
    yield set(range(n)) - {int(rng.integers(n))}
    frac = rng.uniform(0.1, 0.9)
    yield {v for v in range(n) if rng.random() < frac}
    drop = rng.choice(n, min(n, int(rng.integers(1, 4))), replace=False)
    yield set(range(n)) - set(drop.tolist())


def _pinched(sub):
    """True when the kept corners around some kept vertex form two or
    more separate fans."""
    corners = vertex_corners(sub.parent)
    for v in np.flatnonzero(sub.vertex_mask).tolist():
        flags = [sub.triangle_mask[k // 3] for k in corners[v]]
        if sum(f and not flags[i - 1] for i, f in enumerate(flags)) > 1:
            return True
    return False


def test_classify_matches_reference_on_random_subsets():
    rng = np.random.default_rng(11)
    classes, checks, pinched = Counter(), Counter(), Counter()
    for i in range(600):
        tri = SURFACES[i % len(SURFACES)](rng).triangulation
        for e in rng.integers(tri.num_edges, size=8).tolist():
            k1, k2 = tri.edge_sides[e].tolist()
            if k1 // 3 != k2 // 3:
                tri = mesh_core.flip_edge(tri, e)
        for keep in _kept_sets(tri.num_vertices, rng):
            sub = mesh_core.Subcomplex(tri, keep)
            cls, check = reference_classify(sub)
            assert mesh_core.classify_subcomplex(sub) == cls, (keep, check)
            classes[cls] += 1
            checks[check] += 1
            pinched[check] += _pinched(sub)
    assert set(classes) == {mesh_core.LINEAR_GRAPH,
                            mesh_core.DISK_TRIANGULATION, mesh_core.OTHER}
    # The reference rejects cases at each check the new code keeps.
    assert checks["unused"] and checks["chi"] and checks["connected"]
    # Pinched vertex links occur, and the reference rejects every one of
    # them before its link check: chi = 1 and connected triangles leave
    # no pinched link, stray edge or second boundary cycle.
    assert pinched["chi"] and pinched["connected"]
    assert not (checks["three"] or checks["link"] or checks["boundary"])
