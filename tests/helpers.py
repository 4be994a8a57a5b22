"""Shared finite-difference and oracle utilities for the test suite."""

import numpy as np

from uniformizer import mesh_core
from uniformizer.penner import DecoratedMetric, ptolemy_update

# The squares of a unit cube on the vertices v = (v & 1, v >> 1 & 1,
# v >> 2 & 1), each ccw seen from outside.
CUBE_QUADS = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4), (2, 6, 7, 3),
              (0, 4, 6, 2), (1, 3, 7, 5)]


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def fd_hessian(grad_fun, x, h=1e-5):
    """Central-difference Jacobian of a gradient function."""
    x = np.asarray(x, dtype=float)
    g0 = np.asarray(grad_fun(x))
    H = np.zeros((len(x), len(g0)))
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        H[i] = (np.asarray(grad_fun(xp)) - np.asarray(grad_fun(xm))) \
            / (2.0 * h)
    return H


def dense(mat):
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


def cube_sphere():
    """(metric, labels): the euclidean unit cube with each square split by
    a diagonal, and the cube vertex of each surface vertex.  The
    diagonals are nonessential, so every square is one face."""
    tri, labels = mesh_core.build_from_faces(
        [t for a, b, c, d in CUBE_QUADS for t in ((a, b, c), (a, c, d))],
        genus_hint=0)
    xyz = np.array([[v & 1, v >> 1 & 1, v >> 2 & 1] for v in labels],
                   dtype=float)
    ends = tri.edge_verts
    lam = 2.0 * np.log(np.linalg.norm(xyz[ends[:, 0]] - xyz[ends[:, 1]],
                                      axis=1))
    return DecoratedMetric(tri, lam), labels


def relabelled(metric, rng):
    """The same decorated surface with its triangles permuted and each
    triangle's sides rotated; vertex and edge ids stay as they are."""
    tri = metric.triangulation
    nt = tri.num_triangles
    # old[k] is the side that becomes side k.
    old = (3 * rng.permutation(nt)[:, None]
           + (np.arange(3) + rng.integers(3, size=(nt, 1))) % 3).ravel()
    new = np.empty_like(old)
    new[old] = np.arange(len(old))
    return DecoratedMetric(mesh_core.Triangulation(
        new[tri.glue[old]], tri.side_edge[old], tri.corner_vertex[old],
        tri.num_vertices), metric.lam)


def random_flips(metric, rng, rounds=1):
    """The same decorated surface after rounds of Ptolemy flips, each of
    a random set of edges whose quads share no triangle."""
    for _ in range(rounds):
        tri = metric.triangulation
        used = np.zeros(tri.num_triangles, dtype=bool)
        edges = []
        for e in rng.permutation(tri.num_edges).tolist():
            t1, t2 = tri.edge_sides[e] // 3
            if t1 != t2 and not used[t1] and not used[t2] \
                    and rng.random() < 0.5:
                used[[t1, t2]] = True
                edges.append(e)
        _, _, ka, kb, kc, kd = mesh_core._quad_sides(tri, edges)
        lam = metric.lam.copy()
        side_lam = lam[tri.side_edge]
        lam[edges] = ptolemy_update(side_lam[ka], side_lam[kb], side_lam[kc],
                                    side_lam[kd], lam[edges])
        metric = DecoratedMetric(mesh_core.flip_edges(tri, edges), lam)
    return metric


def canonical_form(tri):
    """Canonical encoding of the gluing, for isomorphism tests.

    Runs a breadth-first relabeling from every oriented corner and keeps
    the lexicographically smallest transition table.  Two triangulations
    are combinatorially isomorphic iff their canonical forms coincide.
    """
    nt = tri.num_triangles
    glue = tri.glue.tolist()
    best = None
    for k0 in range(3 * nt):
        label = {}  # old triangle -> (new id, rotation)
        t0, s0 = divmod(k0, 3)
        label[t0] = (0, s0)
        order = [t0]
        code = []
        qi = 0
        while qi < len(order):
            t = order[qi]
            qi += 1
            _, rot = label[t]
            for i in range(3):
                m = glue[3 * t + (rot + i) % 3]
                t2, s2 = divmod(m, 3)
                if t2 not in label:
                    label[t2] = (len(order), s2)
                    order.append(t2)
                n2, rot2 = label[t2]
                code.append((n2, (s2 - rot2) % 3))
        code = tuple(code)
        if best is None or code < best:
            best = code
    return best


def is_isomorphic(t1, t2):
    if (t1.num_triangles, t1.num_edges, t1.num_vertices) != \
            (t2.num_triangles, t2.num_edges, t2.num_vertices):
        return False
    return canonical_form(t1) == canonical_form(t2)
