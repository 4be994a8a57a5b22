"""Reference subcomplex classifier: the cell-by-cell walk that
mesh_core.classify_subcomplex replaced, kept as a test oracle.

reference_classify(sub) returns (class, check): the class, and the name
of the check that decided it ("path", "unused", "chi", "connected",
"link", "boundary", or "disk" when every disk check passed).
"""

from collections import deque

import numpy as np

from helpers import vertex_corners
from uniformizer import mesh_core


def reference_classify(sub):
    verts, edges, tris = (np.flatnonzero(mask).tolist() for mask in (
        sub.vertex_mask, sub.edge_mask, sub.triangle_mask))
    if not verts:
        return mesh_core.OTHER, "path"
    parent = sub.parent
    if not tris:
        return (_is_path(parent, verts, edges) and mesh_core.LINEAR_GRAPH
                or mesh_core.OTHER), "path"

    se = parent.side_edge.tolist()
    cv = parent.corner_vertex.tolist()
    # Disk check.  Every kept vertex and edge must lie in a kept triangle.
    tset = set(tris)
    used_edges = set()
    used_verts = set()
    edge_tri_count = {}
    for t in tris:
        for i in range(3):
            e = se[3 * t + i]
            used_edges.add(e)
            edge_tri_count[e] = edge_tri_count.get(e, 0) + 1
            used_verts.add(cv[3 * t + i])
    if used_edges != set(edges) or used_verts != set(verts):
        return mesh_core.OTHER, "unused"
    if any(c > 2 for c in edge_tri_count.values()):
        return mesh_core.OTHER, "three"

    chi = len(verts) - len(edges) + len(tris)
    if chi != 1:
        return mesh_core.OTHER, "chi"

    # Connectivity over triangles via shared edges.
    edge_tris = {}
    for t in tris:
        for i in range(3):
            edge_tris.setdefault(se[3 * t + i], []).append(t)
    start = tris[0]
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for i in range(3):
            for t2 in edge_tris[se[3 * t + i]]:
                if t2 not in seen:
                    seen.add(t2)
                    queue.append(t2)
    if len(seen) != len(tris):
        return mesh_core.OTHER, "connected"

    # Vertex links: the kept corners around each vertex must be contiguous
    # in the parent corner cycle (one fan), ruling out pinched vertices.
    corners = vertex_corners(parent)
    for v in verts:
        cycle = corners[v]
        flags = [k // 3 in tset for k in cycle]
        runs = sum(1 for i in range(len(flags))
                   if flags[i] and not flags[i - 1])
        if all(flags):
            runs = 1 if flags else 0
        if runs != 1:
            return mesh_core.OTHER, "link"

    # Single boundary cycle follows from chi = 1 once links are fans, but
    # check it anyway: boundary edges with exactly one kept triangle.
    bedges = [e for e, c in edge_tri_count.items() if c == 1]
    if not bedges:
        return mesh_core.OTHER, "boundary"
    adj = {}
    ok = True
    ev = parent.edge_verts.tolist()
    for e in bedges:
        a, b = ev[e]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(nb) != 2 for nb in adj.values()):
        ok = False
    if ok:
        walk = {list(adj)[0]}
        prev, cur = None, list(adj)[0]
        for _ in range(len(bedges)):
            nxt = [w for w in adj[cur] if w != prev]
            nxt = nxt[0] if nxt else adj[cur][0]
            prev, cur = cur, nxt
            walk.add(cur)
        ok = len(walk) == len(adj)
    if not ok:
        return mesh_core.OTHER, "boundary"
    return mesh_core.DISK_TRIANGULATION, "disk"


def _is_path(parent, verts, edges):
    """True when the kept vertices and edges form a simple path."""
    nv = len(verts)
    ne = len(edges)
    if ne != nv - 1:
        return False
    ev = parent.edge_verts.tolist()
    deg = {v: 0 for v in verts}
    for e in edges:
        a, b = ev[e]
        if a == b:
            return False
        deg[a] += 1
        deg[b] += 1
    if any(d > 2 for d in deg.values()):
        return False
    # ne = nv - 1 and max degree 2: a path iff connected.
    if nv == 1:
        return True
    adj = {v: [] for v in verts}
    for e in edges:
        a, b = ev[e]
        adj[a].append(b)
        adj[b].append(a)
    seen = {verts[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == nv
