"""Sequential reference for mesh_core.flip_edges: one flip at a time on
list tables, with edge_sides and edge_verts patched flip by flip.

This is the list kernel that the slot permutation of flip_edges
replaced, kept as the oracle of its tests.  It shares nothing with the
package but the table layout.
"""

from uniformizer.errors import DegenerateFlip


class ListTables:
    """The five tables of a triangulation as plain lists."""

    def __init__(self, glue, side_edge, edge_sides, corner_vertex,
                 edge_verts):
        self.glue = glue
        self.side_edge = side_edge
        self.edge_sides = edge_sides
        self.corner_vertex = corner_vertex
        self.edge_verts = edge_verts

    @classmethod
    def of(cls, tri):
        return cls(tri.glue.tolist(), tri.side_edge.tolist(),
                   [tuple(p) for p in tri.edge_sides.tolist()],
                   tri.corner_vertex.tolist(),
                   [tuple(p) for p in tri.edge_verts.tolist()])


def flip_edge(tab, e):
    """ListTables after replacing edge e by the opposite diagonal of its
    quadrilateral: t1 = (p, q, r) becomes (r, p, r') with sides (b, c, f),
    and t2 = (q', p', r') becomes (r', q, r) with sides (d, a, f)."""
    k1, k2 = tab.edge_sides[e]
    t1, s1 = divmod(k1, 3)
    t2, s2 = divmod(k2, 3)
    if t1 == t2:
        raise DegenerateFlip("both sides of edge %d lie in triangle %d"
                             % (e, t1))

    ka = 3 * t1 + (s1 + 1) % 3
    kb = 3 * t1 + (s1 + 2) % 3
    kc = 3 * t2 + (s2 + 1) % 3
    kd = 3 * t2 + (s2 + 2) % 3
    new_pos = {ka: 3 * t2 + 1, kb: 3 * t1 + 0, kc: 3 * t1 + 1, kd: 3 * t2 + 0}

    glue = list(tab.glue)
    for old, new in new_pos.items():
        partner = tab.glue[old]
        # A quad side may be glued to another quad side (one-vertex
        # torus); route through the relocation map in that case.
        partner = new_pos.get(partner, partner)
        glue[new] = partner
        glue[partner] = new
    glue[3 * t1 + 2] = 3 * t2 + 2
    glue[3 * t2 + 2] = 3 * t1 + 2

    side_edge = list(tab.side_edge)
    for old, new in new_pos.items():
        side_edge[new] = tab.side_edge[old]
    side_edge[3 * t1 + 2] = e
    side_edge[3 * t2 + 2] = e

    edge_sides = list(tab.edge_sides)
    for eid in set(side_edge[3 * t1:3 * t1 + 3] + side_edge[3 * t2:3 * t2 + 3]):
        pos = [k for k in range(3 * t1, 3 * t1 + 3) if side_edge[k] == eid]
        pos += [k for k in range(3 * t2, 3 * t2 + 3) if side_edge[k] == eid]
        if len(pos) == 2:
            edge_sides[eid] = (pos[0], pos[1])
        else:
            # Exactly one side in the quad; the partner is outside.
            edge_sides[eid] = (pos[0], glue[pos[0]])

    cv = list(tab.corner_vertex)
    vp, vq, vr = (tab.corner_vertex[3 * t1 + s1],
                  tab.corner_vertex[3 * t1 + (s1 + 1) % 3],
                  tab.corner_vertex[3 * t1 + (s1 + 2) % 3])
    vrp = tab.corner_vertex[3 * t2 + (s2 + 2) % 3]
    cv[3 * t1:3 * t1 + 3] = [vr, vp, vrp]
    cv[3 * t2:3 * t2 + 3] = [vrp, vq, vr]

    edge_verts = list(tab.edge_verts)
    for eid in set(side_edge[3 * t1:3 * t1 + 3] + side_edge[3 * t2:3 * t2 + 3]):
        k = edge_sides[eid][0]
        t, s = divmod(k, 3)
        edge_verts[eid] = (cv[k], cv[3 * t + (s + 1) % 3])

    return ListTables(glue, side_edge, edge_sides, cv, edge_verts)
