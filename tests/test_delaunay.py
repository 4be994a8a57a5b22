"""Tests for the flip algorithm, Delaunay predicates, and horocycle
distances.

The octahedron distance values come from an explicit upper half plane
development: put one cusp at infinity with its horocycle at height 1;
the four adjacent cusp horocycles lift to diameter-1 circles tangent to
the real line at the integers (distance 0, tangency), and the antipodal
cusp lifts to diameter-1/4 circles at the half integers, giving distance
log 4.
"""

import math
import types

import numpy as np
import pytest

from helpers import is_isomorphic, vertex_corners
import reference_margin as ref
from uniformizer import delaunay, surfaces
from uniformizer.delaunay import (
    ADJUSTED,
    NONESSENTIAL_REL,
    PLAIN,
    _margins,
    _quad,
    check_delaunay,
    delaunay_margin,
    euclidean_delaunay_crosscheck,
    horocycle_distance,
    horocycle_distances_to,
    make_delaunay,
    triangle_inequality_check,
)
from uniformizer.errors import (
    ArcOverflow,
    DegenerateQuad,
    FanInconsistent,
    OutOfDomain,
    SameVertex,
    UnknownVertex,
    WrongLength,
)
from uniformizer.penner import DecoratedMetric, PartialDecoration, fiber_shift


def test_margin_symmetric_case():
    # All arcs are 1: incident terms contribute 4, opposite terms 2.
    metric = surfaces.octahedron_sphere()
    for e in range(metric.triangulation.num_edges):
        assert delaunay_margin(metric, None, e) == pytest.approx(2.0,
                                                                 abs=1e-14)


def test_margin_square_torus_diagonal_is_zero():
    metric = surfaces.square_torus()
    assert delaunay_margin(metric, None, 2) == pytest.approx(0.0, abs=1e-14)
    chk = check_delaunay(metric)
    assert chk.ok
    assert 2 in chk.nonessential


def test_margin_undecorated_incident_vertices_force_flip():
    # With the two vertices incident to e undecorated, only the opposite
    # (negative) terms survive.
    metric = surfaces.octahedron_sphere()
    tri = metric.triangulation
    e = 0
    _, (vp, vq, vr, vrp) = _quad(tri, e)
    u = np.zeros(tri.num_vertices)
    u[vp] = np.inf
    u[vq] = np.inf
    # Keep at least the apexes decorated.
    margin = delaunay_margin(metric, PartialDecoration(u), e)
    assert margin < 0


def test_margin_degenerate_quad():
    from uniformizer import mesh_core
    tri = mesh_core.flip_edge(surfaces.three_vertex_sphere().triangulation, 0)
    metric = DecoratedMetric(tri, np.zeros(3))
    degenerate = [e for e in range(3)
                  if tri.edge_sides[e][0] // 3 == tri.edge_sides[e][1] // 3]
    assert degenerate
    with pytest.raises(DegenerateQuad):
        delaunay_margin(metric, None, degenerate[0])
    assert check_delaunay(metric).skipped == set(degenerate)
    margin, _ = _margins(tri, metric.lam, np.ones(3))
    assert np.all(np.isinf(margin[degenerate]))


def test_margins_match_scalar_reference():
    # The array kernel against the edge-by-edge formula, with zero,
    # finite and partial (+inf) decorations.
    rng = np.random.default_rng(18)
    metrics = [surfaces.random_sphere(6, rng), surfaces.random_sphere(40, rng),
               surfaces.random_sphere(20, rng, (-12.0, 12.0)),
               surfaces.random_torus(1, rng), surfaces.random_torus(25, rng),
               surfaces.genus2_one_vertex()]
    for metric in metrics:
        tri = metric.triangulation
        n = tri.num_vertices
        partial = rng.uniform(-2.0, 2.0, n)
        partial[rng.choice(n, size=n // 2, replace=False)] = np.inf
        for u in (np.zeros(n), rng.uniform(-2.0, 2.0, n), partial):
            uexp = np.exp(-u)
            margin, scale = _margins(tri, metric.lam, uexp)
            for e in range(tri.num_edges):
                m, sc = ref.margin_and_scale(tri, metric.lam, uexp, e)
                assert abs(margin[e] - m) <= 1e-12 * sc
                assert abs(scale[e] - sc) <= 1e-12 * sc


def test_arc_overflow_raises_uniformizer_error():
    base = surfaces.tetrahedron_sphere()
    lam = base.lam.copy()
    lam[0] = 3000.0
    metric = DecoratedMetric(base.triangulation, lam)
    for call in (lambda: check_delaunay(metric),
                 lambda: make_delaunay(metric),
                 lambda: delaunay_margin(metric, None, 1)):
        with pytest.raises(ArcOverflow) as info:
            call()
        assert isinstance(info.value, OverflowError)
    assert triangle_inequality_check(metric) is False


def test_make_delaunay_already_delaunay_is_no_op():
    for metric in (surfaces.octahedron_sphere(), surfaces.one_vertex_torus(),
                   surfaces.genus2_one_vertex()):
        result = make_delaunay(metric)
        assert result.flips == []
        np.testing.assert_array_equal(result.metric.lam, metric.lam)


def test_make_delaunay_random_oracle_and_idempotence():
    # Plain and adjusted runs, on narrow and wide lambda ranges.
    from uniformizer import mesh_core
    rng = np.random.default_rng(11)
    for i in range(64):
        lam_range = (-2.0, 2.0) if i % 4 < 2 else (-15.0, 15.0)
        if i % 2 == 0:
            metric = surfaces.random_sphere(int(rng.integers(4, 20)), rng,
                                            lam_range)
        else:
            metric = surfaces.random_torus(int(rng.integers(1, 20)), rng,
                                           lam_range)
        n = metric.triangulation.num_vertices
        u = np.zeros(n)
        mode = PLAIN
        if i % 8 >= 4 and n > 1:
            # One undecorated vertex, or all but one as in
            # horocycle_distances_to.
            k = 1 if i % 8 < 6 else n - 1
            u[rng.choice(n, size=k, replace=False)] = np.inf
            mode = ADJUSTED
        u = PartialDecoration(u)
        result = make_delaunay(metric, u, mode=mode)
        chk = check_delaunay(result.metric, u)
        assert chk.ok, chk.violations
        assert result.nonessential_edges == chk.nonessential
        assert make_delaunay(result.metric, u, mode=mode).flips == []

        rtri = result.metric.triangulation
        undecorated = set(np.flatnonzero(np.isinf(u.u)).tolist())
        for e in range(rtri.num_edges):
            # Fanned: no edge joins an undecorated vertex to itself, and
            # no nonessential edge is left with an undecorated apex.
            assert not (set(rtri.edge_verts[e]) <= undecorated)
            if e in chk.skipped:
                continue
            _, (_, _, vr, vrp) = _quad(rtri, e)
            if {vr, vrp} & undecorated:
                assert e not in chk.nonessential

        tri, lam = rtri, result.metric.lam.copy()
        for e, before, _ in reversed(result.flips):
            tri = mesh_core.flip_edge(tri, e)
            lam[e] = before
            # Each flip was made on an edge that was violating or
            # nonessential when it was flipped, not on stale margins.
            margin, scale = _margins(tri, lam, np.exp(-u.u))
            assert margin[e] <= NONESSENTIAL_REL * scale[e]
        np.testing.assert_allclose(lam, metric.lam, rtol=0.0, atol=1e-9)
        assert is_isomorphic(tri, metric.triangulation)

        if mode == PLAIN:
            assert triangle_inequality_check(result.metric)
            cross = euclidean_delaunay_crosscheck(result.metric)
            assert cross.consistent, cross.mismatches


def test_flip_log_replay_reverses_exactly():
    # Undo the recorded flips in reverse order; the lambda assignment
    # must come back bitwise to round-off.  The flips change the chart,
    # not the surface: every horocycle keeps its length.
    from uniformizer import mesh_core
    from uniformizer.penner import _log_horocycle_lengths
    rng = np.random.default_rng(12)
    metric = surfaces.random_sphere(12, rng)
    result = make_delaunay(metric)
    assert result.flips
    np.testing.assert_allclose(_log_horocycle_lengths(result.metric),
                               _log_horocycle_lengths(metric),
                               rtol=0, atol=1e-12)
    tri = result.metric.triangulation
    lam = result.metric.lam.copy()
    for e, before, after in reversed(result.flips):
        assert lam[e] == pytest.approx(after, abs=1e-12)
        tri = mesh_core.flip_edge(tri, e)
        lam[e] = before
    np.testing.assert_allclose(lam, metric.lam, atol=1e-10)
    assert is_isomorphic(tri, metric.triangulation)


def _shears(tri, lam):
    # Shear coordinate per edge, sigma_e = (lam_a - lam_b + lam_c - lam_d)/2
    # over the quad sides a, b, c, d around e.
    from uniformizer import mesh_core
    _, _, ka, kb, kc, kd = mesh_core._quad_sides(tri, slice(None))
    la, lb, lc, ld = lam[tri.side_edge[[ka, kb, kc, kd]]]
    return 0.5 * (la - lb + lc - ld)


def test_shear_preserved_by_flip_sequence():
    # The flips change the chart, not the surface.  Replaying the flip
    # log, each flip of e with shear s leaves every shear outside its
    # quad unchanged, negates s, and moves the quad sides by the shear
    # flip law: a and c by +log(1 + e^s), b and d by -log(1 + e^-s).
    from uniformizer import mesh_core
    rng = np.random.default_rng(13)
    metric = surfaces.random_sphere(10, rng)
    result = make_delaunay(metric)
    assert result.flips
    tri = metric.triangulation
    lam = metric.lam.copy()
    for e, before, after in result.flips:
        assert lam[e] == pytest.approx(before, abs=1e-12)
        s_before = _shears(tri, lam)
        s = s_before[e]
        _, _, ka, kb, kc, kd = mesh_core._quad_sides(tri, e)
        expected = s_before.copy()
        np.add.at(expected, tri.side_edge[[ka, kc]], np.log1p(np.exp(s)))
        np.add.at(expected, tri.side_edge[[kb, kd]], -np.log1p(np.exp(-s)))
        expected[e] = -s
        tri = mesh_core.flip_edge(tri, e)
        lam[e] = after
        np.testing.assert_allclose(_shears(tri, lam), expected,
                                   rtol=0, atol=1e-10)
    np.testing.assert_allclose(lam, result.metric.lam, rtol=0, atol=1e-12)


def test_punctured_faces_are_the_triangles_at_each_vertex():
    # With several undecorated vertices, the triangles with a corner at
    # each of them are those of its corner cycle.
    rng = np.random.default_rng(14)
    metric = surfaces.random_sphere(20, rng)
    n = metric.triangulation.num_vertices
    for finite in ([0], [0, 5, 11], list(range(10))):
        u = PartialDecoration.all_infinite_except(n, finite)
        result = make_delaunay(metric, u, mode=ADJUSTED)
        rtri = result.metric.triangulation
        cv = rtri.corner_vertex
        corners = vertex_corners(rtri)
        for v in np.flatnonzero(np.isinf(result.u.u)).tolist():
            assert set((np.flatnonzero(cv == v) // 3).tolist()) \
                == {k // 3 for k in corners[v]}


def test_adjusted_mode_fans_punctured_faces():
    metric = surfaces.three_vertex_sphere()
    tri = metric.triangulation
    u = PartialDecoration(np.array([np.inf, 0.0, 0.0]))
    result = make_delaunay(metric, u, mode=ADJUSTED)
    rtri = result.metric.triangulation
    # Every edge at the undecorated vertex connects it to a decorated one.
    for e, (a, b) in enumerate(rtri.edge_verts):
        if 0 in (a, b):
            assert {a, b} != {0}


def test_adjusted_mode_large_finite_value_reproduces_triangulation():
    # Replacing +inf by a large finite shift must give the same Delaunay
    # triangulation as the true limit.
    from uniformizer import mesh_core
    rng = np.random.default_rng(14)
    metric = surfaces.random_sphere(8, rng)
    n = metric.triangulation.num_vertices
    u = np.zeros(n)
    u[3] = np.inf
    limit = make_delaunay(metric, PartialDecoration(u), mode=ADJUSTED)
    u_fin = np.zeros(n)
    u_fin[3] = 40.0
    finite = make_delaunay(metric, PartialDecoration(u_fin))
    assert is_isomorphic(limit.metric.triangulation,
                                   finite.metric.triangulation)


def test_triangle_inequality_check():
    assert triangle_inequality_check(surfaces.one_vertex_torus())
    bad = surfaces.three_vertex_sphere()
    bad = DecoratedMetric(bad.triangulation, np.array([0.0, 0.0, 10.0]))
    assert not triangle_inequality_check(bad)


def test_crosscheck_flags_violations_in_both_predicates():
    # Lengthening one octahedron edge to exp(1/2) makes it the long
    # diagonal of its quad: both predicates must report it negative.
    base = surfaces.octahedron_sphere()
    lam = base.lam.copy()
    lam[0] = 1.0
    metric = DecoratedMetric(base.triangulation, lam)
    assert triangle_inequality_check(metric)
    assert delaunay_margin(metric, None, 0) < 0
    cross = euclidean_delaunay_crosscheck(metric)
    assert cross.consistent
    chk = check_delaunay(metric)
    assert not chk.ok
    assert any(e == 0 for e, _ in chk.violations)


def test_horocycle_distance_three_vertex_sphere():
    metric = surfaces.three_vertex_sphere()
    # All horocycles are mutually tangent (lambda 0 between every pair).
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert horocycle_distance(metric, a, b) \
            == pytest.approx(0.0, abs=1e-12)


def test_horocycle_distance_octahedron():
    metric = surfaces.octahedron_sphere()
    d = horocycle_distances_to(metric, 0)
    # Vertex 5 is antipodal to vertex 0 in the construction.
    assert d[5] == pytest.approx(math.log(4.0), abs=1e-12)
    for v in (1, 2, 3, 4):
        assert d[v] == pytest.approx(0.0, abs=1e-12)


def test_horocycle_distance_symmetry():
    rng = np.random.default_rng(16)
    for _ in range(5):
        metric = surfaces.random_sphere(8, rng)
        n = metric.triangulation.num_vertices
        a, b = rng.choice(n, size=2, replace=False)
        d1 = horocycle_distance(metric, int(a), int(b))
        d2 = horocycle_distance(metric, int(b), int(a))
        assert d1 == pytest.approx(d2, abs=1e-10)


def test_horocycle_distance_shift_covariance():
    rng = np.random.default_rng(17)
    metric = surfaces.random_sphere(7, rng)
    n = metric.triangulation.num_vertices
    u = rng.uniform(-2, 2, n)
    shifted = fiber_shift(metric, u)
    for _ in range(5):
        a, b = rng.choice(n, size=2, replace=False)
        d0 = horocycle_distance(metric, int(a), int(b))
        d1 = horocycle_distance(shifted, int(a), int(b))
        assert d1 == pytest.approx(d0 + u[a] + u[b], abs=1e-10)


def _horocycle_distances_loop(metric, v2):
    """The edge loop horocycle_distances_to replaced, kept as its oracle."""
    tri = metric.triangulation
    u = PartialDecoration.all_infinite_except(tri.num_vertices, [v2])
    result = delaunay.make_delaunay(metric, u, mode=ADJUSTED)
    rtri = result.metric.triangulation
    lam = result.metric.lam
    candidates = {}
    for e, (a, b) in enumerate(rtri.edge_verts.tolist()):
        if a == v2 and b != v2:
            candidates.setdefault(b, []).append(lam[e])
        elif b == v2 and a != v2:
            candidates.setdefault(a, []).append(lam[e])
    out = {}
    for w, vals in candidates.items():
        spread = max(vals) - min(vals)
        if spread > 1e-9 * max(1.0, max(abs(x) for x in vals)):
            raise FanInconsistent(
                "fan edges at vertex %d disagree by %g" % (w, spread))
        out[w] = vals[0]
    for w in range(tri.num_vertices):
        if w != v2 and w not in out:
            raise FanInconsistent("no edge from %d to %d after adjusting"
                                  % (w, v2))
    return out


def _distances_outcome(metric, v2):
    """(dict, None) of both implementations, or (None, message)."""
    outcomes = []
    for run in (horocycle_distances_to, _horocycle_distances_loop):
        try:
            out = run(metric, v2)
        except FanInconsistent as exc:
            outcomes.append((None, str(exc)))
        else:
            assert all(type(w) is int for w in out)
            outcomes.append((list(out.items()), None))
    return outcomes


@pytest.mark.parametrize("genus", [0, 1])
def test_horocycle_distances_match_edge_loop(genus):
    rng = np.random.default_rng(40 + genus)
    for n in (1, 2, 5, 9, 17, 33, 60):
        if genus == 0:
            metric = surfaces.random_sphere(max(n, 4), rng, (-3.0, 3.0))
        else:
            metric = surfaces.random_torus(n, rng, (-3.0, 3.0))
        v2 = int(rng.integers(metric.triangulation.num_vertices))
        new, old = _distances_outcome(metric, v2)
        assert new == old and old[1] is None


def test_horocycle_distances_errors_match_edge_loop(monkeypatch):
    # Skip the flips: the vertex of a split one-vertex torus keeps three
    # edges to vertex 0 with different lambdas, and most vertices of a
    # sphere have no edge to vertex 0.  Both raise FanInconsistent, a
    # UniformizerError, with the same message.
    monkeypatch.setattr(delaunay, "make_delaunay",
                        lambda metric, u, mode: types.SimpleNamespace(
                            metric=metric))
    rng = np.random.default_rng(42)
    messages = set()
    for metric in (surfaces.random_torus(2, rng),
                   surfaces.random_torus(20, rng),
                   surfaces.random_sphere(30, rng)):
        new, old = _distances_outcome(metric, 0)
        assert new == old and old[0] is None
        messages.add(old[1].split()[0])
    assert messages == {"fan", "no"}


@pytest.mark.parametrize("length", [5, 7], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda m, u: make_delaunay(m, u),
    lambda m, u: make_delaunay(m, u, mode=ADJUSTED),
    lambda m, u: check_delaunay(m, u),
    lambda m, u: delaunay_margin(m, u, 0),
], ids=["make_delaunay", "make_delaunay_adjusted", "check_delaunay",
        "delaunay_margin"])
def test_decoration_of_wrong_length_rejected(call, length):
    # Checked before any flip, so a long u cannot be read only in part.
    u = np.zeros(length)
    u[3] = np.inf
    with pytest.raises(WrongLength, match="for 6 vertices"):
        call(surfaces.octahedron_sphere(), PartialDecoration(u))


@pytest.mark.parametrize("call", [
    lambda m, u: make_delaunay(m, u).metric.lam,
    lambda m, u: make_delaunay(m, u, mode=ADJUSTED).metric.lam,
    lambda m, u: check_delaunay(m, u).violations,
    lambda m, u: delaunay_margin(m, u, 0),
], ids=["make_delaunay", "make_delaunay_adjusted", "check_delaunay",
        "delaunay_margin"])
def test_decoration_may_be_an_array(call):
    # An array is wrapped as a PartialDecoration: the same result, and
    # OutOfDomain (not AttributeError) for NaN and -inf entries.
    rng = np.random.default_rng(8)
    metric = surfaces.random_sphere(12, rng, (-2.0, 2.0))
    u = rng.uniform(-1.0, 1.0, 12)
    u[0] = np.inf
    expect = call(metric, PartialDecoration(u))
    assert np.array_equal(call(metric, u.copy()), expect)
    assert np.array_equal(call(metric, list(u)), expect)
    for value in (np.nan, -np.inf):
        u[3] = value
        with pytest.raises(OutOfDomain):
            call(metric, u)


def test_horocycle_distance_errors():
    metric = surfaces.three_vertex_sphere()
    with pytest.raises(SameVertex):
        horocycle_distance(metric, 1, 1)
    with pytest.raises(UnknownVertex):
        horocycle_distance(metric, 5, 0)
    with pytest.raises(UnknownVertex):
        horocycle_distances_to(metric, 7)


def test_flip_state_stays_contiguous_and_matches_a_fresh_scan():
    # The rounds update the terms of the flipped triangles and the margins
    # of their edges in place; they must stay C-ordered (a strided copy
    # of a whole table would cost O(T) per round) and equal, bit for bit,
    # the terms and margins computed afresh from the final tables.
    rng = np.random.default_rng(4)
    metric = surfaces.random_sphere(60, rng, (-4.0, 4.0))
    uexp = np.exp(-rng.uniform(-1.0, 1.0, 60))
    flips = []
    with np.errstate(over="ignore", invalid="ignore"):
        state = delaunay._FlipState(metric.triangulation, metric.lam.copy(),
                                    uexp)
        delaunay._flip_rounds(
            state, lambda st, tol: (st.margin < -tol).nonzero()[0], flips,
            10 ** 6)
        opposite, total = delaunay._triangle_terms(state, state.lam, uexp)
        margin, scale = delaunay._edge_terms(state.edge_sides, opposite,
                                             total)
    assert len(flips) > 10
    for name in ("glue", "side_edge", "corner_vertex", "edge_sides", "lam",
                 "opposite", "total", "margin", "scale"):
        assert getattr(state, name).flags.c_contiguous, name
    assert state.opposite.shape == (3 * metric.triangulation.num_triangles,)
    for got, want in ((state.opposite, opposite), (state.total, total),
                      (state.margin, margin), (state.scale, scale)):
        assert got.tobytes() == want.tobytes()
