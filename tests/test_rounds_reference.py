"""make_delaunay against the scan-every-round reference loop: the
in-place flip state must take the same flips in the same rounds and
leave bitwise the same lambdas and tables, or raise the same error."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import reference_rounds as ref
from uniformizer import delaunay, surfaces
from uniformizer.delaunay import ADJUSTED, PLAIN, make_delaunay
from uniformizer.errors import ArcOverflow, FlipLimitExceeded
from uniformizer.penner import DecoratedMetric, PartialDecoration


def _decoration(kind, n, rng):
    """Plain zeros, finite values, or +inf at one vertex, about half of
    them, or all but one (the horocycle-distance setting)."""
    if kind == "zero":
        return np.zeros(n)
    u = rng.uniform(-2.0, 2.0, n)
    k = {"finite": 0, "one": 1, "half": n // 2, "horocycle": n - 1}[kind]
    u[rng.choice(n, size=min(k, n - 1), replace=False)] = np.inf
    return u


def _outcome(run):
    # RuntimeWarning: a margin term 2 A overflows although S is finite
    # (raised as an error by the test settings); the reference goes on
    # with a margin of -inf, where make_delaunay raises ArcOverflow.
    try:
        return run()
    except (ArcOverflow, FlipLimitExceeded, RuntimeWarning) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(genus=st.sampled_from([0, 1]), n=st.integers(1, 30),
       seed=st.integers(0, 2 ** 16), width=st.sampled_from([1.0, 4.0, 12.0]),
       kind=st.sampled_from(["zero", "finite", "one", "half", "horocycle"]),
       mode=st.sampled_from([PLAIN, ADJUSTED]),
       spike=st.sampled_from([None, None, 30.0, 1418.0, 3000.0]),
       limit=st.sampled_from([None, None, 0, 3, 20, 300]))
def test_make_delaunay_matches_reference_rounds(genus, n, seed, width, kind,
                                                mode, spike, limit):
    rng = np.random.default_rng(seed)
    if genus == 0:
        metric = surfaces.random_sphere(max(n, 4), rng, (-width, width))
    else:
        metric = surfaces.random_torus(n, rng, (-width, width))
    if spike is not None:
        # One large lambda: a long flip chain, cut by the flip limit, or
        # arcs that overflow at once (3000) or after some flips (1418).
        limit = 300 if limit is None else limit
        lam = metric.lam.copy()
        lam[int(rng.integers(len(lam)))] = spike
        metric = DecoratedMetric(metric.triangulation, lam)
    tri = metric.triangulation
    u = PartialDecoration(_decoration(kind, tri.num_vertices, rng))

    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(delaunay, "MAX_FLIPS_PER_EDGE", 0)
            mp.setattr(delaunay, "MAX_FLIPS_EXTRA", limit)
        got = _outcome(lambda: make_delaunay(metric, u, mode))
        want = _outcome(lambda: ref.make_delaunay(metric, u, mode))
    if isinstance(want, type):
        event(want.__name__)
        assert got is (ArcOverflow if want is RuntimeWarning else want)
        return
    assert not isinstance(got, type), got
    rtri, lam, flips, nonessential, punctured = want
    gtri = got.metric.triangulation
    assert got.flips == flips
    np.testing.assert_array_equal(got.metric.lam, lam)
    for table in ("glue", "side_edge", "corner_vertex", "edge_sides"):
        np.testing.assert_array_equal(getattr(gtri, table),
                                      getattr(rtri, table))
    assert got.nonessential_edges == nonessential
    assert got.punctured_faces == punctured


def test_overflowing_margin_term_raises_arc_overflow():
    # One lambda of 1418 on a four-vertex sphere: every arc, and so every
    # scale, stays finite, but twice the largest arc overflows.  With the
    # warning ignored the reference would take that margin as -inf and
    # flip the edge.
    rng = np.random.default_rng(0)
    metric = surfaces.random_sphere(4, rng, (-1.0, 1.0))
    lam = metric.lam.copy()
    lam[int(rng.integers(len(lam)))] = 1418.0
    metric = DecoratedMetric(metric.triangulation, lam)
    ones = np.ones(metric.triangulation.num_vertices)
    with np.errstate(over="ignore"):
        margin, scale = ref._margins(metric.triangulation, lam, ones)
    assert np.isfinite(scale).all() and np.isneginf(margin).any()
    with pytest.raises(RuntimeWarning, match="overflow"):
        ref.make_delaunay(metric)
    with pytest.raises(ArcOverflow):
        delaunay._margins(metric.triangulation, lam, ones)
    with pytest.raises(ArcOverflow):
        make_delaunay(metric)
