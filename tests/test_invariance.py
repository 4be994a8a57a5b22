"""The solved outputs do not depend on how the input is labelled or
triangulated: relabelling the triangles (and rotating their sides), or
Ptolemy-flipping random disjoint edges, describes the same decorated
surface, so the torus modulus, the sphere's status, faces and u agree to
round-off."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_flips, relabelled
from uniformizer import realize, surfaces

TRANSFORMS = {
    "relabel": relabelled,
    "flips": lambda metric, rng: random_flips(metric, rng,
                                              int(rng.integers(1, 4))),
}
# Round-off moves tau by about 3e-14 and u by about 1.4e-14 under either
# transform; the bound leaves a margin above that.
TOL = 1e-12


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
    """(status, faces as vertex sets, u_final), or the error class."""
    try:
        real = realize.uniformize_sphere(metric, 0)
    except Exception as exc:  # compared by class below
        return type(exc), None, None
    faces = sorted(tuple(sorted(f)) for f in real.faces)
    return real.report.status, faces, real.report.u_final


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
    for metric, (status, faces, u) in zip(_spheres(), _sphere_outcomes()):
        got = _sphere_outcome(TRANSFORMS[transform](metric, rng))
        assert got[:2] == (status, faces)
        if u is not None:
            # u is +inf at v_inf in both.
            np.testing.assert_allclose(got[2], u, rtol=0, atol=TOL)
