import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcurve import (Ball, DiscreteSphericalMeasure, Ellipsoid,
                       GeometryError, HPolytope, SolverConfig, VPolytope, body_from_dict,
                       convex_hull_of_radial, dual_curvature, polar,
                       solve_dual_minkowski, sphere_rule, wulff_polar_identity_check,
                       wulff_shape)
from dualcurve.body_core import (SAME_DIRECTION, SmoothBody, _hausdorff, _merge_points,
                                 _PolarHull, direction_pairs, match_directions)

from conftest import axis_box, cube, random_even_measure, random_symmetric_polytope

SQRT2 = 1.4142135623730951


def test_all_names_the_package_binds_once():
    import types

    import dualcurve
    public = {name for name, value in vars(dualcurve).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dualcurve.__all__) == len(set(dualcurve.__all__))
    assert set(dualcurve.__all__) == public


def test_no_public_name_takes_a_tolerance():
    # tolerances are module constants; the solver's stopping tolerance is
    # the one a caller sets
    import inspect

    import dualcurve
    for name in dualcurve.__all__:
        value = getattr(dualcurve, name)
        if inspect.isclass(value):
            funcs = [(f"{name}.{attr}", f) for attr, f in inspect.getmembers(
                value, lambda f: inspect.isfunction(f) or inspect.ismethod(f))]
        else:
            funcs = [(name, value)] if callable(value) else []
        for where, f in funcs:
            if where != "SolverConfig.__init__":
                assert not set(inspect.signature(f).parameters) & {"tol", "tie_tol"}, where


@pytest.mark.parametrize("make", [cube, lambda: VPolytope(cube().vertices),
                                  lambda: Ball(1.0, 3), lambda: Ellipsoid([1.0, 2.0, 3.0])],
                         ids=["hpolytope", "vpolytope", "ball", "ellipsoid"])
def test_maps_refuse_directions_of_another_dimension(make):
    body = make()
    maps = [body.support, body.radial]
    if isinstance(body, SmoothBody):
        maps.append(body.curvature_det)
    for f in maps:
        for u in ([1.0, 0.0], [[1.0, 0.0]] * 2, [0.5, 0.5, 0.5, 0.5], 1.0):
            with pytest.raises(GeometryError, match="3 coordinates"):
                f(u)


def test_polytope_maps_take_one_direction_or_a_batch(rng):
    # one broadcast expression: a row of the batch gives the single value
    p = random_symmetric_polytope(rng, pairs=6)
    u = rng.normal(size=(9, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = VPolytope(p.vertices)
    for f in (p.support, p.radial, v.support, v.radial):
        batch = f(u)
        assert batch.shape == (9,)
        for k in range(9):
            single = f(u[k])
            assert isinstance(single, float)
            assert single == pytest.approx(batch[k], rel=1e-13)
    np.testing.assert_allclose(v.support(u), p.support(u), rtol=1e-12)
    with pytest.raises(GeometryError, match="finite unit vectors"):
        p.support(np.array([[1.0, 0, 0], [np.nan, 0, 0]]))


def test_cube_basic_geometry():
    p = cube()
    assert p.dim == 3
    assert p.symmetric
    assert len(p.vertices) == 8
    assert p.active.all()
    assert p.volume() == pytest.approx(8.0, abs=1e-12)
    np.testing.assert_allclose(np.sort(np.abs(p.vertices).ravel()), 1.0)
    assert p.support(np.array([1.0, 0, 0])) == pytest.approx(1.0)
    assert p.support(np.array([1, 1, 1]) / np.sqrt(3)) == pytest.approx(np.sqrt(3))
    assert p.radial(np.array([1.0, 0, 0])) == pytest.approx(1.0)
    assert p.radial(np.array([1, 1, 1]) / np.sqrt(3)) == pytest.approx(np.sqrt(3))


def test_normals_must_be_unit():
    with pytest.raises(GeometryError):
        HPolytope(np.array([[2.0, 0], [0, 1], [-1, 0], [0, -1]]), np.ones(4))


def test_offsets_must_be_positive():
    vs = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    with pytest.raises(GeometryError):
        HPolytope(vs, np.array([1.0, 1.0, -0.5, 1.0]))


def test_unbounded_rejected():
    # all normals in the upper half plane
    vs = np.array([[0.0, 1], [np.sin(0.3), np.cos(0.3)], [-np.sin(0.3), np.cos(0.3)]])
    with pytest.raises(GeometryError):
        HPolytope(vs, np.ones(3))


def test_inactive_facet_flagged_not_dropped():
    vs = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / SQRT2])
    hs = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
    p = HPolytope(vs, hs)
    assert len(p.normals) == 5
    assert list(p.active) == [True, True, True, True, False]
    assert p.facet_areas[4] == 0.0


def test_scale_and_with_offsets():
    p = cube()
    q = p.scale(2.5)
    assert q.volume() == pytest.approx(8 * 2.5**3)
    with pytest.raises(GeometryError):
        p.scale(0.0)
    r = p.with_offsets(p.offsets * 3.0)
    assert r.volume() == pytest.approx(8 * 27)


def test_symmetric_detection_and_validation():
    vs = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    assert HPolytope(vs, np.ones(4)).symmetric
    assert not HPolytope(vs, np.array([1.0, 1, 2, 1])).symmetric
    # a triangle: no normal has a mirror
    tri = np.array([[0.0, 1], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]])
    assert not HPolytope(tri, np.ones(3)).symmetric


def test_vpolytope_prunes_interior_points():
    pts = np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1], [0.2, 0.1], [0.5, 0.5]])
    v = VPolytope(pts)
    assert len(v.vertices) == 4
    assert v.volume() == pytest.approx(4.0)


def test_vpolytope_requires_interior_origin():
    with pytest.raises(GeometryError):
        VPolytope(np.array([[1.0, 0], [2, 0], [1, 1]]))


def test_vpolytope_hpolytope_round_trip():
    p = cube()
    v = VPolytope(p.vertices.copy())
    h = v.to_hpolytope()
    assert h.volume() == pytest.approx(8.0)
    u = np.array([0.3, -0.5, 0.81])
    u /= np.linalg.norm(u)
    assert h.radial(u) == pytest.approx(v.radial(u))


def test_polar_square_is_diamond():
    sq = cube(dim=2)
    d = polar(sq)
    assert isinstance(d, VPolytope)
    got = np.sort(np.round(d.vertices, 12).tolist())
    np.testing.assert_allclose(
        np.sort(np.abs(d.vertices).sum(axis=1)), 1.0, atol=1e-12)
    assert len(d.vertices) == 4


def test_polar_involution_on_cube():
    p = cube()
    back = polar(polar(p))
    u = np.array([0.48, -0.6, 0.2])
    u /= np.linalg.norm(u)
    assert back.radial(u) == pytest.approx(p.radial(u), rel=1e-12)


def test_polar_support_radial_reciprocity(rng):
    p = random_symmetric_polytope(rng, pairs=6)
    ps = polar(p)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert p.radial(u) * ps.support(u) == pytest.approx(1.0, abs=1e-10)
        assert p.support(u) * ps.radial(u) == pytest.approx(1.0, abs=1e-10)


def test_polar_smooth_bodies():
    b = Ball(2.0, 3)
    assert polar(b).radius == pytest.approx(0.5)
    e = Ellipsoid(np.array([1.0, 2.0, 4.0]))
    np.testing.assert_allclose(polar(e).axes, [1.0, 0.5, 0.25])


def test_wulff_shape_bounds():
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    w = wulff_shape(dirs, np.ones(6))
    assert w.volume() == pytest.approx(8.0)
    with pytest.raises(GeometryError):
        wulff_shape(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]), np.ones(3))


def test_wulff_polar_identity_random(rng):
    for _ in range(10):
        k = int(rng.integers(6, 14))
        dirs = rng.normal(size=(k, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if not np.linalg.matrix_rank(dirs) == 3:
            continue
        try:
            h = rng.uniform(0.5, 2.0, size=k)
            ok, disc = wulff_polar_identity_check(dirs, h)
        except GeometryError:
            continue
        assert ok, f"polar/hull mismatch {disc}"
        assert disc <= 1e-9


def test_convex_hull_of_radial_requires_positive():
    dirs = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(GeometryError):
        convex_hull_of_radial(dirs, np.array([1.0, 1.0, -1.0, 1.0]))


def test_radial_sum_ball():
    # the radial function of the radial sum with a ball of radius t is
    # rho + t
    p = cube()
    u = np.array([1.0, 0, 0])
    assert p.radial(u) + 0.5 == pytest.approx(1.5)


def test_ball_closed_forms():
    b = Ball(1.5, 3)
    v = np.array([0.0, 0.0, 1.0])
    assert b.support(v) == pytest.approx(1.5)
    assert b.radial(v) == pytest.approx(1.5)
    np.testing.assert_allclose(b.grad_support(v), 1.5 * v)
    assert b.curvature_det(v) == pytest.approx(1.5**2)


def test_ellipsoid_closed_forms():
    e = Ellipsoid(np.array([2.0, 1.0]))
    v = np.array([1.0, 1.0]) / SQRT2
    # h = sqrt(sum a_i^2 v_i^2)
    assert e.support(v) == pytest.approx(np.sqrt(2.5))
    g = e.grad_support(v)
    np.testing.assert_allclose(g, np.array([4.0, 1.0]) / SQRT2 / np.sqrt(2.5))
    # boundary point: sum (x_i/a_i)^2 = 1
    assert (g[0] / 2.0) ** 2 + g[1] ** 2 == pytest.approx(1.0)
    # radial at u solves rho^2 sum u_i^2/a_i^2 = 1
    assert e.radial(v) == pytest.approx(1.0 / np.sqrt(0.5 / 4 + 0.5))


def test_ellipsoid_curvature_det_against_ball():
    e = Ellipsoid(np.array([2.0, 2.0, 2.0]))
    b = Ball(2.0, 3)
    for v in np.eye(3):
        assert isinstance(b.curvature_det(v), float)
        assert e.curvature_det(v) == pytest.approx(b.curvature_det(v))
    # a batch of k directions gives k values on both
    assert b.curvature_det(np.eye(3)).shape == (3,)
    np.testing.assert_allclose(e.curvature_det(np.eye(3)), b.curvature_det(np.eye(3)))


def test_json_round_trip_exact():
    p = random_symmetric_polytope(np.random.default_rng(7), pairs=5)
    d1 = p.to_dict()
    p2 = body_from_dict(json.loads(json.dumps(d1)))
    np.testing.assert_array_equal(p2.offsets, p.offsets)
    v = VPolytope(p.vertices.copy())
    d2 = v.to_dict()
    v2 = body_from_dict(json.loads(json.dumps(d2)))
    np.testing.assert_array_equal(v2.vertices, v.vertices)


def test_body_from_dict_rejects_unknown():
    with pytest.raises(GeometryError):
        body_from_dict({"type": "simplex", "dim": 2})


def test_duplicate_normals_rejected():
    vs = np.vstack([np.eye(2), -np.eye(2), np.eye(2)[:1]])
    with pytest.raises(GeometryError):
        HPolytope(vs, np.ones(5))
    with pytest.raises(GeometryError):
        wulff_shape(vs, np.ones(5))


def _antipodes_pairwise(dirs, tol):
    """The (m, m) reference for the antipode index of direction_pairs."""
    d = np.linalg.norm(dirs[None, :, :] + dirs[:, None, :], axis=2)
    j = d.argmin(axis=1)
    return None if (d[np.arange(len(dirs)), j] > tol).any() else j


def _close_pair_pairwise(dirs, tol):
    """The (m, m) reference for the close-pair test of direction_pairs."""
    gap = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
    np.fill_diagonal(gap, np.inf)
    return bool(gap.min() <= tol)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_kd_tree_queries_match_pairwise_arrays(seed, dim):
    rng = np.random.default_rng(seed)
    tol = SAME_DIRECTION
    v = rng.normal(size=(int(rng.integers(1, 60)), dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    base = np.vstack([v, -v])
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        # move one antipode, and add a near twin of one direction, by just
        # inside or just outside tol
        t = rng.normal(size=dim)
        t *= factor * tol / np.linalg.norm(t)
        k = int(rng.integers(len(v)))
        dirs = base.copy()
        dirs[len(v) + k] += t
        want = _antipodes_pairwise(dirs, tol)
        close, got = direction_pairs(dirs)
        assert (got is None) == (want is None) == (factor > 1.0)
        if want is not None:
            np.testing.assert_array_equal(got, want)
            mu = DiscreteSphericalMeasure(dirs, np.ones(len(dirs)))
            np.testing.assert_array_equal(mu.antipode, want)
        assert not close and not _close_pair_pairwise(dirs, tol)
        twins = np.vstack([dirs, dirs[k] + t])
        close, _ = direction_pairs(twins)
        assert close == _close_pair_pairwise(twins, tol) == (factor < 1.0)
        if factor < 1.0:
            with pytest.raises(GeometryError, match="pairwise distinct"):
                DiscreteSphericalMeasure(twins, np.ones(len(twins)))


def _merge_points_pairwise(pts, tol):
    """The (N, N) reference for the greedy dedupe of _merge_points."""
    close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= tol
    keep = []
    absorbed = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if absorbed[i]:
            continue
        keep.append(i)
        absorbed |= close[i]
    return pts[keep]


def _hausdorff_pairwise(a, b):
    """The (a, b) distance-matrix reference for _hausdorff."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_point_matchers_match_pairwise_arrays(seed, dim):
    rng = np.random.default_rng(seed)
    tol = 1e-9
    pts = rng.normal(size=(int(rng.integers(2, 60)), dim))
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        # twins moved by just inside or just outside tol, and a chain of
        # points tol / 2 apart, in random order
        t = rng.normal(size=dim)
        t *= factor * tol / np.linalg.norm(t)
        k = int(rng.integers(len(pts)))
        chain = pts[k] + np.array([0.5, 1.0, 1.5])[:, None] * t
        cloud = np.vstack([pts, pts[:5] + t, chain])
        cloud = cloud[rng.permutation(len(cloud))]
        np.testing.assert_array_equal(_merge_points(cloud, tol), _merge_points_pairwise(cloud, tol))
        other = rng.normal(size=(int(rng.integers(1, 40)), dim))
        other[0] = pts[k] + t
        assert _hausdorff(pts, other) == _hausdorff_pairwise(pts, other)
        assert _hausdorff(other, pts) == _hausdorff_pairwise(other, pts)


def test_matchers_include_points_exactly_tol_away():
    # b is SAME_DIRECTION from a, c one float farther
    assert SAME_DIRECTION == 1e-9
    a, b = np.array([[0.0, 0.0]]), np.array([[1e-9, 0.0]])
    c = np.array([[np.nextafter(1e-9, np.inf), 0.0]])
    np.testing.assert_array_equal(match_directions(a, b), [0])
    np.testing.assert_array_equal(match_directions(b, a), [0])
    assert len(_merge_points(np.vstack([a, b]), 1e-9)) == 1
    np.testing.assert_array_equal(match_directions(a, c), [-1])
    np.testing.assert_array_equal(match_directions(c, a), [-1])
    assert len(_merge_points(np.vstack([a, c]), 1e-9)) == 2
    # greedy: an absorbed point absorbs nothing, so the chain's third point,
    # within tol of the second only, is kept
    chain = np.array([[0.0, 0.0], [6e-10, 0.0], [1.2e-9, 0.0]])
    np.testing.assert_array_equal(_merge_points(chain, 1e-9), chain[[0, 2]])


def test_match_directions_picks_the_nearest_within_tol():
    b = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    a = np.array([[0.0, 1.0 + 4e-10], [1e-10, 1.0], [0.6, 0.8], [-1.0, 3e-10]])
    np.testing.assert_array_equal(match_directions(a, b), [1, 1, -1, 2])
    np.testing.assert_array_equal(match_directions(a, b[:0]), [-1] * 4)
    assert match_directions(a[:0], b).shape == (0,)


def test_vpolytope_refuses_non_finite_points():
    pts = np.array([[1.0, 0], [-1, 1], [-1, -1], [np.inf, 0]])
    with pytest.raises(GeometryError, match="finite"):
        VPolytope(pts)
    pts[-1, 0] = np.nan
    with pytest.raises(GeometryError, match="finite"):
        VPolytope(pts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.25, 4.0))
def test_support_radial_scaling_property(seed, lam):
    r = np.random.default_rng(seed)
    p = random_symmetric_polytope(r, dim=2, pairs=4)
    u = r.normal(size=2)
    u /= np.linalg.norm(u)
    q = p.scale(lam)
    assert q.support(u) == pytest.approx(lam * p.support(u), rel=1e-10)
    assert q.radial(u) == pytest.approx(lam * p.radial(u), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_polar_reciprocity_property(seed):
    r = np.random.default_rng(seed)
    p = random_symmetric_polytope(r, dim=3, pairs=5, require_all_active=False)
    u = r.normal(size=3)
    u /= np.linalg.norm(u)
    assert p.radial(u) * polar(p).support(u) == pytest.approx(1.0, abs=1e-9)


# -- refusals: no QhullError leaves the package ------------------------------

FLAT_POINTS = {
    2: np.array([[-1.0, 0], [1, 0], [2, 0]]),
    3: np.array([[-1.0, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]]),
}
HEMISPHERE_NORMALS = {
    2: np.array([[1.0, 0], [-1, 0], [0, 1]]),
    3: np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]),
}
# the origin on an edge (2-d) or a facet (3-d) of the hull
BOUNDARY_POINTS = {
    2: np.array([[-1.0, 0], [1, 0], [1, 1], [-1, 1]]),
    3: np.array([[x, y, z] for x in (-1.0, 1) for y in (-1.0, 1) for z in (0.0, 1)]),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_flat_point_sets_refused(dim):
    with pytest.raises(GeometryError):
        VPolytope(FLAT_POINTS[dim])
    with pytest.raises(GeometryError):
        VPolytope(FLAT_POINTS[dim], assume_extreme=True).to_hpolytope()


@pytest.mark.parametrize("dim", [2, 3])
def test_normals_in_closed_hemisphere_refused(dim):
    normals = HEMISPHERE_NORMALS[dim]
    h = np.ones(len(normals))
    with pytest.raises(GeometryError):
        HPolytope(normals, h)
    with pytest.raises(GeometryError):
        wulff_shape(normals, h)
    with pytest.raises(GeometryError):
        convex_hull_of_radial(normals, h)


@pytest.mark.parametrize("dim", [2, 3])
def test_origin_on_boundary_refused(dim):
    pts = BOUNDARY_POINTS[dim]
    with pytest.raises(GeometryError):
        VPolytope(pts)
    with pytest.raises(GeometryError):
        VPolytope(pts, assume_extreme=True).to_hpolytope()


CROSS_4D = np.vstack([np.eye(4), -np.eye(4)])


@pytest.mark.parametrize("build", [
    lambda: HPolytope(CROSS_4D, np.ones(8)),  # the 4-cube
    lambda: VPolytope(CROSS_4D),  # the 4-d cross-polytope
    lambda: VPolytope(CROSS_4D, assume_extreme=True),
    lambda: Ball(1.0, 4),
    lambda: Ball(1.0, 1),
    lambda: Ellipsoid(np.array([1.0, 2.0, 3.0, 4.0])),
    lambda: sphere_rule(4, 10),
], ids=["hpolytope-4", "vpolytope-4", "vpolytope-4-deferred", "ball-4", "ball-1",
        "ellipsoid-4", "sphere-rule-4"])
def test_dimensions_other_than_2_and_3_refused(build):
    with pytest.raises(GeometryError):
        build()


# -- hull geometry -------------------------------------------------------


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _assert_q_n_atoms_are_cone_volumes(p):
    cone = p.offsets * p.facet_areas / p.dim
    atoms = dual_curvature(p, float(p.dim)).weights
    np.testing.assert_allclose(atoms, cone, rtol=1e-12, atol=1e-12 * cone.sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_hull_geometry_with_inactive_halfspaces(seed, extra):
    r = np.random.default_rng(seed)
    base = random_symmetric_polytope(r, dim=3, pairs=int(r.integers(4, 8)),
                                     require_all_active=False)
    # extra halfspaces past the body's support never touch it
    v = r.normal(size=(extra, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h = np.array([base.support(w) for w in v]) * r.uniform(1.02, 1.5, size=extra)
    p = HPolytope(np.vstack([base.normals, v]), np.concatenate([base.offsets, h]))
    assert not p.active[-extra:].any()
    gap = np.linalg.norm(p.vertices[:, None] - base.vertices[None], axis=2)
    assert len(p.vertices) == len(base.vertices)
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12
    _assert_q_n_atoms_are_cone_volumes(p)
    assert p.volume() == pytest.approx(VPolytope(p.vertices).volume(), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_hull_geometry_octahedron(seed, s):
    # four facets meet at every vertex
    turn = _rotation(np.random.default_rng(seed))
    normals = np.array([[a, b, c] for a in (-1.0, 1) for b in (-1.0, 1) for c in (-1.0, 1)])
    p = HPolytope(normals / math.sqrt(3) @ turn.T, np.full(8, s / math.sqrt(3)))
    assert len(p.vertices) == 6
    assert all(len(p.facet_vertices(i)) == 3 for i in range(8))
    np.testing.assert_allclose(p.facet_areas, math.sqrt(3) / 2 * s**2, rtol=1e-14)
    assert p.volume() == pytest.approx(4.0 / 3.0 * s**3, rel=1e-14)
    _assert_q_n_atoms_are_cone_volumes(p)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_hull_geometry_cube_with_face_centres(seed, s):
    # the face centres are coplanar with the faces and are no vertices
    turn = _rotation(np.random.default_rng(seed))
    corners = np.array([[a, b, c] for a in (-1.0, 1) for b in (-1.0, 1) for c in (-1.0, 1)])
    pts = np.vstack([corners, np.eye(3), -np.eye(3)]) * s @ turn.T
    v = VPolytope(pts)
    assert len(v.vertices) == 8
    p = v.to_hpolytope()
    assert len(p.normals) == 6
    assert all(len(p.facet_vertices(i)) == 4 for i in range(6))
    assert p.volume() == pytest.approx(8.0 * s**3, rel=1e-14)
    _assert_q_n_atoms_are_cone_volumes(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
       st.booleans())
def test_hull_geometry_thin_boxes(seed, half, turned):
    half = np.array(half)
    if turned:
        # a turned box's vertices carry rounding of order its longest side,
        # so keep the aspect ratio below 100 there
        half = np.clip(half, 0.1 * half.max(), None)
        p = axis_box(-half, half)
        p = HPolytope(p.normals @ _rotation(np.random.default_rng(seed)).T, p.offsets)
    else:
        p = axis_box(-half, half)
    assert len(p.vertices) == 8
    assert p.volume() == pytest.approx(8.0 * np.prod(half), rel=1e-14)
    _assert_q_n_atoms_are_cone_volumes(p)


# -- trial bodies on an iterate's lattice ----------------------------------


def _lattice(g):
    """A polar hull's vertices keyed by their sorted facet n-tuples, and its
    edges as (facet, other facet, the two end keys); 3-d only for edges."""
    facets = {}
    for f, x in zip(g.fac, g.ver):
        facets.setdefault(int(x), []).append(int(f))
    key = {x: tuple(sorted(fs)) for x, fs in facets.items()}
    vertices = {key[x]: g.vertices[x] for x in key}
    edges = set()
    if g.vertices.shape[1] == 3:
        edges = {(int(f), int(o), frozenset((key[int(a)], key[int(b)])))
                 for f, o, a, b in zip(*g.edges)}
    return vertices, edges


def _solver_iterates(monkeypatch, mu, q):
    """Every iterate a solve steps from, recorded as it builds its trials."""
    iterates = []
    moved = HPolytope._moved
    monkeypatch.setattr(HPolytope, "_moved",
                        lambda body, h: iterates.append(body) or moved(body, h))
    solve_dual_minkowski(mu, SolverConfig(q=q))
    monkeypatch.undo()
    return list({id(b): b for b in iterates}.values())


@pytest.mark.parametrize("dim", [2, 3])
def test_moved_lattice_agrees_with_a_fresh_hull(monkeypatch, rng, dim):
    kept = 0
    for pairs, q in ((3, 1.0), (5, 2.0), (6, 0.5)):
        mu = random_even_measure(rng, dim=dim, pairs=pairs)
        for body in _solver_iterates(monkeypatch, mu, q):
            for size in 10.0 ** rng.uniform(-6, -1, size=6):
                h = body.offsets * np.exp(size * rng.normal(size=len(body.offsets)))
                got = body._polar.moved(body.normals, h)
                if got is None:
                    continue
                kept += 1
                want = _PolarHull(body.normals, h)
                (gv, ge), (wv, we) = _lattice(got), _lattice(want)
                assert gv.keys() == wv.keys() and ge == we
                assert got.labels is body._polar.labels
                assert np.array_equal(got.full, want.full)
                extent = np.abs(want.vertices).max()
                for k, x in wv.items():
                    np.testing.assert_allclose(gv[k], x, rtol=0, atol=1e-13 * extent)
    assert kept > 0


def _cut_cube(c):
    # the cube cut at its corner (1, 1, 1) by x + y + z <= c sqrt 3
    normals = np.vstack([np.eye(3), -np.eye(3), np.ones(3) / math.sqrt(3)])
    return normals, np.array([1.0] * 6 + [c])


def test_moved_refuses_what_qhull_would_build_otherwise():
    normals, h = _cut_cube(1.6)
    g = HPolytope(normals, h)._polar
    assert g.moved(normals, h * 1.001) is not None
    # past the corner at sqrt 3 the cut's facet is empty
    empty = h.copy()
    empty[-1] = 1.8
    assert not _PolarHull(normals, empty).full[-1]
    assert g.moved(normals, empty) is None
    # the cut's vertex (1, 1, 1 - 5e-10) lies within MERGE_TOL of z = 1
    close = h.copy()
    close[-1] = (3.0 - 5e-10) / math.sqrt(3)
    assert g.moved(normals, close) is None
    inf = h.copy()
    inf[0] = np.inf
    assert g.moved(normals, inf) is None
    # four facets meet at each vertex of the octahedron: merged simplices
    octa = np.array([[a, b, c] for a in (-1.0, 1) for b in (-1.0, 1) for c in (-1.0, 1)])
    octa /= math.sqrt(3)
    body = HPolytope(octa, np.ones(8))
    assert len(body.vertices) < len(body._polar.hull.simplices)
    assert body._polar.moved(octa, np.ones(8)) is None


def test_moved_body_shares_the_lattice_only_under_the_certificate():
    normals, h = _cut_cube(1.6)
    body = HPolytope(normals, h)
    near, far = body._moved(h * 1.01), body._moved(np.r_[h[:-1], 1.8])
    assert near._memo["polar"].hull is body._polar.hull
    assert "polar" not in far._memo and not far.active[-1]
    np.testing.assert_allclose(near.vertices, 1.01 * body.vertices, rtol=1e-15, atol=1e-15)
    assert near.offsets.tolist() == body.with_offsets(h * 1.01).offsets.tolist()
