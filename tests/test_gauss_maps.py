import math

import numpy as np
import pytest

from dualcurve import (Ellipsoid, GeometryError, HPolytope, cone_partition, radial_gauss,
                       reverse_radial_gauss_smooth, spherical_polygon_rule)
from dualcurve.gauss_maps import fan_rows
from dualcurve.measures import _sphere_side

from conftest import cube, random_symmetric_polytope

# unit gradient direction of the (2,1)-ellipsoid support at v = (1,1)/sqrt(2)
ELL_DIR = (0.9701425001453319, 0.24253562503633297)  # (4, 1)/sqrt(17)


def test_radial_gauss_on_cube_interior_directions():
    p = cube()
    u = np.array([[0.2, -0.3, 0.9], [-0.95, 0.1, 0.2]])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rho, facet, tie = radial_gauss(p, u)
    # +z and -x are normals 4 and 1 in axis_box order
    np.testing.assert_array_equal(facet, [4, 1])
    np.testing.assert_allclose(p.normals[facet], [[0, 0, 1.0], [-1.0, 0, 0]])
    np.testing.assert_allclose(rho, 1.0 / np.abs(u).max(axis=1), rtol=1e-15)
    assert not tie.any()


def test_radial_gauss_tie_returns_none():
    # on a cube edge the map is not single-valued: the tie flag is set and
    # the +x and +y planes (axis_box normals 0 and 2) both meet u at rho
    p = cube()
    edge = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    rho, facet, tie = radial_gauss(p, edge[None, :])
    assert tie[0]
    assert facet[0] in (0, 2)
    np.testing.assert_allclose(rho[0] * (p.normals[[0, 2]] @ edge), p.offsets[[0, 2]],
                               rtol=1e-15)


def test_radial_batch_tie_on_edge():
    p = cube()
    edge = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    rho, _, tie = radial_gauss(p, edge[None, :])
    assert tie[0]
    assert rho[0] == pytest.approx(np.sqrt(2.0))


def test_radial_gauss_matches_radial(rng):
    p = random_symmetric_polytope(rng, pairs=6)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho, idx, tie = radial_gauss(p, dirs)
    # one kernel: the batch and the map read the same exits
    np.testing.assert_array_equal(p.radial(dirs), rho)
    for k in range(len(dirs)):
        assert p.radial(dirs[k]) == pytest.approx(rho[k], rel=1e-12)
        dots = p.normals @ dirs[k]
        assert rho[k] * dots[idx[k]] == pytest.approx(p.offsets[idx[k]], rel=1e-12)
    assert not tie.any()


@pytest.mark.parametrize("bad", [[2.0, 0, 0], [0.6, 0.8, 1e-4], [math.nan, 0, 1.0]])
def test_radial_gauss_refuses_rows_that_are_not_unit(bad):
    p = cube()
    dirs = np.array([[0, 0, 1.0], bad])
    with pytest.raises(GeometryError, match="finite unit vectors"):
        radial_gauss(p, dirs)
    with pytest.raises(GeometryError, match="finite unit vectors"):
        p.radial(dirs)


def test_cone_partition_covers_sphere_3d(rng):
    p = random_symmetric_polytope(rng, pairs=7)
    angles = cone_partition(p)
    assert angles.shape == (len(p.normals),)
    assert angles.sum() == pytest.approx(4 * math.pi, rel=1e-10)


def test_cone_partition_covers_circle_2d():
    vs = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    p = __import__("dualcurve").HPolytope(vs, np.array([1.0, 2.0, 1.0, 2.0]))
    assert cone_partition(p).sum() == pytest.approx(2 * math.pi, rel=1e-12)


def test_cone_partition_inactive_cell_empty():
    vs = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2)])
    hs = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
    p = __import__("dualcurve").HPolytope(vs, hs)
    # an empty cell has no boundary rows
    assert 4 not in fan_rows(p)[0]
    assert cone_partition(p)[4] == 0.0


def _rule_with_nodes(p):
    """The body's sphere-side rule, its nodes included (the memo keeps
    none): the fan_rows rule of measures._polygon_side."""
    fid, starts, ends = fan_rows(p)
    return spherical_polygon_rule(p.normals[fid], starts, ends)


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_side_nodes_map_to_their_facets(rng, dim):
    # with unit offsets the body is circumscribed about the unit ball, so
    # each normal lies in its own cone cell and every fan triangle about it
    # is positive and inside the cell: the radial Gauss map sends each node
    # to the facet the rule files it under
    v = rng.normal(size=(12, dim))
    p = HPolytope(v / np.linalg.norm(v, axis=1, keepdims=True), np.ones(12))
    nodes = _rule_with_nodes(p).nodes
    w, rule_rho, rule_facet, _, _ = _sphere_side(p)
    assert (w > 0).all()
    rho, facet, tie = radial_gauss(p, nodes)
    assert tie.mean() < 1e-3
    np.testing.assert_array_equal(facet[~tie], rule_facet[~tie])
    np.testing.assert_allclose(rho, rule_rho, rtol=1e-12)


def test_sphere_side_rho_is_the_facet_planes_distance(rng):
    # off-centre, a normal may lie outside its cell: signed fan triangles
    # then put nodes outside it, where the rule's rho = h_i / (u . v_i) is
    # the facet plane's distance, beyond the boundary; in the cell it is rho
    # (a 2-d arc runs from vertex ray to vertex ray and stays in its cell)
    p = random_symmetric_polytope(rng, pairs=6)
    p = p.with_offsets(p.offsets * rng.uniform(0.6, 1.4, size=len(p.offsets)))
    nodes = _rule_with_nodes(p).nodes
    _, rule_rho, rule_facet, _, _ = _sphere_side(p)
    rho, facet, tie = radial_gauss(p, nodes)
    assert (rule_rho >= rho * (1.0 - 1e-12)).all()
    same = facet == rule_facet
    assert not same.all()
    np.testing.assert_allclose(rule_rho[same], rho[same], rtol=1e-12)
    assert (rule_rho[~same & ~tie] > rho[~same & ~tie]).all()


def test_cube_cell_solid_angle():
    p = cube()
    np.testing.assert_allclose(cone_partition(p), 4 * math.pi / 6, rtol=1e-12)


def test_cell_quadrature_integrates_rho(rng):
    p = cube()
    # the boundary of cell 4 is facet 4's rows of fan_rows
    fid, starts, ends = fan_rows(p)
    rows = fid == 4
    rule = spherical_polygon_rule(p.normals[fid[rows]], starts[rows], ends[rows])
    # rho^0 over the cell is its solid angle
    assert rule.weights.sum() == pytest.approx(4 * math.pi / 6, rel=1e-7)


def test_reverse_radial_gauss_smooth_ellipsoid():
    e = Ellipsoid(np.array([2.0, 1.0]))
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    u = reverse_radial_gauss_smooth(e, v)
    np.testing.assert_allclose(u, ELL_DIR, atol=1e-12)
    # the map must invert: the normal at boundary point rho(u) u is v again
    rho = e.radial(u)
    x = rho * u
    grad = np.array([x[0] / 4.0, x[1]])  # gradient of the quadratic form
    np.testing.assert_allclose(grad / np.linalg.norm(grad), v, atol=1e-12)


def test_reverse_radial_gauss_smooth_rejects_polytope():
    with pytest.raises(GeometryError):
        reverse_radial_gauss_smooth(cube(), np.array([0.0, 0, 1.0]))
