import math

import numpy as np
import pytest

from dualcurve import (Ellipsoid, GeometryError, cone_partition, radial_gauss,
                       radial_gauss_batch, reverse_radial_gauss_smooth,
                       spherical_polygon_rule)
from dualcurve.gauss_maps import radial_batch

from conftest import cube, random_symmetric_polytope

# unit gradient direction of the (2,1)-ellipsoid support at v = (1,1)/sqrt(2)
ELL_DIR = (0.9701425001453319, 0.24253562503633297)  # (4, 1)/sqrt(17)


def test_radial_gauss_on_cube_interior_directions():
    p = cube()
    u = np.array([0.2, -0.3, 0.9])
    u /= np.linalg.norm(u)
    np.testing.assert_allclose(radial_gauss(p, u), [0, 0, 1.0])
    # +z is normal index 4 in axis_box order
    np.testing.assert_array_equal(radial_gauss(p, u), p.normals[4])
    u2 = np.array([-0.95, 0.1, 0.2])
    u2 /= np.linalg.norm(u2)
    np.testing.assert_allclose(radial_gauss(p, u2), [-1.0, 0, 0])


def test_radial_gauss_tie_returns_none():
    p = cube()
    edge = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert radial_gauss(p, edge) is None


def test_radial_batch_tie_on_edge():
    p = cube()
    edge = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    rho, idx, tie = radial_batch(p.normals, p.offsets, edge[None, :])
    assert tie[0]
    assert rho[0] == pytest.approx(np.sqrt(2.0))


def test_radial_gauss_batch_matches_scalar(rng):
    p = random_symmetric_polytope(rng, pairs=6)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rho, idx, tie = radial_gauss_batch(p, dirs)
    for k in range(len(dirs)):
        assert rho[k] == pytest.approx(p.radial(dirs[k]), rel=1e-12)
        if not tie[k]:
            np.testing.assert_array_equal(radial_gauss(p, dirs[k]), p.normals[idx[k]])
        else:
            assert radial_gauss(p, dirs[k]) is None


def test_cone_partition_covers_sphere_3d(rng):
    p = random_symmetric_polytope(rng, pairs=7)
    cells = cone_partition(p)
    assert len(cells) == len(p.normals)
    total = sum(c.solid_angle() for c in cells if not c.empty)
    assert total == pytest.approx(4 * math.pi, rel=1e-10)


def test_cone_partition_covers_circle_2d():
    vs = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    p = __import__("dualcurve").HPolytope(vs, np.array([1.0, 2.0, 1.0, 2.0]))
    cells = cone_partition(p)
    total = sum(c.solid_angle() for c in cells if not c.empty)
    assert total == pytest.approx(2 * math.pi, rel=1e-12)


def test_cone_partition_inactive_cell_empty():
    vs = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2)])
    hs = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
    p = __import__("dualcurve").HPolytope(vs, hs)
    cells = cone_partition(p)
    assert cells[4].empty
    assert cells[4].solid_angle() == 0.0


def test_cell_contains_its_directions(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    cells = cone_partition(p)
    dirs = rng.normal(size=(60, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    _, idx, tie = radial_gauss_batch(p, dirs)
    for u, i, t in zip(dirs, idx, tie):
        if t:
            continue
        assert cells[i].contains(u)


def test_cube_cell_solid_angle():
    p = cube()
    cells = cone_partition(p)
    for c in cells:
        assert c.solid_angle() == pytest.approx(4 * math.pi / 6, rel=1e-12)


def test_cell_quadrature_integrates_rho(rng):
    p = cube()
    cell = cone_partition(p)[4]
    poles = np.repeat(cell.normal[None], len(cell.starts), axis=0)
    rule = spherical_polygon_rule(poles, cell.starts, cell.ends)
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
