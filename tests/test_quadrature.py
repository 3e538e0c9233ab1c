import math

import numpy as np
import pytest
from scipy import integrate

from dualcurve import GeometryError, sphere_rule, spherical_polygon_rule, unit_ball_volume
from dualcurve.quadrature import _legendre

from conftest import spherical_triangle_excess

# int sec over [0, pi/4] = ln(1 + sqrt 2)
LOG_1P_SQRT2 = 0.8813735870195430
PI = math.pi


def test_ball_volumes_and_sphere_areas():
    assert unit_ball_volume(2) == pytest.approx(PI, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * PI / 3, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(PI**2 / 2, rel=1e-15)
    # n omega_n = surface area of the unit sphere in R^n
    for n, area in ((2, 2 * PI), (3, 4 * PI), (4, 2 * PI**2), (5, 8 * PI**2 / 3)):
        assert n * unit_ball_volume(n) == pytest.approx(area, rel=1e-15)


@pytest.mark.parametrize("n,level,tol", [(2, 6, 1e-5), (3, 5, 1e-5)])
def test_sphere_rule_constant_and_moments(n, level, tol):
    rule = sphere_rule(n, level)
    area = n * unit_ball_volume(n)
    assert rule.weights.sum() == pytest.approx(area, rel=1e-6)
    # second moment: int u_i^2 = area / n
    for i in range(n):
        got = float(rule.weights @ rule.nodes[:, i] ** 2)
        assert got == pytest.approx(area / n, rel=tol)


def test_sphere_rule_quartic_moment_3d():
    rule = sphere_rule(3, 6)
    got = float(rule.weights @ rule.nodes[:, 2] ** 4)
    assert got == pytest.approx(4 * PI / 5, rel=1e-10)
    got = float(rule.weights @ (rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2))
    assert got == pytest.approx(4 * PI / 15, rel=1e-10)


def _arcs(lo, hi):
    """spherical_polygon_rule over arcs of the circle from angle lo to hi
    about the pole e1, with each node's angle theta from the pole."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    ray = lambda t: np.column_stack([np.cos(t), np.sin(t)])
    rule = spherical_polygon_rule(ray(0.0 * lo), ray(lo), ray(hi))
    return rule, np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])


def test_polygon_rule_arcs_closed_form():
    rule, th = _arcs(0.0, PI / 4)
    assert rule.dim == 2
    assert float(rule.weights @ (1.0 / np.cos(th))) == pytest.approx(LOG_1P_SQRT2, abs=1e-12)
    rule, th = _arcs(-1.5, 1.5)
    assert float(rule.weights @ np.cos(th)) == pytest.approx(2.0 * math.sin(1.5), abs=1e-12)
    # an arc reaching towards pi/2, as on a thin body, and a second arc in
    # the same call: the integral of sec^3 up to atan(t)
    t = 100.0
    rule, th = _arcs([0.0, 0.0], [math.atan(t), PI / 4])
    got = np.bincount(rule.edge, weights=rule.weights / np.cos(th) ** 3)
    want = [0.5 * (t * math.hypot(1.0, t) + math.asinh(t)), 0.5 * (math.sqrt(2) + LOG_1P_SQRT2)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_polygon_rule_arcs_match_adaptive():
    lo, hi = -0.7, 1.1
    rule, th = _arcs(lo, hi)
    assert rule.weights.sum() == pytest.approx(hi - lo, rel=1e-13)
    got = float(rule.weights @ np.cos(th) ** (-0.5))
    want, _ = integrate.quad(lambda t: math.cos(t) ** (-0.5), lo, hi,
                             epsabs=1e-10, epsrel=1e-10, limit=200)
    assert got == pytest.approx(want, rel=1e-12)


def test_polygon_rule_arcs_signed_and_refused_outside_the_half_circle():
    rule, _ = _arcs(1.1, -0.7)
    assert (rule.weights < 0).all()
    assert rule.weights.sum() == pytest.approx(-1.8, rel=1e-13)
    np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-15)
    assert rule.companion().weights.sum() == pytest.approx(-1.8, rel=1e-13)
    with pytest.raises(GeometryError, match="open hemisphere"):
        _arcs(0.0, 2.0)


def test_gauss_rules_built_once_and_read_only():
    first, again = _legendre(6), _legendre(6)
    for a, b in zip(first, again):
        assert a is b
        assert not a.flags.writeable


# l'Huilier's formula is the oracle of the cone cells' solid angles (conftest)
def test_spherical_triangle_excess_octant():
    a, b, c = np.eye(3)
    assert spherical_triangle_excess(a, b, c) == pytest.approx(PI / 2, abs=1e-13)


def test_spherical_triangle_excess_degenerate():
    a = np.array([1.0, 0, 0])
    b = np.array([0.0, 1, 0])
    assert spherical_triangle_excess(a, b, b) == pytest.approx(0.0, abs=1e-12)


def _fan(pole, rays):
    """spherical_polygon_rule over a polygon's consecutive rays, every edge
    fanned from one pole."""
    rays = np.asarray(rays, float)
    poles = np.repeat(np.asarray(pole, float)[None], len(rays), axis=0)
    return spherical_polygon_rule(poles, rays, np.roll(rays, -1, axis=0))


def test_spherical_polygon_rule_octant_weight():
    rays = np.eye(3)
    rule = _fan(np.ones(3) / math.sqrt(3), rays)
    assert rule.weights.sum() == pytest.approx(PI / 2, rel=1e-6)
    np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)
    # rho^0 = 1 integrates to the solid angle; rho of the unit sphere is 1
    assert float(rule.weights @ np.ones(len(rule.nodes))) == pytest.approx(PI / 2, rel=1e-6)


def test_spherical_polygon_rule_cube_cell():
    # cone cell of the +z facet of the cube: quarter window, solid angle 4*atan(sqrt2/... )
    corners = np.array([[1.0, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]]) / math.sqrt(3)
    rule = _fan([0.0, 0, 1], corners)
    assert rule.weights.sum() == pytest.approx(4 * PI / 6, rel=1e-7)


def _rectangle_window(a, b):
    """Unit rays to the corners of the rectangle [-a, a] x [-b, b] on the
    plane z = 1, counterclockwise about e3, and its solid angle."""
    corners = np.array([[a, b, 1.0], [-a, b, 1], [-a, -b, 1], [a, -b, 1]])
    exact = 4 * math.asin(a * b / math.sqrt((1 + a * a) * (1 + b * b)))
    return corners / np.linalg.norm(corners, axis=1)[:, None], exact


def test_spherical_polygon_rule_pole_outside_polygon():
    rays, exact = _rectangle_window(0.2, 0.3)
    f = lambda u: (u @ np.array([0.3, -0.2, 1.0])) ** 5
    inside = _fan([0.0, 0, 1], rays)
    assert (inside.weights > 0).all()
    # the pole's gnomonic image (0.5, 0) lies outside the rectangle
    pole = np.array([0.5, 0, 1]) / math.hypot(0.5, 1)
    outside = _fan(pole, rays)
    assert (outside.weights < 0).any()
    want = float(inside.weights @ f(inside.nodes))
    for rule, rel in ((outside, 1e-12), (outside.companion(), 1e-9)):
        assert rule.weights.sum() == pytest.approx(exact, rel=1e-12)
        assert float(rule.weights @ f(rule.nodes)) == pytest.approx(want, rel=rel)
    np.testing.assert_allclose(np.linalg.norm(outside.nodes, axis=1), 1.0, atol=1e-14)
    # each edge's triangle counts with the sign of det[pole, start, end]
    np.testing.assert_array_equal(np.unique(outside.edge), np.arange(4))
    for k in range(4):
        sign = np.sign(np.linalg.det(np.stack([pole, rays[k], rays[(k + 1) % 4]])))
        assert (np.sign(outside.weights[outside.edge == k]) == sign).all()


def test_spherical_polygon_rule_cube_cell_integrates_sec_powers():
    # the +z facet of the cube: rho = sec(theta), and the integral of rho^3
    # over the cell is 3 times its cone volume 4/3
    corners = np.array([[1.0, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]]) / math.sqrt(3)
    rule = _fan([0.0, 0, 1], corners)
    assert float(rule.weights @ rule.nodes[:, 2] ** -3) == pytest.approx(4.0, rel=1e-13)


def test_spherical_polygon_rule_refuses_edges_leaving_the_hemisphere():
    rays, _ = _rectangle_window(0.2, 0.2)
    # the corner (-0.2, -0.2, 1) is orthogonal to this pole
    with pytest.raises(GeometryError, match="open hemisphere"):
        _fan(np.array([3.0, 2, 1]) / math.sqrt(14), rays)
    with pytest.raises(GeometryError, match="open hemisphere"):
        spherical_polygon_rule([[0.0, 0, 1]], [[1.0, 0, 0.1]], [[0.0, 1, -0.1]])


def test_sphere_rule_levels_increase_nodes():
    assert len(sphere_rule(3, 5)) < len(sphere_rule(3, 6))
    with pytest.raises(GeometryError):
        sphere_rule(3, 0)
