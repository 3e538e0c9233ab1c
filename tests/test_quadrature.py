import math

import numpy as np
import pytest
from scipy import integrate

from dualcurve import (GeometryError, sphere_area, sphere_rule,
                       spherical_polygon_rule, spherical_triangle_excess,
                       unit_ball_volume)
from dualcurve.quadrature import (_legendre, arc_rule, triangle_rule,
                                  triangles_to_quadrature)

# int sec over [0, pi/4] = ln(1 + sqrt 2)
LOG_1P_SQRT2 = 0.8813735870195430
PI = math.pi


def test_ball_volumes_and_sphere_areas():
    assert unit_ball_volume(2) == pytest.approx(PI, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * PI / 3, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(PI**2 / 2, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2 * PI, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * PI, rel=1e-15)
    # n omega_n = surface area
    for n in (2, 3, 4, 5):
        assert sphere_area(n) == pytest.approx(n * unit_ball_volume(n), rel=1e-14)


@pytest.mark.parametrize("n,level,tol", [(2, 6, 1e-5), (3, 5, 1e-5)])
def test_sphere_rule_constant_and_moments(n, level, tol):
    rule = sphere_rule(n, level)
    assert rule.weights.sum() == pytest.approx(sphere_area(n), rel=1e-6)
    # second moment: int u_i^2 = area / n
    for i in range(n):
        got = float(rule.weights @ rule.nodes[:, i] ** 2)
        assert got == pytest.approx(sphere_area(n) / n, rel=tol)


def test_sphere_rule_quartic_moment_3d():
    rule = sphere_rule(3, 6)
    got = float(rule.weights @ rule.nodes[:, 2] ** 4)
    assert got == pytest.approx(4 * PI / 5, rel=1e-10)
    got = float(rule.weights @ (rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2))
    assert got == pytest.approx(4 * PI / 15, rel=1e-10)


def test_arc_rule_closed_form():
    th, w = arc_rule(0.0, PI / 4)
    assert float(w @ (1.0 / np.cos(th))) == pytest.approx(LOG_1P_SQRT2, abs=1e-12)
    th, w = arc_rule(-PI / 2, PI / 2)
    assert float(w @ np.cos(th)) == pytest.approx(2.0, abs=1e-12)


def test_arc_rule_matches_adaptive():
    lo, hi = -0.7, 1.1
    th, w = arc_rule(lo, hi, npts=48)
    assert w.sum() == pytest.approx(hi - lo, rel=1e-13)
    got = float(w @ np.cos(th) ** (-0.5))
    want, _ = integrate.quad(lambda t: math.cos(t) ** (-0.5), lo, hi,
                             epsabs=1e-10, epsrel=1e-10, limit=200)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 4, 8])
def test_triangle_rule_monomial_exactness(degree):
    """Reference-triangle monomial integrals are a!b!/(a+b+2)!."""
    pts, wts = triangle_rule(degree)
    assert (wts > 0).all()
    assert wts.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(wts @ (pts[:, 0] ** a * pts[:, 1] ** b))
            want = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert got == pytest.approx(want, rel=1e-12), (a, b)


def test_gauss_rules_built_once_and_read_only():
    for rule in (lambda: triangle_rule(8), lambda: _legendre(6)):
        first, again = rule(), rule()
        for a, b in zip(first, again):
            assert a is b
            assert not a.flags.writeable


def test_triangles_to_quadrature_area_and_subdiv():
    tri = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]])
    pts, wts, idx = triangles_to_quadrature(tri, degree=4, subdiv=0)
    assert wts.sum() == pytest.approx(2.0, rel=1e-13)
    assert set(idx.tolist()) == {0}
    pts2, wts2, _ = triangles_to_quadrature(tri, degree=4, subdiv=2)
    assert len(pts2) == 16 * len(pts)
    assert wts2.sum() == pytest.approx(2.0, rel=1e-13)


def test_spherical_triangle_excess_octant():
    a, b, c = np.eye(3)
    assert spherical_triangle_excess(a, b, c) == pytest.approx(PI / 2, abs=1e-13)


def test_spherical_triangle_excess_degenerate():
    a = np.array([1.0, 0, 0])
    b = np.array([0.0, 1, 0])
    assert spherical_triangle_excess(a, b, b) == pytest.approx(0.0, abs=1e-12)


def test_spherical_polygon_rule_octant_weight():
    rays = np.eye(3)
    rule = spherical_polygon_rule(rays, degree=8, subdiv=3)
    assert rule.weights.sum() == pytest.approx(PI / 2, rel=1e-6)
    np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)
    # rho^0 = 1 integrates to the solid angle; rho of the unit sphere is 1
    assert float(rule.weights @ np.ones(len(rule.nodes))) == pytest.approx(PI / 2, rel=1e-6)


def test_spherical_polygon_rule_cube_cell():
    # cone cell of the +z facet of the cube: quarter window, solid angle 4*atan(sqrt2/... )
    corners = np.array([[1.0, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]]) / math.sqrt(3)
    rule = spherical_polygon_rule(corners, degree=8, subdiv=3)
    assert rule.weights.sum() == pytest.approx(4 * PI / 6, rel=1e-7)


def test_sphere_rule_levels_increase_nodes():
    assert len(sphere_rule(3, 5)) < len(sphere_rule(3, 6))
    with pytest.raises(GeometryError):
        sphere_rule(3, 0)
