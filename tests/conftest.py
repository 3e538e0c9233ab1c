import math

import numpy as np
import pytest

from dualcurve import GeometryError, HPolytope


def random_symmetric_polytope(rng, dim=3, pairs=5, h_lo=0.7, h_hi=1.5,
                              require_all_active=True, max_tries=200):
    """Origin-symmetric H-polytope with the requested number of facet pairs."""
    for _ in range(max_tries):
        v = rng.normal(size=(pairs, dim))
        norms = np.linalg.norm(v, axis=1)
        if (norms < 1e-9).any():
            continue
        v /= norms[:, None]
        # reject nearly parallel pairs up front
        g = np.abs(v @ v.T)
        np.fill_diagonal(g, 0.0)
        if g.max() > 0.999:
            continue
        h = rng.uniform(h_lo, h_hi, size=pairs)
        try:
            p = HPolytope(np.vstack([v, -v]), np.concatenate([h, h]))
        except GeometryError:
            continue
        if not require_all_active or p.active.all():
            return p
    raise RuntimeError("could not generate a polytope; loosen the constraints")


def axis_box(lo, hi):
    """Axis-aligned box [lo, hi] as an HPolytope."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    dim = len(lo)
    normals, offsets = [], []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        normals.extend([e.copy(), -e])
        offsets.extend([hi[k], -lo[k]])
    return HPolytope(np.array(normals), np.array(offsets))


def cube(dim=3, half_width=1.0):
    return axis_box(-half_width * np.ones(dim), half_width * np.ones(dim))


def spherical_triangle_excess(a, b, c):
    """Area of the spherical triangle with unit-vector corners (l'Huilier)."""
    sa, sb, sc = _arc(b, c), _arc(a, c), _arc(a, b)
    s = 0.5 * (sa + sb + sc)
    t = math.tan(s / 2) * math.tan((s - sa) / 2) * math.tan((s - sb) / 2) * math.tan((s - sc) / 2)
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def _arc(u, v):
    return 2.0 * math.asin(min(1.0, 0.5 * np.linalg.norm(np.asarray(u) - np.asarray(v))))


def lhuilier_solid_angles(p):
    """Solid angle of each facet's cone cell, with no use of the hull's edge
    rows: n=2, the angle between the rays to the edge's two vertices; n=3,
    l'Huilier's excesses over the fan from the centroid ray, the vertices
    ordered by angle about their centroid in the facet's plane."""
    angles = np.zeros(len(p.normals))
    for i, v in enumerate(p.normals):
        rays = p.facet_vertices(i)
        rays = rays / np.linalg.norm(rays, axis=1)[:, None]
        if p.dim == 2 and len(rays) == 2:
            a, b = rays
            angles[i] = math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b))
        elif len(rays) >= 3:
            e = np.eye(3)[np.argmin(np.abs(v))]
            t1 = e - (e @ v) * v
            t2 = np.cross(v, t1)
            d = rays - rays.mean(axis=0)
            rays = rays[np.argsort(np.arctan2(d @ t2, d @ t1))]
            hub = rays.sum(axis=0) / np.linalg.norm(rays.sum(axis=0))
            angles[i] = sum(spherical_triangle_excess(hub, a, b)
                            for a, b in zip(rays, np.roll(rays, -1, axis=0)))
    return angles


def random_even_measure(rng, dim=3, pairs=4, w_lo=0.2, w_hi=1.0):
    from dualcurve import DiscreteSphericalMeasure

    while True:
        v = rng.normal(size=(pairs, dim))
        norms = np.linalg.norm(v, axis=1)
        if (norms < 1e-9).any():
            continue
        v /= norms[:, None]
        g = np.abs(v @ v.T)
        np.fill_diagonal(g, 0.0)
        if g.max() > 0.999:
            continue
        w = rng.uniform(w_lo, w_hi, size=pairs)
        return DiscreteSphericalMeasure(np.vstack([v, -v]), np.concatenate([w, w]))


def count_sphere_rules(monkeypatch):
    """Record every spherical_polygon_rule call that measures makes, and
    the Gauss nodes per panel of every rule built from its rows: FAN_NODES
    for a fine rule, FAN_COARSE_NODES for a companion."""
    from dualcurve import measures, quadrature

    rules, built = [], []
    make_rule = measures.spherical_polygon_rule
    monkeypatch.setattr(measures, "spherical_polygon_rule",
                        lambda *rows: rules.append(1) or make_rule(*rows))
    for name in ("_arc_nodes", "_fan_nodes"):
        nodes = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            lambda k, *rest, nodes=nodes: built.append(k) or nodes(k, *rest))
    return rules, built


@pytest.fixture
def rng():
    return np.random.default_rng(0)
