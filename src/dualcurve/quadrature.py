"""Numerical integration on spheres and circular arcs."""

import functools
import math

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .body_core import GeometryError, require_dim, unit


def unit_ball_volume(n):
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


@functools.cache
def _legendre(m):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size and
    shared read-only."""
    x, w = roots_legendre(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def sphere_area(n):
    """Surface area of the unit sphere in R^n (= n * ball volume)."""
    return n * unit_ball_volume(n)


class SphereQuadrature:
    """Nodes on the unit sphere with surface-measure weights."""

    def __init__(self, dim, nodes, weights):
        self.dim = int(dim)
        self.nodes = np.asarray(nodes, float)
        self.weights = np.asarray(weights, float)
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def integrate(self, f):
        vals = np.asarray(f(self.nodes), float)
        return float(self.weights @ vals)

    def __len__(self):
        return len(self.weights)


def sphere_rule(n, level):
    """Quadrature over the full sphere in R^n, n in {2, 3}.

    n=2: trapezoid with 2**level equispaced angles (spectral on smooth
    periodic integrands).  n=3: product of Gauss-Legendre in cos(theta)
    with 2**level nodes and a uniform grid of 2**(level+1) angles in phi.
    Any other n raises GeometryError.
    """
    require_dim(n)
    if level < 1:
        raise GeometryError("level must be >= 1")
    if n == 2:
        m = 2**level
        th = 2 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(th), np.sin(th)])
        return SphereQuadrature(2, nodes, np.full(m, 2 * math.pi / m))
    m = 2**level
    x, w = _legendre(m)  # cos(theta) on [-1, 1]
    k = 2 * m
    phi = 2 * math.pi * np.arange(k) / k
    st = np.sqrt(1 - x**2)
    nodes = np.empty((m * k, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(x, k)
    weights = np.repeat(w, k) * (2 * math.pi / k)
    return SphereQuadrature(3, nodes, weights)


def arc_rule(theta_lo, theta_hi, npts=48):
    """Fixed Gauss-Legendre nodes/weights on an angle interval.

    Arcs wider than pi/4 are split into panels so the per-panel smoothness
    assumptions of the rule hold for integrands like sec(theta)**q.
    """
    width = theta_hi - theta_lo
    panels = max(1, int(math.ceil(width / (math.pi / 4))))
    x, w = _legendre(max(4, npts // panels))
    ths, wts = [], []
    for j in range(panels):
        a = theta_lo + width * j / panels
        b = theta_lo + width * (j + 1) / panels
        ths.append(0.5 * (b - a) * x + 0.5 * (a + b))
        wts.append(0.5 * (b - a) * w)
    return np.concatenate(ths), np.concatenate(wts)


@functools.cache
def triangle_rule(degree):
    """Positive-weight rule on the reference triangle {x,y>=0, x+y<=1}.

    Conical product of Gauss-Legendre and Gauss-Jacobi(1,0): exact for all
    polynomials of total degree <= degree.  Returns (points (k,2), weights)
    with weights summing to 1/2, built once per degree and shared read-only.
    """
    if degree < 1:
        raise GeometryError("degree must be >= 1")
    m = (degree + 2) // 2
    p, a = _legendre(m)
    u, b = roots_jacobi(m, 1, 0)
    t = 0.5 * (p + 1.0)
    x = 0.5 * (u + 1.0)
    wt = a / 2.0
    wx = b / 4.0
    xs = np.repeat(x, m)
    ys = (1.0 - xs) * np.tile(t, m)
    ws = np.repeat(wx, m) * np.tile(wt, m)
    pts = np.column_stack([xs, ys])
    pts.flags.writeable = False
    ws.flags.writeable = False
    return pts, ws


def _subdivide_triangles(tris, levels):
    """Uniform 4-way refinement of an array of triangles (T, 3, d)."""
    for _ in range(levels):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tris = np.concatenate([
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ])
    return tris


def triangles_to_quadrature(tris, degree, subdiv=0):
    """Map the reference rule onto an array of flat triangles (T, 3, d).

    Returns (points (N, d), weights (N,), tri_index (N,)): tri_index points
    back to the original triangle before subdivision.
    """
    tris = np.asarray(tris, float)
    t0 = len(tris)
    idx = np.arange(t0)
    for _ in range(subdiv):
        idx = np.tile(idx, 4)
    tris = _subdivide_triangles(tris, subdiv)
    ref, w = triangle_rule(degree)
    a = tris[:, 0]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    # doubled triangle areas = Jacobians of the affine maps
    if tris.shape[2] == 3:
        jac = np.linalg.norm(np.cross(e1, e2), axis=1)
    else:
        g11 = np.einsum("ij,ij->i", e1, e1)
        g22 = np.einsum("ij,ij->i", e2, e2)
        g12 = np.einsum("ij,ij->i", e1, e2)
        jac = np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))
    pts = a[:, None, :] + ref[None, :, 0, None] * e1[:, None, :] + ref[None, :, 1, None] * e2[:, None, :]
    wts = jac[:, None] * w[None, :]
    k = len(w)
    return pts.reshape(-1, tris.shape[2]), wts.ravel(), np.repeat(idx, k)


def spherical_triangle_excess(a, b, c):
    """Area of the spherical triangle with unit-vector corners (l'Huilier)."""
    sa = _angle(b, c)
    sb = _angle(a, c)
    sc = _angle(a, b)
    s = 0.5 * (sa + sb + sc)
    t = math.tan(s / 2) * math.tan((s - sa) / 2) * math.tan((s - sb) / 2) * math.tan((s - sc) / 2)
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def _angle(u, v):
    return 2.0 * math.asin(min(1.0, 0.5 * np.linalg.norm(np.asarray(u) - np.asarray(v))))


def spherical_polygon_rule(rays, degree=8, subdiv=2):
    """Quadrature over the spherical polygon spanned by ordered unit rays.

    Fan triangles from the centroid ray are taken as flat carriers; surface
    measure transports to a flat triangle T with unit-vector corners by
    du = (x . nu_T) |x|^{-n} dH(x).  Returns a SphereQuadrature whose
    weights sum to the polygon's solid angle.
    """
    rays = np.atleast_2d(np.asarray(rays, float))
    k, d = rays.shape
    if d != 3:
        raise GeometryError("spherical polygon rules implemented for n=3 only")
    if k < 3:
        raise GeometryError("need at least 3 rays")
    hub = unit(rays.sum(axis=0))
    tris = np.stack([np.repeat(hub[None], k, axis=0), rays, np.roll(rays, -1, axis=0)], axis=1)
    # drop degenerate fan triangles (hub on an edge)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    nu = np.cross(e1, e2)
    area2 = np.linalg.norm(nu, axis=1)
    keep = area2 > 1e-14
    tris, nu = tris[keep], nu[keep] / area2[keep, None]
    pts, wts, tri_idx = triangles_to_quadrature(tris, degree, subdiv)
    r = np.linalg.norm(pts, axis=1)
    # distance of each carrier plane from the origin
    dist = np.abs(np.einsum("ij,ij->i", tris[:, 0], nu))
    sw = wts * dist[tri_idx] / r**d
    return SphereQuadrature(d, pts / r[:, None], sw)
