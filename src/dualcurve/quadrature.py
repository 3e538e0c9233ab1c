"""Numerical integration on spheres and circles.

Global product rules for whole spheres, and the signed fan rule for
spherical polygons and circular arcs: one triangle (in 2-d one arc) per
oriented edge, integrated in geodesic polar coordinates about the edge's
own pole, on Gauss panels in asinh(tan theta).
"""

import functools
import math

import numpy as np

from .body_core import GeometryError, cross, require_dim


def unit_ball_volume(n):
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


@functools.cache
def _legendre(m):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size and
    shared read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class SphereQuadrature:
    """Nodes on the unit sphere with surface-measure weights.

    A rule built from edges (spherical_polygon_rule) also records the edge
    each node belongs to, and `companion()` builds its coarse companion: the
    rule with fewer nodes on the same panels, whose difference from this one
    estimates this rule's error (None for a rule without a companion).
    """

    def __init__(self, dim, nodes, weights, edge=None, companion=None):
        self.dim = int(dim)
        self.nodes = np.asarray(nodes, float)
        self.weights = np.asarray(weights, float)
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False
        self.edge = edge
        self.companion = companion

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


# Gauss nodes per panel of the fan rules and of their coarse companions;
# the panels are at most FAN_PANEL_WIDTH wide in each rule variable
FAN_NODES = 12
FAN_COARSE_NODES = 8
FAN_PANEL_WIDTH = 2.0
# rows per block of the per-node temporaries of _fan_nodes and of
# measures._atoms_3d_radial, which bounds their size: small enough to stay
# in the cache and for the allocator to reuse instead of mapping fresh
# pages per call
ROW_BLOCK = 64


def _panel_counts(length):
    """Panels for intervals of the given lengths in a rule variable."""
    return np.maximum(np.ceil(np.abs(length) / FAN_PANEL_WIDTH), 1).astype(int)


def spherical_polygon_rule(poles, starts, ends):
    """Quadrature over signed spherical fan triangles, one per oriented edge.

    Row k is the triangle (poles[k], starts[k], ends[k]) of unit vectors,
    counted with the sign of det[pole, start, end].  A spherical polygon
    whose edges run counterclockwise about a pole is the sum of its edges'
    triangles about that pole, also when the pole lies outside it.  Each
    edge must lie in the open hemisphere about its pole.  (k, 2) rows are
    arcs of the circle, from start to end about the pole, counted with the
    sign of det[start, end]; see _arc_nodes.

    About the pole, in geodesic polar coordinates (theta, phi), the edge's
    great circle is tan(theta) = tan(theta0) / cos(phi - phi0), where phi0
    points to its nearest point.  Gauss panels sit in
    sigma = asinh(tan(phi - phi0)) and, on each sigma node, in
    w = asinh(tan(theta)) from the pole out to the edge.  There the surface
    measure is tanh(w) dw dsigma / (cosh(w) cosh(sigma)) and
    sec(theta) = cosh(w), so integrands like sec(theta)**q are analytic in
    the rule's variables, and each row's panel counts follow from the
    lengths of its sigma and w ranges.  Rows whose pole lies on the edge's
    great circle span no area and get no nodes.

    Returns a SphereQuadrature with FAN_NODES nodes per panel whose `edge`
    holds each node's row; its `companion()` builds the FAN_COARSE_NODES
    rule on the same panels.
    """
    poles, starts, ends = (np.atleast_2d(np.asarray(a, float)) for a in (poles, starts, ends))
    if poles.shape[1:] not in ((2,), (3,)) or starts.shape != poles.shape or ends.shape != poles.shape:
        raise GeometryError("poles, starts and ends must be matching (k, 2) or (k, 3) arrays")
    ca = np.einsum("ij,ij->i", starts, poles)
    cb = np.einsum("ij,ij->i", ends, poles)
    if not ((ca > 0.0) & (cb > 0.0)).all():
        raise GeometryError("an edge leaves the open hemisphere about its pole")
    if poles.shape[1] == 2:
        # tan theta of each end about the pole
        wa = np.arcsinh((poles[:, 0] * starts[:, 1] - poles[:, 1] * starts[:, 0]) / ca)
        wb = np.arcsinh((poles[:, 0] * ends[:, 1] - poles[:, 1] * ends[:, 0]) / cb)
        arcs = (poles, wa, wb, _panel_counts(wb - wa))
        return SphereQuadrature(
            2, *_arc_nodes(FAN_NODES, *arcs),
            companion=lambda: SphereQuadrature(2, *_arc_nodes(FAN_COARSE_NODES, *arcs)))
    # gnomonic images in the tangent plane at the pole: the edge is a segment
    za = starts / ca[:, None] - poles
    zb = ends / cb[:, None] - poles
    d = zb - za
    length = np.linalg.norm(d, axis=1)
    # signed distance from the pole to the segment's line, times its length
    cr = np.einsum("ij,ij->i", poles, cross(za, d))
    rows = np.flatnonzero(np.abs(cr) > 1e-14 * length)
    p, za, zb = poles[rows], za[rows], zb[rows]
    dist = np.abs(cr[rows]) / length[rows]
    # t0 points from the pole to the line's nearest point, t1 = p x t0
    t1 = d[rows] * (np.sign(cr[rows]) / length[rows])[:, None]
    basis = np.stack([p, cross(t1, p), t1], axis=1)
    sa = np.arcsinh(np.einsum("ij,ij->i", za, t1) / dist)
    sb = np.arcsinh(np.einsum("ij,ij->i", zb, t1) / dist)
    # w at the edge's far end, the largest on the row
    reach = np.arcsinh(np.maximum(np.linalg.norm(za, axis=1), np.linalg.norm(zb, axis=1)))
    panels = (rows, basis, dist, sa, sb, _panel_counts(sb - sa), _panel_counts(reach))
    return SphereQuadrature(
        3, *_fan_nodes(FAN_NODES, *panels),
        companion=lambda: SphereQuadrature(3, *_fan_nodes(FAN_COARSE_NODES, *panels)))


def _arc_nodes(k, poles, wa, wb, panels):
    """Nodes, weights and row ids of the arc rule with k Gauss nodes per
    panel: panels[r] panels on [wa, wb] in w = asinh(tan theta), theta the
    angle from the pole, the rows that share their panel count in one
    block.  There d(theta) = dw / cosh(w) and sec(theta) = cosh(w), so
    integrands like sec(theta)**q are analytic in w and arcs reaching
    towards +-pi/2 (thin bodies) keep full accuracy."""
    nodes, weights, edge = [np.zeros((0, 2))], [np.zeros(0)], [np.zeros(0, int)]
    for c in np.unique(panels):
        g = np.flatnonzero(panels == c)
        w, dw = panel_rule(wa[g], wb[g], k, c)
        # u = sech(w) pole + tanh(w) pole', pole' the pole turned by pi/2:
        # as complex numbers, the pole times sech(w) + i tanh(w)
        u = np.empty(w.shape, complex)
        u.real, u.imag = np.reciprocal(np.cosh(w)), np.tanh(w)
        weights.append((dw * u.real).ravel())
        u *= (poles[g, 0] + 1j * poles[g, 1])[:, None]
        nodes.append(u.view(float).reshape(-1, 2))
        edge.append(np.repeat(g, w.shape[1]))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(edge)


@functools.cache
def _panel_places(n_nodes, n_panels):
    """Places in [0, 1] of n_nodes Gauss nodes on each of n_panels equal
    panels, with their Gauss weights, built once per size and shared
    read-only."""
    gl_x, gl_w = _legendre(n_nodes)
    offs = (np.arange(n_panels)[:, None] + 0.5 * (gl_x[None, :] + 1.0)).ravel() / n_panels
    gw = np.tile(gl_w, n_panels)
    offs.flags.writeable = gw.flags.writeable = False
    return offs, gw


def panel_rule(lo, hi, n_nodes, n_panels):
    """Gauss nodes and weights on n_panels equal panels of each row's
    interval [lo, hi], as (rows, n_panels * n_nodes) arrays."""
    offs, gw = _panel_places(n_nodes, n_panels)
    nodes = lo[:, None] + (hi - lo)[:, None] * offs[None, :]
    wts = (hi - lo)[:, None] * gw[None, :] / (2.0 * n_panels)
    return nodes, wts


def _fan_nodes(k, rows, basis, dist, sa, sb, ns, nw):
    """Nodes, weights and row ids of the fan rule with k Gauss nodes per
    panel: ns panels on [sa, sb] in sigma, and on each sigma node nw panels
    on [0, asinh(dist cosh(sigma))] in w.  basis holds each row's pole, t0
    and t1; the rows that share their panel counts are dense blocks of up
    to ROW_BLOCK rows."""
    nodes, weights, edge = [np.zeros((0, 3))], [np.zeros(0)], [np.zeros(0, int)]
    # one key per (ns, nw) pair
    counts = ns * (nw.max(initial=0) + 1) + nw
    for c in np.unique(counts):
        group = np.flatnonzero(counts == c)
        for lo in range(0, len(group), ROW_BLOCK):
            g = group[lo:lo + ROW_BLOCK]
            sigma, w_sigma = panel_rule(sa[g], sb[g], k, ns[g[0]])
            cs = np.cosh(sigma)
            reach = np.arcsinh(dist[g, None] * cs).ravel()
            w, w_w = panel_rule(np.zeros(len(reach)), reach, k, nw[g[0]])
            w, w_w = w.reshape(sigma.shape + (-1,)), w_w.reshape(sigma.shape + (-1,))
            # u = sech(w) pole + tanh(w) (t0 / cosh(sigma) + t1 tanh(sigma))
            coef = np.empty(w.shape + (3,))
            sech = np.reciprocal(np.cosh(w), out=coef[..., 0])
            tw = np.tanh(w)
            np.multiply(tw, 1.0 / cs[:, :, None], out=coef[..., 1])
            np.multiply(tw, np.tanh(sigma)[:, :, None], out=coef[..., 2])
            nodes.append(np.matmul(coef.reshape(len(g), -1, 3), basis[g]).reshape(-1, 3))
            weights.append(((w_sigma / cs)[:, :, None] * w_w * tw * sech).ravel())
            edge.append(np.repeat(rows[g], w[0].size))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(edge)
