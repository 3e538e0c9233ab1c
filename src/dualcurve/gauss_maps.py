"""Radial Gauss map of polytopes and the cone decomposition of the sphere.

For a polytope, each facet owns the spherical cone of directions whose
boundary ray exits through it; the map from direction to facet normal is
single-valued off the cone boundaries and flagged non-unique on them.
Bodies live in R^2 or R^3, where every cell measure is closed-form.
"""

import math

import numpy as np

from .body_core import GeometryError, HPolytope, SmoothBody, as_direction, unit
from .quadrature import spherical_triangle_excess

TIE_TOL = 1e-10


class ConeCell:
    """Spherical cone of one facet: all unit u with rho(u) u on that facet."""

    def __init__(self, facet_index, normal, apex_rays, facet_vertices, offset):
        self.facet_index = int(facet_index)
        self.normal = np.asarray(normal, float)
        self.apex_rays = np.asarray(apex_rays, float)
        self.facet_vertices = np.asarray(facet_vertices, float)
        self.offset = float(offset)

    @property
    def empty(self):
        return len(self.apex_rays) == 0

    def solid_angle(self):
        """Spherical measure of the cell.

        n=2: arc width between the two vertex rays.  n=3: sum of l'Huilier
        excesses over fan triangles from the centroid ray.  Exact up to
        rounding; no quadrature involved.
        """
        if self.empty:
            return 0.0
        n = len(self.normal)
        if n == 2:
            a, b = self.apex_rays
            return math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b))
        if n == 3:
            hub = unit(self.apex_rays.sum(axis=0))
            total = 0.0
            k = len(self.apex_rays)
            for j in range(k):
                total += spherical_triangle_excess(hub, self.apex_rays[j], self.apex_rays[(j + 1) % k])
            return total
        raise GeometryError("closed-form solid angles implemented for n in {2, 3}")

    def contains(self, u, tol=1e-9):
        """Does the boundary point in direction u lie on this facet?"""
        u = as_direction(u)
        d = float(u @ self.normal)
        if d <= 0:
            return False
        return False if self.empty else abs(self._rho(u) * d - self.offset) <= tol * max(1.0, self.offset)

    def _rho(self, u):
        raise GeometryError("cell is not attached to a body")

    def to_dict(self):
        return {
            "facet_index": self.facet_index,
            "normal": [float(x) for x in self.normal],
            "apex_rays": [[float(x) for x in r] for r in self.apex_rays],
            "solid_angle": self.solid_angle() if len(self.normal) <= 3 and not self.empty else None,
        }


def radial_batch(normals, offsets, dirs, tie_tol=TIE_TOL):
    """Radial function of {x : x.v_i <= h_i} on a batch of unit directions.

    Returns (rho, idx, tie): the min of h_i/(u.v_i) over i with u.v_i > 0,
    the argmin facet, and whether a second facet ties within relative
    tie_tol (the direction then lies on a cone boundary).
    """
    normals = np.asarray(normals, float)
    offsets = np.asarray(offsets, float)
    dirs = np.atleast_2d(np.asarray(dirs, float))
    dots = dirs @ normals.T  # (N, m)
    with np.errstate(divide="ignore", over="ignore"):
        cand = np.where(dots > 0.0, offsets / dots, np.inf)
    rows = np.arange(len(dirs))
    idx = np.argmin(cand, axis=1)
    rho = cand[rows, idx]
    # second-smallest candidate for the tie test
    cand[rows, idx] = np.inf
    second = cand.min(axis=1)
    tie = (second - rho) <= tie_tol * rho
    return rho, idx, tie


def radial_gauss(P, u, tie_tol=TIE_TOL):
    """Outer unit normal at the boundary point rho(u) u, or None on a tie.

    Ties within relative tie_tol mean u points at a lower-dimensional face
    (the measure-zero cone-boundary set); no arbitrary tie-breaking.
    """
    i = radial_gauss_index(P, u, tie_tol)
    return None if i is None else P.normals[i]


def radial_gauss_index(P, u, tie_tol=TIE_TOL):
    u = as_direction(u)
    rho, idx, tie = radial_batch(P.normals, P.offsets, u[None, :], tie_tol)
    if bool(tie[0]):
        return None
    return int(idx[0])


def radial_gauss_batch(P, dirs, tie_tol=TIE_TOL):
    """Vectorized radial_gauss: returns (rho, facet index, tie flag) arrays."""
    return radial_batch(P.normals, P.offsets, dirs, tie_tol)


def cone_partition(P):
    """One ConeCell per halfspace; inactive halfspaces yield empty cells.

    Cells cover the sphere and overlap only on boundaries.  Apex rays are
    the unit vectors toward the facet's vertices: the two ends of an edge
    for n = 2, the facet's vertex cycle for n = 3, counterclockwise about
    the facet's normal.  A cell's measure is closed-form
    (ConeCell.solid_angle); spherical_polygon_rule over consecutive apex
    rays, with the cell's normal as every edge's pole, integrates over a
    3-d cell.
    """
    cells = []
    act = P.active
    for i in range(len(P.normals)):
        if not act[i]:
            cells.append(ConeCell(i, P.normals[i], np.zeros((0, P.dim)), np.zeros((0, P.dim)), P.offsets[i]))
            continue
        verts = P.facet_vertices(i)
        rays = np.array([unit(v) for v in verts])
        cell = ConeCell(i, P.normals[i], rays, verts, P.offsets[i])
        cell._rho = lambda u, _P=P: _P.radial(u)
        cells.append(cell)
    return cells


def reverse_radial_gauss_smooth(K, v):
    """Unit direction of the boundary point whose outer normal is v."""
    if not isinstance(K, SmoothBody):
        raise GeometryError("reverse map needs a smooth body; polytopes use cone_partition")
    g = K.grad_support(v)
    return unit(g)
