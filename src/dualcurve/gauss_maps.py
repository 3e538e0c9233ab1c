"""Radial Gauss map of polytopes and the cone decomposition of the sphere.

For a polytope, each facet owns the spherical cone of directions whose
boundary ray exits through it; the map from direction to facet normal is
single-valued off the cone boundaries and flagged non-unique on them.
Bodies live in R^2 or R^3, where every cell measure is closed-form.

Cell boundaries are read off the body's Qhull hull (see body_core) as
the oriented rows of fan_rows: in 3-d one per (edge, facet) pair, in 2-d
one per (facet, vertex pair).  The facet-side atoms and the sphere-side
rules in measures read the same rows in both dimensions, and
cone_partition takes every cell's solid angle from them in one
closed-form pass: the cone cells are one array of solid angles, indexed
by halfspace, and a cell's boundary is its facet's rows of fan_rows.
"""

import numpy as np

from .body_core import GeometryError, SmoothBody, cross, unit

TIE_TOL = 1e-10


def radial_gauss(P, dirs):
    """The radial Gauss map of the H-polytope P along the rows of a (k, n)
    batch of unit directions.

    Returns (rho, facet, tie): the radial function min h_i / (u . v_i) over
    the facets with u . v_i > 0 (P.radial's kernel), the argmin facet, whose
    normal is the outer normal at the boundary point rho(u) u, and whether a
    second facet ties within relative TIE_TOL.  A tie means u points at a
    lower-dimensional face (the measure-zero cone-boundary set), where the
    map is not single-valued; no tie is broken.  Rows that are not finite
    unit vectors raise GeometryError.
    """
    exits = P._exits(dirs)
    facet = exits.argmin(axis=-1)
    rho = np.take_along_axis(exits, facet[..., None], -1)[..., 0]
    # the second-nearest exit for the tie test
    np.put_along_axis(exits, facet[..., None], np.inf, -1)
    tie = exits.min(axis=-1) - rho <= TIE_TOL * rho
    return rho, facet, tie


def fan_rows(P):
    """The boundary rows of every nonempty facet as fan triangles about its
    normal: the facet, and the unit rays to the ends of one piece of its
    boundary, ordered counterclockwise about the normal.

    In 3-d one row per (edge, facet) pair of the hull, ordered along
    v_i x v_j for the edge's other facet j, which keeps facet i on the left.
    In 2-d one row per facet, its two vertices (adjacent in the hull's
    (facet, vertex) pairs), ordered so that det[start, end] > 0.
    """
    x, g = P.vertices, P._polar
    rays = x / np.linalg.norm(x, axis=1)[:, None]
    if P.dim == 2:
        fid, ia, ib = g.fac[::2], g.ver[::2], g.ver[1::2]
        flip = x[ia, 0] * x[ib, 1] - x[ia, 1] * x[ib, 0] < 0.0
    else:
        fid, other, ia, ib = g.edges
        v = P.normals
        flip = np.einsum("ej,ej->e", x[ib] - x[ia], cross(v[fid], v[other])) < 0.0
    return fid, rays[np.where(flip, ib, ia)], rays[np.where(flip, ia, ib)]


def cone_partition(P):
    """The solid angles of the cone cells, a read-only (m,) array with one
    entry per halfspace: 0 for a halfspace with no facet, whose cell is
    empty.

    Cells cover the sphere and overlap only on boundaries.  The boundary of
    cell i is facet i's rows of fan_rows, and all solid angles come from one
    pass over those rows: in 2-d the angle atan2(det[a, b], a.b) from a to
    b; in 3-d the sum over the facet's rows of the signed triangle (v, a, b)
    about its normal v, whose solid angle is
    2 atan2(det[v, a, b], 1 + v.a + a.b + b.v) (Van Oosterom & Strackee,
    IEEE Trans. Biomed. Eng. 30, 1983), taken in terms of s = a + b.
    """
    v = P.normals
    m, n = v.shape
    fid, starts, ends = fan_rows(P)
    if n == 2:
        angles = np.arctan2(starts[:, 0] * ends[:, 1] - starts[:, 1] * ends[:, 0],
                            np.einsum("ij,ij->i", starts, ends))
    else:
        w, s = v[fid], starts + ends
        # with s = a + b, 1 + a.b = |s|^2 / 2 and det[v, a, b] = det[v, a, s]:
        # these keep their accuracy when a and b are nearly antipodal (an
        # edge seen from close by, on a thin body), where 1 + a.b cancels
        det = np.einsum("ij,ij->i", w, cross(starts, s))
        dots = np.einsum("ij,ij->i", w + 0.5 * s, s)
        angles = 2.0 * np.arctan2(det, dots)
    # np.bincount gives integers when it has no rows to count
    angles = np.bincount(fid, angles, minlength=m).astype(float, copy=False)
    angles.flags.writeable = False
    return angles


def reverse_radial_gauss_smooth(K, v):
    """Unit direction of the boundary point whose outer normal is v."""
    if not isinstance(K, SmoothBody):
        raise GeometryError("reverse map needs a smooth body; polytopes use cone_partition")
    g = K.grad_support(v)
    return unit(g)
