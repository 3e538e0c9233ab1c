"""Convex bodies with the origin in the interior.

Three representations: halfspace intersections (HPolytope), vertex hulls
(VPolytope), and two closed-form smooth families (ball, ellipsoid).  On top
of them: support and radial functions, polar duality, Wulff shapes, convex
hulls of radial graphs, and radial sums with balls.

Polytope geometry comes from one Qhull hull per polytope (Barber, Dobkin &
Huhdanpaa, ACM TOMS 1996, through scipy.spatial.ConvexHull).  An HPolytope
takes the hull of its polar points v_i/h_i: each hull facet a.y + b = 0 is
the vertex x = -a/b, the polar points of a hull facet are the halfspaces
through that vertex, and polar points off the hull are inactive halfspaces.
A VPolytope takes the hull of its points: the hull's vertices are its
irredundant vertex list and the hull's facets its halfspaces.  Coplanar
pieces of one hull facet are merged, so the cost grows with the number of
facets, not with the number of n-subsets of halfspaces or points.

Qhull is the only source of a lattice.  A body whose offsets move from
another's on the same normals (the solver's line-search trials) may take
that body's lattice with its vertices solved again from their n facets,
but only while a certificate shows that Qhull would find the same lattice
(_PolarHull.moved); otherwise it builds its own hull.
"""

import copy
import functools
from operator import attrgetter

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

MERGE_TOL = 1e-9
INTERIOR_TOL = 1e-12
# two unit directions within this distance are the same direction
SAME_DIRECTION = 1e-9


class GeometryError(ValueError):
    pass


def require_dim(n):
    """Geometry is served exactly in the plane and in 3-space, nowhere else."""
    if n not in (2, 3):
        raise GeometryError(f"dimension {n} is not served: n must be 2 or 3")


def direction_pairs(dirs):
    """One k-d tree pair query over the directions and their negatives.

    Returns whether two directions are the same (within SAME_DIRECTION),
    and the index of the direction -v for each direction v (None when some
    direction has no antipode).
    """
    m = len(dirs)
    a, b = cKDTree(np.vstack([dirs, -dirs])).query_pairs(
        SAME_DIRECTION, output_type="ndarray").T
    # a < b: a pair across the halves is an antipode, one inside a half
    # (or its mirror in the other) two close directions
    across = (a < m) & (b >= m)
    j = np.full(m, -1)
    j[a[across]] = b[across] - m
    j.flags.writeable = False
    return not across.all(), None if (j < 0).any() else j


def match_directions(a, b):
    """For each row of a, the index of the nearest row of b within
    SAME_DIRECTION (distance <= SAME_DIRECTION), or -1: one k-d tree query
    over b.  Directions of different dimensions raise GeometryError."""
    if a.shape[-1] != b.shape[-1]:
        raise GeometryError(f"cannot match {a.shape[-1]}-d directions "
                            f"with {b.shape[-1]}-d ones")
    # the query's upper bound is strict; the next float above keeps <=
    _, j = cKDTree(b).query(a, distance_upper_bound=np.nextafter(SAME_DIRECTION, np.inf))
    j[j == len(b)] = -1
    return j


class DirectionSet:
    """Read-only, pairwise distinct unit directions in R^2 or R^3: rows, an
    (m, n) array, antipode (the row of -v for each row v, or None) and dim.
    A body, its measures and the solver's iterates share one; only this
    constructor validates and pairs the rows, after as_direction, refusing
    another dimension or two rows within SAME_DIRECTION with GeometryError."""

    __slots__ = ("rows", "antipode", "dim")

    def __init__(self, v, what):
        rows = np.atleast_2d(np.asarray(v, float))
        if rows.ndim != 2:
            raise GeometryError(f"{what} must be a matrix of row vectors")
        rows = as_direction(rows, what)
        rows.flags.writeable = False
        require_dim(rows.shape[1])
        close, self.antipode = direction_pairs(rows)
        if close:
            raise GeometryError(f"{what} must be pairwise distinct")
        self.rows, self.dim = rows, rows.shape[1]

    def is_even(self, values, slack):
        """Whether values (one per row) agree on each antipodal pair within slack."""
        j = self.antipode
        return j is not None and bool((np.abs(values[j] - values) <= slack).all())


def unit(v):
    v = np.asarray(v, float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise GeometryError("zero vector has no direction")
    return v / n


def cross(a, b):
    """Row-wise cross products of (k, 3) arrays, without the per-call
    overhead of NumPy's general cross product."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def as_direction(v, what="directions"):
    """Validate unit vectors along the last axis: one vector or a (k, n)
    batch.  A vector whose norm is not within 1e-9 of 1, a non-finite one
    included, raises GeometryError; vectors visibly off (by more than
    1e-12) are renormalized.  Always returns a new array."""
    v = np.asarray(v, float)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    off = np.abs(norms - 1.0)
    ok = off <= 1e-9
    if not ok.all():
        bad = float(norms[~ok][0])
        raise GeometryError(f"{what} must be finite unit vectors: norm {bad!r}, expected 1")
    return np.where(off > 1e-12, v / norms, v)


def _qhull(points, refusal):
    """Qhull hull of points whose convex hull must hold the origin inside.

    Flat point sets, too few points and an origin on or outside the hull
    raise GeometryError with the given message, never a QhullError.
    """
    pts = np.asarray(points, float)
    if not np.isfinite(pts).all():
        raise GeometryError("coordinates must be finite")
    try:
        hull = ConvexHull(pts)
    except QhullError:
        raise GeometryError(refusal) from None
    # hull normals are unit, so -offset is each facet plane's distance from 0
    if not -hull.equations[:, -1].max() > INTERIOR_TOL * np.abs(pts).max():
        raise GeometryError(refusal)
    return hull


def _merge_simplices(hull, keys, tol):
    """Label the hull's simplices 0, 1, ... so that neighbours whose key rows
    agree within tol share a label: the pieces Qhull triangulates one facet
    into, or facets closer than tol.  Returns the labels and the first
    simplex of each label: both arange(k) on a hull with no such
    neighbours, without the merge sweep."""
    k, n = hull.neighbors.shape
    s = np.repeat(np.arange(k), n)
    t = hull.neighbors.ravel()
    same = np.linalg.norm(keys[s] - keys[t], axis=1) <= tol
    low = np.arange(k)
    if not same.any():
        # a simplicial hull: each simplex is its own piece
        return low, low
    s, t = s[same], t[same]
    # spread the lowest simplex index through each run of merged neighbours
    while True:
        spread = low.copy()
        np.minimum.at(spread, s, low[t])
        if np.array_equal(spread, low):
            break
        low = spread
    first, labels = np.unique(low, return_inverse=True)
    return labels, first


def _merge_points(points, tol):
    """Greedy dedupe of nearby points; returns representatives.

    In index order, a point that no earlier kept point absorbed is kept and
    absorbs every later point within tol of it.
    """
    pts = np.asarray(points, float)
    if not np.isfinite(pts).all():
        raise GeometryError("coordinates must be finite")
    pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    absorbed = np.zeros(len(pts), dtype=bool)
    # pairs (i, j) with i < j, by i: absorbed[i] is final when i's turn comes
    for i, j in pairs[np.argsort(pairs[:, 0], kind="stable")]:
        if not absorbed[i]:
            absorbed[j] = True
    return pts[~absorbed].copy()


class _PolarHull:
    """Vertices, facet incidence and edges of {x : x.v_i <= h_i} from the
    Qhull hull of its polar points v_i/h_i.

    Each hull simplex a.y + b = 0 is the vertex x = -a/b; neighbouring
    simplices whose vertices lie within MERGE_TOL (coplanar pieces of one
    hull facet, which Qhull triangulates) share one vertex id.  The polar
    points of a simplex are the halfspaces through its vertex, so facet
    incidence is combinatorial: a halfspace whose polar point is no hull
    vertex, or that meets fewer than n vertices, has an empty facet.
    """

    def __init__(self, normals, offsets):
        m, n = normals.shape
        hull = _qhull(normals / offsets[:, None],
                      "unbounded body: normals lie in a closed hemisphere")
        eq = hull.equations
        x = -eq[:, :-1] / eq[:, -1:]
        scale = max(1.0, float(np.max(offsets)))
        self.labels, first = _merge_simplices(hull, x, MERGE_TOL * scale)
        self.vertices = x[first]
        self.vertices.flags.writeable = False
        # (facet, vertex) pairs sorted by facet, for nonempty facets only
        key = np.unique(hull.simplices.ravel() * len(first) + np.repeat(self.labels, n))
        fac, ver = np.divmod(key, len(first))
        self.full = np.bincount(fac, minlength=m) >= n
        self.fac, self.ver = fac[self.full[fac]], ver[self.full[fac]]
        self.hull = hull

    def moved(self, normals, offsets):
        """This lattice under new offsets, with every vertex solved again
        from its n facets, or None unless a certificate shows that Qhull
        would find the same lattice.

        On a body with no merged simplices each vertex is the basis of the n
        halfspaces of its simplex: x solves v_j . x = h_j on them, in closed
        form (h0 (v1 x v2) + h1 (v2 x v0) + h2 (v0 x v1) over det[v0, v1, v2]
        in 3-d, the same 2x2 form in 2-d).  The certificate is the simplex
        method's feasible-basis test: every solved vertex keeps slack
        h_j - x . v_j > MERGE_TOL * max(1, max h) on every halfspace outside
        its simplex.  Then each edge of the lattice still joins two solved
        vertices and meets no other plane, so the new body has exactly these
        vertices and this incidence; neighbouring vertices lie more than
        MERGE_TOL apart, so the merge sweep would merge nothing, and inactive
        halfspaces stay inactive.  Non-finite or non-positive offsets, a
        failed certificate and a failed interior test of _qhull give None.
        The copy shares labels, incidence, the Qhull hull and its edges.
        """
        simplices = self.hull.simplices
        if len(self.vertices) != len(simplices) or not ((offsets > 0) & (offsets < np.inf)).all():
            return None
        v, h = normals[simplices], offsets[simplices]
        if normals.shape[1] == 2:
            a, b = v[:, 0], v[:, 1]
            det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            # (h0 perp(b) - h1 perp(a)) with perp(w) = (w1, -w0)
            x = (h[:, :1] * b[:, ::-1] - h[:, 1:] * a[:, ::-1]) * [1.0, -1.0]
        else:
            a, b, c = v[:, 0], v[:, 1], v[:, 2]
            bc = cross(b, c)
            det = np.einsum("kj,kj->k", a, bc)
            x = h[:, :1] * bc + h[:, 1:2] * cross(c, a) + h[:, 2:] * cross(a, b)
        x /= det[:, None]
        slack = offsets - x @ normals.T
        slack[np.arange(len(x))[:, None], simplices] = np.inf
        if not slack.min() > MERGE_TOL * max(1.0, float(np.max(offsets))):
            return None
        # _qhull's interior test: the polar hull's facet planes x . y = 1
        # lie 1 / |x| from the origin
        if not 1.0 / np.linalg.norm(x, axis=1).max() > INTERIOR_TOL * np.abs(
                normals / offsets[:, None]).max():
            return None
        moved = copy.copy(self)
        moved.vertices = x
        x.flags.writeable = False
        return moved

    @functools.cached_property
    def edges(self):
        """Edges of a 3-d body as (facet, other facet, start, end) id arrays,
        one row for each of the two facets an edge bounds.

        Neighbouring simplices with different vertices share a ridge {i, j}:
        the body's edge between their vertices, on facets i and j.  Rows of
        empty facets are dropped.
        """
        lab, simplices = self.labels, self.hull.simplices
        s = np.repeat(np.arange(len(lab)), 3)
        k = np.tile(np.arange(3), len(lab))
        t = self.hull.neighbors.ravel()
        keep = (s < t) & (lab[s] != lab[t])
        s, k, t = s[keep], k[keep], t[keep]
        i = simplices[s, (k + 1) % 3]
        j = simplices[s, (k + 2) % 3]
        fac, other = np.concatenate([i, j]), np.concatenate([j, i])
        ok = self.full[fac]
        return fac[ok], other[ok], np.tile(lab[s], 2)[ok], np.tile(lab[t], 2)[ok]


class _Body:
    """What every body does with the directions its maps are given."""

    def _direction(self, v):
        """as_direction of v, whose vectors must have dim coordinates."""
        v = np.asarray(v, float)
        if v.shape[-1:] != (self.dim,):
            raise GeometryError(f"directions must be vectors of {self.dim} coordinates")
        return as_direction(v)


class _Polytope(_Body):
    """What both polytope representations read off their vertex list."""

    def support(self, v):
        """Support function h(v) = max over the vertices x of x . v, at one
        unit direction (a float) or along the rows of a (k, n) batch."""
        return (self._direction(v) @ self.vertices.T).max(axis=-1)


class HPolytope(_Polytope):
    """Intersection of halfspaces {x : x.v_i <= h_i} with unit normals v_i.

    Immutable after construction.  The normals are one DirectionSet,
    directions, built from an array as the "facet normals" (repeated
    normals are refused) or taken as given; normals and antipode read
    through to it, and with_offsets and scale share it.  Vertices, facet
    incidence, edges, areas and activity flags come lazily from the
    lattice of the polar points v_i/h_i: their Qhull hull, or for a body
    made by _moved the lattice of the body it moved from, with vertices
    solved again, when _PolarHull.moved certifies that Qhull would find
    it.  Halfspaces with an empty facet are kept and flagged inactive.  The
    hull is built at once, so an unbounded body is refused at construction
    (with_offsets builds it on first use).
    symmetric: every antipodal pair has equal offsets within 1e-9.

    Everything derived from the offsets lives in one memo, filled on first
    use by _memoized: the polar hull, the facet areas, and in measures the
    sphere-side rule's (weights, rho, facet) with its companion's
    (weights, rho), the atoms of each index q and the index-0 solid angles.
    Its arrays are read-only and 1-d (no quadrature nodes are kept), so
    each is built once per body and reused across q and calls.
    with_offsets (and with it scale) starts from an empty memo.
    """

    def __init__(self, normals, offsets):
        self.directions = (normals if isinstance(normals, DirectionSet)
                           else DirectionSet(normals, "facet normals"))
        self.dim = self.directions.dim
        self._set_offsets(offsets)
        self._polar  # builds the hull, which refuses an unbounded body

    normals = property(attrgetter("directions.rows"))
    antipode = property(attrgetter("directions.antipode"))

    def _set_offsets(self, offsets):
        offsets = np.asarray(offsets, float).copy()
        if offsets.shape != (len(self.normals),):
            raise GeometryError("normals and offsets disagree in length")
        if (offsets <= 0).any():
            raise GeometryError("offsets must be strictly positive (origin interior)")
        self.symmetric = self.directions.is_even(offsets, 1e-9 * np.maximum(1.0, offsets))
        self.offsets = offsets
        offsets.flags.writeable = False
        # a fresh dict, never a cleared one: with_offsets copies the body,
        # and the copy must not share its memo with the original
        self._memo = {}

    def _memoized(self, key, build, *args):
        """The memo's value at key, from build(*args) on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(*args)
        return value

    # -- lazy geometry ---------------------------------------------------

    @property
    def _polar(self):
        return self._memoized("polar", _PolarHull, self.normals, self.offsets)

    @property
    def vertices(self):
        return self._polar.vertices

    def facet_vertices(self, i):
        """The vertices on facet i, in no particular order (none for an
        empty facet)."""
        g = self._polar
        lo, hi = np.searchsorted(g.fac, [i, i + 1])
        return self.vertices[g.ver[lo:hi]]

    @property
    def active(self):
        """True where the facet is nonempty with positive area."""
        return self.facet_areas > 1e-12 * max(1.0, float(np.max(np.abs(self.offsets)))) ** (self.dim - 1)

    @property
    def facet_areas(self):
        return self._memoized("areas", self._facet_areas)

    def _facet_areas(self):
        m, n = self.normals.shape
        x, fac, ver = self.vertices, self._polar.fac, self._polar.ver
        areas = np.zeros(m)
        if n == 2:
            # each nonempty facet holds two vertices, adjacent in the pairs
            areas[fac[::2]] = np.linalg.norm(x[ver[1::2]] - x[ver[::2]], axis=1)
        else:
            # triangles from the vertex centroid of each facet to its edges
            count = np.maximum(np.bincount(fac, minlength=m), 1)
            centre = np.stack([np.bincount(fac, x[ver, c], minlength=m)
                               for c in range(3)], axis=1) / count[:, None]
            f, _, a, b = self._polar.edges
            tri = cross(x[a] - centre[f], x[b] - x[a])
            areas = 0.5 * np.bincount(f, np.linalg.norm(tri, axis=1), minlength=m)
        areas.flags.writeable = False
        return areas

    def volume(self):
        return float(np.sum(self.offsets * self.facet_areas) / self.dim)

    # -- evaluation ------------------------------------------------------

    def radial(self, u):
        """Radial function rho(u) = min of h_i / (u . v_i) over the facets
        with u . v_i > 0, at one unit direction (a float) or along the rows
        of a (k, n) batch."""
        return self._exits(u).min(axis=-1)

    def _exits(self, u):
        """The distance h_i / (u . v_i) at which the ray along u leaves
        halfspace i, inf where u . v_i <= 0, along the last axis of u: the
        one kernel of radial and of gauss_maps.radial_gauss."""
        dots = self._direction(u) @ self.normals.T
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(dots > 0.0, self.offsets / dots, np.inf)

    def scale(self, lam):
        if lam <= 0:
            raise GeometryError("scale factor must be positive")
        return self.with_offsets(self.offsets * lam)

    def with_offsets(self, offsets):
        """The same direction set under new offsets, with an empty memo."""
        body = copy.copy(self)
        body._set_offsets(offsets)
        return body

    def _moved(self, offsets):
        """with_offsets(offsets) holding this body's lattice with its
        vertices solved again whenever _PolarHull.moved certifies that Qhull
        would find that lattice; else the body builds its own hull on first
        use, as with_offsets would."""
        body = self.with_offsets(offsets)
        polar = self._polar.moved(self.normals, body.offsets)
        if polar is not None:
            body._memo["polar"] = polar
        return body

    # -- io ----------------------------------------------------------------

    def to_dict(self):
        return {
            "type": "hpolytope",
            "dim": self.dim,
            "normals": [list(map(float, row)) for row in self.normals],
            "offsets": [float(h) for h in self.offsets],
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != "hpolytope":
            raise GeometryError("expected a hpolytope record")
        normals = np.asarray(d["normals"], float)
        if normals.ndim != 2 or normals.shape[1] != int(d["dim"]):
            raise GeometryError("normals do not match dim")
        return cls(normals, np.asarray(d["offsets"], float))

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, facets={len(self.normals)}, symmetric={self.symmetric})"


class VPolytope(_Polytope):
    """Convex hull of a finite point set containing the origin inside.

    The stored vertex list is irredundant: the Qhull hull of the points
    prunes those inside it at construction.  assume_extreme=True takes the
    points as the vertex list and defers the hull, and with it the
    origin-interior test, to to_hpolytope.
    """

    def __init__(self, vertices, assume_extreme=False):
        vertices = np.atleast_2d(np.asarray(vertices, float)).copy()
        if vertices.ndim != 2:
            raise GeometryError("vertices must be a matrix of row vectors")
        n = vertices.shape[1]
        require_dim(n)
        scale = max(1.0, float(np.max(np.abs(vertices))))
        vertices = _merge_points(vertices, MERGE_TOL * scale)
        self._hull = None
        if not assume_extreme:
            self._hull = _qhull(vertices, "origin not interior")
            vertices = vertices[self._hull.vertices]
        self.dim = n
        self.vertices = vertices
        self.vertices.flags.writeable = False
        self._hrep = None

    def radial(self, u):
        return self.to_hpolytope().radial(u)

    def to_hpolytope(self):
        """Halfspaces from the hull's facet equations, coplanar pieces merged."""
        if self._hrep is None:
            if self._hull is None:
                self._hull = _qhull(self.vertices, "origin not interior")
            eq = self._hull.equations
            _, first = _merge_simplices(self._hull, eq[:, :-1], MERGE_TOL)
            self._hrep = HPolytope(eq[first, :-1], -eq[first, -1])
        return self._hrep

    def volume(self):
        return self.to_hpolytope().volume()

    def to_dict(self):
        return {
            "type": "vpolytope",
            "dim": self.dim,
            "vertices": [list(map(float, row)) for row in self.vertices],
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != "vpolytope":
            raise GeometryError("expected a vpolytope record")
        verts = np.asarray(d["vertices"], float)
        if verts.ndim != 2 or verts.shape[1] != int(d["dim"]):
            raise GeometryError("vertices do not match dim")
        return cls(verts)

    def __repr__(self):
        return f"VPolytope(dim={self.dim}, vertices={len(self.vertices)})"


# -- smooth bodies --------------------------------------------------------


class SmoothBody(_Body):
    """A body with a C^2 support function and a curvature_det map."""


class Ball(SmoothBody):
    def __init__(self, radius, dim=3):
        if radius <= 0:
            raise GeometryError("radius must be positive")
        require_dim(dim)
        self.radius = float(radius)
        self.dim = int(dim)

    def support(self, v):
        """The radius at one unit direction (a float) or along the rows of a
        (k, n) batch."""
        return np.full(self._direction(v).shape[:-1], self.radius)[()]

    # a ball about the origin has rho = h
    radial = support

    def grad_support(self, v):
        return self.radius * self._direction(v)

    def curvature_det(self, v):
        """det(h_ij + h delta_ij), radius^(n-1), at one unit direction (a
        float) or along the rows of a (k, n) batch."""
        return np.full(self._direction(v).shape[:-1], self.radius ** (self.dim - 1))[()]

    def __repr__(self):
        return f"Ball(radius={self.radius}, dim={self.dim})"


class Ellipsoid(SmoothBody):
    """Axis-aligned ellipsoid sum_i x_i^2/a_i^2 <= 1."""

    def __init__(self, axes):
        axes = np.asarray(axes, float)
        if axes.ndim != 1:
            raise GeometryError("axes must be a vector")
        require_dim(len(axes))
        if (axes <= 0).any():
            raise GeometryError("axes must be positive")
        self.axes = axes
        self.axes.flags.writeable = False
        self.dim = len(axes)

    def support(self, v):
        """|A v| with A = diag(axes), at one unit direction (a float) or
        along the rows of a (k, n) batch."""
        return np.sqrt(np.sum((self.axes * self._direction(v)) ** 2, axis=-1))

    def radial(self, u):
        """1 / |A^-1 u|, at one unit direction (a float) or along the rows
        of a (k, n) batch."""
        return 1.0 / np.sqrt(np.sum((self._direction(u) / self.axes) ** 2, axis=-1))

    def grad_support(self, v):
        v = self._direction(v)
        return self.axes**2 * v / self.support(v)[..., None]

    def curvature_det(self, v):
        return np.prod(self.axes) ** 2 / self.support(v) ** (self.dim + 1)

    def __repr__(self):
        return f"Ellipsoid(axes={list(self.axes)})"


# -- generic operations ---------------------------------------------------


def polar(body):
    """Polar dual: rho of the body is 1/support of the polar and vice versa."""
    if isinstance(body, HPolytope):
        act = body.active
        if not act.any():
            raise GeometryError("polar undefined")
        pts = body.normals[act] / body.offsets[act, None]
        return VPolytope(pts, assume_extreme=True)
    if isinstance(body, VPolytope):
        normals = np.array([unit(x) for x in body.vertices])
        offsets = 1.0 / np.linalg.norm(body.vertices, axis=1)
        return HPolytope(normals, offsets)
    if isinstance(body, Ball):
        return Ball(1.0 / body.radius, body.dim)
    if isinstance(body, Ellipsoid):
        return Ellipsoid(1.0 / body.axes)
    raise GeometryError("polar undefined")


def wulff_shape(dirs, h):
    """Intersection of {x.v <= h(v)} over the direction list."""
    return HPolytope(dirs, h)


def convex_hull_of_radial(dirs, rho):
    """Convex hull of the radial graph {rho(u) u}."""
    dirs = np.atleast_2d(np.asarray(dirs, float))
    rho = np.asarray(rho, float)
    if (rho <= 0).any():
        raise GeometryError("radial values must be positive")
    return VPolytope(dirs * rho[:, None])


def wulff_polar_identity_check(dirs, h):
    """Compare the polar of a Wulff shape with the hull of the reciprocal radial graph.

    Returns (ok, max vertex discrepancy): the two vertex sets must agree
    within a symmetric Hausdorff distance of 1e-9.
    """
    w = wulff_shape(dirs, h)
    lhs = polar(w).vertices
    rhs = convex_hull_of_radial(dirs, 1.0 / np.asarray(h, float)).vertices
    disc = _hausdorff(lhs, rhs)
    return disc <= 1e-9, disc


def _hausdorff(a, b):
    """Symmetric Hausdorff distance of two point sets: two nearest-neighbour
    queries."""
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


def body_from_dict(d):
    kind = d.get("type")
    if kind == "hpolytope":
        return HPolytope.from_dict(d)
    if kind == "vpolytope":
        return VPolytope.from_dict(d)
    raise GeometryError(f"unknown body type {kind!r}")
