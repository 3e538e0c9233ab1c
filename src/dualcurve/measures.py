"""Geometric measures of convex bodies.

Dual curvature measures (any real index q), dual area, cone-volume,
surface area and its L_p family, dual quermassintegrals with their
normalized dual volumes, the dual Steiner polynomial, the smooth-body
density, and the valuation identity check.

Polytope atoms for q != 0 come from one semi-analytic evaluator, _atoms,
which every caller shares: in 3-d the facet integral of |x|^(q-3) has its
radial direction integrated in closed form, leaving Gauss panels over the
wedge angle of each facet edge, all edges of all facets in one NumPy pass
over the (edge, facet) rows of the body's Qhull hull (see body_core); in
2-d the arc integral of sec^q becomes an analytic integrand under
w = asinh(tan theta).  Both reach about 1e-14 with no tuning knobs.  The
sphere-side cone integrals behind dual_quermassintegral serve as the
independent cross-check path.  The q = 0 atoms are closed-form solid
angles.
"""

import math

import numpy as np

from .body_core import (Ball, Ellipsoid, GeometryError, HPolytope, SmoothBody,
                        VPolytope, antipodes, as_direction)
from .gauss_maps import ConeCell, cone_partition, radial_batch
from .quadrature import (arc_rule, sphere_rule, spherical_polygon_rule,
                         unit_ball_volume)

DEFAULT_DEGREE = 10
DEFAULT_SUBDIV = 3
SMOOTH_LEVELS = {2: 10, 3: 6}


class DiscreteSphericalMeasure:
    """Finite Borel measure on the sphere given by weighted unit-vector atoms."""

    def __init__(self, dirs, weights, even=None):
        dirs = np.atleast_2d(np.asarray(dirs, float)).copy()
        weights = np.asarray(weights, float).copy()
        if len(dirs) != len(weights):
            raise GeometryError("atom directions and weights disagree in length")
        norms = np.linalg.norm(dirs, axis=1)
        if (np.abs(norms - 1.0) > 1e-9).any():
            raise GeometryError("atom directions must be unit vectors")
        fix = np.abs(norms - 1.0) > 1e-12
        if fix.any():
            dirs[fix] /= norms[fix, None]
        if (weights < 0).any():
            raise GeometryError("weights must be nonnegative")
        if len(dirs) > 1:
            gap = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
            np.fill_diagonal(gap, np.inf)
            if gap.min() <= 1e-9:
                raise GeometryError("atom directions must be pairwise distinct")
        detected = self._detect_even(dirs, weights)
        if even is None:
            even = detected
        elif even and not detected:
            raise GeometryError("measure marked even but atoms are not origin-symmetric")
        self.dim = dirs.shape[1]
        self.dirs = dirs
        self.weights = weights
        self.even = bool(even)
        dirs.flags.writeable = False
        weights.flags.writeable = False

    @staticmethod
    def _detect_even(dirs, weights, tol=1e-9):
        scale = max(1.0, float(weights.max()) if len(weights) else 1.0)
        j = antipodes(dirs, tol)
        if j is None:
            return False
        return bool((np.abs(weights[j] - weights) <= tol * scale).all())

    @property
    def total(self):
        return float(self.weights.sum())

    def weight_at(self, v, tol=1e-9):
        """Atom weight at direction v (0 if no atom lies within tol)."""
        v = as_direction(v)
        d = np.linalg.norm(self.dirs - v, axis=1)
        j = int(np.argmin(d))
        return float(self.weights[j]) if d[j] <= tol else 0.0

    def scaled(self, c):
        return DiscreteSphericalMeasure(self.dirs, self.weights * c, even=self.even)

    def to_dict(self):
        return {
            "dim": self.dim,
            "even": self.even,
            "atoms": [
                {"dir": [float(x) for x in d], "weight": float(w)}
                for d, w in zip(self.dirs, self.weights)
            ],
        }

    @classmethod
    def from_dict(cls, d):
        atoms = d.get("atoms")
        if atoms is None:
            raise GeometryError("expected a measure record with atoms")
        dirs = np.asarray([a["dir"] for a in atoms], float)
        weights = np.asarray([a["weight"] for a in atoms], float)
        if dirs.ndim != 2 or dirs.shape[1] != int(d["dim"]):
            raise GeometryError("atom directions do not match dim")
        return cls(dirs, weights, even=d.get("even"))

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"DiscreteSphericalMeasure(dim={self.dim}, atoms={len(self)}, total={self.total:.6g})"


def measure_max_discrepancy(mu_a, mu_b, tol=1e-9):
    """Max atom difference over the merged direction set."""
    worst = 0.0
    for d, w in zip(mu_a.dirs, mu_a.weights):
        worst = max(worst, abs(w - mu_b.weight_at(d, tol)))
    for d, w in zip(mu_b.dirs, mu_b.weights):
        worst = max(worst, abs(w - mu_a.weight_at(d, tol)))
    return worst


def measure_l1(mu_a, mu_b, tol=1e-9):
    """L1 distance over the merged direction set."""
    seen = []
    total = 0.0
    for d, w in zip(mu_a.dirs, mu_a.weights):
        total += abs(w - mu_b.weight_at(d, tol))
        seen.append(d)
    for d, w in zip(mu_b.dirs, mu_b.weights):
        if any(np.linalg.norm(d - s) <= tol for s in seen):
            continue
        total += abs(w - mu_a.weight_at(d, tol))
    return total


# -- polytope paths --------------------------------------------------------


def _arcs_2d(P):
    """The circle cut at the vertex rays, each arc with its edge (n=2).

    Returns (ids, lo, hi): the edge the radial Gauss map sends the arc's
    midpoint to, and the arc's ends as signed angles about that edge's
    normal.  The arcs are read from the vertices alone, so they tile the
    circle with no facet incidence involved.
    """
    x = P.vertices
    phi = np.sort(np.arctan2(x[:, 1], x[:, 0]))
    ends = np.stack([phi, np.roll(phi, -1)], axis=1)
    ends[-1, 1] += 2.0 * math.pi
    mid = ends.mean(axis=1)
    _, ids, _ = radial_batch(P.normals, P.offsets, np.column_stack([np.cos(mid), np.sin(mid)]))
    th = ends - np.arctan2(P.normals[ids, 1], P.normals[ids, 0])[:, None]
    th = (th + math.pi) % (2.0 * math.pi) - math.pi
    return ids, th[:, 0], th[:, 1]


def _sec_arc_rule(lo, hi, npts):
    """Gauss nodes/weights in theta on [lo, hi] inside (-pi/2, pi/2), placed
    for integrands like sec(theta)**q.

    The nodes sit in w = asinh(tan theta) with weights dw / cosh(w), so
    sec^q(theta) d(theta) = cosh^(q-1)(w) dw is analytic in the rule's
    variable; arcs reaching towards +-pi/2 (thin bodies) keep full accuracy.
    """
    w, dw = arc_rule(math.asinh(math.tan(lo)), math.asinh(math.tan(hi)), npts)
    return np.arctan(np.sinh(w)), dw / np.cosh(w)


_PANEL_CACHE = {}
# rows per block of the (edge, node) arrays of _atoms_3d_radial: at 128
# nodes a row, each temporary stays at 64 KB, inside the cache and small
# enough for the allocator to reuse instead of mapping fresh pages per call
EDGE_BLOCK = 64


def _panel_rule(lo, hi, n_nodes, n_panels):
    """Gauss nodes and weights on n_panels equal panels of each row's
    interval [lo, hi], as (rows, n_panels * n_nodes) arrays.  The nodes'
    places in [0, 1] and their Gauss weights are built once per size."""
    key = (n_nodes, n_panels)
    if key not in _PANEL_CACHE:
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
        offs = (np.arange(n_panels)[:, None] + 0.5 * (gl_x[None, :] + 1.0)).ravel() / n_panels
        gw = np.tile(gl_w, n_panels)
        offs.flags.writeable = gw.flags.writeable = False
        _PANEL_CACHE[key] = offs, gw
    offs, gw = _PANEL_CACHE[key]
    nodes = lo[:, None] + (hi - lo)[:, None] * offs[None, :]
    wts = (hi - lo)[:, None] * gw[None, :] / (2.0 * n_panels)
    return nodes, wts


def _atoms_3d_radial(P, q, n_nodes=16, n_panels=8):
    """Facet-path atoms with the radial direction integrated in closed form.

    On facet i the integrand |x|^(q-3) depends on the in-plane radius r
    about the foot of the perpendicular through h_i v_i only via
    (h_i^2 + r^2); integrating r out leaves a 1-d integral over the wedge
    angle phi of each polygon edge.  Substituting w = asinh(tan phi) makes
    the integrand analytic with poles pi/2 off the real axis, so a few
    Gauss panels reach near machine accuracy even for skinny wedges.

    One pass over the body's (edge, facet) rows, EDGE_BLOCK rows at a
    time for the (edge, node) arrays: the edge's line lies at
    distance m from the foot, and an end at signed position t along it
    (from the foot's projection) has tan phi = t/m.  A wedge counts with
    sign +1 when the foot is on the facet's side of the edge, that is when
    h_i v_i . v_j < h_j for the edge's other facet j.
    """
    h, v = P.offsets, P.normals
    fid, other, ia, ib = P._polar.edges
    hh = h[fid]
    rel = P.vertices[ia] - hh[:, None] * v[fid]
    edge = P.vertices[ib] - P.vertices[ia]
    # ends of an edge are distinct vertices, more than MERGE_TOL apart
    elen = np.linalg.norm(edge, axis=1)
    edge /= elen[:, None]
    m = np.linalg.norm(np.cross(rel, edge), axis=1)
    # a foot on the edge's line spans no wedge
    good = m * elen > 1e-14 * np.maximum(elen, 1.0)
    fid, other, hh, m, elen = fid[good], other[good], hh[good], m[good], elen[good]
    ta = np.einsum("ej,ej->e", rel[good], edge[good])
    inside = hh * np.einsum("ej,ej->e", v[fid], v[other]) < h[other]
    wa = np.arcsinh(ta / m)
    wb = np.arcsinh((ta + elen) / m)
    sums = np.empty(len(wa))
    for lo in range(0, len(wa), EDGE_BLOCK):
        b = slice(lo, lo + EDGE_BLOCK)
        sums[b] = _wedge_sums(q, wa[b], wb[b], m[b], hh[b], n_nodes, n_panels)
    vals = np.where(inside, 1.0, -1.0) * sums
    return np.bincount(fid, hh * vals / 3.0, minlength=len(h))


def _wedge_sums(q, wa, wb, m, hh, n_nodes, n_panels):
    """Gauss sums of the wedge integrals of (edge, facet) rows of
    _atoms_3d_radial, from w = wa to wb at distance m from the foot."""
    nodes, wts = _panel_rule(wa, wb, n_nodes, n_panels)
    # s2 = cosh^2 = 1 + sinh^2 and r2 = m^2 s2; the (edge, node) arrays are
    # updated in place, which saves a third of the time at 48 halfspaces
    s2 = np.sinh(nodes)
    s2 *= s2
    s2 += 1.0
    h2 = (hh**2)[:, None]
    inner = (m[:, None] ** 2) * s2
    inner /= h2
    np.log1p(inner, out=inner)
    if q == 1.0:
        inner *= 0.5
    else:
        # ((h2 + r2)^a - h2^a) / (q - 1) with a = (q - 1)/2, written so it
        # does not cancel as q -> 1
        a = 0.5 * (q - 1.0)
        inner *= a
        np.expm1(inner, out=inner)
        inner *= h2**a
        inner /= q - 1.0
    # integrand inner * dphi/dw = inner * cosh(w) / s2
    inner *= wts
    inner *= np.cosh(nodes)
    inner /= s2
    return inner.sum(axis=1)


def _atoms_2d_arc(P, q, n_nodes=16, n_panels=4):
    """Edge-path atoms in the plane, one Gauss sweep over all arcs.

    The arc integral (h^q/2) int sec^q(theta) d(theta) over the wedge of
    edge i becomes (h^q/2) int cosh(w)^(q-1) dw under w = asinh(tan theta),
    which is analytic and panel-friendly; exact for q in {1, 2}.
    """
    ids, lo, hi = _arcs_2d(P)
    nodes, wts = _panel_rule(np.arcsinh(np.tan(lo)), np.arcsinh(np.tan(hi)), n_nodes, n_panels)
    vals = (wts * np.cosh(nodes) ** (q - 1.0)).sum(axis=1)
    atoms = np.zeros(len(P.normals))
    np.add.at(atoms, ids, 0.5 * P.offsets[ids] ** q * vals)
    return atoms


def _atoms(P, q):
    """Index-q atoms of an H-polytope, one per halfspace (0 if inactive).

    The one atom evaluator behind dual_curvature, the solver and the
    variational checks: wherever atoms are paired with a dual
    quermassintegral, that total comes from the same evaluator.
    """
    if P.dim == 2:
        return _atoms_2d_arc(P, q)
    return _atoms_3d_radial(P, q)


def _atom_jacobian(P, q, atoms, n_nodes=16, n_panels=4):
    """d atom_i / d log h_j of an H-polytope, given its atoms: the second
    variation of the dual quermassintegral, whose first variation the atoms
    are (Huang, Lutwak, Yang & Zhang, Acta Math. 216, 2016).

    Raising h_j moves plane j out and widens facet i by a strip of width
    dh_j / sin(theta_ij) along their shared edge, so for adjacent facets

        J_ij = h_i h_j / (n sin theta_ij) * int over F_i n F_j of |x|^(q-n) ds,

    and J_ij = 0 for facets that share no edge.  In 2-d the edge is the
    shared vertex p and the integral is |p|^(q-2).  In 3-d, along a line at
    distance D from 0 with t = D sinh(w), it is D^(q-2) int cosh^(q-2)(w) dw,
    analytic in w, in Gauss panels.  The atoms are homogeneous of degree q,
    so J_ii = q a_i - sum_(j != i) J_ij: J is exactly symmetric, each row
    sums to q a_i, and a halfspace with an empty facet has a zero row.
    """
    h, v = P.offsets, P.normals
    m, n = v.shape
    g = P._polar
    x = P.vertices
    if n == 2:
        # each vertex lies on exactly two nonempty facets
        order = np.argsort(g.ver, kind="stable")
        i, j = g.fac[order].reshape(-1, 2).T
        vals = np.linalg.norm(x[g.ver[order][::2]], axis=1) ** (q - 2.0)
        sin = np.abs(v[i, 0] * v[j, 1] - v[i, 1] * v[j, 0])
    else:
        i, j, ia, ib = g.edges
        keep = (i < j) & g.full[j]
        i, j, ia, ib = i[keep], j[keep], ia[keep], ib[keep]
        edge = x[ib] - x[ia]
        elen = np.linalg.norm(edge, axis=1)
        edge /= elen[:, None]
        dist = np.linalg.norm(np.cross(x[ia], edge), axis=1)
        ta = np.einsum("ej,ej->e", x[ia], edge)
        nodes, wts = _panel_rule(np.arcsinh(ta / dist), np.arcsinh((ta + elen) / dist),
                                 n_nodes, n_panels)
        vals = dist ** (q - 2.0) * (wts * np.cosh(nodes) ** (q - 2.0)).sum(axis=1)
        sin = np.linalg.norm(np.cross(v[i], v[j]), axis=1)
    vals *= h[i] * h[j] / (n * sin)
    J = np.zeros((m, m))
    J[i, j] = vals
    J[j, i] = vals
    J[np.diag_indices(m)] = q * atoms - J.sum(axis=1)
    return J


def _require_hpolytope(body):
    if isinstance(body, VPolytope):
        return body.to_hpolytope()
    if not isinstance(body, HPolytope):
        raise GeometryError("expected a polytope")
    return body


def _facet_measure(P, atoms):
    """The measure with one atom per halfspace of P.

    A symmetric body has an exactly even measure; averaging each atom with
    its mirror's removes the quadrature noise that differs between a facet
    and its mirror image.
    """
    if P.symmetric:
        atoms = 0.5 * (atoms + atoms[P.antipode])
    return DiscreteSphericalMeasure(P.normals, atoms, even=P.symmetric or None)


def dual_curvature(P, q):
    """Dual curvature measure of index q: one atom per facet normal.

    The atom of facet i is (1/n) * integral of rho^q over the facet's
    spherical cone, evaluated on the facet itself where the integrand is
    h_i |x|^(q-n) / n.  Inactive halfspaces get weight 0.
    """
    P = _require_hpolytope(P)
    if q == 0:
        return dual_curvature_q0(P)
    return _facet_measure(P, _atoms(P, q))


def dual_curvature_q0(P):
    """Index-0 dual curvature: (1/n) times the solid angle of each cone cell.

    Totals the unit-ball volume; equals 1/n times the integral curvature of
    the polar body.
    """
    P = _require_hpolytope(P)
    angles = np.array([c.solid_angle() if not c.empty else 0.0 for c in cone_partition(P)])
    return _facet_measure(P, angles / P.dim)


def cone_volume_measure(P):
    """Atom i is the volume of the cone over facet i: h_i area_i / n."""
    P = _require_hpolytope(P)
    atoms = P.offsets * P.facet_areas / P.dim
    return DiscreteSphericalMeasure(P.normals, atoms, even=P.symmetric or None)


def surface_area_measure(P):
    """Atom i is the facet's (n-1)-dimensional area."""
    P = _require_hpolytope(P)
    return DiscreteSphericalMeasure(P.normals, P.facet_areas.copy(), even=None)


def lp_surface_area_measure(P, p):
    """Atom i is h_i^(1-p) area_i; p=1 is surface area, p=0 is n times cone volume."""
    P = _require_hpolytope(P)
    atoms = P.offsets ** (1.0 - p) * P.facet_areas
    return DiscreteSphericalMeasure(P.normals, atoms, even=None)


# -- sphere-side integrals -------------------------------------------------


def _cone_nodes(P, degree=DEFAULT_DEGREE, subdiv=DEFAULT_SUBDIV, npts=64):
    """Spherical weights and rho values, yielded one cone cell at a time.

    The independent sphere-side path: for n=3 fan-transport rules on each
    cell, for n=2 Gauss panels in asinh(tan theta) on each arc.  Callers sum
    cell by cell, so memory is bounded by the largest cell's rule.
    """
    if P.dim == 2:
        for i, lo, hi in zip(*_arcs_2d(P)):
            th, w = _sec_arc_rule(lo, hi, npts)
            yield w, P.offsets[i] / np.cos(th)
        return
    for i in np.flatnonzero(P.active):
        verts = P.facet_vertices(i)
        rays = verts / np.linalg.norm(verts, axis=1)[:, None]
        rule = spherical_polygon_rule(rays, degree=degree, subdiv=subdiv)
        yield rule.weights, P.offsets[i] / (rule.nodes @ P.normals[i])


def _rho_batch(body, dirs):
    if isinstance(body, Ball):
        return np.full(len(dirs), body.radius)
    if isinstance(body, Ellipsoid):
        return 1.0 / np.sqrt(np.sum((dirs / body.axes) ** 2, axis=1))
    raise GeometryError("no closed-form radial function")


def _sphere_cells(K, degree, subdiv):
    """The sphere-side rule of K as (weights, rho) pieces, with K's dimension.

    Smooth bodies take one global sphere rule; polytopes the cone cells of
    _cone_nodes, independent of the facet-path atoms.
    """
    if isinstance(K, SmoothBody):
        rule = sphere_rule(K.dim, SMOOTH_LEVELS[K.dim])
        return [(rule.weights, _rho_batch(K, rule.nodes))], K.dim
    P = _require_hpolytope(K)
    return _cone_nodes(P, degree, subdiv), P.dim


class DualQuermassResult:
    """A dual quermassintegral value with its normalized dual volume."""

    def __init__(self, q, value, normalized):
        self.q = float(q)
        self.value = float(value)
        self.normalized = float(normalized)

    def __repr__(self):
        return f"DualQuermassResult(q={self.q}, value={self.value!r}, normalized={self.normalized!r})"


def dual_quermassintegral(K, q, degree=DEFAULT_DEGREE, subdiv=DEFAULT_SUBDIV):
    """(1/n) integral of rho^q over the sphere, with the normalized dual volume.

    Polytopes integrate cone-wise on the sphere side (independent of the
    facet-path atoms); smooth bodies use a global sphere rule.  q may be
    any real for polytopes; the normalization at q=0 is the exponential of
    the mean of log rho.
    """
    cells, n = _sphere_cells(K, degree, subdiv)
    omega = unit_ball_volume(n)
    if q == 0:
        sums = np.sum([(w.sum(), w @ np.log(rho)) for w, rho in cells], axis=0)
        value = float(sums[0]) / n
        normalized = math.exp(float(sums[1]) / (n * omega))
    else:
        value = sum(float(w @ rho**q) for w, rho in cells) / n
        normalized = (value / omega) ** (1.0 / q)
    return DualQuermassResult(q, value, normalized)


def dual_area(K, q, region=None, degree=DEFAULT_DEGREE, subdiv=DEFAULT_SUBDIV, npts=64):
    """(1/n) integral of rho^q over a spherical region.

    region=None is the whole sphere; otherwise a ConeCell or list of them
    (from this body's cone partition).  Over the cell of facet i this is
    the dual curvature atom of facet i.
    """
    if region is None:
        return dual_quermassintegral(K, q, degree=degree, subdiv=subdiv).value
    if isinstance(region, ConeCell):
        region = [region]
    n = K.dim
    total = 0.0
    for cell in region:
        if cell.empty:
            continue
        if n == 2:
            a, b = cell.apex_rays
            v = cell.normal
            lo = math.atan2(v[0] * a[1] - v[1] * a[0], float(v @ a))
            hi = math.atan2(v[0] * b[1] - v[1] * b[0], float(v @ b))
            th, w = _sec_arc_rule(min(lo, hi), max(lo, hi), npts)
            total += 0.5 * cell.offset**q * float(w @ np.cos(th) ** (-q))
        else:
            rule = spherical_polygon_rule(cell.apex_rays, degree=degree, subdiv=subdiv)
            rho = cell.offset / (rule.nodes @ cell.normal)
            total += float(rule.weights @ rho**q) / 3.0
    return total


def dual_steiner_check(K, t_samples, degree=DEFAULT_DEGREE, subdiv=DEFAULT_SUBDIV):
    """Fit the polynomial expansion of the radial-sum volume V(K + tB).

    Computes V at each t by direct quadrature of (rho+t)^n / n and solves
    the least-squares system against binom(n,i) t^(n-i); returns the fitted
    coefficient for each power, index i holding the value whose direct
    counterpart is dual_quermassintegral(K, q=i).
    """
    t_samples = np.asarray(t_samples, float)
    cells, n = _sphere_cells(K, degree, subdiv)
    if len(t_samples) < n + 1:
        raise GeometryError("need at least n+1 sample values of t")
    vols = np.sum([[float(w @ (rho + t) ** n) for t in t_samples] for w, rho in cells], axis=0) / n
    design = np.array([[math.comb(n, i) * t ** (n - i) for i in range(n + 1)] for t in t_samples])
    coef, *_ = np.linalg.lstsq(design, vols, rcond=None)
    return coef


def dual_curvature_density_smooth(K, q, v):
    """Pointwise density of the index-q dual curvature of a smooth body.

    (1/n) h(v) |grad h(v)|^(q-n) det(h_ij + h delta_ij) from closed forms.
    """
    if not isinstance(K, SmoothBody):
        raise GeometryError("density is defined for smooth bodies")
    if q < 0:
        raise GeometryError("smooth density restricted to q >= 0")
    v = np.asarray(v, float)
    if v.ndim == 2:
        return np.array([dual_curvature_density_smooth(K, q, row) for row in v])
    v = as_direction(v)
    h = K.support(v)
    g = np.linalg.norm(K.grad_support(v))
    return h * g ** (q - K.dim) * K.curvature_det(v) / K.dim


# -- set operations and the valuation identity ------------------------------


def intersect_hpolytopes(K, L, tol=1e-9):
    """Halfspace intersection; duplicate directions keep the smaller offset."""
    normals = [row for row in K.normals]
    offsets = [h for h in K.offsets]
    for v, h in zip(L.normals, L.offsets):
        dup = None
        for j, w in enumerate(normals):
            if np.linalg.norm(w - v) <= tol:
                dup = j
                break
        if dup is None:
            normals.append(v)
            offsets.append(h)
        else:
            offsets[dup] = min(offsets[dup], h)
    return HPolytope(np.array(normals), np.array(offsets), validate=False)


def hull_of_union(K, L):
    return VPolytope(np.vstack([K.vertices, L.vertices]), validate=False).to_hpolytope()


def valuation_check(K, L, q, tol=1e-9):
    """Max atom discrepancy in the inclusion-exclusion identity for index q.

    Requires the union to be convex, verified by the volume identity
    V(conv(K u L)) = V(K) + V(L) - V(K n L).
    """
    K = _require_hpolytope(K)
    L = _require_hpolytope(L)
    inter = intersect_hpolytopes(K, L)
    hull = hull_of_union(K, L)
    v_lhs = hull.volume()
    v_rhs = K.volume() + L.volume() - inter.volume()
    if abs(v_lhs - v_rhs) > 1e-9 * max(1.0, v_lhs):
        raise GeometryError("union is not convex")

    mk, ml = dual_curvature(K, q), dual_curvature(L, q)
    mi, mh = dual_curvature(inter, q), dual_curvature(hull, q)
    dirs = [d for d in mk.dirs]
    for m in (ml, mi, mh):
        for d in m.dirs:
            if not any(np.linalg.norm(d - s) <= tol for s in dirs):
                dirs.append(d)
    worst = 0.0
    for d in dirs:
        lhs = mk.weight_at(d, tol) + ml.weight_at(d, tol)
        rhs = mi.weight_at(d, tol) + mh.weight_at(d, tol)
        worst = max(worst, abs(lhs - rhs))
    return worst
