"""Geometric measures of convex bodies.

Dual curvature measures (any real index q), dual area, cone-volume,
surface area and its L_p family, dual quermassintegrals with their
normalized dual volumes, the dual Steiner polynomial, the smooth-body
density, and the valuation identity check.

Polytope atoms for q != 0 come from one semi-analytic evaluator, _atoms,
which every caller shares, on the rows of gauss_maps.fan_rows: in 3-d the
facet integral of |x|^(q-3) has its radial direction integrated in closed
form, leaving Gauss panels over the wedge angle of each facet edge, all
edges of all facets in one NumPy pass over the (edge, facet) rows of the
body's Qhull hull (see body_core); in 2-d the arc integral of sec^q
becomes an analytic integrand under w = asinh(tan theta).  Both reach
about 1e-14 with no tuning knobs: the panel counts follow from the
longest range in w.  The q = 0 atoms are the closed-form solid angles of
the cone cells (gauss_maps.cone_partition).

The sphere-side integrals are the independent cross-check path: one
flat rule per body over the same rows, one signed fan triangle (in 2-d
one arc) per row about the facet's normal
(quadrature.spherical_polygon_rule), with rho and the facet of each node.
Its nodes, weights and rho do not depend on q, so the body's memo (see
body_core.HPolytope) keeps its weights, rho and facets, and
dual_quermassintegral, dual_area and dual_steiner_check at every q read
that one rule.  The total, the normalized volume and the Steiner fit are
sums over it, and dual_area sums it by facet into one value per cone
cell, the sphere-side twin of the atoms.  The rule has a coarse
companion on the same panels, built when an error estimate is first read
and then kept in the memo too; their difference is that estimate.  The
atoms of each index and the index-0 solid angles (cone_partition's
array) are kept in the same memo.
"""

import functools
import math
from operator import attrgetter

import numpy as np

from .body_core import (DirectionSet, GeometryError, HPolytope, SmoothBody,
                        VPolytope, as_direction, cross, match_directions)
from .gauss_maps import cone_partition, fan_rows
from .quadrature import (ROW_BLOCK, _panel_counts, panel_rule, sphere_rule,
                         spherical_polygon_rule)

SMOOTH_LEVELS = {2: 10, 3: 6}


class DiscreteSphericalMeasure:
    """Finite Borel measure on the sphere given by weighted unit-vector atoms.

    Its atom directions are one DirectionSet, directions, built from an
    array as the "atom directions" or taken as given; dirs and antipode
    read through to it, and scaled shares it.  even: every antipodal pair
    has equal weights within 1e-9 of the largest (or of 1).
    """

    def __init__(self, dirs, weights):
        weights = np.asarray(weights, float).copy()
        self.directions = (dirs if isinstance(dirs, DirectionSet)
                           else DirectionSet(dirs, "atom directions"))
        if len(self.dirs) != len(weights):
            raise GeometryError("atom directions and weights disagree in length")
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise GeometryError("weights must be finite and nonnegative")
        self.even = self.directions.is_even(weights, 1e-9 * float(weights.max(initial=1.0)))
        self.dim = self.directions.dim
        self.weights = weights
        weights.flags.writeable = False

    dirs = property(attrgetter("directions.rows"))
    antipode = property(attrgetter("directions.antipode"))

    @property
    def total(self):
        return float(self.weights.sum())

    def _weights_at(self, dirs):
        """Weight of the atom at each row's direction (0 where no atom has
        it), matched by body_core.match_directions."""
        # j = -1 picks the appended 0
        return np.append(self.weights, 0.0)[match_directions(dirs, self.dirs)]

    def scaled(self, c):
        return DiscreteSphericalMeasure(self.directions, self.weights * c)

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
        """The measure of a record; "even": true on atoms that are not
        origin-symmetric is refused, any other "even" is read off the atoms."""
        atoms = d.get("atoms")
        if atoms is None:
            raise GeometryError("expected a measure record with atoms")
        dirs = np.asarray([a["dir"] for a in atoms], float)
        weights = np.asarray([a["weight"] for a in atoms], float)
        if dirs.ndim != 2 or dirs.shape[1] != int(d["dim"]):
            raise GeometryError("atom directions do not match dim")
        mu = cls(dirs, weights)
        if d.get("even") and not mu.even:
            raise GeometryError("measure marked even but atoms are not origin-symmetric")
        return mu

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"DiscreteSphericalMeasure(dim={self.dim}, atoms={len(self)}, total={self.total:.6g})"


def measure_max_discrepancy(mu_a, mu_b):
    """Max atom difference over both direction sets: each atom against the
    other measure's atom at its direction, or 0."""
    return float(max(np.abs(mu_a.weights - mu_b._weights_at(mu_a.dirs)).max(initial=0.0),
                     np.abs(mu_b.weights - mu_a._weights_at(mu_b.dirs)).max(initial=0.0)))


def measure_l1(mu_a, mu_b):
    """L1 distance over the merged direction set: each atom of mu_a against
    mu_b's atom at its direction, plus the atoms of mu_b at directions where
    mu_a has none."""
    alone = match_directions(mu_b.dirs, mu_a.dirs) < 0
    return float(np.abs(mu_a.weights - mu_b._weights_at(mu_a.dirs)).sum()
                 + mu_b.weights[alone].sum())


# -- polytope paths --------------------------------------------------------


def _atoms_3d_radial(P, q):
    """Facet-path atoms with the radial direction integrated in closed form.

    On facet i the integrand |x|^(q-3) depends on the in-plane radius r
    about the foot of the perpendicular through h_i v_i only via
    (h_i^2 + r^2); integrating r out leaves a 1-d integral over the wedge
    angle phi of each polygon edge.  Substituting w = asinh(tan phi) makes
    the integrand analytic with poles pi/2 off the real axis, so a few
    Gauss panels reach near machine accuracy even for skinny wedges.

    One pass over the body's (edge, facet) rows, ROW_BLOCK rows at a
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
    m = np.linalg.norm(cross(rel, edge), axis=1)
    # a foot on the edge's line spans no wedge
    good = m * elen > 1e-14 * np.maximum(elen, 1.0)
    fid, other, hh, m, elen = fid[good], other[good], hh[good], m[good], elen[good]
    ta = np.einsum("ej,ej->e", rel[good], edge[good])
    inside = hh * np.einsum("ej,ej->e", v[fid], v[other]) < h[other]
    wa = np.arcsinh(ta / m)
    wb = np.arcsinh((ta + elen) / m)
    sums = np.empty(len(wa))
    for lo in range(0, len(wa), ROW_BLOCK):
        b = slice(lo, lo + ROW_BLOCK)
        sums[b] = _wedge_sums(q, wa[b], wb[b], m[b], hh[b])
    vals = np.where(inside, 1.0, -1.0) * sums
    return np.bincount(fid, hh * vals / 3.0, minlength=len(h))


def _wedge_sums(q, wa, wb, m, hh):
    """Gauss sums of the wedge integrals of (edge, facet) rows of
    _atoms_3d_radial, from w = wa to wb at distance m from the foot."""
    nodes, wts = _gauss_panels(wa, wb)
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


def _gauss_panels(wa, wb):
    """Gauss nodes and weights on each row's [wa, wb], 16 nodes a panel, all
    rows taking the panel count of the longest at FAN_PANEL_WIDTH."""
    return panel_rule(wa, wb, 16, int(_panel_counts(wb - wa).max(initial=1)))


def _atoms_2d_arc(P, q):
    """Edge-path atoms in the plane, one Gauss sweep over all arcs.

    The arc integral (h^q/2) int sec^q(theta) d(theta) over the wedge of
    edge i becomes (h^q/2) int cosh(w)^(q-1) dw under w = asinh(tan theta),
    which is analytic and panel-friendly; exact for q in {1, 2}.  The ends
    of each arc are its fan_rows rays, with tan theta = det[v, r] / v.r
    about the edge's normal v.
    """
    fid, starts, ends = fan_rows(P)
    v = P.normals[fid]
    wa, wb = (np.arcsinh((v[:, 0] * r[:, 1] - v[:, 1] * r[:, 0]) / np.einsum("ij,ij->i", v, r))
              for r in (starts, ends))
    nodes, wts = _gauss_panels(wa, wb)
    vals = (wts * np.cosh(nodes) ** (q - 1.0)).sum(axis=1)
    return np.bincount(fid, 0.5 * P.offsets[fid] ** q * vals, minlength=len(P.normals))


def _atoms(P, q):
    """Index-q atoms of an H-polytope, one per halfspace (0 if inactive).

    The one atom evaluator behind dual_curvature, the solver and the
    variational checks: wherever atoms are paired with a dual
    quermassintegral, that total comes from the same evaluator.  A body
    with no nonempty facet (all its vertices merged) has zero atoms.  The
    atoms are evaluated once per body and float(q), and shared read-only.
    """
    q = float(q)
    return P._memoized(("atoms", q), _atoms_of, P, q)


def _atoms_of(P, q):
    atoms = _atoms_2d_arc(P, q) if P.dim == 2 else _atoms_3d_radial(P, q)
    # np.bincount gives integers when it has no rows to count
    atoms = atoms.astype(float, copy=False)
    atoms.flags.writeable = False
    return atoms


def _atom_jacobian(P, q, atoms):
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
        dist = np.linalg.norm(cross(x[ia], edge), axis=1)
        ta = np.einsum("ej,ej->e", x[ia], edge)
        nodes, wts = _gauss_panels(np.arcsinh(ta / dist), np.arcsinh((ta + elen) / dist))
        vals = dist ** (q - 2.0) * (wts * np.cosh(nodes) ** (q - 2.0)).sum(axis=1)
        sin = np.linalg.norm(cross(v[i], v[j]), axis=1)
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
    return DiscreteSphericalMeasure(P.directions, atoms)


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
    return _facet_measure(P, P._memoized("q0", cone_partition, P) / P.dim)


def cone_volume_measure(P):
    """Atom i is the volume of the cone over facet i: h_i area_i / n."""
    P = _require_hpolytope(P)
    atoms = P.offsets * P.facet_areas / P.dim
    return DiscreteSphericalMeasure(P.directions, atoms)


def surface_area_measure(P):
    """Atom i is the facet's (n-1)-dimensional area."""
    P = _require_hpolytope(P)
    return DiscreteSphericalMeasure(P.directions, P.facet_areas)


def lp_surface_area_measure(P, p):
    """Atom i is h_i^(1-p) area_i; p=1 is surface area, p=0 is n times cone volume."""
    P = _require_hpolytope(P)
    atoms = P.offsets ** (1.0 - p) * P.facet_areas
    return DiscreteSphericalMeasure(P.directions, atoms)


# -- sphere-side integrals -------------------------------------------------


def _sphere_side(K):
    """The sphere-side rule of K as flat arrays (weights, rho, facet,
    coarse, n): node weights, rho at the nodes, the facet whose cone cell
    holds each node (None for a smooth body), a builder of the companion
    rule's weights and rho, and K's dimension.

    Smooth bodies take one global sphere rule, with the next level down as
    its companion.  Polytopes take one spherical_polygon_rule over all rows
    of fan_rows, independent of the facet-path atoms: one signed fan
    triangle (in 2-d one arc) per row about the facet's normal v_i, where
    rho = h_i / (u . v_i).  A polytope's rule and companion are built once
    and kept in its memo.
    """
    if isinstance(K, SmoothBody):
        level = SMOOTH_LEVELS[K.dim]

        def at(level):
            rule = sphere_rule(K.dim, level)
            return rule.weights, K.radial(rule.nodes)

        return (*at(level), None, lambda: at(level - 1), K.dim)
    P = _require_hpolytope(K)
    w, rho, facet, companion = P._memoized("sphere", _polygon_side, P)
    return w, rho, facet, lambda: P._memoized("companion", companion), P.dim


def _polygon_side(P):
    """P's fine rule as read-only (weights, rho, facet), with a builder of
    its companion's (weights, rho)."""
    fid, starts, ends = fan_rows(P)
    poles, offsets = P.normals[fid], P.offsets[fid]

    def at(rule):
        # np.take gathers rows several times faster than fancy indexing
        rho = offsets[rule.edge] / np.einsum("ij,ij->i", rule.nodes, np.take(poles, rule.edge, axis=0))
        rho.flags.writeable = False
        return rule.weights, rho

    rule = spherical_polygon_rule(poles, starts, ends)
    facet = fid[rule.edge]
    facet.flags.writeable = False
    # hold the companion's builder, not the rule, so the memo keeps no nodes
    companion = rule.companion
    return (*at(rule), facet, lambda: at(companion()))


class DualQuermassResult:
    """A dual quermassintegral value with its normalized dual volume.

    error estimates the value's absolute error: its difference from the
    coarse companion rule on the same panels, plus the rounding of the sum.
    The companion costs about half the value's own rule, so it is built
    when error is first read, by the zero-argument callable passed in (a
    polytope's companion once per body, whatever the q).
    """

    def __init__(self, q, value, normalized, error):
        self.q = float(q)
        self.value = float(value)
        self.normalized = float(normalized)
        self._error = error

    @functools.cached_property
    def error(self):
        return float(self._error())

    def __repr__(self):
        return (f"DualQuermassResult(q={self.q}, value={self.value!r}, "
                f"normalized={self.normalized!r}, error={self.error!r})")


def dual_quermassintegral(K, q):
    """(1/n) integral of rho^q over the sphere, with the normalized dual volume.

    Polytopes integrate cone-wise on the sphere side (independent of the
    facet-path atoms); smooth bodies use a global sphere rule.  q may be
    any real for polytopes.  The normalized dual volume is the q-th power
    mean of rho over the sphere, exp((c + log1p(M)) / q) with c the largest
    q log rho and M the mean of expm1(q log rho - c), so it neither cancels
    as q -> 0 nor loses 1 + M when rho^q is far from 1; at q=0 it is the
    exponential of the mean of log rho.  The sums are einsum loops, which
    stay on the calling thread where BLAS dots would wake its threads.
    """
    w, rho, _, coarse, n = _sphere_side(K)
    f = rho**q
    value = float(np.einsum("i,i->", w, f)) / n
    size = float(np.einsum("i,i->", np.abs(w), f)) / n
    g = np.log(rho)
    if q == 0:
        normalized = math.exp(float(np.einsum("i,i->", w, g) / w.sum()))
    else:
        g *= q
        c = float(g.max(initial=-math.inf))
        mean = float(np.einsum("i,i->", w, np.expm1(g - c)) / w.sum())
        normalized = math.exp((c + math.log1p(mean)) / q)
    # rho**q carries about |q| times rho's few ulps, and the sum of the
    # signed terms loses up to about log2(terms) more
    rounding = (abs(q) + 32.0) * np.finfo(float).eps * size

    def error():
        cw, crho = coarse()
        return abs(value - float(np.einsum("i,i->", cw, crho**q)) / n) + rounding

    return DualQuermassResult(q, value, normalized, error)


def dual_area(K, q):
    """(1/n) integral of rho^q over each cone cell of the polytope K: an
    (m,) array, one entry per halfspace (0 for an empty cell), read off
    the one sphere-side rule by the facet each node lies in.

    The sphere-side twin of the atoms: entry i matches the dual curvature
    atom of facet i.  The whole sphere's value is
    dual_quermassintegral(K, q).value.
    """
    P = _require_hpolytope(K)
    w, rho, facet, _, n = _sphere_side(P)
    return np.bincount(facet, w * rho**q, minlength=len(P.normals)) / n


def dual_steiner_check(K, t_samples):
    """Fit the polynomial expansion of the radial-sum volume V(K + tB).

    Computes V at each t by direct quadrature of (rho+t)^n / n and solves
    the least-squares system against binom(n,i) t^(n-i); returns the fitted
    coefficient for each power, index i holding the value whose direct
    counterpart is dual_quermassintegral(K, q=i).
    """
    t_samples = np.asarray(t_samples, float)
    if len(t_samples) < K.dim + 1:
        raise GeometryError("need at least n+1 sample values of t")
    w, rho, _, _, n = _sphere_side(K)
    vols = np.array([np.einsum("i,i->", w, (rho + t) ** n) for t in t_samples]) / n
    design = np.array([[math.comb(n, i) * t ** (n - i) for i in range(n + 1)] for t in t_samples])
    coef, *_ = np.linalg.lstsq(design, vols, rcond=None)
    return coef


def dual_curvature_density_smooth(K, q, v):
    """Pointwise density of the index-q dual curvature of a smooth body.

    (1/n) h(v) |grad h(v)|^(q-n) det(h_ij + h delta_ij) from closed forms,
    at one unit direction (a float) or along the rows of a (k, n) batch.
    """
    if not isinstance(K, SmoothBody):
        raise GeometryError("density is defined for smooth bodies")
    if q < 0:
        raise GeometryError("smooth density restricted to q >= 0")
    v = as_direction(v)
    g = np.linalg.norm(K.grad_support(v), axis=-1)
    return K.support(v) * g ** (q - K.dim) * K.curvature_det(v) / K.dim


# -- set operations and the valuation identity ------------------------------


def intersect_hpolytopes(K, L):
    """Halfspace intersection: a normal of L that is the same direction as
    one of K's (body_core.match_directions) keeps the smaller offset on K's
    nearest normal; the others are appended in order."""
    j = match_directions(L.normals, K.normals)
    hit = j >= 0
    offsets = K.offsets.copy()
    np.minimum.at(offsets, j[hit], L.offsets[hit])
    return HPolytope(np.vstack([K.normals, L.normals[~hit]]),
                     np.concatenate([offsets, L.offsets[~hit]]))


def hull_of_union(K, L):
    return VPolytope(np.vstack([K.vertices, L.vertices])).to_hpolytope()


def valuation_check(K, L, q):
    """Max atom discrepancy in the inclusion-exclusion identity for index q.

    The identity is tested at every atom direction of the four measures,
    each measure weighing a direction by its atom there (0 if none).
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
    # a direction in several measures gives the same difference each time
    dirs = np.vstack([mk.dirs, ml.dirs, mi.dirs, mh.dirs])
    wk, wl, wi, wh = (m._weights_at(dirs) for m in (mk, ml, mi, mh))
    return float(np.abs((wk + wl) - (wi + wh)).max(initial=0.0))
