import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy import integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualcurve
from dualcurve import (Ball, DiscreteSphericalMeasure, Ellipsoid,
                       GeometryError, HPolytope, VPolytope,
                       cone_volume_measure, dual_area, dual_curvature,
                       dual_curvature_density_smooth, dual_curvature_q0,
                       dual_quermassintegral, dual_steiner_check,
                       hull_of_union, intersect_hpolytopes,
                       lp_surface_area_measure, measure_l1,
                       measure_max_discrepancy, surface_area_measure,
                       unit_ball_volume, valuation_check)
from dualcurve.body_core import SAME_DIRECTION
from dualcurve.gauss_maps import cone_partition, fan_rows
from dualcurve.measures import _atom_jacobian, _atoms

from conftest import (axis_box, count_sphere_rules, cube, lhuilier_solid_angles,
                      random_symmetric_polytope)

PI = math.pi
# facet integrals of |x|^(q-3) over a unit-cube face, divided by 3
CUBE_ATOM_Q05 = 0.77006467532869892
CUBE_ATOM_Q1 = 0.85268046916041467
CUBE_ATOM_Q2 = 1.0578121617686904
CUBE_W_Q05 = 4.6203880519721935
CUBE_W_Q1 = 5.116082814962488
CUBE_W_Q2 = 6.346872970612143
CUBE_V0BAR = 1.2120766545207076
CUBE_ATOM_Q0 = 2 * PI / 9
SQUARE_ATOM_Q05 = 0.83089621618093747
LOG_1P_SQRT2 = 0.8813735870195430
ATAN_HALF = 0.4636476090008061
ATAN_2 = 1.1071487177940904
ELL_W_Q1 = 7.0203040176307873
ELL_W_Q2 = 12.783633575900716
ELL_V0BAR = 1.606898788032161


def test_cube_atoms_frozen_values():
    p = cube()
    for q, want in ((0.5, CUBE_ATOM_Q05), (1.0, CUBE_ATOM_Q1), (2.0, CUBE_ATOM_Q2)):
        mu = dual_curvature(p, q)
        np.testing.assert_allclose(mu.weights, want, rtol=1e-8)
        assert mu.even


def test_cube_atoms_q_equals_n_is_cone_volume():
    p = cube()
    mu = dual_curvature(p, 3.0)
    np.testing.assert_allclose(mu.weights, 4.0 / 3.0, rtol=1e-10)
    cv = cone_volume_measure(p)
    np.testing.assert_allclose(cv.weights, 4.0 / 3.0, rtol=1e-14)
    assert measure_max_discrepancy(mu, cv) < 1e-9
    assert cv.total == pytest.approx(p.volume(), rel=1e-14)


def test_square_atoms_frozen_values():
    s = cube(dim=2)
    mu1 = dual_curvature(s, 1.0)
    np.testing.assert_allclose(mu1.weights, LOG_1P_SQRT2, rtol=1e-12)
    mu05 = dual_curvature(s, 0.5)
    np.testing.assert_allclose(mu05.weights, SQUARE_ATOM_Q05, rtol=1e-12)
    # q = n = 2: atom is the triangle area over each edge
    mu2 = dual_curvature(s, 2.0)
    np.testing.assert_allclose(mu2.weights, 1.0, rtol=1e-12)


def test_atoms_continuous_through_q_equal_1():
    # the closed-form radial integral has a removable singularity at q = 1
    box = axis_box([-1.0, -0.7, -0.4], [1.0, 0.7, 0.4])
    at_one = dual_curvature(box, 1.0).total
    for q in (1.0 - 1e-12, 1.0 + 1e-12):
        assert dual_curvature(box, q).total == pytest.approx(at_one, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_atoms_of_a_body_with_no_facet_rows_are_zero(dim):
    # a box 1e-10 across: all its vertices merge into one, so no facet
    # keeps the vertices that span it
    v = np.vstack([np.eye(dim), -np.eye(dim)])
    p = HPolytope(v, np.full(2 * dim, 1e-10))
    got = _atoms(p, 2.0)
    assert got.dtype == float
    np.testing.assert_array_equal(got, np.zeros(2 * dim))


def test_thin_rectangle_sphere_side_and_cone_volume():
    # edge cones of the long sides reach within atan(1/20) of a right angle
    r = axis_box([-1.0, -0.05], [1.0, 0.05])
    assert dual_quermassintegral(r, 2.0).value == pytest.approx(0.2, abs=1e-12)
    cone = cone_volume_measure(r)
    assert measure_max_discrepancy(dual_curvature(r, 2.0), cone) <= 1e-12 * cone.weights.max()


THIN_BODIES = {
    "slab": axis_box([-1.0, -1.0, -0.01], [1.0, 1.0, 0.01]),
    "needle": axis_box([-0.5, -0.5, -25.0], [0.5, 0.5, 25.0]),
    "off-centre": axis_box([-0.3, -0.8, -0.5], [1.2, 0.6, 1.5]),
}
THIN_QS = (-2.0, 0.5, 1.0, 2.0, 3.0, 6.0)


@pytest.mark.parametrize("q", THIN_QS)
@pytest.mark.parametrize("name", list(THIN_BODIES))
def test_thin_body_total_matches_fine_sphere_rule(name, q):
    body = THIN_BODIES[name]
    want = dual_quermassintegral(body, q).value
    assert dual_curvature(body, q).total == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("q", (-1.0, 0.5, 1.0, 2.0, 3.0))
def test_edge_shorter_than_incidence_slack(q):
    # a corner cut 6e-9 long: longer than the vertex merge distance, so the
    # edges x = 1 and y = 1 each keep their own two vertices
    normals = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2)])
    p = HPolytope(normals, np.array([1.0, 1.0, 1.0, 1.0, (2.0 - 4.24e-9) / math.sqrt(2)]))
    assert len(p.facet_vertices(0)) == 2
    total = dual_curvature(p, q).total
    assert total == pytest.approx(dual_quermassintegral(p, q).value, rel=1e-12)
    # the cut takes off a sliver of order 1e-17
    assert total == pytest.approx(dual_curvature(cube(dim=2), q).total, rel=1e-12)


def test_cube_corner_cut_shorter_than_old_incidence_slack():
    # the cut x + y + z <= 3 - 4.24e-9 leaves a corner triangle with edges
    # about 6e-9 long; each of the faces x, y, z = 1 becomes a pentagon
    normals = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3)) / math.sqrt(3)])
    p = HPolytope(normals, np.r_[np.ones(6), (3.0 - 4.24e-9) / math.sqrt(3)])
    for i in range(3):
        assert len(p.facet_vertices(i)) == 5
    assert [len(p.facet_vertices(i)) for i in range(6)] == [5, 5, 5, 4, 4, 4]
    mu0 = dual_curvature_q0(p)
    assert mu0.total == pytest.approx(unit_ball_volume(3), rel=1e-12)
    atom = dual_curvature(p, 1.5).weights[0]
    assert dual_area(p, 1.5)[0] == pytest.approx(atom, rel=1e-8)
    # the cut takes off a corner of volume about 1e-26
    assert p.volume() == pytest.approx(8.0, rel=1e-14)


def test_q0_total_is_ball_volume(rng):
    for p in (cube(), cube(dim=2), random_symmetric_polytope(rng, pairs=6)):
        mu0 = dual_curvature_q0(p)
        assert mu0.total == pytest.approx(unit_ball_volume(p.dim), rel=1e-12)


def test_q0_cube_atoms():
    mu0 = dual_curvature_q0(cube())
    np.testing.assert_allclose(mu0.weights, CUBE_ATOM_Q0, rtol=1e-12)


def test_q0_rectangle_atoms():
    # 2 x 1 rectangle: short edges (normals +-e1) see the wider cone
    r = axis_box([-1.0, -0.5], [1.0, 0.5])
    mu0 = dual_curvature_q0(r)
    np.testing.assert_allclose(mu0.weights[:2], ATAN_HALF, rtol=1e-12)
    np.testing.assert_allclose(mu0.weights[2:], ATAN_2, rtol=1e-12)
    assert mu0.total == pytest.approx(PI, rel=1e-13)


def test_dual_curvature_dispatches_q0():
    p = cube()
    a = dual_curvature(p, 0.0)
    b = dual_curvature_q0(p)
    assert measure_max_discrepancy(a, b) == 0.0


def test_inactive_facet_gets_zero_atom():
    vs = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2)])
    p = HPolytope(vs, np.array([1.0, 1.0, 1.0, 1.0, 5.0]))
    mu = dual_curvature(p, 1.5)
    assert mu.weights[4] == 0.0
    assert (mu.weights[:4] > 0).all()


def _jacobian_bodies():
    """Symmetric, off-centre and inactive-halfspace bodies in 2-d and 3-d."""
    rng = np.random.default_rng(31)
    bodies = []
    for dim, pairs in ((2, 4), (3, 6)):
        bodies.append((f"symmetric-{dim}d", random_symmetric_polytope(rng, dim=dim, pairs=pairs)))
        v = rng.normal(size=(2 * pairs, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v = np.vstack([v, -v])
        bodies.append((f"off-centre-{dim}d", HPolytope(v, rng.uniform(0.3, 2.0, len(v)))))
        corner = np.ones(dim) / math.sqrt(dim)
        box = axis_box(-np.ones(dim), np.linspace(1.0, 2.0, dim))
        bodies.append((f"inactive-{dim}d", HPolytope(np.vstack([box.normals, corner]),
                                                     np.append(box.offsets, 10.0))))
    return bodies


JACOBIAN_BODIES = _jacobian_bodies()


def _central_difference_jacobian(p, q, t=1e-5):
    m = len(p.offsets)
    fd = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = t
        up = _atoms(p.with_offsets(p.offsets * np.exp(e)), q)
        dn = _atoms(p.with_offsets(p.offsets * np.exp(-e)), q)
        fd[:, j] = (up - dn) / (2 * t)
    return fd


@pytest.mark.parametrize("q", [-1.0, 0.5, 1.0, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("name,p", JACOBIAN_BODIES, ids=[b[0] for b in JACOBIAN_BODIES])
def test_atom_jacobian_matches_central_differences(name, p, q):
    atoms = _atoms(p, q)
    jac = _atom_jacobian(p, q, atoms)
    fd = _central_difference_jacobian(p, q)
    assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()
    assert np.array_equal(jac, jac.T)
    # the atoms are homogeneous of degree q in the offsets
    assert np.abs(jac.sum(axis=1) - q * atoms).max() <= 1e-12 * np.abs(q * atoms).max()
    # adjacent facets only: a facet gains area where its neighbour moves out
    off = jac[~np.eye(len(atoms), dtype=bool)]
    assert (off >= 0).all()
    if name.startswith("inactive"):
        assert atoms[-1] == 0.0
        assert not jac[-1].any() and not jac[:, -1].any()


def test_surface_area_and_lp_measures():
    p = cube(half_width=2.0)
    s = surface_area_measure(p)
    np.testing.assert_allclose(s.weights, 16.0, rtol=1e-12)
    lp1 = lp_surface_area_measure(p, 1.0)
    assert measure_max_discrepancy(lp1, s) < 1e-12
    lp0 = lp_surface_area_measure(p, 0.0)
    cv = cone_volume_measure(p)
    np.testing.assert_allclose(lp0.weights, 3.0 * cv.weights, rtol=1e-12)
    lp2 = lp_surface_area_measure(p, 2.0)
    np.testing.assert_allclose(lp2.weights, 16.0 / 2.0, rtol=1e-12)


def _verify_op_measures(P):
    """The seven measures the verify benchmark op takes of a body."""
    return ([dual_curvature(P, q) for q in (0.5, 1.0, 2.0, float(P.dim))]
            + [dual_curvature_q0(P), cone_volume_measure(P), surface_area_measure(P)])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_body_and_its_measures_hold_one_direction_set(dim):
    P = random_symmetric_polytope(np.random.default_rng(dim), dim=dim, pairs=5)
    for mu in _verify_op_measures(P) + [dual_curvature(P, 0.0), lp_surface_area_measure(P, 2.0)]:
        assert mu.directions is P.directions
        assert mu.scaled(3.0).directions is mu.directions
    assert not (P.normals.flags.writeable or P.antipode.flags.writeable)
    for body in (P.scale(2.0), P.with_offsets(P.offsets * 1.5)):
        assert body.directions is P.directions
        assert dual_curvature(body, 1.0).directions is P.directions


@pytest.mark.parametrize("kind,dim", [("hpolytope", 3), ("vpolytope", 3), ("vpolytope", 2)])
def test_a_body_and_its_measures_pair_the_directions_once(kind, dim, monkeypatch):
    from dualcurve import body_core

    rng = np.random.default_rng(dim)
    if kind == "hpolytope":
        shape = random_symmetric_polytope(rng, dim=dim, pairs=6)
        make = lambda: HPolytope(np.array(shape.normals), shape.offsets)
    else:
        points = rng.normal(size=(14, dim))
        make = lambda: VPolytope(points).to_hpolytope()
    calls = []
    pairs = body_core.direction_pairs

    def counted(dirs):
        calls.append(len(dirs))
        return pairs(dirs)

    monkeypatch.setattr(body_core, "direction_pairs", counted)
    P = make()
    assert len(calls) == 1
    _verify_op_measures(P)
    assert calls == [len(P.normals)]


def test_homogeneity_of_dual_curvature(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    lam = 1.7
    for q in (0.5, 1.0, 2.0, 3.0):
        a = dual_curvature(p.scale(lam), q)
        b = dual_curvature(p, q).scaled(lam**q)
        assert measure_max_discrepancy(a, b) <= 1e-8 * b.weights.max()


def test_q0_scale_invariant(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    a = dual_curvature_q0(p.scale(3.2))
    b = dual_curvature_q0(p)
    assert measure_max_discrepancy(a, b) <= 1e-12


def test_total_matches_quermassintegral(rng):
    p = random_symmetric_polytope(rng, pairs=6)
    for q in (0.5, 1.0, 2.0, 3.0):
        mu = dual_curvature(p, q)
        w = dual_quermassintegral(p, q)
        assert mu.total == pytest.approx(w.value, rel=1e-6)


def test_cube_quermassintegrals_frozen():
    p = cube()
    assert dual_quermassintegral(p, 0.5).value == pytest.approx(CUBE_W_Q05, rel=1e-8)
    assert dual_quermassintegral(p, 1.0).value == pytest.approx(CUBE_W_Q1, rel=1e-8)
    assert dual_quermassintegral(p, 2.0).value == pytest.approx(CUBE_W_Q2, rel=1e-8)
    assert dual_quermassintegral(p, 3.0).value == pytest.approx(8.0, rel=1e-10)
    assert dual_quermassintegral(p, 0.0).normalized == pytest.approx(CUBE_V0BAR, rel=1e-8)


def test_normalized_dual_volume_continuous_through_q_equal_0():
    p = cube()
    limit = dual_quermassintegral(p, 0.0).normalized
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1e-300, -1e-300, 1e-12, -1e-12):
            assert dual_quermassintegral(p, q).normalized == pytest.approx(limit, rel=1e-14)
    # away from 0 it is the power mean (W_q / omega)^(1/q)
    for q in (0.5, 1.0, 3.0, -2.0):
        got = dual_quermassintegral(p, q)
        assert got.normalized == pytest.approx((got.value / (4 * PI / 3)) ** (1 / q), rel=1e-14)


@pytest.mark.parametrize("q", [-6.0, 9.0, 12.0, 50.0])
@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_normalized_dual_volume_is_homogeneous_of_degree_1(lam, q):
    # the power mean of rho scales with the body, also where rho^q is far
    # from 1 on the whole sphere
    p = cube()
    got = dual_quermassintegral(p.scale(lam), q).normalized
    assert got == pytest.approx(lam * dual_quermassintegral(p, q).normalized, rel=1e-13)


def test_normalized_volume_of_ball_is_radius():
    b = Ball(1.75, 3)
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        r = dual_quermassintegral(b, q)
        assert r.normalized == pytest.approx(1.75, rel=1e-9)


def test_ellipsoid_quermassintegrals_frozen():
    e = Ellipsoid(np.array([1.0, 2.0, 3.0]))
    assert dual_quermassintegral(e, 1.0).value == pytest.approx(ELL_W_Q1, rel=1e-6)
    assert dual_quermassintegral(e, 2.0).value == pytest.approx(ELL_W_Q2, rel=1e-6)
    assert dual_quermassintegral(e, 3.0).value == pytest.approx(8 * PI, rel=1e-9)
    assert dual_quermassintegral(e, 0.0).normalized == pytest.approx(ELL_V0BAR, rel=1e-6)


def test_smooth_density_ball_pointwise():
    b = Ball(1.5, 3)
    u = np.array([0.0, 0.0, 1.0])
    for q in (0.0, 0.5, 1.0, 2.0, 3.0):
        got = dual_curvature_density_smooth(b, q, u)
        assert got == pytest.approx(1.5**q / 3.0, abs=1e-12)
    with pytest.raises(GeometryError):
        dual_curvature_density_smooth(b, -1.0, u)
    with pytest.raises(GeometryError):
        dual_curvature_density_smooth(cube(), 1.0, u)


def test_smooth_maps_take_one_direction_or_a_batch(rng):
    # one broadcast expression: a row of the batch gives the single value
    u = rng.normal(size=(7, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for body in (Ball(1.5, 3), Ellipsoid(np.array([1.0, 2.0, 3.0]))):
        for f in (body.support, body.radial,
                  lambda v: dual_curvature_density_smooth(body, 1.5, v)):
            batch = f(u)
            assert batch.shape == (7,)
            for k in range(7):
                single = f(u[k])
                assert isinstance(single, float)
                assert single == pytest.approx(batch[k], rel=1e-14)
        with pytest.raises(GeometryError, match="finite unit vectors"):
            body.support(2.0 * u)


def test_smooth_density_integrates_to_quermassintegral():
    e = Ellipsoid(np.array([1.0, 2.0, 3.0]))
    from dualcurve import sphere_rule

    rule = sphere_rule(3, 6)
    for q in (1.0, 2.0, 3.0):
        dens = dual_curvature_density_smooth(e, q, rule.nodes)
        total = float(rule.weights @ dens)
        assert total == pytest.approx(dual_quermassintegral(e, q).value, rel=1e-4)


def test_dual_area_cell_equals_atom():
    # the sphere-side rule read by facet against the facet-path atoms, at
    # every cell of a thin, an off-centre and a many-facet body
    for dim in (2, 3):
        r = np.random.default_rng(dim)
        thin = _thin_rectangle(r) if dim == 2 else _thin_box(r)
        for body, q in itertools.product((thin, _off_centre(r, dim), _many_facets(r, dim)),
                                         (-6.0, 0.5, 2.0, 12.0)):
            mu = dual_curvature(body, q)
            cells = dual_area(body, q)
            assert cells.shape == mu.weights.shape
            assert np.abs(cells - mu.weights).max() <= 1e-9 * mu.total
            assert cells.sum() == pytest.approx(mu.total, rel=1e-9)
            assert dual_quermassintegral(body, q).value == pytest.approx(mu.total, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_one_sphere_rule_per_call(monkeypatch, dim):
    # every sphere-side quantity at every q reads the body's one rule, and
    # the first error read builds its one companion, which later reads at
    # any q share
    from dualcurve import quadrature

    rules, built = count_sphere_rules(monkeypatch)
    # more than 64 fan rows, so a rule built in blocks of rows would show
    # as several calls
    if dim == 2:
        angles = np.linspace(0.0, 2 * PI, 80, endpoint=False)
        p = HPolytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(80))
    else:
        p = random_symmetric_polytope(np.random.default_rng(3), pairs=12, require_all_active=False)
    assert len(fan_rows(p)[0]) > 64
    results = {}
    for q in (0.0, 0.5, 2.0, float(dim)):
        results[q] = dual_quermassintegral(p, q)
        dual_area(p, q)
    dual_steiner_check(p, np.linspace(0.1, 1.0, 8))
    assert (len(rules), built) == (1, [quadrature.FAN_NODES])
    for _ in range(2):
        for q in (0.5, 2.0):
            assert results[q].error == dual_quermassintegral(p, q).error
    assert (len(rules), built) == (1, [quadrature.FAN_NODES, quadrature.FAN_COARSE_NODES])


def _memo_values(P):
    """The bytes of P's q-free and per-q quantities: the index-0 measure,
    and at three q the atoms and the dual quermassintegral's value,
    normalized volume and error, with a dual_area cell and the Steiner
    fit."""
    out = [dual_curvature_q0(P).weights, dual_steiner_check(P, np.linspace(0.1, 1.0, 5))]
    for q in (0.5, 2.0, float(P.dim)):
        r = dual_quermassintegral(P, q)
        out += [_atoms(P, q), np.array([r.value, r.normalized, r.error, dual_area(P, q)[0]])]
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("dim", [2, 3])
def test_new_offsets_start_an_empty_memo(dim):
    # bodies made from a body whose memo is full compute their own values,
    # bitwise those of a fresh body, and leave the original's alone
    from dualcurve.variational import LogFamily, _stencil

    r = np.random.default_rng(dim + 20)
    K = _off_centre(r, dim)
    before = _memo_values(K)
    h2 = K.offsets * np.exp(0.05 * r.uniform(-1.0, 1.0, len(K.offsets)))
    _, plus, minus = _stencil(K, LogFamily(K, r.uniform(-1.0, 1.0, len(K.offsets))).offsets_at, 1e-2)
    for body in (K.with_offsets(h2), K.scale(2.0), plus, minus):
        assert _memo_values(body) == _memo_values(HPolytope(K.normals, body.offsets))
        assert _memo_values(body) != before
    assert _memo_values(K) == before


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_hits_equal_first_evaluation(dim):
    K = _off_centre(np.random.default_rng(dim + 30), dim)
    first = _memo_values(K)
    assert _memo_values(K) == first
    # an integer q and its float share one entry
    assert _atoms(K, 2) is _atoms(K, 2.0)
    qs = {0.5, 2.0, float(dim)}
    assert set(K._memo) - {"areas"} == {"polar", "q0", "sphere", "companion"} | {("atoms", q) for q in qs}
    # every memo array is read-only and 1-d: the rules keep no nodes
    arrays = [a for value in K._memo.values()
              for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 + 3 + 2 + len(qs) + ("areas" in K._memo)
    assert all(a.ndim == 1 and not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        _atoms(K, 2.0)[0] = 0.0


def test_dual_area_2d_cell():
    s = cube(dim=2)
    mu = dual_curvature(s, 0.5)
    got = dual_area(s, 0.5)[1]
    assert got == pytest.approx(mu.weights[1], rel=1e-10)


def _arc_reference(lo, hi, q):
    """The atoms of the 2-d box [lo, hi], in axis_box's order, as adaptive
    integrals of cosh^(q-1)(w) in w = asinh(tan theta), theta about each
    edge's normal: on the edge at offset h across axis k, tan theta runs
    over the other axis's range divided by h (cosh is even, so its sign
    does not matter)."""
    atoms = []
    for k in range(2):
        for h in (hi[k], -lo[k]):
            cuts = np.linspace(math.asinh(lo[1 - k] / h), math.asinh(hi[1 - k] / h), 17)
            atoms.append(0.5 * h**q * sum(
                integrate.quad(lambda w: math.cosh(w) ** (q - 1.0), a, b, epsabs=0.0, epsrel=1e-13)[0]
                for a, b in zip(cuts[:-1], cuts[1:])))
    return np.array(atoms)


# arcs reaching towards pi/2 about their edge normal, as (lo, hi) corners
THIN_RECTANGLES = {
    "off-centre": ([-0.01, -30.0], [5.0, 1.0]),
    "2e-6 x 2": ([-1e-6, -1.0], [1e-6, 1.0]),
    "2e-4 x 2": ([-1e-4, -1.0], [1e-4, 1.0]),
}


@pytest.mark.parametrize("q", [-6.0, 0.5, 12.0])
def test_dual_area_2d_cells_of_a_thin_rectangle(q):
    lo, hi = THIN_RECTANGLES["off-centre"]
    s = axis_box(lo, hi)
    want = _arc_reference(lo, hi, q)
    np.testing.assert_allclose(dual_area(s, q), want, rtol=1e-8)


@pytest.mark.parametrize("q", [-6.0, 0.5, 12.0])
@pytest.mark.parametrize("name", list(THIN_RECTANGLES))
def test_2d_atoms_of_thin_rectangles(name, q):
    lo, hi = THIN_RECTANGLES[name]
    np.testing.assert_allclose(_atoms(axis_box(lo, hi), q), _arc_reference(lo, hi, q), rtol=1e-10)


@pytest.mark.parametrize("q", [-6.0, 12.0])
def test_sphere_total_of_a_2e_6_rectangle(q):
    # an arc 29 long in asinh(tan theta): 15 panels of width 2
    lo, hi = THIN_RECTANGLES["2e-6 x 2"]
    want = _arc_reference(lo, hi, q).sum()
    assert dual_quermassintegral(axis_box(lo, hi), q).value == pytest.approx(want, rel=1e-8)


def test_steiner_coefficients_match_quermassintegrals(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    ts = np.linspace(0.1, 1.0, 8)
    coefs = dual_steiner_check(p, ts)
    assert len(coefs) == 4
    for i, c in enumerate(coefs):
        want = dual_quermassintegral(p, float(i)).value
        assert c == pytest.approx(want, rel=1e-6), i


def test_valuation_identity_box_pairs(rng):
    k = axis_box([-1.0, -1, -1], [1.0, 1, 1])
    l = axis_box([-1.0, -1, -1.6], [1.0, 1, 0.4])
    for q in (0.5, 1.0, 2.0, 3.0):
        disc = valuation_check(k, l, q)
        scale = dual_curvature(k, q).weights.max()
        assert disc <= 1e-7 * scale


def test_valuation_rejects_nonconvex_union():
    k = axis_box([-1.0, -1, -1], [1.0, 1, 1])
    l = axis_box([-0.5, -0.5, -2.0], [0.5, 0.5, 2.0])
    with pytest.raises(GeometryError):
        valuation_check(k, l, 1.0)


def test_intersect_and_hull():
    k = axis_box([-1.0, -1], [1.0, 1])
    l = axis_box([-2.0, -0.5], [2.0, 0.5])
    inter = intersect_hpolytopes(k, l)
    assert inter.volume() == pytest.approx(2.0)
    hull = hull_of_union(k, l)
    # hull of a plus sign made of two boxes
    assert hull.volume() > max(k.volume(), l.volume())


def test_measure_construction_validation():
    with pytest.raises(GeometryError):
        DiscreteSphericalMeasure(np.array([[1.0, 0], [0.0, 2.0]]), np.ones(2))
    with pytest.raises(GeometryError):
        DiscreteSphericalMeasure(np.array([[1.0, 0], [0, 1.0]]), np.array([1.0, -2.0]))
    with pytest.raises(GeometryError):
        DiscreteSphericalMeasure(np.array([[1.0, 0], [1.0, 0]]), np.ones(2))
    record = DiscreteSphericalMeasure(np.array([[1.0, 0], [0, 1.0]]), np.ones(2)).to_dict()
    record["even"] = True
    with pytest.raises(GeometryError, match="marked even"):
        DiscreteSphericalMeasure.from_dict(record)


@pytest.mark.parametrize("dirs", [[[1.0], [-1.0]], np.vstack([np.eye(4), -np.eye(4)])],
                         ids=["1-d", "4-d"])
def test_measures_outside_the_plane_and_space_refused(dirs):
    with pytest.raises(GeometryError, match="dimension"):
        DiscreteSphericalMeasure(np.asarray(dirs), np.ones(len(dirs)))


@pytest.mark.parametrize("compare", [measure_l1, measure_max_discrepancy])
def test_measure_comparisons_across_dimensions_refused(compare):
    a = DiscreteSphericalMeasure(np.vstack([np.eye(3), -np.eye(3)])[:4], np.ones(4))
    b = DiscreteSphericalMeasure(np.array([[1.0, 0], [0, 1.0]]), np.ones(2))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(GeometryError, match="cannot match"):
            compare(x, y)
    with pytest.raises(GeometryError, match="cannot match"):
        b._weights_at(np.array([[1.0, 0, 0]]))


def test_measure_even_detection():
    dirs = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    assert DiscreteSphericalMeasure(dirs, np.array([1.0, 1, 2, 2])).even
    assert not DiscreteSphericalMeasure(dirs, np.array([1.0, 2, 1, 2])).even
    # a record's "even": false does not override what the atoms show
    record = DiscreteSphericalMeasure(dirs, np.array([1.0, 1, 2, 2])).to_dict()
    record["even"] = False
    assert DiscreteSphericalMeasure.from_dict(record).even


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_refused(bad):
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    with pytest.raises(GeometryError, match="finite and nonnegative"):
        DiscreteSphericalMeasure(dirs, np.array([bad, 1, 1, bad, 1, 1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda dirs: HPolytope(dirs, np.ones(len(dirs))),
    lambda dirs: DiscreteSphericalMeasure(dirs, np.ones(len(dirs))),
], ids=["hpolytope", "measure"])
def test_non_finite_directions_refused(build, bad):
    dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    dirs[2, 1] = bad
    with pytest.raises(GeometryError, match="finite unit vectors"):
        build(dirs)


def test_measure_round_trip():
    dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    mu = DiscreteSphericalMeasure(dirs, np.array([0.5, 0.5]))
    mu2 = DiscreteSphericalMeasure.from_dict(mu.to_dict())
    assert measure_max_discrepancy(mu, mu2) == 0.0
    assert mu2.even


def test_measure_distances():
    d1 = np.array([[1.0, 0], [-1.0, 0]])
    d2 = np.array([[1.0, 0], [0.0, 1.0]])
    a = DiscreteSphericalMeasure(d1, np.array([1.0, 2.0]))
    b = DiscreteSphericalMeasure(d2, np.array([1.0, 3.0]))
    assert measure_max_discrepancy(a, b) == pytest.approx(3.0)
    assert measure_l1(a, b) == pytest.approx(5.0)
    np.testing.assert_array_equal(a._weights_at(np.array([[1.0, 0], [0.0, 1.0]])), [1.0, 0.0])


def _weight_at_pairwise(mu, v, tol):
    """The loop reference for _weights_at: the nearest atom, if within tol."""
    d = np.linalg.norm(mu.dirs - v, axis=1)
    j = int(np.argmin(d))
    return float(mu.weights[j]) if d[j] <= tol else 0.0


def _max_discrepancy_pairwise(mu_a, mu_b, tol):
    worst = 0.0
    for d, w in zip(mu_a.dirs, mu_a.weights):
        worst = max(worst, abs(w - _weight_at_pairwise(mu_b, d, tol)))
    for d, w in zip(mu_b.dirs, mu_b.weights):
        worst = max(worst, abs(w - _weight_at_pairwise(mu_a, d, tol)))
    return worst


def _l1_pairwise(mu_a, mu_b, tol):
    seen = []
    total = 0.0
    for d, w in zip(mu_a.dirs, mu_a.weights):
        total += abs(w - _weight_at_pairwise(mu_b, d, tol))
        seen.append(d)
    for d, w in zip(mu_b.dirs, mu_b.weights):
        if any(np.linalg.norm(d - s) <= tol for s in seen):
            continue
        total += abs(w - _weight_at_pairwise(mu_a, d, tol))
    return total


def _intersect_pairwise(K, L, tol):
    """The loop reference for intersect_hpolytopes: (normals, offsets)."""
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
    return np.array(normals), np.array(offsets)


def _valuation_pairwise(K, L, q, tol):
    """The loop reference for valuation_check's value, over a merged
    direction list."""
    inter = HPolytope(*_intersect_pairwise(K, L, tol))
    mk, ml = dual_curvature(K, q), dual_curvature(L, q)
    mi, mh = dual_curvature(inter, q), dual_curvature(hull_of_union(K, L), q)
    dirs = [d for d in mk.dirs]
    for m in (ml, mi, mh):
        for d in m.dirs:
            if not any(np.linalg.norm(d - s) <= tol for s in dirs):
                dirs.append(d)
    worst = 0.0
    for d in dirs:
        lhs = _weight_at_pairwise(mk, d, tol) + _weight_at_pairwise(ml, d, tol)
        rhs = _weight_at_pairwise(mi, d, tol) + _weight_at_pairwise(mh, d, tol)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _nudge(rng, v, factor, tol):
    """v moved by factor * tol in a random direction, renormalized."""
    t = rng.normal(size=len(v))
    t -= (t @ v) * v
    t *= factor * tol / np.linalg.norm(t)
    return (v + t) / np.linalg.norm(v + t)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_measure_comparisons_match_loop_references(seed, dim):
    rng = np.random.default_rng(seed)
    tol = SAME_DIRECTION
    m = int(rng.integers(3, 50))
    v = rng.normal(size=(m, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    a = DiscreteSphericalMeasure(v, rng.uniform(0.1, 1.0, size=m))
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        # b shares a random part of a's directions, in another order, moves
        # one of a's by just inside or just outside tol, and adds new ones
        k = int(rng.integers(m))
        shared = rng.permutation(np.delete(np.arange(m), k))[:int(rng.integers(0, m))]
        fresh = rng.normal(size=(int(rng.integers(0, 10)), dim))
        fresh /= np.linalg.norm(fresh, axis=1)[:, None]
        w = np.vstack([v[shared], _nudge(rng, v[k], factor, tol)[None, :], fresh])
        b = DiscreteSphericalMeasure(w, rng.uniform(0.1, 1.0, size=len(w)))
        for mu, other in ((a, b), (b, a)):
            probes = np.vstack([v, w])
            for d, got in zip(probes, mu._weights_at(probes)):
                assert got == _weight_at_pairwise(mu, d, tol)
            assert measure_max_discrepancy(mu, other) == _max_discrepancy_pairwise(mu, other, tol)
            # the sums run in another order
            assert measure_l1(mu, other) == pytest.approx(_l1_pairwise(mu, other, tol),
                                                          rel=1e-15, abs=0.0)
        moved = abs(a._weights_at(w[len(shared)][None, :])[0] - a.weights[k])
        assert (moved == 0.0) == (factor < 1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_set_operations_match_loop_references(seed, dim):
    rng = np.random.default_rng(seed)
    tol = SAME_DIRECTION
    K = random_symmetric_polytope(rng, dim=dim, pairs=dim + 2)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        # L is K with facet k turned by just inside or just outside tol and
        # moved in, so L lies in K and K u L = K is convex
        k = int(rng.integers(len(K.normals)))
        normals, offsets = K.normals.copy(), K.offsets.copy()
        normals[k] = _nudge(rng, normals[k], factor, tol)
        offsets[k] *= 0.5
        L = HPolytope(normals, offsets)
        inter = intersect_hpolytopes(K, L)
        want = _intersect_pairwise(K, L, tol)
        np.testing.assert_array_equal(inter.normals, want[0])
        np.testing.assert_array_equal(inter.offsets, want[1])
        assert len(inter.normals) == len(K.normals) + (factor > 1.0)
        for q in (0.5, 2.0, float(dim)):
            assert valuation_check(K, L, q) == _valuation_pairwise(K, L, q, tol)


# builds a VPolytope of 20000 points and compares two 4000-atom measures
# under a 2 GiB address-space cap; pairwise (N, N) arrays would need more
# than 3 GB
BIG_INPUT_SCRIPT = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    import numpy as np
    import dualcurve as dc
    rng = np.random.default_rng(0)
    body = dc.VPolytope(rng.normal(size=(20000, 3)))
    assert 3 < len(body.vertices) < 20000
    v = rng.normal(size=(4000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    wa, wb = rng.uniform(0.1, 1.0, size=(2, 4000))
    a = dc.DiscreteSphericalMeasure(v, wa)
    order = rng.permutation(4000)
    b = dc.DiscreteSphericalMeasure(v[order], wb[order])
    assert dc.measure_max_discrepancy(a, b) == np.abs(wa - wb).max()
    assert abs(dc.measure_l1(a, b) - np.abs(wa - wb).sum()) <= 1e-12 * wa.sum()
    print("ok")
""")


def test_big_inputs_fit_in_two_gib():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualcurve.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BIG_INPUT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_vpolytope_accepted_by_measures():
    v = VPolytope(cube().vertices.copy())
    mu = dual_curvature(v, 2.0)
    np.testing.assert_allclose(np.sort(mu.weights), CUBE_ATOM_Q2, rtol=1e-8)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       st.floats(0.5, 2.0))
def test_homogeneity_property(seed, q, lam):
    r = np.random.default_rng(seed)
    p = random_symmetric_polytope(r, dim=2, pairs=4)
    a = dual_curvature(p.scale(lam), q)
    b = dual_curvature(p, q)
    np.testing.assert_allclose(a.weights, b.weights * lam**q, rtol=1e-9, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_total_positive_and_even_property(seed):
    r = np.random.default_rng(seed)
    p = random_symmetric_polytope(r, dim=3, pairs=4, require_all_active=False)
    mu = dual_curvature(p, 1.5)
    assert mu.total > 0
    assert mu.even


def _thin_box(r):
    """Off-centre axis box with aspect ratios up to 1000 or more."""
    width = np.exp(r.uniform(math.log(1e-3), math.log(50.0), size=3))
    lo = -width * r.uniform(0.05, 0.95, size=3)
    return axis_box(lo, lo + width)


def _off_centre(r, dim=3):
    """10 to 200 random halfspaces, some inactive, origin off the centre."""
    m = int(r.integers(10, 201))
    while True:
        v = r.normal(size=(m, dim))
        v /= np.linalg.norm(v, axis=1)[:, None]
        try:
            return HPolytope(v, r.uniform(0.2, 2.0, size=m))
        except GeometryError:
            continue


def _many_facets(r, dim=3):
    """4 to 100 random antipodal pairs of halfspaces, some inactive."""
    v = r.normal(size=(int(r.integers(4, 101)), dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    h = r.uniform(0.7, 1.5, size=len(v))
    return HPolytope(np.vstack([v, -v]), np.concatenate([h, h]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_thin_box, _off_centre, _many_facets]),
       st.floats(-6.0, 12.0))
# a box whose rho^9 is far below 1 everywhere: its power mean once lost
# 1 + M in log1p(M) and raised a math domain error
@example(2**32 - 1, _thin_box, 9.0)
def test_sphere_total_matches_atoms_within_its_estimate(seed, make_body, q):
    body = make_body(np.random.default_rng(seed))
    got = dual_quermassintegral(body, q)
    atoms = float(_atoms(body, q).sum())
    assert abs(got.value - atoms) <= 1e-8 * atoms
    assert abs(got.value - atoms) <= got.error
    # rho^0 integrates to the solid angle of the whole sphere
    ball = dual_quermassintegral(body, 0.0)
    assert abs(ball.value - 4 * PI / 3) <= min(1e-10, ball.error)


def _thin_rectangle(r):
    """Off-centre 2-d box with aspect ratios up to 1e4 or more."""
    width = np.exp(r.uniform(math.log(1e-3), math.log(50.0), size=2))
    lo = -width * r.uniform(0.05, 0.95, size=2)
    return axis_box(lo, lo + width)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_off_centre, _many_facets, _thin_rectangle]))
def test_cell_solid_angles_match_lhuilier(seed, make_body):
    body = make_body(np.random.default_rng(seed))
    got = cone_partition(body)
    assert np.abs(got - lhuilier_solid_angles(body)).max() <= 1e-13 * unit_ball_volume(body.dim)
    assert got.sum() == pytest.approx(2 * PI if body.dim == 2 else 4 * PI, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_thin_box_cell_solid_angles_match_closed_form(seed):
    # l'Huilier's excesses over needle-shaped fan triangles are off by up
    # to 1e-7 here; a face at distance d spanning [x1, x2] x [y1, y2] about
    # the foot subtends F(x2, y2) - F(x1, y2) - F(x2, y1) + F(x1, y1), with
    # F(x, y) = atan(x y / (d |(d, x, y)|))
    body = _thin_box(np.random.default_rng(seed))
    hi, lo = body.offsets[0::2], -body.offsets[1::2]
    want = []
    for k in range(3):
        i, j = [a for a in range(3) if a != k]
        for d in (hi[k], -lo[k]):
            f = lambda x, y: math.atan(x * y / (d * math.hypot(d, x, y)))
            want.append(f(hi[i], hi[j]) - f(lo[i], hi[j]) - f(hi[i], lo[j]) + f(lo[i], lo[j]))
    got = cone_partition(body)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * unit_ball_volume(3))


def test_fan_rows_orientation_sign_is_the_atoms_rule():
    # the off-centre body has facets whose foot h_i v_i falls outside them,
    # which makes some rows negative
    rng = np.random.default_rng(5)
    bodies = [random_symmetric_polytope(rng, pairs=12), _off_centre(rng),
              axis_box([-0.05, -0.1, -0.02], [2.0, 1.0, 3.0])]
    negative = 0
    for body in bodies:
        fid, other, _, _ = body._polar.edges
        rows, starts, ends = fan_rows(body)
        np.testing.assert_array_equal(rows, fid)
        h, v = body.offsets, body.normals
        det = np.einsum("ij,ij->i", v[fid], np.cross(starts, ends))
        rule = np.where(h[fid] * np.einsum("ij,ij->i", v[fid], v[other]) < h[other], 1.0, -1.0)
        np.testing.assert_array_equal(np.sign(det), rule)
        negative += int((rule < 0).sum())
    assert negative > 0
