"""End-to-end acceptance checks.

One check per numbered criterion; each prints a single PASS/FAIL line
(visible under ``pytest -s`` or on failure) and finishes in well under
two minutes on a laptop.
"""

import math

import numpy as np
import pytest

from dualcurve import (Ball, DiscreteSphericalMeasure, Ellipsoid,
                       GeometryError, SolverConfig,
                       check_dual_variation, check_q0_variation,
                       check_subspace_mass, dual_curvature,
                       dual_curvature_density_smooth, dual_curvature_q0,
                       dual_quermassintegral, dual_steiner_check, measure_l1,
                       phi_mu, solve_dual_minkowski, sphere_rule,
                       unit_ball_volume, valuation_check,
                       wulff_polar_identity_check)

from conftest import axis_box, cube, random_symmetric_polytope

QS = (0.0, 0.5, 1.0, 2.0, 3.0)


def _report(num, name, value, bound, ok=None):
    ok = bool(value <= bound) if ok is None else bool(ok)
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict} {name}: observed {value:.3e}, bound {bound:.0e}")
    assert ok, f"criterion {num} ({name}): observed {value} exceeds {bound}"


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20240817)
    bodies = []
    while len(bodies) < 50:
        pairs = int(rng.integers(4, 13))
        bodies.append(random_symmetric_polytope(rng, pairs=pairs,
                                                require_all_active=False))
    return bodies


def test_criterion_1_total_measure_identity(corpus):
    worst = 0.0
    for body in corpus:
        for q in QS:
            mu = dual_curvature(body, q)
            w = dual_quermassintegral(body, q).value
            worst = max(worst, abs(mu.total - w) / w)
    _report(1, "measure total vs dual quermassintegral", worst, 1e-6)


def test_criterion_2_cone_volume_identity(corpus):
    worst = 0.0
    for body in corpus:
        atoms = dual_curvature(body, float(body.dim)).weights
        direct = body.offsets * body.facet_areas / body.dim
        scale = max(direct.max(), 1e-300)
        worst = max(worst, np.abs(atoms - direct).max() / scale)
    cube_atoms = dual_curvature(cube(), 3.0).weights
    worst = max(worst, np.abs(cube_atoms - 4.0 / 3.0).max())
    _report(2, "index-n atoms vs cone volumes", worst, 1e-8)


def test_criterion_3_index_zero_identity(corpus):
    worst_total = 0.0
    for body in corpus:
        total = dual_curvature_q0(body).total
        worst_total = max(worst_total, abs(total - unit_ball_volume(3)) / unit_ball_volume(3))
    cube_err = np.abs(dual_curvature_q0(cube()).weights - 2 * math.pi / 9).max()
    _report(3, "index-0 totals and cube atoms", max(worst_total, cube_err * 1e3),
            1e-6, ok=(worst_total <= 1e-6 and cube_err <= 1e-9))


def test_criterion_4_wulff_hull_polarity():
    rng = np.random.default_rng(11)
    worst = 0.0
    done = 0
    while done < 50:
        m = int(rng.integers(5, 19))
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        g = np.abs(dirs @ dirs.T)
        np.fill_diagonal(g, 0.0)
        if g.max() > 0.999:
            continue
        h = rng.uniform(0.5, 2.0, m)
        try:
            ok, disc = wulff_polar_identity_check(dirs, h)
        except GeometryError:
            continue  # directions in a common halfspace: unbounded, redraw
        assert ok
        worst = max(worst, disc)
        done += 1
    _report(4, "polar of Wulff shape vs hull of reciprocals", worst, 1e-9)


def test_criterion_5_variational_formulas():
    rng = np.random.default_rng(5)
    worst = 0.0
    ratios = []
    for trial in range(6):
        p = random_symmetric_polytope(rng, pairs=int(rng.integers(4, 7)))
        f = rng.uniform(-1.0, 1.0, len(p.normals))
        flip = p.normals @ p.normals.T < -1 + 1e-9
        i, j = np.nonzero(flip)
        f[i] = 0.5 * (f[i] + f[j])
        q = (0.5, 1.0, 2.0, 3.0)[trial % 4]
        worst = max(worst, check_dual_variation(p, f, q, t_step=1e-4))
        worst = max(worst, check_q0_variation(p, f, t_step=1e-4))
        e_coarse = check_dual_variation(p, f, q, t_step=4e-3)
        e_fine = check_dual_variation(p, f, q, t_step=2e-3)
        if e_fine > 1e-12:
            ratios.append(e_coarse / e_fine)
    decay_ok = all(2.5 <= r <= 6.0 for r in ratios) and ratios
    _report(5, "variational difference quotients", worst, 1e-3,
            ok=(worst <= 1e-3 and decay_ok))
    print(f"        second-order decay ratios on halving: "
          f"{', '.join(f'{r:.2f}' for r in ratios)} (expected near 4)")


def test_criterion_6_valuation_on_box_pairs():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.6, 1.6, 3)
        b = rng.uniform(0.6, 1.6, 3)
        k = axis_box(-a, b)
        lo2 = np.array([-a[0], -a[1], -rng.uniform(1.7, 2.5)])
        hi2 = np.array([b[0], b[1], rng.uniform(0.2, b[2])])
        l = axis_box(lo2, hi2)
        for q in (0.5, 1.0, 2.0, 3.0):
            worst = max(worst, valuation_check(k, l, q))
    _report(6, "valuation identity on box pairs", worst, 1e-5)


def test_criterion_7_smooth_density():
    rule = sphere_rule(3, 6)
    worst_quad = 0.0
    for axes in (np.array([1.0, 2.0, 3.0]), np.array([0.8, 1.3, 2.1])):
        e = Ellipsoid(axes)
        for q in (1.0, 2.0, 3.0):
            dens = dual_curvature_density_smooth(e, q, rule.nodes)
            got = float(rule.weights @ dens)
            want = dual_quermassintegral(e, q).value
            worst_quad = max(worst_quad, abs(got - want) / want)
    rng = np.random.default_rng(7)
    ball = Ball(1.3, 3)
    worst_pt = 0.0
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        for q in QS:
            got = dual_curvature_density_smooth(ball, q, u)
            worst_pt = max(worst_pt, abs(got - 1.3**q / 3.0))
    _report(7, "smooth density quadrature and ball values",
            max(worst_quad, worst_pt * 1e4), 1e-4,
            ok=(worst_quad <= 1e-4 and worst_pt <= 1e-10))


def test_criterion_8_solver_round_trip():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (2, 3):
        for q in dict.fromkeys((0.5, 1.0, 2.0, float(n))):
            done = 0
            while done < 20:
                pairs = int(rng.integers(3, 6)) if n == 2 else int(rng.integers(4, 7))
                p = random_symmetric_polytope(rng, dim=n, pairs=pairs)
                mu_raw = dual_curvature(p, q)
                mu = DiscreteSphericalMeasure(mu_raw.dirs, mu_raw.weights)
                if not check_subspace_mass(mu, q).feasible:
                    continue  # the bound is sufficient, not necessary
                rep = solve_dual_minkowski(mu, SolverConfig(q=q, tol=1e-4))
                assert rep.converged, (n, q, rep.message)
                tr = np.array(rep.phi_trace)
                assert (np.diff(tr) >= -1e-12).all(), (n, q)
                got = dual_curvature(rep.body, q)
                worst = max(worst, measure_l1(got, mu) / mu.total)
                done += 1
    planar = DiscreteSphericalMeasure(
        np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]), np.ones(4))
    rejected = not solve_dual_minkowski(planar, SolverConfig(q=2.0)).feasible
    _report(8, "solver round-trip residuals", worst, 1e-3,
            ok=(worst <= 1e-3 and rejected))
    print(f"        equality-case planar measure rejected: {rejected}")


def test_criterion_9_dual_steiner_fit():
    rng = np.random.default_rng(9)
    worst = 0.0
    bodies = [cube(dim=2), cube(), random_symmetric_polytope(rng, dim=2, pairs=4),
              random_symmetric_polytope(rng, pairs=5),
              random_symmetric_polytope(rng, pairs=8)]
    for body in bodies:
        ts = np.linspace(0.1, 1.0, max(body.dim + 2, 8))
        fitted = dual_steiner_check(body, ts)
        for i, coef in enumerate(fitted):
            direct = dual_quermassintegral(body, float(i)).value
            worst = max(worst, abs(coef - direct) / abs(direct))
    _report(9, "dual Steiner coefficients vs direct", worst, 1e-4)


def test_criterion_10_homogeneity_and_scale_invariance(corpus):
    worst_h = 0.0
    for body in corpus[:5]:
        for lam in (0.5, 2.0):
            for q in (0.5, 1.0, 2.0, 3.0):
                a = dual_curvature(body.scale(lam), q).weights
                b = dual_curvature(body, q).weights * lam**q
                worst_h = max(worst_h, np.abs(a - b).max() / max(b.max(), 1e-300))
    worst_phi = 0.0
    for body in corpus[5:8]:
        mu_raw = dual_curvature(body, 2.0)
        mu = DiscreteSphericalMeasure(mu_raw.dirs, mu_raw.weights)
        base = phi_mu(body, mu, 2.0)
        for lam in (0.1, 3.0, 40.0):
            worst_phi = max(worst_phi, abs(phi_mu(body.scale(lam), mu, 2.0) - base))
    _report(10, "measure homogeneity and functional scale invariance",
            max(worst_h, worst_phi * 100.0), 1e-8,
            ok=(worst_h <= 1e-8 and worst_phi <= 1e-10))
