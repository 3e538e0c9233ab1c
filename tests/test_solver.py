import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcurve import (DiscreteSphericalMeasure, GeometryError, HPolytope, SolverConfig,
                       VPolytope,
                       check_subspace_mass, dual_curvature, measure_l1,
                       phi_gradient, phi_mu, solve_dual_minkowski)
from dualcurve import body_core, solver
from dualcurve.cli import _round_tree, main
from dualcurve.measures import _atom_jacobian, _atoms
from dualcurve.solver import FeasibilityResult, _mass_bound

from conftest import cube, random_even_measure, random_symmetric_polytope


def _measure_of(p, q):
    mu = dual_curvature(p, q)
    return DiscreteSphericalMeasure(mu.dirs, mu.weights)


def _feasible_instance(rng, q, dim=3, pairs=5):
    # the mass bound is sufficient but not necessary, so a measure coming
    # from a real body may still fail the pre-check; draw until it passes
    for _ in range(50):
        p = random_symmetric_polytope(rng, dim=dim, pairs=pairs)
        mu = _measure_of(p, q)
        if check_subspace_mass(mu, q).feasible:
            return p, mu
    raise AssertionError("no feasible instance found")


def _round_trip(p, q, tol=1e-6):
    mu = _measure_of(p, q)
    rep = solve_dual_minkowski(mu, SolverConfig(q=q, tol=tol))
    assert rep.feasible and rep.converged, rep.message
    got = dual_curvature(rep.body, q)
    return measure_l1(got, mu) / mu.total, rep


def test_round_trip_cube():
    # q = n is excluded: the cube's coordinate-plane mass sits exactly on
    # the strict bound d/n, an equality case (see the dedicated test below)
    for q in (0.5, 1.0, 2.0):
        err, rep = _round_trip(cube(), q)
        assert err <= 1e-3, (q, err)
        # cube data should give back a cube up to scale
        off = rep.body.offsets
        assert np.ptp(off) <= 1e-4 * off.mean()


def test_round_trip_square():
    s = cube(dim=2)
    for q in (0.5, 1.0, 1.5):
        err, _ = _round_trip(s, q)
        assert err <= 1e-3, (q, err)


def test_axis_boxes_hit_equality_at_q_n():
    # at q = n the bound is d/n and coordinate subspaces of a box meet it
    # exactly; the strict check must reject these borderline measures
    mu3 = _measure_of(cube(), 3.0)
    feas = check_subspace_mass(mu3, 3.0)
    assert not feas.feasible
    assert feas.ratio == pytest.approx(feas.bound)
    mu2 = _measure_of(cube(dim=2), 2.0)
    feas2 = check_subspace_mass(mu2, 2.0)
    assert not feas2.feasible
    assert feas2.ratio == pytest.approx(0.5)
    assert feas2.bound == pytest.approx(0.5)


def test_round_trip_random_3d(rng):
    for q in (0.5, 1.0, 2.0, 3.0):
        p, _ = _feasible_instance(rng, q)
        err, rep = _round_trip(p, q)
        assert err <= 1e-3, (q, err)
        assert rep.iterations < 5000


def test_round_trip_random_2d(rng):
    for q in (0.5, 2.0):
        p, _ = _feasible_instance(rng, q, dim=2, pairs=4)
        err, _ = _round_trip(p, q)
        assert err <= 1e-3, (q, err)


def test_phi_monotone_along_trace(rng):
    _, mu = _feasible_instance(rng, 1.5)
    rep = solve_dual_minkowski(mu, SolverConfig(q=1.5, tol=1e-6))
    tr = np.array(rep.phi_trace)
    assert (np.diff(tr) >= -1e-12).all()
    assert rep.residual_trace[-1] <= 1e-6


def test_solution_body_supports_measure(rng):
    _, mu = _feasible_instance(rng, 2.0, pairs=4)
    rep = solve_dual_minkowski(mu, SolverConfig(q=2.0))
    assert rep.body.symmetric
    assert rep.body.active.all()


def test_planar_equality_case_rejected():
    # all mass on a 2-plane in R^3 with the bound met exactly: infeasible
    dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    mu = DiscreteSphericalMeasure(dirs, np.ones(4))
    feas = check_subspace_mass(mu, 2.0)
    assert not feas.feasible
    assert feas.ratio == pytest.approx(1.0)
    assert feas.bound == pytest.approx(0.75)
    rep = solve_dual_minkowski(mu, SolverConfig(q=2.0))
    assert not rep.feasible and not rep.converged and rep.iterations == 0
    assert rep.body is None


def test_hyperplane_mass_bound_q_below_one():
    # below q = 1 only concentration on a proper subspace is excluded
    dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                     [0, 0, 1.0], [0, 0, -1.0]])
    heavy = DiscreteSphericalMeasure(dirs[:4], np.ones(4))
    assert not check_subspace_mass(heavy, 0.5).feasible
    ok = DiscreteSphericalMeasure(dirs, np.array([10.0, 10, 10, 10, 0.01, 0.01]))
    assert check_subspace_mass(ok, 0.5).feasible
    # the same lopsided mass fails at q = 2 where the bound is 3/4
    assert not check_subspace_mass(ok, 2.0).feasible


def test_q_equals_n_bound_is_d_over_n():
    dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                     [0, 0, 1.0], [0, 0, -1.0]])
    # d/n rule: a line (d=1) may hold < 1/3 at q = n = 3
    mu = DiscreteSphericalMeasure(dirs, np.array([2.0, 2, 1, 1, 1, 1]))
    feas = check_subspace_mass(mu, 3.0)
    assert not feas.feasible
    assert feas.ratio == pytest.approx(0.5)
    assert feas.bound == pytest.approx(1.0 / 3.0)


def _contains(basis, v, tol=1e-9):
    """Whether v lies in the span of the orthonormal rows of basis, within tol."""
    resid = v - basis.T @ (basis @ v)
    return np.linalg.norm(resid) <= tol


def _subspace_mass_reference(mu, q):
    """check_subspace_mass as one membership test per atom and subset."""
    total = mu.total
    n = mu.dim
    reps = [i for i, j in enumerate(mu.antipode) if i < j]
    worst = FeasibilityResult(True, 0.0, 1.0, None)
    for d in range(1, n):
        bound = _mass_bound(n, d, q)
        for subset in itertools.combinations(reps, d):
            basis = mu.dirs[list(subset)]
            if np.linalg.matrix_rank(basis, tol=1e-10) < d:
                continue
            sub = np.linalg.qr(basis.T)[0].T
            mass = sum(w for v, w in zip(mu.dirs, mu.weights) if _contains(sub, v))
            ratio = mass / total
            if bound - ratio < worst.bound - worst.ratio:
                worst = FeasibilityResult(ratio < bound - 1e-12, ratio, bound, sub)
    return worst


def _great_circle_measure(seed, on_circle, off_circle, circles):
    """Even measure with on_circle atom pairs on each of `circles` great
    circles through one shared pair, plus off_circle pairs elsewhere."""
    r = np.random.default_rng(seed)
    turn, _ = np.linalg.qr(r.normal(size=(3, 3)))
    reps = []
    for c in range(circles):
        tilt = math.pi * c / circles
        for t in r.uniform(0.0, math.pi, size=on_circle):
            reps.append([math.cos(t), math.sin(t) * math.cos(tilt), math.sin(t) * math.sin(tilt)])
    reps.append([1.0, 0.0, 0.0])  # on every circle
    reps = np.vstack([np.array(reps), r.normal(size=(off_circle, 3))]) @ turn.T
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    w = r.uniform(0.2, 2.0, size=len(reps))
    return DiscreteSphericalMeasure(np.vstack([reps, -reps]), np.concatenate([w, w]))


def _same_feasibility(got, want):
    assert got.feasible == want.feasible
    assert got.ratio == want.ratio
    assert got.bound == want.bound
    assert (got.worst is None) == (want.worst is None)
    if want.worst is not None:
        np.testing.assert_array_equal(got.worst, want.worst)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 4), st.integers(1, 3),
       st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_subspace_mass_matches_reference_on_great_circles(seed, on_circle, off_circle,
                                                          circles, q):
    mu = _great_circle_measure(seed, on_circle, off_circle, circles)
    _same_feasibility(check_subspace_mass(mu, q), _subspace_mass_reference(mu, q))


@pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
def test_subspace_mass_matches_reference_in_the_plane_and_on_axes(q):
    # 2-d measures, and 3-d atoms on coordinate axes where many subspaces tie
    plane = np.array([[1.0, 0], [0, 1], [1, 1], [1, -2]])
    plane /= np.linalg.norm(plane, axis=1, keepdims=True)
    axes = np.vstack([np.eye(3), [[1.0, 1, 0], [0, 1, 1]] / np.sqrt(2)])
    for reps, w in ((plane, [1.0, 2, 0.5, 1.5]), (axes, [1.0, 1, 1, 2, 2])):
        mu = DiscreteSphericalMeasure(np.vstack([reps, -reps]), np.tile(w, 2))
        if q > mu.dim:
            continue
        _same_feasibility(check_subspace_mass(mu, q), _subspace_mass_reference(mu, q))


def _random_even_measure(seed, dim, pairs):
    r = np.random.default_rng(seed)
    reps = r.normal(size=(pairs, dim))
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    w = r.uniform(0.2, 2.0, size=pairs)
    return DiscreteSphericalMeasure(np.vstack([reps, -reps]), np.concatenate([w, w]))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 2.5, 3.0])
def test_subspace_mass_matches_reference_with_many_atoms(q):
    # 32-48 atoms, as the solver sees them on wide data: random directions,
    # and great circles that put many atoms on one plane
    for seed, pairs in ((0, 16), (1, 24)):
        mu = _random_even_measure(seed, 3, pairs)
        _same_feasibility(check_subspace_mass(mu, q), _subspace_mass_reference(mu, q))
    mu = _great_circle_measure(2, 6, 10, 2)
    assert 32 <= len(mu) <= 48
    _same_feasibility(check_subspace_mass(mu, q), _subspace_mass_reference(mu, q))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_subspace_mass_refuses_atoms_on_one_great_circle(q):
    mu = _great_circle_measure(5, 6, 0, 1)
    got = check_subspace_mass(mu, q)
    _same_feasibility(got, _subspace_mass_reference(mu, q))
    assert not got.feasible
    assert got.ratio == pytest.approx(1.0) and len(got.worst) == 2


@pytest.mark.parametrize("tilt,counted", [(1e-7, False), (1e-11, True)])
def test_subspace_mass_counts_an_atom_off_a_plane_only_within_same_direction(tilt, counted):
    # e1, e2 and u at angle 0.3 between them, tilted out of their plane;
    # in that plane u would make it the worst subspace (mass 10/11, bound
    # 3/4 at q = 2), outside it the line through u is (6/11, bound 1/2)
    u = [math.cos(0.3) * math.cos(tilt), math.sin(0.3) * math.cos(tilt), math.sin(tilt)]
    reps = np.array([[1.0, 0, 0], [0, 1.0, 0], u, [0, 0, 1.0]])
    w = np.array([1.0, 1.0, 3.0, 0.5])
    mu = DiscreteSphericalMeasure(np.vstack([reps, -reps]), np.concatenate([w, w]))
    got = check_subspace_mass(mu, 2.0)
    _same_feasibility(got, _subspace_mass_reference(mu, 2.0))
    assert not got.feasible
    if counted:
        assert len(got.worst) == 2 and got.ratio == pytest.approx(10 / 11)
        np.testing.assert_allclose(np.abs(got.worst @ [0, 0, 1.0]), 0.0, atol=1e-15)
    else:
        assert len(got.worst) == 1 and got.ratio == pytest.approx(6 / 11)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
def test_subspace_mass_matches_reference_on_lines_in_the_plane(q):
    # in 2-d the hyperplanes are the lines through the atoms
    for seed in range(3):
        mu = _random_even_measure(seed, 2, 7)
        _same_feasibility(check_subspace_mass(mu, q), _subspace_mass_reference(mu, q))


@pytest.mark.parametrize("shape,q", [((3, 4, 2, 2), 2.0), ((3, 5, 1, 1), 2.0)])
def test_check_smi_payload_matches_reference(tmp_path, shape, q):
    # feasible, and infeasible with most mass on one great circle
    mu = _great_circle_measure(*shape)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu.to_dict()))
    res = CliRunner().invoke(main, ["check-smi", str(path), "--q", str(q)])
    want = _subspace_mass_reference(mu, q)
    assert res.exit_code == (0 if want.feasible else 3)
    expect = {"feasible": want.feasible, "worst_ratio": want.ratio, "bound": want.bound,
              "worst_subspace_dim": len(want.worst),
              "worst_subspace_basis": [list(map(float, row)) for row in want.worst]}
    assert json.loads(res.output) == _round_tree(expect)


def test_check_smi_refuses_a_4d_measure(tmp_path):
    path = tmp_path / "mu4.json"
    path.write_text(json.dumps({"dim": 4, "atoms": [
        {"dir": [float(s * (k == i)) for k in range(4)], "weight": 1.0}
        for i in range(4) for s in (1, -1)]}))
    res = CliRunner().invoke(main, ["check-smi", str(path), "--q", "2"])
    assert res.exit_code == 2
    assert "dimension 4" in res.output


def test_subspace_mass_validation():
    dirs = np.array([[1.0, 0], [0.0, 1.0]])
    odd = DiscreteSphericalMeasure(dirs, np.ones(2))
    with pytest.raises(GeometryError):
        check_subspace_mass(odd, 1.0)
    even_dirs = np.array([[1.0, 0], [-1.0, 0]])
    mu = DiscreteSphericalMeasure(even_dirs, np.ones(2))
    with pytest.raises(GeometryError):
        check_subspace_mass(mu, 0.0)
    with pytest.raises(GeometryError):
        check_subspace_mass(mu, 2.5)


def test_phi_scale_invariance(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    mu = _measure_of(p, 2.0)
    base = phi_mu(p, mu, 2.0)
    for lam in (0.1, 3.0, 40.0):
        assert abs(phi_mu(p.scale(lam), mu, 2.0) - base) <= 1e-10


def test_phi_of_a_vpolytope_is_phi_of_its_halfspaces(rng):
    p = random_symmetric_polytope(rng, pairs=5)
    mu = _measure_of(p, 1.5)
    v = VPolytope(p.vertices)
    assert phi_mu(v, mu, 1.5) == pytest.approx(phi_mu(v.to_hpolytope(), mu, 1.5), rel=1e-12)
    np.testing.assert_allclose(phi_gradient(v, mu, 1.5), phi_gradient(p, mu, 1.5),
                               rtol=1e-9, atol=1e-12)


def test_phi_gradient_zero_at_solution(rng):
    p = random_symmetric_polytope(rng, pairs=4)
    mu = _measure_of(p, 1.5)
    g = phi_gradient(p, mu, 1.5)
    assert np.abs(g).sum() <= 1e-6
    assert g.shape == (len(mu.dirs),)


def test_phi_gradient_matches_finite_difference(rng):
    p = random_symmetric_polytope(rng, pairs=4)
    mu = _measure_of(cube(), 2.0)  # generic measure, generic body
    mu = DiscreteSphericalMeasure(p.normals, np.ones(len(p.normals)))
    g = phi_gradient(p, mu, 2.0)
    t = 1e-5
    for i in range(len(p.normals)):
        e = np.zeros(len(p.normals))
        e[i] = 1.0
        up = p.with_offsets(p.offsets * np.exp(t * e))
        dn = p.with_offsets(p.offsets * np.exp(-t * e))
        fd = (phi_mu(up, mu, 2.0) - phi_mu(dn, mu, 2.0)) / (2 * t)
        assert fd == pytest.approx(g[i], abs=5e-6)


def test_non_convergence_reports_exit(rng):
    _, mu = _feasible_instance(rng, 1.0)
    rep = solve_dual_minkowski(mu, SolverConfig(q=1.0, tol=1e-12, max_iter=2))
    assert rep.feasible and not rep.converged
    assert rep.message == "max_iter exceeded"
    assert rep.body is not None  # best iterate still returned


def test_solver_config_validation():
    with pytest.raises(GeometryError):
        SolverConfig(q=0.0)
    with pytest.raises(GeometryError):
        SolverConfig(q=1.0, tol=-1.0)
    dirs = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0],
                     [0, 1.0, 0, 0], [0, -1.0, 0, 0],
                     [0, 0, 1.0, 0], [0, 0, -1.0, 0],
                     [0, 0, 0, 1.0], [0, 0, 0, -1.0]])
    with pytest.raises(GeometryError):
        mu4 = DiscreteSphericalMeasure(dirs, np.ones(8))
        solve_dual_minkowski(mu4, SolverConfig(q=2.0))


def test_q_above_n_rejected():
    dirs = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    mu = DiscreteSphericalMeasure(dirs, np.ones(4))
    with pytest.raises(GeometryError):
        solve_dual_minkowski(mu, SolverConfig(q=2.5))


def test_total_mass_matched_exactly(rng):
    _, mu = _feasible_instance(rng, 1.0, dim=2, pairs=5)
    rep = solve_dual_minkowski(mu, SolverConfig(q=1.0))
    got = dual_curvature(rep.body, 1.0)
    assert got.total == pytest.approx(mu.total, rel=1e-9)


def test_solver_handles_anisotropic_weights():
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    w = np.array([5.0, 1.0, 0.7, 5.0, 1.0, 0.7])
    mu = DiscreteSphericalMeasure(dirs, w)
    rep = solve_dual_minkowski(mu, SolverConfig(q=1.0))
    assert rep.converged
    assert rep.residual <= 1e-6
    got = dual_curvature(rep.body, 1.0)
    assert measure_l1(got, mu) / mu.total <= 1e-3
    # lighter atoms let their facets drift far out; heavy ones pull close
    assert rep.body.offsets[0] < rep.body.offsets[2]


def _criterion_8_measures():
    """The 140 (measure, q) pairs of acceptance criterion 8, drawn the same way."""
    rng = np.random.default_rng(8)
    for n in (2, 3):
        for q in dict.fromkeys((0.5, 1.0, 2.0, float(n))):
            done = 0
            while done < 20:
                pairs = int(rng.integers(3, 6)) if n == 2 else int(rng.integers(4, 7))
                p = random_symmetric_polytope(rng, dim=n, pairs=pairs)
                mu = _measure_of(p, q)
                if not check_subspace_mass(mu, q).feasible:
                    continue
                yield mu, q
                done += 1


def test_criterion_8_measures_converge_in_few_newton_iterations():
    count = 0
    for mu, q in _criterion_8_measures():
        rep = solve_dual_minkowski(mu, SolverConfig(q=q, tol=1e-4))
        assert rep.converged and rep.stop_reason == "converged", (mu, q, rep)
        assert rep.iterations <= 30, (mu, q, rep)
        assert rep.newton_steps + rep.fallback_steps == rep.iterations
        assert len(rep.direction_trace) == len(rep.step_trace) == rep.iterations
        assert rep.evaluations == rep.iterations + rep.rejected_trials + 1
        count += 1
    assert count == 140


def test_reported_residual_is_the_rescaled_bodys():
    # the solver reads the residual off its last iterate, as the atoms are
    # homogeneous of degree q; the rescaled body's atoms, computed afresh,
    # must give the same L1 mismatch
    for mu, q in _criterion_8_measures():
        rep = solve_dual_minkowski(mu, SolverConfig(q=q, tol=1e-4))
        fresh = float(np.abs(_atoms(rep.body, q) - mu.weights).sum()) / mu.total
        assert abs(rep.residual - fresh) <= 1e-12, (mu, q, rep)


def test_empty_facet_mid_solve_takes_the_fallback(monkeypatch):
    # four random pairs in the plane at q = 1: a Newton step empties a facet,
    # which only the log-mismatch direction brings back
    rng = np.random.default_rng(8)
    _, mu = _feasible_instance(rng, 1.0, dim=2, pairs=4)
    empty = []
    newton = solver._newton_direction

    def spy(body, q, atoms, grad):
        empty.append(not (atoms > 0).all())
        return newton(body, q, atoms, grad)

    monkeypatch.setattr(solver, "_newton_direction", spy)
    rep = solve_dual_minkowski(mu, SolverConfig(q=1.0, tol=1e-6))
    assert any(empty)
    assert rep.fallback_steps >= 1
    assert rep.converged and rep.stop_reason == "converged"
    assert rep.newton_steps + rep.fallback_steps == rep.iterations
    assert [d == "fallback" for d in rep.direction_trace] == empty
    assert (np.diff(rep.phi_trace) >= -1e-12).all()
    assert rep.residual <= 1e-5


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("pairs,worst_dim", [(1, 1), (2, 2)])
def test_data_on_a_proper_subspace_of_r3_is_infeasible(pairs, worst_dim, q):
    # at every q in (0, n] a measure on a proper subspace is excluded; the
    # solver reports it instead of raising from an unbounded start body
    dirs = np.vstack([np.eye(3)[:pairs], -np.eye(3)[:pairs]])
    mu = DiscreteSphericalMeasure(dirs, np.ones(2 * pairs))
    feas = check_subspace_mass(mu, q)
    assert not feas.feasible and feas.ratio == 1.0
    assert len(feas.worst) == worst_dim
    _same_feasibility(feas, _subspace_mass_reference(mu, q))
    rep = solve_dual_minkowski(mu, SolverConfig(q=q))
    assert rep.stop_reason == "infeasible" and rep.body is None


def test_the_solution_holds_the_measures_direction_set(rng):
    _, mu = _feasible_instance(rng, 2.0, pairs=4)
    rep = solve_dual_minkowski(mu, SolverConfig(q=2.0))
    assert rep.converged
    assert rep.body.directions is mu.directions
    assert dual_curvature(rep.body, 2.0).directions is mu.directions


def test_stop_reasons():
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    mu = DiscreteSphericalMeasure(dirs, np.array([5.0, 1.0, 0.7, 5.0, 1.0, 0.7]))
    capped = solve_dual_minkowski(mu, SolverConfig(q=1.0, tol=1e-12, max_iter=1))
    assert capped.stop_reason == "max_iter" and capped.iterations == 1
    assert capped.message == "max_iter exceeded"
    done = solve_dual_minkowski(mu, SolverConfig(q=1.0))
    assert done.stop_reason == "converged" and done.message == ""
    flat = DiscreteSphericalMeasure(dirs[[0, 1, 3, 4]], np.ones(4))
    refused = solve_dual_minkowski(flat, SolverConfig(q=2.0))
    assert refused.stop_reason == "infeasible"
    assert refused.message == "subspace mass bound violated"
    assert refused.evaluations == 0


def _pair_matrix(antipode):
    """The dense m x r 0/1 matrix taking one unknown per antipodal pair to
    the m log offsets: the oracle's pair fold."""
    reps = np.flatnonzero(np.arange(len(antipode)) < antipode)
    pair = np.empty(len(antipode), dtype=int)
    pair[reps] = pair[antipode[reps]] = np.arange(len(reps))
    return np.eye(len(reps))[pair]


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, "n"])
@pytest.mark.parametrize("dim, pairs", [(2, 5), (3, 6), (3, 10)])
def test_newton_step_equals_folded_lstsq_step(dim, pairs, q):
    q = float(dim) if q == "n" else q
    rng = np.random.default_rng(dim * pairs)
    p = random_symmetric_polytope(rng, dim=dim, pairs=pairs)
    # shuffled halfspaces, so a pair is not (i, i + r)
    order = rng.permutation(len(p.normals))
    p = HPolytope(p.normals[order], p.offsets[order])
    atoms = _atoms(p, q)
    gamma = rng.uniform(1.0, 1.3, size=len(atoms))
    gamma += gamma[p.antipode]
    grad = atoms / atoms.sum() - gamma / gamma.sum()
    d = solver._newton_direction(p, q, atoms, grad)
    assert d is not None
    # the oracle: the full Hessian with its rank-one term, folded by pairs
    # and solved by least squares
    w = float(atoms.sum())
    jac = _atom_jacobian(p, q, atoms)
    hess = jac / w - q * np.outer(atoms, atoms) / w**2
    pmat = _pair_matrix(p.antipode)
    step, *_ = np.linalg.lstsq(pmat.T @ hess @ pmat, -(pmat.T @ grad), rcond=None)
    oracle = pmat @ step
    oracle -= oracle.mean()
    assert np.abs(d - oracle).max() <= 1e-10 * np.abs(oracle).max()
    # why no rank-one term: -W J^-1 grad is orthogonal to the atoms, and
    # with its mean removed it still solves the Newton system
    plain = -w * np.linalg.solve(jac, grad)
    assert abs(atoms @ plain) <= 1e-12 * np.abs(atoms) @ np.abs(plain)
    np.testing.assert_allclose(hess @ d, -grad, rtol=0, atol=1e-12 * np.abs(grad).max())
    fallback = rng.normal(size=len(atoms))
    np.testing.assert_array_equal(0.5 * (fallback + fallback[p.antipode]),
                                  pmat @ (0.5 * (pmat.T @ fallback)))


def test_singular_jacobian_leaves_the_step_to_the_fallback(monkeypatch):
    p = cube()
    atoms = _atoms(p, 1.0)
    grad = atoms / atoms.sum() - np.array([2.0, 1, 1, 2, 1, 1]) / 8.0
    assert solver._newton_direction(p, 1.0, atoms, grad) is not None
    monkeypatch.setattr(solver, "_atom_jacobian", lambda *args: np.zeros((6, 6)))
    assert solver._newton_direction(p, 1.0, atoms, grad) is None


def _solve_problems(rng):
    """The criterion-8 problems at their tol 1e-4, and feasible
    random_even_measure draws at tol 1e-6 in 2-d and 3-d."""
    for mu, q in _criterion_8_measures():
        yield mu, SolverConfig(q=q, tol=1e-4)
    for n in (2, 3):
        for q in (0.5, 1.0, 2.0, float(n)):
            mu = random_even_measure(rng, dim=n, pairs=int(rng.integers(3, 7)))
            if check_subspace_mass(mu, q).feasible:
                yield mu, SolverConfig(q=q)


def test_trial_lattices_change_the_solves_by_rounding_only(monkeypatch, rng):
    # trials on the iterate's lattice solve their vertices in closed form,
    # where a fresh Qhull hull solves them from its facet planes
    problems = list(_solve_problems(rng))
    lattice = [solve_dual_minkowski(mu, cfg) for mu, cfg in problems]
    monkeypatch.setattr(body_core._PolarHull, "moved", lambda *args: None)
    for (mu, cfg), got in zip(problems, lattice):
        want = solve_dual_minkowski(mu, cfg)
        assert want.hull_builds == want.evaluations
        assert got.stop_reason == want.stop_reason == "converged"
        assert got.direction_trace == want.direction_trace
        assert got.evaluations == want.evaluations
        np.testing.assert_allclose(got.body.offsets, want.body.offsets, rtol=1e-10, atol=0)


def test_hull_builds_count_the_qhull_calls(monkeypatch):
    calls = []
    hull = body_core.ConvexHull
    monkeypatch.setattr(body_core, "ConvexHull", lambda *args: calls.append(1) or hull(*args))
    mu = random_even_measure(np.random.default_rng(4), dim=3, pairs=12)
    rep = solve_dual_minkowski(mu, SolverConfig(q=2.0))
    assert rep.converged
    assert rep.hull_builds == len(calls) < rep.evaluations
    assert f"hull_builds={rep.hull_builds}" in repr(rep)


def _lopsided_axes_measure():
    return DiscreteSphericalMeasure(np.vstack([np.eye(3), -np.eye(3)]),
                                    np.array([5.0, 1.0, 0.7, 5.0, 1.0, 0.7]))


def test_line_search_stalls_below_phi_rounding():
    # at tol 1e-16 the residual (about 5e-16) never gets there: once Phi
    # moves by its rounding only, every trial fails and the search stalls
    rep = solve_dual_minkowski(_lopsided_axes_measure(), SolverConfig(q=1.0, tol=1e-16))
    assert rep.stop_reason == "line_search_stalled"
    assert rep.message == "line search stalled" and not rep.converged
    assert (np.diff(rep.phi_trace) >= 0.0).all()
    assert rep.step_trace[-1] == 0.0 and 0.0 not in rep.step_trace[:-1]
    assert len(rep.phi_trace) == rep.iterations
    # the start and every trial, with no accepted trial in the last
    # iteration (a converged solve has one more)
    assert rep.evaluations == rep.iterations + rep.rejected_trials + 0
    assert rep.residual < 1e-12


def test_cli_solve_exits_4_on_a_stalled_line_search(tmp_path):
    path = tmp_path / "aniso.json"
    path.write_text(json.dumps(_lopsided_axes_measure().to_dict()))
    trace = tmp_path / "trace.csv"
    res = CliRunner().invoke(main, ["solve", str(path), "--q", "1", "--tol", "1e-16",
                                    "--trace", str(trace)])
    assert res.exit_code == 4
    summary = json.loads(res.stdout)
    assert summary["stop_reason"] == "line_search_stalled"
    rows = trace.read_text().splitlines()[1:]
    # below Phi's rounding floor the count follows the atoms' rounding, so
    # the CLI must agree with the API on the same measure and config
    api = solve_dual_minkowski(_lopsided_axes_measure(), SolverConfig(q=1.0, tol=1e-16))
    assert len(rows) == summary["iterations"] == api.iterations
    assert rows[-1].split(",")[3] == "0"
