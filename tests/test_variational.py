import numpy as np
import pytest

from dualcurve import (GeometryError, LogFamily, check_aleksandrov,
                       check_dual_variation, check_q0_variation)

from conftest import cube, random_symmetric_polytope


def _perturbation(rng, m):
    f = rng.standard_normal(m)
    return f / np.abs(f).max()


def _sym_perturbation(rng, p):
    # same value on each antipodal facet pair keeps families symmetric
    f = _perturbation(rng, p.normals.shape[0])
    flip = p.normals @ p.normals.T < -1 + 1e-9
    i, j = np.nonzero(flip)
    f[i] = 0.5 * (f[i] + f[j])
    return f


def test_log_family_basics():
    p = cube()
    f = np.linspace(-1.0, 1.0, 6)
    fam = LogFamily(p, f)
    np.testing.assert_allclose(fam.offsets_at(0.0), p.offsets)
    np.testing.assert_allclose(fam.offsets_at(0.25), p.offsets * np.exp(0.25 * f))
    k = fam.body_at(0.1)
    np.testing.assert_allclose(k.offsets, p.offsets * np.exp(0.1 * f))
    with pytest.raises(GeometryError):
        LogFamily(p, np.ones(5))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_dual_variation_cube(q, rng):
    p = cube()
    f = _perturbation(rng, 6)
    assert check_dual_variation(p, f, q, t_step=1e-4) <= 1e-3


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_dual_variation_random(q, rng):
    for _ in range(3):
        p = random_symmetric_polytope(rng, pairs=5)
        f = _sym_perturbation(rng, p)
        assert check_dual_variation(p, f, q, t_step=1e-4) <= 1e-3


def test_dual_variation_2d(rng):
    p = random_symmetric_polytope(rng, dim=2, pairs=4)
    f = _sym_perturbation(rng, p)
    for q in (0.5, 1.0, 2.0):
        assert check_dual_variation(p, f, q, t_step=1e-4) <= 1e-3


def test_q0_variation(rng):
    p = cube()
    f = _perturbation(rng, 6)
    assert check_q0_variation(p, f, t_step=1e-4) <= 1e-3
    s = random_symmetric_polytope(rng, dim=2, pairs=4)
    assert check_q0_variation(s, _sym_perturbation(rng, s), t_step=1e-4) <= 1e-3


def test_q0_rejected_by_dual_variation():
    p = cube()
    with pytest.raises(GeometryError):
        check_dual_variation(p, np.ones(6), 0.0)


def test_aleksandrov_variation(rng):
    p = cube()
    f = _perturbation(rng, 6)
    assert check_aleksandrov(p, f, t_step=1e-4) <= 1e-3
    s = random_symmetric_polytope(rng, dim=3, pairs=6)
    assert check_aleksandrov(s, _perturbation(rng, s.normals.shape[0])) <= 1e-3
    with pytest.raises(GeometryError):
        check_aleksandrov(p, np.ones(4))


def test_second_order_decay(rng):
    # central differences are O(t^2): shrinking t by 10 should shrink the
    # error by roughly 100 until quadrature noise takes over
    p = cube()
    f = _perturbation(rng, 6)
    e3 = check_dual_variation(p, f, 1.5, t_step=1e-3)
    e4 = check_dual_variation(p, f, 1.5, t_step=1e-4)
    assert e4 < e3
    ratio = e3 / max(e4, 1e-15)
    assert 10.0 < ratio < 1000.0


def test_step_shrinks_when_activity_changes():
    # corner-cut facet 5e-5 from vanishing: the t=1e-4 stencil flips its
    # activity, so the step must shrink to 1e-5 before differencing
    import dualcurve.variational as va
    from dualcurve import HPolytope

    u = np.ones(3) / np.sqrt(3.0)
    vs = np.vstack([np.eye(3), -np.eye(3), u[None, :]])
    off = np.concatenate([np.ones(6), [np.sqrt(3.0) * (1.0 - 5e-5)]])
    p = HPolytope(vs, off)
    assert p.active[6]
    f = np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.2, -1.0])
    fam = va.LogFamily(p, f)
    assert not all((fam.body_at(t).active == p.active).all() for t in (1e-4, -1e-4))
    t, plus, minus = va._stencil(p, fam.offsets_at, 1e-4)
    assert t == pytest.approx(1e-5)
    np.testing.assert_array_equal(plus.offsets, fam.offsets_at(t))
    np.testing.assert_array_equal(minus.offsets, fam.offsets_at(-t))
    assert (plus.active == p.active).all() and (minus.active == p.active).all()
    err = check_dual_variation(p, f, 2.0, t_step=1e-4)
    assert err <= 1e-3


def test_stencil_falls_through_after_three_shrinks():
    # the halfspace x + y <= 2 touches the square [-1, 1]^2 at one corner:
    # with f = -1 on it, any +t cuts the corner and -t leaves it empty, so
    # no step keeps the active set and the stencil gives up at 1e-7
    import dualcurve.variational as va
    from dualcurve import HPolytope

    s = np.sqrt(2.0)
    vs = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1], [1 / s, 1 / s]])
    p = HPolytope(vs, np.array([1.0, 1, 1, 1, s]))
    assert not p.active[4]
    f = np.array([0.0, 0, 0, 0, -1])
    fam = va.LogFamily(p, f)
    t, plus, minus = va._stencil(p, fam.offsets_at, 1e-4)
    assert t == pytest.approx(1e-7)
    np.testing.assert_array_equal(plus.offsets, fam.offsets_at(t))
    np.testing.assert_array_equal(minus.offsets, fam.offsets_at(-t))
    assert plus.active[4] and not minus.active[4]
    for err in (check_dual_variation(p, f, 1.0), check_dual_variation(p, f, 2.0),
                check_q0_variation(p, f), check_aleksandrov(p, f)):
        assert np.isfinite(err)
