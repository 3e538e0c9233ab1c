"""Finite-difference verification of the variational identities.

Logarithmic families perturb the support values multiplicatively,
h_t(v) = h(v) exp(t f(v)); linear families add t f(v).  Central
differences of the global quantities are compared against the pairings
with the corresponding measures, which is what characterizes the dual
curvature and surface area measures as differentials.
"""

import math

import numpy as np

from .body_core import GeometryError, HPolytope
from .measures import _atoms, dual_curvature_q0, dual_quermassintegral
from .quadrature import unit_ball_volume


class LogFamily:
    """Wulff family with log h_t = log h_0 + t f on a fixed direction set."""

    def __init__(self, base, f):
        if not isinstance(base, HPolytope):
            raise GeometryError("base must be an HPolytope")
        f = np.asarray(f, float)
        if f.shape != base.offsets.shape:
            raise GeometryError("perturbation must give one value per base direction")
        self.base = base
        self.f = f

    def offsets_at(self, t):
        return self.base.offsets * np.exp(t * self.f)

    def body_at(self, t):
        return self.base.with_offsets(self.offsets_at(t))


def _stencil(K, offsets_at, t_step):
    """The step t of a central difference about K and the bodies at +-t,
    with offsets offsets_at(+-t) on K's normals.

    A facet appearing or vanishing inside the stencil spoils the difference
    quotient, so the step shrinks tenfold, up to three times, until both
    bodies have positive offsets and K's active set; the bodies returned
    are the ones tested.
    """
    t = t_step
    for _ in range(3):
        offsets = offsets_at(t), offsets_at(-t)
        if all((h > 0).all() for h in offsets):
            plus, minus = (K.with_offsets(h) for h in offsets)
            if (plus.active == K.active).all() and (minus.active == K.active).all():
                return t, plus, minus
        t /= 10.0
    return t, K.with_offsets(offsets_at(t)), K.with_offsets(offsets_at(-t))


def _rel_err(approx, exact):
    scale = max(abs(exact), 1e-300)
    return abs(approx - exact) / scale


def check_dual_variation(K, f, q, t_step=1e-4):
    """Central difference of the q-th dual quermassintegral along a log family
    against q times the pairing of f with the dual curvature atoms.

    Returns the relative error of the difference quotient.  The total of the
    atoms is used as the quermassintegral on both sides (they agree by the
    total-measure identity, which is tested separately), so the quotient and
    the pairing see the same functional and no quadrature bias enters.
    """
    if q == 0:
        raise GeometryError("use check_q0_variation for q = 0")
    t, plus, minus = _stencil(K, LogFamily(K, f).offsets_at, t_step)
    wq = lambda body: float(_atoms(body, q).sum())
    fd = (wq(plus) - wq(minus)) / (2 * t)
    atoms = _atoms(K, q)
    exact = q * float(np.asarray(f, float) @ atoms)
    return _rel_err(fd, exact)


def check_q0_variation(K, f, t_step=1e-4):
    """Central difference of log of the normalized dual volume at q=0 against
    the pairing of f with the index-0 atoms over the unit-ball volume."""
    t, plus, minus = _stencil(K, LogFamily(K, f).offsets_at, t_step)
    v0 = lambda body: math.log(dual_quermassintegral(body, 0).normalized)
    fd = (v0(plus) - v0(minus)) / (2 * t)
    atoms = dual_curvature_q0(K).weights
    exact = float(np.asarray(f, float) @ atoms) / unit_ball_volume(K.dim)
    return _rel_err(fd, exact)


def check_aleksandrov(K, f, t_step=1e-4):
    """Central difference of the volume along the linear family h_0 + t f
    against the pairing of f with the facet areas."""
    f = np.asarray(f, float)
    if f.shape != K.offsets.shape:
        raise GeometryError("perturbation must give one value per base direction")
    t, plus, minus = _stencil(K, lambda t: K.offsets + t * f, t_step)
    fd = (plus.volume() - minus.volume()) / (2 * t)
    exact = float(f @ K.facet_areas)
    return _rel_err(fd, exact)
