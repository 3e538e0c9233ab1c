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


def log_wulff(base, f, t):
    """The Wulff shape of h_0 exp(t f) on the base direction set."""
    return LogFamily(base, f).body_at(t)


def _activity_stable(K, fam, t):
    act = K.active
    return (fam.body_at(t).active == act).all() and (fam.body_at(-t).active == act).all()


def _shrink_step(K, fam, t_step, max_shrinks=3):
    # a facet appearing or vanishing inside the stencil spoils the
    # difference quotient; shrink the step until the active set is stable
    t = t_step
    for _ in range(max_shrinks):
        if _activity_stable(K, fam, t):
            return t
        t /= 10.0
    return t


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
    fam = LogFamily(K, f)
    t = _shrink_step(K, fam, t_step)
    wq = lambda body: float(_atoms(body, q).sum())
    fd = (wq(fam.body_at(t)) - wq(fam.body_at(-t))) / (2 * t)
    atoms = _atoms(K, q)
    exact = q * float(np.asarray(f, float) @ atoms)
    return _rel_err(fd, exact)


def check_q0_variation(K, f, t_step=1e-4):
    """Central difference of log of the normalized dual volume at q=0 against
    the pairing of f with the index-0 atoms over the unit-ball volume."""
    fam = LogFamily(K, f)
    t = _shrink_step(K, fam, t_step)
    v0 = lambda body: math.log(dual_quermassintegral(body, 0).normalized)
    fd = (v0(fam.body_at(t)) - v0(fam.body_at(-t))) / (2 * t)
    atoms = dual_curvature_q0(K).weights
    exact = float(np.asarray(f, float) @ atoms) / unit_ball_volume(K.dim)
    return _rel_err(fd, exact)


def check_aleksandrov(K, f, t_step=1e-4):
    """Central difference of the volume along the linear family h_0 + t f
    against the pairing of f with the facet areas."""
    f = np.asarray(f, float)
    if f.shape != K.offsets.shape:
        raise GeometryError("perturbation must give one value per base direction")
    t = t_step
    for _ in range(3):
        ok = ((K.offsets + t * f > 0).all() and (K.offsets - t * f > 0).all()
              and (K.with_offsets(K.offsets + t * f).active == K.active).all()
              and (K.with_offsets(K.offsets - t * f).active == K.active).all())
        if ok:
            break
        t /= 10.0
    fd = (K.with_offsets(K.offsets + t * f).volume()
          - K.with_offsets(K.offsets - t * f).volume()) / (2 * t)
    exact = float(f @ K.facet_areas)
    return _rel_err(fd, exact)
