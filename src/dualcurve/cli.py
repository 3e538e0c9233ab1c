"""Command-line interface.

Subcommands: compute (measures of a body), solve (dual Minkowski problem),
check-smi (subspace mass feasibility), verify (identity suites), steiner
(polynomial fit of the radial-sum volume).  Bodies and measures travel as
JSON; numeric output is printed with 12 significant digits.  Exit codes:
0 success, 2 validation error, 3 infeasible input, 4 non-convergence.
"""

import csv
import json
import math
import sys

import click
import numpy as np

from . import measures as ms
from . import solver as sv
from . import variational as va
from .body_core import (GeometryError, HPolytope, body_from_dict, polar,
                        wulff_polar_identity_check)
from .quadrature import unit_ball_volume

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


def _round12(x):
    return float(f"{float(x):.12g}")


def _round_tree(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    return obj


def _emit(data, out_path=None):
    text = json.dumps(_round_tree(data), indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _load_body(path):
    try:
        return body_from_dict(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        _fail(f"invalid body file: {exc}")


def _load_measure(path):
    try:
        return ms.DiscreteSphericalMeasure.from_dict(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        _fail(f"invalid measure file: {exc}")


def _fail(message, code=EXIT_VALIDATION):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Dual curvature measures of convex bodies and the dual Minkowski problem."""


@main.command()
@click.argument("body_path", type=click.Path(exists=False))
@click.option("--q", type=float, default=None, help="index for the dual curvature measure")
@click.option("--measure-kind", type=click.Choice(["dual", "cone", "surface", "lp", "q0"]),
              default="dual", show_default=True)
@click.option("--p", type=float, default=1.0, show_default=True, help="exponent for --measure-kind lp")
@click.option("--out", type=click.Path(), default=None, help="write the measure JSON here instead of stdout")
def compute(body_path, q, measure_kind, p, out):
    """Compute a spherical measure of the body in BODY_PATH."""
    body = _load_body(body_path)
    try:
        if measure_kind == "dual":
            if q is None:
                _fail("--q is required for --measure-kind dual")
            result = ms.dual_curvature(body, q)
        elif measure_kind == "cone":
            result = ms.cone_volume_measure(body)
        elif measure_kind == "surface":
            result = ms.surface_area_measure(body)
        elif measure_kind == "lp":
            result = ms.lp_surface_area_measure(body, p)
        else:
            result = ms.dual_curvature_q0(body)
    except GeometryError as exc:
        _fail(str(exc))
    _emit(result.to_dict(), out)


@main.command()
@click.argument("measure_path", type=click.Path(exists=False))
@click.option("--q", type=float, required=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=10000, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="write the solution body JSON here")
@click.option("--trace", type=click.Path(), default=None,
              help="write iter,phi,residual,step,direction CSV here, one row per iteration")
def solve(measure_path, q, tol, max_iter, out, trace):
    """Solve for a body whose dual curvature measure is MEASURE_PATH."""
    mu = _load_measure(measure_path)
    try:
        cfg = sv.SolverConfig(q=q, tol=tol, max_iter=max_iter)
        report = sv.solve_dual_minkowski(mu, cfg)
    except GeometryError as exc:
        _fail(str(exc))
    if trace and report.feasible:
        # row k: the iterate the k-th step starts from, with that step
        with open(trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "phi", "residual", "step", "direction"])
            for k, direction in enumerate(report.direction_trace):
                writer.writerow([k, f"{report.phi_trace[k]:.12g}",
                                 f"{report.residual_trace[k]:.12g}",
                                 f"{report.step_trace[k]:.12g}", direction])
    if not report.feasible:
        _fail("measure violates the subspace mass bound", EXIT_INFEASIBLE)
    if out and report.body is not None:
        _emit(report.body.to_dict(), out)
    summary = {
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "hull_builds": report.hull_builds,
        "residual": report.residual,
        "phi": report.phi_trace[-1] if report.phi_trace else None,
    }
    _emit(summary)
    if not report.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command("check-smi")
@click.argument("measure_path", type=click.Path(exists=False))
@click.option("--q", type=float, required=True)
def check_smi(measure_path, q):
    """Check the subspace mass bounds for MEASURE_PATH at index q."""
    mu = _load_measure(measure_path)
    try:
        res = sv.check_subspace_mass(mu, q)
    except GeometryError as exc:
        _fail(str(exc))
    payload = {"feasible": res.feasible, "worst_ratio": res.ratio, "bound": res.bound}
    if res.worst is not None:
        payload["worst_subspace_dim"] = len(res.worst)
        payload["worst_subspace_basis"] = [list(map(float, row)) for row in res.worst]
    _emit(payload)
    if not res.feasible:
        sys.exit(EXIT_INFEASIBLE)


def _suite_identities(body, qs, rng):
    # each index's atoms and the sphere-side rule are evaluated once per
    # body (its memo), for the checks of qs and the identities below alike
    checks = []
    for q in qs:
        mu = ms.dual_curvature(body, q)
        wq = ms.dual_quermassintegral(body, q)
        err = abs(mu.total - wq.value) / wq.value
        checks.append({"name": f"total-measure q={q:g}", "value": err, "bound": 1e-6,
                       "estimate": wq.error / wq.value})
    cone = ms.cone_volume_measure(body)
    err = ms.measure_max_discrepancy(ms.dual_curvature(body, body.dim), cone) / max(cone.weights.max(), 1e-300)
    checks.append({"name": "cone-volume identity", "value": err, "bound": 1e-8})
    q0 = ms.dual_curvature(body, 0.0)
    checks.append({
        "name": "index-0 total",
        "value": abs(q0.total - unit_ball_volume(body.dim)) / unit_ball_volume(body.dim),
        "bound": 1e-6,
    })
    lam = 2.0
    scaled = ms.dual_curvature(body.scale(lam), 2.0)
    base = ms.dual_curvature(body, 2.0)
    err = ms.measure_max_discrepancy(scaled, base.scaled(lam**2)) / max(base.weights.max() * lam**2, 1e-300)
    checks.append({"name": "homogeneity q=2", "value": err, "bound": 1e-8})
    ok, disc = wulff_polar_identity_check(body.normals, body.offsets)
    checks.append({"name": "wulff-hull polarity", "value": disc, "bound": 1e-9})
    u = rng.normal(size=(3, body.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for val in body.radial(u) * polar(body).support(u):
        checks.append({"name": "polar identity sample", "value": float(abs(val - 1.0)),
                       "bound": 1e-9})
    return checks


def _suite_variational(body, qs, rng, t_step):
    # the draws go to the facets in an order read off their normals, so the
    # checks do not depend on the order of the body's halfspaces
    key = body.normals @ np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])[:body.dim]
    f = np.empty(len(key))
    f[np.argsort(key)] = rng.uniform(-1.0, 1.0, size=len(key))
    checks = []
    for q in qs:
        if q == 0:
            err = va.check_q0_variation(body, f, t_step=t_step)
            checks.append({"name": "variation q=0", "value": err, "bound": 1e-3})
        else:
            err = va.check_dual_variation(body, f, q, t_step=t_step)
            checks.append({"name": f"variation q={q:g}", "value": err, "bound": 1e-3})
    err = va.check_aleksandrov(body, f, t_step=t_step)
    checks.append({"name": "volume variation (linear family)", "value": err, "bound": 1e-3})
    return checks


def _suite_valuation(body, qs, rng):
    if body.dim != 3 or not _is_axis_box(body):
        _fail("valuation suite expects an axis-aligned box in R^3")
    lo, hi = _box_bounds(body)
    checks = []
    for q in qs:
        stretch = float(rng.uniform(0.3, 1.5))
        lo2, hi2 = lo.copy(), hi.copy()
        lo2[2] = -(abs(lo[2]) + stretch)
        hi2[2] = hi[2] * float(rng.uniform(0.4, 0.9))
        other = _box(lo2, hi2)
        disc = ms.valuation_check(body, other, q)
        # the atoms are memoized per body: valuation_check evaluated them
        scale = max(ms.dual_curvature(body, q).weights.max(), 1e-300)
        checks.append({"name": f"valuation q={q:g}", "value": disc / scale, "bound": 1e-5})
    return checks


def _steiner_fit(body, ts=None):
    """The Steiner coefficients fitted at ts (default: max(n + 2, 8) points
    in [0.1, 1]), the direct dual quermassintegrals of index 0..n, and the
    fitted coefficients' relative errors against them."""
    if ts is None:
        ts = np.linspace(0.1, 1.0, max(body.dim + 2, 8))
    fitted = ms.dual_steiner_check(body, ts)
    direct = [ms.dual_quermassintegral(body, i).value for i in range(body.dim + 1)]
    errs = [abs(f - d) / max(abs(d), 1e-300) for f, d in zip(fitted, direct)]
    return fitted, direct, errs


def _suite_steiner(body, qs, rng):
    return [{"name": f"steiner coefficient i={i}", "value": err, "bound": 1e-4}
            for i, err in enumerate(_steiner_fit(body)[2])]


def _is_axis_box(body):
    for row in body.normals:
        if np.sort(np.abs(row))[-2] > 1e-12:
            return False
    return len(body.normals) == 2 * body.dim


def _box_bounds(body):
    lo = np.zeros(body.dim)
    hi = np.zeros(body.dim)
    for v, h in zip(body.normals, body.offsets):
        k = int(np.argmax(np.abs(v)))
        if v[k] > 0:
            hi[k] = h
        else:
            lo[k] = -h
    return lo, hi


def _box(lo, hi):
    dim = len(lo)
    normals, offsets = [], []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        normals.extend([e, -e])
        offsets.extend([hi[k], -lo[k]])
    return HPolytope(np.array(normals), np.array(offsets))


@main.command()
@click.argument("body_path", type=click.Path(exists=False))
@click.option("--suite", type=click.Choice(["identities", "variational", "valuation", "steiner"]),
              required=True)
@click.option("--q", "qs", type=float, multiple=True, help="indices to test (defaults per suite)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--t-step", type=float, default=1e-4, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def verify(body_path, suite, qs, seed, t_step, out):
    """Run an identity suite against the body in BODY_PATH."""
    body = _load_body(body_path)
    if not isinstance(body, HPolytope):
        body = body.to_hpolytope()
    rng = np.random.default_rng(seed)
    if not qs:
        qs = {
            "identities": (0.0, 0.5, 1.0, 2.0, float(body.dim)),
            "variational": (0.0, 1.0, 2.0, float(body.dim)),
            "valuation": (0.5, 1.0, 2.0, float(body.dim)),
            "steiner": (),
        }[suite]
    runner = {
        "identities": lambda: _suite_identities(body, qs, rng),
        "variational": lambda: _suite_variational(body, qs, rng, t_step),
        "valuation": lambda: _suite_valuation(body, qs, rng),
        "steiner": lambda: _suite_steiner(body, qs, rng),
    }[suite]
    try:
        checks = runner()
    except GeometryError as exc:
        _fail(str(exc))
    for c in checks:
        c["pass"] = bool(c["value"] <= c["bound"])
    _emit({"suite": suite, "seed": seed, "checks": checks}, out)


@main.command()
@click.argument("body_path", type=click.Path(exists=False))
@click.option("--t-samples", default=None,
              help="comma-separated t values (default: 8 points in [0.1, 1])")
@click.option("--out", type=click.Path(), default=None)
def steiner(body_path, t_samples, out):
    """Fit the radial-sum volume polynomial of the body in BODY_PATH."""
    body = _load_body(body_path)
    if not isinstance(body, HPolytope):
        body = body.to_hpolytope()
    ts = None
    if t_samples:
        try:
            ts = np.array([float(s) for s in t_samples.split(",")])
        except ValueError:
            _fail("bad --t-samples; expected comma-separated floats")
    try:
        fitted, direct, errs = _steiner_fit(body, ts)
    except GeometryError as exc:
        _fail(str(exc))
    _emit({
        "fitted": [float(c) for c in fitted],
        "direct": direct,
        "max_rel_err": max(errs),
    }, out)


if __name__ == "__main__":
    main()
