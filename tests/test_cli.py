import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dualcurve
from dualcurve import DiscreteSphericalMeasure, HPolytope, VPolytope, dual_curvature
from dualcurve.body_core import body_from_dict
from dualcurve.cli import _suite_variational, main

from conftest import count_sphere_rules, cube

CUBE_ATOM_Q2 = 1.0578121617686904


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _cube_body(tmp_path):
    return _write(tmp_path, "cube.json", cube().to_dict())


def _cube_measure(tmp_path, q=2.0):
    mu = dual_curvature(cube(), q)
    return _write(tmp_path, "mu.json", mu.to_dict())


def test_compute_dual(runner, tmp_path):
    res = runner.invoke(main, ["compute", _cube_body(tmp_path), "--q", "2"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["dim"] == 3 and data["even"] is True
    ws = [a["weight"] for a in data["atoms"]]
    np.testing.assert_allclose(ws, CUBE_ATOM_Q2, rtol=1e-8)


def test_compute_other_kinds(runner, tmp_path):
    body = _cube_body(tmp_path)
    for kind, want in (("cone", 4.0 / 3.0), ("surface", 4.0), ("q0", 2 * np.pi / 9)):
        res = runner.invoke(main, ["compute", body, "--measure-kind", kind])
        assert res.exit_code == 0, (kind, res.output)
        ws = [a["weight"] for a in json.loads(res.output)["atoms"]]
        np.testing.assert_allclose(ws, want, rtol=1e-9)
    res = runner.invoke(main, ["compute", body, "--measure-kind", "lp", "--p", "0"])
    ws = [a["weight"] for a in json.loads(res.output)["atoms"]]
    np.testing.assert_allclose(ws, 4.0, rtol=1e-12)


def test_compute_out_file(runner, tmp_path):
    out = str(tmp_path / "measure.json")
    res = runner.invoke(main, ["compute", _cube_body(tmp_path), "--q", "1", "--out", out])
    assert res.exit_code == 0
    data = json.loads(open(out).read())
    assert len(data["atoms"]) == 6


def test_compute_requires_q_for_dual(runner, tmp_path):
    res = runner.invoke(main, ["compute", _cube_body(tmp_path)])
    assert res.exit_code == 2


def test_compute_rejects_bad_file(runner, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert runner.invoke(main, ["compute", missing, "--q", "1"]).exit_code == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert runner.invoke(main, ["compute", str(garbled), "--q", "1"]).exit_code == 2


def test_compute_rejects_invalid_body(runner, tmp_path):
    bad = _write(tmp_path, "open.json", {
        "type": "hpolytope", "dim": 2,
        "normals": [[1.0, 0.0], [0.0, 1.0]], "offsets": [1.0, 1.0],
    })
    assert runner.invoke(main, ["compute", bad, "--q", "1"]).exit_code == 2


def test_compute_refuses_4d_body(runner, tmp_path):
    tesseract = _write(tmp_path, "tesseract.json", {
        "type": "hpolytope", "dim": 4,
        "normals": np.vstack([np.eye(4), -np.eye(4)]).tolist(), "offsets": [1.0] * 8,
    })
    res = runner.invoke(main, ["compute", tesseract, "--q", "1"])
    assert res.exit_code == 2
    assert "dimension 4" in res.output


def test_solve_round_trip(runner, tmp_path):
    out = str(tmp_path / "body.json")
    trace = str(tmp_path / "trace.csv")
    res = runner.invoke(main, ["solve", _cube_measure(tmp_path), "--q", "2",
                               "--out", out, "--trace", trace])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["converged"] is True
    assert summary["residual"] <= 1e-6
    body = body_from_dict(json.loads(open(out).read()))
    assert body.symmetric and body.dim == 3
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "phi", "residual", "step", "direction"]
    assert len(rows) == summary["iterations"] + 1
    phis = [float(r[1]) for r in rows[1:]]
    assert phis == sorted(phis)


def test_solve_summary_and_trace_name_each_direction(runner, tmp_path):
    # lopsided weights put the optimum away from the h = 1 start
    mu = DiscreteSphericalMeasure(
        np.vstack([np.eye(3), -np.eye(3)]),
        np.array([5.0, 1.0, 0.7, 5.0, 1.0, 0.7]))
    path = _write(tmp_path, "aniso.json", mu.to_dict())
    trace = str(tmp_path / "trace.csv")
    res = runner.invoke(main, ["solve", path, "--q", "1", "--trace", trace])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["stop_reason"] == "converged"
    assert summary["iterations"] >= 1
    # the start and one trial per iteration at least
    assert summary["evaluations"] >= summary["iterations"] + 1
    assert 1 <= summary["hull_builds"] <= summary["evaluations"]
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == summary["iterations"] + 1
    assert [int(r[0]) for r in rows[1:]] == list(range(summary["iterations"]))
    assert {r[4] for r in rows[1:]} <= {"newton", "fallback"}
    assert all(float(r[3]) > 0 for r in rows[1:])
    phis = [float(r[1]) for r in rows[1:]]
    assert phis == sorted(phis)


def test_solve_infeasible_exit_3(runner, tmp_path):
    mu = DiscreteSphericalMeasure(
        np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]), np.ones(4))
    path = _write(tmp_path, "eq.json", mu.to_dict())
    res = runner.invoke(main, ["solve", path, "--q", "2"])
    assert res.exit_code == 3


def test_solve_non_convergence_exit_4(runner, tmp_path):
    # lopsided weights put the optimum far from the h = 1 start
    mu = DiscreteSphericalMeasure(
        np.vstack([np.eye(3), -np.eye(3)]),
        np.array([5.0, 1.0, 0.7, 5.0, 1.0, 0.7]))
    path = _write(tmp_path, "aniso.json", mu.to_dict())
    res = runner.invoke(main, ["solve", path, "--q", "1", "--max-iter", "2"])
    assert res.exit_code == 4
    assert json.loads(res.output)["converged"] is False


def test_solve_validates_q(runner, tmp_path):
    res = runner.invoke(main, ["solve", _cube_measure(tmp_path), "--q", "5"])
    assert res.exit_code == 2


def test_check_smi(runner, tmp_path):
    res = runner.invoke(main, ["check-smi", _cube_measure(tmp_path), "--q", "2"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["feasible"] is True
    assert data["worst_ratio"] < data["bound"]
    mu = DiscreteSphericalMeasure(
        np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]), np.ones(4))
    path = _write(tmp_path, "eq.json", mu.to_dict())
    res = runner.invoke(main, ["check-smi", path, "--q", "2"])
    assert res.exit_code == 3
    data = json.loads(res.output)
    assert data["feasible"] is False
    assert data["worst_subspace_dim"] == 1


def test_one_antipodal_pair_in_r3_is_infeasible(runner, tmp_path):
    mu = DiscreteSphericalMeasure(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.ones(2))
    path = _write(tmp_path, "line.json", mu.to_dict())
    res = runner.invoke(main, ["check-smi", path, "--q", "0.5"])
    assert res.exit_code == 3
    data = json.loads(res.output)
    assert data["feasible"] is False and data["worst_subspace_dim"] == 1
    res = runner.invoke(main, ["solve", path, "--q", "0.5"])
    assert res.exit_code == 3


def test_verify_identities(runner, tmp_path):
    res = runner.invoke(main, ["verify", _cube_body(tmp_path), "--suite", "identities"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["suite"] == "identities"
    assert all(c["pass"] for c in data["checks"]), data["checks"]


def test_verify_variational(runner, tmp_path):
    res = runner.invoke(main, ["verify", _cube_body(tmp_path), "--suite", "variational",
                               "--q", "0", "--q", "1.5"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    names = [c["name"] for c in data["checks"]]
    assert "variation q=0" in names and "variation q=1.5" in names
    assert all(c["pass"] for c in data["checks"])


def test_variational_suite_independent_of_halfspace_order():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(14, 3))
    body = VPolytope(points - points.mean(axis=0)).to_hpolytope()
    turn = rng.permutation(len(body.normals))
    shuffled = HPolytope(body.normals[turn], body.offsets[turn])
    qs = (0.0, 1.0, 2.0, 3.0)
    want, got = (_suite_variational(b, qs, np.random.default_rng(2), 1e-4)
                 for b in (body, shuffled))
    assert [c["name"] for c in got] == [c["name"] for c in want]
    # the values are relative errors of central differences at t = 1e-4,
    # where the bodies' different rounding shows at about 1e-11
    np.testing.assert_allclose([c["value"] for c in got], [c["value"] for c in want],
                               rtol=0.0, atol=1e-9)


def test_verify_valuation(runner, tmp_path):
    res = runner.invoke(main, ["verify", _cube_body(tmp_path), "--suite", "valuation"])
    assert res.exit_code == 0, res.output
    assert all(c["pass"] for c in json.loads(res.output)["checks"])
    # non-box bodies are rejected for this suite
    oct_body = _write(tmp_path, "oct.json", {
        "type": "vpolytope", "dim": 3,
        "vertices": (np.vstack([np.eye(3), -np.eye(3)])).tolist(),
    })
    res = runner.invoke(main, ["verify", oct_body, "--suite", "valuation"])
    assert res.exit_code == 2


def test_verify_steiner_suite(runner, tmp_path):
    res = runner.invoke(main, ["verify", _cube_body(tmp_path), "--suite", "steiner"])
    assert res.exit_code == 0, res.output
    assert all(c["pass"] for c in json.loads(res.output)["checks"])


def test_steiner_command(runner, tmp_path):
    res = runner.invoke(main, ["steiner", _cube_body(tmp_path)])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert len(data["fitted"]) == 4
    assert data["max_rel_err"] <= 1e-4
    # the verify suite checks the same fit
    suite = runner.invoke(main, ["verify", _cube_body(tmp_path), "--suite", "steiner"])
    assert data["max_rel_err"] == max(c["value"] for c in json.loads(suite.output)["checks"])
    res = runner.invoke(main, ["steiner", _cube_body(tmp_path),
                               "--t-samples", "0.2,0.4,0.6,0.8,1.0"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["steiner", _cube_body(tmp_path), "--t-samples", "a,b"])
    assert res.exit_code == 2


def test_output_uses_12_significant_digits(runner, tmp_path):
    res = runner.invoke(main, ["compute", _cube_body(tmp_path), "--q", "0.5"])
    data = json.loads(res.output)
    for atom in data["atoms"]:
        w = atom["weight"]
        assert w == float(f"{w:.12g}")


# the checkout's src directory, for fresh interpreters
SRC = str(Path(dualcurve.__file__).resolve().parents[1])


def test_console_script_installed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "dualcurve.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for cmd in ("compute", "solve", "check-smi", "verify", "steiner"):
        assert cmd in proc.stdout


def _loaded_by_import(module):
    """Whether a fresh interpreter has `module` loaded after `import dualcurve`."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import dualcurve; "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip()
    assert out in ("True", "False"), out
    return out == "True"


def test_import_does_not_load_scipy_stats():
    # scipy.stats took about a third of the package's import time
    assert not _loaded_by_import("scipy.stats")


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate took about a quarter of the package's import time
    assert not _loaded_by_import("scipy.integrate")


_SQUARE = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
MALFORMED_BODIES = {
    "nan normal": {"type": "hpolytope", "dim": 2, "normals": [[math.nan, 0.0]] + _SQUARE[1:],
                   "offsets": [1.0] * 4},
    "no offsets": {"type": "hpolytope", "dim": 2, "normals": _SQUARE},
}
MALFORMED_MEASURES = {
    "nan direction": {"dim": 2, "atoms": [{"dir": d, "weight": 1.0}
                                          for d in [[math.nan, 0.0]] + _SQUARE[1:]]},
    "ragged directions": {"dim": 2, "atoms": [{"dir": [1.0, 0.0], "weight": 1.0},
                                              {"dir": [0.0, 1.0, 0.0], "weight": 1.0}]},
    **{f"{bad} weight": {"dim": 2, "atoms": [{"dir": d, "weight": w}
                                             for d, w in zip(_SQUARE, [bad, 1.0, bad, 1.0])]}
       for bad in (math.nan, math.inf)},
}


@pytest.mark.parametrize("command, payload", [
    *(pytest.param("compute", b, id=f"compute-{k}") for k, b in MALFORMED_BODIES.items()),
    *(pytest.param(c, m, id=f"{c}-{k}") for c in ("check-smi", "solve")
      for k, m in MALFORMED_MEASURES.items()),
])
def test_malformed_files_exit_2(runner, tmp_path, command, payload):
    res = runner.invoke(main, [command, _write(tmp_path, "bad.json", payload), "--q", "1"])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ")
    if not all(math.isfinite(a["weight"]) for a in payload.get("atoms", [])):
        assert "weights must be finite" in res.stderr


def test_valuation_suite_evaluates_each_measure_once(monkeypatch):
    # four atom evaluations per index (K, L, their intersection and their
    # hull); the scale reads K's memoized atoms
    from dualcurve import cli, measures

    calls = []
    evaluate = measures._atoms_of
    monkeypatch.setattr(measures, "_atoms_of",
                        lambda body, q: calls.append(q) or evaluate(body, q))
    qs = (0.5, 1.0, 2.0, 3.0)
    checks = cli._suite_valuation(cube(), qs, np.random.default_rng(5))
    assert len(calls) == 16
    monkeypatch.undo()
    rng = np.random.default_rng(5)
    for q, check in zip(qs, checks):
        lo, hi = -np.ones(3), np.ones(3)
        lo[2] = -(1.0 + float(rng.uniform(0.3, 1.5)))
        hi[2] = float(rng.uniform(0.4, 0.9))
        other = cli._box(lo, hi)
        disc = measures.valuation_check(cube(), other, q)
        assert check["value"] == disc / dual_curvature(cube(), q).weights.max()


@pytest.mark.parametrize("dim", [2, 3])
def test_verify_suites_build_one_rule_per_body(monkeypatch, dim):
    # the identities and variational suites after the measures of each
    # index: one sphere-side rule on the body and one on each body of the
    # q=0 variation's stencil, one companion (for the body's error
    # estimates), and the body's atoms once per index
    from dualcurve import cli, measures, quadrature

    rng = np.random.default_rng(dim)
    points = rng.normal(size=(14, dim))
    body = VPolytope(points - points.mean(axis=0)).to_hpolytope()
    rules, built = count_sphere_rules(monkeypatch)
    atoms = []
    evaluate = measures._atoms_of
    monkeypatch.setattr(measures, "_atoms_of",
                        lambda P, q: P is body and atoms.append(q) or evaluate(P, q))
    n = float(dim)
    for q in (0.5, 1.0, 2.0, n):
        dualcurve.dual_curvature(body, q)
        dualcurve.dual_quermassintegral(body, q)
    dualcurve.dual_curvature_q0(body)
    checks = cli._suite_identities(body, (0.0, 0.5, 1.0, 2.0, n), rng)
    checks += cli._suite_variational(body, (0.0, 1.0, 2.0, n), rng, 1e-4)
    assert len(checks) == 17
    assert len(rules) == 3
    assert sorted(built) == [quadrature.FAN_COARSE_NODES] + [quadrature.FAN_NODES] * 3
    assert sorted(atoms) == sorted({0.5, 1.0, 2.0, n})
