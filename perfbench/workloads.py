"""The workloads: inputs, one op, its correctness gate, and what the
traced run adds to an op.

Each op calls the library's public API; its gate runs after the op's
timer stops.  In the traced run the functions in LAYER_FUNCTIONS are
spans at every call (see spans.instrument), the op wraps its own calls
into body_core in spans, and the solve workloads' probes time one trial
body evaluation, which the solver only does inside its own call.

A traced run reports every layer.  A layer that a workload's own ops never
reach (the solver on verify; body building, measures and the variational
checks on the solve workloads) is timed on the COVERAGE inputs instead.
"""

import numpy as np

import dualcurve as dc
from dualcurve import cli

import inputs

SOLVE_TOL = 1e-6
# a solve still short of tol after this many iterations counts as failed;
# the cap keeps the slowest op (about 45 s with 48 atoms) inside a run
SOLVE_MAX_ITER = 3000
SOLVE_L1_BOUND = 1e-3  # acceptance criterion 8
PHI_SLACK = 1e-12  # rounding allowed in "Phi never decreased"
# the CLI's default indices for `verify --suite identities / variational`
IDENTITY_QS = (0.0, 0.5, 1.0, 2.0)
VARIATION_QS = (0.0, 1.0, 2.0)
VARIATION_STEP = 1e-4


class GateMiss(Exception):
    """An op's output missed a stated bound; ``hard`` marks misses that break
    an invariant of the algorithm (Phi decreasing) rather than accuracy or
    iteration budget."""

    def __init__(self, reason, hard=False):
        super().__init__(reason)
        self.hard = hard


class Counts:
    """Exact counts the traced run adds up across ops."""

    def __init__(self):
        self.iterations = 0
        self.subsets = 0
        self.active = 0
        self.halfspaces = 0

    def add_body(self, body):
        # n-subsets the vertex enumerator solves; 0 once geometry no longer
        # enumerates subsets
        self.subsets += len(getattr(getattr(body, "enumerator", None), "combos", ()))
        self.active += int(body.active.sum())
        self.halfspaces += len(body.normals)


def _qs(dim):
    return (0.5, 1.0, 2.0, float(dim))


# -- solve, solve-wide --------------------------------------------------


class SolveWorkload:
    """One op: solve_dual_minkowski on an even measure at tol 1e-6."""

    def __init__(self, name, input_count, trace_ops_per_10s):
        self.name = name
        self.input_count = input_count
        self.trace_ops_per_10s = trace_ops_per_10s

    def build_inputs(self, seed):
        return [self.input(seed, i) for i in range(self.input_count)]

    def input(self, seed, index):
        inp = inputs.solve_input(self.name, seed, index)
        inp.measure = dc.DiscreteSphericalMeasure(inp.dirs, inp.weights)
        return inp

    def op(self, tr, inp):
        return dc.solve_dual_minkowski(
            inp.measure, dc.SolverConfig(q=inp.q, tol=SOLVE_TOL, max_iter=SOLVE_MAX_ITER))

    def gate(self, inp, report):
        if not report.feasible:
            raise GateMiss("reported infeasible")
        if not report.converged:
            raise GateMiss(f"no convergence after {report.iterations} iterations "
                           f"({report.message})")
        drop = float(np.min(np.diff(report.phi_trace), initial=0.0))
        if drop < -PHI_SLACK:
            raise GateMiss(f"Phi decreased by {-drop:.3e}", hard=True)
        got = dc.dual_curvature(report.body, inp.q)
        mu = inp.measure
        match = np.argmax(mu.dirs @ got.dirs.T, axis=1)
        l1 = float(np.abs(got.weights[match] - mu.weights).sum()) / mu.total
        if not l1 <= SOLVE_L1_BOUND:
            raise GateMiss(f"measure L1 {l1:.3e} > {SOLVE_L1_BOUND:g}")

    def probe(self, tr, inp, report, counts):
        """The solver evaluates trial bodies inside one call: time one such
        evaluation, and the warm vertex and facet work in it, on a fresh
        trial body that shares the solution's enumerator."""
        counts.iterations += report.iterations
        body = report.body
        with tr.span("solver.phi_gradient"):
            dc.phi_gradient(body.with_offsets(body.offsets), inp.measure, inp.q)
        trial = body.with_offsets(body.offsets)
        with tr.span("body_core.vertices_warm"):
            trial.vertices
        with tr.span("body_core.facets"):
            trial.facet_areas


# -- verify --------------------------------------------------------------


class VerifyWorkload:
    """One op: build a body, compute its measures, run the CLI's identities
    and variational suites and hold every check to the suite's bound."""

    def __init__(self, input_count, trace_ops_per_10s):
        self.input_count = input_count
        self.trace_ops_per_10s = trace_ops_per_10s

    def build_inputs(self, seed):
        return [self.input(seed, i) for i in range(self.input_count)]

    def input(self, seed, index):
        return inputs.body_input(seed, index)

    def op(self, tr, inp):
        with tr.span("body_core.build"):
            if inp.points is not None:
                body = dc.VPolytope(inp.points)
            else:
                body = dc.HPolytope(inp.normals, inp.offsets)
        if inp.points is not None:
            with tr.span("body_core.to_hpolytope"):
                body = body.to_hpolytope()
        with tr.span("body_core.vertices_cold"):
            body.vertices
        with tr.span("body_core.facets"):
            body.facet_areas
        for q in _qs(body.dim):
            dc.dual_curvature(body, q)
        dc.dual_curvature_q0(body)
        dc.cone_volume_measure(body)
        dc.surface_area_measure(body)
        for q in _qs(body.dim):
            dc.dual_quermassintegral(body, q)
        # the suites' test directions belong to the fixed set, not the turn
        rng = np.random.default_rng([inputs.SET_SEED, inp.index, 13])
        n = float(body.dim)
        checks = cli._suite_identities(body, IDENTITY_QS + (n,), rng)
        checks += cli._suite_variational(body, VARIATION_QS + (n,), rng, VARIATION_STEP)
        return body, checks

    def gate(self, inp, out):
        _, checks = out
        missed = [c for c in checks if not c["value"] <= c["bound"]]
        if missed:
            raise GateMiss("; ".join(f"{c['name']} {c['value']:.3e} > {c['bound']:g}"
                                     for c in missed))

    def probe(self, tr, inp, out, counts):
        counts.add_body(out[0])


# BENCHMARK.json records why each workload exists.  Input counts are whole
# periods of each workload's input schedule (see inputs.py).
WORKLOADS = {
    "solve": SolveWorkload("solve", input_count=160, trace_ops_per_10s=10),
    "solve-wide": SolveWorkload("solve-wide", input_count=36, trace_ops_per_10s=1.5),
    "verify": VerifyWorkload(input_count=32, trace_ops_per_10s=3.5),
}

# (workload, input index) pairs that together reach every layer: a 3-d
# V-body through the verify op, and a 2-d and a 3-d solve with 6 atoms.
# Every traced run times them after its own ops, and takes from them the
# per-layer metrics its own ops leave unmeasured.
COVERAGE = (("verify", 5), ("solve", 0), ("solve", 1))

# library functions the traced run times at every call
LAYER_FUNCTIONS = (
    "solver.solve_dual_minkowski",
    "solver.check_subspace_mass",
    "measures.dual_curvature",
    "measures.dual_curvature_q0",
    "measures.dual_quermassintegral",
    "gauss_maps.cone_partition",
    "quadrature.spherical_polygon_rule",
    "variational.check_dual_variation",
    "variational.check_q0_variation",
)

# per-layer metric -> the span whose mean self time it reports, in ms
LAYER_SPANS = {
    "solver.eval_ms": "solver.phi_gradient",
    "solver.smi_ms": "solver.check_subspace_mass",
    "body_core.vertices_warm_ms": "body_core.vertices_warm",
    "body_core.facets_ms": "body_core.facets",
    "body_core.build_ms": "body_core.build",
    "body_core.vertices_cold_ms": "body_core.vertices_cold",
    "body_core.to_hpolytope_ms": "body_core.to_hpolytope",
    "measures.dual_curvature_ms": "measures.dual_curvature",
    "measures.q0_ms": "measures.dual_curvature_q0",
    "measures.quermass_ms": "measures.dual_quermassintegral",
    "gauss_maps.cone_partition_ms": "gauss_maps.cone_partition",
    "quadrature.polygon_rule_ms": "quadrature.spherical_polygon_rule",
    "variational.dual_variation_ms": "variational.check_dual_variation",
    "variational.q0_variation_ms": "variational.check_q0_variation",
}

# every per-layer metric a traced run reports, besides cli.import_s and
# trace.overhead_frac
PER_LAYER_METRICS = tuple(LAYER_SPANS) + (
    "solver.iter_ms", "solver.iterations", "body_core.subsets", "body_core.active_ratio")
