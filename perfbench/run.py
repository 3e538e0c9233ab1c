"""Benchmark of the dualcurve library: one closed-loop caller, one thread.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads: solve, solve-wide, verify (see workloads.py and BENCHMARK.json).
With ``--trace 0`` the run makes whole passes over the workload's inputs,
one op at a time, as many as fit in ``--seconds`` of op time and at least
one, and reports the end-to-end metrics over every op.  With ``--trace 1``
it runs a fixed prefix of the same inputs twice, plain and with spans
around every call into a layer (see spans.py), then the COVERAGE inputs of
workloads.py traced, and reports every per-layer metric: from the
workload's own ops where they reach the layer, else from the coverage ops
(the run line names those).  The spans are written to ``.perfbench/``
when the run ends.

Earlier stdout lines give the environment, the run's shape and every
failing op; the last line is the JSON result.  An op fails when it raises
or misses its gate.  ``correct`` is false when an op raised or broke an
invariant of the algorithm (Phi decreasing); accuracy misses and solves
that run out of iterations count in ``failed`` and leave ``correct`` alone.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import benchenv

benchenv.prepare()  # before NumPy loads

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dualcurve  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# cold set-ups per timed run, spread over its first pass
SETUP_REPS = 5
IMPORT_REPS = 5
TRACE_DIR = os.path.join(benchenv.ROOT, ".perfbench")
NULL = spans.NullTracer()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=int, default=None,
                        help="use only the first N inputs (for smoke runs)")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    _print_line({"env": _environment()})
    inputs = wl.build_inputs(args.seed)[:args.inputs]
    _run_op(wl, inputs[0])  # warm-up: lazy imports and tables
    result = (_traced if args.trace else _timed)(wl, args, inputs)
    _print_line(result)


def _timed(wl, args, inputs):
    # another pass starts only if it should end inside --seconds, so every
    # run times the same ops; set-ups run between ops, off the op clock
    setup_at = [k * len(inputs) // SETUP_REPS for k in range(SETUP_REPS)]
    setup, durations, failures = [], [], []
    passes = 0
    while passes == 0 or sum(durations) * (passes + 1) / passes <= args.seconds:
        for k, inp in enumerate(inputs):
            if passes == 0:
                setup += [_cold_setup(args.workload, args.seed) for _ in range(setup_at.count(k))]
            seconds, miss = _run_op(wl, inp)
            durations.append(seconds)
            if miss is not None:
                failures.append((inp, miss))
        passes += 1
    _report_failures(failures)
    ms = np.array(durations) * 1e3
    p90 = float(np.percentile(ms, 90))
    _print_line({"run": {"workload": args.workload, "seed": args.seed, "passes": passes,
                         "ops": len(ms), "distinct_inputs": len(inputs),
                         "ops_beyond_p90": int((ms > p90).sum()),
                         "slowest_ms": float(ms.max()), "setup_s_samples": setup}})
    return _result(len(ms), failures, {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ms) / (ms.sum() / 1e3), "1/s"),
        "op_ms_p50": (float(np.median(ms)), "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_frac": (1.0 - len(failures) / len(ms), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })


def _traced(wl, args, inputs):
    import_s = [_cold_import() for _ in range(IMPORT_REPS)]
    count = max(1, round(wl.trace_ops_per_10s * args.seconds / 10.0))
    tr = spans.Tracer()
    counts = workloads.Counts()
    failures = []
    plain_s = 0.0
    for k in range(count):
        inp = inputs[k % len(inputs)]
        # each op also runs untraced, before or after its traced run in turn,
        # so both sides see the same warmth and trace.overhead_frac compares
        # like with like
        if k % 2 == 0:
            plain_s += _run_op(wl, inp)[0]
        tr.op = inp.index
        try:
            out = _trace_op(tr, counts, wl, inp)
            wl.gate(inp, out)
        except Exception as exc:  # counted and named; the run goes on
            failures.append((inp, exc))
        if k % 2 == 1:
            plain_s += _run_op(wl, inp)[0]
    overhead = sum(tr.durations("op")) / plain_s - 1.0

    # the coverage ops are timed, not gated or counted in attempted
    cover_tr = spans.Tracer()
    cover_counts = workloads.Counts()
    for name, index in workloads.COVERAGE:
        cover_wl = workloads.WORKLOADS[name]
        inp = cover_wl.input(args.seed, index)
        cover_wl.op(NULL, inp)  # warm-up
        cover_tr.op = f"{name}#{index}"
        _trace_op(cover_tr, cover_counts, cover_wl, inp)

    os.makedirs(TRACE_DIR, exist_ok=True)
    for tracer, part in ((tr, "ops"), (cover_tr, "coverage")):
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}-{part}.json"))
    _report_failures(failures)

    own = _layer_metrics(tr, counts)
    covered = _layer_metrics(cover_tr, cover_counts)
    metrics = {**covered, **own}
    missing = [m for m in workloads.PER_LAYER_METRICS if m not in metrics]
    if missing:
        raise RuntimeError(f"no traced op reached the layers of {', '.join(missing)}")
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    _print_line({"run": {"workload": args.workload, "seed": args.seed, "traced_ops": count,
                         "import_s_samples": import_s,
                         "from_coverage": sorted(covered.keys() - own.keys())}})
    return _result(count, failures, metrics)


def _trace_op(tr, counts, wl, inp):
    """Run one op and its probe with every layer call a span of ``tr``."""
    with spans.instrument(tr, workloads.LAYER_FUNCTIONS):
        with tr.span("op"):
            out = wl.op(tr, inp)
        with tr.span("probe"):
            wl.probe(tr, inp, out, counts)
    return out


def _layer_metrics(tr, counts):
    """The per-layer metrics that the spans of ``tr`` and ``counts`` give."""
    self_times = tr.self_times()
    metrics = {metric: (1e3 * statistics.fmean(self_times[span]), "ms")
               for metric, span in workloads.LAYER_SPANS.items() if self_times.get(span)}
    if counts.iterations:
        solve_s = sum(tr.durations("solver.solve_dual_minkowski"))
        metrics["solver.iter_ms"] = (1e3 * solve_s / counts.iterations, "ms")
        metrics["solver.iterations"] = (counts.iterations, "count")
    if counts.halfspaces:
        metrics["body_core.subsets"] = (counts.subsets, "count")
        metrics["body_core.active_ratio"] = (counts.active / counts.halfspaces, "ratio")
    return metrics


def _run_op(wl, inp):
    """Time one op; run its gate after the clock stops.  Returns (seconds, miss)."""
    start = time.perf_counter()
    try:
        out = wl.op(NULL, inp)
    except Exception as exc:  # counted and named; the run goes on
        return time.perf_counter() - start, exc
    seconds = time.perf_counter() - start
    try:
        wl.gate(inp, out)
    except Exception as exc:  # counted and named; the run goes on
        return seconds, exc
    return seconds, None


def _result(attempted, failures, metrics):
    hard = [exc for _, exc in failures
            if not isinstance(exc, workloads.GateMiss) or exc.hard]
    return {
        "correct": not hard,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report_failures(failures):
    for inp, exc in failures:
        _print_line({"failed_op": inp.label, "why": f"{type(exc).__name__}: {exc}"})


def _cold_setup(workload, seed):
    """Seconds a fresh interpreter spends importing the library and building
    the inputs, as setup_once.py measures them."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_once.py")
    out = subprocess.run([sys.executable, script, workload, str(seed)], cwd=benchenv.ROOT,
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def _cold_import():
    """Seconds a fresh interpreter spends in ``import dualcurve``."""
    code = ("import time; t = time.perf_counter(); import dualcurve; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=benchenv.ROOT, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def _environment():
    return {
        "backend": dualcurve.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": benchenv.PINNED_ENV,
    }


def _print_line(obj):
    print(json.dumps(obj), flush=True)


if __name__ == "__main__":
    main()
