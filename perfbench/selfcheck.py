"""Smoke run of the benchmark on reduced inputs.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second on its first few
inputs, plain and traced, and checks that the last stdout line is a result
naming every end-to-end (plain) or per-layer (traced) metric with its unit
and a finite value.  Last, it runs the benchmark from a copy that holds only
BENCHMARK.json and the benchmark, and checks that it fails without printing
a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SMOKE_INPUTS = 4


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload['name']} --trace {trace}"
            lines = _run(spec["command"], workload["name"], trace, ROOT, problems, where)
            if lines:
                _check(lines, spec[kind], problems, where)
    _check_bare(spec, problems)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


def _run(command, workload, trace, cwd, problems, where):
    args = command + ["--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--inputs", str(SMOKE_INPUTS)]
    out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        problems.append(f"{where}: exit code {out.returncode}: {out.stderr.strip()[-500:]}")
        return None
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


def _check(lines, wanted, problems, where):
    result = lines[-1]
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
    covered = set()
    for line in lines[:-1]:
        covered.update(line.get("run", {}).get("from_coverage", ()))
    names = {m["name"] for m in wanted}
    for extra in set(result["metrics"]) - names:
        problems.append(f"{where}: metric {extra} is not in BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} reported as {got}, want unit {m['unit']}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} value {got['value']!r}")
        else:
            note = " (coverage ops)" if m["name"] in covered else ""
            print(f"{where}: {m['name']} = {got['value']:.6g} {got['unit']}{note}")


def _check_bare(spec, problems):
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    name = spec["workloads"][0]["name"]
    args = spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(args, cwd=bare, capture_output=True, text=True, timeout=180)
    if out.returncode == 0 or out.stdout.strip():
        problems.append(f"without the library: exit code {out.returncode}, stdout {out.stdout[-200:]!r}")
    else:
        print(f"without the library: exit code {out.returncode}, no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
