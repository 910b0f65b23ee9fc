#!/usr/bin/env python3
"""Benchmark of the mvgroups CLI on three workloads.

    python3 bench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a fixed list of CLI ops (see workloads.py) run one after
another through ``mvgroups.cli.run`` in one fresh process per pass: a
closed loop with one client and no threads.

``--trace 0`` times set-up in fresh processes, then runs untraced passes
for ``--seconds`` (and at least MIN_PASSES) and reports the medians of
``run_s``, ``setup_s`` and ``peak_rss_mib``.  ``--trace 1`` runs one untraced pass and then traced
passes (tracer.py) for ``--seconds`` and reports per-layer counts and self
times.  Every op's exit code and stdout digest is checked against
oracle.json; mismatches count as failed ops.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_RUNS = 7       # set-ups per run: at least this many, and for at least
SETUP_SECONDS = 5.0  # this long, since a small workload sets up in ~30 ms
MIN_PASSES = 5       # a 7 s axioms pass would otherwise give a median of 3
WORKER_TIMEOUT_S = 150
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Seconds the reference loop (worker.reference_s) takes at the speed that
# reported times are scaled to.  The 2-vCPU host this benchmark was written
# on switches between speeds up to 2x apart, for seconds to tens of seconds
# at a time; scaling each measurement by the reference loops timed around it
# removes most of that drift.  Unscaled wall times are printed and kept too.
REF_NOMINAL_S = 0.04


class BenchError(Exception):
    pass


def prepare(workload, seed) -> Path:
    """Generate the workload's configs and spec; return the spec path."""
    if not (ROOT / "src" / "mvgroups" / "cli.py").is_file():
        raise BenchError(f"no mvgroups package under {ROOT / 'src'}")
    spec = workloads.build(workload, seed, ROOT)
    for op in spec["ops"]:
        if not (ROOT / op["argv"][2]).is_file():
            raise BenchError(f"op {op['label']}: config {op['argv'][2]} not found")
    spec["src"] = str(ROOT / "src")
    spec_path = ROOT / spec["workdir"] / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    return spec_path


def worker(mode, spec_path, *flags) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    # the warm-up writes bytecode, so set-up imports from .pyc as an installed CLI does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(spec_path), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    package = result.get("package")
    if package is not None and Path(package) != ROOT / "src" / "mvgroups":
        raise BenchError(f"worker imported mvgroups from {package}, not from {ROOT / 'src'}")
    return result


def check_ops(result, expected) -> int:
    """Number of ops whose exit code or stdout digest differs from the oracle."""
    failed = 0
    for op in result["ops"]:
        want = expected.get(op["label"])
        if want is None or (op["exit"], op["sha256"]) != (want["exit"], want["sha256"]):
            failed += 1
            print(f"mismatch {op['label']}: exit={op['exit']} sha256={op['sha256'][:16]} "
                  f"expected={want} stderr={op['stderr']!r}", file=sys.stderr)
    return failed


def pass_s(result, scale=True) -> float:
    """Seconds the ops of a pass took; scaled, each op is rescaled by the
    mean of the reference loops timed just before and after it, to the
    machine speed at which the reference loop takes REF_NOMINAL_S."""
    if not scale:
        return sum(result["op_s"])
    refs = result["ref_s"]
    return sum(t * 2 * REF_NOMINAL_S / (a + b)
               for t, a, b in zip(result["op_s"], refs, refs[1:]))


def setup_s(result, scale=True) -> float:
    """Seconds of one set-up; scaled as in pass_s."""
    if not scale:
        return result["setup_s"]
    return result["setup_s"] * 2 * REF_NOMINAL_S / sum(result["ref_s"])


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def repeat(mode, spec_path, seconds, *flags, minimum=1) -> list:
    """Fresh-process workers until `seconds` have gone by, and at least `minimum`."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(worker(mode, spec_path, *flags))
    return results


def timed(spec_path, seconds):
    worker("setup", spec_path)  # warm-up: compiles bytecode, fills the file cache
    setups = repeat("setup", spec_path, SETUP_SECONDS, minimum=SETUP_RUNS)
    runs = repeat("pass", spec_path, seconds, minimum=MIN_PASSES)
    stats = {"run_s": summary([pass_s(r) for r in runs]),
             "setup_s": summary([setup_s(r) for r in setups]),
             "peak_rss_mib": summary([r["peak_rss_mib"] for r in runs]),
             "run_wall_s": summary([pass_s(r, scale=False) for r in runs]),
             "setup_wall_s": summary([setup_s(r, scale=False) for r in setups])}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in END_TO_END.items()}
    return runs, stats, metrics


def traced(spec_path, seconds):
    plain = worker("pass", spec_path)
    runs = repeat("pass", spec_path, seconds, "--trace")
    layers = [r["layers"] for r in runs]
    unstable = [name for name in layers[0]
                if not name.endswith("_s") and len({lay[name] for lay in layers}) != 1]
    if unstable:
        raise BenchError(f"traced counts differ between passes: {unstable}")
    metrics = {}
    for name in layers[0]:
        value = statistics.median(lay[name] for lay in layers)
        unit = "s" if name.endswith("_s") else ("ratio" if "ratio" in name
                                               or name.endswith("per_mul") else "count")
        metrics[name] = {"value": value, "unit": unit}
    traced_run_s = statistics.median(pass_s(r) for r in runs)
    metrics["trace.overhead_s"] = {"value": traced_run_s - pass_s(plain), "unit": "s"}
    stats = {"run_s_untraced": pass_s(plain),
             "run_s_traced": summary([pass_s(r) for r in runs]),
             "missing_boundaries": runs[0]["missing"], "call_graph": runs[0]["call_graph"]}
    # the wrappers must not change any output
    for r in runs:
        for a, b in zip(plain["ops"], r["ops"]):
            if (a["exit"], a["sha256"]) != (b["exit"], b["sha256"]):
                raise BenchError(f"traced output differs from untraced on {a['label']}")
    return [plain, *runs], stats, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec_path = prepare(args.workload, args.seed)
        oracle = json.loads((BENCH / "oracle.json").read_text())[args.workload]
        run = traced if args.trace else timed
        results, stats, metrics = run(spec_path, args.seconds)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(check_ops(r, oracle) for r in results)
    for op in results[0]["ops"]:
        print(f"op {op['label']} exit={op['exit']} sha256={op['sha256']}")
    for name, s in stats.items():
        if isinstance(s, dict) and "median" in s:
            unit = END_TO_END.get(name, "s")
            print(f"{name}: median {s['median']:.6g} {unit} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"error_rate: {failed / attempted:.6g} ({failed}/{attempted} ops)")
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (spec_path.parent / f"result-trace{args.trace}.json").write_text(
        json.dumps({**report, "stats": stats}, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
