"""End-to-end benchmark of shiftop's analyze, invert and simulate commands.

    python3 bench/run.py --workload analyze_dense --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``) against the package in this checkout's
``src/``, checks every output independently, prints each metric by name with
its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports its per-layer metrics from spans
recorded around each layer's public functions.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8  # extra set-up samples besides the workload process itself
# Allowance per workload beyond --seconds before its processes are stopped:
# the set-up probes, and the one pass that may start just before --seconds
# runs out (a minute, four times the longest pass measured).
SETUP_ALLOWANCE_S = 30.0
PASS_ALLOWANCE_S = 60.0


class BenchError(RuntimeError):
    pass


def _median(values: list[float], unit: str, what: str) -> dict:
    """Median of samples, with the quartiles and sample count as a note."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    note = f"median of {len(values)} {what}, quartiles {q1:.6g} .. {q3:.6g}"
    return {"value": statistics.median(values), "unit": unit, "note": note}


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds from start to its ``ready`` line."""
    env = dict(os.environ)
    env.pop("SHIFTOP_SEED", None)  # the CLI would let it override --seed
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            _finish(proc, deadline)
            raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    except BaseException:
        _stop(proc)
        raise
    return proc, ready


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline and was stopped") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def _probe(worker_args: list[str], deadline: float) -> float:
    """Set-up time of one worker that exits as soon as it is ready."""
    proc, ready = _spawn([*worker_args, "--probe"], deadline)
    _finish(proc, deadline)
    return ready


def provenance(workload: str, seed: int, ops_per_pass: int, passes: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
        "ops_per_pass": ops_per_pass,
        "passes": passes,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--work", str(work)]
    # probes on both sides of the workload process sample set-up across the
    # whole run, not in one burst that a passing load spike can cover
    probes = 0 if trace else SETUP_PROBES
    setup = [_probe(worker_args, deadline) for _ in range(probes // 2)]
    proc, ready = _spawn(worker_args, deadline)
    setup.append(ready)
    _finish(proc, deadline)
    setup += [_probe(worker_args, deadline) for _ in range(probes - probes // 2)]
    results = json.loads((work / "results.json").read_text())

    ops = workloads.build(workload, seed, work / "inputs")
    failures = []
    attempted = failed = 0
    for op, record in zip(ops, results["ops"], strict=True):
        for i, problems in enumerate(checks.check_op(op, record, work / "out" / op.name)):
            attempted += 1
            if problems:
                failed += 1
                failures.append({"op": f"{workload}/{op.name}", "pass": i, "problems": problems})
    shutil.rmtree(work / "out")

    passes = results["passes"]
    summary = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "provenance": provenance(workload, seed, len(ops), len(passes)),
        "op_wall_s": {r["name"]: statistics.median(r["wall"]) for r in results["ops"]},
    }
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in plain]
    if not trace:
        summary["end_to_end"] = {
            "setup_s": _median(setup, "s", "processes"),
            "pass_s": _median(walls, "s", "passes"),
            "pass_cpu_s": _median([p["cpu"] for p in plain], "s", "passes"),
            "peak_rss_mb": {"value": results["maxrss_kb"] / 1024, "unit": "MB",
                            "note": "ru_maxrss of the workload process"},
            "fail_frac": {"value": failed / attempted, "unit": "ratio",
                          "note": f"{failed} failed / {attempted} attempted"},
        }
        return summary

    traced_idx = [i for i, p in enumerate(passes) if p["traced"]]
    per_pass = []
    for i, spans in zip(traced_idx, results["traced_spans"]):
        metrics = tracer.layer_metrics([tracer.Span(**s) for s in spans])
        metrics["cli.bytes_written"] = sum(
            r["bytes"][i] for op, r in zip(ops, results["ops"]) if op.kind != "wold"
        )
        per_pass.append(metrics)
    names = set().union(*per_pass)
    layer = {n: statistics.median(m.get(n, 0) for m in per_pass) for n in names}
    # per-operation pairs: an analyze_dense run has one pass of each kind
    ratios = [
        statistics.median(r["wall"][i] for i in traced_idx)
        / statistics.median(r["wall"][i] for i, p in enumerate(passes) if not p["traced"])
        for r in results["ops"]
    ]
    layer["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    summary["per_layer"] = layer
    summary["traced_passes"] = len(traced_idx)
    return summary


def report(summary: dict, spec: dict, trace: bool) -> dict:
    """Print one workload's block; return its metrics as the JSON line has them."""
    prov = summary["provenance"]
    print(f"== {summary['workload']}  seed {prov['seed']}  passes {prov['passes']}  "
          f"ops/pass {prov['ops_per_pass']}  attempted {summary['attempted']}  failed {summary['failed']}")
    metrics = {}
    if not trace:
        for name, m in summary["end_to_end"].items():
            print(f"  {name:<12} {m['value']:>14.6g} {m['unit']:<6} {m['note']}")
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": summary["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            value = summary["per_layer"].get(m["name"], 0)
            print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  median over {summary['traced_passes']} traced passes")
    for name, wall in summary["op_wall_s"].items():
        print(f"  op {name:<20} {wall:10.4f} s median wall")
    for f in summary["failures"]:
        known = " [known defect]" if workloads.is_known_defect(f["op"], f["problems"]) else ""
        print(f"  FAIL {f['op']} pass {f['pass']}{known}: {'; '.join(f['problems'])}")
    print(f"  provenance {json.dumps(prov)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shiftop end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shiftop" / "__init__.py").is_file():
        print(f"error: no shiftop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + (args.seconds + SETUP_ALLOWANCE_S + PASS_ALLOWANCE_S) * len(names)
    trace = bool(args.trace)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, trace, deadline) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for summary in summaries:
        metrics = report(summary, spec, trace)
        (WORK / summary["workload"] / "summary.json").write_text(json.dumps(summary, indent=1))
        line["correct"] &= all(workloads.is_known_defect(f["op"], f["problems"]) for f in summary["failures"])
        line["attempted"] += summary["attempted"]
        line["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else summary["workload"] + "."
        line["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
