"""Workload process: set up, run timed passes over the operations, report.

Started by ``run.py``.  It imports shiftop from the checkout's ``src/``, makes
one warm-up call per layer, prints ``ready`` (the parent times process start
to that line as set-up), then repeats passes over the workload's operation
list in one thread, one operation at a time.  Only the operations are
timed; hashing and sizing their outputs happen between them.  Everything is
written to ``results.json`` in the work directory for the parent to check.

With ``--trace 1`` passes alternate untraced and traced, so the traced run
measures its own overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


def import_shiftop():
    """Import the package from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shiftop

    if Path(shiftop.__file__).resolve().parent != (src / "shiftop").resolve():
        raise SystemExit(f"shiftop imported from {shiftop.__file__}, not from {src}")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One subcommand in-process; returns its exit code and captured output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            result = cli.main(argv, standalone_mode=False)
            code = 0 if result is None else int(result)
        except SystemExit as exc:
            code = 0 if exc.code is None else int(exc.code)
    return code, buffer.getvalue()


def warm_up(scratch: Path) -> None:
    """One call per layer, paying lazy imports and BLAS/LAPACK set-up."""
    from shiftop import cli, invertibility, operators, process, wiener

    f = wiener.WienerElement((1.0, -0.5))
    wiener.sup_norm(f, 1 << 12)
    operators.operator_norm(operators.build_unilateral(f, 256))
    invertibility.asymmetry_report(f, (64,))
    invertibility.invert_causal(f)
    process.sample_to_csv(process.simulate(f, 1.0, 1000, 0))
    process.wold_estimate(process.ma_autocovariance(f, 1.0, 1), 1)
    code, text = run_cli(cli, ["invert", "--coeffs", "1,-0.5", "--out", str(scratch)])
    if code != 0:
        raise SystemExit(f"warm-up invert failed with exit {code}: {text}")
    shutil.rmtree(scratch)


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over the sorted file names and contents, and the total size."""
    h = hashlib.sha256()
    size = 0
    for file in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(file.name.encode() + b"\0")
        with file.open("rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


class Runner:
    """Runs the operations of one workload and keeps per-pass records."""

    def __init__(self, ops, out_root: Path):
        from shiftop import cli, process

        self.cli = cli
        self.process = process
        self.ops = ops
        self.out_root = out_root
        self.records = [
            {"name": op.name, "exit": [], "digest": [], "bytes": [],
             "wall": [], "cpu": [], "output": "", "value": None}
            for op in ops
        ]

    def out_dir(self, op) -> Path:
        return self.out_root / op.name

    def _call(self, op):
        if op.kind == "wold":
            est = self.process.wold_estimate(op.params["autocov"], op.params["order"])
            value = {"transfer": [c.real for c in est.transfer.coeffs],
                     "offset": est.transfer.offset, "sigma2": est.sigma2}
            return 0, "", value
        code, text = run_cli(self.cli, [*op.argv, "--out", str(self.out_dir(op))])
        return code, text, None

    def run_pass(self, tracer=None) -> tuple[float, float]:
        wall = cpu = 0.0
        for op, record in zip(self.ops, self.records):
            out = self.out_dir(op)
            shutil.rmtree(out, ignore_errors=True)
            span = tracer.span(f"bench.{op.name}") if tracer else contextlib.nullcontext()
            with span:
                w0, c0 = time.perf_counter(), time.process_time()
                code, text, value = self._call(op)
                dw, dc = time.perf_counter() - w0, time.process_time() - c0
            wall += dw
            cpu += dc
            if op.kind == "wold":
                digest, size = hashlib.sha256(json.dumps(value).encode()).hexdigest(), 0
            elif out.is_dir():
                digest, size = digest_dir(out)
            else:
                digest, size = "", 0
            record["exit"].append(code)
            record["digest"].append(digest)
            record["bytes"].append(size)
            record["wall"].append(dw)
            record["cpu"].append(dc)
            record["output"] = text
            record["value"] = value
        return wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--probe", action="store_true", help="set up, report ready, exit")
    args = parser.parse_args(argv)

    import_shiftop()
    args.work.mkdir(parents=True, exist_ok=True)
    warm_up(args.work / "warmup")
    print("ready", flush=True)
    if args.probe:
        return 0

    ops = workloads.build(args.workload, args.seed, args.work / "inputs")
    runner = Runner(ops, args.work / "out")
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    traced_spans = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, cpu = runner.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall": wall, "cpu": cpu, "traced": traced})
        if traced:
            traced_spans.append([asdict(s) for s in tracer.take()])
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    results = {
        "passes": passes,
        "ops": runner.records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "traced_spans": traced_spans,
    }
    (args.work / "results.json").write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
