"""The benchmark's warm-up runs against the package in ``src/``.

``bench/worker.py::warm_up`` makes one call per layer by name, through the
library and through ``cli invert``.  A change under ``src/`` that breaks one of
those calls fails here, in the tier-1 tests, not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_warm_up_runs_against_src(tmp_path, monkeypatch):
    # worker.py imports its siblings tracer and workloads by plain name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    worker.import_shiftop()
    scratch = tmp_path / "warmup"
    worker.warm_up(scratch)
    assert not scratch.exists()
