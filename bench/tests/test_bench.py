"""Self-tests for the benchmark's tracer, generators and strict JSON check.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from shiftop import cli, invertibility, operators, process, wiener  # noqa: E402
from worker import run_cli  # noqa: E402

F = wiener.WienerElement((1.0, -0.5))


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _children(spans, index):
    return [s.name for s in spans if s.parent == index]


def _index(spans, name):
    return next(i for i, s in enumerate(spans) if s.name == name)


def test_name_imports_are_rebound(tracer):
    # process imports classify_roots and invert_causal by name
    with tracer.span("root"):
        process.reconstruct_innovations(process.simulate(F, 1.0, 500, 0), 5)
    spans = tracer.take()
    recon = _index(spans, "process.reconstruct_innovations")
    assert _children(spans, recon) == [
        "invertibility.classify_roots",
        "invertibility.invert_causal",
    ]
    causal = _index(spans, "invertibility.invert_causal")
    assert _children(spans, causal) == ["invertibility.classify_roots"]


def test_cli_commands_are_traced(tracer, tmp_path):
    code, _ = run_cli(cli, ["invert", "--coeffs", "1,-0.5", "--out", str(tmp_path)])
    assert code == 0
    spans = tracer.take()
    cmd = _index(spans, "cli.cmd_invert")
    assert "invertibility.invert_causal" in _children(spans, cmd)


def test_uninstall_restores_every_site():
    sites = [sys.modules[n] for n in sorted(sys.modules) if n == "shiftop" or n.startswith("shiftop.")]
    before = [dict(vars(m)) for m in sites]
    t = tracing.Tracer()
    t.install()
    assert process.invert_causal is not before[sites.index(process)]["invert_causal"]
    t.uninstall()
    for module, saved in zip(sites, before):
        for name, value in saved.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"


def test_self_and_child_times_add_up_to_each_root(tracer):
    with tracer.span("root"):
        invertibility.asymmetry_report(F, (8, 16))
        operators.isometry_sweep(F, (8, 16), 64)
    spans = tracer.take()
    own = tracing.self_times(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
        assert own[i] >= 0
    # the only root covers everything: its duration is the sum of all self times
    assert spans[0].parent == -1
    assert sum(own) == pytest.approx(spans[0].duration, abs=1e-9)


def test_layer_counters(tracer):
    operators.isometry_sweep(F, (4, 8), 64)
    with pytest.raises(invertibility.TailNotCertifiedError):
        invertibility.invert_causal(wiener.WienerElement((1.0, -0.9999)), max_len=16)
    metrics = tracing.layer_metrics(tracer.take())
    assert metrics["operators.operator_norm.calls"] == 2
    assert metrics["operators.operator_norm.n3"] == 4**3 + 8**3
    assert metrics["wiener.evaluate_on_grid.points"] == 64
    assert metrics["invertibility.invert_causal.uncertified"] == 1


def test_benchmark_json_names_traced_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    derived = {"cli.bytes_written", "trace.overhead_frac"}
    for metric in spec["per_layer"]:
        if metric["name"] in derived:
            continue
        layer, fn, stat = metric["name"].split(".")
        module = sys.modules[f"shiftop.{layer}"]
        assert fn in dict(tracing.public_functions(module)), metric["name"]
        assert stat in ("calls", "self_s") or f"{layer}.{fn}" in tracing.COUNTERS, metric["name"]


def _planted(op):
    keep = ("exit", "inside", "on_circle", "outside", "verdict", "side", "table", "dims")
    return op.name, op.kind, {k: op.expect[k] for k in keep if k in op.expect}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_planted_outcomes(workload, tmp_path):
    runs = [workloads.build(workload, seed, tmp_path / str(seed)) for seed in (1, 2, 3)]
    again = workloads.build(workload, 1, tmp_path / "again")
    assert [op.coeffs for op in again] == [op.coeffs for op in runs[0]]
    assert [op.coeffs for op in runs[1]] != [op.coeffs for op in runs[0]]
    for ops in runs[1:]:
        assert [_planted(op) for op in ops] == [_planted(op) for op in runs[0]]


def test_planted_root_counts_match_classification(tmp_path):
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 7, tmp_path / workload):
            if op.kind == "wold":
                continue
            got = invertibility.classify_roots(wiener.WienerElement(op.coeffs))
            assert (got.inside, got.on_circle, got.outside, got.verdict.value) == (
                op.expect["inside"], op.expect["on_circle"], op.expect["outside"], op.expect["verdict"]
            ), f"{workload}/{op.name}"


def test_strict_json_rejects_nonfinite_constants(tmp_path):
    for text in ('{"x": Infinity}', '{"x": -Infinity}', '[NaN]'):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(checks.StrictJSONError):
            checks.load_strict_json(path)
    path.write_text('{"x": 1e308, "y": null}')
    assert checks.load_strict_json(path) == {"x": 1e308, "y": None}


def test_known_defects_match_only_their_named_failure():
    strict = "report.json is not strict JSON: non-RFC 8259 constant Infinity"
    svd = "exit 2, planted 0 (error: SVD did not converge)"
    known = workloads.is_known_defect
    assert known("analyze_dense/on_circle", [strict])
    assert known("analyze_dense/inside_third", [svd])
    assert not known("analyze_dense/on_circle", [strict, "asymmetry N=8: circulant singular by FFT but not flagged"])
    assert not known("analyze_dense/on_circle", ["output differs from the rerun in the last pass"])
    assert not known("analyze_dense/inside_third", ["exit 2, planted 0 (error: dims must be strictly increasing)"])
    assert not known("analyze_dense/inside_third", ["exit 1, planted 0 (error: SVD did not converge)"])
    assert not known("analyze_dense/inside_half", [svd])
    assert not known("analyze_dense/inside_third", [])


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A small straddling symbol analyzed by the CLI, with its planted op."""
    work = tmp_path_factory.mktemp("analyze")
    roots = [0.7j, -1.4 + 0.3j]
    coeffs = workloads.poly_from_roots(roots)
    path = work / "f.json"
    path.write_text(json.dumps(workloads.coeffs_document(coeffs)))
    dims = [8, 32, 64]
    expect = {"exit": 0, **workloads.root_counts(roots), "dims": dims}
    op = workloads.Op("straddle", "analyze", coeffs, expect)
    code, text = run_cli(cli, ["analyze", "--coeffs-file", str(path), "--dims", "8,32,64",
                               "--out", str(work / "out")])
    assert code == 0, text
    return op, work / "out"


@pytest.mark.parametrize("tamper", [
    ("isometry", "norm", 0, 1 + 1e-6),  # recomputed by SVD at N=8
    ("isometry", "norm", 2, 0.5),  # N=64 is not recomputed: falls below N=32
    ("asymmetry", "norm_triangular_inverse", 1, 1 + 1e-6),
    ("asymmetry", "norm_triangular_inverse", 2, 1e-3),
    ("asymmetry", "cond_triangular", 2, 1.01),
    ("asymmetry", "cond_circulant", 0, 1.01),
    ("asymmetry", "norm_circulant_inverse", 1, 1.01),
])
def test_analyze_check_catches_tampered_norms(analyzed, tamper, tmp_path):
    op, out = analyzed
    assert checks.check_analyze(op, out) == []
    for file in out.iterdir():
        (tmp_path / file.name).write_bytes(file.read_bytes())
    report = json.loads((tmp_path / "report.json").read_text())
    section, key, index, factor = tamper
    report[section][index][key] *= factor
    (tmp_path / "report.json").write_text(json.dumps(report))
    problems = checks.check_analyze(op, tmp_path)
    assert problems and not any("strict" in p for p in problems)


def test_nonstrict_report_is_still_checked(analyzed, tmp_path):
    op, out = analyzed
    for file in out.iterdir():
        (tmp_path / file.name).write_bytes(file.read_bytes())
    report = json.loads((tmp_path / "report.json").read_text())
    report["l1_norm"] = float("inf")
    report["isometry"][0]["norm"] *= 2
    (tmp_path / "report.json").write_text(json.dumps(report))
    problems = checks.check_analyze(op, tmp_path)
    assert problems[0].startswith("report.json is not strict JSON")
    assert len(problems) > 1
    assert not workloads.is_known_defect("analyze_dense/on_circle", problems)
