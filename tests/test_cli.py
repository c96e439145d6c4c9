import cmath
import decimal
import errno
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shiftop import cli, invertibility, operators, process, wiener
from shiftop.cli import main
from shiftop.invertibility import WideFloat, classify_roots
from shiftop.wiener import WienerElement

from oracles import ANALYZE_ROOT_CLASSES


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# -- analyze -------------------------------------------------------------------


def test_analyze_window_symbol(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "verdict NonInvertible" in result.output
    report = read_json(out / "report.json")
    assert report["roots"]["verdict"] == "NonInvertible"
    assert abs(report["l1_norm"] - 3.0) < 1e-12
    assert abs(report["sup_norm"] - 3.0) < 1e-6
    # all roots inside, so the anticausal inverse is reported
    assert report["inversion"]["available"] is True
    assert report["inversion"]["side"] == "anticausal"
    assert report["inversion"]["offset"] < 0
    assert (out / "isometry.csv").read_text().startswith("N,norm,gap")
    assert (out / "asymmetry.csv").read_text().startswith("N,norm_circulant")


def test_analyze_reports_causal_inverse(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-0.5", "--out", str(out)]
    )
    assert result.exit_code == 0
    block = read_json(out / "report.json")["inversion"]
    assert block["side"] == "causal"
    assert block["offset"] == 0
    got = [complex(re, im) for re, im in block["coeffs"][:5]]
    assert np.allclose(got, [0.5**n for n in range(5)], atol=1e-15)
    assert block["tail_bound"] <= 1e-10


def test_analyze_borderline_has_no_inverse_block(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-1", "--out", str(out)]
    )
    assert result.exit_code == 0
    block = read_json(out / "report.json")["inversion"]
    assert block["available"] is False
    assert "Borderline" in block["reason"]


def test_analyze_takes_two_norms_per_dim(runner, tmp_path, monkeypatch):
    # ||T_N(f)|| serves both the isometry and the asymmetry table, so each N
    # costs one bracket of the top eigenvalue of the banded Gram matrix of
    # T_N(f); its inverse's norm comes from banded solves, with no N x N
    # matrix and no dense SVD
    calls = {"operator_norm": 0, "build_unilateral": 0, "top_eigenvalue": 0}

    def counting(name):
        fn = getattr(operators, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(operators, name, counted)

    for name in ("operator_norm", "build_unilateral"):
        counting(name)
    gram_eigenvalue = operators._gram_eigenvalue

    def top_counted(band, lowest=False, estimate=None):
        calls["top_eigenvalue"] += not lowest
        return gram_eigenvalue(band, lowest, estimate)

    monkeypatch.setattr(operators, "_gram_eigenvalue", top_counted)
    dims = (4, 16, 64)
    for coeffs in ("1,-0.5", "1,-2", "1,-1"):
        calls.update(dict.fromkeys(calls, 0))
        result = runner.invoke(
            main,
            ["analyze", "--coeffs", coeffs, "--dims", ",".join(map(str, dims)),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert calls == {"operator_norm": 0, "build_unilateral": 0, "top_eigenvalue": len(dims)}


def test_analyze_gates_the_banded_inverse_norm_by_its_own_tol(runner, tmp_path, monkeypatch):
    # a root 5e-5 outside the circle is Borderline at --tol 1e-4 and Invertible
    # at 1e-9.  The asymmetry report takes the command's classification, so
    # with power iteration cut to one step the banded inverse norm answers
    # only when the command's own verdict is Invertible
    monkeypatch.setattr(invertibility, "INVERSE_NORM_MAX_STEPS", 1)
    report, seen = invertibility.asymmetry_report, []

    def recording(f, dims, classification, **kwargs):
        rows = report(f, dims, classification, **kwargs)
        seen.append((classification.tol, [row.inverse_route for row in rows]))
        return rows

    monkeypatch.setattr(invertibility, "asymmetry_report", recording)
    near = WienerElement((1, -1 / (1 + 5e-5)))
    f = wiener.multiply(near, WienerElement((1, -0.5, 0.02)))
    coeffs = ",".join(repr(c.real) for c in f.coeffs)
    for tol, verdict, route in (("1e-4", "Borderline", "power"), ("1e-9", "Invertible", "banded")):
        out = tmp_path / tol
        result = runner.invoke(
            main, ["analyze", "--coeffs", coeffs, "--dims", "8,64", "--tol", tol, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert read_json(out / "report.json")["roots"]["verdict"] == verdict
        assert seen.pop() == (float(tol), [route, route])


def strict_json(path):
    def reject(name):
        raise ValueError(f"non-RFC 8259 constant {name}")

    with open(path) as handle:
        return json.loads(handle.read(), parse_constant=reject)


def test_analyze_writes_out_of_range_norms_as_decimal_literals(runner, tmp_path):
    # ||T_1030(1/(1-2z))|| = (4/3) 2**1029 to 1e-15 passes float max; it is
    # written as a JSON number with mantissa and exponent, not inf or null
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-2", "--dims", "64,1030", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    report = strict_json(tmp_path / "report.json")
    rows = {row["N"]: row for row in report["asymmetry"]}
    assert rows[1030]["norm_triangular_inverse"] == float("inf")  # a float reader's view
    assert rows[1030]["cond_triangular"] == float("inf")
    assert rows[64]["norm_triangular_inverse"] < float("inf")
    text = (tmp_path / "report.json").read_text()
    asymmetry = text[text.index('"asymmetry"') :]
    # within float range the value is the float itself, written as its repr
    assert cli._json_text({"x": WideFloat.of(0.1)}) == '{\n  "x": 0.1\n}\n'
    assert cli._json_text({"x": None}) == '{\n  "x": null\n}\n'
    row_text = asymmetry[asymmetry.index('"N": 1030,') :]
    literal = re.search(r'"norm_triangular_inverse": (\d\.\d+e\+\d+),\n', row_text).group(1)
    expected = decimal.Decimal(4) / 3 * decimal.Decimal(2) ** 1029
    assert abs(decimal.Decimal(literal) / expected - 1) < decimal.Decimal("1e-13")
    cond = re.search(r'"cond_triangular": (\d\.\d+e\+\d+),\n', row_text).group(1)
    # the same literals in asymmetry.csv
    last = (tmp_path / "asymmetry.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "1030" and last[2] == literal and last[4] == cond


def test_analyze_report_is_strict_json(runner, tmp_path):
    # a singular circulant (root at z = 1) has null inverse norms beside its
    # flag, and a_0 = 0 leaves T_N(f) singular: null triangular fields
    cases = {"1,-1": "circulant", "0,1": "triangular"}
    for coeffs, side in cases.items():
        out = tmp_path / side
        result = runner.invoke(main, ["analyze", "--coeffs", coeffs, "--out", str(out)])
        assert result.exit_code == 0, result.output
        for row in strict_json(out / "report.json")["asymmetry"]:
            nulls = {k for k, v in row.items() if v is None}
            if side == "circulant":
                assert row["circulant_singular"] is True
                assert nulls == {"norm_circulant_inverse", "cond_circulant"}
            else:
                assert nulls == {"norm_triangular_inverse", "cond_triangular"}
        cells = (out / "asymmetry.csv").read_text().splitlines()[1].split(",")
        assert ("inf" in cells[1:4:2]) == (side == "circulant")
        assert ("inf" in cells[2::2]) == (side == "triangular")
    with pytest.raises(ValueError):
        cli._json_text({"x": float("nan")})


def test_analyze_overflowing_tail_bound_is_null(runner, tmp_path):
    # 1 - (z/r)**50 with r = 1.0003: the geometric tail bound after 65536
    # coefficients overflows, and the report still parses as strict JSON
    coeffs = ["1"] + ["0"] * 49 + [repr(-(1.0003**-50))]
    result = runner.invoke(
        main, ["analyze", "--coeffs", ",".join(coeffs), "--dims", "64", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    block = strict_json(tmp_path / "report.json")["inversion"]
    assert block["available"] is False
    assert block["achieved_bound"] is None


def test_subnormal_coefficients(runner, tmp_path):
    # 1e-310 (1 + 0.1 z): the companion matrix is scaled by a power of two,
    # so the root -10 is found; 1/f starts at 1e310, past float max, so
    # analyze reports no inverse and invert exits 2 naming the overflow
    coeffs = "1e-310,1e-311"
    result = runner.invoke(
        main, ["analyze", "--coeffs", coeffs, "--dims", "4,16", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    report = strict_json(tmp_path / "report.json")
    (root,) = report["roots"]["values"]
    assert abs(complex(*root) + 10) < 1e-12
    assert report["roots"]["verdict"] == "Invertible"
    assert report["inversion"] == {
        "available": False,
        "reason": "inverse coefficients overflow float range (|a_0| = 1e-310)",
    }
    # 1 / min|f| = 1 / 0.9e-310 on the circulant side, a literal past float max
    text = (tmp_path / "report.json").read_text()
    literal = re.search(r'"norm_circulant_inverse": (\d\.\d+e\+\d+),\n', text).group(1)
    assert abs(decimal.Decimal(literal) * decimal.Decimal("0.9e-310") - 1) < decimal.Decimal("1e-12")
    result = runner.invoke(main, ["invert", "--coeffs", coeffs, "--out", str(tmp_path / "inv")])
    assert result.exit_code == 2
    assert "inverse coefficients overflow float range" in result.output


def test_commands_do_not_import_scipy_signal(tmp_path):
    # scipy.signal costs over a second to import; no command may pull it in
    script = textwrap.dedent(
        """
        import sys
        from shiftop.cli import main

        for argv in sys.argv[1:]:
            try:
                main(argv.split(), standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0, (argv, exc.code)
        print(sorted(m for m in sys.modules if m.startswith("scipy.signal")))
        """
    )
    out = tmp_path / "out"
    commands = [
        f"analyze --coeffs 1,-2,0.5 --dims 4,64 --out {out}",
        f"invert --coeffs 1,-0.5 --out {out}",
        f"simulate --coeffs 1,-2 --T 500 --out {out}",
        f"simulate --coeffs 1,-0.5 --T 500 --out {out}",
    ]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *commands],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at N = 1024 the inverse norm's QR block is 1024 x 8, a shape OpenBLAS
    # would split over threads; the outputs are the same bytes either way
    roots = [0.8, cmath.rect(0.75, 0.9), cmath.rect(0.75, -0.9), 1.5, -1.3,
             cmath.rect(2.0, 2.0), cmath.rect(2.0, -2.0)]
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1, -1 / r])
    argv = ["analyze", "--coeffs", ",".join(repr(float(c)) for c in coeffs.real), "--dims", "1024"]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for threads in (None, "1"):
        out = tmp_path / f"threads-{threads}"
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run(
            [sys.executable, "-m", "shiftop.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(
            [(out / name).read_bytes() for name in ("report.json", "isometry.csv", "asymmetry.csv")]
        )
    assert outputs[0] == outputs[1]


def test_analyze_bytes_do_not_depend_on_the_norm_estimate(runner, tmp_path, monkeypatch):
    # each compression norm after the first starts its bisection from a
    # predicted eigenvalue; with the estimate dropped, every output byte stays
    dims = "8,32,128,512,1024"
    gram_eigenvalue, estimates, outputs = operators._gram_eigenvalue, [], {}
    for estimated in (True, False):

        def bracket(band, lowest=False, estimate=None, estimated=estimated):
            estimates.append(estimate)
            return gram_eigenvalue(band, lowest, estimate if estimated else None)

        monkeypatch.setattr(operators, "_gram_eigenvalue", bracket)
        for name, f in ANALYZE_ROOT_CLASSES.items():
            path = tmp_path / f"{name}.json"
            coeffs = [[c.real, c.imag] for c in f.coeffs]
            path.write_text(json.dumps({"offset": 0, "coeffs": coeffs}))
            out = tmp_path / f"{name}-{estimated}"
            result = runner.invoke(
                main, ["analyze", "--coeffs-file", str(path), "--dims", dims, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            outputs[name, estimated] = [
                (out / file).read_bytes() for file in ("report.json", "isometry.csv", "asymmetry.csv")
            ]
    # four estimated norms per symbol and pass: every dim after the first
    assert sum(estimate is not None for estimate in estimates) == 2 * 4 * len(ANALYZE_ROOT_CLASSES)
    for name in ANALYZE_ROOT_CLASSES:
        assert outputs[name, True] == outputs[name, False], name


def test_analyze_rejects_unordered_dims(runner, tmp_path):
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-2", "--dims", "8,4", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "dims must be strictly increasing" in result.output


def test_analyze_honors_dims(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["analyze", "--coeffs", "1,-0.5", "--dims", "4,8", "--out", str(out)],
    )
    assert result.exit_code == 0
    report = read_json(out / "report.json")
    assert [row["N"] for row in report["isometry"]] == [4, 8]
    assert [row["N"] for row in report["asymmetry"]] == [4, 8]


def test_analyze_isometry_matches_sweep(runner, tmp_path):
    # analyze reuses the asymmetry rows' ||T_N(f)||; the public sweep, which
    # computes its own compression norms, is the reference for both outputs
    f = WienerElement((1, -2 + 0.5j, 0.3))
    dims = (4, 16, 64, 256)
    grid = 4096
    path = tmp_path / "f.json"
    path.write_text(json.dumps(wiener.to_json_dict(f)))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["analyze", "--coeffs-file", str(path), "--dims", ",".join(map(str, dims)),
         "--grid", str(grid), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    sweep = operators.isometry_sweep(f, dims, grid)
    report = read_json(out / "report.json")
    assert report["isometry"] == [{"N": r.dim, "norm": r.norm, "gap": r.gap} for r in sweep]
    lines = (out / "isometry.csv").read_text().splitlines()
    assert lines[0] == "N,norm,gap"
    rows = [(int(n), float(norm), float(gap)) for n, norm, gap in (x.split(",") for x in lines[1:])]
    assert rows == [(r.dim, r.norm, r.gap) for r in sweep]


def test_analyze_input_errors(runner, tmp_path):
    result = runner.invoke(main, ["analyze"])
    assert result.exit_code == 2
    assert "exactly one of --coeffs or --coeffs-file" in result.output

    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,x", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "field 1" in result.output

    result = runner.invoke(
        main,
        ["analyze", "--coeffs", "1,-2", "--dims", "4;8", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2

    result = runner.invoke(
        main,
        ["analyze", "--coeffs-file", str(tmp_path / "missing.json")],
    )
    assert result.exit_code == 2

    # an l1 norm past float max has no JSON number
    result = runner.invoke(main, ["analyze", "--coeffs", "1e308,1e308", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "l1 norm overflows" in result.output


@pytest.mark.parametrize("command", ["analyze", "invert", "simulate"])
@pytest.mark.parametrize("field", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_inline_coefficients_are_named(runner, tmp_path, command, field):
    result = runner.invoke(main, [command, "--coeffs", f"1,{field}", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"--coeffs: field 1 ('{field}') is not finite" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analyze", "invert", "simulate"])
@pytest.mark.parametrize("pair", ["[NaN, 0]", "[0, Infinity]", "[1e400, 0]"])
def test_non_finite_file_coefficients_are_named(runner, tmp_path, command, pair):
    path = tmp_path / "symbol.json"
    path.write_text(f'{{"offset": 0, "coeffs": [{pair}, [0.5, 0]]}}')
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--coeffs-file", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "coeffs[0]: " in result.output and "is not a pair of finite numbers" in result.output
    assert not out.exists()


def test_csv_text_writes_each_cell_type():
    # an int, a float, inf, a WideFloat past float max and a None that
    # cmd_analyze maps to inf
    rows = [(3, 0.1, math.inf), (12, WideFloat(0.75, 1030), math.inf)]
    assert cli._csv_text("M,a,b", rows) == (
        "M,a,b\n3,0.10000000000000001,inf\n12,8.6289270473391164e+309,inf\n"
    )
    assert cli._csv_text("M,mse", []) == "M,mse\n"


@pytest.mark.parametrize("command", ["analyze", "invert"])
@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_invalid_eps_is_rejected(runner, tmp_path, command, eps):
    # 0 used to pass on a bound that underflowed to 0; nan and -1 read as a
    # certification failure; inf reached the JSON writer
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--coeffs", "1,-0.5", f"--eps={eps}", "--out", str(out)])
    assert result.exit_code == 2
    assert "'--eps'" in result.output and "positive finite number" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_invalid_sigma_is_rejected(runner, tmp_path, sigma):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["simulate", "--coeffs", "1,0.5", "--T", "20", "--sigma", sigma, "--out", str(out)]
    )
    assert result.exit_code == 2
    assert f"sigma must be a finite nonnegative number, got {sigma}" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_analyze_coeffs_file_diagnostics(runner, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    result = runner.invoke(main, ["analyze", "--coeffs-file", str(bad_json)])
    assert result.exit_code == 2
    assert "line 1" in result.output

    bad_pair = tmp_path / "pair.json"
    bad_pair.write_text('{"offset": 0, "coeffs": [[1, 0], [1]]}')
    result = runner.invoke(main, ["analyze", "--coeffs-file", str(bad_pair)])
    assert result.exit_code == 2
    assert "coeffs[1]" in result.output

    not_text = tmp_path / "bytes.json"
    not_text.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["analyze", "--coeffs-file", str(not_text)])
    assert result.exit_code == 2
    assert "can't decode byte 0xff" in result.output


def test_analyze_rejects_anticausal_symbol(runner, tmp_path):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(wiener.to_json_dict(WienerElement((1, 1), offset=-1))))
    result = runner.invoke(
        main, ["analyze", "--coeffs-file", str(path), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "causal" in result.output


# -- invert --------------------------------------------------------------------


def test_invert_causal_writes_loadable_inverse(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["invert", "--coeffs", "1,-0.5", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "causal inverse" in result.output
    document = read_json(out / "inverse.json")
    assert document["side"] == "causal"
    assert document["tail_bound"] <= document["eps"] == 1e-10
    assert document["source"] == wiener.to_json_dict(WienerElement((1, -0.5)))
    # the file doubles as a coefficient file for other commands
    inverse = wiener.load_coefficients(out / "inverse.json")
    assert inverse.coeff(3) == 0.125


def test_invert_auto_picks_anticausal(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["invert", "--coeffs", "1,-2", "--out", str(out)]
    )
    assert result.exit_code == 0
    document = read_json(out / "inverse.json")
    assert document["side"] == "anticausal"
    assert document["offset"] == -document["truncation_len"]
    top = document["coeffs"][-1]
    assert abs(complex(*top) + 0.5) < 1e-15


def test_invert_borderline_exit_code(runner, tmp_path):
    result = runner.invoke(
        main, ["invert", "--coeffs", "1,-1", "--out", str(tmp_path)]
    )
    assert result.exit_code == 3
    assert "borderline" in result.output


def test_invert_forced_side_mismatch(runner, tmp_path):
    result = runner.invoke(
        main,
        ["invert", "--coeffs", "1,-2", "--side", "causal", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2

    result = runner.invoke(
        main,
        ["invert", "--coeffs", "2", "--side", "anticausal", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "constant" in result.output


def test_invert_mixed_roots(runner, tmp_path):
    result = runner.invoke(
        main, ["invert", "--coeffs", "1,-2.5,1", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "both sides" in result.output


@pytest.mark.parametrize("side", ("auto", "causal", "anticausal"))
def test_invert_root_within_tol_is_borderline_on_every_side(runner, tmp_path, side):
    # the root lies 1e-5 outside the circle: on it within --tol 1e-4, so no
    # side has a summable inverse, whichever side is asked for
    result = runner.invoke(
        main,
        ["invert", "--coeffs", "1,-0.9999900000999990", "--tol", "1e-4",
         "--side", side, "--out", str(tmp_path)],
    )
    assert result.exit_code == 3, result.output
    assert "borderline" in result.output
    assert not (tmp_path / "inverse.json").exists()


def test_invert_tail_not_certified(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "invert",
            "--coeffs",
            "1,-0.99999999",
            "--eps",
            "1e-12",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 4
    assert "tail not certified" in result.output


def test_inversion_follows_the_command_tol(runner, tmp_path):
    # the root sits 1e-10 outside: Invertible at --tol 1e-12, whose inversion
    # then runs and cannot certify the tail; Borderline at the default tol
    near = ["--coeffs", "1,-0.9999999999"]
    result = runner.invoke(main, ["analyze", *near, "--tol", "1e-12", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = read_json(tmp_path / "report.json")
    assert report["roots"]["verdict"] == "Invertible"
    assert report["inversion"]["reason"] == "tail not certified within 65536 coefficients"

    result = runner.invoke(main, ["invert", *near, "--tol", "1e-12", "--out", str(tmp_path)])
    assert result.exit_code == 4, result.output
    assert "tail not certified" in result.output
    result = runner.invoke(main, ["invert", *near, "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "borderline" in result.output
    assert not (tmp_path / "inverse.json").exists()


def test_invert_forced_side_against_the_roots_below_default_tol(runner, tmp_path):
    # the root sits 1e-10 inside: NonInvertible at --tol 1e-12, so a forced
    # causal side is invalid input, not a borderline symbol
    result = runner.invoke(
        main,
        ["invert", "--coeffs", "1,-1.0000000001", "--tol", "1e-12", "--side", "causal",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert "got NonInvertible" in result.output


# -- simulate --------------------------------------------------------------------


def test_simulate_invertible_outputs(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,0.5", "--T", "400", "--seed", "6", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    metadata = read_json(out / "metadata.json")
    assert metadata["seed"] == 6
    assert metadata["generator"] == "numpy.random.Philox"
    assert metadata["verdict"] == "Invertible"
    assert metadata["files"] == [
        "sample.csv",
        "reconstruction.csv",
        "ergodicity.csv",
        "metadata.json",
    ]
    sample_lines = (out / "sample.csv").read_text().strip().splitlines()
    assert sample_lines[0] == "t,X_t,eps_t"
    assert len(sample_lines) == 401
    recon_lines = (out / "reconstruction.csv").read_text().strip().splitlines()
    assert recon_lines[0] == "M,mse"
    assert len(recon_lines) == 22
    erg_lines = (out / "ergodicity.csv").read_text().strip().splitlines()
    assert erg_lines[0] == "T,abs_mean,predicted_std"


def test_simulate_reconstructs_near_circle_invertible(runner, tmp_path):
    # the root sits at 1.0101: invertible, with AR coefficients decaying too
    # slowly for a 1e-12 tail certificate, which reconstruction does not need
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,-0.99", "--T", "2000", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert read_json(out / "metadata.json")["verdict"] == "Invertible"
    lines = (out / "reconstruction.csv").read_text().strip().splitlines()
    assert lines[0] == "M,mse"
    mses = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(mses) == 21
    assert all(b <= a for a, b in zip(mses, mses[1:]))


@pytest.mark.parametrize("coeffs", ("1,0.5", "1,-2", "1,-1"))
def test_simulate_classifies_roots_once(runner, tmp_path, monkeypatch, coeffs):
    # the table (reconstruction, divergence or none) follows the command's own
    # verdict; no layer below classifies the roots again
    calls = []

    def counted(*args):
        calls.append(args)
        return classify_roots(*args)

    monkeypatch.setattr(invertibility, "classify_roots", counted)
    monkeypatch.setattr(process, "classify_roots", counted)
    result = runner.invoke(
        main, ["simulate", "--coeffs", coeffs, "--T", "300", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_simulate_divergent_outputs(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,-2", "--T", "500", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "divergent reconstruction" in result.output
    assert (out / "divergence.csv").exists()
    assert not (out / "reconstruction.csv").exists()
    metadata = read_json(out / "metadata.json")
    assert metadata["verdict"] == "NonInvertible"
    assert "divergence.csv" in metadata["files"]


def test_simulate_borderline_skips_reconstruction(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,-1", "--T", "200", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "boundary" in result.output
    assert not (out / "reconstruction.csv").exists()
    assert not (out / "divergence.csv").exists()
    assert read_json(out / "metadata.json")["files"] == [
        "sample.csv",
        "ergodicity.csv",
        "metadata.json",
    ]


def test_simulate_path_too_short_for_a_cutoff(runner, tmp_path):
    # an Invertible symbol on a one-step path: no cutoff fits, and the
    # message says so instead of blaming the boundary
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--coeffs", "1,0.5", "--T", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "boundary" not in result.output
    assert "max lag 0 (at most T - 1 = 0) leaves no cutoff" in result.output
    metadata = read_json(out / "metadata.json")
    assert metadata["verdict"] == "Invertible"
    assert metadata["max_lag"] == 0
    assert metadata["files"] == ["sample.csv", "ergodicity.csv", "metadata.json"]


def test_simulate_rejects_negative_max_lag(runner, tmp_path):
    # --T and --seed are range-checked on their options too, so each message
    # names the flag
    out = tmp_path / "out"
    for option, value in (("--max-lag", "-3"), ("--T", "0"), ("--seed", "-1")):
        result = runner.invoke(
            main,
            ["simulate", "--coeffs", "1,0.5", option, value, "--out", str(out)],
        )
        assert result.exit_code == 2, option
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()


def test_simulate_divergence_ends_at_last_finite_mse(runner, tmp_path):
    # the root 0.01 makes b_n = 100**n: the ladder passes float max near
    # M = 76 and stops before it, with no numpy warning on the way
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,-100", "--T", "2000", "--max-lag", "200", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (out / "divergence.csv").read_text().splitlines()[1:]]
    assert [int(m) for m, _ in rows] == list(range(len(rows)))
    assert all(np.isfinite(float(mse)) for _, mse in rows)
    assert 1 < len(rows) < 201
    assert read_json(out / "metadata.json")["max_lag"] == int(rows[-1][0])
    assert f"MSE at M={rows[-1][0]}:" in result.output


def test_simulate_white_noise_short_path(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1", "--T", "10", "--seed", "7", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "sample.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 10
    for line in lines:
        _, x, eps = line.split(",")
        assert x == eps
    assert read_json(out / "metadata.json")["max_lag"] == 9


def test_simulate_normalization_hint(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--coeffs", "2,1", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "a_0" in result.output


def test_simulate_memory_is_below_its_sample_csv(tmp_path):
    # the sample is streamed to disk a row block at a time, and the ergodic
    # check's paths are dropped before the exported one is drawn: the peak is
    # the sample (16 bytes a step) and one block, not the CSV text (47 bytes
    # a step); numpy reports its buffers to tracemalloc
    f = WienerElement((1.0, 0.5))
    tol = invertibility.DEFAULT_ROOT_TOL
    # a short run first pays the lazy imports, which are no part of the peak
    assert cli.cmd_simulate(f, 100, 1, 1.0, 20, tol, tmp_path / "warm-up") == 0
    tracemalloc.start()
    try:
        code = cli.cmd_simulate(f, 400_000, 1, 1.0, 20, tol, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.75 * (tmp_path / "sample.csv").stat().st_size


@pytest.mark.parametrize("failure", ["encoder", "rename"])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, failure):
    # the encoder fails on the second block, after the first went to
    # sample.csv.tmp; or a directory stands in the way of metadata.json when
    # its complete temp file is renamed.  The error propagates, no temp file
    # remains, and the file it would have replaced keeps its bytes
    f = WienerElement((1.0, 0.5))
    t_len = process.CSV_BLOCK_ROWS + 1
    tol = invertibility.DEFAULT_ROOT_TOL
    assert cli.cmd_simulate(f, t_len, 1, 1.0, 3, tol, tmp_path) == 0
    sample_csv = (tmp_path / "sample.csv").read_bytes()
    if failure == "encoder":
        encode, blocks = process._encode_rows, []

        def failing(*args):
            blocks.append(args[0])
            if len(blocks) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return encode(*args)

        monkeypatch.setattr(process, "_encode_rows", failing)
        expected = OSError
    else:
        (tmp_path / "metadata.json").unlink()
        (tmp_path / "metadata.json").mkdir()
        expected = IsADirectoryError
    with pytest.raises(expected):
        cli.cmd_simulate(f, t_len, 2, 1.0, 3, tol, tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
    if failure == "encoder":
        assert (tmp_path / "sample.csv").read_bytes() == sample_csv
    else:
        assert (tmp_path / "metadata.json").is_dir()


@pytest.mark.parametrize(
    "command, failing_call",
    [("analyze", 1), ("analyze", 2), ("invert", 1), ("invert", 2), ("simulate", 1)],
    ids=["analyze-classify", "analyze-inversion", "invert-classify", "invert-inversion", "simulate"],
)
def test_numerical_failure_exits_5(runner, tmp_path, monkeypatch, command, failing_call):
    # numpy's LinAlgError subclasses ValueError; it is no input error.  The
    # failing call is the command's own classification, or the one inside
    # the inversion routine (analyze's would otherwise become a reason in
    # report.json)
    eigenvalues, calls = invertibility._companion_eigenvalues, []

    def failing(coeffs):
        calls.append(coeffs)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigenvalues(coeffs)

    monkeypatch.setattr(invertibility, "_companion_eigenvalues", failing)
    out = tmp_path / "out"
    result = runner.invoke(
        main, [command, "--coeffs", "1,-0.5", "--out", str(out)]
    )
    assert result.exit_code == 5, result.output
    assert "numerical failure: Eigenvalues did not converge" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "invert", "simulate"])
def test_floating_point_error_exits_5(runner, tmp_path, monkeypatch, command):
    # an overflow a scaling raises under np.errstate is no input error either
    def failing(coeffs):
        raise FloatingPointError("overflow encountered in ldexp")

    monkeypatch.setattr(invertibility, "_companion_eigenvalues", failing)
    out = tmp_path / "out"
    result = runner.invoke(
        main, [command, "--coeffs", "1,-0.5", "--out", str(out)]
    )
    assert result.exit_code == 5, result.output
    assert "numerical failure: overflow encountered in ldexp" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["analyze", "--dims", "4"], ["invert"]], ids=["analyze", "invert"]
)
def test_subnormal_root_exits_5_without_warnings(runner, tmp_path, argv):
    # the root of 1e-310 + z has subnormal modulus: 1/|root| overflows, and so
    # does the power-of-two scaling of the reversed polynomial 1 + 1e-310 z
    for coeffs, code in (("1e-310,1", 5), ("1e-300,1", 0)):
        out = tmp_path / coeffs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [*argv, "--coeffs", coeffs, "--out", str(out)])
        assert result.exit_code == code, result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert out.exists() == (code == 0)
        assert ("numerical failure: overflow encountered in" in result.output) == (code == 5)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # pi/G sum |n a_n| overflows although the l1 norm does not
        (["analyze", "--coeffs", "0,0,1e308"], 2,
         "error: coefficients too large: the sup norm's grid error bound overflows"),
        # 1/f(z**4) grows only every 4th index: the inverse norm's Gram product underflowed
        (["analyze", "--coeffs", "1,0,0,0,1e300", "--dims", "16"], 0, "verdict NonInvertible"),
        # the modulus of the root -1e-400 underflows to 0
        (["analyze", "--coeffs", "1e-200,1e200", "--dims", "4"], 5,
         "numerical failure: divide by zero encountered"),
        # every scaling 2**-e_i of the inverse norm underflows
        (["analyze", "--coeffs", "8.664258317309054e-105,-9.922838419073684e-253,"
          "-9.672571769355457e-74,-4.2936626132012483e-259", "--dims", "8"], 5,
         "numerical failure: underflow encountered in the inverse norm's scalings"),
        # a root of the reversed polynomial underflows to 0: no tail bound
        (["invert", "--coeffs", "1e-30,1e200,0,1e220"], 4, "tail not certified: bound inf"),
        # the sample path stays finite, but the sum behind its ergodic mean overflows
        (["simulate", "--coeffs", "1,0,-3e307", "--T", "50"], 2,
         "error: the sample mean over T = 12 lies past float max"),
        # the sample path passes float max, with no reconstruction ladder to notice
        (["simulate", "--coeffs", "1,-8e307,-8e307", "--T", "50", "--max-lag", "0"], 2,
         "error: the sample path lies past float max at t = 1"),
    ],
    ids=["grid-error-overflow", "gram-underflow", "zero-root", "scalings-underflow",
         "reversed-zero-root", "path-overflow", "path-overflow-no-ladder"],
)
def test_extreme_magnitudes_exit_with_a_documented_code(runner, tmp_path, argv, code, message):
    # a documented exit code, with no traceback and no RuntimeWarning
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv, "--out", str(out)])
    assert result.exit_code == code, result.output
    assert message in result.output
    assert out.exists() == (code == 0)



@pytest.mark.parametrize("option", ["--grid", "--dims"])
def test_unallocatable_size_exits_2(runner, tmp_path, option):
    # 2**50 points ask numpy for 8 PiB or more, which no machine grants, so
    # the allocation fails at once without touching memory
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["analyze", "--coeffs", "1,-0.5", option, str(2**50), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not enough memory for this input: ")
    assert not out.exists()

_EXTREME = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from((1.0, -1.0)), st.floats(-320, 308)),
)


@seed(20)
@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_EXTREME, min_size=1, max_size=7))
def test_no_traceback_on_any_finite_input_property(coeffs):
    # every command answers with a documented exit code, never a traceback or
    # a RuntimeWarning (an error under this suite's settings), and writes
    # nothing on a nonzero exit
    commands = [
        ["analyze", "--coeffs", ",".join(map(repr, coeffs)), "--dims", "8,16", "--grid", "64"],
        ["invert", "--coeffs", ",".join(map(repr, coeffs))],
        ["simulate", "--coeffs", ",".join(map(repr, [1.0, *coeffs[1:]])), "--T", "50"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands:
            out = Path(tmp) / argv[0]
            result = CliRunner().invoke(main, [*argv, "--out", str(out)])
            assert isinstance(result.exception, (SystemExit, type(None))), (argv, result.exception)
            assert result.exit_code in (0, 2, 3, 4, 5), (argv, result.output)
            assert out.exists() == (result.exit_code == 0), (argv, result.output)


def test_simulate_rerun_is_byte_identical(runner, tmp_path):
    out = tmp_path / "out"
    args = [
        "simulate", "--coeffs", "1,0.5", "--T", "300", "--seed", "4", "--out", str(out)
    ]
    assert runner.invoke(main, args).exit_code == 0
    first = {
        name: (out / name).read_bytes()
        for name in read_json(out / "metadata.json")["files"]
    }
    assert runner.invoke(main, args).exit_code == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


@settings(max_examples=25, deadline=None)
@given(
    roots=st.lists(st.tuples(st.floats(0.5, 0.995), st.floats(0.0, math.pi)), min_size=1, max_size=3),
    inside=st.booleans(),
)
def test_invert_rerun_is_byte_identical_property(roots, inside):
    # real coefficients from conjugate pairs of roots r e^{+-it}, all inside
    # the circle (anticausal) or all mirrored outside (causal); a cluster
    # near the circle may leave the tail uncertified (exit 4, no file)
    poly = np.array([1.0 + 0j])
    for radius, angle in roots:
        root = cmath.rect(radius if inside else 1 / radius, angle)
        poly = np.convolve(poly, np.convolve([1, -1 / root], [1, -1 / root.conjugate()]))
    coeffs = ",".join(map(repr, poly.real.tolist()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        runs = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            result = CliRunner().invoke(main, ["invert", "--coeffs", coeffs, "--out", str(out)])
            written = out / "inverse.json"
            runs.append((result.exit_code, result.output, written.exists() and written.read_bytes()))
    assert runs[0] == runs[1]
    code, _, text = runs[0]
    assert code in (0, 4)
    if code == 0:
        assert json.loads(text)["side"] == ("anticausal" if inside else "causal")
    else:
        assert text is False


def test_coeffs_file_drives_invert(runner, tmp_path):
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(wiener.to_json_dict(WienerElement((1, -0.5)))))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["invert", "--coeffs-file", str(path), "--out", str(out)]
    )
    assert result.exit_code == 0
    assert read_json(out / "inverse.json")["side"] == "causal"


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "shiftop" in result.output


def test_defaults_live_on_the_options(runner, tmp_path):
    # each command run with no optional flag records the defaults of its
    # click options; --out defaults to shiftop-out in the working directory
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        out = Path(cwd) / "shiftop-out"
        assert runner.invoke(main, ["analyze", "--coeffs", "1,-0.5"]).exit_code == 0
        report = read_json(out / "report.json")
        assert [row["N"] for row in report["isometry"]] == [4, 16, 64, 256]
        assert report["grid_size"] == 65536
        assert report["roots"]["tol"] == 1e-9

        assert runner.invoke(main, ["invert", "--coeffs", "1,-2"]).exit_code == 0
        document = read_json(out / "inverse.json")
        assert document["eps"] == 1e-10
        assert document["side"] == "anticausal"

        result = runner.invoke(main, ["simulate", "--coeffs", "1,0.5"])
        assert result.exit_code == 0, result.output
        metadata = read_json(out / "metadata.json")
        assert metadata["t_len"] == 10_000
        assert metadata["max_lag"] == 20
        assert metadata["seed"] == 0
        assert metadata["sigma"] == 1.0
