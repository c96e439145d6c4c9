import decimal
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from shiftop import cli, operators, wiener
from shiftop.cli import main
from shiftop.invertibility import WideFloat
from shiftop.wiener import WienerElement


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
    # costs one banded norm of T_N(f); its inverse's norm comes from banded
    # solves, with no N x N matrix and no dense SVD
    calls = {"operator_norm": 0, "build_unilateral": 0, "compression_norm": 0}

    def counting(name):
        fn = getattr(operators, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(operators, name, counted)

    for name in calls:
        counting(name)
    dims = (4, 16, 64)
    for coeffs in ("1,-0.5", "1,-2", "1,-1"):
        calls.update(dict.fromkeys(calls, 0))
        result = runner.invoke(
            main,
            ["analyze", "--coeffs", coeffs, "--dims", ",".join(map(str, dims)),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert calls == {"operator_norm": 0, "build_unilateral": 0, "compression_norm": len(dims)}


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
    assert cli._json_text({"x": cli._json_number(WideFloat.of(0.1))}) == '{\n  "x": 0.1\n}\n'
    assert cli._json_text({"x": cli._json_number(None)}) == '{\n  "x": null\n}\n'
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
    assert (out / "isometry.csv").read_text() == operators.isometry_csv(sweep)


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


def test_analyze_rejects_anticausal_symbol(runner, tmp_path):
    path = tmp_path / "anti.json"
    wiener.save_coefficients(WienerElement((1, 1), offset=-1), path)
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
    assert wiener.from_json_dict(document["source"]) == WienerElement((1, -0.5))
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


def test_simulate_seed_env_override(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,0.5", "--T", "50", "--seed", "5", "--out", str(out)],
        env={"SHIFTOP_SEED": "9"},
    )
    assert result.exit_code == 0
    assert read_json(out / "metadata.json")["seed"] == 9

    result = runner.invoke(
        main,
        ["simulate", "--coeffs", "1,0.5", "--T", "50", "--out", str(out)],
        env={"SHIFTOP_SEED": "many"},
    )
    assert result.exit_code == 2
    assert "SHIFTOP_SEED" in result.output


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


def test_coeffs_file_drives_invert(runner, tmp_path):
    path = tmp_path / "symbol.json"
    wiener.save_coefficients(WienerElement((1, -0.5)), path)
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
