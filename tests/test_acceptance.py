"""Binding acceptance checks, one test per criterion.

Each test prints a single summary line with its headline numbers, so
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.  Tolerances
and time budgets live next to the asserts they guard; random inputs use
fixed Philox keys so every run sees the same corpus.
"""

import time

import numpy as np
from click.testing import CliRunner

from shiftop import invertibility, operators, process, wiener
from shiftop.cli import main
from shiftop.wiener import ONE, WienerElement

from oracles import build_toeplitz

WINDOW = WienerElement((1, -2))
MA1 = WienerElement((1, 0.5))


def _random_causal(rng):
    offset = int(rng.integers(0, 3))
    length = int(rng.integers(1, 31))
    coeffs = rng.uniform(-2, 2, length) + 1j * rng.uniform(-2, 2, length)
    return WienerElement(tuple(coeffs), offset)


def _random_invertible(rng):
    q = int(rng.integers(1, 7))
    moduli = rng.uniform(1.1, 5.0, q)
    angles = rng.uniform(0.0, 2.0 * np.pi, q)
    f = ONE
    for r in moduli * np.exp(1j * angles):
        f = wiener.multiply(f, WienerElement((1, -1.0 / r)))
    return f


def test_criterion_1_toeplitz_identity():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=123))
    checked = 0
    for _ in range(200):
        f = _random_causal(rng)
        for n in (1, 2, 7, 64):
            a = operators.build_unilateral(f, n).matrix
            b = build_toeplitz(f, n).matrix
            assert np.array_equal(a, b)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 1: {checked} matrix pairs entrywise identical "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_isometry_convergence():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=0))
    deg8 = WienerElement(
        tuple(rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9))
    )
    symbols = [WINDOW, WienerElement((1, -0.5)), WienerElement((1, 1, 1)), deg8]
    worst_gap = 0.0
    for f in symbols:
        sup = wiener.sup_norm(f, 1 << 16)
        norms = [
            operators.operator_norm(operators.build_unilateral(f, n))
            for n in (4, 16, 64, 256, 1024)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-10 * max(1.0, a)
        rel_gap = (sup - norms[-1]) / sup
        assert rel_gap < 0.02
        worst_gap = max(worst_gap, rel_gap)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        f"[PASS] criterion 2: norms nondecreasing for {len(symbols)} symbols, "
        f"worst relative gap {worst_gap:.2e} < 2% ({elapsed:.1f}s)"
    )


def test_criterion_3_counterexample_asymmetry():
    start = time.time()
    rows = invertibility.asymmetry_report(WINDOW, dims=(8, 16, 32, 64))
    for row in rows:
        assert row.norm_triangular_inverse >= 2.0 ** (row.dim - 1) / row.dim
        assert abs(row.norm_circulant_inverse - 1.0) <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    biggest = rows[-1].norm_triangular_inverse
    print(
        f"[PASS] criterion 3: triangular inverse norm reaches {biggest:.3e} "
        f"at N=64 (>= 2^63/64) while circulant inverse norm stays 1 ({elapsed:.1f}s)"
    )


def test_criterion_4_inversion_residual():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=11))
    worst_ratio = 0.0
    worst_tail = 0.0
    for _ in range(100):
        f = _random_invertible(rng)
        result = invertibility.invert_causal(f, max_len=20000, eps=1e-8)
        assert result.tail_bound <= 1e-8
        residual = wiener.l1_norm(wiener.multiply(f, result.inverse) - ONE)
        assert residual <= result.tail_bound
        worst_ratio = max(worst_ratio, residual / result.tail_bound)
        worst_tail = max(worst_tail, result.tail_bound)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(
        f"[PASS] criterion 4: 100 residuals within certificates "
        f"(worst residual/bound {worst_ratio:.3f}, worst bound {worst_tail:.2e}) "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_anticausal_expansion():
    result = invertibility.invert_anticausal(WINDOW, eps=1e-13)
    assert result.truncation_len >= 40
    worst = max(
        abs(result.inverse.coeff(-k) + 0.5**k) for k in range(1, 41)
    )
    assert worst <= 1e-12
    print(
        f"[PASS] criterion 5: anticausal coefficients match -(1/2)^k for "
        f"k=1..40, worst deviation {worst:.1e}"
    )


def test_criterion_6_filter_convergence():
    start = time.time()
    sample = process.simulate(MA1, 1.0, 100_000, 42)
    filt = WienerElement(
        tuple(0.5 ** abs(n) for n in range(-20, 21)), -20
    )
    rows = process.l1_filter_convergence(sample, filt, range(21))
    for a, b in zip(rows, rows[1:]):
        assert b.max_deviation <= a.max_deviation
        assert b.mse <= a.mse
    assert rows[-1].max_deviation == 0.0
    assert rows[-1].mse == 0.0
    peak = float(np.max(np.abs(sample.path)))
    for row in rows:
        dropped = sum(
            0.5 ** abs(n) for n in range(-20, 21) if abs(n) > row.cutoff
        )
        assert row.max_deviation <= dropped * peak + 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 6: both deviation columns nonincreasing over 21 "
        f"cutoffs, exactly 0 at full support, triangle bound holds ({elapsed:.1f}s)"
    )


def test_criterion_7_reconstruction_vs_divergence():
    start = time.time()
    floor = 0.25**21
    ratios = []
    for seed in range(20):
        sample = process.simulate(MA1, 1.0, 100_000, seed)
        report = process.reconstruct_innovations(sample, 20)
        ratios.append(report.mse_per_cutoff[-1][1] / floor)
    assert all(0.2 < r < 5.0 for r in ratios)

    passing = 0
    for seed in range(20):
        mses = [m for _, m in process.divergence_demo(WINDOW, 12, seed)]
        if all(mses[i + 1] / mses[i] >= 2.0 for i in range(3, 12)):
            passing += 1
    assert passing >= 19
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        f"[PASS] criterion 7: MSE(M=20) within 5x of the analytic floor for "
        f"20/20 seeds (ratios {min(ratios):.3f}..{max(ratios):.3f}); "
        f"divergence ratio >= 2 past M=3 for {passing}/20 seeds ({elapsed:.1f}s)"
    )


def test_criterion_8_wold_recovery():
    start = time.time()
    est = process.wold_estimate(process.ma_autocovariance(MA1, 1.0, 1), 1)
    err_fwd = abs(est.transfer.coeff(1) - 0.5)
    assert err_fwd <= 1e-6
    assert abs(est.sigma2 - 1.0) <= 1e-6

    mirrored = process.wold_estimate(process.ma_autocovariance(WINDOW, 1.0, 1), 1)
    err_mirror = abs(mirrored.transfer.coeff(1) + 0.5)
    assert err_mirror <= 1e-6
    assert abs(mirrored.sigma2 - 4.0) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(
        f"[PASS] criterion 8: recovered (1, 0.5) within {err_fwd:.1e} and the "
        f"invertible representative (1, -0.5) with sigma^2 = 4 within "
        f"{err_mirror:.1e} from the (1, -2) autocovariances ({elapsed:.1f}s)"
    )


def test_criterion_9_determinism(tmp_path):
    runner = CliRunner()
    analyze = [
        "analyze", "--coeffs", "1,-0.5,0.25",
        "--dims", "4,16,64", "--grid", "4096",
    ]
    simulate = [
        "simulate", "--coeffs", "1,0.5", "--T", "2000", "--seed", "3",
    ]
    compared = 0
    for label, args, names in (
        ("analyze", analyze, ("report.json", "isometry.csv", "asymmetry.csv")),
        (
            "simulate",
            simulate,
            ("sample.csv", "reconstruction.csv", "ergodicity.csv", "metadata.json"),
        ),
    ):
        first_dir = tmp_path / f"{label}-a"
        second_dir = tmp_path / f"{label}-b"
        assert runner.invoke(main, args + ["--out", str(first_dir)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(second_dir)]).exit_code == 0
        for name in names:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
            compared += 1
    print(
        f"[PASS] criterion 9: {compared} output files byte-identical across "
        f"reruns of analyze and simulate"
    )
