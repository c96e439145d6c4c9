import cmath
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import toeplitz
from oracles import ar_ladder_oracle, sample_csv_oracle

from shiftop import process, wiener
from shiftop.cli import cmd_simulate, main
from shiftop.invertibility import DEFAULT_ROOT_TOL, NotInvertibleError, Verdict, invert_causal
from shiftop.process import (
    divergence_demo,
    ergodic_mean_check,
    l1_filter_convergence,
    ma_autocovariance,
    reconstruct_innovations,
    simulate,
    wold_estimate,
)
from shiftop.wiener import ONE, WienerElement

MA1 = WienerElement((1, 0.5))
WINDOW = WienerElement((1, -2))


# -- simulation ----------------------------------------------------------------


def test_identity_transfer_reproduces_innovations():
    sample = simulate(ONE, 1.0, 500, 7)
    assert np.array_equal(sample.path, sample.aligned_innovations)
    assert sample.warmup == 1
    assert sample.t_len == 500


def test_replay_is_bit_identical():
    a = simulate(MA1, 0.7, 1000, 42)
    b = simulate(MA1, 0.7, 1000, 42)
    assert np.array_equal(a.path, b.path)
    assert np.array_equal(a.innovations, b.innovations)
    c = simulate(MA1, 0.7, 1000, 43)
    assert not np.array_equal(a.path, c.path)


def test_sample_arrays_are_read_only():
    sample = simulate(MA1, 1.0, 10, 0)
    with pytest.raises(ValueError):
        sample.path[0] = 1.0
    with pytest.raises(ValueError):
        sample.innovations[0] = 1.0


def test_path_matches_lag_sum_recomputation():
    sample = simulate(WienerElement((1, 0.5, -0.25)), 1.3, 200, 11)
    eps = sample.innovations
    w = sample.warmup
    a = [1.0, 0.5, -0.25]
    for t in range(0, 200, 17):
        expected = sum(a[j] * eps[w + t - j] for j in range(3))
        assert abs(sample.path[t] - expected) < 1e-12


def test_simulate_validation():
    with pytest.raises(ValueError, match="a_0"):
        simulate(WienerElement((2, 1)), 1.0, 10, 0)
    with pytest.raises(ValueError, match="causal"):
        simulate(WienerElement((1,), offset=-1), 1.0, 10, 0)
    with pytest.raises(ValueError, match="real"):
        simulate(WienerElement((1, 1j)), 1.0, 10, 0)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            simulate(ONE, sigma, 10, 0)
    with pytest.raises(ValueError):
        simulate(ONE, 1.0, 0, 0)
    with pytest.raises(ValueError):
        simulate(ONE, 1.0, 10, -1)


def test_simulate_rejects_a_path_past_float_max():
    # eps_t - 8e307 (eps_{t-1} + eps_{t-2}) overflows at the first index
    # where two consecutive innovations sum to more than 2.25 in modulus
    f = WienerElement((1, -8e307, -8e307))
    with pytest.raises(ValueError, match=r"^the sample path lies past float max at t = \d+$"):
        simulate(f, 1.0, 50, 0)
    # sigma = 0 draws the zero path, which is finite
    assert not simulate(f, 0.0, 50, 0).path.any()


def test_sample_moments_match_theory():
    sample = simulate(MA1, 1.0, 100_000, 5)
    x = sample.path
    centered = x - x.mean()
    gamma1 = float(np.mean(centered[1:] * centered[:-1]))
    assert abs(gamma1 - 0.5) < 0.012
    assert abs(x.var() - 1.25) < 0.03

    loud = simulate(WINDOW, 1.0, 100_000, 6)
    assert 4.8 < loud.path.var() < 5.2


# -- innovation reconstruction ---------------------------------------------------


def test_reconstruction_coefficients_are_inverse_tail():
    report = reconstruct_innovations(simulate(MA1, 1.0, 2000, 0), 6)
    expected = tuple(-((-0.5) ** n) for n in range(1, 7))
    assert report.ar_coeffs == expected
    assert report.lag_cutoff == 6
    assert len(report.mse_per_cutoff) == 7


def test_reconstruction_mse_ladder_decays_geometrically():
    report = reconstruct_innovations(simulate(MA1, 1.0, 100_000, 7), 12)
    mses = [m for _, m in report.mse_per_cutoff]
    for a, b in zip(mses, mses[1:]):
        assert b <= a
    for i in range(6):
        assert 0.2 < mses[i + 1] / mses[i] < 0.3
    floor = 0.25**13
    assert 0.2 < mses[12] / floor < 5.0


def test_reconstruction_white_noise_is_exact():
    report = reconstruct_innovations(simulate(ONE, 1.0, 500, 3), 4)
    assert report.ar_coeffs == (0.0, 0.0, 0.0, 0.0)
    for _, mse in report.mse_per_cutoff:
        assert mse == 0.0


def test_reconstruction_rejects_non_invertible_transfer():
    sample = simulate(WINDOW, 1.0, 100, 0)
    with pytest.raises(NotInvertibleError):
        reconstruct_innovations(sample, 4)


def test_reconstruction_validation():
    sample = simulate(MA1, 1.0, 50, 0)
    with pytest.raises(ValueError):
        reconstruct_innovations(sample, 0)
    with pytest.raises(ValueError):
        reconstruct_innovations(sample, 50)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1.01, 3.0), st.floats(0.0, math.pi), st.booleans()),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from((1, 3, 20, 57, 200)),
)
def test_formal_ar_coefficients_are_the_certified_inverse_prefix(draws, max_lag):
    # below its certified length the certified inverse is the formal series
    # inverse bit for bit, so reconstruction keeps its bytes there
    roots = []
    for modulus, angle, pair in draws:
        roots += [cmath.rect(modulus, angle), cmath.rect(modulus, -angle)] if pair else [modulus]
    f = transfer_from_roots(roots)
    certified = invert_causal(f, 1 << 16, 1e-12)
    b = process._formal_ar_coefficients(f, max_lag)
    for n in range(1, min(max_lag + 1, certified.truncation_len)):
        assert b[n] == -certified.inverse.coeff(n).real


# -- MSE ladder against the whole-path oracle --------------------------------------

LEAF = process._LADDER_LEAF


def _ladder_lengths(max_lag: int) -> tuple[int, ...]:
    # one scored row, a few rows, one leaf less one row, one leaf, one leaf
    # plus one row, and a long path of many leaves
    return tuple(max_lag + n for n in (1, 9, LEAF - 1, LEAF, LEAF + 1)) + (200_003,)


@pytest.mark.parametrize("max_lag", (1, 3, 57, 200))
def test_reconstruction_ladder_matches_oracle_exactly(max_lag):
    for t_len in _ladder_lengths(max_lag):
        sample = simulate(MA1, 1.0, t_len, 11)
        report = reconstruct_innovations(sample, max_lag)
        b = np.array((0.0, *report.ar_coeffs))
        assert report.mse_per_cutoff == tuple(ar_ladder_oracle(sample, b, max_lag)), t_len


@pytest.mark.parametrize("max_lag", (1, 3, 57, 200))
def test_divergence_ladder_matches_oracle_exactly(max_lag):
    b = process._formal_ar_coefficients(WINDOW, max_lag)
    for t_len in _ladder_lengths(max_lag):
        rows = divergence_demo(WINDOW, max_lag, seed=12, t_len=t_len)
        assert rows == ar_ladder_oracle(simulate(WINDOW, 1.0, t_len, 12), b, max_lag), t_len


def test_long_ladder_matches_oracle_exactly():
    sample = simulate(WienerElement((1, -0.6, 0.3)), 1.0, 10**6, 13)
    report = reconstruct_innovations(sample, 200)
    b = np.array((0.0, *report.ar_coeffs))
    assert report.mse_per_cutoff == tuple(ar_ladder_oracle(sample, b, 200))


@pytest.mark.parametrize(
    "n", (1, 7, 8, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 999_800, 10**6)
)
def test_pairwise_leaves_reproduce_numpy_sum(n):
    # magnitudes over twelve decades, so a different summation order shows
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    leaves = []

    def leaf(lo, size):
        leaves.append((lo, size))
        return x[lo : lo + size].sum()

    assert process._pairwise_sum(leaf, n) == np.sum(x)
    # the leaves tile the rows in order, none longer than a ladder leaf
    assert [lo for lo, _ in leaves] == [0, *np.cumsum([size for _, size in leaves])[:-1]]
    assert sum(size for _, size in leaves) == n
    assert max(size for _, size in leaves) <= LEAF


def _ladder_symbol(kind: str, draws) -> WienerElement:
    """A transfer of one ladder class; ``draws`` are (modulus in [1.05, 4], angle, pair)."""
    if kind == "odd_zero":  # 1 + 0.5 z**2: every odd b_m is exactly 0
        return WienerElement((1, 0, 0.5))
    roots = []
    for i, (modulus, angle, pair) in enumerate(draws):
        if kind == "divergent" and i == 0:  # the first root mirrored inside the circle
            modulus = 1 / modulus
        roots += [cmath.rect(modulus, angle), cmath.rect(modulus, -angle)] if pair else [modulus]
    return transfer_from_roots(roots)


@seed(24)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("invertible", "invertible", "divergent", "odd_zero")),
    st.lists(
        st.tuples(st.floats(1.05, 4.0), st.floats(0.0, math.pi), st.booleans()),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from((0.0, 1e-300, 1.0, 1e150)),
    st.sampled_from((1, 3, 57, 200, 200)),
    st.sampled_from((1, 9, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 5)),
    st.integers(0, 2**32 - 1),
)
# roots 2.5 to 4 out: every leaf skips its steps past about m = 55
@example("invertible", [(2.5, 0.5, True), (4.0, 0.0, False)], 1.0, 200, 2 * LEAF + 5, 1)
@example("invertible", [(2.5, 0.5, True), (4.0, 0.0, False)], 1e-300, 200, 2 * LEAF + 5, 2)
@example("invertible", [(2.5, 0.5, True), (4.0, 0.0, False)], 1e150, 200, LEAF + 1, 3)
def test_ladder_matches_oracle_property(kind, draws, sigma, max_lag, rows, path_seed):
    # the skipped tail of an Invertible ladder, zero b_m, divergent and
    # overflowing ladders and extreme sigma all keep the oracle's bits; a
    # diverging ladder ends just before the oracle's first non-finite MSE
    f = _ladder_symbol(kind, draws)
    sample = simulate(f, sigma, max_lag + rows, path_seed)
    b = process._formal_ar_coefficients(f, max_lag)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = ar_ladder_oracle(sample, b, max_lag)
    got = process._ar_ladder_mse(sample, b, max_lag)
    assert got == oracle[: len(got)]
    assert len(got) == max_lag + 1 or not math.isfinite(oracle[len(got)][1])


def _ladder_steps_run(monkeypatch, f: WienerElement, t_len: int, max_lag: int) -> tuple[int, int]:
    """Filter steps the ladder ran (one ``np.multiply`` each) and steps it had, over every leaf."""
    calls = []
    multiply = np.multiply

    def counting(*args, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    sample = simulate(f, 1.0, t_len, 5)
    b = process._formal_ar_coefficients(f, max_lag)
    monkeypatch.setattr(np, "multiply", counting)
    got = process._ar_ladder_mse(sample, b, max_lag)
    monkeypatch.undo()
    assert got == ar_ladder_oracle(sample, b, max_lag)
    leaves = []
    process._pairwise_sum(lambda lo, size: leaves.append(size) or 0.0, t_len - max_lag)
    return len(calls), len(leaves) * max_lag


def test_ladder_skips_the_tail_of_an_invertible_transfer(monkeypatch):
    # the b_m of 1/((1 - z/2.5)(1 + z/3)) decay geometrically, and each leaf
    # runs about 70 of its 200 steps; a diverging ladder runs every step
    run, steps = _ladder_steps_run(monkeypatch, transfer_from_roots([2.5, -3.0]), 3 * LEAF, 200)
    assert 0 < run < steps / 2
    run, steps = _ladder_steps_run(monkeypatch, WINDOW, 3 * LEAF, 200)
    assert run == steps


# -- the t column of sample.csv --------------------------------------------------


@pytest.mark.parametrize("t0", (0, 5, 10**5 - 7, 10**7 - 7, 10**14 - 7, 10**15 - 7))
def test_encode_rows_writes_t_as_printf(t0):
    # rows across 10, 10**5, 10**7 (where t takes two words) and 10**15 (three)
    rng = np.random.default_rng(t0)
    path, eps = rng.standard_normal((2, 20))
    t_words = -(-(len(str(t0 + 19)) + 1) // 8)
    expected = b"".join(
        b"\n%d,%s,%s" % (t0 + i, format(x, ".17g").encode(), format(e, ".17g").encode())
        for i, (x, e) in enumerate(zip(path, eps))
    )
    assert process._encode_rows(t0, path, eps, t_words) == expected


@pytest.mark.parametrize("t_len", (1, 10, 11, 100_001))
def test_sample_csv_t_column_matches_oracle(t_len):
    sample = simulate(MA1, 1.0, t_len, 23)
    assert process.sample_to_csv(sample).decode("ascii") == sample_csv_oracle(sample)


# -- divergence of the formal inverse ---------------------------------------------


def test_formal_ar_coefficients_window():
    b = process._formal_ar_coefficients(WINDOW, 5)
    assert list(b) == [0.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    with pytest.raises(ValueError):
        process._formal_ar_coefficients(WienerElement((1,), 1), 3)


def test_divergence_ratio_tracks_inside_root():
    rows = divergence_demo(WINDOW, 12, seed=9)
    mses = [m for _, m in rows]
    assert rows[0][0] == 0
    for i in range(3, 11):
        ratio = mses[i + 1] / mses[i]
        assert ratio >= 2.0
        assert abs(ratio - 4.0) < 0.4

    rows = divergence_demo(WienerElement((1, -1.25)), 16, seed=8)
    mses = [m for _, m in rows]
    for i in range(10, 15):
        assert abs(mses[i + 1] / mses[i] - 1.5625) < 0.08


def test_divergence_ladder_ends_at_last_finite_mse():
    # b_n = 100**n passes float max: the ladder stops at its last finite MSE,
    # with no overflow warning, and the report's cutoff is that last M
    rows = divergence_demo(WienerElement((1, -100)), 200, seed=3, t_len=2000)
    assert [m for m, _ in rows] == list(range(len(rows)))
    assert 1 < len(rows) < 201
    assert all(math.isfinite(mse) for _, mse in rows)
    report = process.formal_reconstruction(simulate(WienerElement((1, -100)), 1.0, 2000, 3), 200)
    assert report.mse_per_cutoff == tuple(rows)
    assert report.lag_cutoff == rows[-1][0] == len(report.ar_coeffs)
    # a path whose residual overflows already at M = 0 has no ladder
    with pytest.raises(ValueError, match="M = 0"):
        process.formal_reconstruction(simulate(WienerElement((1, 1e300)), 1.0, 100, 0), 5)


def test_divergence_requires_inside_root():
    with pytest.raises(ValueError):
        divergence_demo(MA1, 8, seed=0)


# -- filter convergence ------------------------------------------------------------


def two_sided_geometric(radius=20):
    coeffs = tuple(0.5 ** abs(n) for n in range(-radius, radius + 1))
    return WienerElement(coeffs, -radius)


def test_filter_partial_sums_converge_monotonically():
    sample = simulate(MA1, 1.0, 100_000, 42)
    filt = two_sided_geometric()
    rows = l1_filter_convergence(sample, filt, range(21))
    assert [r.cutoff for r in rows] == list(range(21))
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


def test_filter_identity_has_zero_deviation_everywhere():
    sample = simulate(MA1, 1.0, 500, 1)
    rows = l1_filter_convergence(sample, ONE, (0, 1))
    for row in rows:
        assert row.max_deviation == 0.0 and row.mse == 0.0


def test_filter_window_excludes_unreachable_lags():
    sample = simulate(MA1, 1.0, 100, 2)
    filt = WienerElement((0.5, 0, 1, 0, 0.5), offset=-2)
    rows = l1_filter_convergence(sample, filt, (0, 2))
    # full-support cutoff reproduces the filter exactly on the valid window
    assert rows[-1].max_deviation == 0.0


def test_filter_validation():
    sample = simulate(MA1, 1.0, 10, 0)
    with pytest.raises(ValueError):
        l1_filter_convergence(sample, ONE, ())
    with pytest.raises(ValueError):
        l1_filter_convergence(sample, ONE, (-1, 2))
    with pytest.raises(ValueError):
        l1_filter_convergence(sample, ONE, (3, 3))
    with pytest.raises(ValueError, match="too short"):
        l1_filter_convergence(sample, two_sided_geometric(), (0, 20))


# -- ergodic averaging ---------------------------------------------------------------


def test_ergodic_prediction_formula():
    rows = ergodic_mean_check(MA1, 2.0, (100, 1000, 10_000), 3)
    for row in rows:
        assert row.predicted_std == 1.5 * 2.0 / np.sqrt(row.t_len)
        assert row.abs_mean <= 4 * row.predicted_std


def test_ergodic_overdifferenced_transfer_telescopes():
    rows = ergodic_mean_check(WienerElement((1, -1)), 1.0, (100, 10_000), 3)
    for row in rows:
        assert row.predicted_std == 0.0
        assert row.abs_mean <= 10.0 / row.t_len


def test_ergodic_validation():
    with pytest.raises(ValueError):
        ergodic_mean_check(MA1, 1.0, (), 0)
    with pytest.raises(ValueError):
        ergodic_mean_check(MA1, 1.0, (100, 100), 0)
    # a finite path whose sum passes float max has no finite mean
    with pytest.raises(ValueError, match="^the sample mean over T = 12 lies past float max$"):
        ergodic_mean_check(WienerElement((1, 0, -3e307)), 1.0, (1, 3, 12, 50), 0)


# -- autocovariances and Wold recovery --------------------------------------------------


def test_ma_autocovariance_exact():
    gamma = ma_autocovariance(MA1, 2.0, 3)
    assert list(gamma) == [5.0, 2.0, 0.0, 0.0]


def test_wold_recovers_invertible_ma1():
    est = wold_estimate(ma_autocovariance(MA1, 1.0, 1), 1)
    assert abs(est.transfer.coeff(1) - 0.5) < 1e-6
    assert abs(est.sigma2 - 1.0) < 1e-6
    assert est.transfer.coeff(0) == 1


def test_wold_selects_invertible_representative():
    # (1, -2) with sigma = 1 shares its autocovariance with (1, -0.5), sigma**2 = 4
    gamma = ma_autocovariance(WINDOW, 1.0, 1)
    assert list(gamma) == [5.0, -2.0]
    est = wold_estimate(gamma, 1)
    assert abs(est.transfer.coeff(1) + 0.5) < 1e-6
    assert abs(est.sigma2 - 4.0) < 1e-6


def test_wold_order_zero_is_white_noise():
    est = wold_estimate((2.25,), 0)
    assert est.transfer == ONE
    assert est.sigma2 == 2.25


def test_wold_round_trip_ma2():
    rng = np.random.default_rng(34)
    for _ in range(5):
        r = rng.uniform(1.4, 3.0) * np.exp(2j * np.pi * rng.uniform())
        f = WienerElement((1, -2 * (1 / r).real, abs(1 / r) ** 2))
        sigma = rng.uniform(0.5, 2.0)
        est = wold_estimate(ma_autocovariance(f, sigma, 2), 2)
        assert_allclose(
            [est.transfer.coeff(1).real, est.transfer.coeff(2).real],
            [f.coeff(1).real, f.coeff(2).real],
            atol=1e-6,
        )
        assert abs(est.sigma2 - sigma**2) < 1e-6 * max(1, sigma**2)


def test_wold_rejects_invalid_autocovariances():
    with pytest.raises(ValueError, match="positive definite"):
        wold_estimate((1.0, 0.9, 0.1), 2)
    with pytest.raises(ValueError):
        wold_estimate((1.0,), 1)
    with pytest.raises(ValueError):
        wold_estimate((1.0,), -1)


def test_wold_boundary_reads_borderline():
    # gamma of (1, -1): the factor's root sits on the circle, a double root
    # of z gamma(z) that floating point splits; the estimate is still returned
    est = wold_estimate((2.0, -1.0), 1)
    assert est.verdict is Verdict.BORDERLINE
    assert_allclose(est.transfer.to_array().real, [1.0, -1.0], rtol=0, atol=1e-6)
    assert abs(est.sigma2 - 1.0) <= 1e-6


def transfer_from_roots(roots) -> WienerElement:
    """``prod (1 - z/r)`` with real coefficients and ``a_0 = 1``."""
    return WienerElement(tuple(np.poly(1 / np.asarray(roots)).real))


def factor_jacobian(a) -> np.ndarray:
    """Jacobian of ``a -> (sum_j a_j a_{j+k})_{k=0..q}``, the map a Wold factor inverts.

    Machine precision times its condition number is the error to expect
    from any floating-point factorization of the autocovariances.
    """
    q = len(a) - 1
    jac = np.zeros((q + 1, q + 1))
    for k in range(q + 1):
        jac[k, k:] += a[: q + 1 - k]
        jac[k, : q + 1 - k] += a[k:]
    return jac


def wold_error(f: WienerElement, sigma: float) -> tuple[float, float, object]:
    """Recover ``f`` from its exact autocovariances: coefficient and sigma**2 errors, verdict."""
    a = f.to_array().real
    q = len(a) - 1
    est = wold_estimate(ma_autocovariance(f, sigma, q), q)
    got = np.array([est.transfer.coeff(k).real for k in range(q + 1)])
    return float(np.max(np.abs(got - a))), abs(est.sigma2 - sigma**2) / sigma**2, est.verdict


@pytest.mark.parametrize("theta", [0.97, 0.99, 0.999, -0.999])
def test_wold_ma1_near_circle_accuracy(theta):
    coeff_err, sigma2_err, verdict = wold_error(WienerElement((1, theta)), 1.0)
    assert coeff_err <= 1e-12
    assert sigma2_err <= 1e-12
    assert verdict is Verdict.INVERTIBLE


def test_wold_ma4_accuracy():
    rng = np.random.default_rng(35)
    for _ in range(10):
        roots = []
        for _ in range(2):
            r = rng.uniform(1.3, 2.0) * np.exp(1j * rng.uniform(0, np.pi))
            roots += [r, r.conjugate()]
        coeff_err, sigma2_err, verdict = wold_error(transfer_from_roots(roots), rng.uniform(0.5, 2.0))
        assert coeff_err <= 1e-12
        assert sigma2_err <= 1e-12
        assert verdict is Verdict.INVERTIBLE


@pytest.mark.parametrize(
    "f",
    [WienerElement((1, 1 - 1e-6)), transfer_from_roots([1.001 * cmath.exp(1j), 1.001 * cmath.exp(-1j)])],
    ids=["theta_1_minus_1e-6", "pair_1e-3_outside"],
)
def test_wold_near_circle_reads_invertible(f):
    # a root this close to the circle is still resolved: no false Borderline
    coeff_err, sigma2_err, verdict = wold_error(f, 1.0)
    assert verdict is Verdict.INVERTIBLE
    assert coeff_err <= 1e-9
    assert sigma2_err <= 1e-9


def test_wold_order_above_the_true_order():
    # gamma vanishes past lag 1: the zero lags add no roots
    est = wold_estimate(ma_autocovariance(MA1, 1.0, 3), 3)
    assert_allclose(est.transfer.to_array().real, [1.0, 0.5], rtol=0, atol=1e-15)
    assert est.verdict is Verdict.INVERTIBLE


@pytest.mark.parametrize(
    "f",
    [WienerElement((1, -2 * math.cos(1.0), 1)), WienerElement((1, 1 - 1e-8))],
    ids=["pair_on_circle", "theta_1_minus_1e-8"],
)
def test_wold_merged_pairs_read_borderline(f):
    coeff_err, sigma2_err, verdict = wold_error(f, 1.0)
    assert verdict is Verdict.BORDERLINE
    assert coeff_err <= 1e-6
    assert sigma2_err <= 1e-6


def test_wold_rejects_negative_spectral_density():
    # 1 + 1.2 cos(w) < 0 near w = pi, yet the 2 x 2 matrix is positive definite
    with pytest.raises(ValueError, match="do not extend to a valid MA model"):
        wold_estimate((1.0, 0.6), 1)


def test_wold_polish_resolves_merged_pairs_near_the_circle():
    # roots e^{+-0.0674i} on the circle and 1.0039 e^{-+0.073i} just outside:
    # the root split alone leaves a residual of 1.4e-5, above the tolerance;
    # the Gauss-Newton polish brings it to rounding level
    f = transfer_from_roots(
        [cmath.exp(0.0674j), cmath.exp(-0.0674j), 1.0039 * cmath.exp(-0.073j), 1.0039 * cmath.exp(0.073j)]
    )
    gamma = ma_autocovariance(f, 1.0, 4)
    est = wold_estimate(gamma, 4)
    assert est.verdict is Verdict.BORDERLINE
    assert est.transfer.coeff(0) == 1
    fit = ma_autocovariance(est.transfer, math.sqrt(est.sigma2), 4)
    assert np.max(np.abs(fit - gamma)) <= 1e-14 * gamma[0]


def test_wold_rejects_a_density_that_dips_below_zero():
    # gamma of an MA(4) less a constant: its spectral density now dips to
    # -1e-3 gamma_0, and no polished factor can fit it
    gamma = ma_autocovariance(transfer_from_roots([1.3j, -1.3j, 1.6, -2.0]), 1.0, 4)
    w = np.linspace(0, math.pi, 8193)
    density = gamma[0] + 2 * sum(gamma[k] * np.cos(k * w) for k in range(1, 5))
    gamma[0] -= density.min() + 1e-3 * gamma[0]
    np.linalg.cholesky(toeplitz(gamma))  # still positive definite
    with pytest.raises(ValueError, match="do not extend to a valid MA model"):
        wold_estimate(gamma, 4)


def test_polish_never_raises_the_residual():
    gamma = np.array([1.0, 0.6])  # density 1 + 1.2 cos(w) dips below zero
    for a1 in (1.0, 0.9, 0.5, 0.0, -1.0):
        a = np.array([1.0, a1])
        polished, residual = process._polished_factor(a, gamma)
        assert polished[0] == 1
        assert 1e-3 < residual <= process._factor_residual(a, gamma)


def test_wold_subnormal_autocovariances():
    # gamma of 1 + 0.1 z with sigma**2 = 1e-310
    est = wold_estimate((1.01e-310, 1e-311), 1)
    assert abs(est.transfer.coeff(1) - 0.1) <= 1e-12
    assert abs(est.sigma2 - 1e-310) <= 1e-12 * 1e-310
    assert est.verdict is Verdict.INVERTIBLE


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1.05, 3.0), st.floats(0.0, math.pi), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    st.floats(0.25, 4.0),
)
def test_wold_round_trip_property(draws, sigma):
    # each draw adds a conjugate pair or a real root (sign from the angle), to degree 5
    roots = []
    for modulus, angle, pair in draws:
        if pair and len(roots) <= 3:
            roots += [cmath.rect(modulus, angle), cmath.rect(modulus, -angle)]
        elif len(roots) < 5:
            roots.append(modulus if angle < math.pi / 2 else -modulus)
    f = transfer_from_roots(roots)
    coeff_err, sigma2_err, verdict = wold_error(f, sigma)
    # repeated roots near the circle make the factorization itself
    # ill-conditioned (a 4-fold root at 1.05: condition 4e10), so the bound
    # is relative to its condition number, not fixed
    slack = 64 * np.finfo(float).eps * np.linalg.cond(factor_jacobian(f.to_array().real))
    assert coeff_err <= slack
    assert sigma2_err <= slack
    if slack <= 1e-6:
        assert verdict is Verdict.INVERTIBLE


# -- export formats -----------------------------------------------------------------


def test_sample_csv_layout():
    sample = simulate(MA1, 1.0, 3, 0)
    csv = process.sample_to_csv(sample)
    assert isinstance(csv, (bytes, bytearray))
    assert csv.isascii()
    lines = csv.decode("ascii").strip().splitlines()
    assert lines[0] == "t,X_t,eps_t"
    assert len(lines) == 4
    t, x, e = lines[1].split(",")
    assert t == "0"
    assert float(x) == sample.path[0]
    assert float(e) == sample.aligned_innovations[0]


BLOCK = process.CSV_BLOCK_ROWS
CSV_LENGTHS = (1, 3, BLOCK - 1, BLOCK, BLOCK + 1, 200_003)


@pytest.mark.parametrize(
    "f, sigma",
    [(MA1, 1.0), (WINDOW, 1.0), (WienerElement((1, -1)), 1.0)]
    + [(MA1, sigma) for sigma in (0.0, 1e-9, 1e12, 1e20)],
    ids=["invertible", "inside", "on_circle", "zero", "tiny", "large", "huge"],
)
def test_sample_csv_matches_row_oracle(f, sigma, tmp_path):
    # shorter paths of one seed are prefixes of the longest, so one oracle
    # text serves every length; sigma 0 and 1e-9 send every cell to Python's
    # formatting, 1e20 most of them.  The CLI streams the same bytes to disk.
    longest = sample_csv_oracle(simulate(f, sigma, max(CSV_LENGTHS), 17)).splitlines()
    for t_len in CSV_LENGTHS:
        csv = process.sample_to_csv(simulate(f, sigma, t_len, 17))
        assert csv.decode("ascii") == "\n".join(longest[: t_len + 1]) + "\n", t_len
        out = tmp_path / str(t_len)
        assert cmd_simulate(f, t_len, 17, sigma, 0, DEFAULT_ROOT_TOL, out) == 0
        assert (out / "sample.csv").read_bytes() == csv, t_len


def _csv_cells(values) -> list[str]:
    """The X_t column of ``sample.csv`` for a path equal to ``values``."""
    path = np.asarray(values, dtype=float)
    sample = process.ProcessSample(path, path, 1.0, ONE, 0)
    rows = process.sample_to_csv(sample).decode("ascii").splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == [r.split(",")[2] for r in rows]
    return [r.split(",")[1] for r in rows]


def _ulp_neighbours(x: float, steps: int = 3) -> list[float]:
    out = [x]
    up = down = x
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _decimal_ties() -> list[float]:
    # x = I + c / 2**j with an (18 - j)-digit integer I and odd c has exactly
    # 18 significant digits, the last a 5: a tie at 17 digits
    ties = []
    for j in range(2, 18):
        for c in (1, 3):
            numerator = (10 ** (17 - j) + 1) * 2**j + c
            if numerator < 2**53:
                ties.append(numerator / 2**j)
    return ties


def test_csv_cells_match_format_on_adversarial_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    for k in range(-6, 17):
        values += _ulp_neighbours(float(f"1e{k}"))
    values += _ulp_neighbours(float("1e-14"))  # 17-digit rounding carries to "1e-14"
    values += _ulp_neighbours(float("1e17")) + _ulp_neighbours(1e-4, 8)
    values += _decimal_ties()
    values += [-v for v in values]
    assert _csv_cells(values) == [format(v, ".17g") for v in values]
    # half-even at the 17th digit
    assert _csv_cells([32000000000001 / 32, 32000000000003 / 32]) == [
        "1000000000000.0312",
        "1000000000000.0938",
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(), st.floats(1e-4, 1e17), st.floats(-1e17, -1e-4)),
        min_size=1,
        max_size=64,
    )
)
def test_csv_cells_match_format_property(values):
    assert _csv_cells(values) == [format(v, ".17g") for v in values]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(BLOCK + 1, 2 * BLOCK + 7),
    drawn=st.lists(st.floats(), max_size=16),
)
def test_csv_cells_match_format_on_bit_patterns_property(seed, length, drawn):
    # every bit pattern is as likely: both signs, every exponent, subnormals,
    # infinities and NaNs with any payload, over more than one row block
    values = np.random.default_rng(seed).integers(0, 2**64, length, dtype=np.uint64).view(float)
    values[: len(drawn)] = drawn
    assert _csv_cells(values) == [format(v, ".17g") for v in values.tolist()]


def _simulate_command(tmp_path, *args):
    """Run ``shiftop simulate --coeffs 1,0.5`` and return its output directory."""
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--coeffs", "1,0.5", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def test_metadata_sidecar_contents(tmp_path):
    out = _simulate_command(tmp_path, "--sigma", "0.5", "--T", "20", "--seed", "9")
    meta = json.loads((out / "metadata.json").read_text())
    assert list(meta) == [
        "seed", "generator", "numpy_version", "sigma", "t_len", "warmup", "transfer",
        "verdict", "max_lag", "files",
    ]
    assert meta["seed"] == 9
    assert meta["generator"] == "numpy.random.Philox"
    assert meta["numpy_version"] == np.__version__
    assert meta["sigma"] == 0.5
    assert meta["t_len"] == 20
    assert meta["warmup"] == 2
    assert meta["transfer"] == wiener.to_json_dict(MA1)


def test_tabular_csv_headers(tmp_path):
    out = _simulate_command(tmp_path, "--T", "400", "--max-lag", "3")
    assert (out / "reconstruction.csv").read_text().splitlines()[0] == "M,mse"
    assert (out / "ergodicity.csv").read_text().splitlines()[0] == "T,abs_mean,predicted_std"
