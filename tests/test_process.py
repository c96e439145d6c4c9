import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import sample_csv_oracle

from shiftop import process, wiener
from shiftop.invertibility import NotInvertibleError
from shiftop.process import (
    divergence_demo,
    ergodic_mean_check,
    formal_ar_coefficients,
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
    with pytest.raises(ValueError):
        simulate(ONE, -1.0, 10, 0)
    with pytest.raises(ValueError):
        simulate(ONE, 1.0, 0, 0)
    with pytest.raises(ValueError):
        simulate(ONE, 1.0, 10, -1)


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


# -- divergence of the formal inverse ---------------------------------------------


def test_formal_ar_coefficients_window():
    b = formal_ar_coefficients(WINDOW, 5)
    assert list(b) == [0.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    with pytest.raises(ValueError):
        formal_ar_coefficients(wiener.monomial(1), 3)


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
    assert est.n_iterations == 0


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


def test_wold_boundary_does_not_converge():
    # gamma of (1, -1): the factorization sits on the circle and the
    # iteration must report failure rather than return a bogus answer
    with pytest.raises(RuntimeError, match="converge"):
        wold_estimate((2.0, -1.0), 1, max_iterations=100)


# -- export formats -----------------------------------------------------------------


def test_sample_csv_layout():
    sample = simulate(MA1, 1.0, 3, 0)
    lines = process.sample_to_csv(sample).strip().splitlines()
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
def test_sample_csv_matches_row_oracle(f, sigma):
    # shorter paths of one seed are prefixes of the longest, so one oracle
    # text serves every length; sigma 0 and 1e-9 send every cell to Python's
    # formatting, 1e20 most of them
    longest = sample_csv_oracle(simulate(f, sigma, max(CSV_LENGTHS), 17)).splitlines()
    for t_len in CSV_LENGTHS:
        text = process.sample_to_csv(simulate(f, sigma, t_len, 17))
        assert text == "\n".join(longest[: t_len + 1]) + "\n", t_len


def _csv_cells(values) -> list[str]:
    """The X_t column of ``sample.csv`` for a path equal to ``values``."""
    path = np.asarray(values, dtype=float)
    sample = process.ProcessSample(path, path, 1.0, ONE, 0)
    rows = process.sample_to_csv(sample).splitlines()[1:]
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


def test_metadata_sidecar_contents():
    sample = simulate(MA1, 0.5, 20, 9)
    meta = process.metadata_sidecar(sample)
    assert meta["seed"] == 9
    assert meta["generator"] == "numpy.random.Philox"
    assert meta["numpy_version"] == np.__version__
    assert meta["sigma"] == 0.5
    assert meta["t_len"] == 20
    assert meta["warmup"] == 2
    assert wiener.from_json_dict(meta["transfer"]) == MA1
    json.dumps(meta)


def test_tabular_csv_headers():
    sample = simulate(MA1, 1.0, 400, 0)
    recon = reconstruct_innovations(sample, 3)
    assert process.reconstruction_csv(recon).splitlines()[0] == "M,mse"
    rows = divergence_demo(WINDOW, 3, seed=0, t_len=500)
    assert process.divergence_csv(rows).splitlines()[0] == "M,mse"
    conv = l1_filter_convergence(sample, ONE, (0,))
    assert process.filter_csv(conv).splitlines()[0] == "cutoff,max_deviation,mse"
    erg = ergodic_mean_check(MA1, 1.0, (64,), 0)
    assert process.ergodic_csv(erg).splitlines()[0] == "T,abs_mean,predicted_std"
