import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import canonical_form_oracle, evaluate_on_grid_oracle
from shiftop import cli, wiener
from shiftop.wiener import ONE, ZERO, WienerElement


def random_element(rng, max_len=8, two_sided=True):
    n = int(rng.integers(1, max_len + 1))
    coeffs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    lo = -int(rng.integers(0, 4)) if two_sided else int(rng.integers(0, 3))
    return WienerElement(tuple(coeffs), lo)


# -- construction and canonical form ----------------------------------------


def test_trims_leading_and_trailing_zeros():
    f = WienerElement((0, 0, 3, 0, 5, 0), offset=-4)
    assert f.coeffs == (3 + 0j, 0j, 5 + 0j)
    assert f.offset == -2
    assert f.degree == 0


def test_zero_element_is_canonical():
    assert WienerElement((0, 0, 0), offset=5) == ZERO
    assert ZERO.is_zero and ZERO.offset == 0 and ZERO.coeffs == (0j,)
    assert ZERO.is_causal


@pytest.mark.parametrize(
    "coeffs, offset",
    [
        ((-0.0,), 3),
        ((0.0, -0.0, 0j, complex(-0.0, -0.0)), -2),
        ((-0.0, 1.5, -0.0), 0),
        ((complex(0.0, -0.0), 2, 0, complex(-0.0, 3.0), 0), 4),
        ((math.nan, 0, 1), -1),
        ((0, complex(0.0, math.nan), 0), 2),
        ((0, 0, math.inf, -math.inf, 0), 0),
        ((1, 0, 0, 0, 2j), -3),
        ((True, 2**70, 0.5, 1 - 1j), 0),
        (np.zeros(5), 7),
        (np.array([0, -1e-320, 0], dtype=complex), 0),
    ],
)
def test_canonical_form_matches_stepwise_trim(coeffs, offset):
    # NaN counts as nonzero and -0.0 as zero, as `c != 0` has it; reprs tell
    # -0.0 and NaN apart where == does not
    f = WienerElement(coeffs, offset)
    want_coeffs, want_offset = canonical_form_oracle(coeffs, offset)
    assert type(f.coeffs) is tuple and all(type(c) is complex for c in f.coeffs)
    assert (repr(f.coeffs), f.offset) == (repr(want_coeffs), want_offset)
    assert repr(tuple(f.to_array().tolist())) == repr(want_coeffs)


def test_to_array_shares_no_memory():
    source = np.array([0, 1.5, -2j, 0])
    f = WienerElement(source, 1)
    source[1] = 7.0
    array = f.to_array()
    array[0] = 9.0
    assert f.to_array().tolist() == [1.5, -2j]
    assert f == WienerElement((1.5, -2j), 2)
    assert hash(f) == hash(WienerElement((1.5, -2j), 2))


def test_empty_coeffs_rejected():
    with pytest.raises(ValueError):
        WienerElement(())


def test_causality_follows_offset():
    assert WienerElement((1, -2)).is_causal
    assert not WienerElement((1,), offset=-1).is_causal
    assert WienerElement((1,), 3).is_causal


def test_coeff_lookup_outside_support():
    f = WienerElement((1, -2))
    assert f.coeff(0) == 1 and f.coeff(1) == -2
    assert f.coeff(2) == 0 and f.coeff(-1) == 0


# -- l1 norm -----------------------------------------------------------------


def test_l1_norm_examples():
    assert wiener.l1_norm(WienerElement((1, -2))) == 3.0
    assert wiener.l1_norm(ZERO) == 0.0
    geometric = WienerElement(tuple(0.5**n for n in range(11)))
    # dyadic sum is exact in floats
    assert wiener.l1_norm(geometric) == 2.0 - 2.0**-10


def test_l1_submultiplicative():
    rng = np.random.default_rng(101)
    for _ in range(200):
        f, g = random_element(rng), random_element(rng)
        lhs = wiener.l1_norm(wiener.multiply(f, g))
        rhs = wiener.l1_norm(f) * wiener.l1_norm(g)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


# -- multiplication ----------------------------------------------------------


def test_multiply_cancellation():
    f = WienerElement((1, -2))
    g = WienerElement((1, 2))
    assert wiener.multiply(f, g) == WienerElement((1, 0, -4))


def test_multiply_truncated_anticausal_expansion():
    # (1 - 2z) * (-(1/2)z^-1 - (1/4)z^-2 - (1/8)z^-3) telescopes to 1 - (1/8)z^-3
    f = WienerElement((1, -2))
    g = WienerElement((-0.125, -0.25, -0.5), offset=-3)
    product = wiener.multiply(f, g)
    assert product == WienerElement((-0.125, 0, 0, 1), offset=-3)


def test_multiply_support_length_before_trim():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f, g = random_element(rng), random_element(rng)
        conv = np.convolve(f.to_array(), g.to_array())
        assert len(conv) == f.support_length + g.support_length - 1
        prod = wiener.multiply(f, g)
        assert prod.support_length <= len(conv)
        assert prod.offset >= f.offset + g.offset


def test_multiply_by_zero_and_one():
    f = WienerElement((2, 1j), offset=-1)
    assert wiener.multiply(f, ZERO) == ZERO
    assert wiener.multiply(f, ONE) == f


def test_operator_sugar_matches_functions():
    f = WienerElement((1, -2))
    g = WienerElement((0.5,), offset=-1)
    assert f * g == wiener.multiply(f, g)
    assert f + g == WienerElement((0.5, 1, -2), offset=-1)
    assert f - f == ZERO
    assert 2 * f == WienerElement((2, -4))
    assert (f + 1) == WienerElement((2, -2))


def test_add_exact_cancellation():
    f = WienerElement((1, -2, 3), offset=-1)
    assert f + (-f) == ZERO


# -- evaluation --------------------------------------------------------------


def test_evaluate_rejects_off_circle_points():
    f = WienerElement((1, -2))
    with pytest.raises(ValueError):
        wiener.evaluate(f, 0.9)
    with pytest.raises(ValueError):
        wiener.evaluate(f, 1.1 * np.exp(1j))


def test_evaluate_root_of_unity_zero():
    f = WienerElement((1, 1, 1))
    value = wiener.evaluate(f, np.exp(2j * np.pi / 3))
    assert abs(value) < 1e-12


def test_evaluate_against_direct_power_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = random_element(rng)
        theta = rng.uniform(0, 2 * np.pi)
        z = complex(np.exp(1j * theta))
        direct = sum(
            c * z ** (f.offset + k) for k, c in enumerate(f.coeffs)
        )
        assert_allclose(wiener.evaluate(f, z), direct, rtol=1e-12, atol=1e-12)


def test_evaluation_is_multiplicative():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f, g = random_element(rng), random_element(rng)
        z = complex(np.exp(2j * np.pi * rng.uniform()))
        lhs = wiener.evaluate(wiener.multiply(f, g), z)
        rhs = wiener.evaluate(f, z) * wiener.evaluate(g, z)
        assert abs(lhs - rhs) <= 1e-10


# -- sup norm ----------------------------------------------------------------


def test_sup_norm_example():
    assert abs(wiener.sup_norm(WienerElement((1, -2)), 4096) - 3.0) <= 1e-6


def test_sup_norm_grid_floor():
    with pytest.raises(ValueError):
        wiener.sup_norm(ONE, 8)


def test_sup_norm_below_l1():
    rng = np.random.default_rng(13)
    for _ in range(100):
        f = random_element(rng)
        sup = wiener.sup_norm(f, 256)
        assert sup <= wiener.l1_norm(f) * (1 + 1e-12) + 1e-12


def test_sup_norm_refinement_monotone_exact():
    # power-of-two grids nest exactly, so refinement can only raise the max
    rng = np.random.default_rng(14)
    for _ in range(30):
        f = random_element(rng)
        values = [wiener.sup_norm(f, 1 << k) for k in range(4, 10)]
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse


def test_sup_norm_grid_error_bound():
    rng = np.random.default_rng(15)
    for _ in range(30):
        f = random_element(rng)
        coarse = wiener.sup_norm(f, 64)
        bound = wiener.sup_norm_grid_error(f, 64)
        fine = wiener.sup_norm(f, 1 << 14)
        assert fine <= coarse + bound + 1e-12


def test_sup_norm_of_a_monomial_reads_its_grid_maximum():
    # |z**30| = 1 on the circle, but the computed grid points and Horner's
    # scheme round: the grid maximum sits above the true sup
    assert 1.0 < wiener.sup_norm(WienerElement((1.0,), 30), 65536) < 1.0 + 1e-14


# -- grid evaluation ---------------------------------------------------------------


def test_evaluate_on_grid_matches_fresh_grid_and_allocating_horner():
    # the cached grid and the in-place Horner steps round as the fresh grid
    # and a new array per step do, bit for bit
    rng = np.random.default_rng(16)
    for _ in range(50):
        f = random_element(rng)
        for grid in (16, 48, 1024):
            assert np.array_equal(
                wiener.evaluate_on_grid(f, grid), evaluate_on_grid_oracle(f, grid)
            )


def test_evaluate_on_grid_returns_a_new_array():
    f = WienerElement((1, -2, 0.5), -1)
    first = wiener.evaluate_on_grid(f, 64)
    expected = first.copy()
    first[:] = 7.0
    assert np.array_equal(wiener.evaluate_on_grid(f, 64), expected)
    # a constant's values are still a new array, not the grid
    assert not np.shares_memory(wiener.evaluate_on_grid(ONE, 64), wiener._unit_roots(64))


def test_cached_grid_is_read_only():
    grid = wiener._unit_roots(64)
    assert grid is wiener._unit_roots(64)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0


@pytest.mark.parametrize("fine_first", [False, True])
def test_grids_nest_bit_for_bit_whichever_size_is_cached_first(fine_first):
    rng = np.random.default_rng(17)
    elements = [random_element(rng) for _ in range(10)]
    for grid in (16, 96, 4096):
        wiener._unit_roots.cache_clear()
        sizes = (2 * grid, grid) if fine_first else (grid, 2 * grid)
        for f in elements:
            values = {size: wiener.evaluate_on_grid(f, size) for size in sizes}
            assert np.array_equal(values[2 * grid][::2], values[grid])


# -- JSON coefficient format --------------------------------------------------


def test_json_round_trip_exact():
    f = WienerElement((1 + 2j, -0.3333333333333333, 1e-17 + 1j), offset=-2)
    again = wiener._from_json_dict(wiener.to_json_dict(f))
    assert again == f


def test_json_field_diagnostics():
    with pytest.raises(ValueError, match="coeffs"):
        wiener._from_json_dict({"offset": 0})
    with pytest.raises(ValueError, match="offset"):
        wiener._from_json_dict({"offset": "no", "coeffs": [[1, 0]]})
    with pytest.raises(ValueError, match=r"coeffs\[1\]"):
        wiener._from_json_dict({"offset": 0, "coeffs": [[1, 0], [1]]})
    with pytest.raises(ValueError):
        wiener._from_json_dict([1, 2])


@pytest.mark.parametrize(
    "pair", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]", "[1e400, 0]", "[0, 1" + "0" * 400 + "]"]
)
def test_json_rejects_non_finite_coefficients(pair):
    # json.loads reads NaN, Infinity and 1e400 as floats that are not finite,
    # and an integer past float max does not convert at all
    with pytest.raises(ValueError, match=r"coeffs\[1\]: .* is not a pair of finite numbers"):
        wiener._from_json_dict(json.loads(f'{{"coeffs": [[1, 0], {pair}]}}'))


def test_save_rejects_non_finite_coefficients():
    # the CLI writes the format through its strict JSON writer
    with pytest.raises(ValueError):
        cli._json_text(wiener.to_json_dict(WienerElement((1, math.nan))))


def test_file_round_trip(tmp_path):
    f = WienerElement((0.1, 0.2 - 0.7j), offset=3)
    path = tmp_path / "coeffs.json"
    path.write_bytes(cli._json_text(wiener.to_json_dict(f)))
    data = json.loads(path.read_text())
    assert set(data) == {"offset", "coeffs"}
    assert wiener.load_coefficients(path) == f


def test_load_names_the_syntax_error_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"offset": 0,\n "coeffs": [[1, 0],]}')
    with pytest.raises(ValueError, match=r"^line 2 column 20: Expecting value$"):
        wiener.load_coefficients(path)
    with pytest.raises(OSError):
        wiener.load_coefficients(tmp_path / "missing.json")
