import contextlib
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import lapack

from shiftop import operators, wiener
from shiftop.cli import main
from shiftop.invertibility import Verdict, classify_roots
from shiftop.operators import (
    OperatorKind,
    build_unilateral,
    compression_norm,
    isometry_dims,
    isometry_rows,
    isometry_sweep,
    operator_norm,
)
from shiftop.wiener import ONE, WienerElement

from oracles import (
    SzegoVector,
    build_bilateral,
    build_toeplitz,
    dump_matrix,
    gram_eigenvalue_oracle,
    rayleigh_quotient,
)


def random_causal(rng, max_len=8, max_offset=2):
    offset = int(rng.integers(0, max_offset + 1))
    n = int(rng.integers(1, max_len + 1))
    coeffs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    return WienerElement(tuple(coeffs), offset)


def random_two_sided(rng, max_len=7):
    n = int(rng.integers(1, max_len + 1))
    coeffs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    return WienerElement(tuple(coeffs), -int(rng.integers(0, n + 2)))


# -- unilateral truncations ---------------------------------------------------


def test_unilateral_matrix_example():
    op = build_unilateral(WienerElement((1, -2)), 3)
    expected = np.array(
        [[1, 0, 0], [-2, 1, 0], [0, -2, 1]], dtype=complex
    )
    assert np.array_equal(op.matrix, expected)
    assert op.kind is OperatorKind.UNILATERAL_COMPRESSION
    assert op.dim == 3


def test_unilateral_monomial_past_dimension_is_zero():
    op = build_unilateral(WienerElement((1,), 2), 2)
    assert np.array_equal(op.matrix, np.zeros((2, 2), dtype=complex))


def test_unilateral_rejects_anticausal_and_bad_dim():
    with pytest.raises(ValueError):
        build_unilateral(WienerElement((1,), offset=-1), 4)
    with pytest.raises(ValueError):
        build_unilateral(ONE, 0)


def test_matrices_are_read_only():
    op = build_unilateral(WienerElement((1, -2)), 3)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5


def test_toeplitz_route_agrees_exactly():
    # same matrix from the diagonal gather and from column-by-column
    # convolution; the fixed cases pin offsets and supports reaching past N
    fixed = [
        (WienerElement((1, -2 + 0.5j, 3j)), 1),
        (WienerElement((1, -2 + 0.5j, 3j)), 2),
        (WienerElement((0.5, 2j, -1, 4)), 3),
        (WienerElement((0.5, 2j, -1, 4), offset=2), 3),
        (WienerElement((0.5, 2j, -1, 4), offset=3), 3),
        (WienerElement((0.5, 2j, -1, 4), offset=7), 3),
        (WienerElement(tuple(np.arange(1, 12) * (1 - 1j)), offset=4), 9),
    ]
    rng = np.random.default_rng(21)
    random_cases = [(random_causal(rng), int(rng.integers(1, 40))) for _ in range(50)]
    for f, n in fixed + random_cases:
        a = build_unilateral(f, n)
        b = build_toeplitz(f, n)
        assert np.array_equal(a.matrix, b.matrix)
        assert b.kind is OperatorKind.UNILATERAL_COMPRESSION


# -- bilateral (circulant) truncations ---------------------------------------


def test_bilateral_small_example():
    op = build_bilateral(WienerElement((1, -2)), 2)
    assert np.array_equal(
        op.matrix, np.array([[1, -2], [-2, 1]], dtype=complex)
    )
    assert op.kind is OperatorKind.BILATERAL_CIRCULANT


def test_bilateral_eigenvalues_are_symbol_samples():
    f = WienerElement((1, -2))
    eigs = np.sort_complex(np.linalg.eigvals(build_bilateral(f, 4).matrix))
    expected = np.sort_complex(np.array([(-1), 1 - 2j, 1 + 2j, 3]))
    assert_allclose(eigs, expected, atol=1e-12)


def test_bilateral_eigenvalues_random_two_sided():
    rng = np.random.default_rng(22)
    for _ in range(25):
        f = random_two_sided(rng)
        n = 16
        eigs = np.linalg.eigvals(build_bilateral(f, n).matrix)
        samples = wiener.evaluate_on_grid(f, n)
        assert_allclose(
            np.sort_complex(eigs), np.sort_complex(samples), atol=1e-8
        )


def test_bilateral_rejects_aliasing():
    f = WienerElement((1, 1, 1))
    with pytest.raises(ValueError):
        build_bilateral(f, 2)


def test_bilateral_shift_power_wraps_to_identity():
    op = build_bilateral(WienerElement((1,), 4), 4)
    assert np.array_equal(op.matrix, np.eye(4, dtype=complex))


# -- operator norm ------------------------------------------------------------


def test_norm_of_identity_and_zero():
    assert operator_norm(build_unilateral(ONE, 7)) == 1.0
    zero_op = build_unilateral(wiener.ZERO, 5)
    assert operator_norm(zero_op) == 0.0


def test_norm_window_example():
    value = operator_norm(build_unilateral(WienerElement((1, -2)), 512))
    assert 0 < 3.0 - value < 0.02


def test_norm_accepts_plain_arrays():
    assert operator_norm(np.eye(3)) == 1.0
    with pytest.raises(ValueError):
        operator_norm(np.zeros((2, 3)))


def test_norm_iterative_path_matches_circulant_spectrum():
    # every matrix, at any size, goes through the dense SVD; a circulant's
    # norm has a closed form in its spectrum to compare against
    f = WienerElement((1, -0.5, 0.25j))
    n = 1040
    op = build_bilateral(f, n)
    exact = float(np.max(np.abs(wiener.evaluate_on_grid(f, n))))
    assert_allclose(operator_norm(op), exact, rtol=1e-8)


def test_circulant_norm_matches_spectrum():
    rng = np.random.default_rng(28)
    for _ in range(25):
        f = random_two_sided(rng)
        n = int(rng.integers(max(f.support_length, 1), 64))
        exact = np.max(np.abs(wiener.evaluate_on_grid(f, n)))
        assert_allclose(operator_norm(build_bilateral(f, n)), exact, rtol=1e-12, atol=1e-14)


def test_norm_bounded_by_l1():
    rng = np.random.default_rng(23)
    for _ in range(40):
        f = random_causal(rng)
        value = operator_norm(build_unilateral(f, int(rng.integers(1, 30))))
        assert value <= wiener.l1_norm(f) + 1e-8


def test_norm_monotone_in_dimension():
    rng = np.random.default_rng(24)
    for _ in range(10):
        f = random_causal(rng)
        norms = [
            operator_norm(build_unilateral(f, n)) for n in (4, 8, 16, 32, 64)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-10
        cap = wiener.sup_norm(f, 4096) + wiener.sup_norm_grid_error(f, 4096)
        assert norms[-1] <= cap + 1e-8


def test_truncation_is_multiplicative_up_to_rounding():
    # T_N(fg) equals T_N(f) T_N(g) for causal symbols; BLAS and convolution
    # round differently in the last bits, so compare with a tight tolerance
    rng = np.random.default_rng(25)
    for _ in range(40):
        f, g = random_causal(rng), random_causal(rng)
        n = int(rng.integers(1, 24))
        lhs = build_unilateral(wiener.multiply(f, g), n).matrix
        rhs = build_unilateral(f, n).matrix @ build_unilateral(g, n).matrix
        scale = max(1.0, np.abs(lhs).max())
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_compression_norm_matches_dense_svd():
    # the largest eigenvalue of the banded Gram matrix against the SVD of
    # the matrix itself
    cases = [
        (WienerElement((1 + 0.5j, -0.3 + 0.8j, 0.2 - 0.1j, 0.05j)), 64),  # complex
        (WienerElement((2 - 1j, 1 + 1j, -0.75), offset=3), 40),  # offset > 0
        (WienerElement((1, -0.5j, 0.25, 2, -1, 0.5)), 4),  # support longer than dim
        (WienerElement((0.5, 1j, -2), offset=2), 3),  # support reaching past dim
        (WienerElement((3 - 4j, 1)), 1),
        (WienerElement((1e200, -2e200j)), 16),  # squares would overflow
        (WienerElement((1e-200, 3e-201)), 16),  # squares would underflow
        (WienerElement((2.25e-311, 1e-320j)), 8),  # subnormal coefficients
        (WienerElement((1, -2)), 1024),
    ]
    rng = np.random.default_rng(29)
    cases += [(random_causal(rng), int(rng.integers(1, 48))) for _ in range(40)]
    for f, n in cases:
        assert_allclose(
            compression_norm(f, n), operator_norm(build_unilateral(f, n)), rtol=1e-13
        )


def test_compression_norm_exact_cases_and_errors():
    assert compression_norm(wiener.ZERO, 5) == 0.0
    for k in range(4):
        assert compression_norm(WienerElement((1,), k), 9) == 1.0
    assert compression_norm(WienerElement((1,), 3), 3) == 0.0  # z**3 truncated away
    for f, n in ((ONE, 0), (WienerElement((1,), offset=-1), 4)):
        with pytest.raises(ValueError) as expected:
            build_unilateral(f, n)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            compression_norm(f, n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    ),
    st.integers(0, 3),
    st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
)
@example(coeffs=[52j, 1e-14, 1e-14], offset=1, dims=[32])  # a band within 1e-16 of I
# np.linalg.norm squares |a| into the subnormals and misses by 1.6e-5 relative
@example(coeffs=[2.3851598944634437e-160 + 0j], offset=0, dims=[1])
def test_compression_norm_bracket_and_monotone_property(coeffs, offset, dims):
    # ||T_N(f)|| lies between the l2 and l1 norms of its first column, and
    # grows with N because each matrix is the leading block of the next
    f = WienerElement(tuple(coeffs), offset)
    dims = sorted(dims)
    column = np.array([f.coeff(m) for m in range(dims[-1])])
    norms = [compression_norm(f, n) for n in dims]
    for n, value in zip(dims, norms):
        head = column[:n]
        # hypot scales instead of squaring, so tiny columns keep every bit
        assert math.hypot(*np.abs(head)) * (1 - 1e-12) <= value <= np.abs(head).sum() * (1 + 1e-12)
    for low, high in zip(norms, norms[1:]):
        assert high >= low * (1 - 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 128),
)
@example(coeffs=[0, 52j, 1e-14, 1e-14], dim=32)  # a band within 1e-16 of I
@example(coeffs=[45036, 1e-9], dim=3)  # the SVD misses sigma_max by 70 eps
@example(coeffs=[2.225073858507e-311 + 2.225073858507e-311j], dim=1)  # a subnormal scale
@example(coeffs=[1, 1 / 2.5 - 1 / 3, -1 / 7.5], dim=128)  # roots 3 and -2.5: the banded route
def test_gram_eigenvalue_certificate_property(coeffs, dim):
    # the bracket, widened by its margin, holds the squared extreme singular
    # values of T_N(f) / s from a dense SVD: the largest always, the smallest
    # for an Invertible symbol, the case the inverse norm reads it for.  The
    # SVD is itself accurate only to about 100 eps * sigma_max, the tolerance
    # below which LAPACK's bidiagonal SVD deflates an entry
    f = WienerElement(tuple(coeffs))
    band, scale = operators._gram_band(f, dim)
    assume(scale > 0)
    # the SVD of the matrix scaled by a power of two into the normal range,
    # exactly: a subnormal matrix's singular values lose bits
    shift = -math.frexp(scale)[1]
    matrix = np.ldexp(build_unilateral(f, dim).matrix.view(float), shift).view(complex)
    singular = np.linalg.svd(matrix, compute_uv=False) / math.ldexp(scale, shift)
    slack = 256 * np.finfo(float).eps * singular[0] ** 2
    lo, hi, margin = operators._gram_eigenvalue(band)
    assert 0 < margin < 1e-11 * hi
    assert lo <= hi <= lo * (1 + 4e-16)
    assert lo - margin - slack <= singular[0] ** 2 <= hi + margin + slack
    try:
        invertible = f.coeff(0) != 0 and classify_roots(f).verdict is Verdict.INVERTIBLE
    except FloatingPointError:  # a root past float max
        invertible = False
    if invertible:
        lo, hi, margin = operators._gram_eigenvalue(band, lowest=True)
        assert lo <= hi and lo - margin - slack <= singular[-1] ** 2 <= hi + margin + slack


@contextlib.contextmanager
def counting_factorizations():
    """Count the banded Cholesky factorizations (LAPACK ``zpbtrf``) made
    through ``scipy.linalg.lapack`` inside the block."""
    calls, original = [], lapack.zpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    lapack.zpbtrf = counted
    try:
        yield calls
    finally:
        lapack.zpbtrf = original


def gram_estimates(draw, band, oracle):
    """An eigenvalue estimate for ``band``: a bracket end, one ulp off one, a
    relative error from 1e-14 to 1e2 either way, or a value outside every
    bracket."""
    largest = float(band[0].real.max())
    gershgorin = 2 * float(np.abs(band).max(axis=1).sum()) - largest
    lo, hi, _ = oracle
    kind = draw(st.sampled_from(["end", "relative", "outside"]))
    if kind == "end":
        end = draw(st.sampled_from([largest, gershgorin, lo, hi]))
        return end + draw(st.sampled_from([-1, 0, 1])) * math.ulp(end)
    if kind == "relative":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        return hi * (1 + sign * 10.0 ** draw(st.floats(-14, 2)))
    return draw(st.sampled_from([largest / 2, 2 * gershgorin, 0.0, math.inf, math.nan, None]))


@seed(23)
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just([1.0]), st.integers(0, 8)),  # monomials: lambda_max = G_00
        st.tuples(
            st.lists(st.floats(-1, 1) | st.complex_numbers(max_magnitude=1), min_size=1, max_size=9),
            st.integers(0, 2),
        ),
    ),
    st.floats(-200, 200),
    st.integers(1, 1100),
    st.data(),
)
# with data=None the estimate lies a relative 1e-9 above the eigenvalue
@example(symbol=([0.5, -1.0, 0.25], 0), exponent=0.0, dim=1, data=None)
@example(symbol=([1.0], 3), exponent=150.0, dim=1100, data=None)
def test_estimated_bracket_matches_plain_bisection_property(symbol, exponent, dim, data):
    # from any estimate, the bisection ends on the plain bracket's adjacent
    # floats, bit for bit, with at most six more factorizations
    mantissas, offset = symbol
    f = WienerElement(tuple(complex(m) * 10.0**exponent for m in mantissas), offset)
    band, scale = operators._gram_band(f, dim)
    assume(scale > 0)
    with counting_factorizations() as calls:
        oracle = gram_eigenvalue_oracle(band)
    plain = len(calls)
    estimate = oracle[1] * (1 + 1e-9) if data is None else gram_estimates(data.draw, band, oracle)
    with counting_factorizations() as calls:
        got = operators._gram_eigenvalue(band, estimate=estimate)
    assert got == oracle
    assert len(calls) <= plain + 6


# -- Szego vectors and Rayleigh quotients --------------------------------------


def test_szego_vector_values():
    k = SzegoVector.truncated(0.5j, 4)
    assert_allclose(
        k.values, [1, -0.5j, -0.25, 0.125j], rtol=0, atol=1e-15
    )
    assert k.values.shape == (4,)
    with pytest.raises(ValueError):
        SzegoVector.truncated(1.0, 4)
    with pytest.raises(ValueError):
        SzegoVector.truncated(0.5, 0)


def test_szego_vector_read_only():
    k = SzegoVector.truncated(0.3, 8)
    with pytest.raises(ValueError):
        k.values[0] = 2.0


def test_rayleigh_quotient_identity_is_one():
    k = SzegoVector.truncated(-0.7 + 0.1j, 32)
    assert rayleigh_quotient(ONE, k) == 1.0


def test_rayleigh_quotient_example():
    value = rayleigh_quotient(
        WienerElement((1, -2)), SzegoVector.truncated(-0.9, 512)
    )
    assert abs(value - 2.8) < 0.01


def test_rayleigh_quotient_approaches_symbol_value():
    # k_w nearly diagonalises the adjoint action, so the quotient lands near
    # f(w) once the truncation swamps the kernel tail
    rng = np.random.default_rng(26)
    for _ in range(20):
        f = random_causal(rng, max_len=5, max_offset=1)
        w = 0.8 * np.exp(2j * np.pi * rng.uniform())
        target = complex(
            sum(c * w ** (f.offset + k) for k, c in enumerate(f.coeffs))
        )
        value = rayleigh_quotient(f, SzegoVector.truncated(w, 600))
        assert abs(value - target) < 1e-8


def test_rayleigh_quotient_bounded_by_norm():
    rng = np.random.default_rng(27)
    for _ in range(30):
        f = random_causal(rng)
        n = 48
        w = (1 - 1e-3) * np.exp(2j * np.pi * rng.uniform()) * rng.uniform()
        value = rayleigh_quotient(f, SzegoVector.truncated(w, n))
        assert abs(value) <= operator_norm(build_unilateral(f, n)) + 1e-8


# -- isometry sweep ------------------------------------------------------------


def test_isometry_sweep_pure_shift_has_no_gap():
    rows = isometry_sweep(WienerElement((1,), 1), dims=(2, 4, 8))
    for row in rows:
        assert row.norm == 1.0
        assert abs(row.gap) <= 1e-12


def test_isometry_sweep_window_example():
    rows = isometry_sweep(WienerElement((1, -2)), dims=(4, 16, 64, 256))
    assert [r.dim for r in rows] == [4, 16, 64, 256]
    gaps = [r.gap for r in rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10
    assert all(g >= -1e-10 for g in gaps)
    assert gaps[-1] < 0.05


def test_isometry_rows_match_sweep():
    f = WienerElement((1, -2))
    dims = (4, 16, 64)
    sup = wiener.sup_norm(f, 1 << 16)
    norms = [compression_norm(f, n) for n in dims]
    assert isometry_rows(dims, norms, sup) == isometry_sweep(f, dims)
    with pytest.raises(ValueError):
        isometry_rows(dims, norms[:2], sup)
    with pytest.raises(ValueError, match="strictly increasing"):
        isometry_rows((16, 4), norms[:2], sup)


def test_isometry_dims_validation():
    assert isometry_dims((1, 4.0, 9)) == [1, 4, 9]
    assert isometry_dims(()) == []
    with pytest.raises(ValueError, match="at least 1"):
        isometry_dims((0, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        isometry_dims((4, 0))


def test_isometry_sweep_requires_increasing_dims():
    with pytest.raises(ValueError):
        isometry_sweep(ONE, dims=(4, 4))
    with pytest.raises(ValueError):
        isometry_sweep(ONE, dims=(16, 8))


def test_isometry_csv_layout(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["analyze", "--coeffs", "1", "--dims", "4,16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "isometry.csv").read_text().strip().splitlines()
    assert lines[0] == "N,norm,gap"
    assert len(lines) == 3
    assert lines[1].startswith("4,")


# -- matrix dumps ---------------------------------------------------------------


def test_dump_matrix_round_trips_entries():
    op = build_unilateral(WienerElement((1, -2 + 0.5j)), 2)
    text = dump_matrix(op)
    lines = text.strip().splitlines()
    assert lines[0] == "2 unilateral"
    cells = [line.split() for line in lines[1:]]
    assert len(cells) == 2 and all(len(row) == 2 for row in cells)
    parsed = np.array(
        [[complex(*map(float, pair.split(","))) for pair in row]
         for row in cells]
    )
    assert np.array_equal(parsed, op.matrix)
