import cmath
import decimal
import math

import numpy as np
import pytest
import scipy
from click.testing import CliRunner
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import lapack, solve_triangular

from shiftop import invertibility as inv
from shiftop import operators, wiener
from shiftop.cli import main
from shiftop.invertibility import (
    InversionSide,
    NotInvertibleError,
    TailNotCertifiedError,
    Verdict,
    WideFloat,
    asymmetry_report,
    classify_roots,
    invert_anticausal,
    invert_causal,
)
from shiftop.wiener import ONE, ZERO, WienerElement

from oracles import (
    ANALYZE_ROOT_CLASSES,
    certified_length_full_scan,
    certified_length_oracle,
    dense_inverse_norm,
    series_inverse_oracle,
    wide_log10,
)


def random_polynomial(rng, degree, offset=0):
    coeffs = rng.uniform(-2, 2, degree + 1) + 1j * rng.uniform(-2, 2, degree + 1)
    while abs(coeffs[-1]) < 0.1:
        coeffs[-1] = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
    return WienerElement(tuple(coeffs), offset)


def from_roots(roots, offset=0):
    """Monic-up-to-scale polynomial prod (1 - z/r), causal, real leading 1."""
    f = ONE
    for r in roots:
        f = wiener.multiply(f, WienerElement((1, -1.0 / r)))
    if offset:
        f = wiener.multiply(f, WienerElement((1,), offset))
    return f


# -- root classification -------------------------------------------------------


def test_classify_window_symbol():
    c = classify_roots(WienerElement((1, -2)))
    assert c.roots == (0.5 + 0j,)
    assert (c.inside, c.on_circle, c.outside) == (1, 0, 0)
    assert c.verdict is Verdict.NON_INVERTIBLE


def test_classify_invertible_symbol():
    c = classify_roots(WienerElement((1, -0.5)))
    assert_allclose(c.roots, [2.0 + 0j], atol=1e-12)
    assert (c.inside, c.on_circle, c.outside) == (0, 0, 1)
    assert c.verdict is Verdict.INVERTIBLE


def test_classify_borderline_symbol():
    c = classify_roots(WienerElement((1, -1)))
    assert c.on_circle == 1
    assert c.verdict is Verdict.BORDERLINE


def test_classify_quadratic_example():
    c = classify_roots(WienerElement((1, -0.5, -0.06)))
    assert_allclose(sorted(r.real for r in c.roots), [-10.0, 5.0 / 3.0], rtol=1e-12)
    assert max(abs(r.imag) for r in c.roots) < 1e-12
    assert c.verdict is Verdict.INVERTIBLE


def test_classify_constant_has_no_roots():
    c = classify_roots(WienerElement((3.5,)))
    assert c.roots == ()
    assert c.verdict is Verdict.INVERTIBLE


def test_classify_offset_contributes_origin_roots():
    c = classify_roots(WienerElement((1,), 1))
    assert c.roots == (0j,)
    assert c.verdict is Verdict.NON_INVERTIBLE

    c = classify_roots(wiener.multiply(WienerElement((1,), 2), WienerElement((1, -0.5))))
    assert c.inside == 2 and c.outside == 1
    assert c.verdict is Verdict.NON_INVERTIBLE


def test_classify_on_circle_beats_inside():
    f = wiener.multiply(WienerElement((1, -1)), WienerElement((1, -2)))
    c = classify_roots(f)
    assert c.inside == 1 and c.on_circle == 1
    assert c.verdict is Verdict.BORDERLINE


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_roots(ZERO)
    with pytest.raises(ValueError):
        classify_roots(WienerElement((1,), offset=-1))
    with pytest.raises(ValueError):
        classify_roots(ONE, tol=1e-13)
    with pytest.raises(ValueError):
        classify_roots(ONE, tol=1e-3)


def test_classify_tolerance_band():
    # a root a hair inside the circle reads as on-circle at the loose
    # tolerance and as inside at the tight one
    f = WienerElement((1, -(1 + 5e-10)))
    assert classify_roots(f, tol=1e-9).verdict is Verdict.BORDERLINE
    band = classify_roots(f, tol=1e-12)
    assert band.inside == 1
    assert band.verdict is Verdict.NON_INVERTIBLE


def test_classify_matches_numpy_roots():
    rng = np.random.default_rng(31)
    for _ in range(60):
        degree = int(rng.integers(1, 7))
        offset = int(rng.integers(0, 3))
        f = random_polynomial(rng, degree, offset)
        c = classify_roots(f)
        assert len(c.roots) == degree + offset
        assert c.inside + c.on_circle + c.outside == degree + offset
        expected = np.roots(np.asarray(f.coeffs)[::-1])
        expected = np.concatenate([expected, np.zeros(offset, dtype=complex)])
        got = np.array(sorted(c.roots, key=abs))
        want = np.array(sorted(expected, key=abs))
        assert_allclose(np.sort_complex(got), np.sort_complex(want), atol=1e-7)


# -- causal inversion -----------------------------------------------------------


def test_invert_constant():
    r = invert_causal(WienerElement((2,)))
    assert r.inverse == WienerElement((0.5,))
    assert r.side is InversionSide.CAUSAL
    assert r.truncation_len == 1
    assert r.tail_bound == 0.0


def test_invert_geometric_example():
    r = invert_causal(WienerElement((1, -0.5)), eps=1e-10)
    assert r.truncation_len == 35
    assert r.tail_bound <= 1e-10
    # the recursion reproduces exact dyadic powers
    assert r.inverse.coeffs[:10] == tuple((0.5**n) + 0j for n in range(10))
    residual = wiener.multiply(WienerElement((1, -0.5)), r.inverse) - ONE
    assert wiener.l1_norm(residual) <= r.tail_bound * 1.5


def test_invert_smaller_eps_needs_longer_prefix():
    f = WienerElement((1, -0.5))
    lengths = [invert_causal(f, eps=e).truncation_len for e in (1e-6, 1e-10, 1e-13)]
    assert lengths[0] < lengths[1] < lengths[2]
    for e, r in zip((1e-6, 1e-10, 1e-13), (invert_causal(f, eps=e) for e in (1e-6, 1e-10, 1e-13))):
        assert r.tail_bound <= e


def test_invert_quadratic_matches_back_substitution():
    f = WienerElement((1, -0.5, -0.06))
    r = invert_causal(f, eps=1e-12)
    n = min(60, r.truncation_len)
    matrix = operators.build_unilateral(f, n)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    column = solve_triangular(matrix, e0, lower=True)
    assert_allclose(np.asarray(r.inverse.coeffs[:n]), column, rtol=0, atol=1e-12)


def test_invert_residual_within_certificate():
    rng = np.random.default_rng(32)
    count = 0
    while count < 30:
        roots = 1.2 + rng.uniform(0, 2, int(rng.integers(1, 4)))
        roots = roots * np.exp(2j * np.pi * rng.uniform(size=len(roots)))
        f = from_roots(roots)
        r = invert_causal(f, max_len=8192, eps=1e-8)
        residual = wiener.l1_norm(wiener.multiply(f, r.inverse) - ONE)
        assert residual <= r.tail_bound * max(1.0, wiener.l1_norm(f))
        count += 1


def test_invert_rejects_root_inside():
    with pytest.raises(NotInvertibleError) as excinfo:
        invert_causal(WienerElement((1, -2)))
    assert excinfo.value.classification.verdict is Verdict.NON_INVERTIBLE


def test_invert_rejects_borderline():
    with pytest.raises(NotInvertibleError) as excinfo:
        invert_causal(WienerElement((1, -1)))
    assert excinfo.value.classification.verdict is Verdict.BORDERLINE


def test_invert_tail_certificate_failure():
    f = WienerElement((1, -0.999))
    with pytest.raises(TailNotCertifiedError) as excinfo:
        invert_causal(f, max_len=50, eps=1e-10)
    err = excinfo.value
    assert err.max_len == 50
    assert err.achieved_bound > 1e-10
    # a longer budget certifies the same symbol
    ok = invert_causal(f, max_len=40000, eps=1e-10)
    assert ok.tail_bound <= 1e-10


def test_certified_length_matches_stepwise_oracle():
    # the log-space certificate picks the same length as a multiplicative
    # walk over L, and its bound agrees to rounding
    rng = np.random.default_rng(36)
    for _ in range(200):
        rho = 1 - 10 ** rng.uniform(-3, -0.05)
        q = int(rng.integers(1, 9))
        a0 = 10 ** rng.uniform(-3, 3)
        eps = 10 ** rng.uniform(-14, -4)
        expected = certified_length_oracle(rho, q, a0, 4096, eps)
        if expected is None:
            with pytest.raises(TailNotCertifiedError):
                inv._certified_length(rho, q, a0, 4096, eps)
            continue
        length, bound = inv._certified_length(rho, q, a0, 4096, eps)
        assert length == expected[0]
        assert bound == pytest.approx(expected[1], rel=1e-12)


def _tail_outcome(scan, *args):
    """``(length, bound bits)``, or the error's message and achieved bound."""
    try:
        length, bound = scan(*args)
    except TailNotCertifiedError as exc:
        return str(exc), exc.achieved_bound, exc.max_len
    return length, bound.hex()


def _tail_block_edges(limit: int) -> list[int]:
    """The last length of each block of the block scan, up to ``limit``."""
    edges, end, size = [], 0, inv._TAIL_BLOCK
    while end + size <= limit:
        end, size = end + size, 2 * size
        edges.append(end)
    return edges


_TAIL_EDGES = _tail_block_edges(inv.DEFAULT_MAX_LEN)


@seed(21)
@settings(max_examples=200, deadline=None)
@given(
    rho=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 17.0).map(lambda k: 1.0 - 10.0**-k),  # near 1, and 1 itself
    ),
    q=st.one_of(st.just(1), st.integers(1, 40)),
    a0=st.floats(-300.0, 300.0).map(lambda k: 10.0**k),
    eps=st.floats(-300.0, 0.0).map(lambda k: 10.0**k),
    max_len=st.one_of(
        st.integers(1, inv.DEFAULT_MAX_LEN),
        st.sampled_from(_TAIL_EDGES).flatmap(lambda e: st.sampled_from((e - 1, e, e + 1))),
    ),
)
@example(rho=1 - 1e-16, q=30, a0=1.0, eps=1e-10, max_len=1000)  # every bound is inf
@example(rho=0.5, q=1, a0=1.0, eps=2.0**-64, max_len=_TAIL_EDGES[0])
# the shortest caps: one length, or the answer at either end
@example(rho=0.5, q=1, a0=1.0, eps=1e-10, max_len=1)
@example(rho=0.5, q=1, a0=1.0, eps=0.5, max_len=2)
@example(rho=0.5, q=1, a0=1.0, eps=0.25, max_len=3)
@example(rho=0.5, q=3, a0=1.0, eps=1e-10, max_len=3)
@example(rho=0.5, q=2, a0=1e3, eps=1e-2, max_len=3)
# rho one ulp below 1: (1 - rho)**-q = 2**(53 q)
@example(rho=1 - 2.0**-53, q=1, a0=1.0, eps=1e-10, max_len=inv.DEFAULT_MAX_LEN)
@example(rho=1 - 2.0**-53, q=1, a0=1e300, eps=1e-280, max_len=inv.DEFAULT_MAX_LEN)
def test_block_tail_length_matches_full_scan_property(rho, q, a0, eps, max_len):
    # the same length and bound bits, or the same error, whichever block the answer falls in
    args = (rho, q, a0, max_len, eps)
    assert _tail_outcome(inv._certified_length, *args) == _tail_outcome(
        certified_length_full_scan, *args
    )


@pytest.mark.parametrize("q", [1, 3, 30])
def test_block_tail_length_at_each_block_edge(q):
    # eps is the bound at a length next to a block edge, and max_len sits at
    # the edge and next to it; for q = 1 the bound falls with the length, so
    # the answer lands on that length
    rho, a0 = 0.9995, 1.0
    for edge in _TAIL_EDGES:
        for length in (edge - 1, edge, edge + 1):
            eps = _tail_outcome(certified_length_full_scan, rho, q, a0, length, 0.0)[1]
            for max_len in (edge - 1, edge, edge + 1, inv.DEFAULT_MAX_LEN):
                args = (rho, q, a0, max_len, eps)
                outcome = _tail_outcome(inv._certified_length, *args)
                assert outcome == _tail_outcome(certified_length_full_scan, *args)
                if q == 1 and max_len >= length:
                    assert outcome == (length, eps.hex())


@pytest.mark.parametrize("q", [50, 200])
def test_tail_bound_past_float_max_reads_inf(q):
    # 1 - (z/1.0003)**q: C(L+q-1, q-1) / (1 - rho)**q passes float max; the
    # bound reads inf, and no overflow warning is raised on the way
    f = WienerElement((1,) + (0,) * (q - 1) + (-(1.0003**-q),))
    with pytest.raises(TailNotCertifiedError) as excinfo:
        invert_causal(f, max_len=65536)
    assert excinfo.value.achieved_bound == math.inf


# -- anticausal inversion ---------------------------------------------------------


def test_anticausal_window_example():
    f = WienerElement((1, -2))
    r = invert_anticausal(f, eps=1e-10)
    assert r.side is InversionSide.ANTICAUSAL
    L = r.truncation_len
    assert L == 34
    assert r.inverse.offset == -L
    assert r.inverse.degree == -1
    for k in range(1, 21):
        assert r.inverse.coeff(-k) == -(0.5**k)
    # the residual telescopes to a single dropped term, exactly
    product = wiener.multiply(f, r.inverse)
    expected = WienerElement((-(0.5**L),) + (0,) * (L - 1) + (1,), offset=-L)
    assert product == expected
    assert wiener.l1_norm(product - ONE) == r.tail_bound


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.floats(0.02, 0.97), st.floats(-math.pi, math.pi)), min_size=1, max_size=4
    ),
    log_scale=st.floats(-3, 3),
    angle=st.floats(-math.pi, math.pi),
    log_eps=st.floats(-15, -6),
)
def test_anticausal_residual_within_certificate_property(roots, log_scale, angle, log_eps):
    # f g - 1 = -f (1/f - g) on the dropped tail, so ||f g - 1||_1 is at most
    # ||f||_1 tail_bound, plus rounding: forward substitution leaves a
    # residual of (q + 1) u |f| |g| and the product rounds as much again, and
    # complex arithmetic doubles both; the allowance is 4 (q + 1) u ||f||_1 ||g||_1
    f = from_roots([polar(r, t) for r, t in roots]) * (10.0**log_scale * cmath.exp(1j * angle))
    try:
        r = invert_anticausal(f, max_len=1 << 14, eps=10.0**log_eps)
    except TailNotCertifiedError:
        assume(False)
    residual = wiener.l1_norm(wiener.multiply(f, r.inverse) - ONE)
    l1_f, l1_g = wiener.l1_norm(f), wiener.l1_norm(r.inverse)
    allowance = 4 * len(f.coeffs) * (np.finfo(float).eps / 2) * l1_f * l1_g
    assert residual <= l1_f * r.tail_bound + allowance


def test_anticausal_monomial():
    r = invert_anticausal(WienerElement((-2,), offset=1))
    assert r.inverse == WienerElement((-0.5,), offset=-1)
    assert r.tail_bound == 0.0
    assert wiener.multiply(WienerElement((-2,), offset=1), r.inverse) == ONE


@pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf])
def test_inversions_reject_invalid_eps(eps):
    for invert, f in ((invert_causal, WienerElement((1, -0.5))), (invert_causal, ONE),
                      (invert_anticausal, WienerElement((1, -2)))):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            invert(f, eps=eps)


def test_anticausal_rejects_constants():
    with pytest.raises(ValueError, match="constant"):
        invert_anticausal(WienerElement((2,)))


def test_anticausal_rejects_outside_roots():
    with pytest.raises(NotInvertibleError):
        invert_anticausal(WienerElement((1, -0.5)))
    with pytest.raises(NotInvertibleError):
        invert_anticausal(WienerElement((1, -1)))


def test_mixed_roots_rejected_on_both_sides():
    f = WienerElement((1, -2.5, 1))  # roots 0.5 and 2
    with pytest.raises(NotInvertibleError):
        invert_causal(f)
    with pytest.raises(NotInvertibleError):
        invert_anticausal(f)


def test_anticausal_mirrors_reversed_causal():
    rng = np.random.default_rng(33)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        roots = rng.uniform(0.2, 0.8, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        f = from_roots(roots)
        r = invert_anticausal(f, eps=1e-8)
        reversed_f = WienerElement(tuple(reversed(f.coeffs)))
        g = invert_causal(reversed_f, eps=1e-8).inverse
        d = f.degree
        for m in range(r.truncation_len):
            assert r.inverse.coeff(-d - m) == g.coeff(m)


# -- triangular vs circulant asymmetry --------------------------------------------


def test_asymmetry_window_blow_up():
    rows = asymmetry_report(WienerElement((1, -2)), dims=(8, 16, 32, 64))
    frozen = [
        170.6516905992758,
        43690.66654713948,
        2863311530.666667,
        1.2297829382473036e19,
    ]
    for row, expected in zip(rows, frozen):
        assert row.norm_circulant_inverse == 1.0
        assert not row.circulant_singular
        assert_allclose(row.cond_circulant, 3.0, rtol=1e-12)
        assert_allclose(row.norm_triangular_inverse, expected, rtol=1e-6)
        assert row.norm_triangular_inverse >= 2.0 ** (row.dim - 1) / row.dim
        assert row.cond_triangular >= row.norm_triangular_inverse


def test_asymmetry_exponent_matches_root():
    rows = asymmetry_report(WienerElement((1, -2)), dims=(8, 16, 32, 64))
    dims = np.array([r.dim for r in rows], dtype=float)
    logs = np.log([r.norm_triangular_inverse for r in rows])
    slope = np.polyfit(dims, logs, 1)[0]
    assert abs(slope - np.log(2.0)) / np.log(2.0) < 0.05


def test_asymmetry_singular_circulant_is_reported():
    rows = asymmetry_report(WienerElement((1, -1)), dims=(4, 8))
    for row in rows:
        assert row.circulant_singular
        assert row.norm_circulant_inverse == np.inf
        assert row.cond_circulant == np.inf
        assert np.isfinite(row.norm_triangular_inverse)
        assert row.norm_triangular_inverse > 1.0


def test_asymmetry_zero_diagonal_triangular_is_singular():
    rows = asymmetry_report(WienerElement((1,), 1), dims=(4,))
    row = rows[0]
    assert row.norm_triangular_inverse == np.inf
    assert row.cond_triangular == np.inf
    assert row.norm_circulant_inverse == 1.0
    assert row.cond_circulant == 1.0


def test_asymmetry_invertible_symbol_stays_tame():
    rows = asymmetry_report(WienerElement((1, -0.5)), dims=(8, 32, 128))
    for row in rows:
        assert row.norm_triangular_inverse <= 2.0 + 1e-9
        assert row.cond_triangular <= 3.0 + 1e-9
        assert_allclose(row.norm_circulant_inverse, 2.0, rtol=1e-12)
        assert_allclose(row.cond_circulant, 3.0, rtol=1e-12)


SERIES_ROUTE_SYMBOLS = [
    from_roots([1.5, -2.0, 3.0 + 1j]),  # all roots outside
    from_roots([0.5]),  # the window symbol 1 - 2z
    from_roots([0.8 * np.exp(1j), 0.9j, -0.7]),  # all roots inside
    from_roots([0.6, -1.7, 2.5j]),  # straddling the circle
    WienerElement((1 + 0.5j, -0.3 + 0.8j, 0.2 - 0.1j, 0.05j)),  # complex coefficients
    WienerElement((2 - 1j, 1 + 1j, -0.75)),
]


@pytest.mark.parametrize("f", SERIES_ROUTE_SYMBOLS)
def test_asymmetry_series_inverse_matches_triangular_solve(f):
    # T_N(f)**-1 built from the power-series inverse against the dense solve
    for n in (8, 64, 300):
        row = asymmetry_report(f, dims=(n,))[0]
        tri = operators.build_unilateral(f, n)
        oracle = solve_triangular(tri, np.eye(n, dtype=complex), lower=True)
        g = inv._series_inverse_prefix(f.to_array(), n)
        series = operators.build_unilateral(WienerElement(tuple(g)), n)
        scale = np.abs(oracle).max()
        assert np.max(np.abs(series - oracle)) <= 1e-12 * scale
        assert_allclose(
            row.norm_triangular_inverse, operators.operator_norm(oracle), rtol=1e-12
        )
        assert row.norm_triangular == operators.compression_norms(f, [n])[0]
        assert_allclose(row.norm_triangular, operators.operator_norm(tri), rtol=1e-13)
        assert row.cond_triangular == row.norm_triangular * row.norm_triangular_inverse


def test_asymmetry_input_validation():
    with pytest.raises(ValueError):
        asymmetry_report(ZERO, dims=(4,))
    with pytest.raises(ValueError):
        asymmetry_report(WienerElement((1,), offset=-1), dims=(4,))
    with pytest.raises(ValueError):
        asymmetry_report(WienerElement((1, 0, 0, 1)), dims=(2,))


def test_asymmetry_csv_layout(tmp_path):
    # the root z = 1 makes the circulant singular: its inverse norm reads inf
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["analyze", "--coeffs", "1,-1", "--dims", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "asymmetry.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "N,norm_circulant_inverse,norm_triangular_inverse,"
        "cond_circulant,cond_triangular"
    )
    assert lines[1].startswith("4,inf,")


# -- the triangular inverse norm without a matrix ------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (8, 2), (5, 5), (1024, 8), (300, 41)])
def test_orthonormal_basis_is_the_q_of_a_qr(shape):
    # Q^H Q = I, and A = Q R with R = Q^H A upper triangular
    rng = np.random.default_rng(shape[0] + shape[1])
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q = inv._orthonormal_basis(a)
    assert q.shape == shape
    assert_allclose(q.conj().T @ q, np.eye(shape[1]), atol=1e-13)
    r = q.conj().T @ a
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-13 * np.abs(r).max()
    assert_allclose(q @ np.triu(r), a, atol=1e-13 * np.abs(a).max())


_SCIPY_LAPACK = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]


@pytest.mark.skipif(_SCIPY_LAPACK != "scipy-openblas", reason="scipy's LAPACK is not its bundled OpenBLAS")
def test_one_blas_thread_scope_restores_the_count(monkeypatch):
    # one thread inside, and the count as it was after a normal exit, an
    # exception, a nested scope and a whole asymmetry report
    get, set_ = inv._openblas_threads()
    before = get()
    seen, orthonormal_basis = [], inv._orthonormal_basis
    monkeypatch.setattr(
        inv, "_orthonormal_basis", lambda block: seen.append(get()) or orthonormal_basis(block)
    )
    try:
        set_(2)
        with inv._one_blas_thread():
            assert get() == 1
            with inv._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        with pytest.raises(ZeroDivisionError), inv._one_blas_thread():
            1 / 0
        assert get() == 2
        asymmetry_report(WienerElement((1, -2, 0.5)), (8, 1024))
        assert get() == 2
    finally:
        set_(before)
    assert seen and set(seen) == {1}


def test_top_eigenvalue_brackets_take_at_most_20_factorizations(monkeypatch):
    # with the grid sup norm, each compression norm after the first starts
    # from a predicted eigenvalue: at N >= 512 its bracket takes at most 20
    # banded Cholesky factorizations, against about 52 from the plain bracket
    calls, zpbtrf = [], lapack.zpbtrf
    monkeypatch.setattr(
        lapack, "zpbtrf", lambda *args, **kwargs: calls.append(1) or zpbtrf(*args, **kwargs)
    )
    brackets, gram_eigenvalue = [], operators._gram_eigenvalue

    def counted(band, lowest=False, estimate=None):
        before = len(calls)
        result = gram_eigenvalue(band, lowest, estimate)
        if not lowest:
            brackets.append((band.shape[1], len(calls) - before))
        return result

    monkeypatch.setattr(operators, "_gram_eigenvalue", counted)
    dims = (8, 32, 128, 512, 1024)
    for name, f in ANALYZE_ROOT_CLASSES.items():
        brackets.clear()
        asymmetry_report(f, dims, sup=wiener.sup_norm(f, 1 << 16))
        assert [dim for dim, _ in brackets] == list(dims), name
        assert all(count <= 20 for dim, count in brackets if dim >= 512), (name, brackets)


def test_one_blas_thread_scope_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(inv, "_openblas_threads", lambda: None)
    with pytest.raises(ZeroDivisionError), inv._one_blas_thread():
        1 / 0
    assert asymmetry_report(WienerElement((1, -2)), (8,))[0].inverse_route == "power"


def polar(radius, angle):
    return cmath.rect(radius, angle)


# the six root classes of the analyze benchmark, at fixed radii and angles
BENCH_CLASS_SYMBOLS = [
    from_roots([polar(1.8, 0.4), polar(2.3, 2.9), polar(1.6, -1.7)]),  # outside_d3
    from_roots([polar(0.51, 1.1)]),  # inside_half
    from_roots([polar(0.7, 2.0), polar(1.4, -0.6)]),  # straddle_d2
    from_roots(
        [polar(0.8, 0.3), polar(0.75, 2.0), polar(0.85, -1.0)]
        + [polar(1.3, 0.9), polar(1.9, 1.6), polar(2.2, 3.0), polar(1.5, -2.4)]
    ),  # mixed_d7
    WienerElement((1, -(1 + 0.5), 0.5)),  # on_circle: roots 1 and 2
    from_roots([polar(0.33, -2.2)]),  # inside_third
]

# roots near the circle, alone, beside a root at 2, and as conjugate pairs on
# either side (a pair's two top singular values nearly coincide, so a single
# power vector stalls on it)
NEAR_CIRCLE_SYMBOLS = [
    from_roots([1.001]),
    from_roots([1.01]),
    from_roots([1.001, 2.0]),
    from_roots([1.01, 2.0]),
    from_roots([polar(1.001, 1.0), polar(1.001, -1.0)]),
    from_roots([polar(0.999, 1.0), polar(0.999, -1.0)]),
    from_roots([polar(0.99, 1.0), polar(0.99, -1.0)]),
]


# seven roots 1.6e-5 to 9.3e-3 outside the circle: at N = 512 and 1024 the
# power estimate ends at the cap in rounding noise near 1e-12, while the
# banded route's error bound u cond**2 / 2 is about 6e-4 at cond 3.2e6
SEVEN_NEAR_ROOTS = from_roots(
    [
        polar(1 + d, a)
        for d, a in (
            (7.8e-5, -0.46), (1.0e-3, -1.19), (3.3e-5, -2.41), (9.3e-3, -2.12),
            (1.6e-5, -0.44), (5.8e-3, 1.2), (3.1e-4, -0.37),
        )
    ]
)


@pytest.mark.parametrize(
    "f", SERIES_ROUTE_SYMBOLS + BENCH_CLASS_SYMBOLS + NEAR_CIRCLE_SYMBOLS + [SEVEN_NEAR_ROOTS]
)
def test_inverse_norm_matches_dense_svd(f):
    dims = (8, 64, 256)
    if f in NEAR_CIRCLE_SYMBOLS:
        dims += (1024,)
    if f == SEVEN_NEAR_ROOTS:
        dims = (512, 1024)
    for row in asymmetry_report(f, dims):
        oracle = dense_inverse_norm(f, row.dim)
        if not math.isfinite(oracle):
            continue
        assert_allclose(row.norm_triangular_inverse, oracle, rtol=1e-11)
        assert row.cond_triangular == row.norm_triangular * row.norm_triangular_inverse


def test_inverse_norm_routes():
    # far outside roots cluster the top singular values: power iteration
    # stalls, its change projected to the cap stays above the tol, and the
    # banded route answers before the cap
    far = asymmetry_report(from_roots([3.0, -2.5]), (256,))[0]
    assert far.inverse_route == "banded"
    assert far.inverse_steps < inv.INVERSE_NORM_MAX_STEPS
    assert far.inverse_change > inv.INVERSE_NORM_TOL
    # at the cap, an estimate in rounding noise beats the banded u cond**2 / 2
    near = asymmetry_report(SEVEN_NEAR_ROOTS, (512,))[0]
    assert (near.inverse_route, near.inverse_steps) == ("power", inv.INVERSE_NORM_MAX_STEPS)
    assert near.inverse_change > inv.INVERSE_NORM_TOL
    pair = from_roots([polar(1.001, 1.0), polar(1.001, -1.0)])
    for f in (from_roots([1.001]), pair, from_roots([0.5]), WienerElement((3,))):
        row = asymmetry_report(f, (1024,))[0]
        assert row.inverse_route == "power"
        assert row.inverse_steps < inv.INVERSE_NORM_MAX_STEPS
        assert row.inverse_change <= inv.INVERSE_NORM_TOL
    assert math.isclose(
        asymmetry_report(WienerElement((3,)), (5,))[0].norm_triangular_inverse, 1 / 3, rel_tol=1e-15
    )
    none = asymmetry_report(WienerElement((1,), 1), (4,))[0]
    assert (none.inverse_route, none.inverse_steps, none.wide_norm_triangular_inverse) == ("none", 0, None)
    assert none.wide_cond_triangular is None


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.floats(1.01, 8.0), st.floats(-math.pi, math.pi)), min_size=1, max_size=7
    ),
    dim=st.integers(8, 256),
)
# two double roots: one outlying rate at step 5 ends a loop that would have
# settled at step 21; the bisection bracket alone is 3.2e-11 off there
@example(roots=[(1.09375, 0.0), (1.09375, 0.0), (1.09375, 1.09375), (1.09375, 1.09375)], dim=125)
def test_inverse_norm_stall_exit_matches_dense_svd_property(roots, dim):
    # wherever power iteration leaves for the banded route before its cap,
    # the banded norm is as good as a settled power estimate
    f = from_roots([polar(r, t) for r, t in roots])
    assume(classify_roots(f).verdict is Verdict.INVERTIBLE)
    row = asymmetry_report(f, (dim,))[0]
    assume(row.inverse_route == "banded" and row.inverse_steps < inv.INVERSE_NORM_MAX_STEPS)
    assert_allclose(row.norm_triangular_inverse, dense_inverse_norm(f, dim), rtol=1e-11)


@pytest.mark.parametrize("scale", [1e300, 1e-300, -3j])
def test_inverse_norm_scales_with_the_symbol(scale):
    # ||T_N(c f)^{-1}|| = ||T_N(f)^{-1}|| / |c|, also where c f or its
    # inverse leaves float range
    f = from_roots([polar(0.5, 0.4), 1.7])
    scaled = WienerElement(tuple(scale * c for c in f.coeffs))
    for row, base in zip(asymmetry_report(scaled, (8, 1030)), asymmetry_report(f, (8, 1030))):
        got, want = row.wide_norm_triangular_inverse, base.wide_norm_triangular_inverse
        ratio = math.ldexp(got.mantissa / want.mantissa, got.exponent - want.exponent)
        assert math.isclose(ratio, 1 / abs(scale), rel_tol=1e-12)


@pytest.mark.parametrize("c", [0.5, 3.0, 1e200, 1e300])
def test_inverse_norm_of_a_direct_sum(c):
    # T_16(f(z**4)) is permutation-similar to four copies of T_4(f), so the
    # two inverse norms agree.  For c = 1e300, 1/f(z**4) grows only every 4th
    # index, and ||M|| is about 2**-746: y^H y would underflow to 0
    spread = asymmetry_report(WienerElement((1, 0, 0, 0, c)), (16,))[0].wide_norm_triangular_inverse
    block = asymmetry_report(WienerElement((1, c)), (4,))[0].wide_norm_triangular_inverse
    ratio = math.ldexp(spread.mantissa / block.mantissa, spread.exponent - block.exponent)
    assert abs(ratio - 1) <= 4 * 2.0**-52
    if c == 1e300:  # against an mpmath reference
        reference = decimal.Decimal("1.0000000000000001575e900")
        assert abs(decimal.Decimal(spread.text()) / reference - 1) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.floats(1.002, 4.0), st.floats(-math.pi, math.pi)), min_size=1, max_size=3
    ),
    dims=st.lists(st.integers(4, 160), min_size=2, max_size=3, unique=True),
)
def test_inverse_norm_invertible_property(roots, dims):
    # the paper's ||T(h)|| = ||h||_inf for h = 1/f in W_+: the compressions'
    # norms rise with N and stay below 1/min|f| on the circle
    f = from_roots([polar(r, t) for r, t in roots])
    grid = 1 << 18
    low = float(np.abs(wiener.evaluate_on_grid(f, grid)).min()) - wiener.sup_norm_grid_error(f, grid)
    assume(low > 0)
    norms = [row.norm_triangular_inverse for row in asymmetry_report(f, sorted(dims))]
    for smaller, larger in zip(norms, norms[1:]):
        assert larger >= smaller * (1 - 1e-12)
    assert norms[-1] <= (1 / low) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(
        st.tuples(st.integers(2, 13), st.sampled_from((1.0, -1.0))), min_size=1, max_size=3
    ),
    inside=st.booleans(),
    log_tol=st.floats(math.log10(inv.MIN_ROOT_TOL), math.log10(inv.MAX_ROOT_TOL)),
)
# a pair 1e-7 and 1e-9 inside: the reversed polynomial's computed roots
# straddle the circle although the symbol's own all lie inside
@example(roots=[(7, 1.0), (9, 1.0)], inside=True, log_tol=-9.0)
def test_inversion_takes_the_side_of_any_admissible_tol_property(roots, inside, log_tol):
    # real roots 10**-k from the circle: a side seen at any admissible tol is
    # one the inversion routine also takes, so it certifies the tail or gives
    # up on it, and never calls the symbol Borderline or NonInvertible
    step = -1.0 if inside else 1.0
    f = from_roots([sign * (1 + step * 10.0**-k) for k, sign in roots])
    tol = min(max(10.0**log_tol, inv.MIN_ROOT_TOL), inv.MAX_ROOT_TOL)
    side = classify_roots(f, tol).side
    assume(side is not None)
    invert = invert_causal if side is InversionSide.CAUSAL else invert_anticausal
    try:
        invert(f, max_len=64)
    except TailNotCertifiedError:
        pass


@pytest.mark.parametrize("root", [polar(0.5, 0.7), 0.9, polar(0.8, -2.0)])
def test_inverse_norm_growth_matches_inside_root(root):
    # a simple root r inside the circle makes ||T_N(f)^{-1}|| grow like |r|**-N
    f = from_roots([root, 2.0])
    rows = asymmetry_report(f, (512, 1024, 2048))
    logs = [wide_log10(row.wide_norm_triangular_inverse) for row in rows]
    expected = math.log10(1 / abs(root))
    for (n0, l0), (n1, l1) in zip(zip((512, 1024), logs), zip((1024, 2048), logs[1:])):
        assert abs((l1 - l0) / (n1 - n0) - expected) <= 1e-9
    assert rows[-1].norm_triangular_inverse == math.inf or abs(root) > 0.7


def test_wide_float_text():
    assert WideFloat.of(0.1).text() == "0.10000000000000001"
    assert WideFloat.of(3.0).text() == "3"
    big = WideFloat(0.75, 1100)  # 3 * 2**1098, past float max
    assert float(big) == math.inf
    exact = decimal.Context(prec=17).create_decimal(3 * 2**1098)
    assert big.text() == f"{exact.normalize():e}"
    assert float(big.text()) == math.inf
    assert math.isclose(wide_log10(big), math.log10(3) + 1098 * math.log10(2), rel_tol=1e-15)
    assert WideFloat(0.5, 2000).text() == "5.7406534763712726e+601"  # 2**1999
    assert float(WideFloat.of(2.0) * WideFloat.of(0.75)) == 1.5


@pytest.mark.parametrize(
    "f, length",
    [
        (from_roots([1.5, -2.0, 3.0 + 1j]), 300),
        (from_roots([0.5]), 64),
        (from_roots([polar(0.8, 1.0), 0.9j, -0.7]), 400),
        (WienerElement((1 + 0.5j, -0.3 + 0.8j, 0.2 - 0.1j, 0.05j)), 200),
        (from_roots([1.003 * cmath.exp(1j * t) for t in (0.3, 1.7, -2.5)]), 19885),
        (from_roots([1.5, -2.0, 3.0 + 1j]), 2),  # shorter than the support
        (WienerElement((2.0,)), 5),
    ],
)
def test_series_inverse_matches_loop_oracle(f, length):
    got = inv._series_inverse_prefix(f.to_array(), length)
    want = series_inverse_oracle(f.to_array(), length)
    # each coefficient against the largest one so far, so growth hides nothing
    scale = np.maximum.accumulate(np.abs(want))
    assert got.shape == (length,)
    assert np.max(np.abs(got - want) / scale) <= 1e-14
