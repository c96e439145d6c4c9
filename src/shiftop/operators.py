"""Finite truncations of shift operators and their norms.

``build_unilateral(f, N)`` is the compression of ``f`` applied to the
unilateral shift ``T e_j = e_{j+1}`` onto the first ``N`` basis vectors, as
a read-only ``N x N`` array.  For causal ``f`` this is the lower-triangular
Toeplitz matrix with ``a_{i-j}`` at entry ``(i, j)``.

``compression_norms(f, dims)`` reads each ``||T_N(f)||`` of a table off the
banded Gram matrix ``T_N(f)^H T_N(f)`` of bandwidth ``q = deg f``: bisection
by inertia brackets its largest eigenvalue, with a stated margin, by banded
Cholesky factorizations of O(N q^2) each, about 52 from a blind bracket and
about 10 from one certified around an eigenvalue predicted from the norm
before and the sup norm of ``f``.  Isometry sweeps and
``invertibility.asymmetry_report`` both take their norms from it.
``invertibility`` applies ``T_N(1/f)`` by banded solves.  ``operator_norm``
takes one dense SVD of whatever square array it is given; no computation in
the package calls it or builds an ``N x N`` matrix with
``build_unilateral``, and both stay public for plain matrices and as the
dense reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import wiener
from .wiener import WienerElement

__all__ = [
    "IsometryRow",
    "build_unilateral",
    "operator_norm",
    "compression_norms",
    "isometry_dims",
    "isometry_rows",
    "isometry_sweep",
]


def _unilateral_column(f: WienerElement, dim: int) -> np.ndarray:
    """First column of ``build_unilateral(f, dim)``: ``a_0 .. a_{dim-1}``.

    Holds the checks both routes to ``T_N(f)`` share: ``dim >= 1`` and a
    causal symbol.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not f.is_causal:
        raise ValueError(
            "unilateral compression needs a causal symbol (offset >= 0); "
            f"got offset {f.offset}"
        )
    column = np.zeros(dim, dtype=complex)
    coeffs = f.to_array()[: max(dim - f.offset, 0)]
    column[f.offset : f.offset + len(coeffs)] = coeffs
    return column


def build_unilateral(f: WienerElement, dim: int) -> np.ndarray:
    """Power series in the truncated shift: ``sum_n a_n S**n``.

    ``S`` is the ``dim x dim`` matrix with ones on the first subdiagonal
    (``S e_j = e_{j+1}``, last basis vector annihilated), so ``S**n`` has ones
    on the n-th subdiagonal and each coefficient lands on its own diagonal:
    entry ``(i, j)`` is ``a_{i-j}``, zero above the diagonal and for indices
    at or past ``dim``.  Requires a causal symbol; the array is read-only.
    """
    column = _unilateral_column(f, dim)
    dim = len(column)
    # padded[dim - 1 + n] = a_n, with zeros at every negative n
    padded = np.concatenate((np.zeros(dim - 1, dtype=complex), column))
    i = np.arange(dim)
    matrix = padded[dim - 1 + i[:, None] - i[None, :]]
    matrix.setflags(write=False)
    return matrix


def operator_norm(operator) -> float:
    """Largest singular value of a square matrix, from a dense SVD.

    For the compression ``T_N(f)`` of a polynomial symbol use
    :func:`compression_norms`, which needs no ``N x N`` matrix; for its
    inverse, :func:`shiftop.invertibility.asymmetry_report`.
    """
    matrix = np.asarray(operator, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator must be a square matrix")
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


# The estimated start of _gram_eigenvalue: the half-width of its first bracket,
# relative to the estimate; the steps of inverse iteration in _ritz_value; and
# the first check's offset from the Ritz value, relative to the margin (the
# Ritz value lies within 5 ulps of the bracket in 9 of 10 norms, the margin
# some 300 ulps wide)
_ESTIMATE_WIDTH = 2.0**-23
_RITZ_STEPS = 4
_CHECK_FRACTION = 1 / 64


def _gram_band(f: WienerElement, dim: int) -> tuple[np.ndarray, float]:
    """Lower band storage of ``T_N(f)^H T_N(f) / s**2`` and the scale ``s``.

    With ``a_m`` the coefficients kept by the truncation and ``q`` the last
    nonzero index, the Gram matrix is Hermitian with bandwidth ``q``:
    ``G[j+k, j] = sum_{m=k}^{min(q, N-1-j)} conj(a_{m-k}) a_m``.  ``s`` is the
    largest coefficient modulus, divided out first so the products neither
    overflow nor underflow.  A zero truncation gives an empty band and
    ``s = 0``.
    """
    a = _unilateral_column(f, dim)
    dim = len(a)
    nonzero = np.flatnonzero(a)
    if nonzero.size == 0:
        return np.zeros((0, dim), dtype=complex), 0.0
    a = a[: nonzero[-1] + 1]
    scale = float(np.abs(a).max())
    # divide the real and imaginary parts as floats: numpy's complex
    # division by a subnormal scale overflows to inf and nan
    a = (a.view(float) / scale).view(complex)
    q = len(a) - 1
    # band row k at column j sums the prefix of m = k .. min(q, N-1-j);
    # a negative prefix length marks the entries past the matrix's corner
    last = np.minimum(q, dim - 1 - np.arange(dim))
    band = np.zeros((q + 1, dim), dtype=complex)
    for k in range(q + 1):
        prefix = np.cumsum(np.conj(a[: q + 1 - k]) * a[k:])
        length = last - k
        inside = length >= 0
        band[k, inside] = prefix[length[inside]]
    return band, scale


def _gram_eigenvalue(
    band: np.ndarray, lowest: bool = False, estimate: float | None = None
) -> tuple[float, float, float]:
    """``(lo, hi, margin)``: adjacent floats bracketing the largest eigenvalue
    of the band from :func:`_gram_band` (the smallest with ``lowest``).

    Bisection by inertia (Demmel, *Applied Numerical Linear Algebra*, 5.3):
    ``lam I - G`` is positive definite exactly when ``lam > lambda_max``, and
    ``G - lam I`` when ``lam < lambda_min``; a banded Cholesky (LAPACK
    ``zpbtrf``, O(N q^2)) tells which.  From ``[G_00, Gershgorin bound]``, or
    ``[0, min_j G_jj]``, that takes about 52 steps.

    An ``estimate`` of the largest eigenvalue strictly inside that bracket
    shortens the search; with ``lowest`` it is ignored.  Factorizations at ``estimate -+ w``, ``w = 2**-23
    estimate``, widened 16-fold at most twice, bracket the eigenvalue; four
    steps of block inverse iteration with the factor that succeeded nearest
    to it give a Ritz value ``rho`` (:func:`_ritz_value`), and
    factorizations at ``rho +- margin / 64``, then if need be at ``rho +- 2
    margin``, check it.  The bisection then runs from the tightest bracket
    those outcomes verify: about 10 factorizations in all when the estimate
    is good to a relative 3e-5, and a few more than from the plain bracket
    when it is not (at most 5 more over 21600 estimates on 300 bands).  A
    factorization is made only at a shift strictly inside the current
    bracket and only narrows it, so a poor estimate, a non-finite iterate
    or a check that goes the other way just leaves a wider bracket.

    The result does not depend on the estimate as long as ``zpbtrf``'s
    success is monotone in the shift, as the plain bisection already
    assumes: every bracket end is then a real outcome on the right side of
    the shift where the outcome turns, and every bisection ends on the two
    adjacent floats around it.  On 300 bands, the outcome at every float
    within 40 ulps of the bracket turned exactly once.

    The eigenvalue of the exact ``T_N^H T_N / s**2`` lies in
    ``[lo - margin, hi + margin]``, ``margin = 8 (q + 1) gamma_{q+3} g``,
    ``g = (2q + 1) G_00``, ``gamma_n = n u / (1 - n u)``, to first order in
    ``u = 2**-53``.  A band's norm is at most ``2q + 1`` times its largest
    entry ``G_00``, and each term is at most ``g`` times: rounding ``G``
    (sums of ``q + 1`` complex products of modulus ``<= G_00``; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.6),
    ``(2q + 1) gamma_{q+3}``; dividing by ``s``, ``2 (q + 1)**2 u``; shifting
    the diagonal and summing the Gershgorin bound, ``gamma_{q+3}``; the
    backward error of the Cholesky that succeeded at ``hi`` (or ``lo``) and
    the ``lambda_min`` a failed one leaves (Higham, Theorems 10.3 and 10.7,
    after Demmel), each ``(2q + 1) gamma_{q+3}``.
    """
    from scipy.linalg import lapack

    q, diagonal = band.shape[0] - 1, band[0].real
    largest = float(diagonal.max())  # G_00
    unit = np.finfo(float).eps / 2
    margin = 8 * (q + 1) * (q + 3) * unit / (1 - (q + 3) * unit) * (2 * q + 1) * largest
    # a Gershgorin row sum, |G_jj| plus |G[j + k, j]| and |G[j, j - k]| for each
    # k >= 1, is at most G_00 plus twice each band row's largest modulus
    gershgorin = 2 * float(np.abs(band).max(axis=1).sum()) - largest
    sign = -1.0 if lowest else 1.0
    shifted = np.asfortranarray(-sign * band)
    lo, hi = (0.0, float(diagonal.min())) if lowest else (largest, gershgorin)

    def narrow(shift: float):
        """Factor ``sign (shift I - G)`` if ``shift`` lies strictly inside the
        bracket, move the bracket's end to it, and return the factor when the
        factorization succeeded."""
        nonlocal lo, hi
        if not lo < shift < hi:
            return None
        work = shifted.copy(order="F")
        work[0] += sign * shift
        factor, info = lapack.zpbtrf(work, lower=1, overwrite_ab=1)
        if (info == 0) == lowest:
            lo = shift
        else:
            hi = shift
        return factor if info == 0 else None

    def close_in(center: float, offsets, first: float):
        """Narrow at ``center + first * offset`` and then ``center - first *
        offset`` for each offset in turn, until the bracket lies within the
        last; return the factor of the last success, the nearest to the
        eigenvalue, or None."""
        factor = None
        for offset in offsets:
            for shift in (center + first * offset, center - first * offset):
                if (found := narrow(shift)) is not None:
                    factor = found
            if center - offset <= lo and hi <= center + offset:
                break
        return factor

    if estimate is not None and not lowest and lo < estimate < hi:
        # each ladder first tries the side the eigenvalue more often lies on:
        # when the eigenvalue lies beyond that shift, the other one falls
        # outside the bracket and is not made.  The predicted norms overshoot
        # more often than not, and a Ritz value never exceeds the largest
        # eigenvalue
        width = _ESTIMATE_WIDTH * estimate
        factor = close_in(estimate, (width, 16 * width, 256 * width), -1.0)
        if factor is not None and math.isfinite(rho := _ritz_value(band, factor)):
            close_in(rho, (margin * _CHECK_FRACTION, 2 * margin), 1.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        narrow(mid)
    return lo, hi, margin


def _orthonormal_pair(block: np.ndarray) -> np.ndarray:
    """Orthonormalize the two columns of ``block`` in place: classical
    Gram-Schmidt, run twice (nan when the columns are dependent)."""
    first, second = block.T
    first /= math.sqrt(np.vdot(first, first).real)
    for _ in range(2):
        second -= np.vdot(first, second) * first
    second /= math.sqrt(np.vdot(second, second).real)
    return block


@functools.lru_cache(maxsize=8)
def _start_block(dim: int) -> np.ndarray:
    """The seeded ``dim x 2`` start of :func:`_ritz_value`, read-only."""
    block = np.random.default_rng(0).standard_normal((dim, 2)).astype(complex)
    block.setflags(write=False)
    return block


def _ritz_value(band: np.ndarray, factor: np.ndarray) -> float:
    """The largest Ritz value of the band's ``G`` on the block that
    ``_RITZ_STEPS`` steps of inverse iteration with the banded Cholesky
    ``factor`` of a shifted ``G`` reach from a seeded start; nan when an
    iterate is not finite.

    Two columns, not one: a real symbol whose ``|f|`` peaks at a conjugate
    pair of points has its top two eigenvalues a relative 1e-7 apart at
    N = 512, which one vector does not resolve in a few steps, while a block
    of two converges at the rate set by the third.
    """
    from scipy.linalg import blas, lapack

    block = _start_block(band.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(_RITZ_STEPS):
            block = _orthonormal_pair(lapack.zpbtrs(factor, block, lower=1)[0])
    if not np.isfinite(block).all():
        return math.nan
    q = band.shape[0] - 1
    image = np.column_stack([blas.zhbmv(q, 1.0, band, column, lower=1) for column in block.T])
    return float(np.linalg.eigvalsh(block.conj().T @ image)[-1])


def compression_norms(f: WienerElement, dims, sup: float | None = None) -> list[float]:
    """``||T_N(f)||`` for each ``N`` in ``dims``, without forming the matrices
    ``T_N(f) = build_unilateral(f, N)``.

    Each norm is the square root of the upper end of the bracket
    :func:`_gram_eigenvalue` certifies for the largest eigenvalue of the
    banded Gram matrix ``T_N(f)^H T_N(f)`` (see :func:`_gram_band`), for
    degree ``q`` by banded Cholesky factorizations of O(N q^2) each: about 52
    from the plain bracket, and about 10 from a guess good to a relative
    3e-5.  Given ``sup``, the sup norm of ``f``, each norm after the first
    starts from such a guess.  The norms rise towards ``sup``, and near a
    simple maximum of ``|f|`` the top eigenvalue of the Gram matrix approaches
    ``sup**2`` at a rate of about ``1/N**2`` (Boettcher & Grudsky, *Spectral
    Properties of Banded Toeplitz Matrices*, 2005), so the guess after
    ``||T_N'(f)||`` is ``near**2 = sup**2 - (sup**2 - ||T_N'(f)||**2)
    (N'/N)**2``, formed relative to ``sup``.  The plain bracket serves
    without a finite positive ``sup`` or where that square is not positive.
    The guess only shortens the search, so the values do not depend on it.
    """
    predict = sup is not None and 0 < sup < math.inf
    norms, last_dim = [], None
    for dim in map(int, dims):
        band, scale = _gram_band(f, dim)
        norm, estimate = 0.0, None
        if scale != 0.0:
            if predict and last_dim is not None:
                ratio = norms[-1] / sup
                square = 1.0 - (1.0 - ratio * ratio) * (last_dim / dim) ** 2
                if square > 0:
                    near = sup * math.sqrt(square)
                    estimate = (near / scale) * (near / scale)
            norm = scale * math.sqrt(_gram_eigenvalue(band, estimate=estimate)[1])
        norms.append(norm)
        last_dim = dim
    return norms


@dataclass(frozen=True)
class IsometryRow:
    dim: int
    norm: float
    gap: float


def isometry_dims(dims) -> list[int]:
    """The dimensions of an isometry table: each at least 1, strictly increasing."""
    dims = [int(d) for d in dims]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly increasing")
    if dims and dims[0] < 1:
        raise ValueError("dim must be at least 1")
    return dims


def isometry_rows(dims, norms, sup: float) -> list[IsometryRow]:
    """Rows ``(N, ||f(T_N)||, sup - ||f(T_N)||)`` from compression norms
    already computed, one per dimension in ``dims``."""
    return [
        IsometryRow(dim, nrm, sup - nrm)
        for dim, nrm in zip(isometry_dims(dims), norms, strict=True)
    ]


def isometry_sweep(f: WienerElement, dims, grid_size: int = 1 << 16) -> list[IsometryRow]:
    """Compression norms against the grid sup norm over increasing dimensions.

    Returns rows ``(N, ||f(T_N)||, sup - ||f(T_N)||)``.  The norm column is
    nondecreasing (each truncation is a compression of the next) and the gap
    column nonincreasing, up to float noise of order 1e-14 near zero.
    """
    dims = isometry_dims(dims)
    sup = wiener.sup_norm(f, grid_size)
    return isometry_rows(dims, compression_norms(f, dims, sup), sup)
