"""Finite truncations of shift operators and their norms.

``build_unilateral(f, N)`` is the compression of ``f`` applied to the
unilateral shift ``T e_j = e_{j+1}`` onto the first ``N`` basis vectors.  For
causal ``f`` this is the lower-triangular Toeplitz matrix with ``a_{i-j}`` at
entry ``(i, j)``.

``compression_norm(f, N)`` reads ``||T_N(f)||`` off the banded Gram matrix
``T_N(f)^H T_N(f)`` of bandwidth ``q = deg f``: bisection by inertia brackets
its largest eigenvalue, with a stated margin, in about 52 banded Cholesky
factorizations of O(N q^2) each.  ``invertibility`` applies ``T_N(1/f)`` by
banded solves.  ``operator_norm`` takes one dense SVD of whatever matrix it
is given; no computation in the package calls it or builds an ``N x N``
matrix with ``build_unilateral``, and both stay public for plain matrices
and as the dense reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import wiener
from .wiener import WienerElement

__all__ = [
    "OperatorKind",
    "TruncatedOperator",
    "IsometryRow",
    "build_unilateral",
    "operator_norm",
    "compression_norm",
    "isometry_dims",
    "isometry_rows",
    "isometry_sweep",
]


class OperatorKind(enum.Enum):
    UNILATERAL_COMPRESSION = "unilateral"
    BILATERAL_CIRCULANT = "circulant"


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """An ``N x N`` matrix remembering the symbol and truncation it came from."""

    matrix: np.ndarray
    kind: OperatorKind
    source: WienerElement
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("matrix shape does not match dim")


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


def build_unilateral(f: WienerElement, dim: int) -> TruncatedOperator:
    """Power series in the truncated shift: ``sum_n a_n S**n``.

    ``S`` is the ``dim x dim`` matrix with ones on the first subdiagonal
    (``S e_j = e_{j+1}``, last basis vector annihilated), so ``S**n`` has ones
    on the n-th subdiagonal and each coefficient lands on its own diagonal:
    entry ``(i, j)`` is ``a_{i-j}``, zero above the diagonal and for indices
    at or past ``dim``.  Requires a causal symbol.
    """
    column = _unilateral_column(f, dim)
    dim = len(column)
    # padded[dim - 1 + n] = a_n, with zeros at every negative n
    padded = np.concatenate((np.zeros(dim - 1, dtype=complex), column))
    i = np.arange(dim)
    matrix = padded[dim - 1 + i[:, None] - i[None, :]]
    return TruncatedOperator(matrix, OperatorKind.UNILATERAL_COMPRESSION, f, dim)


def operator_norm(operator) -> float:
    """Largest singular value of a square matrix, from a dense SVD.

    Accepts a :class:`TruncatedOperator` of either kind or a plain square
    array.  For the compression ``T_N(f)`` of a polynomial symbol use
    :func:`compression_norm`, which needs no ``N x N`` matrix; for its
    inverse, :func:`shiftop.invertibility.asymmetry_report`.
    """
    matrix = operator.matrix if isinstance(operator, TruncatedOperator) else np.asarray(operator, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator must be a square matrix")
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


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


def _gram_eigenvalue(band: np.ndarray, lowest: bool = False) -> tuple[float, float, float]:
    """``(lo, hi, margin)``: adjacent floats bracketing the largest eigenvalue
    of the band from :func:`_gram_band` (the smallest with ``lowest``).

    Bisection by inertia (Demmel, *Applied Numerical Linear Algebra*, 5.3):
    ``lam I - G`` is positive definite exactly when ``lam > lambda_max``, and
    ``G - lam I`` when ``lam < lambda_min``; a banded Cholesky (LAPACK
    ``zpbtrf``, O(N q^2)) tells which.  From ``[G_00, Gershgorin bound]``, or
    ``[0, min_j G_jj]``, that takes about 52 steps.

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
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        work = shifted.copy(order="F")
        work[0] += sign * mid
        definite = lapack.zpbtrf(work, lower=1, overwrite_ab=1)[1] == 0
        lo, hi = (mid, hi) if definite == lowest else (lo, mid)
    return lo, hi, margin


def compression_norm(f: WienerElement, dim: int) -> float:
    """``||T_N(f)||`` for ``T_N(f) = build_unilateral(f, dim)``, without the matrix.

    The square root of the upper end of the bracket :func:`_gram_eigenvalue`
    certifies for the largest eigenvalue of the banded Gram matrix
    ``T_N(f)^H T_N(f)`` (see :func:`_gram_band`): about 52 banded Cholesky
    factorizations of O(N q^2) each, for degree ``q``.
    """
    band, scale = _gram_band(f, dim)
    if scale == 0.0:
        return 0.0
    return scale * math.sqrt(_gram_eigenvalue(band)[1])


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
    norms = [compression_norm(f, dim) for dim in dims]
    return isometry_rows(dims, norms, sup)
