"""Finite truncations of shift operators and their norms.

Two families of matrices realize a symbol ``f``:

* ``build_unilateral(f, N)``: the compression of ``f`` applied to the
  unilateral shift ``T e_j = e_{j+1}`` onto the first ``N`` basis vectors.
  For causal ``f`` this is the lower-triangular Toeplitz matrix with
  ``a_{i-j}`` at entry ``(i, j)``.
* ``build_bilateral(f, N)``: the symbol applied to the cyclic shift, a
  circulant matrix whose eigenvalues are the symbol's values at the N-th
  roots of unity.

``compression_norm(f, N)`` reads ``||T_N(f)||`` off the banded Gram matrix
``T_N(f)^H T_N(f)``, whose bandwidth is the degree ``q`` of ``f``, in
O(N q^2) instead of a dense SVD's O(N^3).  The norm of the triangular
inverse ``T_N(1/f)`` needs no matrix either: ``invertibility`` applies it by
banded triangular solves.  ``operator_norm`` takes one dense SVD of whatever
matrix it is given; no computation in the package calls it or builds an
``N x N`` matrix with ``build_unilateral``, and both stay public for plain
matrices and as the dense reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import wiener
from .wiener import WienerElement

__all__ = [
    "OperatorKind",
    "TruncatedOperator",
    "SzegoVector",
    "IsometryRow",
    "build_unilateral",
    "build_bilateral",
    "operator_norm",
    "compression_norm",
    "rayleigh_quotient",
    "isometry_dims",
    "isometry_rows",
    "isometry_sweep",
]

# Szego vectors are only defined strictly inside the circle.
MAX_SZEGO_MODULUS = 1.0 - 1e-6


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


@dataclass(frozen=True, eq=False)
class SzegoVector:
    """Truncated reproducing kernel at a point ``w`` strictly inside the circle.

    ``values[k] = conj(w)**k`` for ``k = 0 .. dim-1``, so ``values[0] == 1``.
    Rayleigh quotients against these vectors converge to ``f(w)``.
    """

    point: complex
    values: np.ndarray

    def __post_init__(self):
        point = complex(self.point)
        if abs(point) > MAX_SZEGO_MODULUS:
            raise ValueError(
                f"kernel point must satisfy |w| <= {MAX_SZEGO_MODULUS}, got |w| = {abs(point)}"
            )
        values = _freeze(self.values)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("values must be a nonempty vector")
        if values[0] != 1:
            raise ValueError("values[0] must equal 1")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "values", values)

    @classmethod
    def truncated(cls, point: complex, dim: int) -> "SzegoVector":
        point = complex(point)
        values = np.conj(point) ** np.arange(int(dim))
        return cls(point, values)


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


def build_bilateral(f: WienerElement, dim: int) -> TruncatedOperator:
    """Symbol applied to the cyclic shift: a circulant matrix.

    Requires ``dim >= support_length`` so that distinct coefficients never
    alias onto the same residue mod ``dim``; entry ``(i, j)`` is the
    coefficient at the unique support index congruent to ``i - j``.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if dim < f.support_length:
        raise ValueError(
            f"dim {dim} is smaller than the support length {f.support_length}; "
            "coefficients would alias"
        )
    first_col = np.zeros(dim, dtype=complex)
    for k, c in enumerate(f.coeffs):
        first_col[(f.offset + k) % dim] += c
    i = np.arange(dim)
    matrix = first_col[(i[:, None] - i[None, :]) % dim]
    return TruncatedOperator(matrix, OperatorKind.BILATERAL_CIRCULANT, f, dim)


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


def compression_norm(f: WienerElement, dim: int) -> float:
    """``||T_N(f)||`` for ``T_N(f) = build_unilateral(f, dim)``, without the matrix.

    The square root of the largest eigenvalue of the banded Gram matrix
    ``T_N(f)^H T_N(f)`` (see :func:`_gram_band`), O(N q^2) for bandwidth
    ``q``.
    """
    from scipy.linalg import eigvals_banded

    band, scale = _gram_band(f, dim)
    if scale == 0.0:
        return 0.0
    last = band.shape[1] - 1
    try:
        top = eigvals_banded(band, lower=True, select="i", select_range=(last, last))[0]
    except np.linalg.LinAlgError:  # LAPACK hbevx can fail on a band within 1e-16 of I
        top = eigvals_banded(band, lower=True)[-1]
    return scale * float(np.sqrt(max(top, 0.0)))


def rayleigh_quotient(f: WienerElement, w: SzegoVector) -> complex:
    """``<A k_w, k_w> / <k_w, k_w>`` for ``A = build_unilateral(f, len(k_w))``.

    Converges to ``f(w.point)`` as the truncation grows, and its modulus
    never exceeds the operator norm.
    """
    k = w.values
    a = build_unilateral(f, k.shape[0]).matrix
    return complex(np.vdot(k, a @ k) / np.vdot(k, k))


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
