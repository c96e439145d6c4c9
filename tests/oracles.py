"""Independent reference constructions used only by the tests.

``build_toeplitz`` builds the same matrix as
:func:`shiftop.operators.build_unilateral` through a deliberately different
route (projected multiplication, column by column), so the two can be
compared entrywise.  ``dump_matrix`` writes a dense text dump for exact
round-trip comparisons.  ``sample_csv_oracle`` writes ``sample.csv`` one
f-string per row, the reference for the block encoder in
:func:`shiftop.process.sample_to_csv`.  ``series_inverse_oracle`` runs the
power-series inverse recursion one coefficient at a time, the reference for
the banded solve in ``shiftop.invertibility._series_inverse_prefix``, and
``dense_inverse_norm`` takes ``||T_N(f)^{-1}||`` from a dense SVD of the
Toeplitz matrix of that series.
"""

import numpy as np

from shiftop import wiener
from shiftop.operators import OperatorKind, TruncatedOperator, build_unilateral
from shiftop.process import ProcessSample
from shiftop.wiener import WienerElement


def build_toeplitz(f: WienerElement, dim: int) -> TruncatedOperator:
    """Toeplitz matrix of ``f`` by projected multiplication, column by column.

    Column ``j`` is the coefficient sequence of ``f(z) * z**j`` with negative
    indices projected away, truncated to indices ``0 .. dim-1``.  For causal
    symbols it agrees with ``build_unilateral`` entrywise.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not f.is_causal:
        raise ValueError(
            "Toeplitz construction needs a causal symbol (offset >= 0); "
            f"got offset {f.offset}"
        )
    matrix = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shifted = wiener.multiply(f, wiener.monomial(j))
        for i in range(dim):
            matrix[i, j] = shifted.coeff(i)
    return TruncatedOperator(matrix, OperatorKind.UNILATERAL_COMPRESSION, f, dim)


def dump_matrix(operator: TruncatedOperator) -> str:
    """Dense text dump: header ``"N kind"`` then N rows of ``re,im`` pairs."""
    lines = [f"{operator.dim} {operator.kind.value}"]
    for row in operator.matrix:
        lines.append(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row))
    return "\n".join(lines) + "\n"


def sample_csv_oracle(sample: ProcessSample) -> str:
    """``sample.csv`` text: header ``t,X_t,eps_t``, then one ``%.17g`` row per step."""
    eps = sample.aligned_innovations
    lines = ["t,X_t,eps_t"]
    for t in range(sample.t_len):
        lines.append(f"{t},{sample.path[t]:.17g},{eps[t]:.17g}")
    return "\n".join(lines) + "\n"


def series_inverse_oracle(coeffs, length: int) -> np.ndarray:
    """First ``length`` coefficients of ``1/f``, one dot product per coefficient.

    ``g_0 = 1/a_0`` and ``g_n = -(1/a_0) sum_{k=1..min(n,q)} a_k g_{n-k}``.
    """
    a = np.asarray(coeffs, dtype=complex)
    q = len(a) - 1
    g = np.zeros(length, dtype=complex)
    g[0] = 1.0 / a[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, length):
            k = min(n, q)
            acc = np.dot(a[1 : k + 1], g[n - 1 :: -1][:k])
            g[n] = -acc / a[0]
    return g


def dense_inverse_norm(f: WienerElement, dim: int) -> float:
    """``||T_N(f)^{-1}||`` from a dense SVD of ``T_N(1/f)``; inf once the series overflows.

    A real series takes the real SVD, which is several times faster.
    """
    g = series_inverse_oracle(f.to_array(), dim)
    if not np.all(np.isfinite(g)):
        return float("inf")
    matrix = build_unilateral(WienerElement(tuple(g)), dim).matrix
    if not np.any(matrix.imag):
        matrix = matrix.real
    return float(np.linalg.svd(matrix, compute_uv=False)[0])
