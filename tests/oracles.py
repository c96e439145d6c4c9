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
Toeplitz matrix of that series.  ``certified_length_oracle`` walks the
geometric tail bound one length at a time, the reference for the log-space
``shiftop.invertibility._certified_length``.  ``ar_ladder_oracle`` scores the
reconstruction MSE ladder with one ``np.mean`` over the whole path per cutoff,
the reference that the leaf-blocked ``shiftop.process._ar_ladder_mse`` must
match bit for bit.  ``sample_csv_oracle`` returns ``str``; the encoder returns
ASCII bytes, which the tests decode before comparing.
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


def certified_length_oracle(rho: float, q: int, a0_abs: float, max_len: int, eps: float):
    """``(L, bound)`` for the smallest ``L <= max_len`` with tail bound ``<= eps``, else None.

    The bound ``C(L+q-1, q-1) rho**L / (|a_0| (1 - rho)**q)`` is updated
    multiplicatively in ``L``; it may overflow to inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = 1.0 / (a0_abs * (1.0 - rho) ** q)
        term = rho  # C(L+q-1, q-1) rho**L at L = 1
        for j in range(1, q):
            term *= (1 + j) / j
        for length in range(1, max_len + 1):
            bound = term * scale
            if bound <= eps:
                return length, bound
            term *= rho * (length + q) / (length + 1)
    return None


def ar_ladder_oracle(sample: ProcessSample, b: np.ndarray, max_lag: int) -> list[tuple[int, float]]:
    """MSE of ``eps_hat = X_t - sum_{n<=M} b_n X_{t-n}`` for ``M = 0 .. max_lag``.

    All cutoffs are scored on the common window ``t >= max_lag``, each with
    one pass over the whole window.
    """
    t_len = sample.t_len
    if max_lag >= t_len:
        raise ValueError(f"max_lag {max_lag} needs a path longer than {t_len}")
    path = sample.path
    target = sample.aligned_innovations[max_lag:]
    eps_hat = path[max_lag:].copy()
    rows = [(0, float(np.mean((eps_hat - target) ** 2)))]
    for m in range(1, max_lag + 1):
        eps_hat -= b[m] * path[max_lag - m : t_len - m]
        rows.append((m, float(np.mean((eps_hat - target) ** 2))))
    return rows
