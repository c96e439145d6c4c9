"""Independent reference constructions used only by the tests.

``build_toeplitz`` builds the same matrix as
:func:`shiftop.operators.build_unilateral` through a deliberately different
route (projected multiplication, column by column), so the two can be
compared entrywise.  ``build_bilateral`` builds the circulant truncation,
whose eigenvalues are the symbol's values at the N-th roots of unity: the
bilateral side of the asymmetry that
:func:`shiftop.invertibility.asymmetry_report` reads off the grid spectrum.
``wide_log10`` is the base-10 logarithm of a ``WideFloat`` past float max.
``dump_matrix`` writes a dense text dump for exact
round-trip comparisons.  ``sample_csv_oracle`` writes ``sample.csv`` one
f-string per row, the reference for the block encoder in
:func:`shiftop.process.sample_to_csv`.  ``series_inverse_oracle`` runs the
power-series inverse recursion one coefficient at a time, the reference for
the banded solve in ``shiftop.invertibility._series_inverse_prefix``, and
``dense_inverse_norm`` takes ``||T_N(f)^{-1}||`` from a dense SVD of the
Toeplitz matrix of that series.  ``prefix_bound_oracle`` forms the prefix
``g_L``, its residual ``r_L`` and the bound ``||g_L|| ||r_L|| / (1 - ||r_L||)``
in exact rational arithmetic, the reference for
``shiftop.invertibility._prefix_norms`` and ``_prefix_bounds``.
``doubling_series_inverse`` certifies the series inverse from prefixes
solved at lengths 64, 128, ... up to ``max_len``, the reference for the
predicted prefix lengths of ``shiftop.invertibility._series_inverse``;
``NEAR_CIRCLE_ROOT_CLASSES`` holds one symbol of each class the
benchmark's near_circle workload inverts.
``gram_eigenvalue_oracle`` bisects from the plain Gershgorin bracket, the
reference for the estimated start of ``shiftop.operators._gram_eigenvalue``;
``ANALYZE_ROOT_CLASSES`` holds one symbol of each root class the benchmark's
analyze workload plants.
``evaluate_on_grid_oracle`` recomputes the unit-root grid and runs an
allocating Horner loop, the reference for the cached grid and in-place Horner
of ``shiftop.wiener.evaluate_on_grid``.  ``ar_ladder_oracle`` scores the
reconstruction MSE ladder with one ``np.mean`` over the whole path per cutoff,
the reference that the leaf-blocked ``shiftop.process._ar_ladder_mse`` must
match bit for bit.  ``sample_csv_oracle`` returns ``str``; the encoder returns
ASCII bytes, which the tests decode before comparing.  ``json_text_oracle``
writes a CLI document through ``json.dumps(indent=2, allow_nan=False)``,
pairs and decimal literals spliced in by a placeholder and a regex pass, the
reference for the one-pass writer ``shiftop.cli._json_text``.
``canonical_form_oracle`` trims coefficients one generator step at a time,
the reference for the vectorised ``WienerElement.__post_init__``.
``SzegoVector`` and ``rayleigh_quotient`` test the compression ``T_N(f)``
against the symbol inside the disc: Rayleigh quotients against truncated
reproducing kernels converge to ``f(w)``.
"""

import cmath
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shiftop import invertibility, wiener
from shiftop.invertibility import InversionResult, InversionSide, TailNotCertifiedError, WideFloat
from shiftop.operators import build_unilateral
from shiftop.process import ProcessSample
from shiftop.wiener import WienerElement


def _frozen(array) -> np.ndarray:
    """``array`` as a read-only, C-contiguous complex array."""
    array = np.ascontiguousarray(array, dtype=complex)
    array.setflags(write=False)
    return array


def build_toeplitz(f: WienerElement, dim: int) -> np.ndarray:
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
        shifted = wiener.multiply(f, WienerElement((1,), j))
        for i in range(dim):
            matrix[i, j] = shifted.coeff(i)
    return _frozen(matrix)


def build_bilateral(f: WienerElement, dim: int) -> np.ndarray:
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
    return _frozen(matrix)


def wide_log10(w: WideFloat) -> float:
    """``log10`` of ``w = mantissa * 2**exponent``, also past float max."""
    return math.log10(w.mantissa) + w.exponent * math.log10(2.0)


def dump_matrix(matrix: np.ndarray) -> str:
    """Dense text dump: header ``N`` then N rows of ``re,im`` pairs."""
    lines = [str(matrix.shape[0])]
    for row in matrix:
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


def doubling_series_inverse(f: WienerElement, max_len: int, eps: float) -> InversionResult:
    """The first ``L`` with ``B(L) <= eps``, from prefixes solved at lengths
    64, 128, ... up to ``max_len``, each solved whole.

    Raises :class:`TailNotCertifiedError` with ``B(max_len)`` when no length
    certifies.
    """
    a = f.to_array()
    done, length = 0, min(64, max_len)
    while True:
        g = invertibility._series_inverse_prefix(a, length)
        bounds = invertibility._prefix_bounds(*invertibility._prefix_norms(a, g, done + 1))
        certified = np.flatnonzero(bounds <= eps)
        if len(certified):
            L, bound = done + 1 + int(certified[0]), float(bounds[certified[0]])
            return InversionResult(WienerElement(g[:L]), InversionSide.CAUSAL, L, bound)
        if length == max_len:
            raise TailNotCertifiedError(
                f"tail bound {bounds[-1]:.3e} after {max_len} coefficients exceeds eps = {eps:.3e}",
                float(bounds[-1]),
                max_len,
            )
        done, length = length, min(2 * length, max_len)


def dense_inverse_norm(f: WienerElement, dim: int) -> float:
    """``||T_N(f)^{-1}||`` from a dense SVD of ``T_N(1/f)``; inf once the series overflows.

    A real series takes the real SVD, which is several times faster.
    """
    g = series_inverse_oracle(f.to_array(), dim)
    if not np.all(np.isfinite(g)):
        return float("inf")
    matrix = build_unilateral(WienerElement(tuple(g)), dim)
    if not np.any(matrix.imag):
        matrix = matrix.real
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def gram_eigenvalue_oracle(band: np.ndarray) -> tuple[float, float, float]:
    """``shiftop.operators._gram_eigenvalue`` for the largest eigenvalue
    without an estimate: plain bisection by inertia from ``[G_00, Gershgorin
    bound]``, the reference the estimated start must match bit for bit."""
    from scipy.linalg import lapack

    q, diagonal = band.shape[0] - 1, band[0].real
    largest = float(diagonal.max())  # G_00
    unit = np.finfo(float).eps / 2
    margin = 8 * (q + 1) * (q + 3) * unit / (1 - (q + 3) * unit) * (2 * q + 1) * largest
    gershgorin = 2 * float(np.abs(band).max(axis=1).sum()) - largest
    shifted = np.asfortranarray(-band)
    lo, hi = largest, gershgorin
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        work = shifted.copy(order="F")
        work[0] += mid
        definite = lapack.zpbtrf(work, lower=1, overwrite_ab=1)[1] == 0
        lo, hi = (lo, mid) if definite else (mid, hi)
    return lo, hi, margin


def _from_roots(roots) -> WienerElement:
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1, -1 / r])
    return WienerElement(tuple(complex(c) for c in coeffs))


# The six root classes of the benchmark's analyze workload, at fixed radii and
# angles inside each class's range.  on_circle's coefficients are exact, and
# its real symbol peaks on a conjugate pair of points, so its top two Gram
# eigenvalues lie a relative 1e-7 apart at N = 512.
ANALYZE_ROOT_CLASSES = {
    "outside_d3": _from_roots([cmath.rect(2.1, 0.7), cmath.rect(1.6, 2.9), cmath.rect(2.4, -1.8)]),
    "inside_half": _from_roots([cmath.rect(0.51, 1.3)]),
    "straddle_d2": _from_roots([cmath.rect(0.7, -2.2), cmath.rect(1.4, 0.6)]),
    "mixed_d7": _from_roots(
        [cmath.rect(0.75, 0.4), cmath.rect(0.85, 2.6), cmath.rect(0.8, -1.5), cmath.rect(1.3, 1.1),
         cmath.rect(2.2, -2.8), cmath.rect(1.9, -0.3), cmath.rect(1.5, 3.0)]
    ),
    "on_circle": WienerElement((1.0, -0.6875, -0.3125)),
    "inside_third": _from_roots([cmath.rect(0.33, -2.0)]),
}


# One symbol of each class of the benchmark's near_circle workload, its roots
# at the planted distances from the circle and at fixed angles: one to three
# roots 1e-3 to 1e-2 outside (causal) or inside (anticausal) it, and two roots
# 4e-4 outside, whose tail is not certified within 65536 coefficients at eps
# 1e-10.  anticausal_d3's roots lie within 0.08 rad of each other.
NEAR_CIRCLE_ROOT_CLASSES = {
    "causal_d1": _from_roots([cmath.rect(1.001, -2.01)]),
    "anticausal_d1": _from_roots([cmath.rect(0.999, -3.12)]),
    "causal_d2": _from_roots([cmath.rect(1.003, -0.28), cmath.rect(1.01, 1.0)]),
    "anticausal_d2": _from_roots([cmath.rect(0.99, 0.14), cmath.rect(0.997, -0.98)]),
    "causal_d3": _from_roots(
        [cmath.rect(1.003, -1.97), cmath.rect(1.005, 2.72), cmath.rect(1.01, 0.5)]
    ),
    "anticausal_d3": _from_roots(
        [cmath.rect(0.99, -1.62), cmath.rect(0.995, -1.54), cmath.rect(0.997, -1.56)]
    ),
    "uncertified_d2": _from_roots([cmath.rect(1.0004, 0.81), cmath.rect(1.0004, -2.95)]),
}


def prefix_bound_oracle(coeffs, length: int) -> Fraction | None:
    """``||g_L||_1 ||r_L||_1 / (1 - ||r_L||_1)`` for ``L = length``, exactly, or
    None when ``||r_L||_1 >= 1``.

    ``coeffs`` are the real floats ``a_0 .. a_q``, taken as exact rationals;
    ``g_L`` runs the recursion ``g_n = -(1/a_0) sum a_k g_{n-k}`` in
    ``Fraction`` arithmetic, and ``r_{L,k} = sum_{j>k} a_j g_{L+k-j}``.
    """
    a = [Fraction(float(c)) for c in coeffs]
    q = len(a) - 1
    g = []
    for n in range(length):
        acc = Fraction(int(n == 0))
        acc -= sum(a[k] * g[n - k] for k in range(1, min(n, q) + 1))
        g.append(acc / a[0])
    residual = sum(
        abs(sum(a[j] * g[length + k - j] for j in range(k + 1, q + 1) if length + k - j >= 0))
        for k in range(q)
    )
    if residual >= 1:
        return None
    return sum(abs(x) for x in g) * residual / (1 - residual)


def evaluate_on_grid_oracle(f: WienerElement, grid_size: int) -> np.ndarray:
    """Values of ``f`` at ``exp(2 pi i k / grid_size)``: a fresh grid, a new array per Horner step."""
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    total = np.zeros(z.shape, dtype=complex)
    lo, hi = f.offset, f.degree
    if lo < 0:
        u = 1.0 / z
        m = min(hi, -1)
        acc = np.zeros(z.shape, dtype=complex)
        for c in f.coeffs[: m - lo + 1]:
            acc = acc * u + c
        total = total + acc * u ** (-m)
    if hi >= 0:
        p0 = max(lo, 0)
        acc = np.zeros(z.shape, dtype=complex)
        for c in reversed(f.coeffs[p0 - lo :]):
            acc = acc * z + c
        if p0 > 0:
            acc = acc * z**p0
        total = total + acc
    return total


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


# a WideFloat past float max goes through json.dumps as this prefix plus its
# decimal literal, and the quoted string is then replaced by the bare literal;
# a document string that itself starts with NUL would be unquoted the same way
_LITERAL_MARK = "\0"
_LITERAL_STRING = re.compile(r'"\\u0000([^"]*)"')


def _json_default(value):
    """A WideFloat as its float or literal, a complex array as ``[re, im]`` lists."""
    if isinstance(value, WideFloat):
        number = float(value)
        return _LITERAL_MARK + value.text() if math.isinf(number) else number
    if isinstance(value, np.ndarray):
        return [[complex(v).real, complex(v).imag] for v in value]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text_oracle(document) -> str:
    """Strict JSON text of ``document`` with ``indent=2`` and a final newline."""
    text = json.dumps(document, indent=2, allow_nan=False, default=_json_default)
    return _LITERAL_STRING.sub(r"\1", text) + "\n"


def canonical_form_oracle(coeffs, offset: int = 0) -> tuple[tuple[complex, ...], int]:
    """``(coeffs, offset)`` trimmed to the first and last nonzero, one step per coefficient."""
    coeffs = tuple(complex(v) for v in coeffs)
    if not coeffs:
        raise ValueError("coeffs must be nonempty")
    offset = int(offset)
    first = next((i for i, c in enumerate(coeffs) if c != 0), None)
    if first is None:
        return (0j,), 0
    last = max(i for i, c in enumerate(coeffs) if c != 0)
    return coeffs[first : last + 1], offset + first


# Szego vectors are only defined strictly inside the circle.
MAX_SZEGO_MODULUS = 1.0 - 1e-6


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
        values = _frozen(self.values)
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


def rayleigh_quotient(f: WienerElement, w: SzegoVector) -> complex:
    """``<A k_w, k_w> / <k_w, k_w>`` for ``A = build_unilateral(f, len(k_w))``.

    Converges to ``f(w.point)`` as the truncation grows, and its modulus
    never exceeds the operator norm.
    """
    k = w.values
    a = build_unilateral(f, k.shape[0])
    return complex(np.vdot(k, a @ k) / np.vdot(k, k))
