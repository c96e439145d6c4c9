"""Moving-average simulation, innovation recovery, and ergodic diagnostics.

A causal transfer ``f(z) = 1 + a_1 z + ... + a_q z**q`` drives
``X_t = sum_j a_j eps_{t-j}`` with i.i.d. Gaussian innovations.  When every
root of ``f`` lies strictly outside the unit circle the innovations can be
recovered from the observed path by an absolutely summable autoregression;
when a root sits strictly inside, the same formal recursion produces
divergent coefficients and the reconstruction error grows geometrically in
the lag cutoff.  Both regimes are exercised here, along with partial-sum
convergence of l1 filters, sample-mean scaling, and recovery of the
invertible transfer from exact autocovariances.

All randomness flows through numpy's Philox generator keyed directly by the
user seed; distinct seeds give independent streams, and the generator name
and numpy version ride along in the export metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import invertibility, wiener
from .invertibility import (
    NotInvertibleError,
    Verdict,
    classify_roots,
    invert_causal,
)
from .wiener import WienerElement

__all__ = [
    "GENERATOR_NAME",
    "ProcessSample",
    "ReconstructionReport",
    "FilterConvergenceRow",
    "ErgodicRow",
    "WoldEstimate",
    "simulate",
    "reconstruct_innovations",
    "divergence_demo",
    "formal_ar_coefficients",
    "l1_filter_convergence",
    "ergodic_mean_check",
    "ma_autocovariance",
    "wold_estimate",
    "sample_to_csv",
    "metadata_sidecar",
    "reconstruction_csv",
    "divergence_csv",
    "filter_csv",
    "ergodic_csv",
]

GENERATOR_NAME = "numpy.random.Philox"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _real_coefficients(f: WienerElement, what: str) -> np.ndarray:
    a = f.to_array()
    if np.any(a.imag != 0):
        raise ValueError(f"{what} must have real coefficients for real-valued paths")
    return a.real.copy()


@dataclass(frozen=True, eq=False)
class ProcessSample:
    """A simulated path together with everything needed to replay it.

    ``innovations`` includes the warm-up block (one draw per transfer
    coefficient) ahead of the ``t_len`` aligned draws, so
    ``innovations[warmup + t]`` is the innovation entering ``path[t]`` at
    lag 0.  Re-simulating with the stored seed reproduces both arrays bit
    for bit.
    """

    path: np.ndarray
    innovations: np.ndarray
    sigma: float
    transfer: WienerElement
    seed: int

    def __post_init__(self):
        for name in ("path", "innovations"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def warmup(self) -> int:
        return len(self.innovations) - len(self.path)

    @property
    def t_len(self) -> int:
        return len(self.path)

    @property
    def aligned_innovations(self) -> np.ndarray:
        """Innovations ``eps_t`` for ``t = 0 .. t_len-1`` (warm-up dropped)."""
        return self.innovations[self.warmup :]


def simulate(f: WienerElement, sigma: float, t_len: int, seed: int) -> ProcessSample:
    """Draw ``X_t = sum_j a_j eps_{t-j}`` for ``t = 0 .. t_len-1``.

    Requires the Wold normalization ``a_0 = 1`` and a causal, real transfer.
    The warm-up innovations (one per transfer coefficient) are drawn from the
    same stream, never zero-padded, so the path is stationary from ``t = 0``.
    """
    t_len = int(t_len)
    if t_len < 1:
        raise ValueError("t_len must be at least 1")
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not f.is_causal:
        raise ValueError("transfer must be causal (offset >= 0)")
    a = _real_coefficients(f, "transfer")
    if f.coeff(0) != 1:
        raise ValueError(
            f"transfer must satisfy a_0 = 1, got a_0 = {f.coeff(0)}; "
            "divide every coefficient by a_0 first"
        )
    warmup = f.support_length
    eps = sigma * _rng(seed).standard_normal(warmup + t_len)
    path = np.convolve(eps, a)[warmup : warmup + t_len]
    return ProcessSample(path, eps, sigma, f, seed)


# Rows per leaf of the MSE ladder: all cutoffs run on one leaf while it sits in
# cache.  Above numpy's 128-element pairwise block, so a leaf's sum is exactly
# the subtree numpy's pairwise summation forms over the same rows.
_LADDER_LEAF = 16384


def _pairwise_leaves(n: int) -> list[int]:
    """Lengths, in order, of the leaves numpy's pairwise sum of ``n`` values splits into.

    numpy halves a run of more than 128 values at ``n // 2`` rounded down to a
    multiple of 8; the same split stops here at ``_LADDER_LEAF`` values.
    """
    if n <= _LADDER_LEAF:
        return [n]
    half = n // 2
    half -= half % 8
    return _pairwise_leaves(half) + _pairwise_leaves(n - half)


def _pairwise_total(leaf_sums, n: int):
    """Add the leaf sums (an iterator, in leaf order) up the tree of :func:`_pairwise_leaves`."""
    if n <= _LADDER_LEAF:
        return next(leaf_sums)
    half = n // 2
    half -= half % 8
    left = _pairwise_total(leaf_sums, half)
    return left + _pairwise_total(leaf_sums, n - half)


def _ar_ladder_mse(sample: ProcessSample, b: np.ndarray, max_lag: int) -> list[tuple[int, float]]:
    """MSE of ``eps_hat = X_t - sum_{n<=M} b_n X_{t-n}`` for ``M = 0 .. max_lag``.

    All cutoffs are scored on the common window ``t >= max_lag`` so the
    ladder is comparable row to row.  The window is scored leaf by leaf, every
    cutoff on one leaf before the next, in the operation order of the whole
    path ladder (filter terms, then the target, then the square); leaf sums
    added up numpy's pairwise tree make each MSE equal ``np.mean`` over the
    whole window bit for bit.
    """
    t_len = sample.t_len
    if max_lag >= t_len:
        raise ValueError(f"max_lag {max_lag} needs a path longer than {t_len}")
    path = sample.path
    target = sample.aligned_innovations[max_lag:]
    n = t_len - max_lag
    leaves = _pairwise_leaves(n)
    sums = np.empty((len(leaves), max_lag + 1))
    eps_buf, term_buf, err_buf = (np.empty(max(leaves)) for _ in range(3))
    lo = 0
    for leaf, size in enumerate(leaves):
        eps_hat, term, err = eps_buf[:size], term_buf[:size], err_buf[:size]
        hi = lo + size
        np.copyto(eps_hat, path[max_lag + lo : max_lag + hi])
        for m in range(max_lag + 1):
            if m:
                np.multiply(b[m], path[max_lag - m + lo : max_lag - m + hi], out=term)
                np.subtract(eps_hat, term, out=eps_hat)
            np.subtract(eps_hat, target[lo:hi], out=err)
            np.square(err, out=err)
            sums[leaf, m] = err.sum()
        lo = hi
    mse = _pairwise_total(iter(sums), n) / n
    return [(m, float(mse[m])) for m in range(max_lag + 1)]


@dataclass(frozen=True)
class ReconstructionReport:
    """Autoregressive innovation recovery at a ladder of lag cutoffs."""

    ar_coeffs: tuple[float, ...]
    lag_cutoff: int
    mse_per_cutoff: tuple[tuple[int, float], ...]


def reconstruct_innovations(sample: ProcessSample, max_lag: int) -> ReconstructionReport:
    """Recover innovations through ``eps_t = X_t - sum b_n X_{t-n}``.

    The coefficients ``b_n = -g_n`` come from the certified causal inverse of
    the transfer, so the symbol must classify as Invertible.  The report's
    MSE ladder decays to the truncation floor set by the dropped tail.
    """
    max_lag = int(max_lag)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    classification = classify_roots(sample.transfer)
    if classification.verdict is not Verdict.INVERTIBLE:
        raise NotInvertibleError(
            "innovation recovery needs an Invertible transfer, got "
            f"{classification.verdict.value}",
            classification,
        )
    inv = invert_causal(
        sample.transfer, max_len=max(4 * max_lag + 64, 1024), eps=1e-12
    )
    b = np.zeros(max_lag + 1)
    for n in range(1, max_lag + 1):
        b[n] = -inv.inverse.coeff(n).real
    rows = _ar_ladder_mse(sample, b, max_lag)
    return ReconstructionReport(tuple(b[1:]), max_lag, tuple(rows))


def formal_ar_coefficients(f: WienerElement, max_lag: int) -> np.ndarray:
    """``b_1 .. b_max_lag`` from the formal series inverse, no convergence demanded.

    For symbols with a root inside the circle these diverge geometrically;
    they are exactly what :func:`divergence_demo` feeds back into the
    reconstruction recursion.
    """
    from .invertibility import _series_inverse_prefix

    if not f.is_causal or f.coeff(0) == 0:
        raise ValueError("formal inversion needs a causal symbol with a_0 != 0")
    g = _series_inverse_prefix(f.to_array(), int(max_lag) + 1)
    b = -g.real
    b[0] = 0.0
    return b


def divergence_demo(
    f: WienerElement,
    max_lag: int,
    seed: int,
    sigma: float = 1.0,
    t_len: int = 100_000,
) -> list[tuple[int, float]]:
    """Reconstruction MSE ladder for a non-invertible transfer.

    Applies the formal (divergent) autoregression coefficients to a freshly
    simulated path; the returned ``(M, MSE)`` rows grow geometrically, with
    ratio about ``|1/r|**2`` for the dominant inside root ``r``.
    """
    return _divergence_ladder(simulate(f, sigma, t_len, seed), max_lag)


def _divergence_ladder(sample: ProcessSample, max_lag: int) -> list[tuple[int, float]]:
    """:func:`divergence_demo`'s ladder on a path that is already simulated."""
    max_lag = int(max_lag)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    classification = classify_roots(sample.transfer)
    if classification.inside == 0:
        raise ValueError(
            "divergence demo needs a root strictly inside the circle; got verdict "
            f"{classification.verdict.value}"
        )
    b = formal_ar_coefficients(sample.transfer, max_lag)
    return _ar_ladder_mse(sample, b, max_lag)


@dataclass(frozen=True)
class FilterConvergenceRow:
    cutoff: int
    max_deviation: float
    mse: float


def _apply_filter(filt: WienerElement, path: np.ndarray, t0: int, t1: int, dtype) -> np.ndarray:
    """``sum_n a_n X_{t-n}`` for ``t = t0 .. t1``, accumulated in ascending n."""
    out = np.zeros(t1 - t0 + 1, dtype=dtype)
    if filt.is_zero:
        return out
    for k, c in enumerate(filt.coeffs):
        n = filt.offset + k
        coeff = c if dtype is complex else c.real
        out += coeff * path[t0 - n : t1 + 1 - n]
    return out


def _truncate_filter(filt: WienerElement, cutoff: int) -> WienerElement:
    lo = max(filt.offset, -cutoff)
    hi = min(filt.degree, cutoff)
    if lo > hi:
        return wiener.ZERO
    return WienerElement(filt.coeffs[lo - filt.offset : hi - filt.offset + 1], lo)


def l1_filter_convergence(
    sample: ProcessSample, filt: WienerElement, cutoffs
) -> list[FilterConvergenceRow]:
    """Partial sums ``sum_{|n| <= k} a_n X_{t-n}`` against the full filter.

    Rows are ``(cutoff, max_t |partial - full|, mean |partial - full|**2)``
    over the window where the full filter fits inside the path.  Partial and
    full sums share one accumulation order, so at a cutoff covering the whole
    support the deviation is exactly 0.0.  Every deviation obeys the triangle
    bound ``(sum_{|n| > k} |a_n|) * max_t |X_t|``.
    """
    cutoffs = [int(k) for k in cutoffs]
    if not cutoffs:
        raise ValueError("cutoffs must be nonempty")
    if any(k < 0 for k in cutoffs):
        raise ValueError("cutoffs must be nonnegative")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    t_len = sample.t_len
    t0 = max(filt.degree, 0)
    t1 = t_len - 1 + min(filt.offset, 0)
    if t1 < t0:
        raise ValueError("path too short for the filter support")
    dtype = complex if np.any(filt.to_array().imag != 0) else float
    full = _apply_filter(filt, sample.path, t0, t1, dtype)
    rows = []
    for k in cutoffs:
        partial = _apply_filter(_truncate_filter(filt, k), sample.path, t0, t1, dtype)
        diff = partial - full
        rows.append(
            FilterConvergenceRow(
                k, float(np.max(np.abs(diff))), float(np.mean(np.abs(diff) ** 2))
            )
        )
    return rows


@dataclass(frozen=True)
class ErgodicRow:
    t_len: int
    abs_mean: float
    predicted_std: float


def ergodic_mean_check(f: WienerElement, sigma: float, t_lens, seed: int) -> list[ErgodicRow]:
    """Sample means against the stationary prediction ``|f(1)| sigma / sqrt(T)``.

    One simulation per requested length, seeded ``seed, seed+1, ...`` (Philox
    keys, so the streams are independent).  An overdifferenced transfer with
    ``f(1) = 0`` telescopes and its means shrink faster than ``1/sqrt(T)``.
    """
    t_lens = [int(t) for t in t_lens]
    if not t_lens:
        raise ValueError("t_lens must be nonempty")
    if any(b <= a for a, b in zip(t_lens, t_lens[1:])):
        raise ValueError("t_lens must be strictly increasing")
    scale = abs(wiener.evaluate(f, 1.0)) * float(sigma)
    rows = []
    for i, t_len in enumerate(t_lens):
        sample = simulate(f, sigma, t_len, int(seed) + i)
        rows.append(
            ErgodicRow(t_len, float(abs(sample.path.mean())), scale / math.sqrt(t_len))
        )
    return rows


def ma_autocovariance(f: WienerElement, sigma: float, max_lag: int) -> np.ndarray:
    """Exact autocovariances ``gamma(k) = sigma**2 sum_j a_j a_{j+k}``."""
    a = _real_coefficients(f, "transfer")
    if not f.is_causal:
        raise ValueError("transfer must be causal")
    gamma = np.zeros(int(max_lag) + 1)
    s2 = float(sigma) ** 2
    for k in range(min(len(a), max_lag + 1)):
        gamma[k] = s2 * float(np.dot(a[: len(a) - k], a[k:]))
    return gamma


# Largest residual max_k |sigma**2 sum_j a_j a_{j+k} - gamma_k| / gamma_0 a Wold
# factor may leave.  Measured on random MA(1..5): about 1e-9 at most with no root
# on the circle, 2e-6 with a root pair on it (5e-5 if another pair lies within
# 0.01), and 1e-4 and up for gamma whose spectral density dips below zero.
WOLD_RESIDUAL_TOL = 1e-5


@dataclass(frozen=True)
class WoldEstimate:
    """Invertible moving-average representative recovered from autocovariances.

    ``verdict`` is Borderline when a root of ``transfer`` lies on the circle as
    far as floating point can tell (the estimate then holds to about the square
    root of machine epsilon), else Invertible.
    """

    transfer: WienerElement
    sigma2: float
    verdict: Verdict


def wold_estimate(autocov, order: int) -> WoldEstimate:
    """Recover MA(q) coefficients and innovation variance from ``gamma(0..q)``.

    A spectral root split: the roots of the palindromic ``p(z) = z**q gamma(z)``
    (coefficients ``gamma_q .. gamma_1, gamma_0, gamma_1 .. gamma_q``) pair up
    as ``r`` and ``1/r``; the ``q`` of largest modulus give the invertible
    factor ``a(z) = prod (1 - z/r_i)``, never the mirrored one, and
    ``sigma**2 = gamma(0) / sum_j a_j**2``.  Floating point splits a double
    root of ``p`` on the circle by up to ``rho(r) = sqrt(2 eps sum_k |p_k|
    |r|**k / |p''(r)|)``; a root within ``4 rho(r)`` of it reads Borderline.

    The ``(q+1) x (q+1)`` autocovariance matrix must be positive definite,
    and ``ValueError`` is raised when no factor reproduces ``gamma`` to
    ``WOLD_RESIDUAL_TOL * gamma(0)``: its spectral density is then negative.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    gamma = np.asarray(autocov, dtype=float)
    if gamma.ndim != 1 or len(gamma) < order + 1:
        raise ValueError(f"need gamma(0..{order}), got {len(gamma)} values")
    gamma = gamma[: order + 1]
    from scipy.linalg import toeplitz

    try:
        np.linalg.cholesky(toeplitz(gamma))
    except np.linalg.LinAlgError:
        raise ValueError(
            "autocovariance matrix is not positive definite"
        ) from None
    # rescale exactly to gamma_0 in [0.5, 1); zero top lags add no roots
    scaled = np.ldexp(gamma, -math.frexp(gamma[0])[1])
    q = int(np.flatnonzero(scaled)[-1])
    p = np.concatenate([scaled[q:0:-1], scaled[: q + 1]])
    roots = invertibility._companion_eigenvalues(tuple(p))
    by_modulus = np.argsort(np.abs(roots))
    # prod (1 - z/r_i) ascending is the monic polynomial with roots 1/r_i, descending
    a = np.atleast_1d(np.poly(1.0 / roots[by_modulus[q:]])).real
    sigma2 = float(gamma[0] / np.dot(a, a))
    fit = scaled[0] / np.dot(a, a) * np.correlate(a, a, "full")[q:]
    residual = np.max(np.abs(fit - scaled[: q + 1])) / scaled[0]
    if not residual <= WOLD_RESIDUAL_TOL:
        raise ValueError(f"autocovariances do not extend to a valid MA model (residual {residual:.3e})")
    # d <= 4 rho(r) as d**2 |p''| <= 32 eps sum_k |p_k| |r|**k, tested on the kept
    # roots' mirror images |w| <= 1, where no term of p overflows
    inner = roots[by_modulus[:q]]
    poly = np.polynomial.polynomial
    spread = 32 * np.finfo(float).eps * poly.polyval(np.abs(inner), np.abs(p))
    curvature = np.abs(poly.polyval(inner, poly.polyder(p, 2)))
    merged = np.any((1.0 - np.abs(inner)) ** 2 * curvature <= spread)
    verdict = Verdict.BORDERLINE if merged else Verdict.INVERTIBLE
    return WoldEstimate(WienerElement(tuple(a)), sigma2, verdict)


# -- export helpers ---------------------------------------------------------


# sample.csv is encoded CSV_BLOCK_ROWS rows at a time with array operations.
# Each cell is the exact text of format(x, ".17g"): for 1e-4 <= |x| < 1e17
# (plain notation) the 17 significant digits are computed here, every other
# value (0, tiny, huge, inf, nan) is formatted by Python.
CSV_BLOCK_ROWS = 16384

_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp split ``a = hi + lo`` with both halves of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _decimal17(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``n`` and exponent ``e`` of ``ax`` rounded to 17 significant digits.

    Needs ``1e-4 <= ax < 1e17``.  Returns int64 arrays with
    ``1e16 <= n < 1e17`` such that ``n * 10**(e - 16)`` is the exact value of
    ``ax`` rounded half-even, as ``format(x, ".17g")`` rounds it.  The product
    ``ax * 10**(16 - e)`` is formed exactly as ``hi + lo`` (Dekker's
    TwoProduct); ``hi`` is then an even integer above 2**53, so
    ``hi + rint(lo)`` rounds the exact value half-even.  No double in that
    range lies within 5e-18 relative below a power of ten, so ``n`` never
    rounds up to ``10**17``.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    np.clip(e, -4, 16, out=e)
    n = np.empty(len(ax), dtype=np.int64)
    todo = slice(None)
    while True:
        s = 16 - e[todo]
        a = ax[todo]
        hi = a * _POW10[s]
        a_hi, a_lo = _split(a)
        p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        n[todo] = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        # log10 can be one off next to a power of ten: test the exact product
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        redo = below | above
        if not redo.any():
            return n, e
        e[todo] += above.astype(np.int64) - below
        todo = np.flatnonzero(redo) if isinstance(todo, slice) else todo[redo]


_GROUP4 = np.arange(10_000)
_DIGITS4 = (  # "0000" .. "9999", four ASCII bytes each
    (_GROUP4[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view("<u4")
    .ravel()
)
# trailing decimal zeros of the 4-digit groups ("0000" has 4)
_TRAILING_ZEROS4 = sum((_GROUP4 % 10**k == 0).astype(np.int64) for k in range(1, 5))

# A cell is 32 bytes, read as four little-endian uint64 words: byte 0 is the
# ',' before the value, byte 1 its sign, the value's characters follow, and
# NUL bytes anywhere are dropped when a block is emitted.  The digit source
# has '0' at bytes 0..6 (bytes 3..6 serve as the zeros of "0.000ddd") and the
# 17 digits at bytes 7..23.  The cell takes the integer part from the source
# shifted down one byte, then '.', then the fraction in place, so the '.'
# lands at byte 7 + e.  Which source bytes survive depends only on the
# exponent e and the position of the last nonzero digit, so three 32-byte
# templates per (e, last) pair do the layout.
_CELL_WORDS = 4


def _cell_templates() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    shifted = np.zeros((21, 17, 32), dtype=np.uint8)
    in_place = np.zeros((21, 17, 32), dtype=np.uint8)
    constant = np.zeros((21, 17, 32), dtype=np.uint8)
    for e in range(-4, 17):
        for last in range(17):
            first = 7 + min(e, 0)  # "0" of "0.000ddd" or the leading digit
            end = 7 + max(e, last)  # the last digit printed
            k = (e + 4, last)
            shifted[k][first - 1 : 7 + e] = 0xFF
            in_place[k][8 + e : end + 1] = 0xFF
            constant[k][0] = ord(",")
            if last > e:
                constant[k][7 + e] = ord(".")
    return tuple(t.reshape(21 * 17, 32).view("<u8") for t in (shifted, in_place, constant))


_SHIFTED_MASK, _IN_PLACE_MASK, _CELL_CONSTANT = _cell_templates()


def _encode_cells(values: np.ndarray) -> np.ndarray:
    """``"," + format(x, ".17g")`` for every ``x`` as NUL-padded 32-byte cells."""
    ax = np.abs(values)
    fast = (ax >= 1e-4) & (ax < 1e17)
    n, e = _decimal17(np.where(fast, ax, 1.0))
    top, low8 = np.divmod(n, 10**8)
    d0, top = np.divmod(top, 10**8)
    groups = (d0, *np.divmod(top, 10**4), *np.divmod(low8, 10**4))
    source = np.zeros((len(values), 2 * _CELL_WORDS), dtype="<u4")
    source[:, 0] = _DIGITS4[0]
    for k, g in enumerate(groups, start=1):
        source[:, k] = np.take(_DIGITS4, g)
    trailing = np.take(_TRAILING_ZEROS4, groups[1])
    for g in groups[2:]:
        trailing = np.where(g == 0, trailing + 4, np.take(_TRAILING_ZEROS4, g))
    key = (e + 4) * 17 + (16 - trailing)
    source = source.view("<u8")
    cells = source >> np.uint64(8)
    # byte 7 of each word takes byte 0 of the next word; the last word of a
    # row takes the next row's first byte, which the templates clear
    cells.ravel()[:-1] |= source.ravel()[1:] << np.uint64(56)
    cells &= np.take(_SHIFTED_MASK, key, axis=0)
    source &= np.take(_IN_PLACE_MASK, key, axis=0)
    cells |= source
    cells |= np.take(_CELL_CONSTANT, key, axis=0)
    cells[:, 0] |= np.signbit(values) * np.uint64(ord("-") << 8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        bits, inverse = np.unique(values[slow].view(np.int64), return_inverse=True)
        texts = [f",{x:.17g}".encode("ascii") for x in bits.view(np.float64).tolist()]
        table = np.array(texts, dtype=f"S{8 * _CELL_WORDS}").view("<u8")
        cells[slow] = table.reshape(-1, _CELL_WORDS)[inverse.reshape(-1)]
    return cells


def _encode_rows(t0: int, path: np.ndarray, eps: np.ndarray, t_words: int) -> bytes:
    """Rows ``t,path,eps`` for ``t = t0, t0 + 1, ..``, each preceded by a newline."""
    rows = np.empty((len(path), t_words + 2 * _CELL_WORDS), dtype="<u8")
    t = np.arange(t0, t0 + len(path), dtype=np.int64)
    groups = []
    rest = t
    for _ in range(2 * t_words):
        rest, group = np.divmod(rest, 10**4)
        groups.append(np.take(_DIGITS4, group))
    t_bytes = rows[:, :t_words].view(np.uint8)
    t_bytes[...] = np.stack(groups[::-1], axis=1).view(np.uint8)
    # blank the leading zeros; byte 0 is always one of them and takes the newline
    width = 8 * t_words
    place = np.array([10 ** (width - 1 - j) for j in range(width - 1)] + [0])
    t_bytes *= t[:, None] >= place
    t_bytes[:, 0] = ord("\n")
    rows[:, t_words : t_words + _CELL_WORDS] = _encode_cells(path)
    rows[:, t_words + _CELL_WORDS :] = _encode_cells(eps)
    return rows.tobytes().translate(None, b"\0")


def sample_to_csv(sample: ProcessSample) -> bytearray:
    """CSV with header ``t,X_t,eps_t`` ('.' decimal separator, %.17g cells), as ASCII bytes.

    Every cell is byte for byte the text of ``format(x, ".17g")``.  The
    buffer is returned as built, with no decode to ``str``, so the caller can
    write it to disk without a copy.
    """
    path = sample.path
    eps = sample.aligned_innovations
    t_words = -(-(len(str(sample.t_len - 1)) + 1) // 8)  # '\n' and the digits of t
    # one growing buffer: a list of block strings interleaves with the block
    # temporaries on the heap and can keep 50 MB more of it resident
    text = bytearray(b"t,X_t,eps_t")
    for t0 in range(0, sample.t_len, CSV_BLOCK_ROWS):
        block = slice(t0, t0 + CSV_BLOCK_ROWS)
        text += _encode_rows(t0, path[block], eps[block], t_words)
    text += b"\n"
    return text


def metadata_sidecar(sample: ProcessSample) -> dict:
    """Seed and generator provenance for a stochastic export."""
    return {
        "seed": sample.seed,
        "generator": GENERATOR_NAME,
        "numpy_version": np.__version__,
        "sigma": sample.sigma,
        "t_len": sample.t_len,
        "warmup": sample.warmup,
        "transfer": wiener.to_json_dict(sample.transfer),
    }


def _two_column_csv(header: str, rows) -> str:
    lines = [header]
    for first, second in rows:
        lines.append(f"{first},{second:.17g}")
    return "\n".join(lines) + "\n"


def reconstruction_csv(report: ReconstructionReport) -> str:
    return _two_column_csv("M,mse", report.mse_per_cutoff)


def divergence_csv(rows) -> str:
    return _two_column_csv("M,mse", rows)


def filter_csv(rows) -> str:
    lines = ["cutoff,max_deviation,mse"]
    for r in rows:
        lines.append(f"{r.cutoff},{r.max_deviation:.17g},{r.mse:.17g}")
    return "\n".join(lines) + "\n"


def ergodic_csv(rows) -> str:
    lines = ["T,abs_mean,predicted_std"]
    for r in rows:
        lines.append(f"{r.t_len},{r.abs_mean:.17g},{r.predicted_std:.17g}")
    return "\n".join(lines) + "\n"
