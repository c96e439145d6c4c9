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
user seed; distinct seeds give independent streams.  Of the output files
only ``sample.csv`` is encoded here (:func:`sample_to_csv`), a row block at
a time with array operations; given a file, each block is written to it as
soon as it is encoded, so a path's CSV text is never held whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import invertibility, wiener
from ._digits import _CELL_WORDS, _DIGITS4, _divmod, _g17_cells
# invert_causal is unused here but stays importable as process.invert_causal:
# the benchmark's tracer self-tests rebind and restore it at this site
from .invertibility import NotInvertibleError, Verdict, classify_roots, invert_causal  # noqa: F401
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
    "formal_reconstruction",
    "divergence_demo",
    "l1_filter_convergence",
    "ergodic_mean_check",
    "ma_autocovariance",
    "wold_estimate",
    "sample_to_csv",
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
    A path that passes float max (``inf`` or ``nan``) raises ``ValueError``.
    """
    t_len = int(t_len)
    if t_len < 1:
        raise ValueError("t_len must be at least 1")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite nonnegative number, got {sigma!r}")
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
    if not np.isfinite(path).all():
        t = int(np.flatnonzero(~np.isfinite(path))[0])
        raise ValueError(f"the sample path lies past float max at t = {t}")
    return ProcessSample(path, eps, sigma, f, seed)


# Rows per leaf of the MSE ladder: all cutoffs run on one leaf while it sits in
# cache.  Above numpy's 128-element pairwise block, so a leaf's sum is exactly
# the subtree numpy's pairwise summation forms over the same rows.
_LADDER_LEAF = 16384
# a product by either widens a bound past the rounding of one operation, up or down
_ROUND_UP = 1.0 + 2.0**-52
_ROUND_DOWN = 1.0 - 2.0**-52


def _pairwise_sum(leaf, n: int, lo: int = 0):
    """``leaf(start, size)`` of each leaf of rows ``lo .. lo + n``, added up numpy's pairwise tree.

    numpy halves a run of more than 128 values at ``n // 2`` rounded down to a
    multiple of 8; the same split stops here, at leaves of at most
    ``_LADDER_LEAF`` rows, so leaf sums added up this tree equal ``np.sum``
    over all the rows bit for bit.
    """
    if n <= _LADDER_LEAF:
        return leaf(lo, n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, half, lo) + _pairwise_sum(leaf, n - half, lo + half)


def _ar_ladder_mse(sample: ProcessSample, b: np.ndarray, max_lag: int) -> list[tuple[int, float]]:
    """MSE of ``eps_hat = X_t - sum_{n<=M} b_n X_{t-n}`` for ``M = 0 .. max_lag``.

    All cutoffs are scored on the common window ``t >= max_lag`` so the
    ladder is comparable row to row.  The window is scored leaf by leaf, every
    cutoff on one leaf before the next, in the operation order of the whole
    path ladder (filter terms, then the target, then the square); leaf sums
    added up numpy's pairwise tree make each MSE equal ``np.mean`` over the
    whole window bit for bit.

    A diverging ladder ends at its last finite MSE: once a residual passes
    float max it stays inf or nan at every larger cutoff.  ``ValueError``
    when not even ``M = 0`` is finite.

    A step whose term cannot move a float is not run.  On a leaf, each term
    ``fl(b_m x)`` is at most ``bound = |b_m| peak (1 + 2**-52)`` in modulus,
    ``peak`` the largest ``|X_t|`` the leaf reads (rounding is monotone).
    Once ``bound`` falls below a quarter-ulp of ``peak``, one pass takes
    ``low = min |eps_hat|``, and each step run after it lowers ``low`` to
    ``(low - bound)(1 - 2**-52)``, still at most every ``|eps_hat|``.  While
    ``bound < ulp(low) / 4`` the step is skipped: both float neighbours of
    an ``eps_hat`` with ``|eps_hat| >= low`` lie at least ``ulp(low) / 2``
    away (the one toward 0 is half an ulp away at a power of two), so
    ``eps_hat - term``, within a quarter-ulp, rounds back to ``eps_hat`` bit
    for bit, and the cutoff's leaf sum is the previous one.  An inf or nan
    ``bound``, or ``low = 0``, fails the test and the step runs.  An
    Invertible transfer's ``b_m`` decay geometrically, so its ladder ends in
    such a tail; a diverging one never reaches it.
    """
    t_len = sample.t_len
    if max_lag >= t_len:
        raise ValueError(f"max_lag {max_lag} needs a path longer than {t_len}")
    path = sample.path
    target = sample.aligned_innovations[max_lag:]
    n = t_len - max_lag
    eps_buf, term_buf, err_buf = (np.empty(min(n, _LADDER_LEAF)) for _ in range(3))
    b_abs = np.abs(b[: max_lag + 1])

    def leaf(lo: int, size: int) -> np.ndarray:
        eps_hat, term, err = eps_buf[:size], term_buf[:size], err_buf[:size]
        hi = lo + size
        sums = np.empty(max_lag + 1)
        np.copyto(eps_hat, path[max_lag + lo : max_lag + hi])
        peak = float(np.max(np.abs(path[lo : max_lag + hi])))
        bounds = (b_abs * peak * _ROUND_UP).tolist()
        low = None  # a lower bound on min |eps_hat|, taken once the terms are this small
        for m in range(max_lag + 1):
            if m:
                bound = bounds[m]
                if low is None and bound < math.ulp(peak) / 4:
                    low = float(np.min(np.abs(eps_hat, out=err)))
                if low is not None and bound < math.ulp(low) / 4:
                    sums[m] = sums[m - 1]
                    continue
                np.multiply(b[m], path[max_lag - m + lo : max_lag - m + hi], out=term)
                np.subtract(eps_hat, term, out=eps_hat)
                if low is not None:
                    # a negative difference clamps to 0, a nan stays nan: neither skips again
                    low = max(low - bound, 0.0) * _ROUND_DOWN
            np.subtract(eps_hat, target[lo:hi], out=err)
            np.square(err, out=err)
            sums[m] = err.sum()
        return sums

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite MSEs are cut below
        mse = _pairwise_sum(leaf, n) / n
    overflowed = np.flatnonzero(~np.isfinite(mse))
    stop = int(overflowed[0]) if len(overflowed) else max_lag + 1
    if stop == 0:
        raise ValueError("the reconstruction MSE lies past float max already at M = 0")
    return [(m, float(mse[m])) for m in range(stop)]


@dataclass(frozen=True)
class ReconstructionReport:
    """Autoregressive innovation recovery at a ladder of lag cutoffs.

    ``ar_coeffs`` are ``b_1 .. b_lag_cutoff``, ``b_n = -g_n`` from the formal
    power-series inverse ``g = 1/f`` of the transfer.  ``lag_cutoff`` is the
    last ``M`` of the ladder, below the requested one when a diverging ladder
    passes float max.
    """

    ar_coeffs: tuple[float, ...]
    lag_cutoff: int
    mse_per_cutoff: tuple[tuple[int, float], ...]


def reconstruct_innovations(sample: ProcessSample, max_lag: int) -> ReconstructionReport:
    """Recover innovations through ``eps_t = X_t - sum b_n X_{t-n}``.

    The coefficients ``b_n = -g_n`` come from the formal power-series inverse
    of the transfer, which is absolutely summable because the symbol must
    classify as Invertible.  The report's MSE ladder decays to the truncation
    floor set by the dropped tail.
    """
    classification = classify_roots(sample.transfer)
    if classification.verdict is not Verdict.INVERTIBLE:
        raise NotInvertibleError(
            "innovation recovery needs an Invertible transfer, got "
            f"{classification.verdict.value}",
            classification,
        )
    return formal_reconstruction(sample, max_lag)


def _formal_ar_coefficients(f: WienerElement, max_lag: int) -> np.ndarray:
    """``b_1 .. b_max_lag`` from the formal series inverse, no convergence demanded.

    For symbols with a root inside the circle these diverge geometrically;
    they are exactly what :func:`divergence_demo` feeds back into the
    reconstruction recursion.
    """
    if not f.is_causal or f.coeff(0) == 0:
        raise ValueError("formal inversion needs a causal symbol with a_0 != 0")
    g = invertibility._series_inverse_prefix(f.to_array(), int(max_lag) + 1)
    b = -g.real
    b[0] = 0.0
    return b


def formal_reconstruction(sample: ProcessSample, max_lag: int) -> ReconstructionReport:
    """The formal autoregression's MSE ladder with no root guard: it decays for
    an Invertible transfer and grows for one with a root inside the circle.

    The ``simulate`` command calls it on the exported sample, whatever the
    verdict; :func:`reconstruct_innovations` and :func:`divergence_demo` call
    it behind their root guards.
    """
    max_lag = int(max_lag)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    b = _formal_ar_coefficients(sample.transfer, max_lag)
    ladder = _ar_ladder_mse(sample, b, max_lag)
    cutoff = ladder[-1][0]
    return ReconstructionReport(tuple(b[1 : cutoff + 1]), cutoff, tuple(ladder))


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
    classification = classify_roots(f)
    if classification.inside == 0:
        raise ValueError(
            "divergence demo needs a root strictly inside the circle; got verdict "
            f"{classification.verdict.value}"
        )
    sample = simulate(f, sigma, t_len, seed)
    return list(formal_reconstruction(sample, max_lag).mse_per_cutoff)


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
    A mean past float max, as when the sum of a finite path overflows,
    raises ``ValueError``.
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
        # the pairwise sum of a finite path may overflow to inf, or from both signs to nan
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(abs(sample.path.mean()))
        if not math.isfinite(mean):
            raise ValueError(f"the sample mean over T = {t_len} lies past float max")
        rows.append(ErgodicRow(t_len, mean, scale / math.sqrt(t_len)))
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
# factor may leave.  Measured on random MA(1..5), the root split alone leaves
# about 1e-9 at most with no root on the circle, 2e-6 with a root pair on it
# (5e-5 if another pair lies within 0.01); after the Gauss-Newton polish, 5e-16
# at most in all three cases (500 each).  gamma whose spectral density dips to
# -1e-3 gamma_0 leave 1.7e-4 and up.
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


def _factor_residual(a: np.ndarray, gamma: np.ndarray) -> float:
    """``max_k |gamma_0 / sum_j a_j**2 * sum_j a_j a_{j+k} - gamma_k| / gamma_0``."""
    fit = gamma[0] / np.dot(a, a) * np.correlate(a, a, "full")[len(a) - 1 :]
    return float(np.max(np.abs(fit - gamma)) / gamma[0])


def _polished_factor(a: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, float]:
    """The factor ``a`` (``a_0 = 1``) after at most three Gauss-Newton steps on
    ``c * c = gamma`` for ``c = sigma a``, and its residual.

    The Jacobian of ``c -> (sum_j c_j c_{j+k})_k`` is ``J[k, m] = c_{m-k} +
    c_{m+k}`` (G. Wilson, SIAM J. Numer. Anal. 6, 1969).  It is singular where
    a root pair of ``c`` lies on the circle, and a full step along its near-null
    directions overshoots, so singular values under ``sqrt(eps)`` of the
    largest are dropped (a least-squares step).  Each step is renormalised to
    ``a_0 = 1`` and kept only while it lowers the residual, so the root split's
    factor comes back unchanged when no step improves it.
    """
    residual = _factor_residual(a, gamma)
    q = len(a) - 1
    k = np.arange(q + 1)
    c = math.sqrt(gamma[0] / np.dot(a, a)) * a
    for _ in range(3 if q and math.isfinite(residual) else 0):
        padded = np.concatenate([np.zeros(q), c, np.zeros(q)])  # c_i at q + i, zero past 0 .. q
        jac = padded[q + k - k[:, None]] + padded[q + k + k[:, None]]
        fit = np.correlate(c, c, "full")[q:]
        c = c - np.linalg.lstsq(jac, fit - gamma, rcond=math.sqrt(np.finfo(float).eps))[0]
        polished = c / c[0]
        polished_residual = _factor_residual(polished, gamma)
        if not polished_residual < residual:
            break
        a, residual = polished, polished_residual
    return a, residual


def wold_estimate(autocov, order: int) -> WoldEstimate:
    """Recover MA(q) coefficients and innovation variance from ``gamma(0..q)``.

    A spectral root split: the roots of the palindromic ``p(z) = z**q gamma(z)``
    (coefficients ``gamma_q .. gamma_1, gamma_0, gamma_1 .. gamma_q``) pair up
    as ``r`` and ``1/r``; the ``q`` of largest modulus give the invertible
    factor ``a(z) = prod (1 - z/r_i)``, never the mirrored one, and
    ``sigma**2 = gamma(0) / sum_j a_j**2``.  Floating point splits a double
    root of ``p`` on the circle by up to ``rho(r) = sqrt(2 eps sum_k |p_k|
    |r|**k / |p''(r)|)``; a root within ``4 rho(r)`` of it reads Borderline.
    At most three Gauss-Newton steps then polish the split's factor
    (:func:`_polished_factor`), which near merged pairs leaves too large a
    residual on its own.

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
    a, residual = _polished_factor(a, scaled[: q + 1])
    sigma2 = float(gamma[0] / np.dot(a, a))
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


# -- the sample.csv encoder --------------------------------------------------


# sample.csv is encoded CSV_BLOCK_ROWS rows at a time with array operations.
# Each cell is the exact text of format(x, ".17g"), laid out by
# shiftop._digits (_g17_cells), which also writes the floats of JSON arrays.
CSV_BLOCK_ROWS = 16384
# _T_MASKS[d] keeps the last d of _T_MASK_WIDTH bytes: the digits of a t with d
# digits, right-aligned in its words; three words hold '\n' and any int64
_T_MASK_WIDTH = 24
_T_MASKS = np.where(
    np.arange(_T_MASK_WIDTH) >= _T_MASK_WIDTH - np.arange(_T_MASK_WIDTH)[:, None], 0xFF, 0
).astype(np.uint8)


def _encode_rows(t0: int, path: np.ndarray, eps: np.ndarray, t_words: int) -> bytes:
    """Rows ``t,path,eps`` for ``t = t0, t0 + 1, ..``, each preceded by a newline."""
    rows = np.empty((len(path), t_words + 2 * _CELL_WORDS), dtype="<u8")
    t = np.arange(t0, t0 + len(path), dtype=np.int64)
    groups = []
    rest = t
    for _ in range(2 * t_words):
        rest, group = _divmod(rest, 10**4)
        groups.append(np.take(_DIGITS4, group))
    words = rows[:, :t_words]
    t_bytes = words.view(np.uint8)
    t_bytes[...] = np.stack(groups[::-1], axis=1).view(np.uint8)
    # blank the leading zeros, one mask per run of rows with the same digit count
    # (t runs up by one, so a block holds one run or a few); byte 0 is always a
    # leading zero and takes the newline
    start = 0
    for digits in range(len(str(t0)), len(str(t0 + len(path) - 1)) + 1):
        end = min(len(path), 10**digits - t0)
        words[start:end] &= _T_MASKS[digits, _T_MASK_WIDTH - 8 * t_words :].view("<u8")
        start = end
    t_bytes[:, 0] = ord("\n")
    rows[:, t_words : t_words + _CELL_WORDS] = _g17_cells(path)
    rows[:, t_words + _CELL_WORDS :] = _g17_cells(eps)
    return rows.tobytes().translate(None, b"\0")


def sample_to_csv(sample: ProcessSample, out: BinaryIO | None = None) -> bytearray | None:
    """CSV with header ``t,X_t,eps_t`` ('.' decimal separator, %.17g cells), as ASCII bytes.

    Every cell is byte for byte the text of ``format(x, ".17g")``.  With no
    ``out`` the text is returned as one ``bytearray``, with no decode to
    ``str``.  Given a writable binary file ``out``, each block of
    ``CSV_BLOCK_ROWS`` rows is written to it as soon as it is encoded and
    ``None`` is returned, so the whole text is never in memory at once.
    """
    path = sample.path
    eps = sample.aligned_innovations
    t_words = -(-(len(str(sample.t_len - 1)) + 1) // 8)  # '\n' and the digits of t
    # in memory, one growing buffer: a list of block strings interleaves with
    # the block temporaries on the heap and can keep 50 MB more of it resident
    text = bytearray() if out is None else None
    write = text.extend if out is None else out.write
    write(b"t,X_t,eps_t")
    for t0 in range(0, sample.t_len, CSV_BLOCK_ROWS):
        block = slice(t0, t0 + CSV_BLOCK_ROWS)
        write(_encode_rows(t0, path[block], eps[block], t_words))
    write(b"\n")
    return text
