"""Root-location tests and certified truncated inverses of causal symbols.

A causal polynomial symbol ``f`` is invertible within the causal algebra
exactly when all of its roots lie strictly outside the unit circle; the
power-series inverse then has absolutely summable coefficients.  When all
roots lie strictly inside, ``f`` has no causal inverse but does have an
anticausal one, supported on negative indices.  This asymmetry is what
:func:`asymmetry_report` makes quantitative at finite truncation: the
triangular (unilateral) inverse norm blows up geometrically while the
circulant (bilateral) inverse norm stays pinned at
``1 / min_k |f(omega^k)|``.
"""

from __future__ import annotations

import contextlib
import decimal
import enum
import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import operators, wiener
from .wiener import WienerElement

__all__ = [
    "Verdict",
    "InversionSide",
    "RootClassification",
    "InversionResult",
    "AsymmetryRow",
    "WideFloat",
    "NotInvertibleError",
    "TailNotCertifiedError",
    "classify_roots",
    "invert_causal",
    "invert_anticausal",
    "asymmetry_report",
]

DEFAULT_ROOT_TOL = 1e-9
MIN_ROOT_TOL = 1e-12
MAX_ROOT_TOL = 1e-4

# Truncation cap of the certified inverses, the CLI's too: past it the tail
# is not certified (exit 4).
DEFAULT_MAX_LEN = 65536
DEFAULT_EPS = 1e-10

# Block power iteration for ||T_N(f)^{-1}||: the step cap, and the bound on
# the extrapolated relative error below which the estimate has settled.  On an
# Invertible symbol the banded route may answer before the cap, once the change
# projected to the cap stays above this bound (see _power_stalled).
INVERSE_NORM_MAX_STEPS = 64
INVERSE_NORM_TOL = 1e-14


class Verdict(enum.Enum):
    INVERTIBLE = "Invertible"
    BORDERLINE = "Borderline"
    NON_INVERTIBLE = "NonInvertible"


class InversionSide(enum.Enum):
    CAUSAL = "causal"
    ANTICAUSAL = "anticausal"


class NotInvertibleError(ValueError):
    """Raised when an inversion routine rejects a symbol; carries the verdict."""

    def __init__(self, message: str, classification: "RootClassification"):
        super().__init__(message)
        self.classification = classification


class TailNotCertifiedError(RuntimeError):
    """Raised when the tail bound cannot reach ``eps`` within ``max_len``."""

    def __init__(self, message: str, achieved_bound: float, max_len: int):
        super().__init__(message)
        self.achieved_bound = achieved_bound
        self.max_len = max_len


@dataclass(frozen=True)
class RootClassification:
    """Roots of a causal polynomial symbol, counted against the unit circle."""

    roots: tuple[complex, ...]
    inside: int
    on_circle: int
    outside: int
    tol: float

    @property
    def verdict(self) -> Verdict:
        if self.on_circle > 0:
            return Verdict.BORDERLINE
        if self.inside > 0:
            return Verdict.NON_INVERTIBLE
        return Verdict.INVERTIBLE

    @property
    def side(self) -> InversionSide | None:
        """Causal when the verdict is Invertible, anticausal when every root
        lies strictly inside the circle, else None (no summable inverse)."""
        if self.verdict is Verdict.INVERTIBLE:
            return InversionSide.CAUSAL
        if self.on_circle == 0 and self.outside == 0:
            return InversionSide.ANTICAUSAL
        return None


@dataclass(frozen=True)
class InversionResult:
    """A certified truncated inverse.

    ``tail_bound`` bounds the l1 mass of the dropped coefficients, so
    ``l1_norm(multiply(f, inverse) - 1)`` is at most ``tail_bound`` times
    ``l1_norm(f)`` on the stored window.
    """

    inverse: WienerElement
    side: InversionSide
    truncation_len: int
    tail_bound: float


def _companion_eigenvalues(coeffs: tuple[complex, ...]) -> np.ndarray:
    """Eigenvalues of the companion matrix of ``sum_k c_k z**k`` (ascending c)."""
    c = np.array(coeffs, dtype=complex)
    q = len(c) - 1
    if q == 0:
        return np.empty(0, dtype=complex)
    # scale by a power of two first, so that a subnormal c_q cannot overflow the
    # quotients; with a root past float max they overflow all the same, and raise
    shift = -math.frexp(abs(c[-1]))[1]
    companion = np.diag(np.ones(q - 1, dtype=complex), -1)
    with np.errstate(over="raise", invalid="raise"):
        c.real, c.imag = np.ldexp(c.real, shift), np.ldexp(c.imag, shift)
        companion[0, :] = -(c[:-1][::-1] / c[-1])
    return np.linalg.eigvals(companion)


def classify_roots(f: WienerElement, tol: float = DEFAULT_ROOT_TOL) -> RootClassification:
    """Locate the roots of a causal polynomial symbol relative to the circle.

    A positive ``offset`` contributes that many roots at the origin.  Roots
    are counted inside (``|r| < 1 - tol``), on (``| |r| - 1 | <= tol``), or
    outside (``|r| > 1 + tol``) the circle; the verdict is Invertible only
    when no root lies inside or on it.  ``FloatingPointError`` when a root
    lies past float max, as for ``1 + 1e-310 z``.
    """
    tol = float(tol)
    if not (MIN_ROOT_TOL <= tol <= MAX_ROOT_TOL):
        raise ValueError(f"tol must lie in [{MIN_ROOT_TOL}, {MAX_ROOT_TOL}]")
    if f.is_zero:
        raise ValueError("the zero polynomial has no root classification")
    if not f.is_causal:
        raise ValueError("root classification needs a causal symbol (offset >= 0)")
    roots = list(_companion_eigenvalues(f.coeffs))
    roots.extend([0j] * f.offset)
    roots.sort(key=lambda r: (r.real, r.imag))
    inside = on_circle = outside = 0
    for r in roots:
        m = abs(r)
        if abs(m - 1.0) <= tol:
            on_circle += 1
        elif m < 1.0:
            inside += 1
        else:
            outside += 1
    return RootClassification(tuple(roots), inside, on_circle, outside, tol)


def _solve_unilateral(band: np.ndarray, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """``T^{-1} rhs`` (``trans="N"``) or ``T^{-H} rhs`` (``"C"``) for ``T`` in band storage.

    ``T`` is lower triangular with ``band[k, j] = T[j + k, j]``, LAPACK's
    lower band storage.

    One forward or backward substitution per column of ``rhs``, O(N q): the
    recursion shared by the series inverse and the inverse norm.
    """
    from scipy.linalg.lapack import ztbtrs

    x, info = ztbtrs(band, rhs, uplo="L", trans=trans)
    if info != 0:
        raise ValueError(f"banded triangular solve failed (LAPACK ztbtrs info {info})")
    return x


def _series_inverse_prefix(coeffs: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` coefficients of the formal power-series inverse.

    ``g_n = -(1/a_0) sum_{k=1..min(n,q)} a_k g_{n-k}`` is forward substitution
    in ``T_L(f) g = e_0``: ``g`` is the first column of ``T_L(f)^{-1}``.
    """
    a = np.asarray(coeffs, dtype=complex)[:length]
    rhs = np.zeros((length, 1), dtype=complex)
    rhs[0] = 1.0
    return _solve_unilateral(np.repeat(a[:, None], length, axis=1), rhs)[:, 0]


# Lengths in the first block of _certified_length; each next block is twice as long.
_TAIL_BLOCK = 64


def _certified_length(rho: float, q: int, a0_abs: float, max_len: int, eps: float) -> tuple[int, float]:
    """Smallest ``L <= max_len`` whose geometric tail bound is ``<= eps``, and that bound.

    Coefficientwise, ``|g_n| <= (1/|a_0|) C(n+q-1, q-1) rho**n`` (majorize
    every factor ``(1 - z/r_i)**-1`` by the ``rho``-geometric series), so the
    tail from ``L`` on is at most the leading term times ``(1 - rho)**-q``.
    Its base-2 log is formed elementwise, so nothing overflows on the way; a
    bound past float max reads ``inf``.  The log of the bound is concave in
    ``L``, so its minimum over ``[1, max_len]`` lies at an end: when neither
    end certifies, no length does, and that is decided from the two ends
    alone.  Otherwise the lengths are scanned in blocks of doubling size
    from ``_TAIL_BLOCK`` on, up to the first block that certifies, so the
    cost follows the answer rather than ``max_len``; each bound is the same
    float whichever block it falls in.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if rho >= 1.0:  # a computed root on or inside the circle: no geometric decay
        raise TailNotCertifiedError(
            f"no geometric tail bound: the largest 1/|root| is {rho:.17g}", math.inf, max_len
        )
    log2_rho = math.log2(rho)
    log2_scale = math.log2(a0_abs) + q * math.log2(1.0 - rho)

    def bounds_at(lengths: np.ndarray) -> np.ndarray:
        log2_binomial = sum(np.log1p(lengths / j) for j in range(1, q)) / math.log(2.0)
        with np.errstate(over="ignore"):  # a bound past float max reads inf
            return np.exp2(log2_binomial + lengths * log2_rho - log2_scale)

    first, last = bounds_at(np.array([1, max_len]))
    start, size = 1, _TAIL_BLOCK
    # neither end certifies: no length does, and no block is scanned
    while (first <= eps or last <= eps) and start <= max_len:
        lengths = np.arange(start, min(start + size, max_len + 1))
        bounds = bounds_at(lengths)
        certified = np.flatnonzero(bounds <= eps)
        if len(certified):
            return int(lengths[certified[0]]), float(bounds[certified[0]])
        start, size = start + size, 2 * size
    raise TailNotCertifiedError(
        f"tail bound {last:.3e} after {max_len} coefficients exceeds eps = {eps:.3e}",
        float(last),
        max_len,
    )


def invert_causal(
    f: WienerElement, max_len: int = DEFAULT_MAX_LEN, eps: float = DEFAULT_EPS
) -> InversionResult:
    """Truncated power-series inverse of an invertible causal symbol.

    The recursion ``g_0 = 1/a_0``, ``g_n = -(1/a_0) sum a_k g_{n-k}`` runs to
    the first length whose geometric tail estimate (from the largest
    ``1/|root|``) certifies l1 tail mass at most ``eps``.  Rejects symbols
    whose verdict is not Invertible; raises :class:`TailNotCertifiedError`
    when ``max_len`` is reached first, ``ValueError`` when a coefficient of
    the inverse lies past float max (as for a subnormal ``a_0``).  The roots
    are classified at ``MIN_ROOT_TOL``, the smallest tolerance any caller may
    use, so a symbol Invertible at the caller's tolerance is Invertible here;
    Borderline is the caller's verdict, made with its own tolerance.
    """
    classification = classify_roots(f, MIN_ROOT_TOL)
    if classification.verdict is not Verdict.INVERTIBLE:
        raise NotInvertibleError(
            f"causal inversion needs verdict Invertible, got {classification.verdict.value}",
            classification,
        )
    return _series_inverse(f, classification.roots, max_len, eps)


def _checked_eps(eps: float) -> float:
    """``eps`` as a float, positive and finite: a bound that underflows to 0
    would certify ``eps = 0``, and none certifies a NaN."""
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    return eps


def _series_inverse(f: WienerElement, roots, max_len: int, eps: float) -> InversionResult:
    """The certified causal series inverse of ``f``, its tail bound taken from ``roots``."""
    eps = _checked_eps(eps)
    a = f.to_array()
    q = len(a) - 1
    if q == 0:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            length, bound, g = 1, 0.0, 1.0 / a
    else:
        with np.errstate(divide="ignore"):  # a root that underflowed to 0: rho = inf, uncertified
            rho = float(max(1.0 / np.abs(roots)))
        length, bound = _certified_length(rho, q, abs(a[0]), int(max_len), eps)
        g = _series_inverse_prefix(a, length)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"inverse coefficients overflow float range (|a_0| = {abs(a[0]):.3g})")
    return InversionResult(WienerElement(g), InversionSide.CAUSAL, length, bound)


def invert_anticausal(
    f: WienerElement, max_len: int = DEFAULT_MAX_LEN, eps: float = DEFAULT_EPS
) -> InversionResult:
    """Truncated anticausal inverse for a symbol with all roots strictly inside.

    Writing ``f(z) = z**d * frev(1/z)`` with ``frev`` the reversed polynomial
    (all roots strictly outside), the anticausal inverse is the causal inverse
    of ``frev`` re-indexed to ``z**(-d-m)``; its support sits at indices
    ``<= -1``.  Rejects any root on or outside the circle, and rejects
    constants (their inverse would sit at index 0).  As in
    :func:`invert_causal`, the roots are classified at ``MIN_ROOT_TOL``; the
    reversed polynomial is not classified again, and where its own computed
    roots reach the circle, the tail is not certified.
    """
    classification = classify_roots(f, MIN_ROOT_TOL)
    if f.degree == 0:
        raise ValueError(
            "anticausal inversion needs degree >= 1; a constant inverts causally"
        )
    if classification.side is not InversionSide.ANTICAUSAL:
        raise NotInvertibleError(
            "anticausal inversion needs every root strictly inside the circle; got "
            f"{classification.inside} inside, {classification.on_circle} on, "
            f"{classification.outside} outside",
            classification,
        )
    d = f.degree
    reversed_f = WienerElement(f.to_array()[::-1])
    causal = _series_inverse(reversed_f, _companion_eigenvalues(reversed_f.coeffs), max_len, eps)
    g = causal.inverse
    # c_{-d-m} = g_m, so the ascending-index storage is g reversed; g starts at
    # offset 0 (g_0 = 1/a_0 is nonzero) and may end early on trailing zeros
    coeffs = np.zeros(causal.truncation_len, dtype=complex)
    coeffs[: len(g.coeffs)] = g.to_array()
    inverse = WienerElement(coeffs[::-1], -d - causal.truncation_len + 1)
    return InversionResult(
        inverse, InversionSide.ANTICAUSAL, causal.truncation_len, causal.tail_bound
    )


@dataclass(frozen=True)
class WideFloat:
    """A positive number ``mantissa * 2**exponent`` that may lie past float max.

    ``mantissa`` lies in [0.5, 1), as :func:`math.frexp` returns it, so a
    value split off a float is exact and products round like float products.
    """

    mantissa: float
    exponent: int

    @classmethod
    def of(cls, x: float) -> "WideFloat":
        m, e = math.frexp(x)
        return cls(m, e)

    def __mul__(self, other: "WideFloat") -> "WideFloat":
        m, e = math.frexp(self.mantissa * other.mantissa)
        return WideFloat(m, e + self.exponent + other.exponent)

    def reciprocal(self) -> "WideFloat":
        """``1 / self``, rounded as ``1.0 / float(self)`` rounds within float range."""
        m, e = math.frexp(1.0 / self.mantissa)
        return WideFloat(m, e - self.exponent)

    def __float__(self) -> float:
        """The value, ``inf`` past float max."""
        if self.exponent > sys.float_info.max_exp:
            return math.inf
        return math.ldexp(self.mantissa, self.exponent)

    def text(self) -> str:
        """``%.17g`` of the value; past float max, a decimal literal of that form.

        The literal has 17 significant digits, trailing zeros dropped, such
        as ``2.8843012345678901e+498``: a JSON number (RFC 8259) that a float
        reader takes as ``inf``.
        """
        value = float(self)
        if value != math.inf:
            return f"{value:.17g}"
        wide = decimal.Context(prec=40, Emax=decimal.MAX_EMAX)
        exact = wide.multiply(decimal.Decimal(self.mantissa), wide.power(2, self.exponent))
        digits = decimal.Context(prec=17, Emax=decimal.MAX_EMAX).plus(exact).normalize()
        return format(digits, "e")


def _float_or_inf(wide: WideFloat | None) -> float:
    return math.inf if wide is None else float(wide)


@dataclass(frozen=True)
class AsymmetryRow:
    """One truncation dimension of :func:`asymmetry_report`.

    ``wide_norm_triangular_inverse`` holds ``||T_N(f)^{-1}||`` exactly,
    also past float max (``None`` when ``a_0 = 0``), and
    ``wide_norm_circulant_inverse`` the circulant's inverse norm, also past
    float max as for a subnormal symbol (``None`` when singular).  The float
    properties ``norm_triangular_inverse``, ``norm_circulant_inverse`` and
    ``cond_triangular`` read ``inf`` past float max and for ``None``.
    ``inverse_route`` names what answered that norm: ``"power"`` (block
    power iteration), ``"banded"`` (the smallest singular value from the
    banded Gram matrix, by bisection on banded Cholesky factorizations and a
    Rayleigh quotient) or ``"none"`` (``a_0 = 0``).  The banded route answers
    only for an Invertible symbol whose power iteration has not settled,
    and only where its error bound ``u cond**2 / 2`` lies below the power
    estimate's: the change projected to the cap before it, the extrapolated
    remainder at it.  ``inverse_steps`` counts the power steps taken, below
    the cap on a ``"banded"`` row that left early, and ``inverse_change`` is
    the last relative change of the power estimate.
    """

    dim: int
    cond_circulant: float
    circulant_singular: bool
    norm_triangular: float
    wide_norm_triangular_inverse: WideFloat | None
    inverse_route: str
    inverse_steps: int
    inverse_change: float
    wide_norm_circulant_inverse: WideFloat | None

    @property
    def norm_circulant_inverse(self) -> float:
        return _float_or_inf(self.wide_norm_circulant_inverse)

    @property
    def norm_triangular_inverse(self) -> float:
        return _float_or_inf(self.wide_norm_triangular_inverse)

    @property
    def cond_triangular(self) -> float:
        if self.wide_norm_triangular_inverse is None:
            return math.inf
        return self.norm_triangular * self.norm_triangular_inverse

    @property
    def wide_cond_triangular(self) -> WideFloat | None:
        """``cond_triangular`` held exactly past float max."""
        if self.wide_norm_triangular_inverse is None:
            return None
        return self.wide_norm_triangular_inverse * WideFloat.of(self.norm_triangular)


def _banded_inverse_norm(
    f: WienerElement, dim: int, taps: np.ndarray, start: np.ndarray
) -> float | None:
    """``2**t ||T_N(f)^{-1}|| = 1 / sigma_min`` for ``taps = (a_0 .. a_q) / 2**t``;
    None when the Gram matrix is singular in float arithmetic.

    Bisection by inertia (:func:`operators._gram_eigenvalue`) brackets the
    smallest eigenvalue of the banded Gram matrix ``G = T_N(f)^H T_N(f)``
    between adjacent floats, but ``G`` itself is rounded: the bracket is good
    only to ``u ||G||``, and ``sigma_min`` to ``u cond**2 / 2``.  The banded
    Cholesky factor of ``G - lo I`` at the bracket's lower end then takes two
    steps of shifted inverse iteration from ``start``, and the answer is the
    Rayleigh quotient ``||v|| / ||T v||`` formed with ``T`` itself, by
    convolution with ``taps``: within about an ulp when the bottom of the
    spectrum does not cluster, and about ``u cond**2`` at worst, as the
    bracket.
    """
    from scipy.linalg import lapack

    gram = operators._gram_band(f, dim)[0]
    lowest = operators._gram_eigenvalue(gram, lowest=True)[0]
    gram[0] -= lowest  # the shift at which the bisection's Cholesky succeeded
    factor, info = lapack.zpbtrf(gram, lower=1, overwrite_ab=1)
    if lowest <= 0 or info != 0:
        return None
    v = start.astype(complex)
    for _ in range(2):
        v = lapack.zpbtrs(factor, v, lower=1)[0]
        v /= np.linalg.norm(v)
    # T v cancels down to sigma_min, which would cost about q cond ulps in
    # float64; extended precision, where the platform has it, keeps them
    v = v.astype(np.clongdouble)
    tv = np.convolve(taps.astype(np.clongdouble), v)[:dim]
    return float(np.sqrt(np.vdot(v, v).real / np.vdot(tv, tv).real))


@functools.lru_cache(maxsize=32)
def _qr_workspace(rows: int, cols: int) -> tuple[int, int]:
    """LAPACK's optimal workspace sizes of ``zgeqrf`` and ``zungqr`` for the shape."""
    from scipy.linalg import lapack

    block = np.zeros((rows, cols), dtype=complex)
    geqrf = lapack.zgeqrf(block, lwork=-1)[2][0].real
    ungqr = lapack.zungqr(block, np.zeros(min(rows, cols), dtype=complex), lwork=-1)[1][0].real
    return int(geqrf), int(ungqr)


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that scipy's LAPACK
    calls, or None where it has none (another BLAS, another platform).

    scipy's wheels bundle ``libscipy_openblas``, a dependency of its LAPACK
    extension, so the symbols resolve through that extension's handle.
    """
    import ctypes

    try:
        from scipy.linalg import _flapack

        library = ctypes.CDLL(_flapack.__file__)
        get, set_ = library.scipy_openblas_get_num_threads, library.scipy_openblas_set_num_threads
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The thread count is process-wide: one scope at a time sets and restores it,
# so scopes in concurrent threads take turns.
_BLAS_THREADS_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with scipy's OpenBLAS on one thread, and restore the
    previous count on exit, also when the body raises; a no-op where scipy's
    LAPACK calls no OpenBLAS it can find.  Also a decorator, as any
    :func:`contextlib.contextmanager` is."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _BLAS_THREADS_LOCK:
        previous = get()
        set_(1)
        try:
            yield
        finally:
            set_(previous)


def _orthonormal_basis(block: np.ndarray) -> np.ndarray:
    """The ``Q`` of the reduced QR factorization of a tall complex ``block``.

    LAPACK's ``zgeqrf`` and ``zungqr`` with their optimal workspace, the
    calls ``np.linalg.qr`` makes, without its wrapper's checks and copies.
    In the power loop of :func:`_triangular_inverse_norm` they run on one
    OpenBLAS thread: from about 640 rows OpenBLAS splits the narrow
    N x (q + 1) block over a second thread, which makes the QR slower, not
    faster, and then spins on in wait for the next call, doubling the CPU
    time of the loop.  ``Q``'s bits do not depend on the thread count.
    """
    from scipy.linalg import lapack

    geqrf_work, ungqr_work = _qr_workspace(*block.shape)
    qr, tau, _, info = lapack.zgeqrf(block, lwork=geqrf_work)
    if info != 0:
        raise ValueError(f"QR factorization failed (LAPACK zgeqrf info {info})")
    q, _, info = lapack.zungqr(qr, tau, lwork=ungqr_work, overwrite_a=1)
    if info != 0:
        raise ValueError(f"QR factorization failed (LAPACK zungqr info {info})")
    return q


def _power_stalled(step: int, change: float, previous: float, banded_error: float) -> bool:
    """Whether the banded route answers for an unsettled power iteration at ``step``.

    ``change`` and ``previous`` are the last two relative changes of the
    power estimate, ``r = change / previous`` their rate, and
    ``banded_error`` the banded route's relative error.  At
    ``INVERSE_NORM_MAX_STEPS`` the banded route answers when its error is
    below the power estimate's extrapolated one, ``change / (1 - r)``, or
    ``change`` when ``r >= 1`` or is undefined.  Before the cap, from step 3
    on (step 1's change is always 1, so the rate at step 2 means nothing), it
    answers once the change projected to the cap, ``change * r**(cap -
    step)`` with ``0 < r < 1``, exceeds both ``INVERSE_NORM_TOL`` and
    ``banded_error``: the iteration would end at the cap unsettled, where
    the banded route would answer all the same.
    """
    rate = change / previous  # nan at step 1
    if step == INVERSE_NORM_MAX_STEPS:
        return banded_error < (change / (1.0 - rate) if 0 < rate < 1 else change)
    if step < 3 or not 0 < rate < 1:
        return False
    projected = change * rate ** (INVERSE_NORM_MAX_STEPS - step)
    return projected > max(INVERSE_NORM_TOL, banded_error)


@_one_blas_thread()
def _triangular_inverse_norm(
    f: WienerElement, dim: int, rho: float, invertible: bool, norm: float
) -> tuple[WideFloat, str, int, float]:
    """``||T_N(f)^{-1}||`` with no N x N matrix: (norm, route, steps, change).

    ``T_N(f)^{-1} = T_N(g)``, ``g = 1/f``, overflows for a root inside the
    circle, so the iteration runs on a factor of it that stays in float
    range.  With ``rho = min(1, min|root|)``, ``e_i = round(i log2(1/rho))``,
    ``D = diag(2**-e_i)`` and ``2**t`` the binary order of ``|a_0|``, the
    matrix ``B = D T_N(f / 2**t) D^{-1}`` is banded lower triangular with
    entries within a factor 2 of those of ``f(rho z)``, whose roots lie on or
    outside the circle, and
    ``M = diag(2**(e_i - e_{N-1})) B^{-1} diag(2**-e_j) = 2**(t - e_{N-1}) T_N(g)``.
    Every scaling is a power of two, so none of them rounds and the result
    does not depend on ``rho``; ``rho`` only keeps the iteration from
    overflowing.  ``M`` and ``M^H`` are applied by banded triangular solves
    with ``B``, O(N q) per column, and the norm is ``||M|| 2**(e_{N-1} - t)``.

    Block power iteration on ``M^H M`` with ``q + 1`` columns and
    Rayleigh-Ritz: a root inside or near the circle splits the top singular
    values off from the rest (Boettcher & Grudsky, 2005), one per root, so
    the block settles in a few steps; a single vector would stall on a
    conjugate pair of roots.  It has settled once the last relative change,
    and the remainder it extrapolates to geometrically from the two last
    changes, are both below ``INVERSE_NORM_TOL``.  When the top singular
    values cluster instead, as for roots far outside the circle, it may not
    settle within ``INVERSE_NORM_MAX_STEPS``.  For an Invertible symbol the
    banded route (:func:`_banded_inverse_norm`, about 52 banded Cholesky
    factorizations of O(N q^2) each) may answer instead; its relative error
    is at most about ``u cond**2 / 2``, ``u = 2**-53``, with ``cond`` taken
    as ``norm = ||T_N(f)||`` times the power estimate.
    :func:`_power_stalled` weighs that against the power estimate's own
    error: from step 3 on it leaves the loop once the change projected to
    the cap stays above both ``INVERSE_NORM_TOL`` and the banded error, and
    at the cap it keeps the estimate whose error is the smaller.  Otherwise,
    and where the Gram matrix is singular in float arithmetic, the unsettled
    power estimate stands, and ``change`` shows it.

    The whole call runs with scipy's OpenBLAS on one thread
    (:func:`_one_blas_thread`), for the power loop's QR
    (:func:`_orthonormal_basis`); the result does not depend on the count.
    """
    a = f.to_array()
    q = len(a) - 1
    # every scaling is by a power of two, so none of them rounds; a root so
    # close to 0 that 1/rho or the band passes float max raises, as does a
    # root that underflowed to 0
    t = math.frexp(abs(a[0]))[1]
    columns = np.arange(dim)
    band = np.empty((q + 1, dim), dtype=complex)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        e = np.rint(np.arange(dim) * math.log2(1.0 / rho)).astype(np.int64)
        for k in range(q + 1):
            shift = t + e[np.minimum(columns + k, dim - 1)] - e[columns]
            band.real[k] = np.ldexp(a[k].real, -shift)
            band.imag[k] = np.ldexp(a[k].imag, -shift)
    left, right = np.ldexp(1.0, e - e[-1])[:, None], np.ldexp(1.0, -e)[:, None]
    start = np.random.default_rng(0).standard_normal((dim, q + 1))
    x = _orthonormal_basis(start.astype(complex))
    unit = sys.float_info.epsilon / 2
    sigma, change, previous, stalled = 0.0, math.nan, math.nan, False
    for step in range(1, INVERSE_NORM_MAX_STEPS + 1):
        y = left * _solve_unilateral(band, right * x)
        # y^H y underflows for a tiny ||M||, as when g = 1/f grows only every
        # few indices: a power of two brings y to order one without rounding
        peak = np.abs(y).max()
        if peak == 0:  # for a root near 0 the scalings 2**-e_i may all underflow
            raise FloatingPointError("underflow encountered in the inverse norm's scalings")
        scale = math.frexp(peak)[1]
        for part in (y.real, y.imag):
            np.ldexp(part, -scale, out=part)
        ritz = math.ldexp(math.sqrt(np.linalg.eigvalsh(y.conj().T @ y)[-1]), scale)
        change, previous, sigma = abs(ritz - sigma) / ritz, change, ritz
        # settled: the last change and the remainder change * r / (1 - r) it
        # extrapolates to, with r = change / previous, are both below the tol
        if change <= INVERSE_NORM_TOL and (
            change == 0.0 or change * change <= INVERSE_NORM_TOL * (previous - change)
        ):
            break
        if invertible:
            # the banded route's relative error u cond**2 / 2; scaling the norm,
            # not sigma, keeps cond in float range for a subnormal symbol.  An
            # Invertible symbol has rho = 1, so e = 0 and band[:, 0] = a / 2**t
            cond = math.ldexp(norm, int(e[-1]) - t) * sigma
            if stalled := _power_stalled(step, change, previous, unit * cond * cond / 2):
                break
        x = _orthonormal_basis(right * _solve_unilateral(band, left * y, "C"))
    if stalled and (banded := _banded_inverse_norm(f, dim, band[:, 0], start[:, 0])):
        mantissa, exponent = math.frexp(banded)
        return WideFloat(mantissa, exponent - t), "banded", step, change
    mantissa, exponent = math.frexp(sigma)
    return WideFloat(mantissa, exponent + int(e[-1]) - t), "power", step, change


def asymmetry_report(
    f: WienerElement,
    dims,
    classification: RootClassification | None = None,
    sup: float | None = None,
) -> list[AsymmetryRow]:
    """Inverse norms and condition numbers, circulant vs triangular truncation.

    The circulant side is inverted through its spectrum (the symbol's values
    at the roots of unity; a normal matrix's inverse norm is one over its
    smallest eigenvalue modulus).  A singular circulant (symbol vanishing at
    a root of unity) is reported with infinite norms, not raised.

    The triangular side forms no matrix.  ``norm_triangular = ||T_N(f)||``,
    the compression norm an isometry sweep tabulates, is read off the banded
    Gram matrix by :func:`operators.compression_norms`; given ``sup``, the
    grid sup norm of ``f``, each norm after the first starts from a guess
    predicted from the one before, and the values do not depend on it.  The
    inverse of a lower-triangular Toeplitz matrix is the Toeplitz matrix of
    the power-series inverse, ``T_N(f)^{-1} = T_N(1/f)``, and its norm comes
    from banded triangular solves (:func:`_triangular_inverse_norm`), carried
    as a :class:`WideFloat` so that the geometric blow-up of a root inside
    the circle, such as the ``2**(N-1)`` growth for ``1 - 2z``, stays exact
    past float max.  ``a_0 = 0`` makes ``T_N(f)`` singular: infinite
    triangular norms, route ``"none"``.  A root of subnormal modulus, as for
    ``1e-310 + z``, overflows the scalings, and a root whose modulus
    underflows to 0 has none: ``FloatingPointError``, as when every scaled
    entry underflows.  The
    verdict of ``classification`` (by default, at ``DEFAULT_ROOT_TOL``)
    decides whether the banded inverse norm may answer.
    """
    if not f.is_causal:
        raise ValueError("asymmetry report needs a causal symbol (offset >= 0)")
    if f.is_zero:
        raise ValueError("asymmetry report needs a nonzero symbol")
    dims = [int(dim) for dim in dims]
    for dim in dims:
        if dim < f.support_length:
            raise ValueError(
                f"dim {dim} is smaller than the support length {f.support_length}"
            )
    rows = []
    a0 = f.coeff(0)
    if a0 != 0:
        classification = classification or classify_roots(f)
        # the value does not depend on rho, only whether the iteration overflows
        rho = min([1.0, *(abs(r) for r in classification.roots)])
        invertible = classification.verdict is Verdict.INVERTIBLE
    for dim, norm_tri in zip(dims, operators.compression_norms(f, dims, sup)):
        spectrum = np.abs(wiener.evaluate_on_grid(f, dim))
        smallest = float(spectrum.min())
        largest = float(spectrum.max())
        singular = smallest == 0.0
        wide_circ = None if singular else WideFloat.of(smallest).reciprocal()
        cond_circ = math.inf if singular else largest / smallest
        if a0 == 0:
            wide, route, steps, change = None, "none", 0, 0.0
        else:
            wide, route, steps, change = _triangular_inverse_norm(
                f, dim, rho, invertible, norm_tri
            )
        rows.append(
            AsymmetryRow(dim, cond_circ, singular, norm_tri, wide, route, steps, change, wide_circ)
        )
    return rows
