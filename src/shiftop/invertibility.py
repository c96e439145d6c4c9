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

import decimal
import enum
import math
import sys
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
    "asymmetry_csv",
]

DEFAULT_ROOT_TOL = 1e-9
MIN_ROOT_TOL = 1e-12
MAX_ROOT_TOL = 1e-4

DEFAULT_MAX_LEN = 4096
DEFAULT_EPS = 1e-10

# Block power iteration for ||T_N(f)^{-1}||: the step cap, and the bound on
# the extrapolated relative error below which the estimate has settled.
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
    # scale by a power of two first, so that a subnormal c_q cannot overflow the quotients
    shift = -math.frexp(abs(c[-1]))[1]
    c.real, c.imag = np.ldexp(c.real, shift), np.ldexp(c.imag, shift)
    companion = np.diag(np.ones(q - 1, dtype=complex), -1)
    companion[0, :] = -(c[:-1][::-1] / c[-1])
    return np.linalg.eigvals(companion)


def classify_roots(f: WienerElement, tol: float = DEFAULT_ROOT_TOL) -> RootClassification:
    """Locate the roots of a causal polynomial symbol relative to the circle.

    A positive ``offset`` contributes that many roots at the origin.  Roots
    are counted inside (``|r| < 1 - tol``), on (``| |r| - 1 | <= tol``), or
    outside (``|r| > 1 + tol``) the circle; the verdict is Invertible only
    when no root lies inside or on it.
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


def _certified_length(rho: float, q: int, a0_abs: float, max_len: int, eps: float) -> tuple[int, float]:
    """Smallest ``L <= max_len`` whose geometric tail bound is ``<= eps``, and that bound.

    Coefficientwise, ``|g_n| <= (1/|a_0|) C(n+q-1, q-1) rho**n`` (majorize
    every factor ``(1 - z/r_i)**-1`` by the ``rho``-geometric series), so the
    tail from ``L`` on is at most the leading term times ``(1 - rho)**-q``.
    Its base-2 log is formed for every ``L`` at once, so nothing overflows on
    the way; a bound past float max reads ``inf``.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    lengths = np.arange(1, max_len + 1)
    log2_binomial = sum(np.log1p(lengths / j) for j in range(1, q)) / math.log(2.0)
    log2_scale = math.log2(a0_abs) + q * math.log2(1.0 - rho)
    with np.errstate(over="ignore"):  # a bound past float max reads inf
        bounds = np.exp2(log2_binomial + lengths * math.log2(rho) - log2_scale)
    certified = np.flatnonzero(bounds <= eps)
    if len(certified):
        return int(certified[0]) + 1, float(bounds[certified[0]])
    raise TailNotCertifiedError(
        f"tail bound {bounds[-1]:.3e} after {max_len} coefficients exceeds eps = {eps:.3e}",
        float(bounds[-1]),
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
    the inverse lies past float max (as for a subnormal ``a_0``).
    """
    classification = classify_roots(f)
    if classification.verdict is not Verdict.INVERTIBLE:
        raise NotInvertibleError(
            f"causal inversion needs verdict Invertible, got {classification.verdict.value}",
            classification,
        )
    a = f.to_array()
    q = len(a) - 1
    if q == 0:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            length, bound, g = 1, 0.0, 1.0 / a
    else:
        rho = float(max(1.0 / np.abs(classification.roots)))
        length, bound = _certified_length(rho, q, abs(a[0]), int(max_len), float(eps))
        g = _series_inverse_prefix(a, length)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"inverse coefficients overflow float range (|a_0| = {abs(a[0]):.3g})")
    return InversionResult(WienerElement(tuple(g)), InversionSide.CAUSAL, length, bound)


def invert_anticausal(
    f: WienerElement, max_len: int = DEFAULT_MAX_LEN, eps: float = DEFAULT_EPS
) -> InversionResult:
    """Truncated anticausal inverse for a symbol with all roots strictly inside.

    Writing ``f(z) = z**d * frev(1/z)`` with ``frev`` the reversed polynomial
    (all roots strictly outside), the anticausal inverse is the causal inverse
    of ``frev`` re-indexed to ``z**(-d-m)``; its support sits at indices
    ``<= -1``.  Rejects any root on or outside the circle, and rejects
    constants (their inverse would sit at index 0).
    """
    classification = classify_roots(f)
    if f.degree == 0:
        raise ValueError(
            "anticausal inversion needs degree >= 1; a constant inverts causally"
        )
    if classification.on_circle > 0 or classification.outside > 0:
        raise NotInvertibleError(
            "anticausal inversion needs every root strictly inside the circle; got "
            f"{classification.inside} inside, {classification.on_circle} on, "
            f"{classification.outside} outside",
            classification,
        )
    d = f.degree
    reversed_f = WienerElement(tuple(reversed(f.coeffs)))
    causal = invert_causal(reversed_f, max_len, eps)
    g = causal.inverse
    # c_{-d-m} = g_m, so the ascending-index storage is g reversed
    coeffs = np.zeros(causal.truncation_len, dtype=complex)
    for k, c in enumerate(g.coeffs):
        coeffs[g.offset + k] = c
    inverse = WienerElement(tuple(coeffs[::-1]), -d - causal.truncation_len + 1)
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

    def log10(self) -> float:
        return math.log10(self.mantissa) + self.exponent * math.log10(2.0)

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


@dataclass(frozen=True)
class AsymmetryRow:
    """One truncation dimension of :func:`asymmetry_report`.

    ``norm_triangular_inverse`` and ``cond_triangular`` read ``inf`` past
    float max, and when ``a_0 = 0``; ``wide_norm_triangular_inverse`` holds
    the same norm exactly past float max too (``None`` when ``a_0 = 0``).
    Likewise ``wide_norm_circulant_inverse`` holds ``norm_circulant_inverse``
    past float max, as for a subnormal symbol (``None`` when singular).
    ``inverse_route`` names what answered that norm: ``"power"`` (block
    power iteration), ``"banded"`` (the banded Gram eigenvalue, after power
    iteration did not settle on an Invertible symbol) or ``"none"``
    (``a_0 = 0``).  ``inverse_steps`` counts the power steps taken and
    ``inverse_change`` is the last relative change of the power estimate.
    """

    dim: int
    norm_circulant_inverse: float
    norm_triangular_inverse: float
    cond_circulant: float
    cond_triangular: float
    circulant_singular: bool
    norm_triangular: float
    wide_norm_triangular_inverse: WideFloat | None
    inverse_route: str
    inverse_steps: int
    inverse_change: float
    wide_norm_circulant_inverse: WideFloat | None

    @property
    def wide_cond_triangular(self) -> WideFloat | None:
        """``cond_triangular`` held exactly past float max."""
        if self.wide_norm_triangular_inverse is None:
            return None
        return self.wide_norm_triangular_inverse * WideFloat.of(self.norm_triangular)


def _triangular_inverse_norm(
    f: WienerElement, dim: int, rho: float, invertible: bool
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
    norm is then ``1/sqrt`` of the smallest eigenvalue of the banded Gram
    matrix ``T_N(f)^H T_N(f)``, accurate to about ``eps * cond**2`` with the
    condition number bounded by the symbol; otherwise the unsettled power
    estimate stands, and ``change`` shows it.
    """
    from scipy.linalg import eigvals_banded

    a = f.to_array()
    q = len(a) - 1
    # every scaling is by a power of two, so none of them rounds
    e = np.rint(np.arange(dim) * math.log2(1.0 / rho)).astype(np.int64)
    t = math.frexp(abs(a[0]))[1]
    columns = np.arange(dim)
    band = np.empty((q + 1, dim), dtype=complex)
    for k in range(q + 1):
        shift = t + e[np.minimum(columns + k, dim - 1)] - e[columns]
        band.real[k] = np.ldexp(a[k].real, -shift)
        band.imag[k] = np.ldexp(a[k].imag, -shift)
    left, right = np.ldexp(1.0, e - e[-1])[:, None], np.ldexp(1.0, -e)[:, None]
    start = np.random.default_rng(0).standard_normal((dim, q + 1))
    x = np.linalg.qr(start.astype(complex))[0]
    sigma, change, previous = 0.0, math.nan, math.nan
    for step in range(1, INVERSE_NORM_MAX_STEPS + 1):
        y = left * _solve_unilateral(band, right * x)
        ritz = math.sqrt(np.linalg.eigvalsh(y.conj().T @ y)[-1])
        change, previous, sigma = abs(ritz - sigma) / ritz, change, ritz
        # settled: the last change and the remainder change * r / (1 - r) it
        # extrapolates to, with r = change / previous, are both below the tol
        if change <= INVERSE_NORM_TOL and (
            change == 0.0 or change * change <= INVERSE_NORM_TOL * (previous - change)
        ):
            break
        x = np.linalg.qr(right * _solve_unilateral(band, left * y, "C"))[0]
    else:
        if invertible:
            gram, scale = operators._gram_band(f, dim)
            lowest = eigvals_banded(gram, lower=True, select="i", select_range=(0, 0))[0]
            if lowest > 0:
                wide = (WideFloat.of(scale) * WideFloat.of(math.sqrt(lowest))).reciprocal()
                return wide, "banded", step, change
    mantissa, exponent = math.frexp(sigma)
    return WideFloat(mantissa, exponent + int(e[-1]) - t), "power", step, change


def asymmetry_report(f: WienerElement, dims) -> list[AsymmetryRow]:
    """Inverse norms and condition numbers, circulant vs triangular truncation.

    The circulant side is inverted through its spectrum (the symbol's values
    at the roots of unity; a normal matrix's inverse norm is one over its
    smallest eigenvalue modulus).  A singular circulant (symbol vanishing at
    a root of unity) is reported with infinite norms, not raised.

    The triangular side forms no matrix.  ``norm_triangular = ||T_N(f)||``,
    the compression norm an isometry sweep tabulates, is read off the banded
    Gram matrix by :func:`operators.compression_norm`.  The inverse of a
    lower-triangular Toeplitz matrix is the Toeplitz matrix of the
    power-series inverse, ``T_N(f)^{-1} = T_N(1/f)``, and its norm comes
    from banded triangular solves (:func:`_triangular_inverse_norm`), carried
    as a :class:`WideFloat` so that the geometric blow-up of a root inside
    the circle, such as the ``2**(N-1)`` growth for ``1 - 2z``, stays exact
    past float max.  ``a_0 = 0`` makes ``T_N(f)`` singular: infinite
    triangular norms, route ``"none"``.
    """
    if not f.is_causal:
        raise ValueError("asymmetry report needs a causal symbol (offset >= 0)")
    if f.is_zero:
        raise ValueError("asymmetry report needs a nonzero symbol")
    rows = []
    a0 = f.coeff(0)
    if a0 != 0:
        classification = classify_roots(f)
        # the value does not depend on rho, only whether the iteration overflows
        rho = min([1.0, *(abs(r) for r in classification.roots)])
        invertible = classification.verdict is Verdict.INVERTIBLE
    for dim in dims:
        dim = int(dim)
        if dim < f.support_length:
            raise ValueError(
                f"dim {dim} is smaller than the support length {f.support_length}"
            )
        spectrum = np.abs(wiener.evaluate_on_grid(f, dim))
        smallest = float(spectrum.min())
        largest = float(spectrum.max())
        singular = smallest == 0.0
        wide_circ = None if singular else WideFloat.of(smallest).reciprocal()
        norm_circ_inv = math.inf if singular else float(wide_circ)
        cond_circ = math.inf if singular else largest / smallest
        norm_tri = operators.compression_norm(f, dim)
        if a0 == 0:
            wide, route, steps, change = None, "none", 0, 0.0
            norm_tri_inv = cond_tri = float("inf")
        else:
            wide, route, steps, change = _triangular_inverse_norm(f, dim, rho, invertible)
            norm_tri_inv = float(wide)
            cond_tri = norm_tri * norm_tri_inv
        rows.append(
            AsymmetryRow(
                dim, norm_circ_inv, norm_tri_inv, cond_circ, cond_tri, singular,
                norm_tri, wide, route, steps, change, wide_circ,
            )
        )
    return rows


def _csv_cell(value: float, wide: WideFloat | None) -> str:
    """``%.17g`` of ``value``; past float max, the decimal literal of ``wide``."""
    return wide.text() if value == math.inf and wide is not None else f"{value:.17g}"


def asymmetry_csv(rows) -> str:
    lines = ["N,norm_circulant_inverse,norm_triangular_inverse,cond_circulant,cond_triangular"]
    for r in rows:
        lines.append(
            f"{r.dim},{_csv_cell(r.norm_circulant_inverse, r.wide_norm_circulant_inverse)},"
            f"{_csv_cell(r.norm_triangular_inverse, r.wide_norm_triangular_inverse)},"
            f"{r.cond_circulant:.17g},{_csv_cell(r.cond_triangular, r.wide_cond_triangular)}"
        )
    return "\n".join(lines) + "\n"
