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

import enum
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


def _series_inverse_prefix(coeffs: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` coefficients of the formal power-series inverse.

    ``g_0 = 1/a_0`` and ``g_n = -(1/a_0) sum_{k=1..min(n,q)} a_k g_{n-k}``.
    """
    a = np.asarray(coeffs, dtype=complex)
    q = len(a) - 1
    g = np.zeros(length, dtype=complex)
    g[0] = 1.0 / a[0]
    for n in range(1, length):
        k = min(n, q)
        acc = np.dot(a[1 : k + 1], g[n - 1 :: -1][:k])
        g[n] = -acc / a[0]
    return g


def _geometric_tail_bound(rho: float, q: int, a0_abs: float, length: int) -> float:
    """Certified bound on ``sum_{n >= length} |g_n|`` from the dominant root.

    Coefficientwise, ``|g_n| <= (1/|a_0|) C(n+q-1, q-1) rho**n`` (majorize
    every factor ``(1 - z/r_i)**-1`` by the ``rho``-geometric series), and the
    tail sum is at most the leading term times ``(1 - rho)**-q``.
    """
    if q == 0:
        return 0.0
    # C(length + q - 1, q - 1) computed iteratively alongside rho**length
    term = 1.0
    for j in range(1, q):
        term *= (length + j) / j
    term *= rho**length / a0_abs
    return term / (1.0 - rho) ** q


def _certified_length(rho: float, q: int, a0_abs: float, max_len: int, eps: float) -> tuple[int, float]:
    """Smallest ``L <= max_len`` whose geometric tail bound is ``<= eps``."""
    if q == 0:
        return 1, 0.0
    scale = 1.0 / (a0_abs * (1.0 - rho) ** q)
    # term = C(L+q-1, q-1) rho**L, updated multiplicatively in L
    term = rho
    for j in range(1, q):
        term *= (1 + j) / j
    for length in range(1, max_len + 1):
        bound = term * scale
        if bound <= eps:
            return length, bound
        term *= rho * (length + q) / (length + 1)
    achieved = _geometric_tail_bound(rho, q, a0_abs, max_len)
    raise TailNotCertifiedError(
        f"tail bound {achieved:.3e} after {max_len} coefficients exceeds eps = {eps:.3e}",
        achieved,
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
    when ``max_len`` is reached first.
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
        inverse = WienerElement((1.0 / a[0],))
        return InversionResult(inverse, InversionSide.CAUSAL, 1, 0.0)
    rho = float(max(1.0 / np.abs(classification.roots)))
    length, bound = _certified_length(rho, q, abs(a[0]), int(max_len), float(eps))
    g = _series_inverse_prefix(a, length)
    return InversionResult(
        WienerElement(tuple(g)), InversionSide.CAUSAL, length, bound
    )


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
class AsymmetryRow:
    dim: int
    norm_circulant_inverse: float
    norm_triangular_inverse: float
    cond_circulant: float
    cond_triangular: float
    circulant_singular: bool
    norm_triangular: float


def asymmetry_report(f: WienerElement, dims) -> list[AsymmetryRow]:
    """Inverse norms and condition numbers, circulant vs triangular truncation.

    The circulant side is inverted through its spectrum (the symbol's values
    at the roots of unity; a normal matrix's inverse norm is one over its
    smallest eigenvalue modulus).  The triangular side needs no solve: a lower-triangular Toeplitz matrix's
    inverse is the Toeplitz matrix of the power-series inverse, so
    ``T_N(f)**-1 = T_N(g)`` with ``g`` the first ``N`` coefficients of
    ``1/f``.  The recursion for ``g`` is exact up to rounding and exposes
    geometric blow-up such as the ``2**(N-1)`` growth of ``(1 - 2z)**-1``.
    Each row also carries ``norm_triangular = ||T_N(f)||``, the compression
    norm an isometry sweep tabulates, read off the banded Gram matrix by
    :func:`operators.compression_norm`; only ``T_N(g)`` takes a dense SVD.
    A singular circulant (symbol vanishing at a root of unity) is reported
    with infinite norms, not raised.
    """
    if not f.is_causal:
        raise ValueError("asymmetry report needs a causal symbol (offset >= 0)")
    if f.is_zero:
        raise ValueError("asymmetry report needs a nonzero symbol")
    rows = []
    a0 = f.coeff(0)
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
        if singular:
            norm_circ_inv = float("inf")
            cond_circ = float("inf")
        else:
            norm_circ_inv = 1.0 / smallest
            cond_circ = largest / smallest
        norm_tri = operators.compression_norm(f, dim)
        if a0 == 0:
            norm_tri_inv = float("inf")
            cond_tri = float("inf")
        else:
            # a root inside the circle can overflow g to inf/nan; the norm
            # below then reads inf or raises LinAlgError
            with np.errstate(over="ignore", invalid="ignore"):
                g = _series_inverse_prefix(f.to_array(), dim)
            norm_tri_inv = operators.operator_norm(
                operators.build_unilateral(WienerElement(tuple(g)), dim)
            )
            cond_tri = norm_tri * norm_tri_inv
        rows.append(
            AsymmetryRow(
                dim, norm_circ_inv, norm_tri_inv, cond_circ, cond_tri, singular, norm_tri
            )
        )
    return rows


def asymmetry_csv(rows) -> str:
    lines = ["N,norm_circulant_inverse,norm_triangular_inverse,cond_circulant,cond_triangular"]
    for r in rows:
        lines.append(
            f"{r.dim},{r.norm_circulant_inverse:.17g},{r.norm_triangular_inverse:.17g},"
            f"{r.cond_circulant:.17g},{r.cond_triangular:.17g}"
        )
    return "\n".join(lines) + "\n"
