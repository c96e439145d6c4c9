"""Coefficient algebra for absolutely summable transfer functions.

Elements are finitely supported Laurent series ``f(z) = sum_n a_n z**n``
viewed as functions on the unit circle.  The index may run negative (an
``offset`` below zero), so both causal power series and two-sided symbols
live in the same type.  Finite support keeps every norm and identity exactly
computable; infinite objects enter the package only through explicit
truncations produced elsewhere.

All values are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "WienerElement",
    "ONE",
    "ZERO",
    "monomial",
    "add",
    "multiply",
    "l1_norm",
    "evaluate",
    "evaluate_on_grid",
    "sup_norm",
    "sup_norm_grid_error",
    "to_json_dict",
    "from_json_dict",
    "load_coefficients",
    "save_coefficients",
]

# Tolerance on | |z| - 1 | accepted by pointwise evaluation.
UNIT_CIRCLE_TOL = 1e-12

# Smallest admissible evaluation grid.
MIN_GRID_SIZE = 16


def _as_complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(v) for v in values)


@dataclass(frozen=True)
class WienerElement:
    """A finitely supported Laurent series ``sum_n a_n z**n``.

    ``coeffs[k]`` holds the coefficient of ``z**(offset + k)``.  Stored
    coefficients are trimmed so the first and last entries are nonzero; the
    zero element is canonically ``((0j,), 0)``.  Equality is exact equality
    of the canonical form.

    Examples
    --------
    >>> f = WienerElement((1, -2))          # 1 - 2z
    >>> f.degree, f.is_causal
    (1, True)
    >>> g = WienerElement((0.5,), offset=-1)  # (1/2) z^{-1}
    >>> g.is_causal
    False
    """

    coeffs: tuple[complex, ...]
    offset: int = 0

    def __post_init__(self):
        coeffs = _as_complex_tuple(self.coeffs)
        if not coeffs:
            raise ValueError("coeffs must be nonempty")
        offset = int(self.offset)
        first = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if first is None:
            coeffs, offset = (0j,), 0
        else:
            last = max(i for i, c in enumerate(coeffs) if c != 0)
            offset += first
            coeffs = coeffs[first : last + 1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", offset)

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    @property
    def is_causal(self) -> bool:
        """True when every stored index is nonnegative."""
        return self.offset >= 0

    @property
    def min_index(self) -> int:
        return self.offset

    @property
    def degree(self) -> int:
        """Largest stored index (0 for the zero element)."""
        return self.offset + len(self.coeffs) - 1

    @property
    def support_length(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> complex:
        """Coefficient of ``z**n`` (0 outside the stored window)."""
        k = n - self.offset
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0j

    def to_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)

    # -- arithmetic sugar (delegates to the module-level operations) ------

    def __add__(self, other):
        if isinstance(other, WienerElement):
            return add(self, other)
        if isinstance(other, (int, float, complex)):
            return add(self, WienerElement((other,)))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return WienerElement(tuple(-c for c in self.coeffs), self.offset)

    def __sub__(self, other):
        if isinstance(other, WienerElement):
            return add(self, -other)
        if isinstance(other, (int, float, complex)):
            return add(self, WienerElement((-other,)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, WienerElement):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return WienerElement(tuple(other * c for c in self.coeffs), self.offset)
        return NotImplemented

    __rmul__ = __mul__


ZERO = WienerElement((0j,))
ONE = WienerElement((1.0 + 0j,))


def monomial(n: int, coefficient: complex = 1.0) -> WienerElement:
    """The single-term element ``coefficient * z**n``."""
    return WienerElement((coefficient,), n)


def add(f: WienerElement, g: WienerElement) -> WienerElement:
    """Coefficientwise sum (exact float additions, canonical trim)."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    lo = min(f.offset, g.offset)
    hi = max(f.degree, g.degree)
    out = np.zeros(hi - lo + 1, dtype=complex)
    out[f.offset - lo : f.offset - lo + len(f.coeffs)] += f.to_array()
    out[g.offset - lo : g.offset - lo + len(g.coeffs)] += g.to_array()
    return WienerElement(tuple(out), lo)


def multiply(f: WienerElement, g: WienerElement) -> WienerElement:
    """Laurent product of two elements.

    Offsets add and the coefficient sequences convolve, so the result has
    support length ``len(f) + len(g) - 1`` before trimming.
    """
    if f.is_zero or g.is_zero:
        return ZERO
    conv = np.convolve(f.to_array(), g.to_array())
    return WienerElement(tuple(conv), f.offset + g.offset)


def l1_norm(f: WienerElement) -> float:
    """Sum of coefficient moduli, the algebra norm; inf once it passes float max."""
    with np.errstate(over="ignore"):  # callers reject an infinite norm
        return float(np.sum(np.abs(f.to_array())))


def _evaluate_unchecked(f: WienerElement, z):
    """Two-sided Horner evaluation; ``z`` may be a scalar or an ndarray.

    The negative-index block is accumulated in powers of ``1/z`` and the
    nonnegative block in powers of ``z``, each by Horner's scheme.
    """
    z = np.asarray(z, dtype=complex)
    total = np.zeros(z.shape, dtype=complex)
    lo, hi = f.offset, f.degree
    if lo < 0:
        u = 1.0 / z
        # stored order a_lo, ..., a_m is exactly the Horner order for
        # u^-m * (a_m + u * (a_{m+1} + ...)) with m the top negative index
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


def evaluate(f: WienerElement, z: complex) -> complex:
    """Value of ``f`` at a point ``z`` on the unit circle.

    Raises ``ValueError`` when ``| |z| - 1 | > 1e-12``; off-circle evaluation
    has no meaning for these symbols.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(
            f"evaluation point must lie on the unit circle, got |z| = {abs(z)!r}"
        )
    return complex(_evaluate_unchecked(f, z))


def evaluate_on_grid(f: WienerElement, grid_size: int) -> np.ndarray:
    """Values of ``f`` at the points ``exp(2 pi i k / grid_size)``, k ascending.

    With ``grid_size`` a power of two the grids nest exactly (the angle
    ``2 pi k / G`` is computed identically at ``G`` and ``2G``), which makes
    grid refinement monotone without tolerance.
    """
    grid_size = int(grid_size)
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    return _evaluate_unchecked(f, z)


def sup_norm(f: WienerElement, grid_size: int) -> float:
    """Max of ``|f|`` over a uniform grid of ``grid_size`` circle points.

    This is a lower bound for the true sup norm; the gap is at most
    ``sup_norm_grid_error(f, grid_size)`` by the derivative bound
    ``sum |n a_n|``.  Requires ``grid_size >= 16``.
    """
    grid_size = int(grid_size)
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be at least {MIN_GRID_SIZE}")
    return float(np.max(np.abs(evaluate_on_grid(f, grid_size))))


def sup_norm_grid_error(f: WienerElement, grid_size: int) -> float:
    """Upper bound on ``true sup - sup_norm(f, grid_size)``.

    Every circle point is within arc length ``pi / grid_size`` of a grid
    point, and ``|f'|`` on the circle is bounded by ``sum |n a_n|``.
    """
    grid_size = int(grid_size)
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    indices = np.arange(f.offset, f.degree + 1)
    derivative_bound = float(np.sum(np.abs(indices * f.to_array())))
    return math.pi / grid_size * derivative_bound


# -- JSON coefficient format ----------------------------------------------
#
# { "offset": int, "coeffs": [[re, im], ...] }
#
# Floats are written with shortest round-trip repr, so values survive the
# decimal round trip exactly (beyond the 15 significant digits required).


def to_json_dict(f: WienerElement) -> dict:
    return {
        "offset": f.offset,
        "coeffs": [[c.real, c.imag] for c in f.coeffs],
    }


def from_json_dict(data) -> WienerElement:
    """Parse the JSON coefficient format, naming the offending field on error."""
    if not isinstance(data, dict):
        raise ValueError("coefficient document must be a JSON object")
    if "coeffs" not in data:
        raise ValueError("missing field 'coeffs'")
    offset = data.get("offset", 0)
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise ValueError("field 'offset' must be an integer")
    raw = data["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("field 'coeffs' must be a nonempty list")
    coeffs = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"coeffs[{i}]: expected a [re, im] pair of numbers")
        coeffs.append(complex(entry[0], entry[1]))
    return WienerElement(tuple(coeffs), offset)


def load_coefficients(path) -> WienerElement:
    """Load an element from a JSON coefficient file."""
    text = Path(path).read_text()
    return from_json_dict(json.loads(text))


def save_coefficients(f: WienerElement, path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(f), indent=2) + "\n")
