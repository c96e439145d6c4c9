"""Exact decimal digit primitives shared by the array encoders of CSV and JSON numbers.

``process`` encodes ``sample.csv`` cells as ``format(x, ".17g")`` and ``cli``
writes JSON numbers as ``float.__repr__``; both form the digits of a float
with these tables, never with a per-value Python format.
"""

from __future__ import annotations

import numpy as np

_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp split ``a = hi + lo`` with both halves of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)

# 10**s for s in [-_WIDE_SPAN, _WIDE_SPAN] as a double-double: _POW10_WIDE is
# 10**s rounded to nearest and _POW10_WIDE_TAIL the rounding of the exact
# remainder, both from integer arithmetic (int true division rounds correctly)
_WIDE_SPAN = 290


def _wide_powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    head, tail = [], []
    for s in range(-_WIDE_SPAN, _WIDE_SPAN + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        head.append(h)
        tail.append((num * h_den - h_num * den) / (den * h_den))
    return np.array(head), np.array(tail)


_POW10_WIDE, _POW10_WIDE_TAIL = _wide_powers_of_ten()
_POW10_WIDE_HI, _POW10_WIDE_LO = _split(_POW10_WIDE)

_GROUP4 = np.arange(10_000)
_DIGITS4 = (  # "0000" .. "9999", four ASCII bytes each
    (_GROUP4[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view("<u4")
    .ravel()
)
