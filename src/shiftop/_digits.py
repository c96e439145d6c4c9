"""Float cells of ``sample.csv`` and of JSON arrays, laid out with array operations.

``process`` writes ``sample.csv`` cells as ``format(x, ".17g")``
(:func:`_g17_cells`) and ``cli`` writes the floats of a JSON array as
``float.__repr__`` (:func:`_repr_cells`).  Both form a float's digits from
one scaling, ``ax * 10**(16 - e)`` as a double-double, and lay the digits out
with one cell layouter, :func:`_cells`; only the values neither digit routine
is sure of go through a per-value Python format.
"""

from __future__ import annotations

import numpy as np

_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp split ``a = hi + lo`` with both halves of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


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
# trailing decimal zeros of the 4-digit groups ("0000" has 4)
_TRAILING_ZEROS4 = sum((_GROUP4 % 10**k == 0).astype(np.int64) for k in range(1, 5))


def _divmod(x: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(x, q)`` in under half the time for an int64 array."""
    head = x // q
    return head, x - head * q


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ax * 10**(16 - e)`` as ``hi + lo`` to within 1e-14: Dekker's TwoProduct
    with the head of the double-double ``10**s``, plus the product of its tail."""
    s = 16 - e + _WIDE_SPAN
    a_hi, a_lo = _split(ax)
    p_hi, p_lo = _POW10_WIDE_HI[s], _POW10_WIDE_LO[s]
    hi = ax * _POW10_WIDE[s]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo + ax * _POW10_WIDE_TAIL[s]


def _exponent(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e, hi, lo)``: the decimal exponent ``e`` of each ``ax`` in [1e-270, 1e290)
    and ``P = ax * 10**(16 - e)``, with ``1e16 <= P < 1e17``, as ``hi + lo``.

    ``floor(log10)`` can be one off next to a power of ten: the product is
    tested and ``e`` corrected once.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, e)
    low, high = (hi - 1e16) + lo, (hi - 1e17) + lo
    redo = np.flatnonzero((low < 0) | (high >= 0))
    if len(redo):
        e[redo] += np.where(high[redo] >= 0, 1, -1)
        hi[redo], lo[redo] = _scaled(ax[redo], e[redo])
    return e, hi, lo


def _decimal17(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``n`` and exponent ``e`` of ``ax`` rounded to 17 significant digits.

    Needs ``1e-4 <= ax < 1e17``.  Returns int64 arrays with
    ``1e16 <= n < 1e17`` such that ``n * 10**(e - 16)`` is the exact value of
    ``ax`` rounded half-even, as ``format(x, ".17g")`` rounds it.  There
    ``16 - e`` lies in [0, 20], so the product ``hi + lo`` of :func:`_exponent`
    is exact; ``hi`` is then an even integer above 2**53, so
    ``hi + rint(lo)`` rounds the exact value half-even.  No double in that
    range lies within 5e-18 relative below a power of ten, so ``n`` never
    rounds up to ``10**17``.
    """
    e, hi, lo = _exponent(ax)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


# Range of _shortest_decimal; zeros, subnormals, powers of two (their rounding
# interval is asymmetric), values past this range and any value whose rounding
# or round-trip decision lies within _SURE of its threshold are refused.
_FAST_MIN, _FAST_MAX = 1e-270, 1e290
_SURE = 2.0**-30  # against an error below 1e-14 in the digit arithmetic


def _rounding(integer, frac, half_ulp, q: int):
    """``P = integer + frac`` rounded at ``q``: ``(head, up, gap, close)``.

    The rounding is ``(head + up) * q``; it reads back where ``gap < 0``, and
    ``close`` marks a tie or read-back decision within ``_SURE`` of its threshold.
    """
    head, rest = _divmod(integer, q)
    tie = (rest - q / 2) + frac  # rounds up above 0
    up = tie > 0
    # distance of the rounding from P, less the half-ulp: below 0 reads back
    gap = (np.where(up, q - rest, rest) - half_ulp) + np.where(up, -frac, frac)
    return head, up, gap, (np.abs(tie) < _SURE) | (np.abs(gap) < _SURE)


def _shortest_decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip decimal of each ``ax`` in [1e-270, 1e290): ``(n, e, sure)``.

    ``n`` (int64, ``1e16 <= n < 1e17``) holds the digits, then zeros, and the
    decimal is ``n * 10**(e - 16)``; the digits ``repr`` prints are those of
    ``n`` up to its last nonzero one.  ``sure`` is False where a decision came
    within ``_SURE`` of its threshold, or ``ax`` is a power of two.

    ``P = ax * 10**(16 - e)`` comes from :func:`_exponent` to within 1e-14,
    and is split into an integer ``N`` and a fraction.  A k-digit rounding of
    ``P`` is ``N`` rounded at ``q = 10**(17 - k)``; it reads back to ``ax``
    when its distance from ``P`` is below the half-ulp ``P / (2 M)``, ``M``
    the 53-bit integer mantissa.  Counting k down from 17, which always reads
    back, the last k that does is the shortest, and its rounding is the
    nearest decimal of that length, the one ``repr`` prints.
    """
    e, hi, lo = _exponent(ax)
    # a value still out of range, or within the error of an edge (a power of
    # ten itself), is refused
    sure = ((hi - 1e16) + lo >= _SURE) & ((hi - 1e17) + lo <= -_SURE)
    floor_lo = np.floor(lo)
    integer = hi.astype(np.int64) + floor_lo.astype(np.int64)  # N
    frac = lo - floor_lo
    mantissa = np.frexp(ax)[0]
    half_ulp = hi / np.ldexp(mantissa, 54)
    sure &= mantissa != 0.5
    tie = frac - 0.5  # 17 digits, P rounded to an integer, always read back
    n = integer + (tie > 0)
    sure &= np.abs(tie) >= _SURE
    # k = 16 and 15 run on the whole block under the mask of values still in
    # the count, since most values leave there; refused values are out of it
    fits = sure.copy()
    for k in (16, 15):
        head, up, gap, close = _rounding(integer, frac, half_ulp, 10 ** (17 - k))
        sure &= ~(close & fits)
        fits &= gap < 0
        np.copyto(n, (head + up) * 10 ** (17 - k), where=fits)
    # the few values that fit at 15 digits are compacted for the rest of the count
    live = np.flatnonzero(fits)
    integer, frac, half_ulp = integer[live], frac[live], half_ulp[live]
    for k in range(14, 0, -1):
        q = 10 ** (17 - k)
        head, up, gap, close = _rounding(integer, frac, half_ulp, q)
        if close.any():
            sure[live[close]] = False
        fits = gap < 0
        if not fits.any():
            break
        live, integer, frac, half_ulp = live[fits], integer[fits], frac[fits], half_ulp[fits]
        n[live] = (head[fits] + up[fits]) * q
    carry = n == 10**17  # 9.5 rounded to one digit: 10
    n[carry] = 10**16
    e += carry
    # a refused value keeps the layout inside its tables; its cell is replaced
    n[~sure] = 10**16
    return n, e, sure


# A cell is 32 bytes, read as four little-endian uint64 words: byte 0 is a
# lead byte (the ',' before a CSV value, NUL in JSON), byte 1 the sign, the
# value's characters follow, and NUL bytes anywhere are dropped when a block
# is emitted.  The digit source has '0' at bytes 0..6 (bytes 3..6 serve as the
# zeros of "0.000ddd"), the 17 digits of n at bytes 7..23 and the exponent's
# sign and digits at bytes 28..31.  The cell takes the part before the '.'
# from the source shifted down one byte, then '.', then the rest in place, so
# the '.' lands at byte 7 + e in plain notation and at byte 7 in "d.ddde±XX",
# whose 'e' is a constant byte 27.  Which source bytes survive depends only on
# the notation (plain at exponent e, or scientific) and the index of the last
# nonzero digit, so three 32-byte templates per (notation, last) pair do the
# layout.
_CELL_WORDS = 4
_EXP_SPAN = 330


def _exponent_words() -> np.ndarray:
    """The exponent of "e-05" or "e+300" as a uint32: its sign and three digits,
    a NUL in place of a leading digit below 100."""
    texts = [
        (b"-" if x < 0 else b"+") + (b"\0%02d" % abs(x) if abs(x) < 100 else b"%d" % abs(x))
        for x in range(-_EXP_SPAN, _EXP_SPAN + 1)
    ]
    return np.frombuffer(b"".join(texts), dtype="<u4")


_EXPONENT4 = _exponent_words()


def _templates(plain_end: int, dot_zero: bool, lead: str) -> tuple:
    """A rule: ``plain_end``, then the shifted-source mask, in-place mask and
    constant bytes of every cell key.  Plain notation is for
    ``-4 <= e < plain_end``, ``.0`` follows an integral plain value when
    ``dot_zero``, and ``lead`` (one byte or none) comes before the value."""
    notations = plain_end + 5  # plain at e = -4 .. plain_end - 1, then scientific
    shifted, in_place, constant = (np.zeros((notations, 17, 32), dtype=np.uint8) for _ in range(3))
    constant[:, :, 0] = ord(lead or "\0")
    for notation in range(notations):
        scientific = notation == notations - 1
        e = 0 if scientific else notation - 4  # d.ddd is laid out as plain at e = 0
        dot = dot_zero and not scientific
        for last in range(17):
            k = (notation, last)
            shifted[k][6 + min(e, 0) : 7 + e] = 0xFF  # "0" of "0.000ddd", or the digits to e
            if last > e or dot:
                constant[k][7 + e] = ord(".")
            in_place[k][8 + e : 8 + max(last, e + dot)] = 0xFF
            if scientific:
                constant[k][27] = ord("e")
                in_place[k][28:32] = 0xFF
    masks = (t.reshape(notations * 17, 32).view("<u8") for t in (shifted, in_place, constant))
    return (plain_end, *masks)


_G17 = _templates(17, False, ",")  # "," + format(x, ".17g")
_REPR = _templates(16, True, "")  # float.__repr__(x)


def _cells(values, n, e, exact, rule, text) -> np.ndarray:
    """The cells of ``values`` from their digits ``n`` and exponents ``e`` under ``rule``;
    where ``exact`` is False, ``text(x)``, formatted once per distinct value."""
    plain_end, shifted_mask, in_place_mask, constant = rule
    top, low8 = _divmod(n, 10**8)
    d0, top = _divmod(top, 10**8)
    groups = (d0, *_divmod(top, 10**4), *_divmod(low8, 10**4))
    source = np.zeros((len(values), 2 * _CELL_WORDS), dtype="<u4")
    source[:, 0] = _DIGITS4[0]
    for k, g in enumerate(groups, start=1):
        source[:, k] = np.take(_DIGITS4, g)
    source[:, 7] = np.take(_EXPONENT4, e + _EXP_SPAN)
    trailing = np.take(_TRAILING_ZEROS4, groups[1])
    for g in groups[2:]:
        trailing = np.where(g == 0, trailing + 4, np.take(_TRAILING_ZEROS4, g))
    notation = np.where((e >= -4) & (e < plain_end), e + 4, plain_end + 4)
    key = notation * 17 + (16 - trailing)
    source = source.view("<u8")
    cells = source >> np.uint64(8)
    # byte 7 of each word takes byte 0 of the next word; the last word of a
    # row takes the next row's first byte, which the templates clear
    cells.ravel()[:-1] |= source.ravel()[1:] << np.uint64(56)
    cells &= np.take(shifted_mask, key, axis=0)
    source &= np.take(in_place_mask, key, axis=0)
    cells |= source
    cells |= np.take(constant, key, axis=0)
    cells[:, 0] |= np.signbit(values) * np.uint64(ord("-") << 8)
    slow = np.flatnonzero(~exact)
    if len(slow):
        bits, inverse = np.unique(values[slow].view(np.int64), return_inverse=True)
        texts = [text(x).encode("ascii") for x in bits.view(np.float64).tolist()]
        table = np.array(texts, dtype=f"S{8 * _CELL_WORDS}").view("<u8")
        cells[slow] = table.reshape(-1, _CELL_WORDS)[inverse.reshape(-1)]
    return cells


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """``"," + format(x, ".17g")`` for every float64 ``x`` as NUL-padded 32-byte cells;
    Python formats every ``x`` outside [1e-4, 1e17) (0, tiny, huge, inf, nan)."""
    ax = np.abs(values)
    fast = (ax >= 1e-4) & (ax < 1e17)
    n, e = _decimal17(np.where(fast, ax, 1.0))
    return _cells(values, n, e, fast, _G17, ",{:.17g}".format)


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """``float.__repr__(x)`` for every finite float64 ``x`` as NUL-padded 32-byte cells;
    ``float.__repr__`` writes every ``x`` :func:`_shortest_decimal` refuses."""
    ax = np.abs(values)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    n, e, sure = _shortest_decimal(np.where(fast, ax, 1.0))
    return _cells(values, n, e, fast & sure, _REPR, float.__repr__)
