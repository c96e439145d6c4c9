"""The float cell layouter of ``sample.csv`` and JSON arrays, key by key."""

import math
import random
from decimal import Decimal

import numpy as np
import pytest

from shiftop import _digits

RULES = {
    # cell function, the text it must write, last plain exponent + 1, and
    # whether the digits of x are its own (repr takes powers of two itself)
    "g17": (_digits._g17_cells, lambda x: "," + format(x, ".17g"), 17, lambda x: True),
    "repr": (_digits._repr_cells, repr, 16, lambda x: math.frexp(x)[0] != 0.5),
}


def _key(text: str) -> tuple[int, int]:
    """(exponent, index of the last nonzero digit) of a plain number's text."""
    d = Decimal(text.lstrip(",")).normalize()
    return d.adjusted(), len(d.as_tuple().digits) - 1


def _one_value_per_key(text, plain_end: int, laid_out) -> list[float]:
    """A float for every plain key (e, last), e = -4 .. plain_end - 1 and last = 0 .. 16.

    Candidates have last + 1 significant digits, the last nonzero; the first
    one the layouter takes and whose text has exactly that key is kept.
    Random draws rarely reach some keys, such as 17 digits at e = 16 or an
    integral 16-digit value.
    """
    rng = random.Random(1)
    values = []
    for e in range(-4, plain_end):
        for last in range(17):
            for _ in range(2000):
                digits = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(last)]
                digits[-1] = rng.randint(1, 9)
                x = float(f"{digits[0]}.{''.join(map(str, digits[1:]))}e{e}")
                if laid_out(x) and "e" not in text(x) and _key(text(x)) == (e, last):
                    values.append(x)
                    break
            else:
                pytest.fail(f"no value found for key e={e}, last={last}")
    return values


@pytest.mark.parametrize("rule", list(RULES))
def test_every_template_key_matches_the_python_text(rule):
    cells, text, plain_end, laid_out = RULES[rule]
    values = _one_value_per_key(text, plain_end, laid_out)
    # scientific notation with exponents of one, two and three digits
    values += [1.25e-5, 7e-9, 1e16, 2.5e17, 3.0625e-100, 1.2345e200, 9.87654321e-250]
    values += [-x for x in values]
    assert len(values) == 2 * ((plain_end + 4) * 17 + 7)
    got = cells(np.array(values)).view(np.uint8).reshape(len(values), -1)
    assert [c.tobytes().replace(b"\0", b"").decode() for c in got] == [text(x) for x in values]


def _digit_count(x: float) -> int:
    return len(Decimal(repr(x)).normalize().as_tuple().digits)


def test_repr_cells_mix_long_short_and_refused_values():
    # the 16- and 15-digit tests run on the whole block under a mask, and only
    # values that fit at 15 digits go on: every kind of value, interleaved
    rng = random.Random(27)
    by_digits = {17: [], 16: [], 15: []}
    while min(map(len, by_digits.values())) < 40:
        k = rng.choice(list(by_digits))
        x = float(f"{rng.randint(10 ** (k - 1), 10**k - 1)}e{rng.randint(-40, 40)}")
        if _digit_count(x) in by_digits and len(by_digits[_digit_count(x)]) < 40:
            by_digits[_digit_count(x)].append(x)
    short = [0.5, 1.25, 0.1, 1e-7, 123.0]
    refused = [2.0**-30, 1.0, 2.0**60, 5e-324, 1e-310, 2.2250738585072014e-308, 1e291, 1.5e300, 0.0]
    values = [x for group in by_digits.values() for x in group] + short * 4 + refused * 4
    rng.shuffle(values)
    values += [-x for x in values]
    cells = _digits._repr_cells(np.array(values)).view(np.uint8).reshape(len(values), -1)
    assert [c.tobytes().replace(b"\0", b"").decode() for c in cells] == [repr(x) for x in values]
