"""The CLI's strict JSON writer against ``json.dumps`` (``oracles.json_text_oracle``)."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NEAR_CIRCLE_ROOT_CLASSES, json_text_oracle
from shiftop import cli, wiener
from shiftop.cli import main
from shiftop.invertibility import WideFloat
from shiftop.wiener import WienerElement

EDGE_DOCUMENTS = {
    "literals past float max": {"norm": WideFloat(0.75, 2000), "cond": WideFloat(0.5, 1025)},
    "wide floats in range": [WideFloat.of(0.1), WideFloat.of(2.0**1023), WideFloat.of(5e-324)],
    "null": {"x": None, "y": [None]},
    "negative zero": [-0.0, 0.0, np.array([complex(-0.0, -0.0), complex(0.0, -0.0)])],
    "subnormals": [5e-324, -2.225e-308, np.array([complex(5e-324, -1e-310)])],
    "notation switch": [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, -1e16, 1e-5],
    "extremes": [1.7976931348623157e308, 2.2250738585072014e-308, 2**70, -(2**64)],
    "empty containers": {"l": [], "d": {}, "t": (), "a": np.array([], dtype=complex)},
    "tuples": (1, (2.5, ("x",)), [()]),
    "non-ascii keys": {"é": 1, "ключ": "значение", " ": "\t\"\\", "": "😀"},
    "bools": [True, False, {"flag": True}],
    "bare scalars": 0.1,
    "nested arrays": [{"roots": np.array([1 + 2j, -3.5 - 1e300j])}, np.array([0.1 + 0j])],
}


@pytest.mark.parametrize("name", EDGE_DOCUMENTS)
def test_writer_matches_oracle_on_edge_cases(name):
    document = EDGE_DOCUMENTS[name]
    assert cli._json_text(document) == json_text_oracle(document).encode()


def test_writer_matches_json_dumps_on_plain_documents():
    # no WideFloat and no array: the stdlib alone is the reference, strings
    # starting with NUL (the oracle's placeholder) included
    for document in ({"a": [1, {"b": None}], "c": "\0x"}, [], {}, "s", 3, -0.0, [[[]]]):
        expected = json.dumps(document, indent=2, allow_nan=False) + "\n"
        assert cli._json_text(document) == expected.encode()


@pytest.mark.parametrize(
    "document",
    [
        float("nan"),
        {"x": [1.0, float("inf")]},
        [-math.inf],
        {"coeffs": np.array([1 + 0j, complex(0.0, math.nan)])},
        np.array([complex(math.inf, 0.0)]),
    ],
)
def test_writer_rejects_non_finite_floats(document):
    with pytest.raises(ValueError):
        cli._json_text(document)


@pytest.mark.parametrize(
    "document", [{1: "int key"}, np.array([1.0, 2.0]), np.zeros((2, 2), dtype=complex), {1j}]
)
def test_writer_rejects_what_it_does_not_write(document):
    with pytest.raises(TypeError):
        cli._json_text(document)


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite
    # the oracle marks a literal by a NUL-prefixed string, which a document
    # string must not imitate
    | st.text(st.characters(blacklist_characters="\0"), max_size=8)
    | st.builds(WideFloat, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1100, 3000))
    | st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=6).map(
        lambda values: np.array(values, dtype=complex)
    )
)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(st.characters(blacklist_characters="\0"), max_size=6), children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_writer_matches_oracle_property(document):
    assert cli._json_text(document) == json_text_oracle(document).encode()


# -- float arrays: the array formatter against repr -----------------------------


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def _float_sets():
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return {
        "zeros": [0.0, -0.0],
        "subnormals": [5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308],
        "float max": [1.7976931348623157e308],
        "powers of two": _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        "powers of ten": _neighbours(powers_of_ten),
        "notation boundaries": _neighbours([1e-4, 1e-5, 1e16]),
        "2**53": _neighbours([2.0**53]),
        "one tenth sums": [0.1, 0.2, 0.30000000000000004, 0.1 + 0.7, 1 - 0.9],
        # shortest forms of 1 to 17 digits, plain and scientific
        "digit counts": [
            float(f"0.{'3' * k}e{exp}") for k in range(1, 17) for exp in (0, 3, -7, 20, 250, -250)
        ]
        + [0.30000000000000004, 1.2345678901234567e-200, 123456789012345.67],
        "integers": [1.0, 10.0, 99.0, 1234567.0, 1e15, 123456789012345678.0, 2.0**70],
        "range edges": _neighbours([1e-270, 1e290, 1e-271, 1e289]),
    }


@pytest.mark.parametrize("name", list(_float_sets()))
def test_array_floats_match_repr(name):
    floats = np.asarray(_float_sets()[name], dtype=float)
    floats = np.concatenate([floats, -floats])
    if len(floats) % 2:
        floats = np.append(floats, 1.5)
    document = {"deep": [{"coeffs": floats.view(complex)}]}
    assert cli._json_text(document) == json_text_oracle(document).encode()


@pytest.mark.parametrize("length", [cli._PAIR_BLOCK - 1, cli._PAIR_BLOCK, cli._PAIR_BLOCK + 1])
def test_array_block_edges(length):
    values = np.random.default_rng(length).standard_normal(2 * length).view(complex)
    for document in (values, {"a": [values, {"b": values[:3]}]}):
        assert cli._json_text(document) == json_text_oracle(document).encode()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(cli._PAIR_BLOCK + 1, 2 * cli._PAIR_BLOCK + 7),
    drawn=st.lists(finite, max_size=16),
)
def test_array_bit_patterns_match_oracle_property(seed, length, drawn):
    # every bit pattern is as likely: both signs, every exponent, subnormals
    bits = np.random.default_rng(seed).integers(0, 2**64, 2 * length, dtype=np.uint64)
    floats = bits.view(float)
    floats[~np.isfinite(floats)] = 0.0
    floats[: len(drawn)] = drawn
    document = {"coeffs": floats.view(complex)}
    assert cli._json_text(document) == json_text_oracle(document).encode()


def test_array_writer_memory_is_bounded():
    # the text itself, its join and the block temporaries: an unblocked
    # encoder holds several times the text in temporaries at once
    values = (0.999 ** np.arange(30_000)) * np.exp(1j * np.arange(30_000))
    document = {"coeffs": values}
    tracemalloc.start()
    try:
        text = cli._json_text(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * len(text)


# -- every document the commands write ------------------------------------------

# stands in for a --coeffs-file holding near_circle's complex causal_d2 symbol
NEAR_CIRCLE_D2_FILE = "near_circle_d2.json"

COMMANDS = [
    ["analyze", "--coeffs", "-2.5", "--dims", "4"],  # a constant: no roots
    ["analyze", "--coeffs", "1,-2"],  # anticausal inverse block
    ["analyze", "--coeffs", "1,-0.5,0.06", "--dims", "4,16"],  # causal inverse block
    ["analyze", "--coeffs", "1,-1"],  # singular circulant, Borderline: nulls
    ["analyze", "--coeffs", "0,1"],  # a_0 = 0: null triangular norms
    ["analyze", "--coeffs", "1,-2.5,1", "--dims", "8"],  # mixed roots: no inverse
    ["analyze", "--coeffs", "1,-2", "--dims", "64,1030"],  # literals past float max
    ["analyze", "--coeffs", "1e-310,1e-311", "--dims", "4,16"],  # circulant literal
    ["analyze", "--coeffs", ",".join(["1"] + ["0"] * 49 + [repr(-(1.0003**-50))]), "--dims", "64"],
    ["invert", "--coeffs", "1,-0.5"],
    ["invert", "--coeffs", "1,-3,2.5"],  # complex roots inside: anticausal
    ["invert", "--coeffs", "1,-0.999"],
    # complex coefficients; its 9757 inverse coefficients span five _PAIR_BLOCKs
    ["invert", "--coeffs-file", NEAR_CIRCLE_D2_FILE],
    ["simulate", "--coeffs", "1,0.5", "--T", "300"],
    ["simulate", "--coeffs", "1,-2", "--T", "300"],
    ["simulate", "--coeffs", "1,-1", "--T", "300"],
    ["simulate", "--coeffs", "1,0.5", "--T", "1"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv)[:40])
def test_commands_write_what_the_oracle_writes(argv, tmp_path, monkeypatch):
    written = []
    writer = cli._json_text

    def recording(document):
        text = writer(document)
        written.append((document, text))
        return text

    monkeypatch.setattr(cli, "_json_text", recording)
    symbol = tmp_path / NEAR_CIRCLE_D2_FILE
    symbol.write_text(json.dumps(wiener.to_json_dict(NEAR_CIRCLE_ROOT_CLASSES["causal_d2"])))
    argv = [str(symbol) if arg == NEAR_CIRCLE_D2_FILE else arg for arg in argv]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*argv, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(written) == 1
    document, text = written[0]
    assert text == json_text_oracle(document).encode()
    (path,) = out.glob("*.json")
    assert path.read_bytes() == text


def test_coeffs_file_symbol_with_offset_and_imaginary_parts(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    # every root inside the circle, one of them at the origin
    path.write_text(json.dumps(wiener.to_json_dict(WienerElement((0.2j, 0.3, 1 + 0.5j), offset=1))))
    written = []
    writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda d: written.append(d) or writer(d))
    for command in (["analyze", "--dims", "8"], ["invert"]):
        out = tmp_path / command[0]
        result = CliRunner().invoke(main, [*command, "--coeffs-file", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert len(written) == 2
    for document in written:
        assert writer(document) == json_text_oracle(document).encode()
