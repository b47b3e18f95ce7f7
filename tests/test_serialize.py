"""The JSON writer: the one-pass float-row branch against a per-float walk."""

import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseopt._serialize import _is_float_rows, dumps


# --- reference: the writer as it was, one format call per float ----------------


def reference_format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def reference_encode(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(reference_format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            reference_encode(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            reference_encode(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts: list = []
    reference_encode(obj, parts)
    return "".join(parts)


# --- inputs ---------------------------------------------------------------------


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NEGATIVE_NAN = from_bits(0xFFF8_0000_0000_0001)
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, from_bits(0x000F_FFFF_FFFF_FFFF), 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.nan, -math.nan, NEGATIVE_NAN,
    math.inf, -math.inf, 1.0, -1.0, 0.1, 1e16, 1e-5, 123456789.0,
]

any_float = st.one_of(st.integers(0, 2**64 - 1).map(from_bits), st.sampled_from(EDGES))


def assert_same_bytes(obj) -> None:
    assert dumps(obj) == reference_dumps(obj)
    wrapped = {"dim": 2, "entries": obj, "note": [obj, None]}
    assert dumps(wrapped) == reference_dumps(wrapped)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(any_float, min_size=2, max_size=2), min_size=1, max_size=40))
def test_float_pairs_match_the_per_float_walk(pairs):
    assert _is_float_rows(pairs)
    assert_same_bytes(pairs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(
    lambda k: st.lists(st.lists(any_float, min_size=k, max_size=k), min_size=1, max_size=12)
))
def test_equal_length_float_rows_match(rows):
    assert_same_bytes(rows)


def test_edge_values_in_one_matrix():
    pairs = [[a, b] for a in EDGES for b in EDGES]
    assert _is_float_rows(pairs)
    assert_same_bytes(pairs)
    text = dumps([[math.nan, -math.nan], [NEGATIVE_NAN, math.inf], [-math.inf, -0.0]])
    assert text == "[[NaN, NaN], [NaN, Infinity], [-Infinity, -0]]"


def test_empty_and_ragged_lists_keep_the_walk():
    for obj in ([], [[]], [[], []], [[1.0, 2.0], [3.0]], [[1.0, 2.0], []], ([1.0, 2.0],)):
        assert_same_bytes(obj)


scalar_non_float = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.just(np.float64(0.25)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(
    st.lists(st.one_of(any_float, scalar_non_float), min_size=2, max_size=2),
    min_size=1, max_size=20,
).filter(lambda rows: any(type(x) is not float for row in rows for x in row)))
def test_pairs_mixing_ints_bools_or_none_take_the_walk(pairs):
    assert not _is_float_rows(pairs)
    assert_same_bytes(pairs)


def test_matrix_codec_output_is_unchanged():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(16, 2), dtype=np.uint64)
    pairs = bits.view(np.float64).tolist()
    assert _is_float_rows(pairs)
    assert_same_bytes(pairs)
