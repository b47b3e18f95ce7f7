"""Deterministic JSON and CSV emission, the matrix JSON codec and JSON number checks.

The stock json module formats floats with shortest-round-trip repr, which
is stable but version-sensitive; reports here are meant to be compared
byte for byte, so floats are always written with 17 significant digits
and dictionaries keep insertion order.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from numbers import Integral, Real

import numpy as np

__all__ = ["dumps", "format_float", "density_csv", "sweep_csv"]

_SWEEP_HEADER = "dim,norm"


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _is_float_rows(obj) -> bool:
    """True for a list of equal-length lists holding only Python floats."""
    if set(map(type, obj)) != {list} or len(set(map(len, obj))) != 1:
        return False
    return set(map(type, chain.from_iterable(obj))) == {float}


def _float_rows_text(rows) -> str:
    """The text :func:`format_float` would give, in one ``%`` pass over all floats.

    ``%.17g`` writes non-finite values as ``nan``, ``inf`` and ``-inf`` (a
    negative NaN too prints ``nan``); the text holds only numeric tokens
    otherwise, so two replacements give ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    row = "[" + ", ".join(["%.17g"] * len(rows[0])) + "]"
    text = ("[" + ", ".join([row] * len(rows)) + "]") % tuple(chain.from_iterable(rows))
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _encode(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key))
            parts.append(": ")
            _encode(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) and _is_float_rows(obj):
        parts.append(_float_rows_text(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _encode(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    parts: list = []
    _encode(obj, parts)
    return "".join(parts)


def density_csv(thetas, values) -> str:
    lines = ["theta,density"]
    for t, v in zip(thetas, values):
        lines.append(f"{t:.12g},{v:.12g}")
    return "\n".join(lines) + "\n"


def sweep_csv(rows) -> str:
    lines = [_SWEEP_HEADER]
    for dim, norm in rows:
        lines.append(f"{dim},{norm:.17g}")
    return "\n".join(lines) + "\n"


def is_int(x) -> bool:
    """A JSON integer: an ``Integral`` that is not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A JSON number: a ``Real`` that is not a bool (NaN and infinities included)."""
    return isinstance(x, Real) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """A finite JSON number: a ``Real``, not a bool, within the float range (so not NaN)."""
    return is_real(x) and abs(x) <= sys.float_info.max


def matrix_to_dict(a: np.ndarray) -> dict:
    """``{"dim", "entries"}`` of a square complex array, row-major [re, im] pairs."""
    pairs = np.asarray(a, dtype=np.complex128).reshape(-1).view(np.float64)
    return {"dim": a.shape[0], "entries": pairs.reshape(-1, 2).tolist()}


def complex_from_pairs(raw, what: str, depth: int = 1) -> np.ndarray:
    """Complex array from ``depth`` levels of lists around [re, im] pairs.

    Bit-exact; booleans, strings and nulls, which numpy would coerce, are refused.
    """
    try:
        arr = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(())  # 0-d: never a valid shape
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)  # an empty list holds no pairs
    ok = arr.ndim == depth + 1 and arr.shape[-1] == 2
    if ok:
        leaves = raw
        for _ in range(depth):
            leaves = chain.from_iterable(leaves)
        ok = all(issubclass(k, Real) and k is not bool for k in set(map(type, leaves)))
    if not ok:
        raise ValueError(f"{what} must be [re, im] pairs of numbers")
    return arr.view(np.complex128)[..., 0]


def matrix_from_dict(data: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_dict`; malformed input raises ValueError."""
    for key in ("dim", "entries"):
        if key not in data:
            raise ValueError(f"missing field {key!r}")
    dim = data["dim"]
    if not is_int(dim) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    entries = complex_from_pairs(data["entries"], "entries")
    if entries.size != dim * dim:
        raise ValueError(f"entries has {entries.size} pairs, expected {dim * dim}")
    return entries.reshape(dim, dim)
