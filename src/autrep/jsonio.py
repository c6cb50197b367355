"""Deterministic JSON, whose floats use Python's shortest exact round-trip
repr, and the column text of the CSV writers."""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def dumps(obj: Any, indent: int | None = None) -> str:
    """json.dumps that raises ValueError on NaN and infinities; compact
    separators when indent is None."""
    return json.dumps(obj, indent=indent, allow_nan=False,
                      separators=(",", ":") if indent is None else None)


def loads(text: str) -> Any:
    return json.loads(text)


def format_column(col: np.ndarray, fmt: str) -> list[str]:
    """fmt % v for each v of the 1-d column.  Each distinct bit pattern is
    formatted once, all in one % pass, and its text gathered back to its rows,
    so a column of few values costs little more than its distinct values.
    %.17g and %.6g give the text of format(v, ".17g") and format(v, ".6g"),
    nan, inf and -0.0 included."""
    bits, inv = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = (((fmt + "\n") * bits.size) % tuple(bits.view(col.dtype).tolist())).splitlines()
    return np.array(texts, dtype=object)[inv].tolist()
