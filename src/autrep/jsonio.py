"""Deterministic JSON; floats use Python's shortest exact round-trip repr."""

from __future__ import annotations

import json
from typing import Any


def dumps(obj: Any, indent: int | None = None) -> str:
    """json.dumps that raises ValueError on NaN and infinities; compact
    separators when indent is None."""
    return json.dumps(obj, indent=indent, allow_nan=False,
                      separators=(",", ":") if indent is None else None)


def loads(text: str) -> Any:
    return json.loads(text)
