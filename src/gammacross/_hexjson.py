"""The hex-float format of reports, certificates and CSV rows.

Floats are written with `float.hex`, which round-trips bit for bit, so
identical invocations produce identical files; JSON documents add a
"decimal" object mirroring their float fields for reading.  On input, a
string is hex only when it starts with 0x (after an optional sign), so a
hand-written "10" reads as ten, not sixteen.
"""

from __future__ import annotations

import json

from .errors import DomainError

__all__ = ["hex_float", "parse_float", "dumps"]


def hex_float(x: float) -> str:
    return float(x).hex()


def parse_float(v) -> float:
    """A JSON number, or a string in hex (0x prefix) or decimal notation."""
    if not isinstance(v, str):
        return float(v)
    s = v.strip()
    try:
        return float.fromhex(s) if s.lower().lstrip("+-").startswith("0x") else float(s)
    except ValueError:
        raise DomainError(f"cannot parse number {v!r}") from None


def _hexify(obj):
    if isinstance(obj, float):
        return hex_float(obj)
    if isinstance(obj, dict):
        return {k: _hexify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexify(v) for v in obj]
    return obj


def dumps(payload: dict, mirror: dict) -> str:
    """`payload` with every float as a hex string, plus `mirror` as its
    "decimal" object in plain JSON numbers; sorted keys, one trailing newline."""
    return json.dumps({**_hexify(payload), "decimal": mirror}, sort_keys=True, indent=2) + "\n"
