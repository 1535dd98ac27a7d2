"""Deterministic JSON and CSV rendering.

Report files are meant to be diffed, so floats are always rendered at 12
significant digits and dict keys keep their insertion order.  Identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional


def _render(obj, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj}")
        pieces.append(format(obj, ".12g"))
    elif isinstance(obj, str):
        pieces.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            if i:
                pieces.append(", ")
            pieces.append(encode_basestring_ascii(key))
            pieces.append(": ")
            _render(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _render(value, pieces)
        pieces.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def write_json(obj, output: Optional[str] = None) -> None:
    text = json_dumps(obj) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, ".12g")
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(header: Iterable[str], rows: Iterable[Iterable], output: Optional[str] = None) -> None:
    text = csv_text(header, rows)
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)
