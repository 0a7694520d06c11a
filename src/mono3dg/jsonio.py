"""Deterministic JSON / JSONL helpers.

Floats are emitted with 17 significant digits (lossless for float64), so
write -> read -> write is byte-identical and equal seeds give equal files.
NaN and infinities are rejected in both directions. Schema checks of the
decoded records live with the record types, in ``scenes``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ParseError


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj} cannot be serialized")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key), ensure_ascii=False))
            parts.append(":")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _emit(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reject_constant(name: str) -> float:
    raise ValueError(f"forbidden JSON constant {name}")


_STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_strict(text: str) -> Any:
    """json.loads that rejects NaN/Infinity literals."""
    return _STRICT_DECODER.decode(text)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps_canonical(record))
            fh.write("\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, decoded record) for each non-blank line.

    A line that is not JSON raises ParseError when it is reached, so a
    caller that checks each record as it arrives reports the first bad line
    of the file, whatever its kind of fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = loads_strict(line)
            except ValueError as exc:
                raise ParseError(line_number, str(exc)) from exc
            yield line_number, obj
