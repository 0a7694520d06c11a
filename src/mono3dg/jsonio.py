"""Deterministic JSON / JSONL helpers.

Floats are emitted with 17 significant digits (lossless for float64), so
write -> read -> write is byte-identical and equal seeds give equal files.
NaN and infinities are rejected in both directions. Schema checks of the
decoded records live with the record types, in ``scenes``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ParseError


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    # Exact types first: these are nearly every value a record holds.
    kind = type(obj)
    if kind is float:
        parts.append(_float_text(obj))
    elif kind is str:
        parts.append(encode_basestring(obj))
    elif kind is dict or isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(encode_basestring(str(key)))
            parts.append(":")
            _emit(value, parts)
        parts.append("}")
    elif kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        if all(type(value) is float for value in obj):
            text = ",".join([format(value, ".17g") for value in obj])
            if "n" in text:  # only "nan" and "inf" hold an n: raise for the first
                for value in obj:
                    _float_text(value)
            parts.append(f"[{text}]")
        else:
            parts.append("[")
            for i, value in enumerate(obj):
                if i:
                    parts.append(",")
                _emit(value, parts)
            parts.append("]")
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, str):
        parts.append(encode_basestring(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value} cannot be serialized")
    return format(value, ".17g")


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
