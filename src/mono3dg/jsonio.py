"""Deterministic JSON / JSONL helpers.

Floats are emitted with 17 significant digits (lossless for float64), so
write -> read -> write is byte-identical and equal seeds give equal files.
NaN and infinities are rejected in both directions. Schema checks of the
decoded records live with the record types, in ``scenes``.

:func:`dumps_canonical` writes any JSON value. Files of many records of one
shape are written through ``%`` templates instead: :func:`object_template`
and :func:`array_template` spell a record's text with ``%.17g`` for each
float and ``%s`` for each string, a chunk of records is one template, and
:func:`write_templated` fills it with one ``%`` pass over the chunk's
values. ``'%.17g' % v`` is ``format(v, '.17g')``, and strings are passed
through ``encode_basestring`` as ``dumps_canonical`` does, so both give the
same bytes. Check the floats with :func:`check_finite` before writing.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import ParseError

FLOAT = "%.17g"  # the template of one float; '%.17g' % v == format(v, '.17g')
STRING = "%s"  # the template of one string, passed through encode_basestring


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


def check_finite(*arrays: np.ndarray) -> None:
    """Raise the ValueError dumps_canonical would for the first non-finite
    value, taking the arrays in order."""
    for array in arrays:
        finite = np.isfinite(array)
        if not finite.all():
            _float_text(float(array[~finite][0]))


def array_template(shape: tuple) -> str:
    """The template of a float array of this shape, as nested JSON lists."""
    if not shape:
        return FLOAT
    return "[" + ",".join([array_template(shape[1:])] * shape[0]) + "]"


def object_template(fields: Iterable[tuple[str, str]]) -> str:
    """The template of a JSON object of (key, value template) fields."""
    return "{" + ",".join(f"{encode_basestring(key)}:{value}" for key, value in fields) + "}"


def write_templated(path: str | Path, chunks: Iterable[tuple[str, Iterable]]) -> None:
    """Write each (template, values) chunk as template % tuple(values)."""
    with open(path, "w", encoding="utf-8") as fh:
        for template, values in chunks:
            fh.write(template % tuple(values))


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
