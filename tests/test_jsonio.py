"""Canonical JSON text: every byte of the emitter's output, pinned literally."""

import math

import numpy as np
import pytest

from mono3dg.jsonio import dumps_canonical, loads_strict


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1e16, "10000000000000000"),
        (1.0, "1"),
        (0.1, "0.10000000000000001"),
        (-2.5e-7, "-2.4999999999999999e-07"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ],
)
def test_float(value, text):
    assert dumps_canonical(value) == text
    assert dumps_canonical([value, value]) == f"[{text},{text}]"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1.0, x, 2.0],
        lambda x: [[1.0, 2.0], [3.0, x]],
        lambda x: {"a": 1.0, "b": x},
        lambda x: np.float64(x),
        lambda x: [np.float64(x)],
    ],
    ids=["alone", "float-list", "nested-list", "dict-value", "np-float64", "np-in-list"],
)
def test_non_finite_rejected(value, wrap):
    with pytest.raises(ValueError) as info:
        dumps_canonical(wrap(value))
    assert str(info.value) == f"non-finite number {value} cannot be serialized"


def test_first_non_finite_is_named():
    with pytest.raises(ValueError, match=r"^non-finite number -inf cannot"):
        dumps_canonical([1.0, -math.inf, math.nan])


@pytest.mark.parametrize(
    "value, text",
    [
        ([np.float64(0.5), 2, True, None, 1.5, False], "[0.5,2,true,null,1.5,false]"),
        ([1.0, -3, 2**70], "[1,-3,1180591620717411303424]"),
        ((1.0, 2.5), "[1,2.5]"),
        ([(0.25,), ("x", None)], '[[0.25],["x",null]]'),
        ([], "[]"),
        ((), "[]"),
        ({}, "{}"),
        ([[], {}], "[[],{}]"),
        (None, "null"),
        (True, "true"),
        (np.float64(1e-3), "0.001"),
        ({"a": [1.0, {"b": (2.0, "c")}], "d": 7}, '{"a":[1,{"b":[2,"c"]}],"d":7}'),
    ],
)
def test_mixed_values(value, text):
    assert dumps_canonical(value) == text


def test_non_str_keys_become_strings():
    assert dumps_canonical({1: 1.0, 2.5: "x", None: True, False: []}) == (
        '{"1":1,"2.5":"x","None":true,"False":[]}'
    )


@pytest.mark.parametrize(
    "value, text",
    [
        ('say "hi"', r'"say \"hi\""'),
        ("back\\slash/", r'"back\\slash/"'),
        ("tab\tnew\nret\r\x00\x1f\x7f", r'"tab\tnew\nret\r\u0000\u001f' + '\x7f"'),
        ("café 漢字   😀", '"café 漢字   😀"'),
    ],
)
def test_strings(value, text):
    assert dumps_canonical(value) == text
    assert dumps_canonical({value: value}) == f"{{{text}:{text}}}"
    assert loads_strict(text) == value


@pytest.mark.parametrize("value", [{1.0}, np.array([1.0, 2.0]), [1.0, {2.0}], {"k": b"x"}])
def test_unsupported_type_rejected(value):
    with pytest.raises(TypeError, match=r"^cannot serialize (set|ndarray|bytes)$"):
        dumps_canonical(value)
