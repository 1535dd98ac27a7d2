import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gatesim.jsonio import csv_text, json_dumps

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def as_loaded(value):
    """``value`` as ``json.loads`` reads it back: tuples become lists, floats keep 12 digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, (list, tuple)):
        return [as_loaded(v) for v in value]
    if isinstance(value, dict):
        return {k: as_loaded(v) for k, v in value.items()}
    return value


@given(st.text())
@example('"')
@example("\\")
@example("\x00\x1f\t\n\r\x7f")
@example("  ")
@example("épsilon ψ ⊗ a†a")
@example("\U0001f600")
def test_strings_and_keys_render_as_json_dumps(text):
    assert json_dumps(text) == json.dumps(text)
    assert json_dumps({text: text}) == "{" + json.dumps(text) + ": " + json.dumps(text) + "}"


@given(VALUES)
def test_rendered_values_load_back_with_floats_at_12_digits(value):
    text = json_dumps(value)
    assert text.isascii()
    assert json.loads(text) == as_loaded(value)


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        [1.0, math.nan],
        {"x": {"y": -math.inf}},
        {1: "a"},
        {"x": {None: 1}},
        {"x": object()},
        {1, 2},
        b"bytes",
        1j,
    ],
)
def test_unrenderable_values_raise(value):
    with pytest.raises(ValueError):
        json_dumps(value)


def test_csv_writes_floats_at_12_digits():
    text = csv_text(("x", "y", "label"), [(1 / 3, 2, "a"), (1e-20 / 3, -0.5, "b")])
    assert text == "x,y,label\n0.333333333333,2,a\n3.33333333333e-21,-0.5,b\n"
