"""`ifmkit._jsonout.dumps` writes what ``json.dumps(obj, indent=2)`` writes,
character for character, and rejects what it rejects with the same error."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmkit._jsonout import dumps

# strings that look like the row boundary the table path rewrites, or that
# the encoder must escape
TRICKY = ['"],\n  ["', "],\n    [", "],\n      [", "]", "[", "\n", "\x00\x1f\x7f", "é€\U0001f600",
          " \ud800", '\\"']

plain = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),  # NaN, +-inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 1e17]),
    st.text(),
    st.sampled_from(TRICKY),
)
row = st.one_of(st.lists(plain, min_size=1, max_size=4),
                st.lists(plain, min_size=1, max_size=4).map(tuple))
# lists of non-empty rows of plain scalars take the one-call table path;
# the ragged and empty rows beside them do not
table = st.lists(row, min_size=1, max_size=6)
leaf = st.one_of(
    plain,
    st.floats().map(np.float64),
    st.sampled_from([[], {}, (), [[]], [[], []], [{}], {"": {}}, ((),), [[1], []]]),
    table,
)
key = st.one_of(st.text(), st.sampled_from(TRICKY), st.integers(), st.floats(),
                st.booleans(), st.none())
tree = st.recursive(
    leaf,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(key, children, max_size=5),
        st.lists(st.lists(children, min_size=1, max_size=3), min_size=1, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(tree)
def test_matches_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [[1, 2.5, "a"], [3, None, True]],
    ([0, 1, 0.4545454545454546],) * 3,
    [["],\n    [", "],\n      ["], ["x"]],
    {"witnesses": [[0, 1, 0.0], [0, 2, math.nan]], "limits": ["0", "5"], "unique": False},
    {1: "a", 2.5: "b", True: "c", None: "d", math.nan: "e", -math.inf: ["f"]},
    [np.float64(-0.0), [np.float64(1e300)], {"x": np.float64(math.nan)}],
])
def test_matches_json_dumps_on_report_shapes(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def _error(encode, obj):
    with pytest.raises(TypeError) as info:
        encode(obj)
    return str(info.value)


@pytest.mark.parametrize("bad", [np.int64(3), object()], ids=["np.int64", "object"])
@pytest.mark.parametrize("place", [
    lambda b: b,
    lambda b: [1, b],
    lambda b: [[1, 2], [3, b]],
    lambda b: {"a": [0.5], "b": b},
    lambda b: {"a": 1, "b": b},
    lambda b: {b: 1},
    lambda b: {"x": {b: [1]}},
], ids=["top", "list", "table", "dict", "scalar-dict", "key", "nested-key"])
def test_type_error_parity(bad, place):
    obj = place(bad)
    assert _error(dumps, obj) == _error(lambda o: json.dumps(o, indent=2), obj)
