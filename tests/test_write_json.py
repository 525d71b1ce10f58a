"""``jsonio.write_json`` against ``json.dumps``, byte for byte.

``oracles.json_dumps`` is the earlier writer: ``json.dumps(obj, indent=2,
sort_keys=True)`` after every float that is not finite has become its
``'%.17g'`` string and every array its ``tolist()``.  ``write_json`` must
print that text and a newline for any nesting of dicts, lists and tuples
of ints, floats, bools, None, strings and arrays.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from isscert import jsonio


def written(path, obj) -> str:
    jsonio.write_json(path, obj)
    return path.read_text()


def assert_same(path, obj):
    assert written(path, obj) == oracles.json_dumps(obj) + "\n"


def mirrored(a: np.ndarray) -> np.ndarray:
    """The upper triangle of a square array copied onto its lower one."""
    return np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
MATRICES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
                  elements=st.floats())
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SQUARES = st.integers(0, 5).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=FINITE).map(mirrored))
OTHER_ARRAYS = arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                      array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
VALUES = st.recursive(
    SCALARS | MATRICES | SQUARES | OTHER_ARRAYS,
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(obj=VALUES)
def test_matches_json_dumps(tmp_path_factory, obj):
    assert_same(tmp_path_factory.mktemp("json") / "out.json", obj)


def test_edge_floats(tmp_path):
    edges = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    text = ('[\n  -0.0,\n  5e-324,\n  1.7976931348623157e+308,\n  "inf",\n  "-inf",\n'
            '  "nan"\n]\n')
    assert written(tmp_path / "list.json", edges) == text
    assert written(tmp_path / "array.json", np.array(edges)) == text
    assert_same(tmp_path / "edges.json", {"x": edges, "row": np.array([edges[:3]])})


def test_strings(tmp_path):
    obj = {"é": "aé中\U0001f600", "q": 'say "hi"\n\tbye\\'}
    text = written(tmp_path / "text.json", obj)
    assert text == ('{\n  "q": "say \\"hi\\"\\n\\tbye\\\\",\n'
                    '  "\\u00e9": "a\\u00e9\\u4e2d\\ud83d\\ude00"\n}\n')
    assert text.isascii()
    assert_same(tmp_path / "same.json", obj)


def test_empty_containers(tmp_path):
    assert written(tmp_path / "dict.json", {}) == "{}\n"
    assert written(tmp_path / "list.json", []) == "[]\n"
    assert written(tmp_path / "nested.json", {"a": {}, "b": [], "c": ()}) == \
        '{\n  "a": {},\n  "b": [],\n  "c": []\n}\n'
    for shape in [(0,), (0, 0), (0, 3), (2, 0)]:
        assert_same(tmp_path / "empty.json", {"a": np.zeros(shape)})


def test_symmetric_matrix(tmp_path):
    M = np.array([[2.0, 0.1 + 0.2, -1e-300], [0.1 + 0.2, 3.0, 0.5], [-1e-300, 0.5, 1.0]])
    text = written(tmp_path / "M.json", {"M": {"s": M}})
    assert text == oracles.json_dumps({"M": {"s": M.tolist()}}) + "\n"
    assert '      [\n        2.0,\n        0.30000000000000004,\n        -1e-300\n      ],' in text


def test_signed_zeros_are_not_mirrored(tmp_path):
    # Equal in value, but each zero keeps its own sign.
    a = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert written(tmp_path / "zeros.json", a) == \
        "[\n  [\n    1.0,\n    0.0\n  ],\n  [\n    -0.0,\n    1.0\n  ]\n]\n"


def test_tuples_and_scalars(tmp_path):
    obj = {"pair": ("u", "s"), "n": -3, "big": 2 ** 70, "ok": True, "no": False,
           "none": None, "x": np.float64(0.25)}
    assert_same(tmp_path / "mixed.json", obj)
    assert '"pair": [\n    "u",\n    "s"\n  ]' in written(tmp_path / "mixed.json", obj)


@pytest.mark.parametrize("obj", [{1: 2.0}, np.int64(1), {"a": {1, 2}}, object()])
def test_unsupported_values_raise(tmp_path, obj):
    with pytest.raises(TypeError):
        jsonio.write_json(tmp_path / "bad.json", obj)
