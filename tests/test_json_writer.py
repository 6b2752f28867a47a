"""The JSON writer against its oracle: output.json_text must return the
bytes of json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) on the
running interpreter, and raise the same exception type with the same message
where json.dumps raises."""

import json
import math

import numpy as np
import pytest

from swarmsync.output import json_text as _json_text


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def outcome(write, obj):
    """The text write gives for obj, or its exception's type and message."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same(obj):
    assert outcome(_json_text, obj) == outcome(reference, obj)


FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 1e-7, 0.1, -2.5, 1.5e300, 123456789.125,
          2.0 ** 53 + 2.0, np.float64(0.1), np.float64(-0.0), np.float64(1e16)]
INTS = [0, -1, 7, 2**63, -(2**64) - 1, 10**30]
STRINGS = ["", "plain", 'say "hi"', "back\\slash", "\x00\x01\x1f\n\r\t\x7f",
           "café ☃ \U0001d11e", "\ud800"]
SCALARS = FLOATS + INTS + STRINGS + [None, True, False]
KEYS = STRINGS + ["b", "a", "B", "_", "10", "9", "é"]


def fuzz_doc(rng, depth: int = 0):
    """A random document: scalars, flat and mixed lists, tuples, rows of
    numbers (equal-length, ragged, exact-typed or not), empty containers and
    nested dicts whose keys are not in sorted order."""
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    kinds = ["scalar", "floats", "ints", "float rows", "int rows", "ragged rows", "mixed",
             "empty list", "empty dict", "tuple"] + (["list", "dict"] * 2 if depth < 4 else [])
    kind = pick(kinds)
    size = int(rng.integers(1, 6))
    if kind == "scalar":
        return pick(SCALARS)
    if kind == "floats":
        return [pick(FLOATS) for _ in range(size)]
    if kind == "ints":
        return [pick(INTS) for _ in range(size)]
    if kind in ("float rows", "int rows"):
        width = int(rng.integers(1, 4))
        cells = FLOATS if kind == "float rows" else INTS
        rows = [[pick(cells) for _ in range(width)] for _ in range(size)]
        if rng.random() < 0.3:  # a bool, an int among floats, or a tuple row
            r, c = rng.integers(size), rng.integers(width)
            rows[r][c] = pick([True, 3, 2.5, np.float64(4.0)])
        if rng.random() < 0.3:
            rows[0] = tuple(rows[0])
        return rows
    if kind == "ragged rows":
        return [[pick(FLOATS) for _ in range(int(rng.integers(0, 4)))] for _ in range(size)]
    if kind == "mixed":
        return [pick(SCALARS) for _ in range(size)]
    if kind == "empty list":
        return []
    if kind == "empty dict":
        return {}
    if kind == "tuple":
        return tuple(fuzz_doc(rng, depth + 1) for _ in range(size))
    if kind == "list":
        return [fuzz_doc(rng, depth + 1) for _ in range(size)]
    return {pick(KEYS): fuzz_doc(rng, depth + 1) for _ in range(size)}


def plant(rng, doc, value):
    """doc with value put in place of one entry (or appended to a list, or
    under a new key), chosen at random; doc itself when it is a scalar."""
    paths = []

    def walk(node, path):
        if isinstance(node, (list, tuple)):
            paths.append(path + ("append",))
            for i, v in enumerate(node):
                paths.append(path + (i,))
                walk(v, path + (i,))
        elif isinstance(node, dict):
            paths.append(path + ("new key",))
            for k, v in node.items():
                paths.append(path + (k,))
                walk(v, path + (k,))

    walk(doc, ())
    if not paths:
        return value
    path = paths[rng.integers(len(paths))]

    def put(node, path):
        head, rest = path[0], path[1:]
        node = dict(node) if isinstance(node, dict) else list(node)
        if not rest:
            if head == "append" and isinstance(node, list):
                node.append(value)
            elif head == "new key" and isinstance(node, dict):
                node["é planted"] = value
            else:
                node[head] = value
            return node
        node[head] = put(node[head], rest)
        return node

    return put(doc, path)


class TestJsonWriter:
    def test_seeded_documents_match_json_dumps(self):
        rng = np.random.default_rng(13)
        for _ in range(1500):
            assert_same(fuzz_doc(rng))

    @pytest.mark.parametrize("value", SCALARS, ids=repr)
    def test_scalars_match(self, value):
        assert_same(value)
        assert_same([value])
        assert_same({"k": value, "a": [value, value]})

    @pytest.mark.parametrize("doc", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], []], [(), ()],
        [[1.0, 2.0], [3.0, 4.0]], [(1, 2), (3, 4)], [[1, 2], [3, 4.0]],
        [[1, 2], [True, 4]], [[1.0], [2.0, 3.0]], [[np.float64(1.0), 2.0]],
        [[1.0, [2.0]], [3.0, [4.0]]], [["a", "b"], ["c", "d"]], [[None, None]],
        {2: "two", 1: "one"}, {1.5: 0, -0.0: 1}, {None: 1}, {True: 1, False: 0},
        {"b": 1, "a": {"d": [1.0, -0.0], "c": (5e-324, 1e22)}},
    ], ids=repr)
    def test_edge_documents_match(self, doc):
        assert_same(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     np.float64("-inf")], ids=repr)
    def test_non_finite_floats_raise_as_json_does(self, bad):
        rng = np.random.default_rng(17)
        for _ in range(60):
            assert_same(plant(rng, fuzz_doc(rng), bad))
        for doc in (bad, [bad], [1.0, bad], [[1.0, 2.0], [bad, 3.0]], {"a": bad}, {bad: 1}):
            assert_same(doc)
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                _json_text(doc)

    def test_nan_message_is_json_s(self):
        with pytest.raises(ValueError) as caught:
            _json_text({"gains": [1.0, math.nan]})
        assert str(caught.value) == "Out of range float values are not JSON compliant: nan"

    @pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), np.array([1.0]), object(),
                                     {1, 2}, b"bytes"], ids=lambda v: type(v).__name__)
    def test_unserializable_values_raise_as_json_does(self, bad):
        rng = np.random.default_rng(19)
        for _ in range(60):
            assert_same(plant(rng, fuzz_doc(rng), bad))
        for doc in (bad, [bad], [[1, 2], [bad, 3]], {"a": bad}):
            assert_same(doc)
            with pytest.raises(TypeError):
                _json_text(doc)

    @pytest.mark.parametrize("doc", [{(1, 2): 0}, {"a": 1, 2: 0}, {np.int64(1): 0},
                                     {b"k": 0}], ids=repr)
    def test_bad_keys_raise_as_json_does(self, doc):
        assert_same(doc)
        with pytest.raises(TypeError):
            _json_text(doc)

    @pytest.mark.parametrize("size", [1, 2, 3, 63, 64, 65, 300])
    def test_repeated_values_match(self, size):
        """Lists long enough that each distinct value is formatted once, and
        shorter ones: equal values, -0.0 and 0.0 in both orders (equal as
        floats, written apart), and equal and signed-zero rows."""
        rng = np.random.default_rng(size)
        zeros = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]]
        for doc in (
            [-41921.8905899071] * size,
            [np.float64(0.1)] * size,
            [-0.0, 0.0] * size,
            [0.0, -0.0] * size,
            [0.0] * size + [-0.0],
            [-0.0] * size + [0.0],
            rng.choice([0.1, -0.0, 0.0, 1e22, 5e-324], size).tolist(),
            [[0.0, 0.0]] * size,
            [zeros[i] for i in rng.integers(0, 4, size)],
            [(1.5, -0.0, 2.5)] * size + [(1.5, 0.0, 2.5)],
            [[1.5, 2.5], [2.5, 1.5]] * size,  # equal cells, rows apart
            {"gains": [-2.0] * size, "positions0": [[-0.0, 0.0]] * size,
             "theta0_deg": rng.uniform(-90.0, 90.0, size).tolist()},
        ):
            assert_same(doc)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=repr)
    def test_repeated_lists_with_a_non_finite_value_raise_as_json_does(self, bad):
        for doc in ([1.0] * 100 + [bad] + [1.0] * 100, [bad] * 100, [[0.0, 1.0]] * 100 + [[bad, 0.0]],
                    [1.0, math.inf] + [bad] * 100, [-0.0, 0.0] * 50 + [bad]):
            assert_same(doc)
            with pytest.raises(ValueError) as caught:
                _json_text(doc)
            first = next(v for v in map(float, np.ravel(doc)) if not math.isfinite(v))
            assert str(caught.value).endswith(f": {first!r}")

    def test_error_is_the_first_in_key_order(self):
        """Of several bad values, the one json meets first is named."""
        doc = {"b": [math.inf], "a": {"y": np.int64(1), "x": [1.0, -math.inf]}}
        assert_same(doc)
        with pytest.raises(ValueError, match="-inf"):
            _json_text(doc)
