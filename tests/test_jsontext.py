from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import random_tree
from treecount.jsontext import dumps
from treecount.trees import quarter_decomposition


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


EDGE_PAYLOADS = [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[1, 2], [3, [4, []]], {"x": (5, 6)}],
    (1, (2, 3), [4, (5,)]),
    {"z": 1, "a": 2, "m": {"y": 3, "b": 4}},
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 0.1, 1 / 3],
    {"nan": math.nan, "inf": [math.inf], "neg": -math.inf},
    [True, 1, False, 0, None, 1.0],
    {"t": True, "one": 1, "none": None},
    [1, True],  # not a list of plain ints
    [2 ** 70, -(2 ** 70), 0, -1],
    ["été", "日本", "\U0001f600", "tab\there", 'quote"back\\slash',
     "line\nbreak", "\x00\x1f\x7f", ""],
    {"é": 1, "a\nb": 2, "": 3},
    [np.float64(0.1), np.float64(math.nan), np.float64(-0.0), np.float64(1e300)],
    {"w": np.float64(2.5)},
    {1: "int key", 2: "sorted"},
    {"outer": {3: 1, 1: [2]}},
    [{"a": 1}, 2, "three", [4.0]],
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS, ids=range(len(EDGE_PAYLOADS)))
def test_dumps_matches_json(payload):
    assert dumps(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    np.int64(3), [np.int64(3)], {"a": [1, np.int64(3)]}, [np.bool_(True)], {"s": {1, 2}},
])
def test_dumps_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError) as want:
        reference(payload)
    with pytest.raises(TypeError) as got:
        dumps(payload)
    assert str(got.value) == str(want.value)


def test_dumps_matches_json_on_decompositions():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(1, 3000))
        t = random_tree(rng, n, max_deg=16)
        dec = quarter_decomposition(t, n)
        payload = {
            "residuals": list(dec.residuals),
            "pieces": [{"vertices": p.vertices, "root": p.root,
                        "overlap": list(o) if o else None}
                       for p, o in zip(dec.pieces, dec.overlaps)],
            "ratio": n / 7,
        }
        assert dumps(payload) == reference(payload)
