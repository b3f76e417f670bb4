"""Byte-for-byte pins of ``treecount decompose`` output on fixed trees.

Each digest is the SHA-256 of the JSON file the command writes, so it pins
the pieces, their order, the residuals, the overlaps, the invariant report
and the layout of the text itself.  A rewrite of the decomposition, of the
invariant report or of the JSON writer must reproduce all of them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from helpers import random_tree
from treecount.cli import main
from treecount.trees import DOWN, UP, RootedOrientedTree, path_tree, write_tree_text


def _path():
    dirs = [DOWN if v % 3 else UP for v in range(1, 3000)]
    return path_tree(3000, dirs)


def _caterpillar():
    # a 1000-vertex spine, each spine vertex with two pendant leaves
    parent, dirs = [-1], [None]
    spine = 0
    for v in range(1, 3000, 3):
        parent += [spine, spine, spine]
        dirs += [DOWN, UP, DOWN if v % 2 else UP]
        spine = v
    return RootedOrientedTree(parent[:3000], dirs[:3000])


def _recursive():
    return random_tree(np.random.default_rng(4242), 3000, max_deg=16)


# (tree, extra argv, SHA-256 of the written JSON)
CASES = {
    "path-3000": (_path, [],
                  "7450186591632da7e479820e2ffe96f0e78645f32c3d858ca2f633516f48f787"),
    "caterpillar-3000": (_caterpillar, [],
                         "527fcc71e06be479f1056ac62ea5d33642fb7db0ea2c58e707402f69ed528f80"),
    "recursive-3000": (_recursive, [],
                       "d5d5cf98f255b34113afc25a0b02bb9c2352fd9f56b63f6f7612035359b35a58"),
    "recursive-3000-n0": (_recursive, ["--n0", "50000"],
                          "00da6844553e8771edce40dbfa128b46f6c7c127961054ee64d9d2434f927c49"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_decompose_output_pinned(name, tmp_path, capsys):
    make, extra, digest = CASES[name]
    tree = tmp_path / "t.txt"
    tree.write_text(write_tree_text(make()))
    out = tmp_path / "dec.json"
    assert main(["decompose", str(tree), "--out", str(out), *extra]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
