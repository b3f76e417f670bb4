"""Every refusal of a malformed tree, with its exact message.

The texts have no blank lines, so each message's line number is the same
whether blank lines are counted or not.
"""

from __future__ import annotations

import pytest

from treecount.cli import main
from treecount.errors import InputError, ParseError
from treecount.trees import DOWN, UP, RootedOrientedTree, parse_tree_text

TEXT_REFUSALS = [
    ("", "line 1: empty input"),
    ("graph 3 0\n", "line 1: expected header 'tree <n> <root>'"),
    ("tree 3\n1 0 down\n2 0 down\n", "line 1: expected header 'tree <n> <root>'"),
    ("tree x 0\n1 0 down\n", "line 1: non-integer count/root"),
    ("tree 2 5\n1 0 down\n", "line 1: root out of range"),
    ("tree 3 0\n1 0 down\n", "line 2: expected 2 edge lines, found 1"),
    ("tree 3 0\n1 0 down\n2 0 down\n2 1 up\n", "line 4: expected 2 edge lines, found 3"),
    ("tree 3 0\n1 0\n2 0 down\n", "line 2: expected '<child> <parent> <dir>'"),
    ("tree 3 0\n1 0 down\n2 a down\n", "line 3: non-integer vertex id"),
    ("tree 3 0\n5 0 down\n2 0 down\n", "line 2: vertex id out of range"),
    ("tree 3 0\n1 0 down\n2 7 up\n", "line 3: vertex id out of range"),
    ("tree 3 0\n1 0 down\n0 2 up\n", "line 3: root listed as a child"),
    ("tree 3 0\n1 0 down\n1 2 up\n", "line 3: vertex 1 has two parents"),
    ("tree 2 0\n1 0 sideways\n", "line 2: direction must be 'up' or 'down', got 'sideways'"),
    ("tree 3 0\n1 2 down\n2 1 down\n", "line 3: parent array does not describe a connected tree"),
]

ARRAY_REFUSALS = [
    ([], [], "tree must have at least one vertex"),
    ([-1, 0], [None], "edge_dir length mismatch"),
    ([1, 0], [DOWN, DOWN], "expected exactly one root, found 0"),
    ([1, 0], [DOWN, None], "expected exactly one root, found 0"),
    ([-1, -1], [None, None], "expected exactly one root, found 2"),
    ([-1, -1, 7], [None, None, "x"], "expected exactly one root, found 2"),
    ([-1, 0], [DOWN, DOWN], "root must have edge_dir None"),
    ([-1, 0, 9], [UP, None, DOWN], "root must have edge_dir None"),
    ([-1, 5], [None, DOWN], "parent of 1 out of range"),
    ([-1, -2], [None, UP], "parent of 1 out of range"),
    ([-1, 0], [None, "sideways"], "bad edge direction for vertex 1: sideways"),
    ([-1, 0, 0], [None, UP, "x"], "bad edge direction for vertex 2: x"),
    ([-1, 2, 1], [None, DOWN, DOWN], "parent array does not describe a connected tree"),
]


@pytest.mark.parametrize("text, message", TEXT_REFUSALS)
def test_tree_text_refusal(text, message):
    with pytest.raises(ParseError) as exc:
        parse_tree_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("parent, edge_dir, message", ARRAY_REFUSALS)
def test_parent_array_refusal(parent, edge_dir, message):
    with pytest.raises(InputError) as exc:
        RootedOrientedTree(parent, edge_dir)
    assert str(exc.value) == message


def test_decompose_exits_2_on_each_refused_text(tmp_path, capsys):
    path = tmp_path / "bad.tree"
    for text, message in TEXT_REFUSALS:
        path.write_text(text)
        assert main(["decompose", str(path), "--out", str(tmp_path / "d.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
