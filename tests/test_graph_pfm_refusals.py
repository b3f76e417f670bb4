"""Every refusal of a malformed graph or matching text, with its exact message.

Line numbers are the file's own, blank lines included. A wrong number of
body lines is refused at the last line, before any body line is read.
"""

from __future__ import annotations

import pytest

from treecount.cli import main
from treecount.errors import ParseError
from treecount.graphs import parse_graph_text
from treecount.matching import parse_pfm_text

GRAPH_HEADER = "line 1: expected header 'digraph <n> <m>' or 'graph <n> <m>'"

GRAPH_REFUSALS = [
    ("", "line 1: empty input"),
    ("\n0 1\n", GRAPH_HEADER),
    ("widget 2 1\n0 1\n", GRAPH_HEADER),
    ("digraph 2\n0 1\n", GRAPH_HEADER),
    ("graph 3 1 0\n0 1\n", GRAPH_HEADER),
    ("digraph x 1\n0 1\n", "line 1: non-integer vertex/edge count"),
    ("graph 3 1.5\n0 1\n", "line 1: non-integer vertex/edge count"),
    ("digraph -1 0\n", "line 1: negative vertex/edge count"),
    ("graph 2 -1\n", "line 1: negative vertex/edge count"),
    ("digraph 3 2\n0 1\n\n", "line 3: expected 2 edge lines, found 1"),
    ("graph 3 1\n0 1\n\n1 2\n", "line 4: expected 1 edge lines, found 2"),
    ("digraph 3 1\n0 0\n1 2\n", "line 3: expected 1 edge lines, found 2"),
    ("digraph 3 1\n0 1 2\n", "line 2: expected '<u> <v>'"),
    ("graph 3 2\n0 1\n\n2\n", "line 4: expected '<u> <v>'"),
    ("digraph 3 1\n0 a\n", "line 2: non-integer vertex id"),
    ("digraph 3 2\n0 1\n1 3\n", "line 3: vertex id out of range 0..2"),
    ("graph 3 1\n-1 0\n", "line 2: vertex id out of range 0..2"),
    ("digraph 3 1\n1 1\n", "line 2: self-loop"),
    ("graph 3 1\n2 2\n", "line 2: self-loop"),
    ("digraph 3 2\n0 1\n\n0 1\n", "line 4: duplicate edge 0 1"),
    ("graph 3 2\n0 1\n\n1 0\n", "line 4: duplicate edge 1 0"),
]

PFM_REFUSALS = [
    ("", "line 1: empty input"),
    ("digraph 2 2\n0 1 1\n1 0 1\n", "line 1: expected header 'pfm <n> <m>'"),
    ("pfm 2\n", "line 1: expected header 'pfm <n> <m>'"),
    ("pfm 2 x\n", "line 1: non-integer vertex/arc count"),
    ("pfm -1 0\n", "line 1: negative vertex/arc count"),
    ("pfm 2 2\n0 1 1\n\n", "line 3: expected 2 arc lines, found 1"),
    ("pfm 2 1\n0 1 1\n\n1 0 1\n", "line 4: expected 1 arc lines, found 2"),
    ("pfm 2 1\n1 1 1\n0 1 1\n", "line 3: expected 1 arc lines, found 2"),
    ("pfm 2 2\n0 1\n1 0 1\n", "line 2: expected '<u> <v> <weight>'"),
    ("pfm 2 2\n0 x 1\n1 0 1\n", "line 2: malformed arc line"),
    ("pfm 2 2\n0 1 1\n1 0 heavy\n", "line 3: malformed arc line"),
    ("pfm 2 2\n0 2 1\n1 0 1\n", "line 2: bad arc endpoints"),
    ("pfm 2 2\n1 1 1\n1 0 1\n", "line 2: bad arc endpoints"),
    ("pfm 2 2\n0 1 1\n\n0 1 1\n", "line 4: duplicate arc 0 1"),
]


@pytest.mark.parametrize("text, message", GRAPH_REFUSALS)
def test_graph_text_refusal(text, message):
    with pytest.raises(ParseError) as exc:
        parse_graph_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", PFM_REFUSALS)
def test_pfm_text_refusal(text, message):
    with pytest.raises(ParseError) as exc:
        parse_pfm_text(text)
    assert str(exc.value) == message


def test_entropy_exits_2_on_each_refused_graph(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    for text, message in GRAPH_REFUSALS:
        path.write_text(text)
        assert main(["entropy", str(path), "--out", str(tmp_path / "e.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
