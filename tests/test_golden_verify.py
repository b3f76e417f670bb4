"""Byte-for-byte pins of ``treecount verify`` output on fixed cases.

Each digest is the SHA-256 of the JSON file the command writes, so it pins
the exact count, |Aut(T)|, the entropy, the bound and the note.  The
spanning cases are drawn as the benchmark's exact workload draws them:
one generator seeded ``[0xE4AC7, seed]`` draws, per case, a host thinned
from K_n as far as its minimum semidegree allows and then a random
recursive tree of degree cap 4, 80 cases at n = 10 and then 4 at n = 11.
A rewrite of the exact count must reproduce all of them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount.cli import main
from treecount.graphs import Digraph, write_graph_text
from treecount.trees import write_tree_text


def _exact_workload(seed: int) -> dict:
    rng = np.random.default_rng([0xE4AC7, seed])
    cases = {}
    for n, min_deg, count in ((10, 6, 80), (11, 7, 4)):
        for i in range(count):
            g = random_dense_digraph(rng, n, min_deg, keep_prob=1.0)
            cases[f"n{n}-{i}"] = (g, random_tree(rng, n, max_deg=4))
    return cases


def _workload_case(seed: int, label: str):
    return lambda: _exact_workload(seed)[label]


def _non_spanning():
    # a 7-vertex tree in a 10-vertex thinned host
    rng = np.random.default_rng(77)
    g = random_dense_digraph(rng, 10, 6, keep_prob=1.0)
    return g, random_tree(rng, 7, max_deg=3)


def _sparse():
    # a cycle with three chords, where the walk-count bound sends the
    # count to the backtracking search
    arcs = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (4, 1), (10, 3)]
    return Digraph(12, arcs), random_tree(np.random.default_rng(3), 5, max_deg=3)


# (case builder, SHA-256 of the written JSON)
CASES = {
    "exact-s1-n10-0": (_workload_case(1, "n10-0"),
                       "f6dacc6f0d7ffe7f9e22cf2d3e8f4053c6ccb7025f3b0292795e0e0cb993a910"),
    "exact-s1-n10-41": (_workload_case(1, "n10-41"),
                        "388d616854e529417fa0dc1aa70807ad69168a50f490e08a1f07dd32a8835511"),
    "exact-s2-n10-7": (_workload_case(2, "n10-7"),
                       "3497b3104340a4b4780c0dd16b6e55695c8fb9565d722241388d8ea65e5d6e24"),
    "exact-s1-n11-0": (_workload_case(1, "n11-0"),
                       "df016e3efd226f32fb3109cad37ab08919dc5d4f0ef46e0d0eaf070c8f4a2132"),
    "exact-s2-n11-3": (_workload_case(2, "n11-3"),
                       "b9e4f878dd0ab723ac773349022fedf389830a121d16e07175ebc4f59a627cea"),
    "non-spanning-7-in-10": (_non_spanning,
                             "3f31deef80affd61ea3183466b001718600d59e7233652a520ccbf75e5f87573"),
    "sparse-5-in-12": (_sparse,
                       "b2f892d9080a3f6df638841697d57b2d8d7b490ba5630490d3baae267f2f3849"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_pinned(name, tmp_path, capsys):
    make, digest = CASES[name]
    g, t = make()
    graph, tree = tmp_path / "g.txt", tmp_path / "t.txt"
    graph.write_text(write_graph_text(g))
    tree.write_text(write_tree_text(t))
    out = tmp_path / "verify.json"
    assert main(["verify", str(graph), str(tree), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
