"""The benchmark's output checks against closed forms.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402

D, U = checks.DOWN, "up"


def complete(n):
    return checks.adjacency(n, inputs.complete_arcs(n))


def cycle(n):
    return checks.adjacency(n, [(i, (i + 1) % n) for i in range(n)])


def path(k, dirs=None):
    return list(range(-1, k - 1)), [None] + (dirs or [D] * (k - 1))


def star(leaves, dirs=None):
    return [-1] + [0] * leaves, [None] + (dirs or [D] * leaves)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 3), (6, 6), (8, 5)])
def test_copies_in_complete_digraph_are_falling_factorials(n, k):
    for parent, dirs in (path(k), star(k - 1)):
        assert checks.labelled_copies(parent, dirs, complete(n)) == math.perm(n, k)


@pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (6, 6)])
def test_homomorphisms_of_a_directed_path(n, k):
    parent, dirs = path(k)
    assert checks.hom_count(parent, dirs, complete(n)) == n * (n - 1) ** (k - 1)
    # in a directed cycle every start extends in exactly one way
    assert checks.hom_count(parent, dirs, cycle(n)) == n
    assert checks.labelled_copies(parent, dirs, cycle(n)) == n


def test_no_copy_against_the_cycle_direction():
    parent, dirs = path(3, [D, U])  # 0 -> 1 <- 2
    assert checks.labelled_copies(parent, dirs, cycle(5)) == 0
    assert checks.hom_count(parent, dirs, cycle(5)) == 5  # 2 may share 0's image


@pytest.mark.parametrize("tree,aut", [
    (star(4), 24), (star(4, [D, D, U, U]), 4), (path(5), 1),
    (path(3, [D, U]), 2), (path(3, [U, D]), 2), (path(4, [D, U, D]), 1),
])
def test_automorphisms(tree, aut):
    assert checks.automorphisms(*tree) == aut


def test_embedding_check():
    parent, dirs = path(3, [D, U])  # arcs 0 -> 1 and 2 -> 1
    adj = checks.adjacency(3, [(0, 1), (2, 1), (1, 2)])
    checks.check_embedding(parent, dirs, adj, {0: 0, 1: 1, 2: 2})
    for bad in ({0: 0, 1: 1, 2: 1}, {0: 0, 1: 2, 2: 1}, {0: 0, 1: 1}):
        with pytest.raises(checks.CheckError):
            checks.check_embedding(parent, dirs, adj, bad)


def test_matching_check_on_complete_digraph():
    n = 6
    adj = complete(n)
    w = adj / (n - 1)
    f = np.full(n, 1 / math.sqrt(n - 1))  # w = r_i * c_j on the support
    checks.check_matching(adj, w, f, f)
    with pytest.raises(checks.CheckError):
        checks.check_matching(adj, w, f * 1.01, f)  # dual value off
    w2 = w.copy()
    w2[0, 1] += 1e-3
    w2[0, 2] -= 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_matching(adj, w2, f, f)  # column sums off


def test_estimate_checks():
    checks.check_estimate_complete(5, 3, 60.5, (59.0, 62.0, 0.95))
    with pytest.raises(checks.CheckError):
        checks.check_estimate_complete(5, 3, 70.0, (69.0, 71.0, 0.95))
    parent, dirs = path(3)
    checks.check_estimate_bounded(parent, dirs, complete(4), 36.0)  # hom = 4 * 3 * 3
    with pytest.raises(checks.CheckError):
        checks.check_estimate_bounded(parent, dirs, complete(4), 36.5)


def _piece(root, verts, overlap):
    return {"root": root, "size": len(verts), "vertices": verts, "overlap": overlap}


def test_decomposition_check_on_a_path():
    parent, _ = path(6)  # 0 - 1 - 2 - 3 - 4 - 5, rooted at 0
    first = _piece(0, [0, 1, 2], None)
    good = [first, _piece(2, [2, 3, 4], [0, 2]), _piece(4, [4, 5], [1, 4])]
    checks.check_decomposition(parent, {"n": 6, "pieces": good})
    bad_pieces = [
        [first, _piece(1, [1, 2, 3, 4], [0, 1]), _piece(4, [4, 5], [1, 4])],  # shares 1 and 2
        [first, _piece(2, [2, 4], [0, 2]), _piece(4, [4, 3, 5], [1, 4])],     # 4 hangs from 3
        [first, _piece(2, [2, 3, 4], [0, 2])],                                # 5 uncovered
        [first, _piece(2, [2, 3, 4], [0, 2]), _piece(4, [4, 5], [0, 4])],     # 4 not in piece 0
    ]
    for pieces in bad_pieces:
        with pytest.raises(checks.CheckError):
            checks.check_decomposition(parent, {"n": 6, "pieces": pieces})


def test_generators_keep_their_shapes():
    rng = np.random.default_rng(0)
    parent, _ = inputs.caterpillar(rng, 1001)
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        depth[v] = depth[parent[v]] + 1  # parents precede children
    assert max(depth) == 500
    assert max(parent.count(v) for v in range(len(parent))) == 2
    arcs = inputs.dense_host(rng, 30, 18)
    adj = checks.adjacency(30, arcs)
    assert adj.sum(axis=0).min() >= 18 and adj.sum(axis=1).min() >= 18


def test_benchmark_json_lists_the_printed_metrics():
    import run
    import tracing

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.workloads.SETUPS)
