"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from treecount.graphs import Digraph
from treecount.trees import DOWN, UP, RootedOrientedTree


def random_dense_digraph(
    rng: np.random.Generator, n: int, min_deg: int, keep_prob: float = 0.5
) -> Digraph:
    """Random digraph with min-semidegree >= min_deg, thinned from K_n."""
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v}
    deg_out = {v: n - 1 for v in range(n)}
    deg_in = {v: n - 1 for v in range(n)}
    order = sorted(arcs)
    rng.shuffle(order)
    for (u, v) in order:
        if deg_out[u] > min_deg and deg_in[v] > min_deg and rng.random() < keep_prob:
            arcs.discard((u, v))
            deg_out[u] -= 1
            deg_in[v] -= 1
    return Digraph(n, arcs)


def random_tree(
    rng: np.random.Generator, n: int, max_deg: int = 16
) -> RootedOrientedTree:
    """Random recursive tree with a degree cap and random orientations.

    Vertex v attaches to a uniform choice among the earlier vertices of
    degree below max_deg - 1.  Those vertices are kept as an ascending
    list, so ``rng.integers(0, len(elig))`` picks the same vertex, from the
    same random numbers, as ``rng.choice`` over
    ``np.flatnonzero(deg[:v] < max_deg - 1)`` would, without an O(v) scan
    per vertex.  Below a cap of 3 no vertex but the root takes a child, so
    the draw stops at max(max_deg, 1) vertices; larger n is refused.
    """
    if max_deg < 3 and n > max(max_deg, 1):
        raise ValueError(
            f"degree cap max_deg={max_deg} allows at most {max(max_deg, 1)} "
            f"vertices, not {n}; use max_deg >= 3"
        )
    parent = [-1]
    dirs: list = [None]
    deg = [0] * n
    elig = [0] if max_deg > 1 else []
    for v in range(1, n):
        i = int(rng.integers(0, len(elig)))
        p = elig[i]
        parent.append(p)
        deg[p] += 1
        deg[v] += 1
        if deg[p] >= max_deg - 1:
            del elig[i]
        if deg[v] < max_deg - 1:
            elig.append(v)
        dirs.append(DOWN if rng.random() < 0.5 else UP)
    return RootedOrientedTree(parent, dirs)
