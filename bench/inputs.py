"""Seeded input generators and text writers for the benchmark.

The generators return plain data (arc lists, parent arrays, orientation
flags); the workloads hand these to the library's constructors or write
them to files in the library's text formats.  ``dense_host`` and
``recursive_tree`` draw exactly the random numbers of the test suite's
``random_dense_digraph`` and ``random_tree``, so a case named by those
helpers' seeds is the same case here.
"""

from __future__ import annotations

import numpy as np

DOWN, UP = "down", "up"


def dense_host(rng: np.random.Generator, n: int, min_deg: int,
               keep_prob: float = 0.5) -> list[tuple[int, int]]:
    """Arcs of a digraph thinned from K_n with min-semidegree >= min_deg."""
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v}
    deg_out = [n - 1] * n
    deg_in = [n - 1] * n
    order = sorted(arcs)
    rng.shuffle(order)
    for u, v in order:
        if deg_out[u] > min_deg and deg_in[v] > min_deg and rng.random() < keep_prob:
            arcs.discard((u, v))
            deg_out[u] -= 1
            deg_in[v] -= 1
    return sorted(arcs)


def complete_arcs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def recursive_tree(rng: np.random.Generator, n: int,
                   max_deg: int) -> tuple[list[int], list]:
    """Random recursive tree with a degree cap and random orientations."""
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
    return parent, dirs


def _orientations(rng: np.random.Generator, n: int) -> list:
    return [None] + [DOWN if b else UP for b in (rng.random(n - 1) < 0.5)]


def path(rng: np.random.Generator, n: int) -> tuple[list[int], list]:
    """Path 0-1-...-(n-1) rooted at 0 with random orientations: depth n-1."""
    return list(range(-1, n - 1)), _orientations(rng, n)


def caterpillar(rng: np.random.Generator, n: int) -> tuple[list[int], list]:
    """Spine with one pendant leaf per spine vertex, maximum degree 3 and
    depth about n/2; the leaf takes the smaller id at a random half of the
    spine vertices, which changes the breadth-first order."""
    parent = [-1] * n
    spine, v = 0, 1
    while v < n:
        kids = [v, v + 1] if v + 1 < n else [v]
        if len(kids) == 2 and rng.random() < 0.5:
            kids.reverse()
        parent[kids[0]] = spine
        if len(kids) == 2:
            parent[kids[1]] = spine
        spine = kids[0]
        v += len(kids)
    return parent, _orientations(rng, n)


def graph_text(n: int, arcs) -> str:
    lines = [f"digraph {n} {len(arcs)}"]
    lines += [f"{u} {v}" for u, v in arcs]
    return "\n".join(lines) + "\n"


def tree_text(parent, dirs) -> str:
    root = parent.index(-1)
    lines = [f"tree {len(parent)} {root}"]
    lines += [f"{v} {p} {dirs[v]}" for v, p in enumerate(parent) if p >= 0]
    return "\n".join(lines) + "\n"
