"""Output checks that share no code with the library they check.

Every check takes plain data (parent arrays, orientation flags, adjacency
matrices, parsed JSON) and raises ``CheckError`` on a wrong output.  The
counting references use different algorithms from the library: a
homomorphism DP over the adjacency matrix and inclusion-exclusion over
vertex subsets in place of backtracking.
"""

from __future__ import annotations

import math

import numpy as np

DOWN = "down"  # arc parent -> child; "up" is child -> parent
Z95 = 1.959963984540054
# the K_n estimate must lie within this many standard errors of n!/(n-k)!
ESTIMATE_SE_TOLERANCE = 5.0


class CheckError(AssertionError):
    """An output disagrees with its independent reference."""


def adjacency(n: int, arcs) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        a[u, v] = True
    return a


def tree_arcs(parent, dirs) -> list[tuple[int, int]]:
    """Arcs (tail, head) that the oriented tree demands."""
    return [
        (p, v) if dirs[v] == DOWN else (v, p)
        for v, p in enumerate(parent) if p >= 0
    ]


def _children(parent) -> tuple[int, list[list[int]]]:
    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    return parent.index(-1), children


def _hom_table(parent, dirs, adj: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """hom(T, G[S]) for every row S of ``masks`` (a 0/1 matrix, one row per
    vertex subset): the number of maps sending every tree arc to a host arc
    in the same direction, with every image inside S."""
    root, children = _children(parent)
    order, stack = [], [root]
    while stack:  # children before parents, without recursion
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    a = adj.astype(masks.dtype)
    f = {}
    for v in reversed(order):
        fv = masks.copy()
        for c in children[v]:
            # DOWN: the image of v needs an out-arc to the image of c
            fv *= f.pop(c) @ (a.T if dirs[c] == DOWN else a)
        f[v] = fv
    return f[root].sum(axis=1)


def hom_count(parent, dirs, adj: np.ndarray) -> float:
    """Number of orientation-respecting homomorphisms of the tree into the
    host, in floating point (an upper bound on the labelled copy count)."""
    n = adj.shape[0]
    return float(_hom_table(parent, dirs, adj, np.ones((1, n)))[0])


def labelled_copies(parent, dirs, adj: np.ndarray) -> int:
    """Exact number of injective orientation-respecting maps of the tree into
    the host, by inclusion-exclusion over host vertex subsets S:

        sum_S (-1)^(k-|S|) * C(n-|S|, k-|S|) * hom(T, G[S]).
    """
    n = adj.shape[0]
    k = len(parent)
    if k > n:
        return 0
    if n > 16 or n ** k >= 2 ** 62:
        raise ValueError("subset enumeration is limited to small exact cases")
    bits = np.arange(1 << n)[:, None] >> np.arange(n)[None, :] & 1
    masks = bits.astype(np.int64)
    homs = _hom_table(parent, dirs, adj, masks).tolist()
    total = 0
    for s_bits, h in zip(bits.sum(axis=1).tolist(), homs):
        if s_bits <= k and h:
            total += (-1) ** (k - s_bits) * math.comb(n - s_bits, k - s_bits) * h
    return total


def automorphisms(parent, dirs) -> int:
    """Orientation-respecting automorphisms of the unrooted tree: the
    labelled copies of T in T."""
    return labelled_copies(parent, dirs, adjacency(len(parent), tree_arcs(parent, dirs)))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_embedding(parent, dirs, adj: np.ndarray, mapping: dict) -> None:
    """A spanning embedding: a bijection onto the host that sends every tree
    arc to a host arc in the demanded direction."""
    n = adj.shape[0]
    if sorted(mapping) != list(range(len(parent))):
        raise CheckError("mapping does not cover every tree vertex once")
    if sorted(mapping.values()) != list(range(n)):
        raise CheckError("mapping is not a bijection onto the host")
    for tail, head in tree_arcs(parent, dirs):
        if not adj[mapping[tail], mapping[head]]:
            raise CheckError(f"tree arc ({tail},{head}) lands on a non-arc")


def check_matching(adj: np.ndarray, weights: np.ndarray, row_factors,
                   col_factors) -> None:
    """Unit row and column sums, weight exactly on the support, and the dual
    value of the scaling factors equal to the entropy of the weights."""
    n = adj.shape[0]
    w = np.asarray(weights)
    if np.any(w[~adj] != 0.0):
        raise CheckError("weight outside the host's arcs")
    if np.any(w[adj] <= 0.0):
        raise CheckError("a host arc carries no weight")
    worst = max(np.abs(w.sum(axis=1) - 1).max(), np.abs(w.sum(axis=0) - 1).max())
    if worst > 1e-8:
        raise CheckError(f"unit sums violated by {worst:.3e}")
    r = np.asarray(row_factors)
    c = np.asarray(col_factors)
    dual = (-np.log(r).sum() - np.log(c).sum() + r @ adj.astype(float) @ c - n) / math.log(2)
    pos = w[adj]
    h = float(-(pos * np.log2(pos)).sum())
    if abs(dual - h) > 1e-6:
        raise CheckError(f"dual value {dual:.12g} differs from h(x) = {h:.12g}")


def check_estimate_complete(n: int, k: int, labelled: float, ci) -> None:
    """On K_n the labelled copy count of any k-vertex tree is n!/(n-k)!."""
    exact = float(math.perm(n, k))
    se = (ci[1] - ci[0]) / (2 * Z95)
    if not se > 0 or abs(labelled - exact) > ESTIMATE_SE_TOLERANCE * se:
        raise CheckError(
            f"estimate {labelled:.6g} is not within {ESTIMATE_SE_TOLERANCE} "
            f"standard errors ({se:.3g}) of n!/(n-k)! = {exact:.6g}"
        )


def check_estimate_bounded(parent, dirs, adj: np.ndarray, labelled: float) -> None:
    """No estimate of the labelled count may exceed the homomorphism count."""
    hom = hom_count(parent, dirs, adj)
    if not 0 < labelled <= hom:
        raise CheckError(f"estimate {labelled:.6g} outside (0, hom = {hom:.6g}]")


def check_verify(payload: dict, labelled: int, aut: int) -> None:
    if payload["aut"] != aut:
        raise CheckError(f"aut {payload['aut']} != copies of T in T = {aut}")
    if payload["count"] * payload["aut"] != labelled:
        raise CheckError(
            f"count {payload['count']} x aut {payload['aut']} != "
            f"enumerated labelled copies {labelled}"
        )


def check_decomposition(parent, payload: dict) -> None:
    """Pieces cover the tree, each is a connected subtree hanging from its
    first vertex, and each later piece meets the earlier ones only in its
    anchor, which the overlap field names with an earlier piece."""
    n = len(parent)
    if payload["n"] != n:
        raise CheckError("tree size mismatch")
    covered: set[int] = set()
    seen: list[set[int]] = []
    for i, piece in enumerate(payload["pieces"]):
        verts = piece["vertices"]
        vset = set(verts)
        if len(vset) != len(verts) or piece["size"] != len(verts):
            raise CheckError(f"piece {i} repeats a vertex or misstates its size")
        if verts[0] != piece["root"]:
            raise CheckError(f"piece {i} does not start at its root")
        if any(parent[v] not in vset for v in verts[1:]):
            raise CheckError(f"piece {i} is not a connected subtree")
        shared = vset & covered
        if i == 0:
            if shared or piece["overlap"] is not None:
                raise CheckError("first piece claims an overlap")
        else:
            j, anchor = piece["overlap"]
            if shared != {piece["root"]} or anchor != piece["root"]:
                raise CheckError(f"piece {i} shares {sorted(shared)[:5]}, not its anchor")
            if not (0 <= j < i and anchor in seen[j]):
                raise CheckError(f"piece {i} names a wrong earlier piece")
        covered |= vset
        seen.append(vset)
    if len(covered) != n:
        raise CheckError(f"pieces cover {len(covered)} of {n} vertices")
