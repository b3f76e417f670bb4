"""Rooted oriented trees, breadth-first orders, partitions and decompositions.

A tree edge is oriented either toward the child ("down", the arc runs
parent -> child) or toward the parent ("up").  All partition/decomposition
routines work greedily from the deepest eligible vertex upward, with ties
broken by smallest vertex id so results are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Container, Optional, Sequence

import numpy as np

from .errors import InputError, ParseError, read_body, read_header

DOWN = "down"  # arc parent -> child
UP = "up"      # arc child -> parent


class RootedOrientedTree:
    """Immutable rooted tree with per-edge orientation flags.

    parent[v] is -1 exactly for the root; edge_dir[v] describes the edge
    between v and its parent and is None for the root.
    """

    __slots__ = ("n", "root", "parent", "edge_dir", "children",
                 "bfs_order", "depth", "_parent_pos")

    def __init__(self, parent: Sequence[int], edge_dir: Sequence[Optional[str]]):
        n = len(parent)
        if n == 0:
            raise InputError("tree must have at least one vertex")
        if len(edge_dir) != n:
            raise InputError("edge_dir length mismatch")
        roots = []
        # the first fault in vertex order, raised once the root count is known
        fault = None
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p, d in zip(range(n), parent, edge_dir):
            if p == -1:
                roots.append(v)
                if d is not None:
                    fault = fault or "root must have edge_dir None"
            elif not 0 <= p < n:
                fault = fault or f"parent of {v} out of range"
            elif d not in (UP, DOWN):
                fault = fault or f"bad edge direction for vertex {v}: {d}"
            else:
                children[p].append(v)  # ascending v keeps every child list sorted
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        if fault:
            raise InputError(fault)
        # BFS from the root; every vertex has one parent, so none is reached
        # twice, and the walk reaches all n exactly when there is no cycle
        root = roots[0]
        order = [root]
        depth = [0] * n
        for v in order:
            below = depth[v] + 1
            for c in children[v]:
                depth[c] = below
            order.extend(children[v])
        if len(order) != n:
            raise InputError("parent array does not describe a connected tree")
        self.n = n
        self.root = root
        self.parent = tuple(parent)
        self.edge_dir = tuple(edge_dir)
        self.children = tuple(map(tuple, children))
        self.bfs_order = tuple(order)
        self.depth = tuple(depth)
        self._parent_pos = None

    @property
    def m(self) -> int:
        return self.n - 1

    def max_degree(self) -> int:
        kids = list(map(len, self.children))
        top = max(kids)
        # every vertex but the root also has the edge to its parent, so the
        # maximum is top + 1 unless the root alone has top children
        return top + (kids.count(top) > (kids[self.root] == top))

    def subtree_sizes(self) -> list[int]:
        size = [1] * self.n
        for v in reversed(self.bfs_order):
            if v != self.root:
                size[self.parent[v]] += size[v]
        return size

    @property
    def parent_pos(self) -> tuple[int, ...]:
        """``parent_pos[i]`` is the BFS position of ``bfs_order[i]``'s
        parent, -1 for the root.  Built on first read and cached."""
        if self._parent_pos is None:
            # the BFS lists the children of bfs_order[0], then those of
            # bfs_order[1], and so on, so position i's children come next
            pos = [-1]
            for i, v in enumerate(self.bfs_order):
                pos += [i] * len(self.children[v])
            self._parent_pos = tuple(pos)
        return self._parent_pos

    def subtree_vertices(self, v: int, cut: Container[int] = ()) -> list[int]:
        """Vertices below v (inclusive), in BFS order of the subtree,
        without entering the subtree of any vertex in ``cut``."""
        out = [v]
        for u in out:
            for c in self.children[u]:
                if c not in cut:
                    out.append(c)
        return out

    def oriented_edges(self) -> list[tuple[int, int]]:
        """Arcs of the tree in host orientation (tail, head)."""
        arcs = []
        for v in range(self.n):
            if v == self.root:
                continue
            p = self.parent[v]
            arcs.append((p, v) if self.edge_dir[v] == DOWN else (v, p))
        return arcs

    def __repr__(self) -> str:
        return f"RootedOrientedTree(n={self.n}, root={self.root})"


def path_tree(n: int, dirs: Optional[Sequence[str]] = None) -> RootedOrientedTree:
    """Path 0-1-...-(n-1) rooted at 0; dirs gives the n-1 edge orientations."""
    if dirs is None:
        dirs = [DOWN] * (n - 1)
    parent = [-1] + list(range(n - 1))
    edge_dir = [None] + list(dirs)
    return RootedOrientedTree(parent, edge_dir)


def star_tree(leaves: int, dirs: Optional[Sequence[str]] = None) -> RootedOrientedTree:
    if dirs is None:
        dirs = [DOWN] * leaves
    parent = [-1] + [0] * leaves
    edge_dir = [None] + list(dirs)
    return RootedOrientedTree(parent, edge_dir)


class TreePiece:
    """A rooted subtree of a source tree.

    ``vertices[local] = original id``, listed in BFS order of the source
    tree from the piece root, with the piece root's parent prepended if the
    piece is augmented; ``root`` is ``vertices[0]``.  ``tree`` is the piece
    with local ids 0..k-1.  It is built on first read and cached, so a
    caller that only needs ``vertices``, ``root`` and ``size`` never pays
    for it.  Reading it raises InputError unless the vertices are a
    connected piece listed in BFS order.
    """

    __slots__ = ("vertices", "root", "_source", "_tree")

    def __init__(self, source: RootedOrientedTree, vertices: Sequence[int]):
        self.vertices = tuple(vertices)
        self.root = self.vertices[0]
        self._source = source
        self._tree = None

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def tree(self) -> RootedOrientedTree:
        if self._tree is None:
            t, verts = self._source, self.vertices
            local = {orig: i for i, orig in enumerate(verts)}
            # a parent outside the piece maps to -1, a second root
            parent = [-1] + [local.get(t.parent[v], -1) for v in verts[1:]]
            edge_dir = [None] + [t.edge_dir[v] for v in verts[1:]]
            tree = RootedOrientedTree(parent, edge_dir)
            if tree.bfs_order != tuple(range(tree.n)):
                raise InputError("piece vertices are not in BFS order")
            self._tree = tree
        return self._tree

    def __repr__(self) -> str:
        return f"TreePiece(size={self.size}, root={self.root})"


def _greedy_cut(
    t: RootedOrientedTree, threshold_of_cut: callable
) -> list[tuple[int, list[int]]]:
    """Cut subtrees deepest-first.

    threshold_of_cut(total_cut_so_far) gives the current minimum piece size;
    it is called once at the start and once after each cut, so its
    argument increases from one call to the next.  Vertices are
    processed by decreasing depth, ties by smallest id, which realizes the
    maximal-distance-from-root selection rule.  Stranded shallow vertices
    join the last-cut piece, which then is rooted at the tree root.
    Returns the pieces in cut order as (root, vertices in BFS order).
    """
    n = t.n
    size = [1] * n
    # the sort is stable, so equal depths keep increasing id
    order = sorted(range(n), key=t.depth.__getitem__, reverse=True)
    pieces: list[tuple[int, list[int]]] = []
    cuts: set[int] = set()  # the roots of the pieces cut so far
    total_cut = 0
    thr = threshold_of_cut(total_cut)
    # alive subtree sizes accumulate bottom-up as we sweep by depth; a
    # removed child is a cut root, whose size is 0 (a removed vertex below
    # a cut root is never the child of a vertex still to be swept)
    for v in order:
        for c in t.children[v]:
            size[v] += size[c]
        if size[v] >= thr:
            # a piece is v's subtree less the subtrees cut before it
            verts = t.subtree_vertices(v, cuts)
            cuts.add(v)
            pieces.append((v, verts))
            total_cut += len(verts)
            thr = threshold_of_cut(total_cut)
            size[v] = 0
    if total_cut < n:
        # the uncut vertices, with the last-cut piece joined back to them
        if pieces:
            cuts.remove(pieces.pop()[0])
        pieces.append((t.root, t.subtree_vertices(t.root, cuts)))
    return pieces


def tree_partition(t: RootedOrientedTree, size_floor: int) -> list[TreePiece]:
    """Partition into vertex-disjoint rooted subtrees of size in
    [size_floor, 2 * max_degree * size_floor], root depths non-decreasing."""
    if size_floor < 1:
        raise InputError("size_floor must be positive")
    if size_floor > t.n:
        raise InputError(f"size_floor {size_floor} exceeds tree size {t.n}")
    pieces = _greedy_cut(t, lambda _: size_floor)
    return [TreePiece(t, verts) for _, verts in reversed(pieces)]


@dataclass(frozen=True)
class TreeDecomposition:
    """Ordered rooted subtrees with residual counts and overlap structure.

    pieces[0] is unaugmented; every later piece's root is the parent (in the
    host tree) of the subtree it hangs from, so consecutive pieces overlap in
    exactly that one vertex.  residuals[i] = n0 - |T_1 u ... u T_i| + 1 for
    i >= 1 and residuals[0] = n0.
    """

    pieces: tuple[TreePiece, ...]
    residuals: tuple[int, ...]
    overlaps: tuple[Optional[tuple[int, int]], ...]  # (earlier index, shared vertex)
    n0: int
    delta: int

    @property
    def k(self) -> int:
        return len(self.pieces)


def quarter_decomposition(t: RootedOrientedTree, n0: int) -> TreeDecomposition:
    """Decompose so piece i has (augmented) size about residuals[i-1]^(1/4).

    Pieces after the first are augmented by their root's parent, so each
    intersects exactly one earlier piece in exactly that vertex.
    """
    n = t.n
    if not (n <= n0 < max(n ** 4, 2)):
        raise InputError(f"need n <= n0 < n^4, got n={n}, n0={n0}")
    delta = max(2, t.max_degree())

    base = n0 - n + 1  # offset of the cut-progress counter
    m = 1

    def threshold(total_cut: int) -> int:
        # least m with m^4 >= m + ell; total_cut never decreases during the
        # sweep, so neither does m and the search resumes where it stopped
        nonlocal m
        ell = base + total_cut
        while m ** 4 < m + ell:
            m += 1
        return m

    # reverse: first piece contains the tree root, depths non-decreasing
    ordered = reversed(_greedy_cut(t, threshold))
    pieces: list[TreePiece] = []
    overlaps: list[Optional[tuple[int, int]]] = []
    residuals = [n0]
    placed = [0] * n  # original vertex -> index of the piece that owns it
    cum = 0
    for idx, (root, verts) in enumerate(ordered):
        if idx == 0:
            piece = TreePiece(t, verts)
            overlaps.append(None)
        else:
            w = t.parent[root]
            piece = TreePiece(t, (w, *verts))
            overlaps.append((placed[w], w))
        for u in verts:
            placed[u] = idx
        cum += len(verts)
        residuals.append(n0 - cum + 1)
        pieces.append(piece)
    return TreeDecomposition(
        pieces=tuple(pieces),
        residuals=tuple(residuals),
        overlaps=tuple(overlaps),
        n0=n0,
        delta=delta,
    )


def decomposition_invariant_report(
    t: RootedOrientedTree, dec: TreeDecomposition
) -> dict[str, bool]:
    """Check the five structural invariants of a quarter decomposition.

    Piece i's own vertices N_i are its vertices less its anchor, the vertex
    ``overlaps[i]`` names; N_0 is all of piece 0.  The checks:

    - coverage: the N_i partition the vertices of t;
    - subtree_containment: N_i lies in the subtree of its shallowest vertex,
      and N_0 in that of piece 0's root;
    - depths_nondecreasing: the piece roots' depths do not decrease;
    - single_overlap: each piece i > 0 meets N_0 u ... u N_(i-1) in its
      anchor alone, and its recorded owner j has the anchor in N_j;
    - size_window: each piece's size lies in its window against the
      running residual.

    All of them are read off one array of the pieces' vertices, concatenated
    in piece order.  A vertex id outside 0..n-1 or an owner index outside
    0..k-1 raises InputError.
    """
    n, pieces, overlaps = t.n, dec.pieces, dec.overlaps
    k = len(pieces)
    lens = [len(p.vertices) for p in pieces]
    verts = np.fromiter(
        chain.from_iterable(p.vertices for p in pieces), np.int64, sum(lens)
    )
    if verts.size and not (0 <= verts.min() and verts.max() < n):
        raise InputError("a piece vertex is not a vertex of the tree")
    owner = np.array([0] + [ov[0] for ov in overlaps[1:k]], dtype=np.int64)
    anchor = np.array([-1] + [ov[1] for ov in overlaps[1:k]], dtype=np.int64)
    if not ((0 <= owner) & (owner < k)).all():
        raise InputError("an overlap owner is not a piece index")
    piece_of = np.repeat(np.arange(k), lens)
    own = verts != anchor[piece_of]
    own_piece, own_vertex = piece_of[own], verts[own]
    # first[v] and last[v]: the first and last piece that own v, k and -1
    # if none does; a vertex repeated inside one piece counts once
    first = np.full(n, k)
    np.minimum.at(first, own_vertex, own_piece)
    last = np.full(n, -1)
    np.maximum.at(last, own_vertex, own_piece)
    coverage = bool((first == last).all())

    # (iv) piece i owns no vertex owned before it, its anchor is owned
    # before it, and its owner owns the anchor.  Unless every vertex has at
    # most one owner, some piece owns a vertex owned before it, so first[]
    # names the one owner where the last test matters.
    owned_before = np.zeros(k, dtype=bool)
    owned_before[own_piece[first[own_vertex] < own_piece]] = True
    at = ~own  # the anchors' entries, all in pieces i > 0
    anchor_owned = np.zeros(k, dtype=bool)
    anchor_owned[piece_of[at][first[verts[at]] < piece_of[at]]] = True
    # an anchor outside the tree is in no piece, so anchor_owned is False
    owner_owns = first[np.clip(anchor, 0, n - 1)] == owner
    single_overlap = bool((anchor_owned & ~owned_before & owner_owns)[1:].all())

    # (ii) preorder numbering: the subtree of v is [pre[v], pre[v] + size[v]).
    # N_i lies in the subtree of its shallowest vertex exactly when it lies
    # in that of its vertex with the least preorder number.
    sizes = t.subtree_sizes()
    pre = [0] * n
    for v in t.bfs_order:
        nxt = pre[v] + 1
        for c in t.children[v]:
            pre[c] = nxt
            nxt += sizes[c]
    pre_np = np.array(pre)
    end = np.empty(n + 1, dtype=np.int64)  # end[pre[v]] ends v's interval
    end[pre_np] = pre_np + sizes
    end[n] = n  # a piece that owns nothing passes
    own_pre = pre_np[own_vertex]
    lo = np.full(k, n)
    np.minimum.at(lo, own_piece, own_pre)
    hi = np.full(k, -1)
    np.maximum.at(hi, own_piece, own_pre)
    inside = hi < end[lo]
    if k:
        r = pieces[0].root  # piece 0 hangs from its root
        inside[0] = pre[r] <= lo[0] and hi[0] < pre[r] + sizes[r]

    # (iii) and (v) read one number per piece
    depths = [t.depth[p.root] for p in pieces]
    window = True
    for i, piece in enumerate(pieces):
        quarter = dec.residuals[i] ** 0.25
        low = quarter if i == 0 else quarter + 1
        if not (low - 1e-9 <= piece.size <= 3 * dec.delta * quarter + 1e-9):
            window = False
    return {
        "coverage": coverage,
        "subtree_containment": bool(inside.all()),
        "depths_nondecreasing": all(a <= b for a, b in zip(depths, depths[1:])),
        "single_overlap": single_overlap,
        "size_window": window,
    }


@dataclass(frozen=True)
class TrunkSplit:
    trunk: Optional[TreePiece]   # T' (None when the split is degenerate)
    branch: TreePiece            # T''
    attach: Optional[int]        # t', original id (parent of branch root)


def split_trunk(t: RootedOrientedTree, threshold: int) -> TrunkSplit:
    """Split off the deepest subtree of size >= threshold."""
    if not (1 <= threshold <= t.n):
        raise InputError(f"threshold must be in 1..{t.n}")
    size = t.subtree_sizes()
    candidates = [v for v in range(t.n) if size[v] >= threshold]
    t2 = min(candidates, key=lambda v: (-t.depth[v], v))
    branch = TreePiece(t, t.subtree_vertices(t2))
    if t2 == t.root:
        return TrunkSplit(trunk=None, branch=branch, attach=None)
    t1 = t.parent[t2]
    trunk = TreePiece(t, t.subtree_vertices(t.root, {t2}))
    return TrunkSplit(trunk=trunk, branch=branch, attach=t1)


# ---------------------------------------------------------------------------
# automorphism counting via canonical child codes
# ---------------------------------------------------------------------------

def _rooted_code_and_aut(
    t: RootedOrientedTree, respect_orientation: bool, codes: dict
) -> tuple[int, int]:
    """Canonical code and |Aut| of t as a rooted tree.

    A vertex's code is the sorted tuple of (edge flag, child code) pairs of
    its children, interned in ``codes`` as a small int, so two subtrees get
    the same code exactly when they are isomorphic, for every tree sharing
    the table.  Children come before parents in reversed BFS order, which
    keeps the walk iterative and the codes shallow at any depth.
    """
    code = [0] * t.n
    aut = [1] * t.n
    for v in reversed(t.bfs_order):
        child_items = sorted(
            (t.edge_dir[c] if respect_orientation else "", code[c])
            for c in t.children[v]
        )
        a = math.prod(aut[c] for c in t.children[v])
        for run in Counter(child_items).values():
            a *= math.factorial(run)
        code[v] = codes.setdefault(tuple(child_items), len(codes))
        aut[v] = a
    return code[t.root], aut[t.root]


def _centroids(t: RootedOrientedTree) -> list[int]:
    size = t.subtree_sizes()
    best, cand = None, []
    for v in range(t.n):
        heaviest = max(
            [size[c] for c in t.children[v]] + [t.n - size[v] if v != t.root else 0]
        ) if t.n > 1 else 0
        if best is None or heaviest < best:
            best, cand = heaviest, [v]
        elif heaviest == best:
            cand.append(v)
    return sorted(cand)


def _reroot(t: RootedOrientedTree, new_root: int) -> RootedOrientedTree:
    """Same underlying oriented tree, rooted elsewhere.

    Only the edges on the path from new_root up to the old root change:
    each of them now hangs its old parent below its old child, so its
    pointer and its direction flip.
    """
    parent, edge_dir = list(t.parent), list(t.edge_dir)
    above, d = -1, None  # the new parent of v and the direction to it
    v = new_root
    while v != -1:
        parent[v], edge_dir[v] = above, d
        above, d = v, (UP if t.edge_dir[v] == DOWN else DOWN)
        v = t.parent[v]
    return RootedOrientedTree(parent, edge_dir)


def automorphism_count(
    t: RootedOrientedTree, rooted: bool = True, respect_orientation: bool = True
) -> int:
    """Exact |Aut| of the (rooted or unrooted) tree.

    Unrooted automorphisms act on the underlying tree; when orientations are
    respected, every tree arc must map to an arc with the same direction.
    """
    codes: dict = {}
    if rooted:
        return _rooted_code_and_aut(t, respect_orientation, codes)[1]
    cents = _centroids(t)
    if len(cents) == 1:
        rt = _reroot(t, cents[0])
        return _rooted_code_and_aut(rt, respect_orientation, codes)[1]
    c1, c2 = cents
    r1 = _reroot(t, c1)
    # split on the centroid edge: root each half at its centroid
    half1 = TreePiece(r1, r1.subtree_vertices(c1, {c2})).tree
    half2 = TreePiece(r1, r1.subtree_vertices(c2)).tree
    code1, a1 = _rooted_code_and_aut(half1, respect_orientation, codes)
    code2, a2 = _rooted_code_and_aut(half2, respect_orientation, codes)
    total = a1 * a2
    # a swap of the centroids reverses the centroid edge, so it can only
    # be an automorphism when orientations are ignored
    if not respect_orientation and code1 == code2:
        total *= 2
    return total


# ---------------------------------------------------------------------------
# tree text format:
#   "tree <n> <root>" then n-1 lines "<child> <parent> <dir>"
# ---------------------------------------------------------------------------

def parse_tree_text(text: str) -> RootedOrientedTree:
    lines, _, n, root = read_header(text, ("tree",), "'tree <n> <root>'", "count/root")
    if not (0 <= root < n):
        raise ParseError(1, "root out of range")
    body = read_body(lines, n - 1, "edge", "<child> <parent> <dir>")
    parent = [-1] * n
    edge_dir: list[Optional[str]] = [None] * n
    for idx, parts in body:
        try:
            c, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(idx, "non-integer vertex id") from None
        if not (0 <= c < n and 0 <= p < n):
            raise ParseError(idx, "vertex id out of range")
        if c == root:
            raise ParseError(idx, "root listed as a child")
        if parent[c] != -1:
            raise ParseError(idx, f"vertex {c} has two parents")
        if parts[2] not in (UP, DOWN):
            raise ParseError(idx, f"direction must be 'up' or 'down', got {parts[2]!r}")
        parent[c] = p
        edge_dir[c] = parts[2]
    try:
        return RootedOrientedTree(parent, edge_dir)
    except InputError as exc:
        raise ParseError(len(lines), str(exc)) from None


def write_tree_text(t: RootedOrientedTree) -> str:
    lines = [f"tree {t.n} {t.root}"]
    for v in range(t.n):
        if v != t.root:
            lines.append(f"{v} {t.parent[v]} {t.edge_dir[v]}")
    return "\n".join(lines) + "\n"
