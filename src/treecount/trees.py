"""Rooted oriented trees, breadth-first orders, partitions and decompositions.

A tree edge is oriented either toward the child ("down", the arc runs
parent -> child) or toward the parent ("up").  All partition/decomposition
routines work greedily from the deepest eligible vertex upward, with ties
broken by smallest vertex id so results are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParseError

DOWN = "down"  # arc parent -> child
UP = "up"      # arc child -> parent


class RootedOrientedTree:
    """Immutable rooted tree with per-edge orientation flags.

    parent[v] is -1 exactly for the root; edge_dir[v] describes the edge
    between v and its parent and is None for the root.
    """

    __slots__ = ("n", "root", "parent", "edge_dir", "children",
                 "bfs_order", "depth")

    def __init__(self, parent: Sequence[int], edge_dir: Sequence[Optional[str]]):
        n = len(parent)
        if n == 0:
            raise InputError("tree must have at least one vertex")
        if len(edge_dir) != n:
            raise InputError("edge_dir length mismatch")
        roots = [v for v in range(n) if parent[v] == -1]
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v == root:
                if edge_dir[v] is not None:
                    raise InputError("root must have edge_dir None")
                continue
            p = parent[v]
            if not (0 <= p < n):
                raise InputError(f"parent of {v} out of range")
            if edge_dir[v] not in (UP, DOWN):
                raise InputError(f"bad edge direction for vertex {v}: {edge_dir[v]}")
            children[p].append(v)  # ascending v keeps every child list sorted
        # validate acyclicity / connectivity via BFS from the root
        order = [root]
        depth = [0] * n
        queue = deque([root])
        seen = 1
        while queue:
            v = queue.popleft()
            for c in children[v]:
                depth[c] = depth[v] + 1
                order.append(c)
                queue.append(c)
                seen += 1
        if seen != n:
            raise InputError("parent array does not describe a connected tree")
        self.n = n
        self.root = root
        self.parent = tuple(parent)
        self.edge_dir = tuple(edge_dir)
        self.children = tuple(map(tuple, children))
        self.bfs_order = tuple(order)
        self.depth = tuple(depth)

    @classmethod
    def _from_bfs(
        cls, parent: Sequence[int], edge_dir: Sequence[Optional[str]]
    ) -> "RootedOrientedTree":
        """Build a tree whose vertex ids already are its BFS order.

        Precondition: vertex 0 is the root (parent -1, edge_dir None) and
        parent[i - 1] <= parent[i] < i for every i >= 1, with parent[1] == 0.
        Then the BFS order with children by increasing id is 0..n-1, so the
        root scan and BFS of ``__init__`` are skipped.  The precondition
        itself is checked in O(n); anything else raises InputError.
        """
        n = len(parent)
        if n == 0 or len(edge_dir) != n or parent[0] != -1 or edge_dir[0] is not None:
            raise InputError("BFS-order tree needs vertex 0 as its root")
        children: list[list[int]] = [[] for _ in range(n)]
        depth = [0] * n
        prev = 0
        for v in range(1, n):
            p = parent[v]
            if not (prev <= p < v):
                raise InputError(f"parent array is not in BFS order at vertex {v}")
            if edge_dir[v] not in (UP, DOWN):
                raise InputError(f"bad edge direction for vertex {v}: {edge_dir[v]}")
            children[p].append(v)
            depth[v] = depth[p] + 1
            prev = p
        self = cls.__new__(cls)
        self.n = n
        self.root = 0
        self.parent = tuple(parent)
        self.edge_dir = tuple(edge_dir)
        self.children = tuple(map(tuple, children))
        self.bfs_order = tuple(range(n))
        self.depth = tuple(depth)
        return self

    @property
    def m(self) -> int:
        return self.n - 1

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.n))

    def subtree_sizes(self) -> list[int]:
        size = [1] * self.n
        for v in reversed(self.bfs_order):
            if v != self.root:
                size[self.parent[v]] += size[v]
        return size

    def subtree_vertices(self, v: int) -> list[int]:
        """Vertices below v (inclusive), in BFS order of the subtree."""
        out = [v]
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for c in self.children[u]:
                out.append(c)
                queue.append(c)
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


def bfs_order(t: RootedOrientedTree) -> tuple[int, ...]:
    return t.bfs_order


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


@dataclass(frozen=True)
class TreePiece:
    """A rooted subtree extracted from a host tree.

    `tree` uses local ids 0..k-1; `vertices[local] = original id`; `root`
    is the original id of the piece root (= vertices[tree.root]).
    """

    tree: RootedOrientedTree
    vertices: tuple[int, ...]
    root: int

    @property
    def size(self) -> int:
        return self.tree.n


def _extract_piece(
    t: RootedOrientedTree,
    piece_vertices: Sequence[int],
    piece_root: int,
    augment_parent: Optional[int] = None,
) -> TreePiece:
    """Build a TreePiece from original-id vertices; optionally prepend the
    piece root's parent as the new root (keeping the original edge flag).

    piece_vertices must be the piece in BFS order of t, starting at
    piece_root, as ``_greedy_cut``, ``_bfs_of``, ``subtree_vertices`` and a
    filtered ``t.bfs_order`` give it.  The positions become the local ids,
    so the piece tree is built by ``RootedOrientedTree._from_bfs``, which
    raises InputError for any other order.
    """
    verts = list(piece_vertices)
    if not verts or verts[0] != piece_root:
        raise InputError("piece vertices must start at the piece root")
    if augment_parent is not None:
        verts.insert(0, augment_parent)
    local = {orig: i for i, orig in enumerate(verts)}
    # a parent outside the piece maps to -1, which _from_bfs refuses
    parent = [-1] + [local.get(t.parent[v], -1) for v in verts[1:]]
    edge_dir = [None] + [t.edge_dir[v] for v in verts[1:]]
    return TreePiece(
        tree=RootedOrientedTree._from_bfs(parent, edge_dir),
        vertices=tuple(verts),
        root=verts[0],
    )


def _greedy_cut(
    t: RootedOrientedTree, threshold_of_cut: callable
) -> list[tuple[int, list[int]]]:
    """Cut subtrees deepest-first.

    threshold_of_cut(total_cut_so_far) gives the current minimum piece size;
    its argument never decreases from one call to the next.  Vertices are
    processed by decreasing depth, ties by smallest id, which realizes the
    maximal-distance-from-root selection rule.  Stranded shallow vertices
    join the last-cut piece, which then is rooted at the tree root.
    Returns the pieces in cut order as (root, vertices in BFS order).
    """
    n = t.n
    removed = [False] * n
    size = [1] * n
    # the sort is stable, so equal depths keep increasing id
    order = sorted(range(n), key=t.depth.__getitem__, reverse=True)
    pieces: list[tuple[int, list[int]]] = []
    total_cut = 0
    # alive subtree sizes accumulate bottom-up as we sweep by depth
    for v in order:
        for c in t.children[v]:
            if not removed[c]:
                size[v] += size[c]
        thr = threshold_of_cut(total_cut)
        if size[v] >= thr:
            verts = [v]
            queue = deque([v])
            while queue:
                u = queue.popleft()
                for c in t.children[u]:
                    if not removed[c]:
                        verts.append(c)
                        queue.append(c)
            for u in verts:
                removed[u] = True
            pieces.append((v, verts))
            total_cut += len(verts)
            size[v] = 0
    leftover = [v for v in t.bfs_order if not removed[v]]
    if leftover:
        if pieces:
            leftover += pieces.pop()[1]
        pieces.append((t.root, _bfs_of(t, leftover, t.root)))
    return pieces


def tree_partition(t: RootedOrientedTree, size_floor: int) -> list[TreePiece]:
    """Partition into vertex-disjoint rooted subtrees of size in
    [size_floor, 2 * max_degree * size_floor], root depths non-decreasing."""
    if size_floor < 1:
        raise InputError("size_floor must be positive")
    if size_floor > t.n:
        raise InputError(f"size_floor {size_floor} exceeds tree size {t.n}")
    pieces = _greedy_cut(t, lambda _: size_floor)
    return [_extract_piece(t, verts, root) for root, verts in reversed(pieces)]


def _bfs_of(t: RootedOrientedTree, verts: Iterable[int], root: int) -> list[int]:
    vset = set(verts)
    out = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for c in t.children[u]:
            if c in vset:
                out.append(c)
                queue.append(c)
    if len(out) != len(vset):
        raise InputError("piece vertices are not connected under the root")
    return out


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
    placed: dict[int, int] = {}  # original vertex -> index of piece that owns it
    cum = 0
    for idx, (root, verts) in enumerate(ordered):
        if idx == 0:
            piece = _extract_piece(t, verts, root)
            overlaps.append(None)
        else:
            w = t.parent[root]
            piece = _extract_piece(t, verts, root, augment_parent=w)
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
    """Check the five structural invariants of a quarter decomposition."""
    n0, delta = dec.n0, dec.delta
    covered: set[int] = set()
    ok_cover = True
    ok_subtree = True
    ok_depths = True
    ok_overlap = True
    ok_window = True
    prev_depth = -1
    # preorder numbering: the subtree of v is the interval
    # [pre[v], pre[v] + sizes[v])
    sizes = t.subtree_sizes()
    pre = [0] * t.n
    for v in t.bfs_order:
        nxt = pre[v] + 1
        for c in t.children[v]:
            pre[c] = nxt
            nxt += sizes[c]
    for i, piece in enumerate(dec.pieces):
        own = set(piece.vertices)
        anchor = None
        if i > 0:
            anchor = dec.overlaps[i][1]
            own_new = own - {anchor}
        else:
            own_new = own
        # (iv) each later piece meets the earlier pieces in exactly its
        # root, which must be a non-root vertex of the recorded owner
        if i > 0:
            j = dec.overlaps[i][0]
            owner_own = set(dec.pieces[j].vertices)
            if j > 0:
                owner_own.discard(dec.overlaps[j][1])
            if own & covered != {anchor} or anchor not in owner_own:
                ok_overlap = False
        if own_new & covered:
            ok_cover = False
        covered |= own_new
        # (ii) piece lies below the subtree of the vertex it hangs from
        hang = piece.root if i == 0 else min(
            (v for v in own_new), key=lambda v: t.depth[v]
        )
        lo_pre = pre[hang]
        hi_pre = lo_pre + sizes[hang]
        if not all(lo_pre <= pre[v] < hi_pre for v in own_new):
            ok_subtree = False
        # (iii) root depths non-decreasing
        d = t.depth[piece.root]
        if d < prev_depth:
            ok_depths = False
        prev_depth = d
        # (v) size window against the running residual
        r = dec.residuals[i]
        quarter = r ** 0.25
        lo = quarter if i == 0 else quarter + 1
        hi = 3 * delta * quarter
        if not (lo - 1e-9 <= piece.size <= hi + 1e-9):
            ok_window = False
    if covered != set(range(t.n)):
        ok_cover = False
    return {
        "coverage": ok_cover,
        "subtree_containment": ok_subtree,
        "depths_nondecreasing": ok_depths,
        "single_overlap": ok_overlap,
        "size_window": ok_window,
    }


@dataclass(frozen=True)
class TrunkSplit:
    trunk: Optional[TreePiece]   # T' (None when the split is degenerate)
    branch: TreePiece            # T''
    attach: Optional[int]        # t', original id (parent of branch root)
    branch_root: int             # t'', original id
    degenerate: bool


def split_trunk(t: RootedOrientedTree, threshold: int) -> TrunkSplit:
    """Split off the deepest subtree of size >= threshold."""
    if not (1 <= threshold <= t.n):
        raise InputError(f"threshold must be in 1..{t.n}")
    size = t.subtree_sizes()
    candidates = [v for v in range(t.n) if size[v] >= threshold]
    t2 = min(candidates, key=lambda v: (-t.depth[v], v))
    branch_verts = t.subtree_vertices(t2)
    branch = _extract_piece(t, branch_verts, t2)
    if t2 == t.root:
        return TrunkSplit(trunk=None, branch=branch, attach=None,
                          branch_root=t2, degenerate=True)
    t1 = t.parent[t2]
    in_branch = set(branch_verts)
    trunk_verts = [v for v in t.bfs_order if v not in in_branch]
    trunk = _extract_piece(t, trunk_verts, t.root)
    return TrunkSplit(trunk=trunk, branch=branch, attach=t1,
                      branch_root=t2, degenerate=False)


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
    """Same underlying oriented tree, rooted elsewhere."""
    adj: list[list[tuple[int, str]]] = [[] for _ in range(t.n)]
    for v in range(t.n):
        if v == t.root:
            continue
        p = t.parent[v]
        d = t.edge_dir[v]
        adj[p].append((v, d))
        adj[v].append((p, DOWN if d == UP else UP))
    parent = [-1] * t.n
    edge_dir: list[Optional[str]] = [None] * t.n
    seen = [False] * t.n
    seen[new_root] = True
    queue = deque([new_root])
    while queue:
        u = queue.popleft()
        for w, d in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                edge_dir[w] = d
                queue.append(w)
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
    half2_verts = r1.subtree_vertices(c2)
    in_half2 = set(half2_verts)
    half1_verts = [v for v in r1.bfs_order if v not in in_half2]
    p1 = _extract_piece(r1, half1_verts, c1)
    p2 = _extract_piece(r1, half2_verts, c2)
    code1, a1 = _rooted_code_and_aut(p1.tree, respect_orientation, codes)
    code2, a2 = _rooted_code_and_aut(p2.tree, respect_orientation, codes)
    total = a1 * a2
    # a swap of the centroids reverses the centroid edge, so it can only
    # be an automorphism when orientations are ignored
    if not respect_orientation and code1 == code2:
        total *= 2
    return total


# ---------------------------------------------------------------------------
# asymptotic parameter bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticParams:
    gamma: float
    n: int
    delta_cap: float = field(init=False)
    alpha: float = field(init=False)
    zeta: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        if self.n < 2 or self.gamma <= 0:
            raise InputError("need n >= 2 and gamma > 0")
        ln_n = math.log(self.n)
        object.__setattr__(self, "delta_cap", math.exp(self.gamma * math.sqrt(ln_n)))
        object.__setattr__(self, "alpha", 1.0 / (7000.0 * math.sqrt(ln_n)))
        object.__setattr__(self, "zeta", 1.0 / math.sqrt(ln_n))
        object.__setattr__(self, "mu", self.n ** (-1.0 / (7000.0 * math.sqrt(ln_n))))


# ---------------------------------------------------------------------------
# tree text format:
#   "tree <n> <root>" then n-1 lines "<child> <parent> <dir>"
# ---------------------------------------------------------------------------

def parse_tree_text(text: str) -> RootedOrientedTree:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "tree":
        raise ParseError(1, "expected header 'tree <n> <root>'")
    try:
        n, root = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(1, "non-integer count/root") from None
    if not (0 <= root < n):
        raise ParseError(1, "root out of range")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n - 1:
        raise ParseError(len(lines), f"expected {n - 1} edge lines, found {len(body)}")
    parent = [-1] * n
    edge_dir: list[Optional[str]] = [None] * n
    for idx, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(idx, "expected '<child> <parent> <dir>'")
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
