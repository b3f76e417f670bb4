from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from collections import deque, namedtuple

import numpy as np
import pytest

from helpers import random_tree
from treecount.errors import InputError, ParseError
from treecount.trees import (
    DOWN,
    UP,
    RootedOrientedTree,
    TreePiece,
    _centroids,
    _reroot,
    _rooted_code_and_aut,
    automorphism_count,
    decomposition_invariant_report,
    parse_tree_text,
    path_tree,
    quarter_decomposition,
    split_trunk,
    star_tree,
    tree_partition,
    write_tree_text,
)


def brute_automorphisms(
    t: RootedOrientedTree, rooted: bool, respect_orientation: bool
) -> int:
    """n!-enumeration oracle: permutations preserving the edge set (with
    orientation flags when asked) and, in rooted mode, fixing the root."""
    edges = {}
    for v in range(t.n):
        if v == t.root:
            continue
        p = t.parent[v]
        key = (min(p, v), max(p, v))
        if t.edge_dir[v] == DOWN:
            oriented = (p, v)
        else:
            oriented = (v, p)
        edges[key] = oriented
    count = 0
    for perm in itertools.permutations(range(t.n)):
        if rooted and perm[t.root] != t.root:
            continue
        ok = True
        for (a, b), (tail, head) in edges.items():
            ia, ib = perm[a], perm[b]
            key = (min(ia, ib), max(ia, ib))
            if key not in edges:
                ok = False
                break
            if respect_orientation and edges[key] != (perm[tail], perm[head]):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_tree_construction_and_validation():
    t = path_tree(4)
    assert t.root == 0 and t.depth == (0, 1, 2, 3)
    assert t.bfs_order == (0, 1, 2, 3)
    with pytest.raises(InputError):
        RootedOrientedTree([-1, -1], [None, None])
    with pytest.raises(InputError):
        RootedOrientedTree([1, 0], [DOWN, None])
    with pytest.raises(InputError):
        RootedOrientedTree([-1, 0], [None, "sideways"])
    with pytest.raises(InputError):
        RootedOrientedTree([-1, 2, 1], [None, DOWN, DOWN])


def test_subtree_sizes_and_degrees():
    t = star_tree(4)
    assert t.subtree_sizes() == [5, 1, 1, 1, 1]
    assert t.max_degree() == 4
    assert t.subtree_vertices(0) == [0, 1, 2, 3, 4]
    assert t.oriented_edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_tree_partition_window():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(5, 300))
        t = random_tree(rng, n, max_deg=6)
        floor = int(rng.integers(2, max(3, n // 3)))
        pieces = tree_partition(t, floor)
        delta = t.max_degree()
        covered = []
        for p in pieces:
            covered.extend(p.vertices)
            assert floor <= p.size <= 2 * delta * floor
        assert sorted(covered) == list(range(n))
        # root depths non-decreasing
        depths = [t.depth[p.root] for p in pieces]
        assert depths == sorted(depths)


def test_tree_partition_rejects_bad_floor():
    t = path_tree(5)
    with pytest.raises(InputError):
        tree_partition(t, 0)
    with pytest.raises(InputError):
        tree_partition(t, 6)


def test_quarter_decomposition_p16():
    t = path_tree(16)
    dec = quarter_decomposition(t, 16)
    rep = decomposition_invariant_report(t, dec)
    assert all(rep.values()), rep


def test_quarter_decomposition_single_edge():
    t = path_tree(2)
    dec = quarter_decomposition(t, 2)
    assert dec.k == 1 and dec.pieces[0].size == 2
    assert all(decomposition_invariant_report(t, dec).values())


def test_quarter_decomposition_random():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 2000))
        t = random_tree(rng, n, max_deg=16)
        n0 = int(rng.integers(n, min(n ** 4, 4 * n)))
        dec = quarter_decomposition(t, n0)
        rep = decomposition_invariant_report(t, dec)
        assert all(rep.values()), (n, n0, rep)


def test_quarter_decomposition_bad_n0():
    t = path_tree(5)
    with pytest.raises(InputError):
        quarter_decomposition(t, 4)
    with pytest.raises(InputError):
        quarter_decomposition(t, 5 ** 4)


def loop_invariant_report(t, dec):
    """The set-based report that decomposition_invariant_report replaced,
    kept as its reference: one set per piece and per owner, and a depth
    search for each piece's hang vertex."""
    n0, delta = dec.n0, dec.delta
    covered: set[int] = set()
    ok_cover = ok_subtree = ok_depths = ok_overlap = ok_window = True
    prev_depth = -1
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
        hang = piece.root if i == 0 else min(own_new, key=lambda v: t.depth[v])
        lo_pre = pre[hang]
        hi_pre = lo_pre + sizes[hang]
        if not all(lo_pre <= pre[v] < hi_pre for v in own_new):
            ok_subtree = False
        d = t.depth[piece.root]
        if d < prev_depth:
            ok_depths = False
        prev_depth = d
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


# the report reads a piece's vertices, root and size and nothing else
_Piece = namedtuple("_Piece", "vertices root size")


def _with_pieces(dec, vertex_lists, **changes):
    """dec with its pieces replaced by the given vertex lists, each rooted
    at its first vertex, and with any other fields changed."""
    pieces = tuple(_Piece(tuple(vs), vs[0], len(vs)) for vs in vertex_lists)
    return dataclasses.replace(dec, pieces=pieces, **changes)


def _base_decomposition():
    t = random_tree(np.random.default_rng(25), 300, max_deg=6)
    dec = quarter_decomposition(t, 300)
    assert all(decomposition_invariant_report(t, dec).values())
    return t, dec, [list(p.vertices) for p in dec.pieces]


def _leaf_below_root(t, verts):
    """A tree leaf of the piece other than its first vertex."""
    return next(v for v in reversed(verts[1:]) if not t.children[v])


def _only_false(rep, key):
    assert [k for k, ok in rep.items() if not ok] == [key], rep


def test_report_flags_a_dropped_vertex():
    t, dec, verts = _base_decomposition()
    verts[-1].remove(_leaf_below_root(t, verts[-1]))
    bad = _with_pieces(dec, verts)
    assert not decomposition_invariant_report(t, bad)["coverage"]
    assert decomposition_invariant_report(t, bad) == loop_invariant_report(t, bad)


def test_report_flags_a_piece_outside_its_subtree():
    # trading leaves between two pieces keeps the cover exact
    t, dec, verts = _base_decomposition()
    a, b = verts[1], verts[-1]
    x, y = _leaf_below_root(t, a), _leaf_below_root(t, b)
    a[a.index(x)], b[b.index(y)] = y, x
    bad = _with_pieces(dec, verts)
    _only_false(decomposition_invariant_report(t, bad), "subtree_containment")
    assert decomposition_invariant_report(t, bad) == loop_invariant_report(t, bad)


def test_report_flags_swapped_pieces():
    t, dec, verts = _base_decomposition()
    assert t.depth[verts[1][0]] < t.depth[verts[-1][0]]
    verts[1], verts[-1] = verts[-1], verts[1]
    bad = _with_pieces(dec, verts)
    assert not decomposition_invariant_report(t, bad)["depths_nondecreasing"]
    assert decomposition_invariant_report(t, bad) == loop_invariant_report(t, bad)


def test_report_flags_a_wrong_overlap_owner():
    t, dec, verts = _base_decomposition()
    i = len(verts) - 1
    j, w = dec.overlaps[i]
    wrong = next(h for h in range(i) if h != j and w not in verts[h])
    overlaps = dec.overlaps[:i] + ((wrong, w),)
    bad = dataclasses.replace(dec, overlaps=overlaps)
    _only_false(decomposition_invariant_report(t, bad), "single_overlap")
    assert decomposition_invariant_report(t, bad) == loop_invariant_report(t, bad)


def test_report_flags_an_oversized_piece():
    # the whole tree as one piece is far above 3 * delta * n0^(1/4)
    t, dec, _ = _base_decomposition()
    bad = _with_pieces(dec, [list(t.bfs_order)], overlaps=(None,),
                       residuals=(dec.n0, dec.n0 - t.n + 1))
    _only_false(decomposition_invariant_report(t, bad), "size_window")
    assert decomposition_invariant_report(t, bad) == loop_invariant_report(t, bad)


def test_report_refuses_ids_outside_the_tree():
    t, dec, verts = _base_decomposition()
    for bad in (-1, t.n):
        with pytest.raises(InputError):
            decomposition_invariant_report(t, _with_pieces(dec, verts[:-1] + [verts[-1] + [bad]]))
    for owner in (-1, len(verts)):
        overlaps = dec.overlaps[:-1] + ((owner, dec.overlaps[-1][1]),)
        with pytest.raises(InputError):
            decomposition_invariant_report(t, dataclasses.replace(dec, overlaps=overlaps))


def _corrupt(rng, t, dec):
    """dec with one random corruption of its pieces, overlaps or residuals."""
    verts = [list(p.vertices) for p in dec.pieces]
    k = len(verts)
    overlaps = list(dec.overlaps)
    residuals = list(dec.residuals)
    kind = int(rng.integers(7))
    i, j = (int(x) for x in rng.integers(0, k, 2))
    if kind == 0 and len(verts[i]) > 1:  # drop a vertex
        del verts[i][int(rng.integers(1, len(verts[i])))]
    elif kind == 1:  # repeat a vertex inside its piece
        verts[i].append(verts[i][int(rng.integers(len(verts[i])))])
    elif kind == 2:  # move a vertex to another piece
        if len(verts[i]) > 1:
            verts[j].append(verts[i].pop(int(rng.integers(1, len(verts[i])))))
    elif kind == 3:  # swap two pieces
        verts[i], verts[j] = verts[j], verts[i]
    elif kind == 4 and i > 0:  # a wrong overlap owner or anchor
        w = int(rng.integers(t.n)) if rng.random() < 0.5 else overlaps[i][1]
        overlaps[i] = (int(rng.integers(k)), w)
    elif kind == 5:  # a wrong residual
        residuals[i] = int(rng.integers(0, 4 * dec.n0))
    elif kind == 6:  # a vertex shared with another piece
        verts[j].append(verts[i][int(rng.integers(len(verts[i])))])
    if not verts[i] or not verts[j]:
        return dec
    return _with_pieces(dec, verts, overlaps=tuple(overlaps),
                        residuals=tuple(residuals))


def test_report_matches_loop_reference():
    rng = np.random.default_rng(26)
    flagged = dict.fromkeys(
        ("coverage", "subtree_containment", "depths_nondecreasing",
         "single_overlap", "size_window"), 0)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        t = random_tree(rng, n, max_deg=int(rng.integers(3, 17)))
        dec = quarter_decomposition(t, int(rng.integers(n, min(n ** 4, 4 * n) + 1)))
        assert decomposition_invariant_report(t, dec) == loop_invariant_report(t, dec)
        for _ in range(3):
            dec = _corrupt(rng, t, dec)
            try:
                want = loop_invariant_report(t, dec)
            except (ValueError, IndexError):
                continue  # a piece left with only its anchor has no hang vertex
            rep = decomposition_invariant_report(t, dec)
            assert rep == want, (n, rep, want)
            for key, ok in rep.items():
                flagged[key] += not ok
    assert min(flagged.values()) > 10, flagged


def test_split_trunk():
    t = path_tree(10)
    split = split_trunk(t, 3)
    assert split.trunk is not None
    assert split.branch.size >= 3
    assert split.trunk.size + split.branch.size == 10
    assert split.attach == t.parent[split.branch.root]
    # threshold as large as the tree: the root itself is the only choice
    s2 = split_trunk(t, 10)
    assert s2.trunk is None and s2.attach is None and s2.branch.root == t.root


def _pieces_of(t, rng):
    n0 = int(rng.integers(t.n, min(t.n ** 4, 4 * t.n) + 1))
    yield from quarter_decomposition(t, n0).pieces
    yield from tree_partition(t, int(rng.integers(1, t.n + 1)))
    split = split_trunk(t, int(rng.integers(1, t.n + 1)))
    yield split.branch
    if split.trunk is not None:
        yield split.trunk


def test_pieces_match_validating_constructor():
    # pieces skip the validating constructor; they must still equal its output
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(80):
        n = int(rng.integers(2, 400))
        t = random_tree(rng, n, max_deg=int(rng.integers(3, 17)))
        for piece in _pieces_of(t, rng):
            ref = RootedOrientedTree(piece.tree.parent, piece.tree.edge_dir)
            for slot in RootedOrientedTree.__slots__:
                assert getattr(piece.tree, slot) == getattr(ref, slot), slot
            assert piece.tree.bfs_order == tuple(range(piece.size))
            assert piece.root == piece.vertices[0]
            checked += 1
    assert checked > 1000


def test_pieces_build_their_tree_on_first_read():
    t = random_tree(np.random.default_rng(28), 500, max_deg=8)
    split = split_trunk(t, 40)
    pieces = [*quarter_decomposition(t, 500).pieces, *tree_partition(t, 20),
              split.branch, split.trunk]
    assert all(p._tree is None for p in pieces)
    for p in pieces:
        assert p.tree is p.tree and p.tree.n == p.size


def ref_subtree(t, v):
    """The deque walk of the vertices below v, in BFS order."""
    out = [v]
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for c in t.children[u]:
            out.append(c)
            queue.append(c)
    return out


def ref_bfs_of(t, verts, root):
    vset = set(verts)
    out = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for c in t.children[u]:
            if c in vset:
                out.append(c)
                queue.append(c)
    assert len(out) == len(vset)
    return out


def ref_greedy_cut(t, threshold_of_cut):
    """The deepest-first cut with a removed-vertex array, a deque walk per
    piece and a BFS of the leftover set, kept as the reference for the
    single subtree walk."""
    removed = [False] * t.n
    size = [1] * t.n
    order = sorted(range(t.n), key=t.depth.__getitem__, reverse=True)
    pieces = []
    total_cut = 0
    thr = threshold_of_cut(total_cut)
    for v in order:
        for c in t.children[v]:
            size[v] += size[c]
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
            thr = threshold_of_cut(total_cut)
            size[v] = 0
    leftover = [v for v in t.bfs_order if not removed[v]]
    if leftover:
        if pieces:
            leftover += pieces.pop()[1]
        pieces.append((t.root, ref_bfs_of(t, leftover, t.root)))
    return pieces


def ref_minus_subtree(t, v):
    """t's BFS order less the subtree of v: the trunk of a split and the
    root's half of a centroid split."""
    below = set(ref_subtree(t, v))
    return [u for u in t.bfs_order if u not in below]


def ref_partition(t, size_floor):
    return [tuple(verts) for _, verts in
            reversed(ref_greedy_cut(t, lambda _: size_floor))]


def ref_quarter_pieces(t, n0):
    base, m = n0 - t.n + 1, 1

    def threshold(total_cut):
        nonlocal m
        while m ** 4 < m + base + total_cut:
            m += 1
        return m

    ordered = reversed(ref_greedy_cut(t, threshold))
    return [tuple(verts) if i == 0 else (t.parent[root], *verts)
            for i, (root, verts) in enumerate(ordered)]


def ref_unrooted_aut(t, respect):
    """Unrooted |Aut| of a two-centroid tree from the reference halves."""
    c1, c2 = _centroids(t)
    r1 = _reroot(t, c1)
    codes = {}
    halves = [TreePiece(r1, ref_minus_subtree(r1, c2)).tree,
              TreePiece(r1, ref_subtree(r1, c2)).tree]
    (code1, a1), (code2, a2) = (_rooted_code_and_aut(h, respect, codes)
                                for h in halves)
    return a1 * a2 * (2 if not respect and code1 == code2 else 1)


def _caterpillar(n):
    # a spine, each spine vertex with two pendant leaves
    parent, dirs = [-1], [None]
    spine = 0
    for v in range(1, n, 3):
        parent += [spine, spine, spine]
        dirs += [DOWN, UP, DOWN if v % 2 else UP]
        spine = v
    return RootedOrientedTree(parent[:n], dirs[:n])


def test_pieces_match_reference_walks():
    rng = np.random.default_rng(31)
    trees = [random_tree(rng, int(rng.integers(1, 401)),
                         max_deg=int(rng.integers(3, 17))) for _ in range(40)]
    trees += [path_tree(5000, [DOWN if v % 3 else UP for v in range(4999)]),
              _caterpillar(3000)]
    for t in trees:
        floors = {1, 2, 3, t.n, int(rng.integers(1, t.n + 1))}
        for floor in sorted(f for f in floors if f <= t.n):
            got = [p.vertices for p in tree_partition(t, floor)]
            assert got == ref_partition(t, floor), (t.n, floor)
        for n0 in sorted({t.n, t.n + 1, 4 * t.n, 50 * t.n,
                          int(rng.integers(t.n, 10 * t.n + 1))}):
            if n0 >= max(t.n ** 4, 2):
                continue
            got = [p.vertices for p in quarter_decomposition(t, n0).pieces]
            assert got == ref_quarter_pieces(t, n0), (t.n, n0)
    for _ in range(40):
        t = random_tree(rng, int(rng.integers(1, 31)), max_deg=int(rng.integers(3, 7)))
        for threshold in range(1, t.n + 1):
            split = split_trunk(t, threshold)
            assert split.branch.vertices == tuple(ref_subtree(t, split.branch.root))
            if split.branch.root == t.root:
                assert split.trunk is None
            else:
                want = tuple(ref_minus_subtree(t, split.branch.root))
                assert split.trunk.vertices == want
    two_centroids = [path_tree(5000)]
    while len(two_centroids) < 40:
        t = random_tree(rng, int(rng.integers(2, 61)), max_deg=5)
        if len(_centroids(t)) == 2:
            two_centroids.append(t)
    for t in two_centroids:
        for respect in (True, False):
            assert automorphism_count(t, False, respect) == ref_unrooted_aut(t, respect)


def test_parent_pos_matches_dict_reference():
    rng = np.random.default_rng(32)
    trees = [random_tree(rng, int(rng.integers(1, 301)),
                         max_deg=int(rng.integers(3, 9))) for _ in range(40)]
    trees += [path_tree(1), path_tree(5000), _caterpillar(3000),
              _reroot(path_tree(5000), 2500)]
    for t in trees:
        assert t._parent_pos is None
        pos = {v: i for i, v in enumerate(t.bfs_order)}
        want = tuple(pos[t.parent[v]] if v != t.root else -1 for v in t.bfs_order)
        assert t.parent_pos == want
        assert t.parent_pos is t.parent_pos


def test_decompose_leaves_parent_pos_unbuilt():
    t = parse_tree_text(write_tree_text(random_tree(np.random.default_rng(33), 2000)))
    dec = quarter_decomposition(t, 2000)
    assert all(decomposition_invariant_report(t, dec).values())
    tree_partition(t, 10)
    split_trunk(t, 40)
    assert t._parent_pos is None


def test_bfs_constructor_rejects_other_orders():
    t = RootedOrientedTree([-1, 0, 0, 1], [None, DOWN, UP, DOWN])
    assert t.children == ((1, 2), (3,), (), ()) and t.depth == (0, 1, 1, 2)
    for parent, dirs in [([-1, 0], [None, "sideways"]), ([], [])]:
        with pytest.raises(InputError):
            RootedOrientedTree(parent, dirs)
    # a piece's tree is refused unless its vertices are listed in BFS order
    p = path_tree(4)
    bad = [
        (t, [0, 1, 3, 2]),  # local parents [-1, 0, 1, 0] decrease
        (p, [0, 2, 1]),     # local parents [-1, 2, 0]: a valid tree, not BFS
        (p, [1, 0]),        # root not first
        (p, [1, 3]),        # 3 hangs from 2, outside the piece
    ]
    for source, verts in bad:
        with pytest.raises(InputError):
            TreePiece(source, verts).tree


def bfs_reroot(t, new_root):
    """The adjacency-list reroot that _reroot replaced, kept as its
    reference: a BFS from new_root over both directions of every edge."""
    adj = [[] for _ in range(t.n)]
    for v in range(t.n):
        if v == t.root:
            continue
        p = t.parent[v]
        d = t.edge_dir[v]
        adj[p].append((v, d))
        adj[v].append((p, DOWN if d == UP else UP))
    parent = [-1] * t.n
    edge_dir = [None] * t.n
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


def _assert_same_tree(a, b):
    for slot in RootedOrientedTree.__slots__:
        assert getattr(a, slot) == getattr(b, slot), slot


def test_reroot_matches_bfs_reference():
    rng = np.random.default_rng(29)
    for _ in range(60):
        t = random_tree(rng, int(rng.integers(1, 301)), max_deg=int(rng.integers(3, 9)))
        for r in {t.root, *(int(v) for v in rng.integers(0, t.n, 4))}:
            _assert_same_tree(_reroot(t, r), bfs_reroot(t, r))
    for n in range(1, 9):
        for _ in range(6):
            t = random_tree(rng, n, max_deg=4)
            for r in range(n):
                _assert_same_tree(_reroot(t, r), bfs_reroot(t, r))
    # a 5000-level path, deeper than the interpreter's recursion limit
    p = path_tree(5000, [DOWN if v % 3 else UP for v in range(4999)])
    for r in (0, 1, 2500, 4999):
        _assert_same_tree(_reroot(p, r), bfs_reroot(p, r))


def test_automorphism_examples():
    # rooted complete binary tree of depth 2, uniform orientation: 2^3
    parent = [-1, 0, 0, 1, 1, 2, 2]
    dirs = [None] + [DOWN] * 6
    t = RootedOrientedTree(parent, dirs)
    assert automorphism_count(t, rooted=True) == 8
    # flipping one leaf edge breaks one swap
    dirs2 = [None] + [DOWN] * 5 + [UP]
    t2 = RootedOrientedTree(parent, dirs2)
    assert automorphism_count(t2, rooted=True) == 2
    assert automorphism_count(t2, rooted=True, respect_orientation=False) == 8
    # path: unrooted with uniform orientation has no flip (arcs reverse)
    p = path_tree(4)
    assert automorphism_count(p, rooted=False) == 1
    assert automorphism_count(p, rooted=False, respect_orientation=False) == 2


def test_automorphisms_match_brute_force():
    rng = np.random.default_rng(22)
    for _ in range(120):
        n = int(rng.integers(2, 8))
        t = random_tree(rng, n, max_deg=5)
        for rooted in (True, False):
            for respect in (True, False):
                assert automorphism_count(t, rooted, respect) == \
                    brute_automorphisms(t, rooted, respect), \
                    (t.parent, t.edge_dir, rooted, respect)


def test_automorphisms_of_deep_trees():
    # all deeper than the interpreter's recursion limit
    def counts(t):
        return [automorphism_count(t, rooted, respect)
                for rooted in (True, False) for respect in (True, False)]

    # two centroids whose halves have 2500-level codes to compare
    assert counts(path_tree(5000)) == [1, 1, 1, 2]
    # max_deg=3 leaves the root two paths of unequal length
    t = random_tree(np.random.default_rng(0), 10000, max_deg=3)
    assert max(t.depth) == 5027
    assert counts(t) == [1, 1, 1, 2]
    # two identical 3000-vertex paths under the root swap
    k = 3000
    parent = [-1, 0, 0] + [v - 2 for v in range(3, 2 * k + 1)]
    t = RootedOrientedTree(parent, [None] + [DOWN] * (2 * k))
    assert counts(t) == [2, 2, 2, 2]
    # a 4000-level spine ending in three leaves
    parent = [-1] + list(range(3999)) + [3999] * 3
    t = RootedOrientedTree(parent, [None] + [DOWN] * 4002)
    assert counts(t) == [6, 6, 6, 6]


def test_tree_text_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        t = random_tree(rng, int(rng.integers(1, 40)))
        back = parse_tree_text(write_tree_text(t))
        assert back.parent == t.parent and back.edge_dir == t.edge_dir


def test_tree_parse_errors():
    with pytest.raises(ParseError):
        parse_tree_text("")
    with pytest.raises(ParseError):
        parse_tree_text("tree 2 0\n1 0 sideways\n")
    with pytest.raises(ParseError):
        parse_tree_text("tree 2 5\n1 0 down\n")
    with pytest.raises(ParseError) as exc:
        parse_tree_text("tree 3 0\n1 0 down\n1 2 up\n")
    assert "two parents" in str(exc.value)


def test_tree_parse_checks_the_edge_count_before_sizing_its_lists():
    # two n-element lists for a million vertices: the short body is refused
    # first, and the refusal holds no more than the text's own lines
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_tree_text("tree 1000000 0\n0 1 down\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 2: expected 999999 edge lines, found 1"
    assert peak < 2**20


def test_tree_parse_errors_count_blank_lines():
    with pytest.raises(ParseError) as exc:
        parse_tree_text("tree 3 0\n\n\n1 0 down\n1 2 up\n")
    assert str(exc.value) == "line 5: vertex 1 has two parents"
