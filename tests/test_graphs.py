from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.errors import InputError, ParseError
from treecount.graphs import (
    Digraph,
    complete_digraph,
    directed_cycle,
    epsilon_of,
    induced_subgraph,
    min_semidegree,
    parse_graph_text,
    write_graph_text,
)


def test_digraph_basic():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3
    assert g.mask[0].sum() == 1 and g.mask[:, 0].sum() == 1
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)


def test_digraph_rejects_loops_and_range():
    for wrap in (list, iter):
        with pytest.raises(InputError, match=r"^self-loop at vertex 1$"):
            Digraph(3, wrap([(0, 1), (1, 1), (2, 2), (0, 5)]))
        with pytest.raises(InputError, match=r"^arc \(0,5\) out of range for n=3$"):
            Digraph(3, wrap([(0, 1), (0, 5), (1, 1), (-1, 0)]))
        with pytest.raises(InputError, match=r"^arc \(-1,0\) out of range for n=3$"):
            Digraph(3, wrap([(0, 1), (-1, 0), (0, 5)]))
    with pytest.raises(InputError, match="nonnegative"):
        Digraph(-1, [])
    g = Digraph(3, [(0, 1), (1, 2), (0, 1), (1, 2), (0, 1)])
    assert g.m == 2 and g == Digraph(3, [(0, 1), (1, 2)])
    e = Digraph(0, [])
    assert e.n == e.m == 0 and e.edges == frozenset() and e.out_adj == ()


def test_graph_degrees():
    k5 = "graph 5 10\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))
    g = parse_graph_text(k5)
    assert g.m == 20 and g == complete_digraph(5)
    assert (g.mask.sum(axis=1) == 4).all() and (g.mask.sum(axis=0) == 4).all()


def test_min_semidegree_and_epsilon():
    g = complete_digraph(6)
    assert min_semidegree(g) == 5
    assert epsilon_of(g) == Fraction(5, 6) - Fraction(1, 2)
    c = directed_cycle(5)
    assert min_semidegree(c) == 1
    assert epsilon_of(c) < 0


def test_double_orient():
    # a graph file is read as its double orientation: both arcs per edge
    g = parse_graph_text("graph 4 3\n0 1\n1 2\n3 0\n")
    assert g == Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (3, 0), (0, 3)])
    assert np.array_equal(g.mask, g.mask.T)


def test_remove_and_induce():
    g = complete_digraph(5)
    h2 = induced_subgraph(g, [4, 1])
    assert h2.n == 2 and h2.has_arc(0, 1) and h2.has_arc(1, 0)
    with pytest.raises(InputError):
        induced_subgraph(g, [1, 1])


def test_parse_roundtrip():
    g = Digraph(4, [(0, 1), (1, 2), (3, 0)])
    text = write_graph_text(g)
    assert parse_graph_text(text) == g
    # a graph file is written back as its 2m arcs and reads back equal
    u = parse_graph_text("graph 4 3\n0 1\n2 1\n3 0\n")
    text = write_graph_text(u)
    assert text.startswith("digraph 4 6\n")
    assert parse_graph_text(text) == u


def test_write_graph_text_bytes():
    # arcs ascending, a graph text's edges written as both of their arcs
    g = parse_graph_text("graph 4 3\n3 0\n2 1\n0 1\n")
    assert write_graph_text(g) == "digraph 4 6\n0 1\n0 3\n1 0\n1 2\n2 1\n3 0\n"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph_text("digraph 2 1\n0 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_graph_text("widget 2 1\n0 1\n")
    with pytest.raises(ParseError) as exc:
        parse_graph_text("digraph 3 2\n0 1\n0 1\n")
    assert "duplicate" in str(exc.value)


def test_parse_checks_the_edge_count_before_sizing_the_mask():
    # a million-vertex mask would take 931 GiB: the short body is refused first
    with pytest.raises(ParseError, match=r"^line 1: expected 1 edge lines, found 0$"):
        parse_graph_text("digraph 1000000 1\n")


def test_parse_errors_count_blank_lines():
    with pytest.raises(ParseError) as exc:
        parse_graph_text("digraph 3 2\n0 1\n\n\n0 1\n")
    assert str(exc.value) == "line 5: duplicate edge 0 1"


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10 ** 6))
def test_roundtrip_random(n, seed):
    rng = np.random.default_rng(seed)
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.4
    }
    g = Digraph(n, arcs)
    assert parse_graph_text(write_graph_text(g)) == g


def _arc_list_views(n, arcs):
    """edges, out_adj and in_adj built straight from an arc list."""
    out_lists = [[] for _ in range(n)]
    in_lists = [[] for _ in range(n)]
    for u, v in set(arcs):
        out_lists[u].append(v)
        in_lists[v].append(u)
    return (
        frozenset(arcs),
        tuple(tuple(sorted(a)) for a in out_lists),
        tuple(tuple(sorted(a)) for a in in_lists),
    )


def _masks():
    yield np.zeros((0, 0), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    rng = np.random.default_rng(7)
    for n, p in ((3, 0.9), (5, 0.3), (12, 0.5), (30, 0.7), (30, 0.05)):
        m = rng.random((n, n)) < p
        np.fill_diagonal(m, False)
        m[n // 2] = False       # a vertex with no out-arcs
        m[:, n - 1] = False     # and one with no in-arcs
        yield m


@pytest.mark.parametrize(
    "mask", list(_masks()), ids=lambda m: f"n{len(m)}-m{int(m.sum())}"
)
def test_from_mask_equals_arc_list_build(mask):
    arcs = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    g = Digraph(len(mask), arcs)
    h = Digraph._from_mask(mask.copy())
    assert h.n == g.n and h.edges == g.edges
    assert h.out_adj == g.out_adj and h.in_adj == g.in_adj
    assert all(type(v) is int for adj in h.out_adj + h.in_adj for v in adj)
    assert h == g and hash(h) == hash(g)
    # h takes the array over as its read-only mask
    assert np.array_equal(h.mask, mask)
    assert g.mask is g.mask
    with pytest.raises(ValueError):
        g.mask[0:1, 0:1] = True
    with pytest.raises(ValueError):
        h.mask[0:1, 0:1] = True
    # the views, also of hosts sliced from the mask, match an arc-list build
    n = len(mask)
    assert (g.edges, g.out_adj, g.in_adj) == _arc_list_views(n, arcs)
    order = np.random.default_rng(n).permutation(n).tolist()
    keep = order[: (2 * n + 2) // 3]      # unsorted
    survivors = sorted(keep)
    for kept in (keep, survivors):
        sub = induced_subgraph(g, kept)
        relabel = {old: new for new, old in enumerate(kept)}
        sub_arcs = [
            (relabel[u], relabel[v])
            for u, v in arcs
            if u in relabel and v in relabel
        ]
        assert sub.n == len(kept) and sub.m == len(sub_arcs)
        assert (sub.edges, sub.out_adj, sub.in_adj) == _arc_list_views(
            len(kept), sub_arcs
        )
        assert not sub.mask.flags.writeable


def test_copies_rebuild_a_read_only_mask():
    g = complete_digraph(4)
    mask = g.mask
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert h == g and hash(h) == hash(g)
        assert h.out_adj == g.out_adj and h.in_adj == g.in_adj
        with pytest.raises(ValueError):
            h.mask[0, 1] = False
        assert np.array_equal(h.mask, mask)
