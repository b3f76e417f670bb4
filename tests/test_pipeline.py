from __future__ import annotations

import time

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount import pipeline
from treecount.errors import InputError, ProcedureError
from treecount.counting import _DEFAULT_BUDGET, _visit_bound
from treecount.graphs import Digraph, complete_digraph, directed_cycle
from treecount.pipeline import run_pipeline, trace_to_json, validate_embedding
from treecount.randtree import sample_tree
from treecount.trees import DOWN, UP, RootedOrientedTree, path_tree, star_tree


def test_single_vertex_trivial():
    t = RootedOrientedTree([-1], [None])
    trace = run_pipeline(complete_digraph(5), t, seed=0)
    assert trace.success and trace.stages == ()
    assert validate_embedding(complete_digraph(5), t, trace.mapping)


def test_low_semidegree_rejected():
    with pytest.raises(ProcedureError):
        run_pipeline(directed_cycle(6), path_tree(3), seed=0)


def test_oversized_tree_rejected():
    with pytest.raises(InputError):
        run_pipeline(complete_digraph(3), path_tree(4), seed=0)


def test_spanning_k10():
    rng = np.random.default_rng(50)
    g = complete_digraph(10)
    t = random_tree(rng, 10, max_deg=4)
    trace = run_pipeline(g, t, seed=3)
    assert trace.success and trace.spanning
    assert validate_embedding(g, t, trace.mapping)


def test_nonspanning_embedding():
    rng = np.random.default_rng(51)
    g = random_dense_digraph(rng, 24, min_deg=15)
    t = random_tree(rng, 12, max_deg=3)
    trace = run_pipeline(g, t, seed=4)
    assert trace.success and not trace.spanning
    assert validate_embedding(g, t, trace.mapping)
    assert all(s.retries <= 100 for s in trace.stages)


def test_intermediate_matchings_reported():
    rng = np.random.default_rng(52)
    g = random_dense_digraph(rng, 20, min_deg=13)
    t = random_tree(rng, 20, max_deg=3)
    trace = run_pipeline(g, t, seed=5)
    assert trace.success
    for s in trace.stages:
        assert s.b_normality >= 1.0
        assert s.entropy >= 0.0
        assert s.matching_method in ("scaling", "rebalance")


def test_trace_json_deterministic():
    rng = np.random.default_rng(53)
    g = random_dense_digraph(rng, 16, min_deg=10)
    t = random_tree(np.random.default_rng(99), 16, max_deg=3)
    a = trace_to_json(run_pipeline(g, t, seed=8))
    b = trace_to_json(run_pipeline(g, t, seed=8))
    assert a == b
    c = trace_to_json(run_pipeline(g, t, seed=9))
    assert isinstance(c, str)


def test_validate_embedding_rejects_bad_maps():
    g = complete_digraph(4)
    t = path_tree(3)
    assert not validate_embedding(g, t, {0: 0, 1: 1})          # missing vertex
    assert not validate_embedding(g, t, {0: 0, 1: 0, 2: 1})    # not injective
    assert validate_embedding(g, t, {0: 0, 1: 1, 2: 2})
    c = directed_cycle(4)
    assert not validate_embedding(c, path_tree(3, dirs=["up", "up"]),
                                  {0: 0, 1: 1, 2: 2})


def test_resolve_of_host_with_isolated_vertex_is_procedure_error():
    # embed pool id 51: the rebuilt host has a vertex with no neighbours
    rng = np.random.default_rng([0xE3BED, 51])
    g = random_dense_digraph(rng, 100, 60)
    t = random_tree(rng, 100, max_deg=4)
    with pytest.raises(ProcedureError) as info:
        run_pipeline(g, t, seed=51)
    assert str(info.value) == "vertex 0 has no out- or in-neighbors"
    assert isinstance(info.value.__cause__, InputError)
    diag = info.value.diagnostics
    trace = diag["trace"]
    assert not trace.success
    assert len(trace.stages) == diag["stage"] > 0


def test_sampler_failure_carries_stage_and_trace(monkeypatch):
    # a ProcedureError from the sampler at stage 2 is raised again with
    # the stage and the two stages already placed
    placed = []

    def sample(*args):
        if len(placed) == 2:
            raise ProcedureError("sampler failed", reason="test")
        draw = sample_tree(*args)
        if draw.self_avoiding:
            placed.append(draw)
        return draw

    monkeypatch.setattr(pipeline, "sample_tree", sample)
    with pytest.raises(ProcedureError) as info:
        run_pipeline(complete_digraph(40), path_tree(40), seed=0)
    assert str(info.value) == "sampler failed"
    diag = info.value.diagnostics
    assert diag["stage"] == 2 and diag["reason"] == "test"
    assert not diag["trace"].success
    assert [s.index for s in diag["trace"].stages] == [0, 1]
    assert str(info.value.__cause__) == "sampler failed"


def test_direct_placement_searches_each_root_once(monkeypatch):
    # a spanning star splits degenerately, so it is placed directly: in
    # K_8 it places.  K_8 less a perfect matching has every degree the
    # mixed star needs, but no vertex is adjacent to all the others, so
    # every root is searched and refused
    seen = []

    def recording(g, t, roots, *args, **kwargs):
        roots = list(roots)
        seen.append(roots)
        return real(g, t, roots, *args, **kwargs)

    real = pipeline._embeddings
    monkeypatch.setattr(pipeline, "_embeddings", recording)
    trace = run_pipeline(complete_digraph(8), star_tree(7), seed=0)
    assert "degenerate split: direct placement" in trace.notes
    g = Digraph(8, [(u, v) for u in range(8) for v in range(8) if u // 2 != v // 2])
    with pytest.raises(ProcedureError, match="^no embedding exists$"):
        run_pipeline(g, star_tree(7, [DOWN] * 4 + [UP] * 3), seed=0)
    assert [sorted(roots) for roots in seen] == [list(range(8))] * 2


def test_near_spanning_tree_is_noted():
    # 10 of 11 host vertices: above 90%, but not spanning, so no reserved
    # branch is split off
    g, t = complete_digraph(11), path_tree(10)
    trace = run_pipeline(g, t, seed=0)
    assert not trace.spanning and trace.trunk_threshold is None
    assert (
        "tree covers more than 90% of the host without being spanning; "
        "no absorption step is taken"
    ) in trace.notes
    assert validate_embedding(g, t, trace.mapping)


def test_direct_placement_refuses_a_star_without_searching():
    # a spanning star needs a centre of out-degree 12; in this 13-vertex
    # host with semidegree 7, vertex 0 has the largest, 11, so the degree
    # check refuses it, where the search would run for minutes
    arcs = {(u, (u + d) % 13) for u in range(13) for d in range(1, 8)}
    g = Digraph(13, arcs | {(0, v) for v in range(1, 12)})
    t = star_tree(12)
    assert _visit_bound(g, t, list(range(13))) > _DEFAULT_BUDGET
    start = time.perf_counter()
    with pytest.raises(ProcedureError, match="^no embedding exists$") as info:
        run_pipeline(g, t, seed=0)
    assert time.perf_counter() - start < 1.0
    assert info.value.diagnostics == {"stage": "direct"}


def test_direct_placement_refuses_a_star_by_subset_dp():
    # K_13 less a Hamilton cycle has every degree a star of 6 out- and 6
    # in-leaves needs, but no vertex is adjacent to all the others.  The
    # search's visit bound is above the budget, so the subset DP decides
    g = Digraph(13, [(u, v) for u in range(13) for v in range(13)
                     if (v - u) % 13 not in (0, 1, 12)])
    t = star_tree(12, [DOWN] * 6 + [UP] * 6)
    assert _visit_bound(g, t, list(range(13))) > _DEFAULT_BUDGET
    start = time.perf_counter()
    with pytest.raises(ProcedureError, match="^no embedding exists$") as info:
        run_pipeline(g, t, seed=0)
    assert time.perf_counter() - start < 1.0
    assert info.value.diagnostics == {"stage": "direct"}


def test_direct_placement_refuses_a_star_by_degree():
    # the star's centre needs out-degree 59, and this host's largest is 43;
    # without the degree check the search ran into its budget after 64 s
    g = random_dense_digraph(np.random.default_rng([7, 60]), 60, 36)
    assert g.mask.sum(axis=1).max() == 43
    start = time.perf_counter()
    with pytest.raises(ProcedureError, match="^no embedding exists$") as info:
        run_pipeline(g, star_tree(59), seed=0)
    assert time.perf_counter() - start < 1.0
    assert info.value.diagnostics == {"stage": "direct"}


def test_first_copy_degree_check(monkeypatch):
    # vertex 0 of K_5 less the arc 0 -> 4 has out-degree 3, and a star's
    # centre needs 4: refused, without a search, when 0 is the only root
    # image allowed, and placed at 1 when 1 is allowed too
    calls = []
    real = pipeline._embeddings
    monkeypatch.setattr(
        pipeline, "_embeddings", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    g = Digraph(5, [(u, v) for u in range(5) for v in range(5)
                    if u != v and (u, v) != (0, 4)])
    with pytest.raises(ProcedureError, match="^none$") as info:
        pipeline._first_copy(g, star_tree(4), [0], "none", note=1)
    assert info.value.diagnostics == {"note": 1} and calls == []
    assert pipeline._first_copy(g, star_tree(4), [0, 1], "none")[0] == 1
    # below the root any host vertex may be the image: vertex 1 needs
    # out-degree 3, and every vertex of this host has 2
    g = Digraph(5, [(u, (u + d) % 5) for u in range(5) for d in (1, 2)])
    t = RootedOrientedTree([-1, 0, 1, 1, 1], [None] + [DOWN] * 4)
    with pytest.raises(ProcedureError, match="^none$"):
        pipeline._first_copy(g, t, list(range(5)), "none")
    assert len(calls) == 1


def test_direct_placement_budget_refusal_carries_visits(monkeypatch):
    # the star has copies in K_8, but a budget of 3 visits ends the search
    # before the first
    monkeypatch.setattr(pipeline, "_DEFAULT_BUDGET", 3)
    with pytest.raises(ProcedureError) as info:
        run_pipeline(complete_digraph(8), star_tree(7), seed=0)
    assert str(info.value) == "backtracking budget exceeded; partial count invalid"
    assert info.value.diagnostics == {"visits": 4, "stage": "direct"}


def test_direct_placement_of_deep_path():
    # threshold = n makes the split degenerate, so the whole path is
    # placed by one backtracking search over 1100 levels
    g, t = complete_digraph(1100), path_tree(1100)
    trace = run_pipeline(g, t, trunk_threshold=1100)
    assert trace.success and trace.stages == ()
    assert "degenerate split: direct placement" in trace.notes
    assert validate_embedding(g, t, trace.mapping)
