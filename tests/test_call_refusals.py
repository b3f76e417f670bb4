"""Refusals of library calls on bad arguments, with their exact messages."""

from __future__ import annotations

import re

import pytest

from treecount.counting import count_copies_brute
from treecount.errors import InputError, ProcedureError
from treecount.graphs import complete_digraph
from treecount.matching import max_entropy_matching, rebalance_after_removal
from treecount.pipeline import run_pipeline
from treecount.randtree import sample_tree, sample_trees_batch
from treecount.trees import path_tree, split_trunk

K4 = complete_digraph(4)
X4 = max_entropy_matching(K4)[0]

CALL_REFUSALS = [
    (lambda: rebalance_after_removal(X4, [4]), "unknown vertex id 4"),
    (lambda: rebalance_after_removal(X4, [0, -1]), "unknown vertex id -1"),
    (
        lambda: rebalance_after_removal(X4, [0], attach_out=[1]),
        "attach_out and attach_in must be given together",
    ),
    (
        lambda: rebalance_after_removal(X4, [0], attach_in=[1]),
        "attach_out and attach_in must be given together",
    ),
    (lambda: rebalance_after_removal(X4, [0, 1, 2, 3]), "cannot remove every vertex"),
    (
        lambda: rebalance_after_removal(X4, [0], attach_out=[0, 1], attach_in=[2]),
        "attachment neighborhoods must survive the removal",
    ),
    (
        lambda: rebalance_after_removal(X4, [0], attach_out=[1], attach_in=[0]),
        "attachment neighborhoods must survive the removal",
    ),
    (
        lambda: rebalance_after_removal(X4, [0], attach_out=[], attach_in=[1]),
        "attachment neighborhoods must be nonempty",
    ),
    (
        lambda: sample_tree(complete_digraph(5), X4, path_tree(2), 0, 0),
        "matching host differs from the given graph",
    ),
    (
        lambda: sample_trees_batch(complete_digraph(3), X4, path_tree(2), 10, 0),
        "matching host differs from the given graph",
    ),
    (lambda: sample_tree(K4, X4, path_tree(2), 4, 0), "start vertex 4 out of range"),
    (
        lambda: sample_trees_batch(K4, X4, path_tree(2), 10, 0, start=-1),
        "start vertex -1 out of range",
    ),
    (lambda: count_copies_brute(K4, path_tree(3), root_image=4), "root image 4 out of range"),
    (lambda: count_copies_brute(K4, path_tree(3), root_image=-1), "root image -1 out of range"),
    (lambda: split_trunk(path_tree(5), 0), "threshold must be in 1..5"),
    (lambda: split_trunk(path_tree(5), 6), "threshold must be in 1..5"),
]


@pytest.mark.parametrize("call, message", CALL_REFUSALS)
def test_call_refusal(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_pipeline_with_no_retries_fails_stage_0():
    with pytest.raises(ProcedureError) as info:
        run_pipeline(complete_digraph(6), path_tree(4), retry_budget=0)
    exc = info.value
    assert str(exc) == "retry budget exhausted at stage 0"
    assert set(exc.diagnostics) == {"retries", "stage", "trace"}
    assert exc.diagnostics["retries"] == 0
    assert exc.diagnostics["stage"] == 0
    trace = exc.diagnostics["trace"]
    assert not trace.success
    assert trace.stages == ()
    assert trace.mapping == {}
