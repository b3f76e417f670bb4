"""Refusals of library calls on bad arguments, with their exact messages."""

from __future__ import annotations

import re

import numpy as np
import pytest

from treecount.counting import count_copies_brute, estimate_copies
from treecount.entropy import (
    DiscreteDistribution,
    EventMask,
    conditional_entropy,
    entropy_gap_bound,
)
from treecount.errors import InputError, ProcedureError
from treecount.graphs import (
    complete_digraph,
    directed_cycle,
    epsilon_of,
    induced_subgraph,
)
from treecount.matching import (
    PerfectFractionalMatching,
    fourcycle_shift,
    max_entropy_matching,
    rebalance_after_removal,
    vertex_entropy,
)
from treecount.pipeline import run_pipeline
from treecount.randtree import mixing_check, sample_tree, sample_trees_batch
from treecount.trees import DOWN, path_tree, split_trunk

K4 = complete_digraph(4)
X4 = max_entropy_matching(K4)[0]
# x[v, v+1] = 1/2 and x[v, v+2] = x[v, v+3] = 1/4, indices mod 4
C4 = PerfectFractionalMatching(
    K4, [[0, .5, .25, .25], [.25, 0, .5, .25], [.25, .25, 0, .5], [.5, .25, .25, 0]]
)
CYCLE4 = directed_cycle(4)
P4 = PerfectFractionalMatching(CYCLE4, CYCLE4.mask)
D4 = DiscreteDistribution.of([0.25] * 4)

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
    (lambda: estimate_copies(K4, X4, path_tree(2), 0, 0), "need at least one sample"),
    (
        lambda: estimate_copies(complete_digraph(5), X4, path_tree(2), 10, 0),
        "matching host differs from the given graph",
    ),
    (lambda: count_copies_brute(K4, path_tree(3), root_image=4), "root image 4 out of range"),
    (lambda: count_copies_brute(K4, path_tree(3), root_image=-1), "root image -1 out of range"),
    (lambda: split_trunk(path_tree(5), 0), "threshold must be in 1..5"),
    (lambda: split_trunk(path_tree(5), 6), "threshold must be in 1..5"),
    (
        lambda: run_pipeline(complete_digraph(6), path_tree(6), trunk_threshold=0),
        "threshold must be in 1..6",
    ),
    (
        lambda: PerfectFractionalMatching(K4, np.zeros((3, 3))),
        "weight matrix must be 4x4, got (3, 3)",
    ),
    (lambda: PerfectFractionalMatching(K4, -X4.weights), "negative arc weight"),
    (
        lambda: PerfectFractionalMatching(K4, X4.weights + np.eye(4)),
        "nonzero weight on a non-arc",
    ),
    (lambda: vertex_entropy(X4, 5, "out"), "unknown vertex id 5"),
    (lambda: vertex_entropy(X4, 0, "up"), "side must be 'out' or 'in', got 'up'"),
    (lambda: max_entropy_matching(complete_digraph(0)), "empty graph has no matching"),
    (lambda: fourcycle_shift(P4, (0, 1, 2, 3), 0.0), "arc (2,1) not in host: not a 4-cycle"),
    (
        lambda: fourcycle_shift(C4, (0, 2, 1, 3), 0.0),
        "product inequality fails before shift: x[0,2]*x[1,3] = 6.250000e-02 < "
        "x[1,2]*x[0,3] = 1.250000e-01",
    ),
    (
        lambda: fourcycle_shift(C4, (1, 2, 0, 3), 0.3),
        "alpha = 0.3 exceeds available weight min(0.5, 0.25)",
    ),
    (lambda: mixing_check(K4, X4, [DOWN], 0, t_min=3, t_max=2), "need 1 <= t_min <= t_max"),
    (lambda: mixing_check(K4, X4, [DOWN], 0, t_min=0), "need 1 <= t_min <= t_max"),
    (
        lambda: mixing_check(K4, X4, [DOWN, "sideways"], 0, t_min=1),
        "pattern entries must be 'up' or 'down', got 'sideways'",
    ),
    (lambda: DiscreteDistribution.of([]), "distribution must be a nonempty 1-d array"),
    (
        lambda: conditional_entropy(D4, EventMask.of_indices([0], 3)),
        "event mask size does not match distribution",
    ),
    (
        lambda: entropy_gap_bound(
            DiscreteDistribution.of([0.01, 0.99]), EventMask.of_indices([1], 2), A=16
        ),
        "some outcome probability is below 1/A",
    ),
    (lambda: induced_subgraph(K4, [0, 7]), "unknown vertex id 7"),
    (lambda: epsilon_of(complete_digraph(0)), "epsilon undefined for the empty graph"),
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
