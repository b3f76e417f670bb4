"""Golden outputs at fixed seeds, pinned across versions of the library.

Every expected value below was recorded from the loop-based matching
kernels (per-arc ``normality``, per-column ``_redistribute_rows``) before
they were vectorised; a rewrite that claims identical behaviour must
reproduce them bit for bit.  The pipeline digests are SHA-256 of
``trace_to_json``, so they pin every stage's images, floats and notes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount.errors import ProcedureError
from treecount.graphs import complete_digraph
from treecount.matching import (
    PerfectFractionalMatching,
    max_entropy_matching,
    normality,
    rebalance_after_removal,
)
from treecount.pipeline import run_pipeline, trace_to_json


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spanning_case(n: int, host_seed: int):
    g = random_dense_digraph(
        np.random.default_rng(1000 * n + host_seed), n, int(0.6 * n)
    )
    t = random_tree(np.random.default_rng(2000 * n + host_seed), n, max_deg=6)
    return g, t


# (n, host_seed, pipeline seed, re-solved stages after stage 0, digest)
PIPELINE_CASES = [
    (40, 0, 0, 1,
     "c356d515b58989d5eefee7762e40d7e7754771c5eafd3a69fb4714279de96ff6"),
    (40, 1, 1, 0,
     "71eb57fccee3cc04edb98c5fca1edbbe17b797ca508feb68860b8ad787618ac8"),
    (60, 0, 0, 1,
     "fb74fba47cb42c20dd8247551139d9c95f3d3fd1ddee24e2c5e5f9783edc1c34"),
    (60, 2, 1, 2,
     "fa0d63b74fa4559b139f0ce3ef5237f6559c446c58f29ff3a942d5ecce404e3c"),
    (100, 0, 0, 1,
     "b86067d491091ef402568ed1be5482777a248d26f27e5f9cb7e5e448edeffaf4"),
    (100, 0, 1, 0,
     "9b63dd54494d16196a1f0c6c2b607759ccb849960e480bf11711712ef8925599"),
]


@pytest.mark.parametrize("n,host_seed,seed,resolved,digest", PIPELINE_CASES)
def test_pipeline_trace_digest(n, host_seed, seed, resolved, digest):
    g, t = _spanning_case(n, host_seed)
    trace = run_pipeline(g, t, seed=seed)
    assert trace.success and trace.spanning
    methods = [s.matching_method for s in trace.stages[1:]]
    assert methods.count("scaling") == resolved
    assert _sha(trace_to_json(trace).encode()) == digest


def test_fixed_failing_case_message():
    # the benchmark's fixed failing embed case: the rebalance gives up and
    # the re-solve of the shrunken host hits its iteration cap
    g = random_dense_digraph(np.random.default_rng(120), 120, 72)
    t = random_tree(np.random.default_rng(1002), 120, max_deg=8)
    with pytest.raises(ProcedureError) as info:
        run_pipeline(g, t, seed=2)
    assert str(info.value) == "scaling did not converge in 1000 iterations"
    assert info.value.diagnostics["iterations"] == 1000
    assert info.value.diagnostics["residual"] == 0.0008571353590960396


def _rebalance_inputs():
    # the inputs of test_matching.test_rebalance_random_dense
    rng = np.random.default_rng(16)
    g = random_dense_digraph(rng, 40, min_deg=26)
    x, _ = max_entropy_matching(g)
    removed = sorted(rng.choice(40, size=7, replace=False).tolist())
    survivors = [v for v in range(40) if v not in removed]
    a_out = [v for v in g.out_adj[removed[0]] if v in survivors]
    a_in = [v for v in g.in_adj[removed[0]] if v in survivors]
    return x, removed, a_out, a_in


def test_rebalance_weights_bitwise():
    x, removed, a_out, a_in = _rebalance_inputs()
    assert _sha(x.weights.tobytes()) == (
        "91745d39e205ae4e46a930252ff9f6c1788a0989ae1dc2bd2e3958f936e88d9a"
    )
    res = rebalance_after_removal(x, removed, attach_out=a_out, attach_in=a_in)
    assert _sha(res.matching.weights.tobytes()) == (
        "80d4672b1a5b6de8137b4af7e907d18904f78426327ed466048aadb1cd07928c"
    )
    assert res.report.passes == 2
    assert res.report.entropy == 152.27166213167385
    assert normality(res.matching).b_min == 2.0085368692403858
    assert normality(res.matching).attaining == ((3, 5),)
    plain = rebalance_after_removal(x, removed)
    assert _sha(plain.matching.weights.tobytes()) == (
        "cc8a29544f99b071b97197d3041cf45cc9a1e6dd1ec874b336c4755c88c43d18"
    )
    assert plain.report.passes == 2
    assert plain.report.entropy == 146.24269142413436
    assert not plain.report.meets_target


def test_normality_gap_free_reports():
    x, _ = max_entropy_matching(complete_digraph(6))
    rep = normality(x)
    assert rep.b_min == 1.2000000000000002
    assert rep.attaining == tuple(sorted(x.host.edges))
    assert rep.support_gaps == ()
    g = random_dense_digraph(np.random.default_rng(16), 12, min_deg=8)
    y, _ = max_entropy_matching(g)
    rep = normality(y)
    assert rep.b_min == 1.5932065803500377
    assert rep.attaining == ((0, 3),)
    assert rep.support_gaps == ()


def test_normality_report_with_gaps():
    g = random_dense_digraph(np.random.default_rng(16), 12, min_deg=8)
    y, _ = max_entropy_matching(g)
    w = np.array(y.weights)
    # empty arc (0, 1) by a shift around the 4-cycle 0->1, 2->3
    alpha = w[0, 1]
    w[0, 1] -= alpha
    w[2, 3] -= alpha
    w[2, 1] += alpha
    w[0, 3] += alpha
    rep = normality(PerfectFractionalMatching(g, w))
    assert rep.b_min == float("inf")
    assert rep.attaining == ((0, 1),)
    assert rep.support_gaps == ((0, 1),)
