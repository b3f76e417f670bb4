"""Golden outputs at fixed seeds, pinned across versions of the library.

The normality values were recorded from the loop-based matching kernels
(per-arc ``normality``, per-column ``_redistribute_rows``) before they were
vectorised.  The image digests were recorded before ``_redistribute_rows``
stopped trading with rows already within ``tol / 4`` of unit sum, and hold
after it: that floor changes the last bits of rebalanced weights, not which
vertices a stage chooses.  The pipeline trace digests and the rebalanced
weights were recorded again with the floor.  A rewrite that claims
identical behaviour must reproduce all of them bit for bit.  The pipeline
digests are SHA-256 of ``trace_to_json``, so they pin every stage's images,
floats and notes; the image digests leave the floats out.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount.errors import InputError, ProcedureError
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
     "4aed86900520c9dde49196c655145e4725559174e1b312e97ae891e0fa381df6"),
    (40, 1, 1, 0,
     "ff77269ee1cdd1af7b7ae8fdbfad732ee34b6d3b349c83780529bfa2a4967494"),
    (60, 0, 0, 1,
     "e06f8b1bfc1e6e4c314e8046b9f91127e1d0b32001cb2128389340b2677e6cd6"),
    (60, 2, 1, 2,
     "2e1af0b14a711b6746dae40e416b04248b3f449da47c752af1d9cde919b7f282"),
    (100, 0, 0, 1,
     "997083c8b026226cd7d9c05f846d7850a2c759ff3ef515456ca2e267ea44c3db"),
    (100, 0, 1, 0,
     "4dbd083ccb0a8a7ba19a24afbfcf95db31f4feed0f799d14b046d032799e40b7"),
]


@pytest.mark.parametrize("n,host_seed,seed,resolved,digest", PIPELINE_CASES)
def test_pipeline_trace_digest(n, host_seed, seed, resolved, digest):
    g, t = _spanning_case(n, host_seed)
    trace = run_pipeline(g, t, seed=seed)
    assert trace.success and trace.spanning
    methods = [s.matching_method for s in trace.stages[1:]]
    assert methods.count("scaling") == resolved
    assert _sha(trace_to_json(trace).encode()) == digest


# SHA-256 of the mapping and each stage's non-float fields (and epsilon,
# which is exact): which vertices every stage chose, free of the last bits
# of the matching weights
IMAGE_DIGESTS = {
    (40, 0, 0): "042637eda57486b5eddbf7ff980c5ce67f21786034700ac771701515867fbb28",
    (40, 1, 1): "680166ba3d3b7c1c1f7b5b6db04a6c8117e1b0ad67888ef1ddfc8acee0dc7f9a",
    (60, 0, 0): "f240d478541c42616a25c9f735cb722bfddbb3cdc4c0df19505215c2059e3944",
    (60, 2, 1): "36381eb87224908f082c076116b78c074a8d1dd67d6e400bc0a4f1adf60d947b",
    (100, 0, 0): "0c04c7a970ae53c79022cd6c8e56acd21e27d642f852a40f19ba76f5c48cb906",
    (100, 0, 1): "10e8f5246be2648f6771b485410bdd50c1b77bebbfb4732a4200282ee1f48b3f",
}


@pytest.mark.parametrize("n,host_seed,seed", sorted(IMAGE_DIGESTS))
def test_pipeline_image_digest(n, host_seed, seed):
    g, t = _spanning_case(n, host_seed)
    trace = run_pipeline(g, t, seed=seed)
    payload = [sorted(trace.mapping.items()), [
        (s.index, s.piece_size, s.host_size, s.matching_method, s.retries,
         s.root_image, list(s.images), s.epsilon)
        for s in trace.stages
    ]]
    digest = _sha(json.dumps(payload).encode())
    assert digest == IMAGE_DIGESTS[n, host_seed, seed]


def _embed_pool_case(case_id: int):
    # drawn as the benchmark's embed workload draws pool case case_id
    rng = np.random.default_rng([0xE3BED, case_id])
    g = random_dense_digraph(rng, 100, 60)
    return g, random_tree(rng, 100, max_deg=4), case_id


def _fixed_failing_case():
    # the benchmark's fixed failing embed case: the rebalance gives up and
    # the re-solve of the shrunken host hits its iteration cap
    g = random_dense_digraph(np.random.default_rng(120), 120, 72)
    t = random_tree(np.random.default_rng(1002), 120, max_deg=8)
    return g, t, 2


# (case, message, diagnostics but the trace, SHA-256 of the partial
# trace's JSON, type of __cause__), recorded before run_pipeline's error
# handling was folded into one path
FAILED_CASES = [
    ("fixed-120", "scaling did not converge in 1000 iterations",
     {"iterations": 1000, "residual": 0.0008571353590960396, "stage": 26},
     "2552d0c80def41c2b252bbe7724432cdc4a0f292e6374afceced4841dadd14b6",
     ProcedureError),
    ("pool-51", "vertex 0 has no out- or in-neighbors", {"stage": 27},
     "df110c85492df8a226d66de0568e6bc306c2651641d86f9e04cc7041dbb7f8ff",
     InputError),
    ("pool-64", "no completion embedding for the reserved branch", {},
     "1fea859d620a1a99c472c41a457782f6cdd55c6b70d2d22c25f05b73ec5f416c",
     type(None)),
]


@pytest.mark.parametrize("case,message,rest,digest,cause", FAILED_CASES)
def test_failed_pipeline_outcome(case, message, rest, digest, cause):
    if case == "fixed-120":
        g, t, seed = _fixed_failing_case()
    else:
        g, t, seed = _embed_pool_case(int(case.split("-")[1]))
    with pytest.raises(ProcedureError) as info:
        run_pipeline(g, t, seed=seed)
    diag = dict(info.value.diagnostics)
    trace = diag.pop("trace")
    assert str(info.value) == message
    assert diag == rest
    assert not trace.success
    assert _sha(trace_to_json(trace).encode()) == digest
    assert type(info.value.__cause__) is cause
    if "stage" in rest:
        # every stage before the failed one is recorded, and the mapping
        # holds only their images
        assert trace.spanning
        assert [s.index for s in trace.stages] == list(range(rest["stage"]))
        images = {v for s in trace.stages for v in s.images}
        assert set(trace.mapping.values()) <= images


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
        "b34662a6785c0a15fdd859e5c7c27874f81296e46dbfb390fc9cd5df1b0a33bc"
    )
    assert res.report.passes == 2
    assert res.report.entropy == 152.27166213167385
    assert normality(res.matching).b_min == 2.0085368692403875
    assert normality(res.matching).attaining == ((3, 5),)
    plain = rebalance_after_removal(x, removed)
    assert _sha(plain.matching.weights.tobytes()) == (
        "7a53ef88f8e0e92000615d0978b188b805f72fbb0ddf07a3f08dcaf4280e282b"
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
