"""Golden sample streams at fixed seeds, pinned across versions of the sampler.

Every expected digest below was recorded from the sampler that drew each
batch as k x n CDF blocks in chunks of 200,000 samples, and each single
draw by its own cumulative sum.  A rewrite that claims to draw the same
random embeddings must reproduce them bit for bit.  Batch digests are
SHA-256 of ``batch_to_csv``, so they pin images, log-probabilities and
self-avoidance flags; the single-draw digest pins images and flags.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount.graphs import complete_digraph
from treecount.matching import max_entropy_matching
from treecount.randtree import batch_to_csv, sample_tree, sample_trees_batch
from treecount.rng import stream
from treecount.trees import DOWN, UP


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _host(n: int):
    if n == 12:
        g = complete_digraph(12)
    else:
        g = random_dense_digraph(np.random.default_rng(n), n, int(0.6 * n))
    x, _ = max_entropy_matching(g)
    return g, x


def _tree(size: int):
    t = random_tree(np.random.default_rng(50 + size), size, max_deg=4)
    assert {DOWN, UP} <= set(t.edge_dir[1:])
    return t


# (host size, tree size, samples, seed, worker, start, digest)
BATCH_CASES = [
    (12, 5, 1, 3, 0, None,
     "b86c9277adeecd2be66253ae3fe9d5a73c03b292ca1c3341becdbaf7034247b5"),
    (12, 10, 777, 4, 2, 3,
     "033e47978f82bfa28c0c45a2910a628b5d9daa8cf41289811025ba6a723beb75"),
    (100, 30, 777, 5, 2, 7,
     "ecbd9573ef6d73fa4d5d66e21b5329359f17e1181386f5e6b92e2daeefea6ebd"),
    (100, 10, 20_000, 6, 0, None,
     "b8d672aa94dea0652d3d6b02c8bde5c731ed57f7bd178a18237267c03156e37a"),
    (400, 5, 20_000, 7, 2, None,
     "c1cf95177f4005056c8ba12162bc8f242d1582ad67d11d58cd4aea8b0f08c059"),
    (100, 5, 200_000, 8, 0, None,
     "c09e28179c3634748db422b4cc24b047af34efeb6265525730ac4b6900ce58fd"),
]


@pytest.mark.parametrize(
    "n,size,samples,seed,worker,start,digest", BATCH_CASES
)
def test_batch_digest(n, size, samples, seed, worker, start, digest):
    g, x = _host(n)
    batch = sample_trees_batch(
        g, x, _tree(size), samples, seed, worker=worker, start=start
    )
    assert batch.images.shape == (samples, size)
    assert _sha(batch_to_csv(batch)) == digest


SINGLE_DIGEST = (
    "2fec9a095a41c6c134d3cc2fa2c8f5712a21abf4b2378657fc88dc138df4e4cd"
)


def test_single_draws_share_one_stream():
    # as in run_pipeline: one Generator draws each root, then each embedding
    g, x = _host(100)
    trees = [_tree(5), _tree(10), _tree(30)]
    rng = stream(9)
    lines = []
    for i in range(300):
        start = int(rng.integers(0, g.n))
        r = sample_tree(g, x, trees[i % 3], start, rng)
        lines.append(f"{' '.join(map(str, r.images))},{int(r.self_avoiding)}")
    flags = [line[-1] for line in lines]
    assert "0" in flags and "1" in flags
    assert _sha("\n".join(lines)) == SINGLE_DIGEST
