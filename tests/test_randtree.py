from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount.entropy import plugin_entropy
from treecount import randtree
from treecount.errors import InputError, ProcedureError
from treecount.graphs import Digraph, complete_digraph, directed_cycle
from treecount.matching import (
    PerfectFractionalMatching,
    matching_entropy,
    max_entropy_matching,
)
from treecount.randtree import (
    _draw,
    _self_avoiding_draws,
    batch_to_csv,
    exact_tree_entropy,
    hr_lower_bound,
    marginals,
    mixing_check,
    replay_log_prob,
    sample_tree,
    sample_trees_batch,
    self_avoiding_reference_bound,
)
from treecount.trees import DOWN, UP, RootedOrientedTree, path_tree, star_tree


def uniform_matching(n: int) -> PerfectFractionalMatching:
    g = complete_digraph(n)
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    return PerfectFractionalMatching(g, w)


def forced_cycle_matching(n: int):
    g = directed_cycle(n)
    w = np.zeros((n, n))
    for u, v in g.edges:
        w[u, v] = 1.0
    return g, PerfectFractionalMatching(g, w)


def test_single_vertex_tree():
    x = uniform_matching(4)
    t = RootedOrientedTree([-1], [None])
    r = sample_tree(x.host, x, t, 2, seed=0)
    assert r.images == (2,) and r.log_prob == 0.0 and r.self_avoiding


def test_forced_cycle_walk():
    g, x = forced_cycle_matching(4)
    t = path_tree(4)
    r = sample_tree(g, x, t, 0, seed=0)
    assert r.images == (0, 1, 2, 3)
    assert r.log_prob == 0.0


def test_k3_path_distribution():
    x = uniform_matching(3)
    t = path_tree(3)
    counts = {}
    n_samples = 40000
    batch = sample_trees_batch(x.host, x, t, n_samples, seed=5, start=0)
    for row in batch.images:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert set(counts) == {(0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 1)}
    for k, c in counts.items():
        # binomial 3 sigma around p = 1/4
        sigma = math.sqrt(n_samples * 0.25 * 0.75)
        assert abs(c - n_samples / 4) <= 3.5 * sigma


def test_log_prob_replay():
    rng = np.random.default_rng(30)
    g = random_dense_digraph(rng, 10, min_deg=6)
    x, _ = max_entropy_matching(g)
    t = random_tree(rng, 6, max_deg=4)
    for seed in range(20):
        r = sample_tree(g, x, t, 0, seed=seed)
        assert r.log_prob == pytest.approx(
            replay_log_prob(x, t, r.images), abs=1e-12
        )
    batch = sample_trees_batch(g, x, t, 50, seed=7)
    for i in range(50):
        assert batch.log_probs[i] == pytest.approx(
            replay_log_prob(x, t, batch.images[i]), abs=1e-10
        )


def test_replay_refuses_malformed_images():
    x, _ = max_entropy_matching(complete_digraph(5))
    t = path_tree(3)
    assert replay_log_prob(x, t, [0, 1, 2]) == pytest.approx(-4.0)
    # too few or too many images, or an image outside the host
    for images in ([0, 1, -1], [0, 1, 2, 3, 4], [0, 1], [0, 1, 7]):
        with pytest.raises(InputError):
            replay_log_prob(x, t, images)


def test_batch_respects_arcs():
    rng = np.random.default_rng(31)
    g = random_dense_digraph(rng, 12, min_deg=7)
    x, _ = max_entropy_matching(g)
    t = random_tree(rng, 5, max_deg=3)
    batch = sample_trees_batch(g, x, t, 500, seed=1, start=3)
    pos = {v: i for i, v in enumerate(t.bfs_order)}
    for row in batch.images:
        assert row[pos[t.root]] == 3
        for v in t.bfs_order:
            if v == t.root:
                continue
            p_img, c_img = row[pos[t.parent[v]]], row[pos[v]]
            if t.edge_dir[v] == DOWN:
                assert g.has_arc(p_img, c_img)
            else:
                assert g.has_arc(c_img, p_img)


def test_batch_heap_trim_changes_no_draw(monkeypatch):
    import platform

    if platform.libc_ver()[0] == "glibc":
        assert randtree._malloc_trim is not None
    rng = np.random.default_rng(32)
    g = random_dense_digraph(rng, 12, min_deg=7)
    x, _ = max_entropy_matching(g)
    t = random_tree(rng, 6, max_deg=3)
    trimmed = sample_trees_batch(g, x, t, 300, seed=4)
    monkeypatch.setattr(randtree, "_malloc_trim", None)
    plain = sample_trees_batch(g, x, t, 300, seed=4)
    assert np.array_equal(trimmed.images, plain.images)
    assert np.array_equal(trimmed.log_probs, plain.log_probs)


def test_empirical_transitions_match_matching():
    x = uniform_matching(5)
    t = star_tree(1)
    batch = sample_trees_batch(x.host, x, t, 20000, seed=9, start=0)
    _, counts = np.unique(batch.images[:, 1], return_counts=True)
    p = counts / counts.sum()
    sigma = math.sqrt(0.25 * 0.75 / 20000)
    assert np.abs(p - 0.25).max() <= 3.5 * sigma


def test_alternating_pattern_composite_law():
    # two steps (down, up) compose to W @ W.T exactly, checked via marginals
    x = uniform_matching(3)
    t = path_tree(3, dirs=[DOWN, UP])
    table = marginals(x.host, x, t, 0)
    w = np.asarray(x.weights)
    expected = (np.eye(3)[0] @ w) @ w.T
    assert np.allclose(table.rows[2], expected, atol=1e-12)


def test_marginals_examples():
    x = uniform_matching(4)
    t = path_tree(2)
    table = marginals(x.host, x, t, 0)
    assert table.rows[1][0] == 0.0
    assert np.allclose(table.rows[1][1:], 1 / 3)
    # geometric decay toward uniform: deviation is (3/4)(1/3)^t exactly
    t5 = path_tree(6)
    table5 = marginals(x.host, x, t5, 0)
    for step in (4, 5):
        dev = np.abs(table5.rows[step] - 0.25).max()
        assert dev == pytest.approx(0.75 / 3 ** step, abs=1e-12)
    assert np.abs(table5.rows[5] - 0.25).max() < 0.005
    # forced cycle: rotating point masses
    g, xc = forced_cycle_matching(5)
    tc = path_tree(3)
    tabc = marginals(g, xc, tc, 1)
    assert tabc.rows[2][3] == 1.0


def test_exact_entropy_complete_hosts():
    rng = np.random.default_rng(32)
    for n in range(5, 9):
        x = uniform_matching(n)
        for _ in range(5):
            t = random_tree(rng, int(rng.integers(2, 8)), max_deg=4)
            h = exact_tree_entropy(x.host, x, t, 0)
            assert h == pytest.approx(t.m * math.log2(n - 1), abs=1e-9)


def test_exact_entropy_monte_carlo_crosscheck():
    rng = np.random.default_rng(33)
    g = random_dense_digraph(rng, 8, min_deg=5)
    x, _ = max_entropy_matching(g)
    t = star_tree(3)
    h_exact = exact_tree_entropy(g, x, t, 0)
    batch = sample_trees_batch(g, x, t, 200000, seed=3, start=0)
    h_mc = plugin_entropy(batch.images)
    # plug-in estimate is biased low by at most (support-1)/(2N ln 2)
    bias = (8 ** 3) / (2 * 200000 * math.log(2))
    assert abs(h_mc - h_exact) <= bias + 0.02


def test_hr_lower_bound():
    assert hr_lower_bound(0, 10, 5.0) == 0.0
    x = uniform_matching(8)
    h_x = matching_entropy(x)
    t = path_tree(8)
    exact = exact_tree_entropy(x.host, x, t, 0)
    assert hr_lower_bound(7, 8, h_x) <= exact + 1e-12
    with pytest.raises(InputError):
        hr_lower_bound(3, 1, 1.0)


def test_self_avoiding():
    assert self_avoiding_reference_bound(6, 50 / 49, 50) == pytest.approx(
        1 - 36 * (50 / 49) / 50
    )


def test_mixing_hypothesis_failure():
    g, xc = forced_cycle_matching(5)
    rep = mixing_check(g, xc, [DOWN], 0, 1, 10)
    assert not rep.hypothesis_ok
    assert all(row.holds is None for row in rep.rows)


def test_mixing_complete_host():
    x = uniform_matching(10)
    rep = mixing_check(x.host, x, [DOWN], 0, 1, 60)
    assert rep.hypothesis_ok
    assert rep.all_admissible_hold()
    assert any(row.admissible for row in rep.rows)


def test_mixing_refuses_empty_pattern():
    x = uniform_matching(4)
    with pytest.raises(InputError, match="^pattern must be nonempty$"):
        mixing_check(x.host, x, [], 0, 1)


def test_batch_memory_does_not_scale_with_host_times_samples():
    # the output is 50,000 x 10 images (3.8 MiB); a k x n CDF block per
    # tree edge would take 50,000 x 400 x 8 bytes (153 MiB)
    x = uniform_matching(400)
    tracemalloc.start()
    try:
        sample_trees_batch(x.host, x, path_tree(10), 50_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_single_draw_reads_only_the_rows_it_uses():
    # one n x n float array for K_600 takes 2.7 MiB
    x = uniform_matching(600)
    # a first draw loads numpy's random modules (about 0.5 MiB)
    sample_tree(x.host, x, path_tree(5), 7, seed=0)
    tracemalloc.start()
    try:
        sample_tree(x.host, x, path_tree(5), 7, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_batch_images_are_two_bytes_per_cell():
    # 50,000 x 30 images take 2.9 MiB as uint16 and 11.4 MiB as int64
    x = uniform_matching(100)
    t = path_tree(30)
    # a first batch loads numpy's random modules and warms the allocator
    sample_trees_batch(x.host, x, t, 1000, seed=0)
    tracemalloc.start()
    try:
        sample_trees_batch(x.host, x, t, 50_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n,dtype", [
    (255, np.uint16), (256, np.uint16), (65_536, np.uint16),
    (65_537, np.uint32),
])
def test_image_dtype_holds_every_host_vertex(n, dtype):
    assert randtree._image_dtype(n) == dtype


@pytest.mark.parametrize("k", [1, 2])
def test_draw_returns_image_dtype_on_both_paths(k):
    x = uniform_matching(300)
    t = path_tree(6, [DOWN, UP, UP, DOWN, UP])
    images, _ = _draw(x, t, np.arange(k) + 256, np.random.default_rng(k))
    assert images.dtype == randtree._image_dtype(300) == np.uint16
    assert images.shape == (k, 6) and images[:, 0].tolist() == list(range(256, 256 + k))


def complex_key_draw(x, t, roots, rng):
    """Reference draw: one binary search over the complex keys
    ``row + 1j * cumsum(row)`` of the whole n x n matrix per tree edge."""
    n = x.n
    trans = {DOWN: x.weights, UP: x.weights.T}
    pos = {v: i for i, v in enumerate(t.bfs_order)}
    images = np.empty((len(roots), t.n), dtype=np.int64)
    images[:, pos[t.root]] = roots
    log_probs = np.zeros(len(roots))
    for v in t.bfs_order[1:]:
        d = t.edge_dir[v]
        cdf = np.cumsum(trans[d], axis=1)
        keys = (np.arange(n)[:, None] + 1j * cdf).ravel()
        parents = images[:, pos[t.parent[v]]]
        u = rng.random(len(roots)) * cdf[parents, -1]
        child = np.searchsorted(keys, parents + 1j * u) - parents * n
        images[:, pos[v]] = child
        log_probs += np.log2(trans[d][parents, child])
    return images, log_probs


def sparse_random_matching(rng, n):
    # rows and columns do not sum to 1, so the row totals matter
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] += 0.05
    g = Digraph(n, zip(*np.nonzero(w)))
    return PerfectFractionalMatching(g, w, tol=math.inf)


def permutation_average_matching(rng, n, m):
    # weights are multiples of 1/m, so cumulative sums tie exactly
    w = np.zeros((n, n))
    for _ in range(m):
        perm = rng.permutation(n)
        shift = int(rng.integers(1, n))
        w[perm, np.roll(perm, -shift)] += 1.0 / m
    g = Digraph(n, zip(*np.nonzero(w)))
    return PerfectFractionalMatching(g, w)


@pytest.mark.parametrize("k", [1, 3, 5000])
def test_draw_matches_complex_key_reference(k):
    rng = np.random.default_rng([77, k])
    matchings = [sparse_random_matching(rng, n) for n in (5, 40, 300)]
    matchings += [
        permutation_average_matching(rng, n, m)
        for n, m in ((6, 2), (50, 3), (200, 4))
    ]
    matchings.append(
        max_entropy_matching(random_dense_digraph(rng, 60, 35))[0]
    )
    for x in matchings:
        t = random_tree(rng, min(x.n, 25), max_deg=4)
        assert {t.edge_dir[v] for v in t.bfs_order[1:]} == {UP, DOWN}
        roots = rng.integers(0, x.n, size=k)
        seed = int(rng.integers(2**32))
        images, log_probs = _draw(x, t, roots, np.random.default_rng(seed))
        ref_images, ref_log_probs = complex_key_draw(
            x, t, roots, np.random.default_rng(seed)
        )
        assert np.array_equal(images, ref_images)
        assert np.array_equal(log_probs, ref_log_probs)


class Uniforms:
    """Stands in for a Generator: every draw gets the same crafted uniforms,
    all of them for ``random(k)``, also into ``out``, and the first for
    ``random()``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        if size is None:
            return float(self.u[0])
        assert size == len(self.u)
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


def bucket_edges(n):
    # every b/n, its neighbours either side, and the largest double below 1
    edges = np.arange(n) / n
    return np.unique(np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ]))


def concentrated_matching(n):
    # each row keeps 1 - 1/n in one cell and spreads 1/n over the others,
    # so the cells after the heavy one share the last bucket, and a walk
    # there can cross most of the row
    w = np.full((n, n), 1.0 / (n * (n - 2)))
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] = 1.0 - 1.0 / n
    g = Digraph(n, zip(*np.nonzero(w)))
    return PerfectFractionalMatching(g, w, tol=math.inf)


def decimal_matching(rng, n, step):
    # multiples of a step that binary fractions do not hold exactly: a few
    # cumulative weights land on a bucket edge b/n of their row's total,
    # where rounding puts the guide past the search's cell
    w = rng.integers(0, 4, (n, n)) * step
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] += step
    g = Digraph(n, zip(*np.nonzero(w)))
    return PerfectFractionalMatching(g, w, tol=math.inf)


def zero_row_matching(n, z):
    # row z (out-weights of z) and column z (in-weights) sum to 0
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    w[z] = 0.0
    w[:, z] = 0.0
    g = Digraph(n, zip(*np.nonzero(w)))
    return PerfectFractionalMatching(g, w, tol=math.inf)


@pytest.mark.parametrize("make", [
    lambda rng: sparse_random_matching(rng, 5),
    lambda rng: sparse_random_matching(rng, 40),
    lambda rng: sparse_random_matching(rng, 300),
    lambda rng: permutation_average_matching(rng, 6, 2),
    lambda rng: permutation_average_matching(rng, 50, 3),
    lambda rng: permutation_average_matching(rng, 200, 4),
    lambda rng: concentrated_matching(30),
    lambda rng: concentrated_matching(257),
    lambda rng: decimal_matching(rng, 3, 0.1),
    lambda rng: decimal_matching(rng, 60, 0.1),
    lambda rng: decimal_matching(rng, 60, 0.7),
], ids=["sparse5", "sparse40", "sparse300", "ties6", "ties50", "ties200",
        "heavy30", "heavy257", "decimal3", "decimal60", "decimal60x7"])
def test_guided_search_at_bucket_edges(make):
    # every row, in both directions, meets every bucket edge and its
    # neighbours; both paths must give the complex-key reference's images
    # and log-probabilities bit for bit, and raise where it picks a
    # zero-weight cell (u = 0 on a row whose first cell is empty)
    x = make(np.random.default_rng(5))
    t = RootedOrientedTree([-1, 0, 0], [None, DOWN, UP])
    edges = bucket_edges(x.n)
    roots = np.repeat(np.arange(x.n), len(edges))
    u = np.tile(edges, x.n)
    with np.errstate(divide="ignore"):
        ref_images, ref_log_probs = complex_key_draw(x, t, roots, Uniforms(u))
    ok = np.isfinite(ref_log_probs)
    images, log_probs = _draw(x, t, roots[ok], Uniforms(u[ok]))
    assert np.array_equal(images, ref_images[ok])
    assert np.array_equal(log_probs, ref_log_probs[ok])
    if not ok.all():
        with pytest.raises(ProcedureError, match="zero-weight arc"):
            _draw(x, t, roots, Uniforms(u))
    step = max(1, len(roots) // 1500)
    for i in range(0, len(roots), step):
        one = Uniforms(u[i:i + 1])
        if ok[i]:
            images, log_probs = _draw(x, t, roots[i:i + 1], one)
            assert np.array_equal(images[0], ref_images[i])
            assert np.array_equal(log_probs[0], ref_log_probs[i])
        else:
            with pytest.raises(ProcedureError, match="zero-weight arc"):
                _draw(x, t, roots[i:i + 1], one)


@pytest.mark.parametrize("d", [DOWN, UP])
def test_zero_total_row_raises_on_both_paths(d):
    x = zero_row_matching(12, z=4)
    t = RootedOrientedTree([-1, 0], [None, d])
    edges = bucket_edges(x.n)
    roots = np.full(len(edges), 4)
    with pytest.raises(ProcedureError, match="zero-weight arc") as err:
        _draw(x, t, roots, Uniforms(edges))
    assert err.value.diagnostics["count"] == len(edges)
    # mixed with other rows, it counts the same zero-weight draws as the
    # reference: row 4's, and u = 0 on row 0, whose first cell is empty
    mixed = np.arange(len(edges)) % x.n
    with np.errstate(divide="ignore"):
        _, ref_log_probs = complex_key_draw(x, t, mixed, Uniforms(edges))
    with pytest.raises(ProcedureError) as err:
        _draw(x, t, mixed, Uniforms(edges))
    assert err.value.diagnostics["count"] == np.count_nonzero(
        np.isneginf(ref_log_probs)
    )
    for u in edges:
        with pytest.raises(ProcedureError, match="zero-weight arc"):
            _draw(x, t, np.array([4]), Uniforms([u]))
    with pytest.raises(ProcedureError, match="zero-weight arc"):
        sample_tree(x.host, x, t, 4, seed=0)


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("host", ["sparse", "dense"])
def test_blocking_changes_no_bit(monkeypatch, block, host):
    # k = 3 blocks and a short one; the same batch as one block of all k
    rng = np.random.default_rng([91, block])
    if host == "sparse":
        x = sparse_random_matching(rng, 40)
    else:
        x, _ = max_entropy_matching(random_dense_digraph(rng, 40, 24))
    t = random_tree(rng, 9, max_deg=4)
    assert {t.edge_dir[v] for v in t.bfs_order[1:]} == {DOWN, UP}
    k = 3 * block + 5
    batches = []
    for size in (block, k + 1):
        monkeypatch.setattr(randtree, "_BLOCK", size)
        batches.append(sample_trees_batch(x.host, x, t, k, seed=block))
    blocked, whole = batches
    assert np.array_equal(blocked.images, whole.images)
    assert np.array_equal(blocked.log_probs, whole.log_probs)
    assert np.array_equal(blocked.self_avoiding, whole.self_avoiding)


def test_blocking_counts_every_zero_weight_draw(monkeypatch):
    # the zero-weight draws of an edge fall in several blocks, and the
    # error counts them all
    x = zero_row_matching(12, z=4)
    t = RootedOrientedTree([-1, 0], [None, DOWN])
    edges = bucket_edges(x.n)
    mixed = np.arange(len(edges)) % x.n
    with np.errstate(divide="ignore"):
        _, ref_log_probs = complex_key_draw(x, t, mixed, Uniforms(edges))
    monkeypatch.setattr(randtree, "_BLOCK", 7)
    with pytest.raises(ProcedureError) as err:
        _draw(x, t, mixed, Uniforms(edges))
    assert err.value.diagnostics["count"] == np.count_nonzero(
        np.isneginf(ref_log_probs)
    ) > 1


def test_batch_working_memory_is_bounded_by_blocks():
    # the output of 200,000 samples of a 10-vertex path is 5.5 MiB; searching
    # all of them at once, not a block at a time, needs 12.6 MiB more
    x = uniform_matching(100)
    t = path_tree(10)
    # a first batch loads numpy's random modules and warms the allocator
    sample_trees_batch(x.host, x, t, 1000, seed=0)
    tracemalloc.start()
    try:
        batch = sample_trees_batch(x.host, x, t, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = batch.images.nbytes + batch.log_probs.nbytes + batch.self_avoiding.nbytes
    assert peak < output + 8 * 2**20


def test_batch_tables_are_built_whole():
    # the output of 200,000 samples of a 10-vertex path is 5.5 MiB; each
    # direction's kept tables in K_400 take 1.5 MiB, and building them row
    # by row through gathered copies and scatters needed 8.1 MiB more
    x = uniform_matching(400)
    t = path_tree(10)
    # a first batch loads numpy's random modules and warms the allocator
    sample_trees_batch(x.host, x, t, 1000, seed=0)
    tracemalloc.start()
    try:
        batch = sample_trees_batch(x.host, x, t, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = batch.images.nbytes + batch.log_probs.nbytes + batch.self_avoiding.nbytes
    assert peak < output + 7 * 2**20


def whole_guide_rows(cdf, dtype):
    """Reference guide: every row's keys at once, in n x n temporaries."""
    m, n = cdf.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.fmin(cdf * (n / cdf[:, -1:]), n).astype(np.intp)
    keys[:, -1] = n
    keys += np.arange(0, m * (n + 1), n + 1)[:, None]
    counts = np.bincount(keys.ravel(), minlength=m * (n + 1)).reshape(m, n + 1)
    guide = np.zeros((m, n), dtype=dtype)
    np.cumsum(counts[:, : n - 1], axis=1, out=guide[:, 1:])
    return guide


@pytest.mark.parametrize("m, n", [(1, 1), (3, 3), (40, 40), (300, 300), (3, 20_000)])
def test_guide_rows_match_the_whole_table_formula(m, n):
    # blocks of rows, one row per block past _BLOCK cells, a zero row and
    # decimal weights whose keys land on bucket edges
    rng = np.random.default_rng([3, n])
    w = rng.random((m, n)) * (rng.random((m, n)) < 0.5)
    w[m // 2] = 0.0
    w[-1] = rng.integers(0, 4, n) * 0.1
    cdf = np.cumsum(w, axis=1)
    for dtype in (np.min_scalar_type(n - 1), np.uint16):
        want = whole_guide_rows(cdf, dtype)
        got = randtree._guide_rows(cdf, dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_guide_rows_need_no_square_temporaries():
    # K_1000's kept tables take 9.5 MiB (float64 cdf and uint16 guide);
    # building the guide through n x n keys, casts and counts took 32.4 MiB
    x = uniform_matching(1000)
    t = path_tree(10)
    sample_trees_batch(x.host, x, t, 20, seed=0)
    tracemalloc.start()
    try:
        sample_trees_batch(x.host, x, t, 20, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def distinct_rows(images):
    srt = np.sort(images, axis=1)
    return np.all(srt[:, 1:] != srt[:, :-1], axis=1)


@pytest.mark.parametrize("block", [64, 2**14])
@pytest.mark.parametrize("make, size", [
    (lambda rng: sparse_random_matching(rng, 40), 10),
    (lambda rng: permutation_average_matching(rng, 50, 3), 12),
    (lambda rng: max_entropy_matching(random_dense_digraph(rng, 60, 35))[0], 20),
    (lambda rng: uniform_matching(300), 30),
], ids=["sparse40", "ties50", "dense60", "k300"])
def test_self_avoiding_draws_are_the_batch_hits(monkeypatch, make, size, block):
    # the retiring draws return the rows of _draw_many whose images are
    # distinct, with the same log-probabilities, bit for bit, and leaves
    # the stream where _draw_many leaves it; many samples retire, so the
    # kept rows are cut several times
    monkeypatch.setattr(randtree, "_BLOCK", block)
    rng = np.random.default_rng([19, size])
    x = make(rng)
    t = random_tree(rng, size, max_deg=4)
    assert {t.edge_dir[v] for v in t.bfs_order[1:]} == {UP, DOWN}
    roots = rng.integers(0, x.n, size=5000)
    seed = int(rng.integers(2**32))
    batch_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    images, log_probs = _draw(x, t, roots, batch_rng)
    hits, hit_log_probs = _self_avoiding_draws(x, t, roots, rng)
    distinct = distinct_rows(images)
    assert 0 < distinct.sum() < 5000
    assert np.array_equal(hits, np.flatnonzero(distinct))
    assert np.array_equal(hit_log_probs, log_probs[distinct])
    assert rng.random() == batch_rng.random()


def test_self_avoiding_draws_with_no_hits_or_no_edges():
    x = uniform_matching(5)
    roots = np.arange(20) % 5
    hits, log_probs = _self_avoiding_draws(x, path_tree(6), roots, np.random.default_rng(0))
    assert hits.size == 0 and log_probs.size == 0
    one = RootedOrientedTree([-1], [None])
    hits, log_probs = _self_avoiding_draws(x, one, roots, np.random.default_rng(0))
    assert hits.tolist() == list(range(20)) and not log_probs.any()


def test_zero_weight_draws_count_live_samples_only():
    # row 4 of the weights is empty, so every sample whose first child is
    # vertex 4 draws a zero-weight arc at the third edge; the second edge
    # draws from column 4, and where it lands on the root the sample has
    # retired, so the retiring draws count only the others
    w = np.ones((12, 12))
    np.fill_diagonal(w, 0.0)
    w[4] = 0.0
    x = PerfectFractionalMatching(Digraph(12, zip(*np.nonzero(w))), w, tol=math.inf)
    t = RootedOrientedTree([-1, 0, 1, 1], [None, DOWN, UP, DOWN])
    assert t.bfs_order == (0, 1, 2, 3)
    edges = bucket_edges(x.n)[1:]  # u > 0: every other draw has weight
    roots = np.repeat(np.delete(np.arange(12), 4), len(edges))
    u = np.tile(edges, 11)
    with np.errstate(divide="ignore"):
        images, _ = complex_key_draw(x, t, roots, Uniforms(u))
    zero = images[:, 1] == 4
    live = distinct_rows(images[:, :3])
    assert 0 < np.count_nonzero(zero & live) < np.count_nonzero(zero)
    with pytest.raises(ProcedureError) as err:
        _draw(x, t, roots, Uniforms(u))
    assert err.value.diagnostics["count"] == np.count_nonzero(zero)
    with pytest.raises(ProcedureError, match="zero-weight arc") as err:
        _self_avoiding_draws(x, t, roots, Uniforms(u))
    assert err.value.diagnostics["count"] == np.count_nonzero(zero & live)


def test_batch_csv():
    x = uniform_matching(4)
    t = path_tree(3)
    batch = sample_trees_batch(x.host, x, t, 5, seed=11, start=0)
    text = batch_to_csv(batch)
    lines = text.strip().split("\n")
    assert lines[0] == "seed,worker,images,log_prob,self_avoiding"
    assert len(lines) == 6
    # identical seeds give identical artifacts
    batch2 = sample_trees_batch(x.host, x, t, 5, seed=11, start=0)
    assert batch_to_csv(batch2) == text
