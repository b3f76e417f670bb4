from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount import counting
from treecount.counting import (
    BoundInputs,
    _count_by_subsets,
    _embeddings,
    count_copies_brute,
    count_hamilton_cycles,
    directed_lower_bound,
    estimate_copies,
    experiments_to_csv,
    hamilton_cycle_experiment,
    undirected_lower_bound,
    verify_bound_experiment,
)
from treecount.errors import InputError, ProcedureError
from treecount.graphs import (
    Digraph,
    complete_digraph,
    directed_cycle,
)
from treecount import randtree
from treecount.matching import max_entropy_matching, normality
from treecount.randtree import sample_trees_batch
from treecount.trees import DOWN, UP, RootedOrientedTree, path_tree


def _first_embedding(g, t, root_image):
    image = next(_embeddings(g, t, [root_image]), None)
    return None if image is None else list(image)


# Reference searches: the recursive BFS-order backtracking that brute
# counting and placement used before one iterative search replaced them.

def _reference_count(g, t, root_image=None, budget=50_000_000):
    order = t.bfs_order
    pos = {v: i for i, v in enumerate(order)}
    parents = [None] + [(pos[t.parent[v]], t.edge_dir[v]) for v in order[1:]]
    visits = 0
    used = [False] * g.n
    image = [0] * t.n

    def extend(i):
        nonlocal visits
        if i == t.n:
            return 1
        pi, d = parents[i]
        p_img = image[pi]
        cands = g.out_adj[p_img] if d == DOWN else g.in_adj[p_img]
        total = 0
        for c in cands:
            if used[c]:
                continue
            visits += 1
            if visits > budget:
                raise ProcedureError(
                    "backtracking budget exceeded; partial count invalid",
                    visits=visits,
                )
            used[c] = True
            image[i] = c
            total += extend(i + 1)
            used[c] = False
        return total

    labelled = 0
    roots = [root_image] if root_image is not None else range(g.n)
    for r in roots:
        used[r] = True
        image[0] = r
        labelled += extend(1)
        used[r] = False
    return labelled


def _reference_first(g, t, root_image):
    order = t.bfs_order
    pos = {v: i for i, v in enumerate(order)}
    parents = [None] + [(pos[t.parent[v]], t.edge_dir[v]) for v in order[1:]]
    used = [False] * g.n
    image = [0] * t.n

    def extend(i):
        if i == t.n:
            return True
        pi, d = parents[i]
        cands = g.out_adj[image[pi]] if d == DOWN else g.in_adj[image[pi]]
        for c in cands:
            if used[c]:
                continue
            used[c] = True
            image[i] = c
            if extend(i + 1):
                return True
            used[c] = False
        return False

    used[root_image] = True
    image[0] = root_image
    return list(image) if extend(1) else None


def _search_cases():
    """(host, tree, root image) triples with at most 9 host vertices."""
    cases = []
    for k in range(64):
        rng = np.random.default_rng([7, k])
        n = int(rng.integers(2, 10))
        g = random_dense_digraph(rng, n, min_deg=int(rng.integers(1, n)))
        t = random_tree(rng, int(rng.integers(1, n + 1)), max_deg=4)
        cases.append((g, t, int(rng.integers(0, n))))
    star = RootedOrientedTree([-1, 0, 0], [None, DOWN, DOWN])
    cases.append((directed_cycle(5), star, 2))   # no embedding at all
    cases.append((directed_cycle(4), RootedOrientedTree([-1], [None]), 3))
    return cases


def test_hamilton_path_k5():
    rep = count_copies_brute(complete_digraph(5), path_tree(5))
    assert rep.labelled == 120
    assert rep.unlabelled == 120  # the directed path has no automorphisms


def test_path_in_directed_cycle():
    rep = count_copies_brute(directed_cycle(3), path_tree(3))
    assert rep.labelled == 3


def test_single_vertex_count():
    t = RootedOrientedTree([-1], [None])
    rep = count_copies_brute(complete_digraph(7), t)
    assert rep.labelled == 7


def test_rooted_counts_sum_to_total():
    rng = np.random.default_rng(40)
    g = random_dense_digraph(rng, 7, min_deg=4)
    t = random_tree(rng, 4, max_deg=3)
    total = count_copies_brute(g, t).labelled
    by_root = sum(
        count_copies_brute(g, t, root_image=v).labelled for v in range(7)
    )
    assert total == by_root


def test_search_matches_recursive_reference():
    found = missing = 0
    for g, t, root in _search_cases():
        assert count_copies_brute(g, t).labelled == _reference_count(g, t)
        rooted = count_copies_brute(g, t, root_image=root).labelled
        assert rooted == _reference_count(g, t, root_image=root)
        first = _first_embedding(g, t, root)
        assert first == _reference_first(g, t, root)
        assert (first is not None) == (rooted > 0)
        found += first is not None
        missing += first is None
    assert found >= 40 and missing >= 1


def test_single_vertex_tree_search():
    g = random_dense_digraph(np.random.default_rng(43), 6, min_deg=3)
    t = RootedOrientedTree([-1], [None])
    assert count_copies_brute(g, t).labelled == g.n == _reference_count(g, t)
    assert _first_embedding(g, t, 4) == [4] == _reference_first(g, t, 4)


def test_budget_overrun_matches_reference():
    rng = np.random.default_rng(44)
    g = random_dense_digraph(rng, 8, min_deg=5)
    t = random_tree(rng, 6, max_deg=3)
    for budget in (1, 10, 1000):
        with pytest.raises(ProcedureError) as got:
            count_copies_brute(g, t, budget=budget)
        with pytest.raises(ProcedureError) as want:
            _reference_count(g, t, budget=budget)
        assert str(got.value) == str(want.value)
        assert got.value.diagnostics == want.value.diagnostics
        assert got.value.diagnostics == {"visits": budget + 1}


def _spanning_cases():
    """Spanning trees in 10- and 11-vertex hosts, drawn as the benchmark's
    exact workload draws them."""
    rng = np.random.default_rng(45)
    return [
        (g, random_tree(rng, n, max_deg=4), 0)
        for n, min_deg in ((10, 6), (11, 7))
        for g in [random_dense_digraph(rng, n, min_deg, keep_prob=1.0)]
    ]


def test_subset_count_matches_search():
    # the subset DP's count is the search's, and its visit total is the
    # search's exactly: the budget cut-off falls at the same place
    for g, t, root in _search_cases() + _spanning_cases():
        for root_image in (None, root):
            roots = range(g.n) if root_image is None else [root_image]
            labelled, visits = _count_by_subsets(g, t, roots)
            rep = count_copies_brute(g, t, root_image=root_image)
            assert type(rep.labelled) is int and type(visits) is int
            found = sum(1 for _ in _embeddings(g, t, roots, budget=visits))
            assert rep.labelled == labelled == found
            # the walk-count bound that routes small hosts to the search
            # and spares the DP its other prefixes never undercounts the
            # search's visits
            assert visits <= counting._visit_bound(g, t, list(roots))
            if visits:
                with pytest.raises(ProcedureError) as exc:
                    for _ in _embeddings(g, t, roots, budget=visits - 1):
                        pass
                assert exc.value.diagnostics == {"visits": visits}


def test_subset_count_boundary(monkeypatch):
    # hosts of up to 16 vertices are counted by the subset DP unless the
    # search provably visits at most 2**n vertices; larger hosts always by
    # the search
    calls = []
    dp = counting._count_by_subsets
    monkeypatch.setattr(
        counting, "_count_by_subsets", lambda *a: calls.append(a) or dp(*a)
    )
    # a cycle plus four chords: the walk-count bound is 1486 <= 2**16, so
    # even at 16 vertices the search counts it
    for n in (16, 17):
        arcs = [(i, (i + 1) % n) for i in range(n)]
        arcs += [(0, n // 2), (n // 3, 1), (n - 2, n // 4), (5, 9)]
        g, t = Digraph(n, arcs), path_tree(n)
        assert count_copies_brute(g, t).labelled == _reference_count(g, t)
    assert calls == []
    # a host thinned as far as semidegree 7 allows, as in verify's exact
    # counts, passes 2**11 within a few prefixes and goes to the DP
    rng = np.random.default_rng(5)
    g = random_dense_digraph(rng, 11, 7, keep_prob=1.0)
    t = random_tree(rng, 11, max_deg=4)
    rooted = count_copies_brute(g, t, root_image=0).labelled
    assert rooted == _reference_count(g, t, root_image=0)
    assert len(calls) == 1 and calls[0][0] is g


def test_subset_count_complete_hosts():
    # in K_n every injective sequence is a copy of the directed path; at
    # n = 11 a subset's homomorphism count passes 2**32, at n = 14, the
    # largest host counted in float64, it reaches 14 * 13**13 < 2**53, at
    # n = 15, the first counted in int64, 15 * 14**14 > 2**53, and at
    # n = 16 it reaches 16 * 15**15, within a factor 1.4 of 2**63
    assert 14 * 13**13 < 2**53 < 15 * 14**14
    assert counting._dp_dtype(14) is np.float64
    assert counting._dp_dtype(15) is np.int64
    for n in (11, 14, 15, 16):
        labelled, visits = _count_by_subsets(complete_digraph(n), path_tree(n), range(n))
        assert labelled == math.factorial(n)
        assert visits == sum(math.perm(n, m) for m in range(2, n + 1))


def _thinned_spanning(n, seed):
    rng = np.random.default_rng(seed)
    g = random_dense_digraph(rng, n, n - 4, keep_prob=1.0)
    return g, random_tree(rng, n, max_deg=4)


def test_subset_count_runs_one_prefix_within_budget(monkeypatch):
    # at 10 vertices every prefix's injective maps total at most
    # sum_m P(10, m) < 50M visits, so the default budget cannot be
    # exceeded, and the subset DP runs for the whole tree alone
    g, t = _thinned_spanning(10, 6)
    assert counting._visit_bound(g, t, list(range(10))) <= 50_000_000
    prefixes = []
    homs = counting._prefix_homs
    monkeypatch.setattr(
        counting, "_prefix_homs",
        lambda rows, steps, m: prefixes.append((rows.ndim, m)) or homs(rows, steps, m),
    )
    assert count_copies_brute(g, t).labelled == _reference_count(g, t)
    assert [m for ndim, m in prefixes if ndim == 2] == [10]


def test_subset_count_budget_between_visits_and_bound():
    # a budget the visit bound does not clear makes the DP total every
    # prefix's visits: within them it still counts, one below them it
    # raises what the search raises
    g, t = _thinned_spanning(10, 7)
    roots = list(range(10))
    labelled, visits = _count_by_subsets(g, t, roots)
    bound = counting._visit_bound(g, t, roots)
    assert 2**10 < visits < bound
    for budget in (visits, (visits + bound) // 2, bound - 1, bound):
        assert count_copies_brute(g, t, budget=budget).labelled == labelled
    with pytest.raises(ProcedureError) as got:
        count_copies_brute(g, t, budget=visits - 1)
    with pytest.raises(ProcedureError) as want:
        for _ in _embeddings(g, t, roots, budget=visits - 1):
            pass
    assert str(got.value) == str(want.value)
    assert got.value.diagnostics == want.value.diagnostics == {"visits": visits}


def test_deep_path_count():
    # one copy per starting vertex; a search that recurses per tree
    # vertex overflows the interpreter stack here
    rep = count_copies_brute(directed_cycle(1200), path_tree(1200))
    assert rep.labelled == 1200 and rep.unlabelled == 1200


def test_brute_size_and_budget_errors():
    with pytest.raises(InputError):
        count_copies_brute(complete_digraph(3), path_tree(4))
    with pytest.raises(ProcedureError):
        count_copies_brute(complete_digraph(8), path_tree(7), budget=10)


def test_estimator_exact_expectation_small():
    # enumerate the whole outcome space: the expectation is exactly the count
    g = complete_digraph(4)
    x, _ = max_entropy_matching(g)
    t = path_tree(3)
    pos = {v: i for i, v in enumerate(t.bfs_order)}
    expectation = 0.0
    for images in itertools.product(range(4), repeat=3):
        prob = 1.0 / 4
        ok = True
        for v in t.bfs_order:
            if v == t.root:
                continue
            w = x.weights[images[pos[t.parent[v]]], images[pos[v]]]
            if w == 0:
                ok = False
                break
            prob *= w
        if not ok:
            continue
        if len(set(images)) == 3:
            expectation += prob * (4 / (prob * 4))
    brute = count_copies_brute(g, t).labelled
    assert expectation == pytest.approx(brute)


def test_estimator_ci_covers_brute():
    rng = np.random.default_rng(41)
    g = random_dense_digraph(rng, 8, min_deg=5)
    x, _ = max_entropy_matching(g)
    t = random_tree(rng, 6, max_deg=3)
    brute = count_copies_brute(g, t).labelled
    rep = estimate_copies(g, x, t, samples=300000, seed=2)
    low, high, conf = rep.ci
    assert conf == 0.95
    assert low <= brute <= high or abs(rep.labelled - brute) / brute < 0.02


def test_estimator_ci_low_end_is_never_negative():
    # mean - 1.96 se is -468137.0 here; no count is below 0
    rng = np.random.default_rng([7, 12])
    g = random_dense_digraph(rng, 12, 7, keep_prob=1.0)
    t = random_tree(rng, 12, max_deg=4)
    x, _ = max_entropy_matching(g)
    rep = estimate_copies(g, x, t, samples=20000, seed=0)
    low, high, conf = rep.ci
    assert low == 0.0 and conf == 0.95
    assert high == pytest.approx(7586513.3, abs=0.1)
    assert low <= count_copies_brute(g, t).labelled == 2420251 <= high


def test_estimator_zero_variance_single_vertex():
    g = complete_digraph(5)
    x, _ = max_entropy_matching(g)
    t = RootedOrientedTree([-1], [None])
    rep = estimate_copies(g, x, t, samples=100, seed=0)
    assert rep.labelled == pytest.approx(5.0)
    assert rep.ci[0] == pytest.approx(5.0) and rep.ci[1] == pytest.approx(5.0)


def batch_estimate(g, x, t, samples, seed):
    """The estimate, computed from the batch sampler's rows as it was before
    the estimator retired self-intersecting samples: mean and interval."""
    batch = sample_trees_batch(g, x, t, samples, seed)
    vals = np.where(batch.self_avoiding, g.n * np.exp2(-batch.log_probs), 0.0)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    ci = (max(0.0, mean - 1.959963984540054 * se), mean + 1.959963984540054 * se, 0.95)
    return int(batch.self_avoiding.sum()), mean, ci


def _complete_host(rng):
    g = complete_digraph(30)
    return g, random_tree(rng, 12, max_deg=4)


def _dense_host(rng):
    g = random_dense_digraph(rng, 40, 24)
    return g, random_tree(rng, 9, max_deg=4)


def _wide_host(rng):
    # images past 255, so a uint8 image would wrap
    return complete_digraph(300), random_tree(rng, 20, max_deg=4)


@pytest.mark.parametrize("make, samples, block", [
    (_complete_host, 20_000, None),
    (_dense_host, 20_000, None),
    (_wide_host, 5_000, None),
    (_dense_host, 3 * 7 + 5, 7),
    (_complete_host, 3 * 1000 + 5, 1000),
    (_complete_host, 1, None),
], ids=["complete", "dense", "n300", "blocks7", "blocks1000", "one-sample"])
def test_estimator_equals_batch_reference(monkeypatch, make, samples, block):
    rng = np.random.default_rng([23, samples])
    g, t = make(rng)
    assert {t.edge_dir[v] for v in t.bfs_order[1:]} == {DOWN, UP}
    x, _ = max_entropy_matching(g)
    seed = int(rng.integers(2**31))
    if block is not None:
        monkeypatch.setattr(randtree, "_BLOCK", block)
    hits, mean, ci = batch_estimate(g, x, t, samples, seed)
    assert hits > 0
    rep = estimate_copies(g, x, t, samples=samples, seed=seed)
    assert rep.labelled == mean and rep.ci == ci
    assert rep.unlabelled == mean / rep.aut


def test_estimator_single_vertex_equals_batch_reference():
    g = complete_digraph(7)
    x, _ = max_entropy_matching(g)
    t = RootedOrientedTree([-1], [None])
    hits, mean, ci = batch_estimate(g, x, t, 50, 3)
    rep = estimate_copies(g, x, t, samples=50, seed=3)
    assert hits == 50 and rep.labelled == mean and rep.ci == ci


def test_estimator_tree_larger_than_host_is_zero():
    # every draw of 7 images in 5 host vertices repeats one
    g = complete_digraph(5)
    x, _ = max_entropy_matching(g)
    rep = estimate_copies(g, x, path_tree(7), samples=1000, seed=0)
    assert rep.labelled == 0.0


def test_estimator_holds_no_image_per_sample():
    # a k x 30 image array of 200,000 samples takes 11.4 MiB as uint16, and
    # the estimate peaked at 18.0 MiB when it kept one; the retiring draws
    # keep rows of the live samples only, which few of them stay
    g = complete_digraph(100)
    x, _ = max_entropy_matching(g)
    t = random_tree(np.random.default_rng(30), 30, max_deg=4)
    # a first estimate loads numpy's random modules and warms the allocator
    estimate_copies(g, x, t, samples=1000, seed=0)
    tracemalloc.start()
    try:
        estimate_copies(g, x, t, samples=200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20


def test_estimator_without_hits_gives_no_confident_zero():
    # a spanning tree of a host thinned to semidegree 8 of 14, whose exact
    # count is 139,284,716: none of 20,000 draws is self-avoiding, and the
    # interval used to be (0, 0)
    rng = np.random.default_rng([7, 14])
    g = random_dense_digraph(rng, 14, 8, keep_prob=1.0)
    t = random_tree(rng, 14, max_deg=4)
    x, _ = max_entropy_matching(g)
    rep = estimate_copies(g, x, t, samples=20000, seed=0)
    assert rep.labelled == 0.0 and rep.unlabelled == 0.0
    assert rep.ci == (0.0, math.inf, 0.95)


def test_estimator_refuses_zero_weights_first():
    # the zero-weight refusal comes before the sample count and host checks
    g = complete_digraph(3)
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    from treecount.matching import PerfectFractionalMatching

    x = PerfectFractionalMatching(g, w)
    gaps = "matching has zero-weight arcs; the estimator would be biased"
    with pytest.raises(InputError, match=gaps):
        estimate_copies(g, x, path_tree(2), samples=0, seed=0)
    with pytest.raises(InputError, match=gaps):
        estimate_copies(complete_digraph(4), x, path_tree(2), samples=10, seed=0)


def test_estimator_rejects_support_gaps():
    g = complete_digraph(3)
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    from treecount.matching import PerfectFractionalMatching

    x = PerfectFractionalMatching(g, w)
    assert normality(x).support_gaps
    gaps = "matching has zero-weight arcs; the estimator would be biased"
    with pytest.raises(InputError, match=gaps):
        estimate_copies(g, x, path_tree(2), samples=10, seed=0)


def test_directed_lower_bound_values():
    b = directed_lower_bound(BoundInputs(n=5, h=5 * math.log2(4), eps=0.0, aut=1))
    assert b.value == pytest.approx(4 ** 5 * math.e ** -5, rel=1e-9)
    assert b.value == pytest.approx(6.9, abs=0.01)
    b2 = directed_lower_bound(BoundInputs(n=5, h=10.0, eps=0.0, aut=2))
    assert b2.value == pytest.approx(b.value / 2, rel=1e-12)
    with pytest.raises(InputError):
        BoundInputs(n=0, h=1.0, eps=0.0, aut=1)


def test_bound_shape_identity():
    # h = n log2(n/2) gives (n/2)^n e^{-n}
    n = 6
    b = directed_lower_bound(BoundInputs(n=n, h=n * math.log2(n / 2), eps=0.0, aut=1))
    assert b.value == pytest.approx((n / 2) ** n * math.e ** -n, rel=1e-9)


def test_undirected_consistency():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        h = float(rng.uniform(0, 3 * n))
        eps = float(rng.uniform(0, 1))
        aut = int(rng.integers(1, 100))
        u = undirected_lower_bound(n, h, eps, aut)
        d = directed_lower_bound(BoundInputs(n=n, h=2 * h, eps=eps, aut=aut))
        assert u.log2 == pytest.approx(d.log2, abs=1e-12)


def permutation_hamilton_cycles(g):
    """Reference count: every vertex order that starts at 0, halved."""
    if g.n < 3:
        return 0
    adj = [set(a) for a in g.out_adj]
    count = 0
    for perm in itertools.permutations(range(1, g.n)):
        seq = (0,) + perm + (0,)
        count += all(seq[i + 1] in adj[seq[i]] for i in range(g.n))
    return count // 2


def test_hamilton_cycles():
    assert count_hamilton_cycles(complete_digraph(6)) == 60
    assert count_hamilton_cycles(complete_digraph(5)) == 12
    assert count_hamilton_cycles(complete_digraph(2)) == 0
    for n in range(3, 13):
        assert count_hamilton_cycles(complete_digraph(n)) == math.factorial(n - 1) // 2
    rng = np.random.default_rng(44)
    counts = []
    for _ in range(60):
        n = int(rng.integers(1, 9))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.6]
        g = Digraph(n, edges + [(v, u) for u, v in edges])
        counts.append(count_hamilton_cycles(g))
        assert counts[-1] == permutation_hamilton_cycles(g)
    assert 0 in counts and len(set(counts)) > 5


def test_hamilton_refuses_an_asymmetric_digraph():
    g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0)])
    message = r"^Hamilton cycles need an undirected graph: a symmetric mask$"
    for check in (count_hamilton_cycles, hamilton_cycle_experiment):
        with pytest.raises(InputError, match=message):
            check(g)
    assert count_hamilton_cycles(Digraph(4, [*g.edges, (0, 3)])) == 1


# labelled copies of a spanning random_tree(max_deg=4) in a host thinned
# from K_n to minimum semidegree n // 2 + 1, drawn from default_rng([7, n])
SPANNING_COUNTS = {13: 9_758_272, 14: 139_284_716, 15: 474_654_951, 16: 10_194_927_108}


def _spanning_case(n):
    rng = np.random.default_rng([7, n])
    g = random_dense_digraph(rng, n, n // 2 + 1, keep_prob=1.0)
    return g, random_tree(rng, n, max_deg=4)


@pytest.mark.parametrize("n", sorted(SPANNING_COUNTS))
def test_verify_is_exact_up_to_16_vertices(n):
    # the subset DP counts these without a search budget; the default
    # budget of count_copies_brute refuses every one of them
    exp = verify_bound_experiment(*_spanning_case(n))
    assert exp.count * exp.aut == SPANNING_COUNTS[n]
    assert exp.holds and exp.note == ""


def test_count_copies_brute_keeps_its_default_budget():
    with pytest.raises(ProcedureError, match="^backtracking budget exceeded"):
        count_copies_brute(*_spanning_case(13))
    assert counting.brute_budget(complete_digraph(16)) is None
    assert counting.brute_budget(complete_digraph(17)) == counting._DEFAULT_BUDGET


def test_verify_bound_experiment_k5():
    exp = verify_bound_experiment(complete_digraph(5), path_tree(5))
    assert exp.count == 120
    assert exp.bound_value == pytest.approx(6.9, abs=0.01)
    assert exp.holds and exp.note == ""


def test_verify_bound_hypothesis_failure():
    exp = verify_bound_experiment(directed_cycle(5), path_tree(3))
    assert "hypothesis" in exp.note


def test_verify_bound_non_spanning_tree():
    # the bound is for spanning trees: 1680 copies fall below 1933.9
    exp = verify_bound_experiment(complete_digraph(8), path_tree(4))
    assert exp.count == 1680 and not exp.holds
    assert exp.note == "tree is not spanning; bound is informational only"


def test_verify_bound_keeps_notes_when_solver_fails():
    # the scaling on this host does not converge within its iteration cap
    g = Digraph(4, [(0, 1), (1, 0), (2, 0), (3, 2), (0, 3), (1, 3), (3, 1)])
    exp = verify_bound_experiment(g, path_tree(2))
    assert exp.h_bits == 0.0
    assert exp.note.startswith(
        "degree hypothesis unmet; bound is informational only; "
        "tree is not spanning; bound is informational only; "
        "entropy solver failed ("
    )


def test_hamilton_experiment_k6():
    exp = hamilton_cycle_experiment(complete_digraph(6))
    assert exp.count == 60
    assert exp.m_edges == 15
    assert exp.aut == 12
    assert exp.bound_value == pytest.approx(5 ** 6 * math.e ** -6 / 12, rel=1e-6)
    assert exp.holds


def test_experiments_csv():
    exp = verify_bound_experiment(complete_digraph(5), path_tree(5))
    text = experiments_to_csv([exp])
    lines = text.strip().split("\n")
    assert lines[0] == "n,m,h_bits,aut,count,bound_log2,ratio_log2,holds"
    assert len(lines) == 2 and lines[1].endswith(",1")
