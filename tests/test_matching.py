from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_dense_digraph
from treecount.errors import InputError, ParseError, ProcedureError
from treecount.graphs import (
    Digraph,
    complete_digraph,
    directed_cycle,
    induced_subgraph,
)
from treecount.matching import (
    NormalizationConfig,
    PerfectFractionalMatching,
    _redistribute_rows,
    fourcycle_shift,
    heavy_mass,
    matching_entropy,
    matching_minus_set,
    max_entropy_matching,
    max_shift,
    normality,
    normalize_to_b,
    parse_pfm_text,
    rebalance_after_removal,
    vertex_entropy,
    write_pfm_text,
)


def scaled_random_pfm(rng, g: Digraph) -> PerfectFractionalMatching:
    """A valid (generally non-optimal) matching: scale a random support
    weighting to doubly stochastic form."""
    mask = np.zeros((g.n, g.n))
    for u, v in g.edges:
        mask[u, v] = 1.0
    w = mask * rng.uniform(0.5, 2.0, size=(g.n, g.n))
    for _ in range(5000):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
        res = max(
            np.abs(w.sum(axis=1) - 1).max(), np.abs(w.sum(axis=0) - 1).max()
        )
        if res < 1e-12:
            break
    return PerfectFractionalMatching(g, w)


def projected_gradient_entropy(g: Digraph, steps: int = 4000) -> float:
    """Independent oracle: projected gradient ascent of the entropy over
    the row/column unit-sum polytope restricted to the support."""
    arcs = sorted(g.edges)
    n, m = g.n, len(arcs)
    A = np.zeros((2 * n, m))
    for j, (u, v) in enumerate(arcs):
        A[u, j] = 1.0
        A[n + v, j] = 1.0
    b = np.ones(2 * n)
    pinv = np.linalg.pinv(A @ A.T)
    proj = np.eye(m) - A.T @ pinv @ A
    x = A.T @ pinv @ b  # minimum-norm feasible point
    if x.min() <= 0:
        # fall back to a strictly interior feasible start
        x0 = np.full(m, 1.0 / g.mask.sum(axis=1).max())
        x = x0 + proj @ (x - x0)
        assert x.min() > 0, "oracle could not find an interior start"
    eta = 0.1
    for _ in range(steps):
        grad = -(np.log2(x) + math.log2(math.e))
        d = proj @ grad
        step = eta
        while (x + step * d).min() <= 1e-12:
            step /= 2
        x_new = x + step * d
        x = x_new
    return float(-(x * np.log2(x)).sum())


def test_matching_entropy_symmetric_values():
    for n, expect in ((4, 4 * math.log2(3)), (6, 6 * math.log2(5))):
        g = complete_digraph(n)
        w = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(w, 0.0)
        x = PerfectFractionalMatching(g, w)
        assert matching_entropy(x) == pytest.approx(expect, abs=1e-12)


def test_forced_cycle_entropy_zero():
    g = directed_cycle(3)
    w = np.zeros((3, 3))
    for u, v in g.edges:
        w[u, v] = 1.0
    x = PerfectFractionalMatching(g, w)
    assert matching_entropy(x) == 0.0


def test_residual_is_the_worst_unit_sum_deviation():
    rng = np.random.default_rng(27)
    g = random_dense_digraph(rng, 30, min_deg=19)
    x, _ = max_entropy_matching(g)
    removed = rng.choice(30, size=5, replace=False).tolist()
    keep = [v for v in range(30) if v not in removed]
    a_out = [v for v in g.out_adj[removed[0]] if v in keep]
    a_in = [v for v in g.in_adj[removed[0]] if v in keep]
    y = rebalance_after_removal(x, removed, attach_out=a_out, attach_in=a_in).matching
    z = parse_pfm_text(write_pfm_text(y))
    for m in (x, y, z):
        w = m.weights
        assert m.residual == max(
            np.abs(w.sum(axis=1) - 1.0).max(), np.abs(w.sum(axis=0) - 1.0).max()
        )


def test_matching_entropy_is_computed_once():
    x, _ = max_entropy_matching(random_dense_digraph(np.random.default_rng(28), 20, 12))
    w = x.weights[x.weights > 0]
    h = matching_entropy(x)
    assert h == float(-(w * np.log2(w)).sum())
    assert matching_entropy(x) is h


def test_invalid_matching_rejected():
    g = complete_digraph(3)
    w = np.full((3, 3), 0.7)
    np.fill_diagonal(w, 0.0)
    with pytest.raises(InputError):
        PerfectFractionalMatching(g, w)


def test_vertex_and_subset_entropy():
    g = complete_digraph(4)
    w = np.full((4, 4), 1.0 / 3)
    np.fill_diagonal(w, 0.0)
    x = PerfectFractionalMatching(g, w)
    assert vertex_entropy(x, 0, "out") == pytest.approx(math.log2(3))
    total_out = sum(vertex_entropy(x, v, "out") for v in range(4))
    total_in = sum(vertex_entropy(x, v, "in") for v in range(4))
    h = matching_entropy(x)
    assert total_out == pytest.approx(h) and total_in == pytest.approx(h)
    # K_5's max-entropy matching gives each of its 20 arcs weight 1/4, and
    # each arc 0.5 bits, so each vertex has 2 bits a side and the matching 10
    g5 = complete_digraph(5)
    x5, _ = max_entropy_matching(g5)
    assert x5.weights[g5.mask] == pytest.approx(np.full(20, 0.25))
    for v in range(5):
        assert vertex_entropy(x5, v, "out") == pytest.approx(2.0)
        assert vertex_entropy(x5, v, "in") == pytest.approx(2.0)
    assert matching_entropy(x5) == pytest.approx(10.0)


def test_normality_examples():
    g = complete_digraph(4)
    w = np.full((4, 4), 1.0 / 3)
    np.fill_diagonal(w, 0.0)
    rep = normality(PerfectFractionalMatching(g, w))
    assert rep.b_min == pytest.approx(4 / 3)
    c = directed_cycle(3)
    wc = np.zeros((3, 3))
    for u, v in c.edges:
        wc[u, v] = 1.0
    repc = normality(PerfectFractionalMatching(c, wc))
    assert repc.b_min == pytest.approx(3.0)
    assert not repc.support_gaps


def test_normality_support_gap():
    g = complete_digraph(3)
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    rep = normality(PerfectFractionalMatching(g, w))
    assert rep.b_min == math.inf
    assert (0, 2) in rep.support_gaps


def test_solver_symmetric_hosts():
    x, cert = max_entropy_matching(complete_digraph(6))
    assert matching_entropy(x) == pytest.approx(6 * math.log2(5), abs=1e-6)
    assert x.residual <= 1e-9
    assert abs(cert.dual_gap) <= 1e-8
    c = directed_cycle(5)
    xc, _ = max_entropy_matching(c)
    assert matching_entropy(xc) == pytest.approx(0.0, abs=1e-9)


def test_dual_gap_flags_factors_stopped_early():
    # two scaling rounds leave row sums 9e-4 from 1; the gap sees it
    g = random_dense_digraph(np.random.default_rng(3), 30, 17)
    _, early = max_entropy_matching(g, tol=1e-2)
    _, done = max_entropy_matching(g)
    assert early.iterations == 2
    assert abs(early.dual_gap) > 1e-5
    assert abs(done.dual_gap) <= 1e-8


def test_solver_regular_host_uniform():
    # 3-regular circulant digraph: every weight must be 1/3
    n = 7
    g = Digraph(n, [(v, (v + d) % n) for v in range(n) for d in (1, 2, 3)])
    x, _ = max_entropy_matching(g)
    assert x.weights[g.mask] == pytest.approx(np.full(g.m, 1 / 3), abs=1e-9)
    assert matching_entropy(x) == pytest.approx(n * math.log2(3), abs=1e-8)


def test_solver_matches_projected_gradient_oracle():
    rng = np.random.default_rng(11)
    for trial in range(5):
        g = random_dense_digraph(rng, 8, min_deg=5)
        x, _ = max_entropy_matching(g)
        h = matching_entropy(x)
        h_oracle = projected_gradient_entropy(g)
        assert h == pytest.approx(h_oracle, abs=1e-5)


def test_solver_dominates_other_matchings():
    rng = np.random.default_rng(12)
    g = random_dense_digraph(rng, 9, min_deg=6)
    x, _ = max_entropy_matching(g)
    h = matching_entropy(x)
    for _ in range(10):
        other = scaled_random_pfm(rng, g)
        assert matching_entropy(other) <= h + 1e-6


def test_solver_failure_on_infeasible_support():
    # the host has the perfect matching 0->3, 1->2, 2->1, 3->0, but 1's only
    # arc is 1->2, so the arcs 0->2 and 3->2 lie on no perfect matching: it
    # lacks total support, and the scaling drives them to zero without
    # converging
    g = Digraph(4, [(0, 2), (1, 2), (2, 0), (2, 1), (3, 0), (0, 3), (3, 2)])
    with pytest.raises((ProcedureError, InputError)):
        max_entropy_matching(g, max_iters=500)


def test_fourcycle_shift_example():
    g = complete_digraph(4)
    # embed the 4-cycle weights in a valid matching on K4<->
    w = np.array([
        [0.0, 0.5, 0.4, 0.1],
        [0.3, 0.0, 0.3, 0.4],
        [0.4, 0.1, 0.0, 0.5],
        [0.3, 0.4, 0.3, 0.0],
    ])
    x = PerfectFractionalMatching(g, w)
    # cycle (v,w,u,z) = (0,1,2,3): losers (0,1),(2,3), gainers (2,1),(0,3)
    before_local = sum(
        -p * math.log2(p) for p in (0.5, 0.1, 0.5, 0.1) if p > 0
    )
    shifted = fourcycle_shift(x, (0, 1, 2, 3), 0.2)
    assert shifted.weights[0, 1] == pytest.approx(0.3)
    assert shifted.weights[2, 3] == pytest.approx(0.3)
    assert shifted.weights[2, 1] == pytest.approx(0.3)
    assert shifted.weights[0, 3] == pytest.approx(0.3)
    after_local = sum(
        -p * math.log2(p) for p in (0.3, 0.3, 0.3, 0.3)
    )
    assert after_local > before_local
    assert matching_entropy(shifted) >= matching_entropy(x)
    # row and column sums preserved exactly
    assert np.allclose(shifted.weights.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(shifted.weights.sum(axis=0), 1.0, atol=1e-15)


def test_fourcycle_shift_identity_and_rejections():
    g = complete_digraph(4)
    w = np.full((4, 4), 1.0 / 3)
    np.fill_diagonal(w, 0.0)
    x = PerfectFractionalMatching(g, w)
    same = fourcycle_shift(x, (0, 1, 2, 3), 0.0)
    assert np.array_equal(same.weights, x.weights)
    # symmetric weights: any positive alpha breaks the product inequality
    with pytest.raises(InputError):
        fourcycle_shift(x, (0, 1, 2, 3), 0.1)
    with pytest.raises(InputError):
        fourcycle_shift(x, (0, 1, 0, 3), 0.0)
    with pytest.raises(InputError):
        fourcycle_shift(x, (0, 1, 2, 3), -0.1)


def test_random_shifts_preserve_matching_and_entropy():
    rng = np.random.default_rng(13)
    g = complete_digraph(6)
    x, _ = max_entropy_matching(g)
    x = scaled_random_pfm(rng, g)
    for _ in range(500):
        v, u = rng.choice(6, size=2, replace=False)
        w0, z = rng.choice(6, size=2, replace=False)
        cyc = (int(v), int(w0), int(u), int(z))
        if len({cyc[0], cyc[1]}) < 2 or cyc[0] == cyc[1]:
            continue
        if not all(
            x.host.has_arc(a, b)
            for a, b in ((cyc[0], cyc[1]), (cyc[2], cyc[3]),
                         (cyc[2], cyc[1]), (cyc[0], cyc[3]))
        ):
            continue
        alpha = max_shift(x, cyc) * rng.random()
        if alpha <= 0:
            continue
        h_before = matching_entropy(x)
        x = fourcycle_shift(x, cyc, alpha)
        assert matching_entropy(x) >= h_before - 1e-12


def test_heavy_mass():
    g = complete_digraph(6)
    x, _ = max_entropy_matching(g)
    assert heavy_mass(x, 2.0) == 0.0
    with pytest.raises(InputError):
        heavy_mass(x, 1.0)
    # forced cycle: hypothesis fails, mass still reported
    c = directed_cycle(4)
    wc = np.zeros((4, 4))
    for u, v in c.edges:
        wc[u, v] = 1.0
    xc = PerfectFractionalMatching(c, wc)
    assert heavy_mass(xc, 2.0) == pytest.approx(4.0)


def test_heavy_mass_bound_on_dense_hosts():
    rng = np.random.default_rng(14)
    n, b = 30, 8.0
    for _ in range(30):
        g = random_dense_digraph(rng, n, min_deg=20)
        x, _ = max_entropy_matching(g)
        if matching_entropy(x) >= n * math.log2(n / 2):
            mass = heavy_mass(x, b)
            assert mass <= 4 * n / math.log2(b) + 1e-9


def test_normalize_identity_cases():
    g = complete_digraph(8)
    x, _ = max_entropy_matching(g)
    cfg = NormalizationConfig(b=8 / 7 + 1e-9, lam=0.5)
    out, rep = normalize_to_b(x, cfg)
    assert not rep.blended and rep.rounds == 0
    assert np.array_equal(out.weights, x.weights)


def test_normalize_heavy_matching():
    rng = np.random.default_rng(15)
    n, b = 20, 6.0
    g = complete_digraph(n)
    # hand-built matching with one very heavy arc
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    heavy = 0.5
    w[0, 1] = heavy
    w[0, 2:] -= (heavy - 1.0 / (n - 1)) / (n - 2)
    w[2:, 1] -= (heavy - 1.0 / (n - 1)) / (n - 2)
    spread = (heavy - 1.0 / (n - 1)) / (n - 2)
    for i in range(2, n):
        for j in range(2, n):
            if i != j:
                w[i, j] += 2 * spread / (n - 3)
    w = np.maximum(w, 0)
    w /= w.sum(axis=1, keepdims=True)
    for _ in range(2000):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    for _ in range(2000):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
    m = PerfectFractionalMatching(g, w)
    h_m = matching_entropy(m)
    cfg = NormalizationConfig(b=b, lam=0.4)
    out, rep = normalize_to_b(m, cfg)
    assert normality(out).within(b, slack=1e-6)
    assert rep.entropy_after >= (1 - cfg.lam) * h_m - 1e-9
    assert rep.entropy_loss <= 0.5


def test_rebalance_identity():
    g = complete_digraph(5)
    x, _ = max_entropy_matching(g)
    res = rebalance_after_removal(x, [])
    assert res.matching is x
    assert res.report.meets_target


def test_rebalance_symmetric_removal():
    n = 9
    g = complete_digraph(n)
    x, _ = max_entropy_matching(g)
    keep = list(range(2, n))
    res = rebalance_after_removal(
        x, [0, 1], attach_out=keep, attach_in=keep
    )
    z = res.matching
    assert z.n == 8
    assert z.weights[z.host.mask] == pytest.approx(np.full(z.host.m, 1 / 7), abs=1e-9)
    assert res.new_vertex == 7


def test_rebalance_random_dense():
    rng = np.random.default_rng(16)
    g = random_dense_digraph(rng, 40, min_deg=26)
    x, _ = max_entropy_matching(g)
    removed = sorted(rng.choice(40, size=7, replace=False).tolist())
    survivors = [v for v in range(40) if v not in removed]
    a_out = [v for v in g.out_adj[removed[0]] if v in survivors]
    a_in = [v for v in g.in_adj[removed[0]] if v in survivors]
    res = rebalance_after_removal(x, removed, attach_out=a_out, attach_in=a_in)
    z = res.matching
    assert np.abs(z.weights.sum(axis=1) - 1).max() <= 1e-9
    assert np.abs(z.weights.sum(axis=0) - 1).max() <= 1e-9
    assert math.isfinite(res.report.slack)


def test_rebalanced_host_is_the_induced_host():
    # the pipeline's fallback host is g induced on the survivors and the
    # anchor; it must equal the host rebalancing builds from its mask
    rng = np.random.default_rng(23)
    g = random_dense_digraph(rng, 30, min_deg=19)
    x, _ = max_entropy_matching(g)
    removed = rng.choice(30, size=6, replace=False).tolist()
    anchor = removed[0]
    keep = [v for v in range(30) if v not in removed]
    a_out = [v for v in g.out_adj[anchor] if v in keep]
    a_in = [v for v in g.in_adj[anchor] if v in keep]
    res = rebalance_after_removal(x, removed, attach_out=a_out, attach_in=a_in)
    h = res.matching.host
    assert h == induced_subgraph(g, keep + [anchor])


def test_rebalance_memory_stays_near_the_host_mask():
    # K_600's float weights take 2.7 MiB and its bool mask 0.34 MiB
    g = complete_digraph(600)
    x, _ = max_entropy_matching(g)
    rebalance_after_removal(x, [0])
    tracemalloc.start()
    try:
        rebalance_after_removal(x, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_rebalance_semidegree_collapse():
    g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                    (3, 0), (0, 3), (0, 2), (2, 0), (1, 3), (3, 1)])
    x, _ = max_entropy_matching(g)
    # removing 1 and 3 leaves 0 and 2 mutually adjacent: fine; removing
    # 1, 2, 3 is rejected earlier; craft a collapse via a sparse host
    sparse = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                         (3, 0), (0, 3)])
    xs, _ = max_entropy_matching(sparse)
    with pytest.raises(ProcedureError) as info:
        rebalance_after_removal(xs, [1, 3])
    assert info.value.diagnostics == {"vertex": 0}
    # the error names the first vertex, in new ids, that lost either side:
    # removing 3 from the 5-cycle leaves new vertex 2 without out-arcs;
    # removing 0 leaves new vertex 0 without in-arcs (and 3 without out)
    c, _ = max_entropy_matching(directed_cycle(5))
    for removed, vertex in (([3], 2), ([0], 0)):
        with pytest.raises(ProcedureError) as info:
            rebalance_after_removal(c, removed)
        assert str(info.value).startswith("semidegree collapse")
        assert info.value.diagnostics == {"vertex": vertex}


def test_matching_minus_set_empty():
    g = complete_digraph(8)
    z, rep = matching_minus_set(g, [], b=4.0)
    assert matching_entropy(z) == pytest.approx(rep.host_entropy, abs=1e-8)


def test_matching_minus_set_complete():
    g = complete_digraph(10)
    z, rep = matching_minus_set(g, [4], b=4.0)
    assert z.n == 9
    assert matching_entropy(z) == pytest.approx(9 * math.log2(8), abs=1e-6)


def test_matching_minus_set_random():
    rng = np.random.default_rng(17)
    g = random_dense_digraph(rng, 50, min_deg=32)
    with pytest.warns(UserWarning):
        z, rep = matching_minus_set(g, [0, 1, 2, 3], b=6.0)
    assert normality(z).within(6.0, slack=1e-6)
    # loss accounting: within 4 log n + b^2 * 4 of the host entropy
    assert rep.loss <= 4 * math.log2(50) + 36.0 * 4


def test_pfm_roundtrip_bit_faithful():
    rng = np.random.default_rng(18)
    g = random_dense_digraph(rng, 12, min_deg=8)
    x, _ = max_entropy_matching(g)
    back = parse_pfm_text(write_pfm_text(x))
    assert back.host == g
    assert np.array_equal(back.weights, x.weights)


def test_write_pfm_text_bytes():
    # arcs ascending, each weight in 17 significant digits
    w = np.zeros((4, 4))
    for v in range(4):
        w[v, (v + 1) % 4], w[v, (v + 2) % 4], w[v, (v + 3) % 4] = 1 / 3, 1 / 6, 1 / 2
    x = PerfectFractionalMatching(complete_digraph(4), w)
    third, sixth = "0.33333333333333331", "0.16666666666666666"
    assert write_pfm_text(x) == "".join(f"{line}\n" for line in [
        "pfm 4 12",
        f"0 1 {third}", f"0 2 {sixth}", "0 3 0.5",
        "1 0 0.5", f"1 2 {third}", f"1 3 {sixth}",
        f"2 0 {sixth}", "2 1 0.5", f"2 3 {third}",
        f"3 0 {third}", f"3 1 {sixth}", "3 2 0.5",
    ])


def test_pfm_parse_checks_the_arc_count_before_sizing_the_matrices():
    # a million-vertex weight matrix would take 7.28 TiB: the short body is
    # refused first
    with pytest.raises(ParseError, match=r"^line 1: expected 1 arc lines, found 0$"):
        parse_pfm_text("pfm 1000000 1\n")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_pfm_rejects_weights_that_are_not_finite(bad):
    g = complete_digraph(3)
    w = np.full((3, 3), 0.5)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = float(bad)
    for tol in (1e-9, math.inf):
        with pytest.raises(InputError, match="finite"):
            PerfectFractionalMatching(g, w, tol=tol)
    with pytest.raises(InputError, match="finite"):
        parse_pfm_text(f"pfm 2 2\n0 1 {bad}\n1 0 1\n")


@pytest.mark.parametrize("text,message", [
    ("pfm -1 0\n", "line 1: negative vertex/arc count"),
    ("pfm 2 -1\n", "line 1: negative vertex/arc count"),
    ("pfm 2 2\n0 1 nan\n1 0 1\n", "line 2: arc weights must be finite"),
    ("pfm 2 2\n0 1 1\n\n1 0 inf\n", "line 4: arc weights must be finite"),
    ("pfm 2 2\n0 1 -inf\n1 0 1\n", "line 2: negative weight"),
], ids=["negative-n", "negative-m", "nan", "inf", "minus-inf"])
def test_pfm_parse_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_pfm_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("pfm 3 3\n0 1 1\n1 2 1\n2 0 0.25\n\n",
     "unit-sum invariant violated at vertex 2 (out): max residual 7.500e-01 > 1e-09"),
    ("pfm 2 2\n0 1 0.5\n1 0 1\n",
     "unit-sum invariant violated at vertex 0 (out): max residual 5.000e-01 > 1e-09"),
    ("pfm 3 3\n0 1 1\n1 2 1\n2 1 1\n",
     "unit-sum invariant violated at vertex 0 (in): max residual 1.000e+00 > 1e-09"),
    ("pfm 1 0\n",
     "unit-sum invariant violated at vertex 0 (out): max residual 1.000e+00 > 1e-09"),
], ids=["blank-last-line", "half-row", "in-sum", "no-arcs"])
def test_pfm_refusal_of_the_whole_matching_names_no_line(text, message):
    with pytest.raises(InputError) as exc:
        parse_pfm_text(text)
    assert not isinstance(exc.value, ParseError)
    assert str(exc.value) == message


def test_pfm_parse_errors_count_blank_lines():
    with pytest.raises(ParseError) as exc:
        parse_pfm_text("pfm 2 2\n0 1 1\n\n\n1 0 -1\n")
    assert str(exc.value) == "line 5: negative weight"


# ---------------------------------------------------------------------------
# loop references for the vectorised kernels: the arithmetic is unchanged,
# so results must agree bit for bit
# ---------------------------------------------------------------------------

def loop_redistribute_rows(w, mask, tol, max_passes):
    n = w.shape[0]
    passes = 0
    while passes < max_passes:
        s = w.sum(axis=1)
        if np.abs(s - 1.0).max() <= tol:
            return passes
        takers = [t for t in range(n) if s[t] < 1.0 - tol / 4]
        donors = [d for d in range(n) if s[d] > 1.0 + tol / 4]
        moved = 0.0
        for t in takers:
            need = 1.0 - s[t]
            for d in donors:
                avail = s[d] - 1.0
                # a row within tol / 4 of unit sum neither takes nor gives
                if avail <= tol / 4 or need <= tol / 4:
                    continue
                common = [
                    z for z in range(n)
                    if mask[d, z] and mask[t, z] and w[d, z] > 0
                ]
                if not common:
                    continue
                share = min(need, avail) / len(common)
                for z in common:
                    delta = min(share, w[d, z])
                    w[d, z] -= delta
                    w[t, z] += delta
                    moved += delta
                    s[d] -= delta
                    s[t] += delta
                need = 1.0 - s[t]
        passes += 1
        if moved <= tol / 16:
            break
    s = w.sum(axis=1)
    if np.abs(s - 1.0).max() > tol:
        raise ProcedureError(
            "row redistribution stalled",
            residual=float(np.abs(s - 1.0).max()), passes=passes,
        )
    return passes


def loop_normality(x):
    n = x.n
    gaps = []
    b_min = 1.0
    per_arc = []
    for u, v in sorted(x.host.edges):
        w = x.weights[u, v]
        if w == 0.0:
            gaps.append((u, v))
            continue
        b_e = max(n * w, 1.0 / (n * w))
        per_arc.append((b_e, (u, v)))
        b_min = max(b_min, b_e)
    if gaps:
        return math.inf, tuple(gaps), tuple(gaps)
    attaining = tuple(e for b_e, e in per_arc if b_e >= b_min * (1 - 1e-12))
    return b_min, attaining, ()


def _mask(g: Digraph) -> np.ndarray:
    mask = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        mask[u, v] = True
    return mask


def _shrunken_weights(seed: int, n: int, drop: int):
    """Surviving max-entropy weights after deleting vertices, rescaled to
    total n - drop: the input rebalancing hands to the row repair."""
    rng = np.random.default_rng(seed)
    g = random_dense_digraph(rng, n, min_deg=int(0.6 * n))
    x, _ = max_entropy_matching(g)
    keep = sorted(rng.choice(n, size=n - drop, replace=False).tolist())
    mask = _mask(g)[np.ix_(keep, keep)]
    w = np.array(x.weights[np.ix_(keep, keep)])
    w *= len(keep) / w.sum()
    return w, mask


def _random_weights(seed: int, n: int = 20):
    """Random support weights rescaled to total n: rows and columns miss
    their unit sums by up to about half, so some repairs take two passes."""
    rng = np.random.default_rng(seed)
    g = random_dense_digraph(rng, n, min_deg=12)
    mask = _mask(g)
    w = mask * rng.uniform(0.2, 2.0, size=(n, n))
    w *= n / w.sum()
    return w, mask


def _outcome(fn, w, mask):
    try:
        return fn(w, mask, 1e-9, 500)
    except ProcedureError as exc:
        return str(exc), sorted(exc.diagnostics.items())


@pytest.mark.parametrize("make,seed", [
    (make, seed) for make in ("shrunken", "random") for seed in range(4)
])
def test_redistribute_rows_matches_loop_reference(make, seed):
    if make == "shrunken":
        w, mask = _shrunken_weights(seed, 30 + 5 * seed, 3 + seed)
    else:
        w, mask = _random_weights(seed)
    a, b = w.copy(), w.copy()
    assert _outcome(_redistribute_rows, a, mask) == _outcome(
        loop_redistribute_rows, b, mask
    )
    assert a.tobytes() == b.tobytes()
    # the column repair runs on transposed views
    assert _outcome(_redistribute_rows, a.T, mask.T) == _outcome(
        loop_redistribute_rows, b.T, mask.T
    )
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_redistribute_rows_leaves_settled_rows_alone(seed):
    # a row that starts a pass within tol / 4 of unit sum is neither a
    # taker nor a donor, so no cell of it changes in that pass; every
    # third row is settled before the first pass, the rest keep the total
    tol = 1e-9
    w, mask = _shrunken_weights(seed, 30 + 5 * seed, 3 + seed)
    third = np.arange(len(w)) % 3 == 0
    w[third] /= w[third].sum(axis=1, keepdims=True)
    w[~third] *= (~third).sum() / w[~third].sum()
    for a, m in ((w, mask), (w.T, mask.T)):
        for _ in range(10):
            before = a.copy()
            settled = np.abs(a.sum(axis=1) - 1.0) <= tol / 4
            try:
                passes = _redistribute_rows(a, m, tol, max_passes=1)
            except ProcedureError:  # not yet within tol after one pass
                passes = 1
            assert np.array_equal(a[settled], before[settled])
            if passes == 0:
                break
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 2 * tol
    assert np.abs(w.sum(axis=0) - 1.0).max() <= tol


def test_redistribute_rows_stall_matches_loop_reference():
    # rows with no common column to trade in stall identically
    mask = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=bool)
    w = np.array([[0.5, 0.0, 0.0], [0.0, 0.75, 0.75], [0.0, 0.5, 0.5]])
    a, b = w.copy(), w.copy()
    out = _outcome(loop_redistribute_rows, b, mask)
    assert out[0] == "row redistribution stalled"
    assert _outcome(_redistribute_rows, a, mask) == out
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_normality_matches_loop_reference(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_dense_digraph(rng, 16 + 4 * seed, min_deg=10 + 3 * seed)
    for x in (max_entropy_matching(g)[0], scaled_random_pfm(rng, g)):
        rep = normality(x)
        assert (rep.b_min, rep.attaining, rep.support_gaps) == loop_normality(x)


def test_normality_gaps_match_loop_reference():
    # half a 1-shift plus half a 2-shift on K_5 leaves the other arcs empty
    w = np.zeros((5, 5))
    for i in range(5):
        w[i, (i + 1) % 5] += 0.5
        w[i, (i + 2) % 5] += 0.5
    y = PerfectFractionalMatching(complete_digraph(5), w)
    rep = normality(y)
    assert len(rep.support_gaps) == 10
    assert (rep.b_min, rep.attaining, rep.support_gaps) == loop_normality(y)
