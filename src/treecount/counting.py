"""Copy counting: exact counts, unbiased estimation, lower bounds.

A copy of a rooted oriented tree in a digraph is an injective vertex map
sending every tree edge to a host arc in the orientation the edge demands.
Counts are labelled (maps) or unlabelled (labelled divided by the number
of orientation-respecting automorphisms of the tree).

Exact counts in hosts of at most 16 vertices come from inclusion–exclusion
over host vertex subsets (``_count_by_subsets``), unless a walk-count bound
shows that the search is shorter; larger hosts, and those, are counted by
the BFS-order backtracking search (``_embeddings``), which also serves
placement and existence checks.  The subset DP runs once, for the whole
tree, when that bound also keeps the search's visits within its budget,
and once per BFS prefix otherwise, to total them.  It runs in float64,
through BLAS, up to 14 vertices, where every value it holds is an integer
below 2**53, and in int64 at 15 and 16.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import matching
from .errors import InputError, ProcedureError
from .graphs import Digraph, epsilon_of
from .matching import (
    SOLVER_TOL,
    PerfectFractionalMatching,
    matching_entropy,
    normality,  # noqa: F401  -- the benchmark's tracer wraps counting.normality
)
from .randtree import (
    _batch_roots,
    _self_avoiding_draws,
    sample_trees_batch,  # noqa: F401  -- the benchmark's tracer wraps counting.sample_trees_batch
)
from .trees import DOWN, RootedOrientedTree, automorphism_count

LOG2_E = math.log2(math.e)
_DEFAULT_BUDGET = 50_000_000
_Z_95 = 1.959963984540054    # two-sided: P(|Z| <= z) = 0.95


@dataclass(frozen=True)
class CountReport:
    labelled: float
    unlabelled: Optional[float]
    method: str                              # "brute" or "estimator"
    ci: Optional[tuple[float, float, float]] = None   # (low, high, confidence)
    aut: Optional[int] = None    # the divisor of unlabelled, when there is one


def _embeddings(
    g: Digraph,
    t: RootedOrientedTree,
    roots: Iterable[int],
    budget: Optional[int] = None,
) -> Iterator[list[int]]:
    """Every copy of t in g with its root image in ``roots``.

    Backtracking in BFS order, without recursion: the roots in the order
    given, each tree vertex's candidates in ``out_adj``/``in_adj`` order of
    its parent's image.  Each copy is yielded as the list of host images in
    ``t.bfs_order``, one list updated in place, so copy it to keep it.
    Every placed non-root vertex counts one visit, across all roots; past
    ``budget`` visits the search raises ProcedureError.
    """
    image = [0] * t.n
    last = t.n - 1
    if last == 0:
        for r in roots:
            image[0] = r
            yield image
        return
    # for BFS position i >= 1: the adjacency lists its candidates come
    # from, and the BFS position of its parent
    steps = [None] + [
        (g.out_adj if t.edge_dir[v] == DOWN else g.in_adj, j)
        for v, j in zip(t.bfs_order[1:], t.parent_pos[1:])
    ]
    leaf_adj, leaf_parent = steps[last]
    limit = math.inf if budget is None else budget
    used = [False] * g.n
    visits = 0
    for r in roots:
        image[0] = r
        used[r] = True
        # stack[i - 1] walks the candidates for BFS position i < last; the
        # last position is scanned in place, every free candidate a copy
        stack = [iter(steps[1][0][r])] if last > 1 else []
        i = 1
        while i:
            if i < last:
                for c in stack[-1]:
                    if used[c]:
                        continue
                    visits += 1
                    if visits > limit:
                        raise _budget_exceeded(visits)
                    image[i] = c
                    used[c] = True
                    i += 1
                    if i < last:
                        adj, p = steps[i]
                        stack.append(iter(adj[image[p]]))
                    break
                else:
                    # position i is exhausted: free the image before it
                    stack.pop()
                    i -= 1
                    used[image[i]] = False
                continue
            for c in leaf_adj[image[leaf_parent]]:
                if used[c]:
                    continue
                visits += 1
                if visits > limit:
                    raise _budget_exceeded(visits)
                image[i] = c
                yield image
            # the last position is exhausted too
            i -= 1
            used[image[i]] = False


def _budget_exceeded(visits: int) -> ProcedureError:
    return ProcedureError(
        "backtracking budget exceeded; partial count invalid", visits=visits
    )


# Largest host order n with n * (n - 1)**(n - 1) < 2**63: no homomorphism
# count of an n-vertex tree into an n-vertex host overflows int64.
_SUBSET_MAX_N = 16
# Largest n with n * (n - 1)**(n - 1) < 2**53: float64 holds every value of
# the tree DP exactly, and sums and products of such integers stay exact in
# any order, so the DP may run through BLAS.
_FLOAT_MAX_N = 14


def _dp_dtype(n: int) -> type:
    """The tree DP's dtype in an n-vertex host: float64 where it is exact,
    int64 above."""
    return np.float64 if n <= _FLOAT_MAX_N else np.int64


def _prefix_steps(g: Digraph, t: RootedOrientedTree) -> list:
    """For BFS position i >= 1 of t: its parent's position, and the 0/1
    matrix that takes its host-vertex vector to its parent's (A.T for a
    DOWN edge, A for UP), so that ``f @ step`` sums f over the arcs the
    edge may use.  Position 0 has no entry (None).  The matrices have the
    dtype ``_dp_dtype(g.n)``."""
    adj = g.mask.astype(_dp_dtype(g.n))
    return [None] + [
        (j, adj.T if t.edge_dir[v] == DOWN else adj)
        for v, j in zip(t.bfs_order[1:], t.parent_pos[1:])
    ]


def _prefix_homs(rows: np.ndarray, steps: list, m: int) -> np.ndarray:
    """Homomorphisms of the BFS prefix T_m into g[S], per root image.

    ``rows`` holds one 0/1 membership row per host subset S (a single
    all-ones row for S = V(g)), and ``steps`` is ``_prefix_steps(g, t)``,
    of the same dtype.  The tree DP runs bottom-up: each vertex's array is
    its membership times the product of its children's arrays moved
    through their steps.
    """
    acc: list = [None] * m  # acc[i]: membership times i's children so far
    for i in range(m - 1, 0, -1):
        p, step = steps[i]
        f = (rows if acc[i] is None else acc[i]) @ step
        acc[i] = None
        if acc[p] is None:
            f *= rows
            acc[p] = f
        else:
            acc[p] *= f
    return acc[0]


def _visit_bound(g: Digraph, t: RootedOrientedTree, roots: list[int]) -> int:
    """An upper bound on the visits of ``_embeddings(g, t, roots)``.

    Each visit places the last vertex of an injective copy of a BFS prefix
    T_m (m >= 2) of t.  For each m those copies number at most
    hom(T_m, g, roots), the walk count of a one-row tree DP, and at most
    |roots| * P(n - 1, m - 1), the injective maps with the root image in
    ``roots``; the bound sums the smaller of the two.  A bound of at most
    2**g.n, the row count of ``_count_by_subsets``, makes the search the
    cheaper count, as on sparse hosts; dense hosts pass it within a few
    prefixes.  From there the walk-count DPs stop, and the remaining
    prefixes add their caps alone, which still bound the visits for the
    ``budget`` check.  Needs g.n <= _SUBSET_MAX_N.
    """
    n = g.n
    dtype = _dp_dtype(n)
    ones = np.ones(n, dtype=dtype)
    in_roots = np.zeros(n, dtype=dtype)
    in_roots[roots] = 1
    steps = _prefix_steps(g, t)
    bound = 0
    for m in range(2, t.n + 1):
        cap = len(roots) * math.perm(n - 1, m - 1)
        if bound <= 1 << n:
            cap = min(cap, int(_prefix_homs(ones, steps, m) @ in_roots))
        bound += cap
    return bound


def _count_by_subsets(
    g: Digraph, t: RootedOrientedTree, roots: Iterable[int], visits: bool = True
) -> tuple[int, Optional[int]]:
    """(copies of t in g rooted in ``roots``, visits of ``_embeddings``).

    For the BFS prefix T_m of t (its first m vertices in ``t.bfs_order``)
    and every host subset S with |S| <= m, a bottom-up tree DP counts the
    homomorphisms of T_m into g[S] with the root image in ``roots``.  Its
    arrays have one row per subset and one column per host vertex, and a
    child's column vector reaches its parent through the adjacency matrix,
    in the direction of their tree edge.  Inclusion–exclusion over S
    (Karp 1982) then gives the injective ones:

        inj_m = sum_S (-1)^(m-|S|) C(n-|S|, m-|S|) hom(T_m, g[S]).

    The copies of t are inj_k.  The search visits each injective copy of
    each prefix T_2..T_k once, so its visit total is inj_2 + ... + inj_k;
    with ``visits`` false only T_k's DP runs, and the visit total is None.
    Needs g.n <= _SUBSET_MAX_N.
    """
    n, k = g.n, t.n
    roots = list(roots)
    if k == 1:
        return len(roots), 0 if visits else None
    # rows: the subsets of V(g) by size, then by bitmask; the subsets of
    # size s are rows ends[s-1]..ends[s]-1
    dtype = _dp_dtype(n)
    masks = np.arange(1 << n, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(dtype)
    member = member[np.argsort(member.sum(axis=1), kind="stable")]
    ends = list(itertools.accumulate(math.comb(n, s) for s in range(n + 1)))
    in_roots = np.zeros(n, dtype=dtype)
    in_roots[roots] = 1
    steps = _prefix_steps(g, t)
    total = 0
    for m in range(2, k + 1) if visits else [k]:
        hom = _prefix_homs(member[:ends[m]], steps, m) @ in_roots
        hom = hom.astype(np.int64, copy=False)
        # exact sums per subset size: each half sums below 2**48
        starts = [0] + ends[:m]
        lo = np.add.reduceat(hom & 0xFFFFFFFF, starts).tolist()
        hi = np.add.reduceat(hom >> 32, starts).tolist()
        inj = sum(
            (-1) ** (m - s) * math.comb(n - s, m - s) * ((hi[s] << 32) + lo[s])
            for s in range(m + 1)
        )
        total += inj
    return inj, total if visits else None


def brute_budget(g: Digraph) -> Optional[int]:
    """None where the subset DP counts g, as its 2**n rows fix its cost."""
    return None if g.n <= _SUBSET_MAX_N else _DEFAULT_BUDGET


def count_copies_brute(
    g: Digraph,
    t: RootedOrientedTree,
    root_image: Optional[int] = None,
    budget: int = _DEFAULT_BUDGET,
) -> CountReport:
    """Exact labelled count of copies of t in g.

    Hosts of at most 16 vertices are counted by ``_count_by_subsets``:
    inclusion–exclusion over the host's vertex subsets, with one tree DP
    per subset.  At 16 vertices every homomorphism count is at most
    16 * 15**15 < 2**63, so int64 arithmetic is exact; at 17 it no longer
    is, and larger hosts are counted by the backtracking search
    ``_embeddings``.  Up to 14 vertices every count is below 2**53, and
    the DP runs in float64 instead, through BLAS; at 15 and 16 it runs in
    int64.  Small hosts on which ``_visit_bound`` proves that the search
    makes at most 2**n visits, no more than the DP has rows, are counted
    by the search too.  Either way ``budget`` bounds the search's visits.
    When ``_visit_bound`` keeps them within ``budget`` the DP runs for t
    alone; otherwise it runs for every BFS prefix of t, totals the visits
    the search would make, and raises the search's error when they exceed
    ``budget``.
    """
    if t.n > g.n:
        raise InputError(f"tree size {t.n} exceeds host size {g.n}")
    if root_image is not None and not (0 <= root_image < g.n):
        raise InputError(f"root image {root_image} out of range")
    roots = [root_image] if root_image is not None else list(range(g.n))
    if g.n <= _SUBSET_MAX_N and (bound := _visit_bound(g, t, roots)) > 1 << g.n:
        count_visits = budget is not None and bound > budget
        labelled, visits = _count_by_subsets(g, t, roots, count_visits)
        if count_visits and visits > budget:
            raise _budget_exceeded(budget + 1)
    else:
        labelled = 0
        for _ in _embeddings(g, t, roots, budget):
            labelled += 1
    aut = unlabelled = None
    if root_image is None:
        aut = automorphism_count(t, rooted=False, respect_orientation=True)
        if labelled % aut != 0:
            raise ProcedureError(
                "labelled count not divisible by the automorphism count",
                labelled=labelled, aut=aut,
            )
        unlabelled = labelled // aut
    return CountReport(
        labelled=labelled, unlabelled=unlabelled, method="brute", aut=aut
    )


def estimate_copies(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    samples: int,
    seed: int,
) -> CountReport:
    """Unbiased importance-sampling estimate of the labelled copy count.

    Each sample draws a uniform root image and then a random embedding; an
    injective outcome is sampled with probability exactly its transition
    product over n, so 1_{injective} * n * 2^{-log_prob} averages to the
    labelled count.  All samples come from one batch on the stream
    (seed, 0), the batch that ``sample_trees_batch`` draws, but a sample is
    walked only while its images stay distinct (``_self_avoiding_draws``),
    so a zero-weight draw is counted, and refused, only on a sample that
    is still self-avoiding.  The interval is the normal 95% one,
    mean +- z * se, with its low end raised to 0, since no count is
    negative.  When no draw is self-avoiding, the estimate is 0 and the
    interval (0, inf): the draws show only that copies are rare.
    """
    if not x.weights[x.host.mask].all():
        raise InputError(
            "matching has zero-weight arcs; the estimator would be biased"
        )
    roots, rng = _batch_roots(g, x, samples, seed)
    hits, log_probs = _self_avoiding_draws(x, t, roots, rng)
    vals = np.zeros(samples)
    vals[hits] = g.n * np.exp2(-log_probs)
    mean = float(vals.mean())
    if len(hits):
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        ci = (max(0.0, mean - _Z_95 * se), mean + _Z_95 * se, 0.95)
    else:
        # every sample was zero, and a zero spread bounds nothing
        ci = (0.0, math.inf, 0.95)
    aut = automorphism_count(t, rooted=False, respect_orientation=True)
    return CountReport(
        labelled=mean, unlabelled=mean / aut, method="estimator", ci=ci, aut=aut
    )


# ---------------------------------------------------------------------------
# lower-bound formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    n: int
    h: float       # entropy in bits
    eps: float
    aut: int

    def __post_init__(self):
        if self.n < 1 or self.aut < 1 or self.h < 0:
            raise InputError("need n >= 1, aut >= 1, h >= 0")


@dataclass(frozen=True)
class BoundValue:
    log2: float
    value: float


def directed_lower_bound(b: BoundInputs) -> BoundValue:
    """aut^{-1} * 2^{h - n log2(e) - eps n}, computed in log space."""
    log2 = b.h - b.n * LOG2_E - b.eps * b.n - math.log2(b.aut)
    return BoundValue(log2=log2, value=2.0 ** log2 if log2 < 1023 else math.inf)


def undirected_lower_bound(n: int, h_graph: float, eps: float, aut: int) -> BoundValue:
    """aut^{-1} * 2^{2h - n log2(e) - eps n}; doubling the graph entropy
    reduces exactly to the directed formula."""
    return directed_lower_bound(BoundInputs(n=n, h=2.0 * h_graph, eps=eps, aut=aut))


# ---------------------------------------------------------------------------
# Hamilton cycles (undirected, desk scale)
# ---------------------------------------------------------------------------

def count_hamilton_cycles(g: Digraph) -> int:
    """Number of distinct Hamilton cycles of the graph doubly oriented as g.

    A digraph whose mask is not symmetric is refused.
    Held-Karp path counts over Python integers, in O(2^n n^2) steps:
    ``paths[s][v]`` counts the paths that start at vertex 0 and visit
    exactly 0 and the set s of other vertices, ending at v in s (vertex
    v >= 1 is bit v - 1).  A full path whose end is adjacent to 0 closes a
    cycle, and each cycle is closed once per direction.
    """
    if not np.array_equal(g.mask, g.mask.T):
        raise InputError("Hamilton cycles need an undirected graph: a symmetric mask")
    n = g.n
    if n < 3:
        return 0
    m = n - 1
    # each vertex's neighbours other than 0, as a bit set
    nbrs = [sum(1 << (u - 1) for u in g.out_adj[v] if u) for v in range(n)]
    paths = [[0] * m for _ in range(1 << m)]
    for v in range(m):
        if nbrs[0] >> v & 1:
            paths[1 << v][v] = 1
    for s, row in enumerate(paths):
        for v, c in enumerate(row):
            if c:
                free = nbrs[v + 1] & ~s
                while free:
                    low = free & -free
                    paths[s | low][low.bit_length() - 1] += c
                    free ^= low
    return sum(c for v, c in enumerate(paths[-1]) if nbrs[0] >> v & 1) // 2


# ---------------------------------------------------------------------------
# end-to-end bound experiments
# ---------------------------------------------------------------------------

def bound_note(g: Digraph, t: RootedOrientedTree) -> str:
    """The hypotheses of the bound that (g, t) fails, as a note; "" if none.

    The bound is proved for spanning trees in hosts of minimum semidegree
    above n/2.
    """
    notes = []
    if epsilon_of(g) <= 0:
        notes.append("degree hypothesis unmet; bound is informational only")
    if t.n < g.n:
        notes.append("tree is not spanning; bound is informational only")
    return "; ".join(notes)


def bound_entropy(
    g: Digraph, t: RootedOrientedTree, tol: float = SOLVER_TOL
) -> tuple[float, str]:
    """h(G) for the bound on copies of t in g, and the bound's note.

    An exact count needs no matching, so a solver failure does not stop
    it: the bound is then evaluated at h = 0, and the note says why.
    """
    note = bound_note(g, t)
    try:
        # through the module, so that a wrapper installed there sees the solve
        x, _ = matching.max_entropy_matching(g, tol=tol)
    except ProcedureError as exc:
        failed = f"entropy solver failed ({exc}); bound evaluated at h = 0"
        return 0.0, f"{note}; {failed}" if note else failed
    return matching_entropy(x), note


@dataclass(frozen=True)
class BoundExperiment:
    n: int
    m_edges: int
    h_bits: float
    aut: int
    count: float
    bound_log2: float
    bound_value: float
    ratio_log2: float
    holds: bool
    note: str


def verify_bound_experiment(
    g: Digraph, t: RootedOrientedTree, eps: float = 0.0
) -> BoundExperiment:
    """Compare the exact unlabelled copy count with the entropy bound."""
    h, note = bound_entropy(g, t)
    rep = count_copies_brute(g, t, budget=brute_budget(g))
    count, aut = rep.unlabelled, rep.aut
    bound = directed_lower_bound(BoundInputs(n=g.n, h=h, eps=eps, aut=aut))
    ratio = (math.log2(count) - bound.log2) if count > 0 else -math.inf
    return BoundExperiment(
        n=g.n, m_edges=g.m, h_bits=h, aut=aut, count=count,
        bound_log2=bound.log2, bound_value=bound.value,
        ratio_log2=ratio, holds=count >= bound.value, note=note,
    )


def hamilton_cycle_experiment(g: Digraph, eps: float = 0.0) -> BoundExperiment:
    """Hamilton cycles of the graph doubly oriented as g, against the doubled-entropy bound."""
    count = count_hamilton_cycles(g)
    x, _ = matching.max_entropy_matching(g)
    h_graph = matching_entropy(x) / 2.0
    unmet = epsilon_of(g) <= 0
    note = "degree hypothesis unmet; bound is informational only" if unmet else ""
    aut = 2 * g.n
    bound = undirected_lower_bound(g.n, h_graph, eps, aut)
    ratio = (math.log2(count) - bound.log2) if count > 0 else -math.inf
    return BoundExperiment(
        n=g.n, m_edges=g.m // 2, h_bits=h_graph, aut=aut, count=count,
        bound_log2=bound.log2, bound_value=bound.value,
        ratio_log2=ratio, holds=count >= bound.value, note=note,
    )


def experiments_to_csv(rows: Iterable[BoundExperiment]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "m", "h_bits", "aut", "count", "bound_log2", "ratio_log2", "holds"]
    )
    for r in rows:
        writer.writerow([
            r.n, r.m_edges, f"{r.h_bits:.17g}", r.aut, r.count,
            f"{r.bound_log2:.17g}", f"{r.ratio_log2:.17g}", int(r.holds),
        ])
    return buf.getvalue()


def count_report_to_dict(rep: CountReport) -> dict:
    out = {
        "labelled": rep.labelled,
        "unlabelled": rep.unlabelled,
        "method": rep.method,
    }
    if rep.ci is not None:
        out["ci"] = {"low": rep.ci[0], "high": rep.ci[1], "confidence": rep.ci[2]}
    return out
