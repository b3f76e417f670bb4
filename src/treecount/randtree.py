"""Branching random walks: embedding a rooted oriented tree in a digraph.

Images are drawn in BFS order; each child image is sampled from the parent
image's matching weights, using outgoing weights when the tree edge points
toward the child and incoming weights otherwise.  Siblings are independent
given the parent image, so exact marginals and the exact entropy of the
whole random embedding follow by forward propagation.

One kernel, ``_draw``, makes every draw: ``sample_tree`` passes it one
root and ``sample_trees_batch`` one root per sample.  Per tree edge it
sorts the samples by parent image and finds the children of each parent
by one binary search over that parent's cumulative row.  A row is summed
the first time a parent uses it and kept for the rest of the call, so a
single draw reads about one row per tree edge, and a batch needs memory
for its output, a few columns of draws and at most n rows per direction,
not a samples x n block per tree edge.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ProcedureError
from .graphs import Digraph
from .matching import PerfectFractionalMatching, vertex_entropy
from .rng import as_stream
from .trees import DOWN, UP, RootedOrientedTree

MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class ExpectednessReport:
    a: float
    c: float
    max_set_deviation: float
    max_weight_deviation: float
    max_entropy_deviation: float
    holds: bool


@dataclass(frozen=True)
class Realisation:
    images: tuple[int, ...]      # aligned with the tree's BFS order
    log_prob: float              # base-2 log of the sampling probability
    self_avoiding: bool
    expectedness: Optional[ExpectednessReport] = None


@dataclass(frozen=True)
class ExpectednessThresholds:
    a: float
    c: float

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise InputError("thresholds must be positive")

    @classmethod
    def defaults_for(cls, n_inner: int) -> "ExpectednessThresholds":
        if n_inner < 2:
            raise InputError("need at least 2 vertices for default thresholds")
        root = math.sqrt(math.log(n_inner))
        a = n_inner ** (0.25 - 1.0 / (17.0 * root))
        c = n_inner ** (-0.75 - 1.0 / (18.0 * root))
        return cls(a=a, c=c)


def _transition_matrices(
    x: PerfectFractionalMatching,
) -> dict[str, np.ndarray]:
    return {DOWN: np.asarray(x.weights), UP: np.asarray(x.weights).T}


def _check_inputs(
    g: Digraph, x: PerfectFractionalMatching, start: Optional[int]
) -> None:
    if x.host is not g and x.host != g:
        raise InputError("matching host differs from the given graph")
    if start is not None and not (0 <= start < g.n):
        raise InputError(f"start vertex {start} out of range")


def _draw(
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    roots: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed t once per root; return the images and base-2 log-probabilities.

    Images come out as an array of shape (len(roots), t.n) in BFS order.
    Each tree edge draws one uniform u per embedding.  A child's image is
    the first cell of the parent image's row whose cumulative weight
    reaches u times the row total.  The samples of an edge are ordered by
    parent image with one stable sort, so that each run of equal parents
    is found by one binary search over that parent's cumulative row.
    Those rows are summed only when first used and kept for the call.
    """
    trans = _transition_matrices(x)
    cdfs: dict[tuple[str, int], np.ndarray] = {}
    pos = _bfs_index(t)
    k = len(roots)
    # parents cast to the smallest integer type sort by radix, not by merge
    small = np.min_scalar_type(x.n - 1)
    images = np.empty((k, t.n), dtype=np.int64)
    images[:, pos[t.root]] = roots
    log_probs = np.zeros(k)
    for v in t.bfs_order:
        if v == t.root:
            continue
        d = t.edge_dir[v]
        parents = images[:, pos[t.parent[v]]].astype(small)
        order = np.argsort(parents, kind="stable")
        grouped = parents[order]
        u = rng.random(k)[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        found = np.empty(k, dtype=np.int64)
        for lo, hi in zip([0] + cuts, cuts + [k]):
            r = int(grouped[lo])
            cdf = cdfs.get((d, r))
            if cdf is None:
                cdf = cdfs[d, r] = np.cumsum(trans[d][r])
            found[lo:hi] = np.searchsorted(cdf, u[lo:hi] * cdf[-1])
        p = trans[d][grouped, found]
        bad = p <= 0
        if bad.any():
            raise ProcedureError(
                "sampled a zero-weight arc; matching has support gaps",
                count=int(bad.sum()),
            )
        images[order, pos[v]] = found
        log_probs[order] += np.log2(p)
    return images, log_probs


def sample_tree(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    start: int,
    seed,
) -> Realisation:
    """Sample one random embedding of t rooted at start."""
    _check_inputs(g, x, start)
    images, log_probs = _draw(x, t, np.array([start]), as_stream(seed))
    imgs = tuple(images[0].tolist())
    return Realisation(
        images=imgs,
        log_prob=float(log_probs[0]),
        self_avoiding=len(set(imgs)) == len(imgs),
    )


def _bfs_index(t: RootedOrientedTree) -> dict[int, int]:
    return {v: i for i, v in enumerate(t.bfs_order)}


def replay_log_prob(
    x: PerfectFractionalMatching, t: RootedOrientedTree, images: Sequence[int]
) -> float:
    """Recompute the base-2 log probability of an image sequence."""
    pos = _bfs_index(t)
    trans = _transition_matrices(x)
    total = 0.0
    for v in t.bfs_order:
        if v == t.root:
            continue
        p = trans[t.edge_dir[v]][images[pos[t.parent[v]]], images[pos[v]]]
        if p <= 0:
            return -math.inf
        total += math.log2(p)
    return total


@dataclass(frozen=True)
class RealisationBatch:
    seed: int
    worker: int
    images: np.ndarray           # shape (samples, tree size), BFS order
    log_probs: np.ndarray        # base-2
    self_avoiding: np.ndarray    # bool


def sample_trees_batch(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    samples: int,
    seed: int,
    worker: int = 0,
    start: Optional[int] = None,
) -> RealisationBatch:
    """Vectorized sampler; start=None draws the root uniformly at random."""
    _check_inputs(g, x, start)
    if samples < 1:
        raise InputError("need at least one sample")
    rng = as_stream(seed, worker)
    roots = (np.full(samples, start) if start is not None
             else rng.integers(0, g.n, size=samples))
    images, log_probs = _draw(x, t, roots, rng)
    srt = np.sort(images, axis=1)
    return RealisationBatch(
        seed=seed, worker=worker, images=images, log_probs=log_probs,
        self_avoiding=np.all(srt[:, 1:] != srt[:, :-1], axis=1),
    )


def split_samples(samples: int, workers: int) -> dict[int, int]:
    """Sample counts by worker index, split as evenly as possible.

    The first samples % workers workers take one more sample, and workers
    left without one are omitted.  Workers partition the random stream,
    they do not run in parallel: worker w draws its share from the Philox
    key (seed, w), one worker after another.
    """
    if samples < 1 or workers < 1:
        raise InputError("need samples >= 1 and workers >= 1")
    base, extra = divmod(samples, workers)
    return {w: base + (w < extra) for w in range(min(samples, workers))}


def walk_pattern(
    g: Digraph,
    x: PerfectFractionalMatching,
    pattern: Sequence[str],
    start: int,
    steps: int,
    seed,
) -> tuple[int, ...]:
    """Random walk following an orientation pattern, cycled if shorter."""
    if steps < 0:
        raise InputError("steps must be nonnegative")
    if steps == 0:
        _check_inputs(g, x, start)
        return (start,)
    if not pattern:
        raise InputError("pattern must be nonempty")
    for d in pattern:
        if d not in (UP, DOWN):
            raise InputError(f"pattern entries must be 'up' or 'down', got {d!r}")
    dirs = [pattern[i % len(pattern)] for i in range(steps)]
    from .trees import path_tree

    t = path_tree(steps + 1, dirs)
    r = sample_tree(g, x, t, start, seed)
    return r.images


@dataclass(frozen=True)
class MarginalTable:
    rows: np.ndarray  # shape (tree size, host size), BFS order

    def __post_init__(self):
        sums = self.rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > MARGINAL_TOL:
            raise InputError("marginal rows must each sum to 1")

    def row(self, bfs_position: int) -> np.ndarray:
        return self.rows[bfs_position]


def marginals(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    start: int,
) -> MarginalTable:
    """Exact P[image of tree vertex = host vertex] for every tree vertex."""
    _check_inputs(g, x, start)
    trans = _transition_matrices(x)
    pos = _bfs_index(t)
    rows = np.zeros((t.n, g.n))
    rows[pos[t.root], start] = 1.0
    for v in t.bfs_order:
        if v == t.root:
            continue
        parent_row = rows[pos[t.parent[v]]]
        rows[pos[v]] = parent_row @ trans[t.edge_dir[v]]
    return MarginalTable(rows=rows)


def exact_tree_entropy(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    start: int,
) -> float:
    """Exact Shannon entropy (bits) of the random embedding.

    By the chain rule and conditional independence, each tree edge
    contributes the expected vertex entropy of the parent's image on the
    side the edge points to.
    """
    table = marginals(g, x, t, start)
    pos = _bfs_index(t)
    side_entropy = {
        DOWN: np.array([vertex_entropy(x, v, "out") for v in range(g.n)]),
        UP: np.array([vertex_entropy(x, v, "in") for v in range(g.n)]),
    }
    total = 0.0
    for v in t.bfs_order:
        if v == t.root:
            continue
        parent_row = table.rows[pos[t.parent[v]]]
        total += float(parent_row @ side_entropy[t.edge_dir[v]])
    return total


def hr_lower_bound(m: int, n: int, h_x: float) -> float:
    """(1 - 2 e^{-sqrt(ln n)}) * (m/n) * h(x)."""
    if n < 2:
        raise InputError("need n >= 2")
    if m == 0:
        return 0.0
    return (1.0 - 2.0 * math.exp(-math.sqrt(math.log(n)))) * (m / n) * h_x


def is_self_avoiding(r: Realisation) -> bool:
    return len(set(r.images)) == len(r.images)


def self_avoiding_reference_bound(m: int, b: float, n: int) -> float:
    """Reference lower bound 1 - m^2 b / n on the self-avoiding probability."""
    return 1.0 - (m * m) * b / n


def expectedness(
    r: Realisation,
    g_outer: Digraph,
    inner_vertices: Sequence[int],
    x: PerfectFractionalMatching,
    thresholds: ExpectednessThresholds,
) -> ExpectednessReport:
    """Strict proportionality verdict for the image set of a realisation.

    inner_vertices maps the inner host's ids (the ids x and r live on) to
    the outer graph's ids.  The tested set collection consists of every
    outer vertex's out- and in-neighborhood restricted to the inner hull.
    """
    n_inner = len(inner_vertices)
    if x.n != n_inner:
        raise InputError("matching host size differs from inner vertex list")
    inner_set = set(inner_vertices)
    if len(inner_set) != n_inner:
        raise InputError("duplicate inner vertex")
    m_inner = set(r.images)
    for v in m_inner:
        if not (0 <= v < n_inner):
            raise InputError(f"image {v} outside the inner host")
    m_outer = {inner_vertices[v] for v in m_inner}
    frac = len(m_inner) / n_inner
    max_set_dev = 0.0
    for v in range(g_outer.n):
        for nbrs in (g_outer.out_adj[v], g_outer.in_adj[v]):
            s = [w for w in nbrs if w in inner_set]
            dev = abs(len(m_outer & set(s)) - frac * len(s))
            max_set_dev = max(max_set_dev, dev)
    max_w_dev = 0.0
    max_h_dev = 0.0
    idx = sorted(m_inner)
    for v in range(n_inner):
        for side in ("out", "in"):
            row = x.weights[v] if side == "out" else x.weights[:, v]
            w_in = float(row[idx].sum())
            max_w_dev = max(max_w_dev, abs(w_in - frac))
            pos = [u for u in idx if row[u] > 0]
            h_in = float(-(row[pos] * np.log2(row[pos])).sum()) if pos else 0.0
            h_v = vertex_entropy(x, v, side)
            max_h_dev = max(max_h_dev, abs(h_in - frac * h_v))
    holds = (
        max_set_dev < thresholds.a
        and max_w_dev < thresholds.c
        and max_h_dev < thresholds.c
    )
    return ExpectednessReport(
        a=thresholds.a, c=thresholds.c,
        max_set_deviation=max_set_dev,
        max_weight_deviation=max_w_dev,
        max_entropy_deviation=max_h_dev,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# mixing of the pattern walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingRow:
    t: int
    deviation: float      # max_v |n P[Z_t = v] - 1|
    bound: float          # e^{-eps t / (2 b^2)}
    admissible: bool      # t above the walk-length threshold
    holds: Optional[bool]


@dataclass(frozen=True)
class MixingReport:
    eps: float
    b: float
    threshold: float
    hypothesis_ok: bool
    rows: tuple[MixingRow, ...]

    def all_admissible_hold(self) -> bool:
        return all(row.holds for row in self.rows if row.admissible)


def mixing_check(
    g: Digraph,
    x: PerfectFractionalMatching,
    pattern: Sequence[str],
    start: int,
    t_min: int,
    t_max: Optional[int] = None,
) -> MixingReport:
    """Exact walk-marginal deviations against the geometric mixing bound."""
    from .graphs import epsilon_of
    from .matching import normality

    if t_max is None:
        t_max = t_min + 20
    if not (1 <= t_min <= t_max):
        raise InputError("need 1 <= t_min <= t_max")
    _check_inputs(g, x, start)
    eps = float(epsilon_of(g).epsilon_float)
    b = float(normality(x).b_min)
    hypothesis_ok = bool(eps > 0 and math.isfinite(b))
    threshold = (
        5.0 + 4.0 * b * b / eps * math.log2(b) if hypothesis_ok else math.inf
    )
    trans = _transition_matrices(x)
    dist = np.zeros(g.n)
    dist[start] = 1.0
    rows = []
    for step in range(1, t_max + 1):
        d = pattern[(step - 1) % len(pattern)]
        if d not in (UP, DOWN):
            raise InputError(f"pattern entries must be 'up' or 'down', got {d!r}")
        dist = dist @ trans[d]
        if step < t_min:
            continue
        deviation = float(np.abs(g.n * dist - 1.0).max())
        bound = math.exp(-eps * step / (2.0 * b * b)) if hypothesis_ok else math.nan
        admissible = bool(hypothesis_ok and step >= threshold)
        holds = bool(deviation <= bound + 1e-12) if admissible else None
        rows.append(MixingRow(
            t=step, deviation=deviation, bound=bound,
            admissible=admissible, holds=holds,
        ))
    report = MixingReport(
        eps=eps, b=b, threshold=threshold,
        hypothesis_ok=hypothesis_ok, rows=tuple(rows),
    )
    if hypothesis_ok:
        bad = [row.t for row in rows if row.admissible and not row.holds]
        if bad:
            raise ProcedureError(
                "mixing bound violated at admissible steps",
                steps=bad,
            )
    return report


# ---------------------------------------------------------------------------
# CSV batches: seed, worker, images, log_prob, self_avoiding
# ---------------------------------------------------------------------------

def batch_to_csv(batch: RealisationBatch) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["seed", "worker", "images", "log_prob", "self_avoiding"]
    )
    k = batch.images.shape[0]
    for i in range(k):
        writer.writerow([
            batch.seed,
            batch.worker,
            " ".join(str(v) for v in batch.images[i]),
            f"{batch.log_probs[i]:.17g}",
            int(batch.self_avoiding[i]),
        ])
    return buf.getvalue()
