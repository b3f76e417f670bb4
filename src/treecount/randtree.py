"""Branching random walks: embedding a rooted oriented tree in a digraph.

Images are drawn in BFS order; each child image is sampled from the parent
image's matching weights, using outgoing weights when the tree edge points
toward the child and incoming weights otherwise.  Siblings are independent
given the parent image, so exact marginals and the exact entropy of the
whole random embedding follow by forward propagation.

``_draw`` makes every draw.  A child's image is the cell that a binary
search (``side="left"``) over the parent image's cumulative row finds for
u times the row total, and two paths compute it, chosen by the number of
roots alone:

- one root (``sample_tree``, or a batch of one): one scalar search per
  tree edge over a row summed on first use, since anything built per row
  would serve only that search;
- more roots (``sample_trees_batch``): per tree edge, every sample starts
  at its row's n-bucket guide (the cutpoint method; Chen & Asau 1974,
  Devroye 1986 III.2.4) and walks, a block of ``_BLOCK`` samples at once,
  to the searched cell (``_walk``).  The walk, not the guide, decides the
  cell, so a batch needs neither a sort nor a binary search, and its images
  stay the search's.

Both paths give the same images and log-probabilities from the same random
stream, bit for bit.  Images come out as ``_image_dtype(n)``: uint16 up to
n = 65,536 and uint32 above, so 2 bytes per tree vertex per sample rather
than 8.  A single draw sums a row on its first use and keeps it for the
call, about one row per tree edge.  A batch sums every row once per
direction, at that direction's first tree edge, with its guide row, and
keeps them for the call.  Besides those and its output, a batch holds one
column of uniforms per tree edge and a few temporaries of ``_BLOCK``
samples, each small enough for L2, not a samples x n block per tree edge.

The estimator draws through ``_self_avoiding_draws``, which takes the
batch's uniforms and runs the same ``_walk``, but only for the samples
whose images are still distinct: a sample retires at its first repeated
image, and the kept image rows are cut down to the live samples once a
quarter of them have retired.  It returns the self-avoiding samples and
their log-probabilities, the batch's bit for bit, and holds no image array
of all samples.
"""

from __future__ import annotations

import csv
import ctypes
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ProcedureError
from .graphs import Digraph, epsilon_of
from .matching import PerfectFractionalMatching, normality, vertex_entropy
from .rng import as_stream
from .trees import DOWN, UP, RootedOrientedTree

MARGINAL_TOL = 1e-10

# samples per block of the batch sampler's per-edge search: each block
# temporary is 128 KiB of intp or float64, which stays in L2
_BLOCK = 2**14

# glibc keeps freed heap memory resident, up to a trim threshold that grows
# to 64 MiB after large frees, so without a trim a batch's peak memory
# depends on what the process allocated and freed before it
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


@dataclass(frozen=True)
class Realisation:
    images: tuple[int, ...]      # aligned with the tree's BFS order
    log_prob: float              # base-2 log of the sampling probability
    self_avoiding: bool


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
    the first cell j of the parent image's row r whose cumulative weight
    reaches u times the row total: ``#{j : cdf[r, j] < u * cdf[r, -1]}``,
    which is what ``searchsorted(side="left")`` returns.

    One root takes the scalar path, ``_draw_one``: a guide row built for
    one search costs more than the search.  More roots take ``_draw_many``,
    which starts each search at a per-row guide and walks to the searched
    cell; the walk stops only there, so the guide sets the speed, never
    the image.
    """
    if len(roots) == 1:
        images, log_prob = _draw_one(x, t, int(roots[0]), rng)
        return np.array([images], dtype=_image_dtype(x.n)), np.array([log_prob])
    return _draw_many(x, t, roots, rng)


def _image_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype of at least 16 bits that holds n - 1.

    uint8 would hold hosts up to 256 vertices too, but numpy's row sort in
    ``_distinct_rows`` is about 12 times slower on it: 2.4 ms against
    0.2 ms for a 4,369 x 30 chunk (numpy 2.4, 2-core Xeon).
    """
    return np.promote_types(np.min_scalar_type(n - 1), np.uint16)


def _draw_one(
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    root: int,
    rng: np.random.Generator,
) -> tuple[list[int], float]:
    """One embedding by one scalar binary search per tree edge.

    ``rng.random()`` draws the same double as ``rng.random(1)[0]``, and the
    log-probability is summed edge by edge in BFS order, so the result
    equals the batch path's on the same uniforms, bit for bit.
    """
    trans = _transition_matrices(x)
    cdfs: dict[tuple[str, int], np.ndarray] = {}
    images = [root]
    weights = []
    for v, j in zip(t.bfs_order[1:], t.parent_pos[1:]):
        d = t.edge_dir[v]
        r = images[j]
        cdf = cdfs.get((d, r))
        if cdf is None:
            cdf = cdfs[d, r] = np.cumsum(trans[d][r])
        child = int(cdf.searchsorted(rng.random() * cdf[-1]))
        p = trans[d][r, child]
        if p <= 0:
            raise _support_gap(1)
        images.append(child)
        weights.append(p)
    log_prob = 0.0
    for lp in np.log2(weights).tolist():
        log_prob += lp
    return images, log_prob


def _guide_rows(cdf: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """n-bucket guide rows: ``guide[r, b] = #{j : floor(cdf[r, j] n / cdf[r, -1]) < b}``.

    A search for u in [b/n, (b+1)/n) starts at ``guide[r, b]``.  A row
    whose total is 0 or NaN has NaN keys, which become n, so its guide is
    0; every row's last key is set to n, so no guide passes cell n - 1.
    The keys are scaled, cast and counted a block of rows at a time, about
    ``_BLOCK`` cells, in two buffers reused for every block, so no
    temporary is n x n.
    """
    m, n = cdf.shape
    guide = np.zeros((m, n), dtype=dtype)
    rows = max(1, _BLOCK // n)
    scaled = np.empty((min(rows, m), n))
    keys = np.empty((min(rows, m), n), dtype=np.intp)
    # each row's keys counted in its own n + 1 bins
    offsets = np.arange(0, len(keys) * (n + 1), n + 1)[:, None]
    for lo in range(0, m, rows):
        block = cdf[lo:lo + rows]
        b = len(block)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(block, n / block[:, -1:], out=scaled[:b])
        np.fmin(scaled[:b], n, out=scaled[:b])
        np.copyto(keys[:b], scaled[:b], casting="unsafe")
        keys[:b, -1] = n
        keys[:b] += offsets[:b]
        counts = np.bincount(keys[:b].ravel(), minlength=b * (n + 1))
        np.cumsum(counts.reshape(b, n + 1)[:, : n - 1], axis=1,
                  out=guide[lo:lo + b, 1:])
    return guide


def _draw_many(
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    roots: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings by a guided linear search (the cutpoint method).

    Every row of a direction is summed at that direction's first tree edge
    and kept for the call, each with its n-bucket guide row (``_edges``).
    Per tree edge, one uniform is drawn for every sample, so the random
    stream does not depend on the block size.  The rest of the edge runs
    over blocks of ``_BLOCK`` samples, each searched by ``_walk``: its
    temporaries take ``_BLOCK`` x 8 bytes each, 128 KiB, and stay in L2
    rather than stream k x 8 bytes through memory at every step; a block
    computes each sample from the same uniform in the same order, so the
    block size changes no bit.  Zero-weight draws are counted over the
    whole edge before the error is raised.
    """
    k = len(roots)
    w = np.ascontiguousarray(x.weights).ravel()
    # one contiguous row of images per tree vertex, returned transposed
    images = np.empty((t.n, k), dtype=_image_dtype(x.n))
    images[0] = roots
    log_probs = np.zeros(k)
    for i, j, table, up in _edges(x, t):
        uniforms = rng.random(k)
        bad = 0
        for lo in range(0, k, _BLOCK):
            hi = min(lo + _BLOCK, k)
            bad += _walk(table, w, up, images[j, lo:hi], uniforms[lo:hi],
                         images[i, lo:hi], log_probs[lo:hi])
        if bad:
            raise _support_gap(bad)
    return images.T, log_probs


def _self_avoiding_draws(
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    roots: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The self-avoiding draws of ``_draw_many``: their sample indices, in
    increasing order, and their base-2 log-probabilities.

    Each tree edge draws ``rng.random(k)`` for every sample, as
    ``_draw_many`` does, so the stream and every uniform stay the same; and
    each live sample is searched by the same ``_walk``, so every hit's
    images and log-probability are ``_draw_many``'s, bit for bit.  Only the
    live samples are searched: a sample retires at the first tree edge
    whose image repeats one of its earlier images, and zero-weight draws
    are counted over the live samples only.

    The images are kept as one row per tree vertex over the kept samples,
    with each kept sample's partial log-probability, summed in edge order.
    A retired sample stays kept, and its cells are ignored, until a quarter
    of the kept samples have retired; then the rows, the sums and the
    sample indices are cut down to the live ones.
    """
    k = len(roots)
    w = np.ascontiguousarray(x.weights).ravel()
    rows = [roots.astype(_image_dtype(x.n), copy=False)]  # BFS position i
    log_probs = np.zeros(k)
    ids = None    # the sample index of each kept sample, once some are cut
    alive = None  # which kept samples are live, once some have retired
    uniforms = np.empty(k)
    for i, j, table, up in _edges(x, t):
        if alive is not None and 4 * np.count_nonzero(alive) <= 3 * len(alive):
            live = np.flatnonzero(alive)
            for m in range(i):  # in place, so that each old row is freed
                rows[m] = rows[m][live]
            log_probs = log_probs[live]
            ids = live if ids is None else ids[live]
            alive = None
        rng.random(k, out=uniforms)
        child = np.empty_like(rows[0])
        bad = 0
        for lo in range(0, len(log_probs), _BLOCK):
            # while every kept sample is live, a slice: views, not gathers
            at = (slice(lo, lo + _BLOCK) if alive is None
                  else lo + np.flatnonzero(alive[lo:lo + _BLOCK]))
            u = uniforms[at if ids is None else ids[at]]
            cells, sums = child[at], log_probs[at]
            bad += _walk(table, w, up, rows[j][at], u, cells, sums)
            if alive is not None:
                child[at], log_probs[at] = cells, sums
        if bad:
            raise _support_gap(bad)
        repeat = rows[0] == child
        for m in range(1, i):
            repeat |= rows[m] == child
        rows.append(child)
        if alive is None:
            if repeat.any():
                alive = ~repeat
        else:
            alive &= ~repeat  # a retired sample's cells are not images
    if alive is None:
        return np.arange(k) if ids is None else ids, log_probs
    return np.flatnonzero(alive) if ids is None else ids[alive], log_probs[alive]


def _edges(x: PerfectFractionalMatching, t: RootedOrientedTree):
    """Per tree edge in BFS order: the child's and the parent's BFS
    positions, the search table of the parent images' rows, and whether the
    edge points up.

    A direction's table is built at its first tree edge and kept for the
    call: every row's cumulative weights, flat and row-major even for UP,
    whose rows are columns of the weights; their n-bucket guide rows
    (``_guide_rows``); and the row totals.
    """
    n = x.n
    trans = _transition_matrices(x)
    tables = {}
    for i, (v, j) in enumerate(zip(t.bfs_order[1:], t.parent_pos[1:]), 1):
        d = t.edge_dir[v]
        if d not in tables:
            cdf = np.cumsum(trans[d], axis=1, out=np.empty((n, n)))
            guide = _guide_rows(cdf, np.min_scalar_type(n - 1))
            tables[d] = (cdf.ravel(), guide.ravel(), cdf[:, -1].copy())
        yield i, j, tables[d], d == UP


def _walk(
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
    w: np.ndarray,
    up: bool,
    parents: np.ndarray,
    u: np.ndarray,
    children: np.ndarray,
    log_probs: np.ndarray,
) -> int:
    """One tree edge for one block of samples; returns its zero-weight draws.

    A sample with uniform u and parent r sets ``target = u * cdf[r, -1]``,
    starts at ``a = guide[r, min(floor(u n), n - 1)]``, walks forward while
    ``cdf[r, a] < target`` and then back while ``a > 0`` and
    ``cdf[r, a - 1] >= target``.  It stops only where ``cdf[r, a - 1] <
    target <= cdf[r, a]`` (or at a = 0), so it returns the binary search's
    cell whatever the guide says: the guide sets the speed, never the
    image.  A sample that moved forward needs no backward step.

    The cells go to ``children``, and log2 of their weights is added to
    ``log_probs`` unless one of them is 0.  ``u`` is overwritten.  The
    parents are cast to intp once, since a gather costs about 3x as much
    with uint16 indices as with intp ones, and every index is computed in
    intp.
    """
    flat, starts, totals = table
    n = len(totals)
    parents = parents.astype(np.intp)
    target = totals[parents]
    target *= u
    base = parents * n  # flat index of each parent's row
    u *= n
    at = u.astype(np.intp)  # the bucket floor(u n)
    np.minimum(at, n - 1, out=at)
    at += base
    np.add(base, starts[at], out=at)  # the flat start cell
    # most samples step forward once or not at all: one step for every
    # sample, which stops none early, since cdf rows do not decrease
    at += flat[at] < target
    move = np.flatnonzero(flat[at] < target)
    while move.size:
        at[move] += 1
        move = move[flat[at[move]] < target[move]]
    # where at == base, at - 1 reads outside the row, and at > base
    # discards it
    move = np.flatnonzero((at > base) & (flat[at - 1] >= target))
    while move.size:
        at[move] -= 1
        move = move[(at[move] > base[move])
                    & (flat[at[move] - 1] >= target[move])]
    # every cell is below n, so the narrow image row holds it
    np.subtract(at, base, out=children, casting="unsafe")
    if up:
        # trans[UP][parent, child] is w[child, parent], whose flat index is
        # computed in intp, where child * n cannot overflow
        at -= base
        at *= n
        at += parents
    p = w[at]
    zero = np.count_nonzero(p <= 0)
    if not zero:
        log_probs += np.log2(p)
    return zero


def _support_gap(count: int) -> ProcedureError:
    return ProcedureError(
        "sampled a zero-weight arc; matching has support gaps", count=count
    )


def sample_tree(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    start: int,
    seed,
) -> Realisation:
    """Sample one random embedding of t rooted at start."""
    _check_inputs(g, x, start)
    images, log_prob = _draw_one(x, t, int(start), as_stream(seed))
    return Realisation(
        images=tuple(images),
        log_prob=log_prob,
        self_avoiding=len(set(images)) == len(images),
    )


def replay_log_prob(
    x: PerfectFractionalMatching, t: RootedOrientedTree, images: Sequence[int]
) -> float:
    """Recompute the base-2 log probability of an image sequence.

    ``images`` lists one host vertex per tree vertex, in BFS order.
    """
    if len(images) != t.n or not all(0 <= r < x.n for r in images):
        raise InputError(f"need {t.n} images, each a host vertex in 0..{x.n - 1}")
    trans = _transition_matrices(x)
    total = 0.0
    for i, (v, j) in enumerate(zip(t.bfs_order[1:], t.parent_pos[1:]), 1):
        p = trans[t.edge_dir[v]][images[j], images[i]]
        if p <= 0:
            return -math.inf
        total += math.log2(p)
    return total


@dataclass(frozen=True)
class RealisationBatch:
    seed: int
    worker: int
    images: np.ndarray           # shape (samples, tree size), BFS order,
                                 # _image_dtype(n): uint16 up to n = 65,536
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
    roots, rng = _batch_roots(g, x, samples, seed, worker, start)
    images, log_probs = _draw(x, t, roots, rng)
    return RealisationBatch(
        seed=seed, worker=worker, images=images, log_probs=log_probs,
        self_avoiding=_distinct_rows(images),
    )


def _batch_roots(
    g: Digraph,
    x: PerfectFractionalMatching,
    samples: int,
    seed: int,
    worker: int = 0,
    start: Optional[int] = None,
) -> tuple[np.ndarray, np.random.Generator]:
    """Check a batch's arguments; return its roots and the stream that
    draws the rest of it."""
    _check_inputs(g, x, start)
    if samples < 1:
        raise InputError("need at least one sample")
    rng = as_stream(seed, worker)
    if _malloc_trim is not None:
        _malloc_trim(0)  # hand freed heap pages back before the batch's own
    roots = (np.full(samples, start) if start is not None
             else rng.integers(0, g.n, size=samples))
    return roots.astype(_image_dtype(g.n)), rng


def _distinct_rows(images: np.ndarray) -> np.ndarray:
    """Whether each row's entries are distinct, sorting about 1 MiB at a time
    rather than a sorted copy of the whole array."""
    k, m = images.shape
    out = np.empty(k, dtype=bool)
    step = max(1, 2**17 // max(m, 1))
    for lo in range(0, k, step):
        srt = np.sort(images[lo:lo + step], axis=1)
        np.all(srt[:, 1:] != srt[:, :-1], axis=1, out=out[lo:lo + step])
    return out


@dataclass(frozen=True)
class MarginalTable:
    rows: np.ndarray  # shape (tree size, host size), BFS order

    def __post_init__(self):
        sums = self.rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > MARGINAL_TOL:
            raise InputError("marginal rows must each sum to 1")


def marginals(
    g: Digraph,
    x: PerfectFractionalMatching,
    t: RootedOrientedTree,
    start: int,
) -> MarginalTable:
    """Exact P[image of tree vertex = host vertex] for every tree vertex."""
    _check_inputs(g, x, start)
    trans = _transition_matrices(x)
    rows = np.zeros((t.n, g.n))
    rows[0, start] = 1.0
    for i, (v, j) in enumerate(zip(t.bfs_order[1:], t.parent_pos[1:]), 1):
        rows[i] = rows[j] @ trans[t.edge_dir[v]]
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
    side_entropy = {
        DOWN: np.array([vertex_entropy(x, v, "out") for v in range(g.n)]),
        UP: np.array([vertex_entropy(x, v, "in") for v in range(g.n)]),
    }
    total = 0.0
    for v, j in zip(t.bfs_order[1:], t.parent_pos[1:]):
        total += float(table.rows[j] @ side_entropy[t.edge_dir[v]])
    return total


def hr_lower_bound(m: int, n: int, h_x: float) -> float:
    """(1 - 2 e^{-sqrt(ln n)}) * (m/n) * h(x)."""
    if n < 2:
        raise InputError("need n >= 2")
    if m == 0:
        return 0.0
    return (1.0 - 2.0 * math.exp(-math.sqrt(math.log(n)))) * (m / n) * h_x


def self_avoiding_reference_bound(m: int, b: float, n: int) -> float:
    """Reference lower bound 1 - m^2 b / n on the self-avoiding probability."""
    return 1.0 - (m * m) * b / n


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
    if t_max is None:
        t_max = t_min + 20
    if not (1 <= t_min <= t_max):
        raise InputError("need 1 <= t_min <= t_max")
    if not pattern:
        raise InputError("pattern must be nonempty")
    _check_inputs(g, x, start)
    eps = float(epsilon_of(g))
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
        # einsum, not BLAS gemv: the report is pinned byte for byte, and a
        # gemv's bits depend on the kernel OpenBLAS picks for the CPU
        dist = np.einsum("i,ij->j", dist, trans[d])
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
    # Python ints, floats and bools write the same text whatever the dtypes
    for images, log_prob, self_avoiding in zip(
        batch.images.tolist(), batch.log_probs.tolist(),
        batch.self_avoiding.tolist(),
    ):
        writer.writerow([
            batch.seed,
            batch.worker,
            " ".join(map(str, images)),
            f"{log_prob:.17g}",
            int(self_avoiding),
        ])
    return buf.getvalue()
