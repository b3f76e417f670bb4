"""Iterative tree embedding: decompose, sample piece by piece, rebalance.

The driver embeds a rooted oriented tree into a dense digraph by cutting
the tree into quarter-power pieces, sampling a self-avoiding random
embedding of each piece from a maximum-entropy (or rebalanced) matching of
the shrinking host, and finally placing the reserved branch exhaustively.
Every stage's matching quality and retry count is recorded in a trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .counting import (
    _DEFAULT_BUDGET,
    _SUBSET_MAX_N,
    _count_by_subsets,
    _embeddings,
    _visit_bound,
)
from .errors import InputError, ProcedureError
from .graphs import Digraph, epsilon_of, induced_subgraph
from .jsontext import dumps
from .matching import (
    PerfectFractionalMatching,
    matching_entropy,
    max_entropy_matching,
    normality,
    rebalance_after_removal,
)
from .randtree import sample_tree
from .rng import stream
from .trees import (
    RootedOrientedTree,
    TreePiece,
    quarter_decomposition,
    split_trunk,
)

DEFAULT_TRUNK_THRESHOLD = 4


@dataclass(frozen=True)
class StageRecord:
    index: int
    piece_size: int
    host_size: int
    matching_method: str          # "scaling" or "rebalance"
    b_normality: float
    entropy: float
    sum_residual: float           # worst row/column deviation from 1
    epsilon: float
    retries: int
    root_image: int               # original host id
    images: tuple[int, ...]       # original host ids, piece BFS order


@dataclass(frozen=True)
class PipelineTrace:
    success: bool
    mapping: dict[int, int]       # tree vertex -> host vertex
    stages: tuple[StageRecord, ...]
    notes: tuple[str, ...]
    spanning: bool
    trunk_threshold: Optional[int]


def validate_embedding(
    g: Digraph, t: RootedOrientedTree, mapping: dict[int, int]
) -> bool:
    """True iff the map is injective and sends every tree edge to a host arc."""
    if set(mapping) != set(range(t.n)) or len(set(mapping.values())) != t.n:
        return False
    return all(g.has_arc(mapping[u], mapping[v]) for u, v in t.oriented_edges())


def _degrees_fit(g: Digraph, t: RootedOrientedTree, roots: list[int]) -> bool:
    """Whether each tree vertex's out- and in-degree are each at most the
    largest of its possible images: ``roots`` for the root, any host vertex
    for the others."""
    arcs = np.array(t.oriented_edges(), dtype=np.intp).reshape(-1, 2)
    need_out = np.bincount(arcs[:, 0], minlength=t.n)
    need_in = np.bincount(arcs[:, 1], minlength=t.n)
    has_out, has_in = g.mask.sum(axis=1), g.mask.sum(axis=0)
    if need_out[t.root] > has_out[roots].max() or need_in[t.root] > has_in[roots].max():
        return False
    need_out[t.root] = need_in[t.root] = 0
    return need_out.max() <= has_out.max() and need_in.max() <= has_in.max()


def _first_copy(
    g: Digraph, t: RootedOrientedTree, roots: list[int], refusal: str, **diagnostics
) -> list[int]:
    """The first copy of t in g with its root image in ``roots``, as host ids
    in t's BFS order; ProcedureError(refusal, **diagnostics) if there is none.

    A tree vertex whose out- or in-degree exceeds that of every host vertex
    it may map to (``roots`` for the root, any host vertex for the others)
    refuses at once.  Otherwise the search stops past the counting budget,
    with its own error and the diagnostics added.  On hosts of at most 16
    vertices whose visit bound exceeds that budget, the subset DP first
    decides whether a copy exists.
    """
    if not _degrees_fit(g, t, roots) or (
        g.n <= _SUBSET_MAX_N
        and _visit_bound(g, t, roots) > _DEFAULT_BUDGET
        and _count_by_subsets(g, t, roots, visits=False)[0] == 0
    ):
        raise ProcedureError(refusal, **diagnostics)
    try:
        image = next(_embeddings(g, t, roots, budget=_DEFAULT_BUDGET), None)
    except ProcedureError as exc:
        raise ProcedureError(str(exc), **exc.diagnostics, **diagnostics) from exc
    if image is None:
        raise ProcedureError(refusal, **diagnostics)
    return image


def run_pipeline(
    g: Digraph,
    t: RootedOrientedTree,
    seed: int = 0,
    retry_budget: int = 100,
    trunk_threshold: Optional[int] = None,
) -> PipelineTrace:
    """Embed t into g stage by stage.

    A ProcedureError raised inside a stage, a failed re-solve of a shrunken
    host included, is raised again with the stage index as ``stage`` and
    the trace so far as ``trace`` in its diagnostics; its ``__cause__`` is
    the error the stage hit.  A rebuilt host that the solver rejects as
    input (a vertex left without arcs) fails the same way, with the
    solver's InputError as the cause.  A reserved branch that cannot be
    placed, and an assembled map that fails validation, carry ``trace``
    but no ``stage``; the direct placement's refusals carry ``stage="direct"``
    and no trace.  A placement search stopped past the counting budget adds
    its ``visits``.  Other failures before the stages begin carry neither.
    """
    n = g.n
    if t.n > n:
        raise InputError(f"tree size {t.n} exceeds host size {n}")
    if epsilon_of(g) <= 0:
        raise ProcedureError(
            "host minimum semidegree is not above half the order",
            semidegree_deficit=True,
        )
    notes: list[str] = []
    rng = stream(seed)
    if t.n == 1:
        return PipelineTrace(
            success=True, mapping={t.root: 0}, stages=(),
            notes=("single-vertex tree: trivial embedding",),
            spanning=(n == 1), trunk_threshold=None,
        )
    notes.append(
        "well-behavedness relaxed to self-avoidance: the proportionality "
        "thresholds are vacuous at this instance size"
    )

    spanning = t.n == n
    # the reserved branch hung from its attach vertex, placed last
    completion: Optional[TreePiece] = None
    if spanning:
        threshold = (min(DEFAULT_TRUNK_THRESHOLD, t.n) if trunk_threshold is None
                     else trunk_threshold)
        split = split_trunk(t, threshold)
        if split.trunk is None:
            # the whole tree is small enough to place exhaustively
            start = int(rng.integers(0, n))
            roots = [start, *range(start), *range(start + 1, n)]
            image = _first_copy(g, t, roots, "no embedding exists", stage="direct")
            mapping = {v: image[i] for i, v in enumerate(t.bfs_order)}
            return PipelineTrace(
                success=True, mapping=mapping, stages=(),
                notes=tuple(notes + ["degenerate split: direct placement"]),
                spanning=True, trunk_threshold=threshold,
            )
        # trunk_ids[trunk vertex] = tree vertex
        trunk, trunk_ids = split.trunk.tree, split.trunk.vertices
        completion = TreePiece(t, (split.attach, *split.branch.vertices))
    else:
        threshold = None
        trunk, trunk_ids = t, range(t.n)
        if t.n > 0.9 * n:
            notes.append(
                "tree covers more than 90% of the host without being "
                "spanning; no absorption step is taken"
            )

    dec = quarter_decomposition(trunk, n0=n)

    mapping: dict[int, int] = {}           # tree-vertex (original) -> host id
    stages: list[StageRecord] = []
    cur_to_orig: list[int] = list(range(n))
    cur_g = g
    cur_x: Optional[PerfectFractionalMatching] = None
    method = "scaling"

    def partial_trace() -> PipelineTrace:
        return PipelineTrace(
            success=False, mapping=mapping, stages=tuple(stages),
            notes=tuple(notes), spanning=spanning, trunk_threshold=threshold,
        )

    for idx, piece in enumerate(dec.pieces):
        try:
            if cur_x is None:
                try:
                    cur_x, _ = max_entropy_matching(cur_g)
                except InputError as exc:
                    # a rebuilt host can leave a vertex with no arcs; the
                    # caller's input was valid, so this is a failed stage
                    raise ProcedureError(str(exc)) from exc
                method = "scaling"
            # stage 0 starts anywhere; later stages at the augmented root,
            # the attach vertex u, always the last id
            root_cur = int(rng.integers(0, cur_g.n)) if idx == 0 else cur_g.n - 1
            for retries in range(1, retry_budget + 1):
                if idx == 0 and retries > 1:
                    root_cur = int(rng.integers(0, cur_g.n))
                real = sample_tree(cur_g, cur_x, piece.tree, root_cur, rng)
                if real.self_avoiding:
                    break
            else:
                raise ProcedureError(
                    f"retry budget exhausted at stage {idx}",
                    retries=max(retry_budget, 0),
                )
            images = [cur_to_orig[i] for i in real.images]
            # the piece tree's BFS order is its local ids, so images line up
            # with piece.vertices; an overlap vertex is mapped already, and
            # the forced root must agree with its image
            for v, host in zip(piece.vertices, images):
                if mapping.setdefault(trunk_ids[v], host) != host:
                    raise ProcedureError(
                        "anchor image mismatch", vertex=trunk_ids[v]
                    )
            stages.append(StageRecord(
                index=idx,
                piece_size=piece.size,
                host_size=cur_g.n,
                matching_method=method,
                b_normality=normality(cur_x).b_min,
                entropy=matching_entropy(cur_x),
                sum_residual=cur_x.residual,
                epsilon=float(epsilon_of(cur_g)),
                retries=retries,
                root_image=images[0],
                images=tuple(images),
            ))
            if idx + 1 == len(dec.pieces):
                break
            # prepare the next host: drop every used vertex, re-attach the
            # next anchor's image as a fresh vertex with its surviving
            # neighborhoods, both in current ids
            anchor = mapping[trunk_ids[dec.pieces[idx + 1].root]]
            used = set(mapping.values())
            alive = np.array([orig not in used for orig in cur_to_orig])
            attach_out = np.flatnonzero(alive & g.mask[anchor, cur_to_orig])
            attach_in = np.flatnonzero(alive & g.mask[cur_to_orig, anchor])
            if not attach_out.size or not attach_in.size:
                raise ProcedureError(
                    "anchor lost all surviving neighbors on one side",
                    anchor=anchor,
                )
            survivors = [orig for orig in cur_to_orig if orig not in used]
            try:
                res = rebalance_after_removal(
                    cur_x,
                    np.flatnonzero(~alive).tolist(),
                    attach_out=attach_out.tolist(),
                    attach_in=attach_in.tolist(),
                )
                cur_g, cur_x = res.matching.host, res.matching
                method = "rebalance"
            except ProcedureError:
                # the attached vertex's arcs are g's arcs between the anchor
                # and the survivors, so the host is g induced on survivors +
                # anchor
                cur_g = induced_subgraph(g, survivors + [anchor])
                cur_x = None
            cur_to_orig = survivors + [anchor]
        except ProcedureError as exc:
            raise ProcedureError(
                str(exc), **exc.diagnostics, stage=idx, trace=partial_trace()
            ) from (exc.__cause__ or exc)

    if completion is not None:
        used = set(mapping.values())
        # the attach image is the last host, the root of the search
        hosts = [v for v in range(n) if v not in used] + [mapping[completion.root]]
        sub = induced_subgraph(g, hosts)
        # the completion tree's BFS order is its local ids 0..k-1
        image = _first_copy(
            sub, completion.tree, [len(hosts) - 1],
            "no completion embedding for the reserved branch", trace=partial_trace(),
        )
        for tree_id, host_cur in zip(completion.vertices[1:], image[1:]):
            mapping[tree_id] = hosts[host_cur]
    if not validate_embedding(g, t, mapping):
        raise ProcedureError(
            "assembled map failed replay validation", trace=partial_trace()
        )
    return PipelineTrace(
        success=True, mapping=mapping, stages=tuple(stages),
        notes=tuple(notes), spanning=spanning, trunk_threshold=threshold,
    )


def trace_to_json(trace: PipelineTrace) -> str:
    payload = asdict(trace)
    payload["mapping"] = {str(k): v for k, v in trace.mapping.items()}
    return dumps(payload)
