"""Iterative tree embedding: decompose, sample piece by piece, rebalance.

The driver embeds a rooted oriented tree into a dense digraph by cutting
the tree into quarter-power pieces, sampling a self-avoiding random
embedding of each piece from a maximum-entropy (or rebalanced) matching of
the shrinking host, and finally placing the reserved branch exhaustively.
Every stage's matching quality and retry count is recorded in a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .counting import _embeddings
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
    DOWN,
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
    if set(mapping) != set(range(t.n)):
        return False
    if len(set(mapping.values())) != t.n:
        return False
    for v in range(t.n):
        if v == t.root:
            continue
        p = t.parent[v]
        if t.edge_dir[v] == DOWN:
            ok = g.has_arc(mapping[p], mapping[v])
        else:
            ok = g.has_arc(mapping[v], mapping[p])
        if not ok:
            return False
    return True


def run_pipeline(
    g: Digraph,
    t: RootedOrientedTree,
    seed: int = 0,
    retry_budget: int = 100,
    trunk_threshold: Optional[int] = None,
) -> PipelineTrace:
    """Embed t into g stage by stage.

    Every ProcedureError raised once the stages begin, a failed re-solve
    of a shrunken host included, carries the trace so far as ``trace`` in
    its diagnostics.  A rebuilt host that the solver rejects as input
    (a vertex left without arcs) also fails as a ProcedureError.
    """
    n = g.n
    if t.n > n:
        raise InputError(f"tree size {t.n} exceeds host size {n}")
    if epsilon_of(g).epsilon <= 0:
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
        threshold = trunk_threshold or min(DEFAULT_TRUNK_THRESHOLD, t.n)
        split = split_trunk(t, threshold)
        if split.degenerate or split.trunk is None:
            # the whole tree is small enough to place exhaustively
            start = int(rng.integers(0, n))
            image = next(_embeddings(g, t, [start, *range(n)]), None)
            if image is None:
                raise ProcedureError("no embedding exists", stage="direct")
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
    used_host: set[int] = set()
    stages: list[StageRecord] = []
    cur_to_orig: list[int] = list(range(n))
    cur_g = g
    cur_x: Optional[PerfectFractionalMatching] = None
    cur_h = 0.0  # matching_entropy(cur_x)
    method = "scaling"

    def partial_trace() -> PipelineTrace:
        return PipelineTrace(
            success=False, mapping=mapping, stages=tuple(stages),
            notes=tuple(notes), spanning=spanning, trunk_threshold=threshold,
        )

    for idx, piece in enumerate(dec.pieces):
        if cur_x is None:
            try:
                cur_x, _ = max_entropy_matching(cur_g)
            except ProcedureError as exc:
                raise ProcedureError(
                    str(exc), **exc.diagnostics, stage=idx, trace=partial_trace()
                ) from exc
            except InputError as exc:
                # a rebuilt host can leave a vertex with no arcs; the
                # caller's input was valid, so this is a failed stage
                raise ProcedureError(
                    str(exc), stage=idx, trace=partial_trace()
                ) from exc
            cur_h = matching_entropy(cur_x)
            method = "scaling"
        if idx == 0:
            root_cur = int(rng.integers(0, cur_g.n))
        else:
            # the augmented root is the attach vertex u, always last id
            root_cur = cur_g.n - 1
        retries = 0
        real = None
        while retries < retry_budget:
            if idx == 0 and retries > 0:
                root_cur = int(rng.integers(0, cur_g.n))
            cand = sample_tree(cur_g, cur_x, piece.tree, root_cur, rng)
            retries += 1
            if cand.self_avoiding:
                real = cand
                break
        if real is None:
            raise ProcedureError(
                f"retry budget exhausted at stage {idx}",
                stage=idx, retries=retries, trace=partial_trace(),
            )
        # the piece tree's BFS order is its local ids, so real.images lines
        # up with piece.vertices
        for v, host_cur in zip(piece.vertices, real.images):
            tree_id = trunk_ids[v]
            host_orig = cur_to_orig[host_cur]
            if tree_id in mapping:
                # overlap vertex: the forced root must agree with its image
                if mapping[tree_id] != host_orig:
                    raise ProcedureError(
                        "anchor image mismatch", stage=idx, vertex=tree_id,
                        trace=partial_trace(),
                    )
                continue
            mapping[tree_id] = host_orig
            used_host.add(host_orig)
        stages.append(StageRecord(
            index=idx,
            piece_size=piece.size,
            host_size=cur_g.n,
            matching_method=method,
            b_normality=normality(cur_x).b_min,
            entropy=cur_h,
            sum_residual=float(max(
                abs(cur_x.weights.sum(axis=1) - 1.0).max(),
                abs(cur_x.weights.sum(axis=0) - 1.0).max(),
            )),
            epsilon=epsilon_of(cur_g).epsilon_float,
            retries=retries,
            root_image=cur_to_orig[real.images[0]],
            images=tuple(cur_to_orig[i] for i in real.images),
        ))
        if idx + 1 >= len(dec.pieces):
            break
        # prepare the next host: drop every used vertex, re-attach the next
        # anchor's image as a fresh vertex with its surviving neighborhoods
        next_piece = dec.pieces[idx + 1]
        anchor_orig = mapping[trunk_ids[next_piece.root]]
        removed_cur = sorted(
            i for i, orig in enumerate(cur_to_orig) if orig in used_host
        )
        survivors = [
            orig for i, orig in enumerate(cur_to_orig) if orig not in used_host
        ]
        surviving_set = set(survivors)
        attach_out = [v for v in g.out_adj[anchor_orig] if v in surviving_set]
        attach_in = [v for v in g.in_adj[anchor_orig] if v in surviving_set]
        if not attach_out or not attach_in:
            raise ProcedureError(
                "anchor lost all surviving neighbors on one side",
                stage=idx, anchor=anchor_orig, trace=partial_trace(),
            )
        orig_to_cur = {orig: i for i, orig in enumerate(cur_to_orig)}
        try:
            res = rebalance_after_removal(
                cur_x,
                removed_cur,
                attach_out=[orig_to_cur[v] for v in attach_out],
                attach_in=[orig_to_cur[v] for v in attach_in],
                entropy=cur_h,
            )
            cur_g = res.matching.host
            cur_x = res.matching
            cur_h = res.report.entropy
            method = "rebalance"
        except ProcedureError:
            # the attached vertex's arcs are g's arcs between the anchor and
            # the survivors, so the host is g induced on survivors + anchor
            cur_g = induced_subgraph(g, survivors + [anchor_orig])[0]
            cur_x = None
            method = "scaling"
        cur_to_orig = survivors + [anchor_orig]

    if completion is not None:
        leftover = [v for v in range(n) if v not in used_host]
        attach_img = mapping[completion.root]
        sub, relabel = induced_subgraph(g, leftover + [attach_img])
        # root the completion at the attach image, branch hanging below it;
        # the completion tree's BFS order is its local ids 0..k-1
        image = next(
            _embeddings(sub, completion.tree, [relabel[attach_img]]), None
        )
        if image is None:
            raise ProcedureError(
                "no completion embedding for the reserved branch",
                trace=partial_trace(),
            )
        inv = {new: orig for orig, new in relabel.items()}
        for tree_id, host_cur in zip(completion.vertices[1:], image[1:]):
            mapping[tree_id] = inv[host_cur]
    if not validate_embedding(g, t, mapping):
        raise ProcedureError(
            "assembled map failed replay validation", trace=partial_trace()
        )
    return PipelineTrace(
        success=True, mapping=mapping, stages=tuple(stages),
        notes=tuple(notes), spanning=spanning, trunk_threshold=threshold,
    )


def trace_to_json(trace: PipelineTrace) -> str:
    payload = {
        "success": trace.success,
        "spanning": trace.spanning,
        "trunk_threshold": trace.trunk_threshold,
        "notes": list(trace.notes),
        "mapping": {str(k): v for k, v in sorted(trace.mapping.items())},
        "stages": [
            {
                "index": s.index,
                "piece_size": s.piece_size,
                "host_size": s.host_size,
                "matching_method": s.matching_method,
                "b_normality": s.b_normality,
                "entropy": s.entropy,
                "sum_residual": s.sum_residual,
                "epsilon": s.epsilon,
                "retries": s.retries,
                "root_image": s.root_image,
                "images": list(s.images),
            }
            for s in trace.stages
        ],
    }
    return dumps(payload)
