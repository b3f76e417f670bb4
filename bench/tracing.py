"""Spans and counters around the library's layer entry points.

Only a traced run (``--trace 1``) installs the wrappers.  Each wrapper
replaces a name in the module that calls it (``treecount.pipeline.
rebalance_after_removal``, ``treecount.counting.sample_trees_batch``, ...),
records a span (name, start, end, parent, phase) in memory and adds the
counts of its layer.  ``Digraph.__init__`` is wrapped on the class, so that
every build is seen, wherever it happens.  ``per_layer`` turns the spans
into the per-layer metrics: the setup's work once plus one pass's work.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path

from treecount import cli, counting, graphs, matching, pipeline
from treecount.errors import ProcedureError


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase: str | None = None  # "setup", "pass", or None (not recording)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[self.phase, name] += value

    def wrap(self, owner, attr: str, span: str, on_result=None, on_error=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [span, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else -1, self.phase]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except ProcedureError as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        fields = ["name", "start", "end", "parent", "phase"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def install() -> Tracer:
    tr = Tracer()

    def digraph(tr, _, args, kwargs):
        tr.add("graphs.digraphs", 1)
        tr.add("graphs.arcs", args[0].m)

    def rebalanced(tr, res, args, kwargs):
        tr.add("matching.rebalance_calls", 1)
        tr.add("matching.rebalance_passes", res.report.passes)

    def rebalance_gave_up(tr, exc):
        tr.add("matching.rebalance_calls", 1)
        tr.add("matching.rebalance_fallbacks", 1)

    def solved(tr, res, args, kwargs):
        tr.add("matching.solve_calls", 1)
        tr.add("matching.solve_iters", res[1].iterations)

    def solve_failed(tr, exc):
        tr.add("matching.solve_calls", 1)
        tr.add("matching.solve_iters", exc.diagnostics.get("iterations", 0))

    def batch(tr, res, args, kwargs):
        samples, k = res.images.shape
        tr.add("randtree.batch_samples", samples)
        tr.add("randtree.batch_draws", samples * (k - 1))
        tr.add("randtree.batch_hits", int(res.self_avoiding.sum()))

    def drawn(tr, res, args, kwargs):
        tr.add("randtree.sample_tree_calls", 1)
        tr.add("pipeline.stages", int(res.self_avoiding))

    def embedded(tr, trace, args, kwargs):
        tr.add("matching.inf_b_stages", sum(math.isinf(s.b_normality) for s in trace.stages))

    tr.wrap(graphs.Digraph, "__init__", "graphs.digraph", digraph)
    tr.wrap(pipeline, "rebalance_after_removal", "matching.rebalance", rebalanced, rebalance_gave_up)
    for mod in (pipeline, counting, cli):
        tr.wrap(mod, "normality", "matching.normality",
                lambda tr, *_: tr.add("matching.normality_calls", 1))
    for mod in (pipeline, matching, cli):
        tr.wrap(mod, "max_entropy_matching", "matching.solve", solved, solve_failed)
    for mod in (counting, cli):
        tr.wrap(mod, "sample_trees_batch", "randtree.batch", batch)
    tr.wrap(pipeline, "sample_tree", "randtree.sample_tree", drawn)
    for mod in (pipeline, cli):
        tr.wrap(mod, "quarter_decomposition", "trees.decompose",
                lambda tr, dec, *_: tr.add("trees.pieces", len(dec.pieces)))
    tr.wrap(cli, "decomposition_invariant_report", "trees.report")
    tr.wrap(pipeline, "split_trunk", "trees.split")
    for mod in (counting, cli):
        tr.wrap(mod, "automorphism_count", "trees.aut")
        tr.wrap(mod, "count_copies_brute", "counting.brute",
                lambda tr, rep, *_: tr.add("counting.brute_copies", rep.labelled))
        tr.wrap(mod, "estimate_copies", "counting.estimate")
    # a span without metrics of its own, so that cli.self_s leaves it out
    tr.wrap(cli, "verify_bound_experiment", "counting.verify")
    for mod in (pipeline, cli):
        tr.wrap(mod, "run_pipeline", "pipeline.run", embedded)
    tr.wrap(cli, "parse_graph_text", "cli.parse")
    tr.wrap(cli, "parse_tree_text", "cli.parse")
    tr.wrap(cli, "main", "cli.main")
    return tr


# (metric, unit, better); README.md maps each to the end-to-end metric it moves
PER_LAYER = (
    ("graphs.digraph_s", "s", "lower"),
    ("graphs.digraphs", "count", "lower"),
    ("graphs.arcs", "count", "lower"),
    ("matching.rebalance_s", "s", "lower"),
    ("matching.rebalance_calls", "count", "lower"),
    ("matching.rebalance_passes", "count", "lower"),
    ("matching.rebalance_fallbacks", "count", "lower"),
    ("matching.normality_s", "s", "lower"),
    ("matching.normality_calls", "count", "lower"),
    ("matching.solve_s", "s", "lower"),
    ("matching.solve_calls", "count", "lower"),
    ("matching.solve_iters", "count", "lower"),
    ("matching.inf_b_stages", "count", "lower"),
    ("randtree.batch_s", "s", "lower"),
    ("randtree.batch_draws", "count", "lower"),
    ("randtree.ns_per_draw", "ns", "lower"),
    ("randtree.hit_ratio", "ratio", "higher"),
    ("randtree.sample_tree_s", "s", "lower"),
    ("randtree.sample_tree_calls", "count", "lower"),
    ("randtree.self_avoiding_ratio", "ratio", "higher"),
    ("trees.decompose_s", "s", "lower"),
    ("trees.report_s", "s", "lower"),
    ("trees.pieces", "count", "lower"),
    ("trees.split_s", "s", "lower"),
    ("trees.aut_s", "s", "lower"),
    ("counting.brute_s", "s", "lower"),
    ("counting.brute_copies", "count", "lower"),
    ("counting.estimate_self_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.stages", "count", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)

# span name -> (inclusive-time metric, self-time metric)
_SPAN_METRICS = {
    "graphs.digraph": ("graphs.digraph_s", None),
    "matching.rebalance": ("matching.rebalance_s", None),
    "matching.normality": ("matching.normality_s", None),
    "matching.solve": ("matching.solve_s", None),
    "randtree.batch": ("randtree.batch_s", None),
    "randtree.sample_tree": ("randtree.sample_tree_s", None),
    "trees.decompose": ("trees.decompose_s", None),
    "trees.report": ("trees.report_s", None),
    "trees.split": ("trees.split_s", None),
    "trees.aut": ("trees.aut_s", None),
    "counting.brute": ("counting.brute_s", None),
    "counting.estimate": (None, "counting.estimate_self_s"),
    "pipeline.run": (None, "pipeline.self_s"),
    "cli.parse": ("cli.parse_s", None),
    "cli.main": (None, "cli.self_s"),
}


def per_layer(tr: Tracer, passes: int) -> dict[str, float]:
    """Setup spans and counts once, plus the passes' divided by ``passes``."""
    scale = {"setup": 1.0, "pass": 1.0 / passes}
    child_time = [0.0] * len(tr.spans)
    for name, start, end, parent, phase in tr.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for (name, start, end, _, phase), children in zip(tr.spans, child_time):
        inclusive, own = _SPAN_METRICS.get(name, (None, None))
        if inclusive:
            out[inclusive] += (end - start) * scale[phase]
        if own:
            out[own] += (end - start - children) * scale[phase]
    totals = defaultdict(float)
    for (phase, name), value in tr.counts.items():
        totals[name] += value * scale[phase]
    for name in out:
        if name in totals:
            out[name] = totals[name]
    draws = totals["randtree.batch_draws"]
    out["randtree.ns_per_draw"] = out["randtree.batch_s"] / draws * 1e9 if draws else 0.0
    samples = totals["randtree.batch_samples"]
    out["randtree.hit_ratio"] = totals["randtree.batch_hits"] / samples if samples else 0.0
    calls = totals["randtree.sample_tree_calls"]
    out["randtree.self_avoiding_ratio"] = totals["pipeline.stages"] / calls if calls else 0.0
    return out
