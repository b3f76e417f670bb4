"""The four workloads: seeded inputs, the operations on them, their checks.

``SETUPS[name](seed, workdir)`` builds a workload's inputs and returns its
cases, one operation each.  A pass runs every case once, in order; the
library is called through its module attributes (``pipeline.run_pipeline``
and so on) so that a traced run sees the same calls.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs
from treecount import cli, counting, matching, pipeline
from treecount.graphs import Digraph
from treecount.trees import RootedOrientedTree


class OpFailed(RuntimeError):
    """A CLI call that ended with a nonzero exit code."""


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# ---------------------------------------------------------------------------
# embed: run_pipeline of spanning trees into dense hosts
# ---------------------------------------------------------------------------

EMBED_N, EMBED_MIN_DEG, EMBED_MAX_DEG = 100, 60, 4
EMBED_CASES = 16
# Case ids among the first 96 whose run_pipeline completes (screen_embed.py
# rebuilds the list).  The ids that raise are left out: a run's ids come from
# its seed, so their failures would make the failed share vary between runs.
EMBED_POOL = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
    21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 34, 35, 36, 37, 38, 39, 40,
    41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 52, 53, 54, 55, 56, 58, 59, 61,
    62, 63, 66, 68, 70, 72, 73, 74, 76, 77, 79, 80, 81, 82, 83, 84, 85, 87,
    88, 89, 90, 91, 92, 94,
)


def embed_case(case_id: int):
    """(n, arcs, parent, dirs, pipeline seed) of a pool case."""
    rng = np.random.default_rng([0xE3BED, case_id])
    arcs = inputs.dense_host(rng, EMBED_N, EMBED_MIN_DEG)
    parent, dirs = inputs.recursive_tree(rng, EMBED_N, EMBED_MAX_DEG)
    return EMBED_N, arcs, parent, dirs, case_id


def failing_embed_case():
    """The fixed case that fails on every run: the rebalance gives up and the
    re-solve of the shrunken host hits its iteration cap."""
    arcs = inputs.dense_host(np.random.default_rng(120), 120, 72)
    parent, dirs = inputs.recursive_tree(np.random.default_rng(1002), 120, 8)
    return 120, arcs, parent, dirs, 2


def _embed(label, n, arcs, parent, dirs, seed) -> Case:
    g = Digraph(n, arcs)
    t = RootedOrientedTree(parent, dirs)

    def check(trace):
        if not trace.success:
            raise checks.CheckError("trace reports no success")
        checks.check_embedding(parent, dirs, checks.adjacency(n, arcs), trace.mapping)

    return Case(label, lambda: pipeline.run_pipeline(g, t, seed=seed), check)


def setup_embed(seed: int, workdir: Path) -> list[Case]:
    ids = np.random.default_rng(seed).choice(EMBED_POOL, EMBED_CASES, replace=False)
    cases = [_embed(f"pool-{cid}", *embed_case(int(cid))) for cid in ids]
    cases.append(_embed("failing", *failing_embed_case()))
    return cases


# ---------------------------------------------------------------------------
# estimate: max-entropy matching, then 200k-sample copy estimates
# ---------------------------------------------------------------------------

ESTIMATE_SAMPLES = 200_000
ESTIMATE_PLAN = ((100, 10), (100, 30), (400, 10))  # (host order, tree size)


def _estimate(label, n, arcs, parent, dirs, est_seed, complete) -> Case:
    g = Digraph(n, arcs)
    t = RootedOrientedTree(parent, dirs)

    def run():
        x, cert = matching.max_entropy_matching(g)
        rep = counting.estimate_copies(g, x, t, samples=ESTIMATE_SAMPLES, seed=est_seed)
        return x, cert, rep

    def check(out):
        x, cert, rep = out
        adj = checks.adjacency(n, arcs)
        checks.check_matching(adj, x.weights, cert.row_factors, cert.col_factors)
        if complete:
            checks.check_estimate_complete(n, len(parent), rep.labelled, rep.ci)
        else:
            checks.check_estimate_bounded(parent, dirs, adj, rep.labelled)

    return Case(label, run, check)


def setup_estimate(seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng([0xE57, seed])
    cases = []
    for n, k in ESTIMATE_PLAN:
        for complete in (True, False):
            arcs = inputs.complete_arcs(n) if complete else inputs.dense_host(rng, n, (3 * n) // 5)
            parent, dirs = inputs.recursive_tree(rng, k, 4)
            label = f"{'K' if complete else 'R'}{n}-T{k}"
            cases.append(_estimate(label, n, arcs, parent, dirs,
                                   int(rng.integers(2 ** 31)), complete))
    return cases


# ---------------------------------------------------------------------------
# CLI workloads: in-process treecount.cli.main on generated files
# ---------------------------------------------------------------------------

def _cli_case(label: str, argv: list[str], out: Path, check_payload) -> Case:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise OpFailed(f"{label}: exit code {rc}")
        return buf.getvalue()

    def check(stdout):
        if stdout != f"wrote {out}\n":
            raise checks.CheckError(f"unexpected CLI output {stdout!r}")
        check_payload(json.loads(out.read_text()))

    return Case(label, run, check)


# (host order = tree size, min semidegree, cases); hosts are thinned as far as
# the semidegree allows, so their arc counts, and the copy counts, vary little
EXACT_PLAN = ((10, 6, 80), (11, 7, 4))


def setup_exact(seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng([0xE4AC7, seed])
    cases = []
    for n, min_deg, count in EXACT_PLAN:
        for i in range(count):
            label = f"n{n}-{i}"
            arcs = inputs.dense_host(rng, n, min_deg, keep_prob=1.0)
            parent, dirs = inputs.recursive_tree(rng, n, 4)
            g_path, t_path, out = (workdir / f"{label}.{ext}" for ext in ("graph", "tree", "json"))
            g_path.write_text(inputs.graph_text(n, arcs))
            t_path.write_text(inputs.tree_text(parent, dirs))
            cases.append(_cli_case(
                label, ["verify", str(g_path), str(t_path), "--out", str(out)], out,
                _verify_check(n, arcs, parent, dirs),
            ))
    return cases


def _verify_check(n, arcs, parent, dirs):
    @functools.cache  # computed at the first check, outside the timed region
    def reference():
        adj = checks.adjacency(n, arcs)
        return checks.labelled_copies(parent, dirs, adj), checks.automorphisms(parent, dirs)

    return lambda payload: checks.check_verify(payload, *reference())


DECOMPOSE_SIZES = (1000, 1400, 2000, 2800, 4000, 5600, 8000, 11000, 16000, 22000, 30000)
DECOMPOSE_SHAPES = {
    "recursive": lambda rng, n: inputs.recursive_tree(rng, n, 16),
    "path": inputs.path,
    "caterpillar": inputs.caterpillar,
}


def setup_decompose(seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng([0xDEC, seed])
    cases = []
    for shape, make in DECOMPOSE_SHAPES.items():
        for n in DECOMPOSE_SIZES:
            label = f"{shape}-{n}"
            parent, dirs = make(rng, n)
            t_path, out = workdir / f"{label}.tree", workdir / f"{label}.json"
            t_path.write_text(inputs.tree_text(parent, dirs))
            cases.append(_cli_case(
                label, ["decompose", str(t_path), "--out", str(out)], out,
                functools.partial(checks.check_decomposition, parent),
            ))
    return cases


SETUPS = {
    "embed": setup_embed,
    "estimate": setup_estimate,
    "exact": setup_exact,
    "decompose": setup_decompose,
}
