"""Screen embed case ids: print the ids whose run_pipeline completes.

    python3 bench/screen_embed.py 64

Runs the first N case ids of the embed workload once each, checks every
embedding that completes, and prints the ids that complete as the tuple
for ``workloads.EMBED_POOL``, with the failures and their messages on
standard error.  It also confirms that the fixed failing case still fails.
"""

from __future__ import annotations

import sys
import time

import run  # noqa: F401  (pins threads and puts treecount on the path)
import checks
import workloads
from treecount.errors import InputError, ProcedureError
from treecount.graphs import Digraph
from treecount.pipeline import run_pipeline
from treecount.trees import RootedOrientedTree


def attempt(n, arcs, parent, dirs, seed):
    t0 = time.perf_counter()
    try:
        trace = run_pipeline(Digraph(n, arcs), RootedOrientedTree(parent, dirs), seed=seed)
    except (ProcedureError, InputError) as exc:
        return f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    checks.check_embedding(parent, dirs, checks.adjacency(n, arcs), trace.mapping)
    return None, time.perf_counter() - t0


def main() -> int:
    count = int(sys.argv[1])
    error, _ = attempt(*workloads.failing_embed_case())
    print(f"failing case: {error}", file=sys.stderr)
    pool = []
    for cid in range(count):
        error, secs = attempt(*workloads.embed_case(cid))
        print(f"{cid}: {secs:.2f} s {error or 'ok'}", file=sys.stderr)
        if error is None:
            pool.append(cid)
    print(f"{count - len(pool)} of {count} fail", file=sys.stderr)
    print(tuple(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
