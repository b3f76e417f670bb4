"""Command-line front end.

Each subcommand reads text-format graphs/trees, runs one experiment, writes
a single JSON or CSV artifact, and prints a one-line summary.  Exit codes:
0 success, 1 procedure failure (diagnostics included), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .counting import (
    BoundInputs,
    bound_entropy,
    bound_note,
    brute_budget,
    count_copies_brute,
    count_report_to_dict,
    directed_lower_bound,
    estimate_copies,
    experiments_to_csv,
    verify_bound_experiment,
)
from .errors import InputError, ProcedureError
from .graphs import Digraph, parse_graph_text
from .jsontext import dumps as _json
from .matching import matching_entropy, max_entropy_matching, normality
from .pipeline import run_pipeline, trace_to_json
from .randtree import batch_to_csv, mixing_check, sample_trees_batch
from .trees import (
    DOWN,
    automorphism_count,  # noqa: F401  -- the benchmark's tracer wraps cli.automorphism_count
    decomposition_invariant_report,
    parse_tree_text,
    quarter_decomposition,
)


def _read_graph(path: str) -> Digraph:
    return parse_graph_text(Path(path).read_text())


def _read_tree(path: str):
    return parse_tree_text(Path(path).read_text())


def _emit(args, payload: str, default_name: str) -> None:
    out = args.out or default_name
    Path(out).write_text(payload)
    print(f"wrote {out}")


def cmd_entropy(args) -> int:
    g = _read_graph(args.graph)
    x, cert = max_entropy_matching(g, tol=args.tol)
    rep = normality(x)
    payload = _json({
        "n": g.n,
        "m": g.m,
        "h_bits": matching_entropy(x),
        "b_min": rep.b_min,
        "sum_residual": x.residual,
        "dual_gap": cert.dual_gap,
        "iterations": cert.iterations,
    })
    _emit(args, payload, "entropy.json")
    return 0


def cmd_count(args) -> int:
    g = _read_graph(args.graph)
    t = _read_tree(args.tree)
    if args.mode == "brute":
        h, note = bound_entropy(g, t, tol=args.tol)
        rep = count_copies_brute(g, t, budget=brute_budget(g))
    else:
        # the estimator samples from the matching, so it needs the solve
        x, _ = max_entropy_matching(g, tol=args.tol)
        rep = estimate_copies(g, x, t, samples=args.samples, seed=args.seed)
        h, note = matching_entropy(x), bound_note(g, t)
    bound = directed_lower_bound(
        BoundInputs(n=g.n, h=h, eps=args.eps, aut=rep.aut)
    )
    # an estimate with no self-avoiding draw cannot decide the bound
    undecided = rep.method == "estimator" and rep.labelled == 0
    payload = _json({
        "count": count_report_to_dict(rep),
        "h_bits": h,
        "aut": rep.aut,
        "bound_log2": bound.log2,
        "bound_value": bound.value,
        "holds": None if undecided else (rep.unlabelled or 0) >= bound.value,
        "note": note,
    })
    _emit(args, payload, "count.json")
    return 0


def cmd_sample(args) -> int:
    g = _read_graph(args.graph)
    t = _read_tree(args.tree)
    x, _ = max_entropy_matching(g, tol=args.tol)
    batch = sample_trees_batch(g, x, t, args.samples, args.seed, start=args.start)
    _emit(args, batch_to_csv(batch), "samples.csv")
    return 0


def cmd_mixing(args) -> int:
    g = _read_graph(args.graph)
    x, _ = max_entropy_matching(g, tol=args.tol)
    pattern = [DOWN]
    rep = mixing_check(g, x, pattern, start=0, t_min=args.t_min, t_max=args.t_max)
    _emit(args, _json(asdict(rep)), "mixing.json")
    return 0


def cmd_decompose(args) -> int:
    t = _read_tree(args.tree)
    n0 = args.n0 if args.n0 is not None else t.n
    dec = quarter_decomposition(t, n0)
    inv = decomposition_invariant_report(t, dec)
    payload = _json({
        "n": t.n,
        "n0": dec.n0,
        "delta": dec.delta,
        "residuals": list(dec.residuals),
        "invariants": inv,
        "pieces": [
            {
                "root": p.root,
                "size": p.size,
                "vertices": p.vertices,
                "overlap": list(dec.overlaps[i]) if dec.overlaps[i] else None,
            }
            for i, p in enumerate(dec.pieces)
        ],
    })
    _emit(args, payload, "decomposition.json")
    return 0


def cmd_pipeline(args) -> int:
    g = _read_graph(args.graph)
    t = _read_tree(args.tree)
    trace = run_pipeline(
        g, t, seed=args.seed, retry_budget=args.retries,
        trunk_threshold=args.threshold,
    )
    _emit(args, trace_to_json(trace), "pipeline.json")
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    t = _read_tree(args.tree)
    exp = verify_bound_experiment(g, t, eps=args.eps)
    if args.format == "csv":
        _emit(args, experiments_to_csv([exp]), "verify.csv")
    else:
        _emit(args, _json({
            "n": exp.n, "m": exp.m_edges, "h_bits": exp.h_bits,
            "aut": exp.aut, "count": exp.count,
            "bound_log2": exp.bound_log2, "ratio_log2": exp.ratio_log2,
            "holds": exp.holds, "note": exp.note,
        }), "verify.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="entropy, sampling, and counting experiments for "
                    "tree embeddings in dense digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--seed": dict(type=int, default=0),
        "--samples": dict(type=int, default=10000),
        "--tol": dict(type=float, default=1e-10),
        "--eps": dict(type=float, default=0.0),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--mode": dict(choices=("brute", "estimate"), default="brute"),
        "--start": dict(type=int, default=None),
        "--t-min": dict(type=int, default=1),
        "--t-max": dict(type=int, default=200),
        "--n0": dict(type=int, default=None),
        "--retries": dict(type=int, default=100),
        "--threshold": dict(type=int, default=None),
    }
    inputs = {"graph": "edge-list file", "tree": "tree file"}

    def command(name, func, summary, positionals, flags):
        # each subcommand declares only the flags its cmd_* function reads
        p = sub.add_parser(name, help=summary)
        for arg in positionals:
            p.add_argument(arg, help=inputs[arg])
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    command("entropy", cmd_entropy, "max-entropy matching of a graph",
            ["graph"], ["--tol"])
    command("count", cmd_count, "count copies of a tree", ["graph", "tree"],
            ["--mode", "--tol", "--eps", "--samples", "--seed"])
    command("sample", cmd_sample, "sample random tree embeddings",
            ["graph", "tree"],
            ["--tol", "--samples", "--seed", "--start"])
    command("mixing", cmd_mixing, "walk-marginal mixing report",
            ["graph"], ["--tol", "--t-min", "--t-max"])
    command("decompose", cmd_decompose, "quarter-power tree decomposition",
            ["tree"], ["--n0"])
    command("pipeline", cmd_pipeline, "iterative tree embedding",
            ["graph", "tree"], ["--seed", "--retries", "--threshold"])
    command("verify", cmd_verify, "copy count against the entropy bound",
            ["graph", "tree"], ["--eps", "--format"])

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so one serves every call
    return build_parser()


def _plain(value):
    """JSON fallback for diagnostics: numpy scalars as numbers, else text."""
    return value.item() if hasattr(value, "item") else str(value)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProcedureError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        rest = {k: v for k, v in exc.diagnostics.items() if k != "trace"}
        if rest:
            text = json.dumps(rest, sort_keys=True, default=_plain)
            print(f"diagnostics: {text}", file=sys.stderr)
        trace = exc.diagnostics.get("trace")
        if trace is not None and getattr(args, "out", None):
            Path(args.out).write_text(trace_to_json(trace))
        return 1


if __name__ == "__main__":
    sys.exit(main())
