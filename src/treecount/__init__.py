"""Maximum-entropy fractional matchings and random tree embeddings.

Library + CLI for computing maximum-entropy perfect fractional matchings
on dense digraphs, rebalancing them, decomposing rooted oriented trees,
sampling branching random-walk embeddings, and verifying tree-copy lower
bounds at desk scale.
"""

from __future__ import annotations

from .errors import InputError, ParseError, ProcedureError
from .graphs import (
    Digraph,
    complete_digraph,
    directed_cycle,
    epsilon_of,
    min_semidegree,
    parse_graph_text,
    write_graph_text,
)
from .matching import (
    PerfectFractionalMatching,
    fourcycle_shift,
    matching_entropy,
    max_entropy_matching,
    normality,
    parse_pfm_text,
    rebalance_after_removal,
    write_pfm_text,
)
from .trees import (
    RootedOrientedTree,
    automorphism_count,
    parse_tree_text,
    path_tree,
    star_tree,
    quarter_decomposition,
    split_trunk,
    tree_partition,
    write_tree_text,
)
from .randtree import (
    exact_tree_entropy,
    hr_lower_bound,
    marginals,
    mixing_check,
    sample_tree,
    sample_trees_batch,
)
from .counting import (
    count_copies_brute,
    directed_lower_bound,
    estimate_copies,
    undirected_lower_bound,
    verify_bound_experiment,
)
from .pipeline import run_pipeline, validate_embedding

__version__ = "0.1.0"

__all__ = [
    "Digraph", "RootedOrientedTree", "PerfectFractionalMatching",
    "InputError", "ParseError", "ProcedureError",
    "complete_digraph", "directed_cycle", "epsilon_of", "min_semidegree",
    "parse_graph_text", "write_graph_text",
    "matching_entropy", "max_entropy_matching", "normality",
    "fourcycle_shift", "rebalance_after_removal",
    "parse_pfm_text", "write_pfm_text", "automorphism_count",
    "quarter_decomposition", "tree_partition", "split_trunk",
    "path_tree", "star_tree",
    "parse_tree_text", "write_tree_text", "sample_tree", "sample_trees_batch",
    "marginals", "exact_tree_entropy", "hr_lower_bound", "mixing_check",
    "count_copies_brute", "estimate_copies", "directed_lower_bound",
    "undirected_lower_bound", "verify_bound_experiment", "run_pipeline",
    "validate_embedding",
]
