"""Pins the random instances the shared test helpers draw.

Other tests take their data from these helpers at fixed seeds, so a helper
rewrite must reproduce the old draws exactly.  The expected values below
were recorded from the original ``random_tree``, which picked each parent
with ``rng.choice(np.flatnonzero(deg[:v] < max_deg - 1))``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from helpers import random_tree
from treecount.trees import DOWN, UP


def _dirs(t) -> str:
    return "".join({None: "-", DOWN: "d", UP: "u"}[d] for d in t.edge_dir)


def _digest(t) -> str:
    return hashlib.sha256((repr(t.parent) + _dirs(t)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, n, max_deg, parent, dirs",
    [
        (1, 12, 3, [-1, 0, 1, 2, 0, 3, 4, 5, 7, 8, 6, 10], "-ududuududdd"),
        (2, 15, 4, [-1, 0, 0, 0, 2, 3, 5, 1, 3, 5, 7, 8, 11, 12, 1],
         "-dududduddduudd"),
        (3, 20, 16, [-1, 0, 0, 0, 0, 0, 1, 1, 3, 3, 6, 6, 9, 3, 12, 4, 15, 5,
                     11, 11], "-duuddududuuuudududu"),
    ],
)
def test_random_tree_pinned_small(seed, n, max_deg, parent, dirs):
    t = random_tree(np.random.default_rng(seed), n, max_deg)
    assert list(t.parent) == parent
    assert _dirs(t) == dirs


def test_random_tree_pinned_c05_draws():
    # replays the draw sequence of criterion 05 (seed 105) for five trees
    expected = [
        (459, "3941a67908943aff"),
        (568, "75b258aed7824d68"),
        (20, "69ecfa4c05e65630"),
        (9094, "184d21d5b2f1b826"),
        (5, "a5b6ddbcaf07bed0"),
    ]
    rng = np.random.default_rng(105)
    got = []
    for _ in expected:
        n = int(round(10 ** rng.uniform(math.log10(2), 4)))
        t = random_tree(rng, n, max_deg=16)
        rng.integers(n, min(n ** 4, 4 * n) + 1)
        if n >= 3:
            rng.integers(1, max(2, n // 3))
        got.append((n, _digest(t)))
    assert got == expected



@pytest.mark.parametrize("n, max_deg", [(3, 2), (10, 2), (2, 1), (5, 0)])
def test_random_tree_refuses_low_degree_cap(n, max_deg):
    with pytest.raises(ValueError, match=f"degree cap max_deg={max_deg} allows"):
        random_tree(np.random.default_rng(0), n, max_deg)


@pytest.mark.parametrize("n, max_deg", [(1, 0), (1, 1), (2, 2), (3, 3)])
def test_random_tree_draws_within_low_degree_cap(n, max_deg):
    assert random_tree(np.random.default_rng(0), n, max_deg).n == n
