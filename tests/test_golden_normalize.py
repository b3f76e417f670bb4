"""Golden outputs of ``normalize_to_b``, pinned across versions of the library.

Recorded from the implementation with separate heavy and light repair
loops.  Successes pin the SHA-256 of the output weights' bytes and every
report field; refusals pin the message and every diagnostic.  The cases
cover the identity return, the heavy phase alone, the light phase alone,
heavy then light, the round budget, and a heavy and a light arc that lie
on no usable 4-cycle.  A rewrite that claims identical behaviour must
reproduce all of them bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from treecount.errors import ProcedureError
from treecount.graphs import Digraph, complete_digraph
from treecount.matching import (
    NormalizationConfig,
    PerfectFractionalMatching,
    max_entropy_matching,
    normalize_to_b,
)


def _one_heavy_arc(n: int = 20) -> PerfectFractionalMatching:
    """The matching of ``test_normalize_heavy_matching``: K_n with x[0,1] near 1/2."""
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    heavy = 0.5
    spread = (heavy - 1.0 / (n - 1)) / (n - 2)
    w[0, 1] = heavy
    w[0, 2:] -= spread
    w[2:, 1] -= spread
    for i in range(2, n):
        for j in range(2, n):
            if i != j:
                w[i, j] += 2 * spread / (n - 3)
    w = np.maximum(w, 0)
    w /= w.sum(axis=1, keepdims=True)
    for _ in range(2000):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    for _ in range(2000):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
    return PerfectFractionalMatching(complete_digraph(n), w)


def _circulant(n: int, ratio: float) -> PerfectFractionalMatching:
    """K_n with x[v, v+s mod n] proportional to ratio**s: skewed, exactly unit-sum."""
    c = np.array([ratio**s for s in range(1, n)])
    c /= c.sum()
    w = np.zeros((n, n))
    for s in range(1, n):
        w[np.arange(n), (np.arange(n) + s) % n] = c[s - 1]
    return PerfectFractionalMatching(complete_digraph(n), w)


def _mixture(perms: list[list[int]], coefs: list[float]) -> PerfectFractionalMatching:
    """A convex combination of permutations, on the union of their arcs."""
    n = len(perms[0])
    w = np.zeros((n, n))
    arcs = set()
    for c, p in zip(coefs, perms):
        w[range(n), p] += c
        arcs.update(zip(range(n), p))
    return PerfectFractionalMatching(Digraph(n, arcs), w)


def _case(name: str):
    if name == "identity":
        return max_entropy_matching(complete_digraph(8))[0], dict(b=8 / 7 + 1e-9, lam=0.5)
    if name == "heavy":
        return _one_heavy_arc(), dict(b=6.0, lam=0.4)
    if name == "heavy-light":
        return _circulant(10, 0.5), dict(b=4.0, lam=0.1)
    if name == "light":
        return _circulant(10, 0.6), dict(b=4.0, lam=0.1)
    if name == "budget":
        return _circulant(12, 0.5), dict(b=4.0, lam=0.1, max_rounds=50)
    if name == "no-cycle-heavy":
        return _mixture([[3, 4, 0, 1, 2], [4, 3, 1, 2, 0]], [0.1, 0.9]), dict(b=4.0, lam=0.1)
    assert name == "no-cycle-light"
    return (
        _mixture([[3, 0, 1, 2], [3, 2, 1, 0], [2, 0, 3, 1]], [0.05, 0.15, 0.8]),
        dict(b=4.0, lam=0.05),
    )


def _run(name: str):
    """normalize_to_b on the named case, and whether it warned about lam."""
    x, kw = _case(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = normalize_to_b(x, NormalizationConfig(**kw))
        except ProcedureError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


LAM_WARNING = (
    "blend parameter below partner-normality ratio; light arcs may stay below the window"
)

# name -> (warned, SHA-256 of weights.tobytes(), report as a tuple:
# b_before, b_after, entropy_before, entropy_after, entropy_loss, rounds, blended)
SUCCESSES = {
    "identity": (
        False,
        "ebe2342b550fcee7d74d6e3046c1b0ddd14a381a8254da6aade5226a400ce649",
        (1.142857142857143, 1.142857142857143, 22.458839376460833,
         22.458839376460833, 0.0, 0, False),
    ),
    "heavy": (
        False,
        "63b0465cb12d945681e606b98edba54db1a1add438fcd10deaee9e524c42e772",
        (10.087627996240847, 6.0, 83.57964421831565, 84.43097138272702,
         -0.8513271644113729, 1, True),
    ),
    "heavy-light": (
        True,
        "9ba76b42d43b49a1528c58476e6a524fad513dff18abe3581855a54ecaa82736",
        (51.1, 4.0, 19.79566956475782, 25.187714071911252,
         -5.392044507153432, 31, True),
    ),
    "light": (
        True,
        "3e92601140db61056dff16e365bf2739e4247501e71aa99b7eb7e08849c03c7c",
        (14.734354519128184, 4.0, 23.452409777937305, 25.646904065110505,
         -2.1944942871731996, 16, True),
    ),
}

# name -> (message, diagnostics); every refusing case warns about lam
REFUSALS = {
    "budget": (
        "round budget exhausted before reaching the window",
        # the arcs that attain b_after; they weigh about 0.016, below
        # lo = 1/48, so they are light arcs, not heavy ones
        {"b_after": 5.16776829156339,
         "attaining_arcs": [(4, 11), (5, 0), (6, 1), (7, 2), (8, 3), (9, 4),
                        (10, 5), (11, 6)]},
    ),
    "no-cycle-heavy": (
        "no usable 4-cycle for a surviving heavy arc",
        {"heavy_arcs": [(2, 1), (3, 2), (4, 0)], "b": 4.0},
    ),
    "no-cycle-light": (
        "no usable 4-cycle for a surviving light arc",
        {"light_arcs": [(3, 2)], "b": 4.0},
    ),
}


@pytest.mark.parametrize("name", sorted(SUCCESSES))
def test_normalize_success_pin(name):
    warned, digest, report = SUCCESSES[name]
    (out, rep), caught = _run(name)
    assert caught == ([LAM_WARNING] if warned else [])
    assert hashlib.sha256(out.weights.tobytes()).hexdigest() == digest
    assert dataclasses.astuple(rep) == report


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_normalize_refusal_pin(name):
    message, diagnostics = REFUSALS[name]
    exc, caught = _run(name)
    assert caught == [LAM_WARNING]
    assert isinstance(exc, ProcedureError)
    assert str(exc) == message
    assert exc.diagnostics == diagnostics
