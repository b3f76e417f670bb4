from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.entropy import (
    DiscreteDistribution,
    EventMask,
    conditional_entropy,
    entropy,
    entropy_gap_bound,
    plugin_entropy,
    xlog2_inv,
)
from treecount.errors import InputError


def test_xlog2_inv():
    assert xlog2_inv(0.0) == 0.0
    assert xlog2_inv(0.5) == pytest.approx(0.5)
    assert xlog2_inv(1.0) == 0.0


def test_entropy_values():
    d = DiscreteDistribution.of([0.5, 0.5])
    assert entropy(d) == pytest.approx(1.0)
    u = DiscreteDistribution.of([0.25] * 4)
    assert entropy(u) == pytest.approx(2.0)


def test_distribution_validation():
    with pytest.raises(InputError):
        DiscreteDistribution.of([0.5, 0.6])
    with pytest.raises(InputError):
        DiscreteDistribution.of([1.5, -0.5])


def test_conditional_entropy():
    d = DiscreteDistribution.of([0.25] * 4)
    e = EventMask.of_indices([0, 1], 4)
    assert conditional_entropy(d, e) == pytest.approx(1.0)
    with pytest.raises(InputError):
        conditional_entropy(d, EventMask.of_indices([], 4))


def test_gap_bound_requires_hypotheses():
    d = DiscreteDistribution.of([0.25] * 4)
    with pytest.raises(InputError):
        entropy_gap_bound(d, EventMask.of_indices([0], 4), A=8)
    with pytest.raises(InputError):
        # event too unlikely: 1 - P[E] > 1/2
        entropy_gap_bound(d, EventMask.of_indices([0], 4), A=16)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gap_bound_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    A = float(rng.uniform(16, 64))
    # probabilities all >= 1/A, event covering at least half the mass
    base = rng.dirichlet(np.ones(k))
    floor = 1.0 / A
    probs = floor + (1 - k * floor) * base
    if probs.min() < floor or (1 - k * floor) <= 0:
        return
    d = DiscreteDistribution.of(probs / probs.sum())
    order = np.argsort(probs)[::-1]
    members, mass = [], 0.0
    for i in order:
        members.append(int(i))
        mass += d.probs[i]
        if mass >= 0.5:
            break
    verdict = entropy_gap_bound(d, EventMask.of_indices(members, k), A=A)
    assert verdict.holds


def test_plugin_entropy():
    samples = [0, 0, 1, 1]
    assert plugin_entropy(samples) == pytest.approx(1.0)
    rows = np.array([[0, 1], [0, 1], [1, 0], [1, 0]])
    assert plugin_entropy(rows) == pytest.approx(1.0)
