"""Discrete entropy utilities, base-2 throughout.

Includes a numeric verifier for the conditioning gap of a likely event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

NORMALIZATION_TOL = 1e-12


def xlog2_inv(p: float) -> float:
    """p * log2(1/p), with 0 log 0 := 0."""
    if p == 0.0:
        return 0.0
    return -p * math.log2(p)


@dataclass(frozen=True)
class DiscreteDistribution:
    probs: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("distribution must be a nonempty 1-d array")
        if np.any(arr < 0):
            raise InputError("negative probability")
        if abs(float(arr.sum()) - 1.0) > NORMALIZATION_TOL:
            raise InputError(
                f"probabilities sum to {arr.sum()!r}, outside 1 +/- {NORMALIZATION_TOL}"
            )

    @classmethod
    def of(cls, probs: Iterable[float]) -> "DiscreteDistribution":
        return cls(tuple(float(p) for p in probs))

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class EventMask:
    members: tuple[bool, ...]

    @classmethod
    def of_indices(cls, indices: Iterable[int], size: int) -> "EventMask":
        idx = set(indices)
        return cls(tuple(i in idx for i in range(size)))

    def probability(self, d: DiscreteDistribution) -> float:
        return sum(p for p, flag in zip(d.probs, self.members) if flag)


def entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy in bits."""
    return sum(xlog2_inv(p) for p in d.probs)


def conditional_entropy(d: DiscreteDistribution, e: EventMask) -> float:
    """Entropy of d renormalized to the event e (which must have P > 0)."""
    if len(e.members) != len(d):
        raise InputError("event mask size does not match distribution")
    pe = e.probability(d)
    if pe <= 0.0:
        raise InputError("conditioning event has zero probability")
    return sum(
        xlog2_inv(p / pe) for p, flag in zip(d.probs, e.members) if flag
    )


@dataclass(frozen=True)
class GapVerdict:
    gap: float
    bound: float
    holds: bool


def entropy_gap_bound(
    d: DiscreteDistribution, e: EventMask, A: float, tol: float = 1e-9
) -> GapVerdict:
    """Check H(X) - H(X|E) <= 2a log2(A) where a = 1 - P[E].

    Requires A >= 16, every outcome probability >= 1/A, and a <= 1/2.
    """
    if A < 16:
        raise InputError(f"A must be at least 16, got {A}")
    if min(d.probs) < 1.0 / A - 1e-15:
        raise InputError("some outcome probability is below 1/A")
    a = 1.0 - e.probability(d)
    if a > 0.5 + 1e-15:
        raise InputError(f"event too unlikely: 1 - P[E] = {a} > 1/2")
    gap = entropy(d) - conditional_entropy(d, e)
    bound = 2.0 * a * math.log2(A)
    return GapVerdict(gap=gap, bound=bound, holds=gap <= bound + tol)


def plugin_entropy(samples: Sequence) -> float:
    """Plug-in (empirical frequency) entropy estimate in bits."""
    values, counts = np.unique(np.asarray(samples), return_counts=True, axis=0)
    freqs = counts / counts.sum()
    return float(-(freqs * np.log2(freqs)).sum())
