"""Seedable counter-based random streams.

Every stream is a Philox generator keyed by (seed, worker), so a
(seed, worker, draw-index) triple fully determines each sample and
distinct worker indices never share state.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_WORKER_STRIDE = 2**64


def stream(seed: int, worker: int = 0) -> np.random.Generator:
    """Return the RNG stream for the given seed and worker index."""
    if seed < 0 or worker < 0:
        raise InputError("seed and worker must be nonnegative")
    key = (seed % 2**64) + _WORKER_STRIDE * (worker % 2**64)
    return np.random.Generator(np.random.Philox(key=key))


def as_stream(seed_or_rng, worker: int = 0) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng), worker)
