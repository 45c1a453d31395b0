"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit root seed. Sub-streams
are derived with ``numpy.random.SeedSequence(root, spawn_key=path)``: the path
is a tuple of non-negative integers naming the consumer (e.g. ``(trial_index,)``
for one Monte Carlo trial, ``(phase_index, 1)`` for a fringe scan). SeedSequence
hashes (root, path) into generator state, so streams are independent of each
other and of which other consumers run: trial *i* sees the same stream however
many trials the run holds.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["substream", "as_generator"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for ``path`` under the given root seed."""
    if not all(isinstance(p, (int, np.integer)) and p >= 0 for p in (seed, *path)):
        raise ParameterError(
            f"seed and stream path must be non-negative integers, got {(seed, *path)!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path)))


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
