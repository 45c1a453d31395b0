"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit root seed. Sub-streams
are derived with ``numpy.random.SeedSequence(root, spawn_key=path)``: the path
is a tuple of non-negative integers naming the consumer (e.g. ``(round, level)``
for one level of a round of chain trials, ``(point_index, 1)`` for a fringe
scan). SeedSequence hashes (root, path) into generator state, so streams are
independent of each other and of which other consumers run: a chain round sees
the same streams however many trials the run holds. Samplers take the
Generator itself, never a seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for ``path`` under the given root seed."""
    if not all(isinstance(p, (int, np.integer)) and p >= 0 for p in (seed, *path)):
        raise ParameterError(
            f"seed and stream path must be non-negative integers, got {(seed, *path)!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path)))
