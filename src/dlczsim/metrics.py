"""Estimators turning coincidence counts into link figures of merit.

All three estimators are pure functions of their inputs; the bootstrap helper
is deterministic in (counts, generator state).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .link_physics import PmnTable

__all__ = [
    "concurrence",
    "visibility",
    "intrinsic_efficiency",
    "bootstrap_concurrence_stderr",
]

# Dirichlet resamples per bootstrap error bar
BOOTSTRAP_REPLICATES = 400


def _concurrence_terms(p00, p01, p10, p11, visibility):
    """2|d| - 2 sqrt(p00 p11) with d = V (p01 + p10) / 2, elementwise.

    This is the concurrence before normalization by the table total; it
    broadcasts over arrays of cells and visibilities.
    """
    d = visibility * (p01 + p10) / 2.0
    return 2.0 * np.abs(d) - 2.0 * np.sqrt(p00 * p11)


def concurrence(pmn: PmnTable, visibility: float) -> float:
    """Concurrence of the heralded two-mode state from its Pmn table.

    C = max(0, (2|d| - 2 sqrt(p00 p11)) / P) with d = V (p01 + p10) / 2 and
    P the table total. Scaling all four cells by a common factor leaves C
    unchanged; C is clamped to [0, 1].
    """
    if not 0.0 <= visibility <= 1.0:
        raise ParameterError(f"visibility must lie in [0, 1], got {visibility!r}")
    total = pmn.total
    if total == 0.0:
        raise ParameterError("concurrence is undefined: all four Pmn cells are zero")
    value = float(_concurrence_terms(*pmn.as_tuple(), visibility)) / total
    return min(max(0.0, value), 1.0)


def bootstrap_concurrence_stderr(pmn_counts, visibility: float, rng: np.random.Generator,
                                 visibility_stderr: float = 0.0) -> float:
    """Bootstrap standard error of the concurrence estimate.

    ``pmn_counts`` are the four raw cell counts (c00, c01, c10, c11) over the
    heralded trials. Cell probabilities are resampled from a Dirichlet with a
    Jeffreys prior (counts + 1/2): plain multinomial resampling can never
    repopulate a zero cell, which collapses the error bar exactly where the
    p11 cell is sparsest and matters most. When a visibility standard error is
    supplied, V is jittered normally (clipped to [0, 1]) in each replicate so
    both uncertainty sources propagate. An infinite visibility error (a flat
    fringe) gives an infinite concurrence error, with no draw.
    """
    counts = np.asarray(pmn_counts, dtype=np.int64).reshape(4)
    if counts.sum() <= 0:
        raise ParameterError("bootstrap needs at least one heralded trial")
    if visibility_stderr == np.inf:
        return np.inf
    resampled = rng.dirichlet(counts + 0.5, size=BOOTSTRAP_REPLICATES)
    vs = np.full(BOOTSTRAP_REPLICATES, visibility)
    if visibility_stderr > 0.0:
        vs = np.clip(rng.normal(visibility, visibility_stderr, size=vs.size), 0.0, 1.0)
    # Dirichlet rows sum to 1 only to rounding; they are used as drawn
    values = _concurrence_terms(*resampled.T, vs)
    values = np.maximum(0.0, values)
    return float(values.std(ddof=1))


def visibility(max_counts: float, min_counts: float) -> float:
    """Fringe visibility (max - min) / (max + min) from extremal counts."""
    if max_counts < 0 or min_counts < 0:
        raise ParameterError("counts must be non-negative")
    if max_counts == 0:
        raise ParameterError("visibility is undefined for max_counts = 0")
    if max_counts < min_counts:
        raise ParameterError(
            f"max_counts ({max_counts}) must be >= min_counts ({min_counts})")
    return (max_counts - min_counts) / (max_counts + min_counts)


def intrinsic_efficiency(pmn: PmnTable, eta_d: float) -> float:
    """Detection-corrected retrieval efficiency of the heralded spin wave.

    eta = (p01 + p10) / eta_D: the single-click readout probability per
    heralded trial, divided by the anti-Stokes detection efficiency.
    """
    if not 0.0 < eta_d <= 1.0:
        raise ParameterError(f"eta_d must lie in (0, 1], got {eta_d!r}")
    if pmn.total == 0.0:
        raise ParameterError("intrinsic efficiency is undefined: all four Pmn cells are zero")
    return (pmn.p01 + pmn.p10) / eta_d
