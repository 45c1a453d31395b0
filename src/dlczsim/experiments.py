"""Link-experiment pipelines: storage-time scans and mode-count scans.

Each storage-time point runs the sampled write/herald/readout pipeline to
tally a PmnTable, measures the fringe visibility by fitting a sinusoid to
Poisson-sampled fringe counts, and combines both into the concurrence. The
mode-count scan repeats the heralding stage for every N and reports the
multiplexed detection probability alongside the concurrence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldsError, ParameterError
from .fitters import FitResult, Samples, fit_sinusoid
from .link_physics import LinkParams, fringe_expectation, run_link_trials
from .metrics import bootstrap_concurrence_stderr, concurrence, intrinsic_efficiency
from .streams import substream

__all__ = [
    "ScanPoint",
    "fringe_counts",
    "measure_visibility",
    "storage_time_scan",
    "mode_count_scan",
]


@dataclass(frozen=True)
class ScanPoint:
    """One point of either scan: the link's storage time and mode count, and
    every estimate drawn there."""

    storage_time: float
    mode_count: int
    heralded: int
    concurrence: float
    concurrence_stderr: float
    visibility: float
    visibility_stderr: float
    efficiency: float
    detection_probability: float
    detection_stderr: float


def fringe_counts(params: LinkParams, storage_time: float, rng: np.random.Generator,
                  phases: int, shots_per_phase: int) -> Samples:
    """Poisson-sampled coincidence counts across one fringe period.

    Each phase point accumulates ``shots_per_phase`` heralded readouts; the
    expected count is shots * fringe_expectation(theta).
    """
    if phases < 4:
        raise ParameterError(f"a fringe scan needs >= 4 phases, got {phases}")
    theta = np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False)
    expected = shots_per_phase * fringe_expectation(theta, storage_time, params)
    counts = rng.poisson(expected).astype(float)
    return Samples.from_xy(theta, counts)


def measure_visibility(params: LinkParams, storage_time: float, rng: np.random.Generator,
                       phases: int, shots_per_phase: int) -> tuple[float, float, FitResult]:
    """Measure the fringe visibility from sampled counts.

    The visibility comes from the fitted sinusoid's extrema, which shot noise
    cannot bias the way raw max/min bins can (the raw estimator picks the most
    upward-fluctuated bin as the maximum).
    """
    samples = fringe_counts(params, storage_time, rng, phases, shots_per_phase)
    fit = fit_sinusoid(samples)
    return fit.params["visibility"], fit.stderr["visibility"], fit


def _point(params: LinkParams, storage_time: float, trains: int, seed_root: int,
           stream: int, phases: int, shots_per_phase: int) -> ScanPoint:
    """Draw one scan point: the link trials, fringe and bootstrap on
    substreams (seed_root, stream, 0 | 1 | 2)."""
    tally = run_link_trials(params, storage_time, trains, substream(seed_root, stream, 0))
    if tally.heralded == 0:
        raise NoHeraldsError(
            f"no heralds in {trains} trains at storage_time={storage_time} s, "
            f"N={params.mode_count}: increase the train budget")
    vis, vis_err, _ = measure_visibility(
        params, storage_time, substream(seed_root, stream, 1), phases, shots_per_phase)
    stderr = bootstrap_concurrence_stderr(
        tally.pmn_counts.reshape(4), vis,
        substream(seed_root, stream, 2), visibility_stderr=vis_err)
    p_d = tally.detection_probability
    return ScanPoint(
        storage_time=storage_time,
        mode_count=params.mode_count,
        heralded=tally.heralded,
        concurrence=concurrence(tally.pmn(), vis),
        concurrence_stderr=stderr,
        visibility=vis,
        visibility_stderr=vis_err,
        efficiency=intrinsic_efficiency(tally.pmn(), params.detection_eff),
        detection_probability=p_d,
        # clicks across windows are nearly independent Bernoullis at these rates
        detection_stderr=float(np.sqrt(max(p_d, 1.0 / tally.trains) / tally.trains)),
    )


def storage_time_scan(params: LinkParams, storage_times, trains: int, seed: int,
                      phases: int, shots_per_phase: int) -> list[ScanPoint]:
    """Run the full pipeline at each storage time. ``trains`` applies per point."""
    return [_point(params, float(t), trains, seed, index, phases, shots_per_phase)
            for index, t in enumerate(storage_times)]


def mode_count_scan(params: LinkParams, mode_counts, storage_time: float,
                    window_budget: int, seed: int, phases: int,
                    shots_per_phase: int) -> list[ScanPoint]:
    """Scan the number of multiplexed modes at a fixed storage time.

    ``window_budget`` is the total number of (train x window) slots sampled at
    each N, so every point costs the same and the small-N points get enough
    trains to accumulate heralds.
    """
    points = []
    for index, n in enumerate(mode_counts):
        n = int(n)
        scan_params = dataclasses.replace(
            params, mode_count=n,
            train_duration=max(params.train_duration, params.pulse_interval * n))
        points.append(_point(scan_params, storage_time, max(1, window_budget // n), seed,
                             1000 + index, phases, shots_per_phase))
    return points
