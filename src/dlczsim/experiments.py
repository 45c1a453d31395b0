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
    "StorageTimePoint",
    "ModeCountPoint",
    "fringe_counts",
    "measure_visibility",
    "storage_time_scan",
    "mode_count_scan",
]


@dataclass(frozen=True)
class StorageTimePoint:
    storage_time: float
    concurrence: float
    concurrence_stderr: float
    visibility: float
    visibility_stderr: float
    efficiency: float
    heralded: int
    trains: int

    def as_row(self) -> dict:
        return {
            "storage_time_us": self.storage_time * 1e6,
            "C": self.concurrence,
            "C_stderr": self.concurrence_stderr,
            "V": self.visibility,
            "eta": self.efficiency,
        }


@dataclass(frozen=True)
class ModeCountPoint:
    mode_count: int
    detection_probability: float
    detection_stderr: float
    concurrence: float
    concurrence_stderr: float
    heralded: int
    trains: int

    def as_row(self) -> dict:
        return {
            "mode_count": self.mode_count,
            "P_D": self.detection_probability,
            "C": self.concurrence,
        }


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
           stream: int, phases: int, shots_per_phase: int):
    """(tally, C, C_stderr, V, V_stderr) of one scan point."""
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
    return tally, concurrence(tally.pmn(), vis), stderr, vis, vis_err


def storage_time_scan(params: LinkParams, storage_times, trains: int, seed: int,
                      phases: int, shots_per_phase: int) -> list[StorageTimePoint]:
    """Run the full pipeline at each storage time. ``trains`` applies per point."""
    points = []
    for index, t in enumerate(storage_times):
        tally, c, c_err, vis, vis_err = _point(
            params, float(t), trains, seed, index, phases, shots_per_phase)
        points.append(StorageTimePoint(
            storage_time=float(t),
            concurrence=c,
            concurrence_stderr=c_err,
            visibility=vis,
            visibility_stderr=vis_err,
            efficiency=intrinsic_efficiency(tally.pmn(), params.detection_eff),
            heralded=tally.heralded,
            trains=tally.trains,
        ))
    return points


def mode_count_scan(params: LinkParams, mode_counts, storage_time: float,
                    window_budget: int, seed: int, phases: int,
                    shots_per_phase: int) -> list[ModeCountPoint]:
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
        trains = max(1, window_budget // n)
        tally, c, c_err, _, _ = _point(
            scan_params, storage_time, trains, seed, 1000 + index, phases, shots_per_phase)
        p_d = tally.detection_probability
        # clicks across windows are nearly independent Bernoullis at these rates
        stderr = float(np.sqrt(max(p_d, 1.0 / tally.trains) / tally.trains))
        points.append(ModeCountPoint(
            mode_count=n,
            detection_probability=p_d,
            detection_stderr=stderr,
            concurrence=c,
            concurrence_stderr=c_err,
            heralded=tally.heralded,
            trains=tally.trains,
        ))
    return points
