"""Link-experiment pipelines: storage-time scans and mode-count scans.

Both scans read the parsed RunConfig's [link] and [experiment] sections and
check the slots of the whole experiment (both scans) against MAX_LINK_SLOTS
before their first draw. Each storage-time point runs the sampled
write/herald/readout pipeline to tally a PmnTable, measures the fringe
visibility by fitting a sinusoid to Poisson-sampled fringe counts, and
combines both into the concurrence. The mode-count scan runs the same pipeline
at the first storage time for every N and reports the multiplexed detection
probability alongside the concurrence. Storage point i draws on substream
(seed, i), mode point j on (seed, MAX_STORAGE_TIMES + j).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config_io import MAX_STORAGE_TIMES, ExperimentConfig, LinkParams, RunConfig
from .errors import NoHeraldsError, ParameterError
from .fitters import Samples, fit_sinusoid
from .link_physics import fringe_expectation, run_link_trials
from .metrics import bootstrap_concurrence_stderr, concurrence, intrinsic_efficiency
from .streams import substream

__all__ = [
    "ScanPoint",
    "fringe_counts",
    "storage_time_scan",
    "mode_count_scan",
]

# Link slots (train x mode x node) one link experiment may draw, summed over
# both scans: about 1 min at the ~0.55 ns a slot of the shipped config (2.6e8
# slots) on a 2-core Xeon, more if more are lit.
MAX_LINK_SLOTS = 10**11


@dataclass(frozen=True)
class ScanPoint:
    """One point of either scan: the link's storage time and mode count,
    every estimate drawn there, and whether its fringe fit converged."""

    storage_time: float
    mode_count: int
    concurrence: float
    concurrence_stderr: float
    visibility: float
    visibility_stderr: float
    fit_converged: bool
    efficiency: float
    detection_probability: float


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


def _point(params: LinkParams, storage_time: float, trains: int, seed_root: int,
           stream: int, exp: ExperimentConfig) -> ScanPoint:
    """Draw one scan point: the link trials, fringe and bootstrap on
    substreams (seed_root, stream, 0 | 1 | 2)."""
    tally = run_link_trials(params, storage_time, trains, substream(seed_root, stream, 0))
    if tally.heralded == 0:
        raise NoHeraldsError(
            f"no heralds in {trains} trains at storage_time={storage_time} s, "
            f"N={params.mode_count}: increase the train budget")
    # the visibility is the fitted sinusoid's, which shot noise cannot bias the
    # way raw max/min bins can (they pick the most upward-fluctuated bin)
    fit = fit_sinusoid(fringe_counts(params, storage_time, substream(seed_root, stream, 1),
                                     exp.fringe_phases, exp.fringe_shots))
    vis, vis_err = fit.params["visibility"], fit.stderr["visibility"]
    stderr = bootstrap_concurrence_stderr(
        tally.pmn_counts.reshape(4), vis,
        substream(seed_root, stream, 2), visibility_stderr=vis_err)
    return ScanPoint(
        storage_time=storage_time,
        mode_count=params.mode_count,
        concurrence=concurrence(tally.pmn(), vis),
        concurrence_stderr=stderr,
        visibility=vis,
        visibility_stderr=vis_err,
        fit_converged=fit.converged,
        efficiency=intrinsic_efficiency(tally.pmn(), params.detection_eff),
        detection_probability=tally.detection_probability,
    )


def _checked(config: RunConfig) -> tuple[LinkParams, ExperimentConfig, list[int]]:
    """The link and budgets of ``config`` and the trains of each mode point,
    once both scans' slots fit MAX_LINK_SLOTS. Each mode point samples about
    window_budget (train x window) slots, so small N gets enough heralds."""
    link, exp = config.link, config.experiment
    if link is None:
        raise ParameterError("the link scans need a config with a [link] section")
    mode_trains = [max(1, exp.window_budget // n) for n in exp.mode_counts]
    slots = (2 * link.mode_count * exp.trains * len(exp.storage_times_us)
             + sum(2 * n * trains for n, trains in zip(exp.mode_counts, mode_trains)))
    if slots > MAX_LINK_SLOTS:
        raise ParameterError(f"the scans would draw {slots} link slots, more than "
                             f"{MAX_LINK_SLOTS}: lower trains or window_budget")
    return link, exp, mode_trains


def storage_time_scan(config: RunConfig) -> list[ScanPoint]:
    """The full pipeline at each storage time, ``trains`` trains a point."""
    link, exp, _ = _checked(config)
    return [_point(link, t, exp.trains, config.seed, index, exp)
            for index, t in enumerate(exp.storage_times)]


def mode_count_scan(config: RunConfig) -> list[ScanPoint]:
    """The full pipeline at each mode count, at the first storage time."""
    link, exp, mode_trains = _checked(config)
    return [_point(dataclasses.replace(link, mode_count=n), exp.storage_times[0], trains,
                   config.seed, MAX_STORAGE_TIMES + index, exp)
            for index, (n, trains) in enumerate(zip(exp.mode_counts, mode_trains))]
