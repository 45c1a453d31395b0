"""Event-driven Monte Carlo of the multiplexed repeater chain.

Time is counted in communication intervals T_cc ("ticks"), but a trial jumps
from event to event. An elementary link that is free from tick s exists at
s + G, with G geometric in the multiplexed success probability. A segment one
level up builds both of its children from the same start and swaps at the
later child's tick; the swap succeeds with the retrieval probability evaluated
at the *actual* age of the older child, and a failure consumes both children,
so the whole subtree rebuilds from that tick. The end-to-end pair is read out
with a probability that decays with the elapsed trial time, and a failed
readout restarts the trial. A trial ends when the readout succeeds, or times
out at max_sim_time.

This is deliberately more pessimistic than the mean-time recursion in `rate`:
waiting for the slower of two child segments and rebuilding after failed swaps
compound across levels, so the empirical rate sits well below the analytic one
except near deterministic parameters. ChainTrace carries both rates so the gap
is visible.

Trial i draws its randomness from substream(seed, i) alone, in fixed blocks
of BLOCK variates, so its result does not depend on how many trials run or in
what order: a run of k trials reproduces the first k trials of a longer run.
Every trial runs in the calling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StalledChainError, check_fields
from .rate import ChainParams, elementary_p0, multiplexed_success, swap_chain
from .streams import substream

__all__ = [
    "SimConfig",
    "ElementaryLinkTrace",
    "ChainTrace",
    "simulate_elementary_link",
    "simulate_chain",
]

LATENCY_HISTOGRAM_BINS = 32

# Variates per refill of a trial's link-time and uniform streams: one numpy
# call per block instead of one per variate.
BLOCK = 64

# One trial draws at least 2**n_levels elementary links, so a deeper chain
# would run for hours or exhaust memory instead of failing; `rate` and `sweep`
# take any depth.
MAX_SIM_LEVELS = 20

# Both modes hold per-trial arrays in memory (elementary mode peaks near 10
# bytes a trial), so 1e9 trials would exhaust memory instead of failing.
MAX_SIM_TRIALS = 10**8


# check_fields spec of the run budget, shared with config_io.RunConfig, and
# its [sim] keys
SIM_FIELDS = (
    ("trials", int, ">= 1"),
    ("seed", int, ">= 0"),
    ("max_sim_time", float, "> 0"),
)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: chain constants, trial budget, seed, abort guard."""

    chain: ChainParams
    trials: int = 1000
    seed: int = 0
    max_sim_time: float = 3600.0

    def __post_init__(self):
        check_fields(self, SIM_FIELDS)
        # the guard counts ticks of T_cc: more than one, and finitely many
        if not 1.0 < self.max_sim_time / self.chain.t_cc < math.inf:
            raise ParameterError(f"max_sim_time ({self.max_sim_time}) must exceed T_cc "
                                 f"({self.chain.t_cc}) by a finite factor")
        if self.chain.n_levels > MAX_SIM_LEVELS:
            raise ParameterError(f"n_levels ({self.chain.n_levels}) must be <= "
                                 f"{MAX_SIM_LEVELS} to simulate: one trial draws "
                                 f"2**n_levels elementary links")
        if self.trials > MAX_SIM_TRIALS:
            raise ParameterError(f"trials ({self.trials}) must be <= {MAX_SIM_TRIALS} to simulate")


@dataclass(frozen=True)
class ElementaryLinkTrace:
    """Empirical generation statistics of a single multiplexed link."""

    intervals: int
    successes: int
    empirical_success: float
    analytic_success: float
    waiting_times: np.ndarray     # inter-success gaps, in units of T_cc


def simulate_elementary_link(chain: ChainParams, trials: int, seed: int) -> ElementaryLinkTrace:
    """Attempt generation for ``trials`` communication intervals.

    Each interval draws the N mode attempts (as a binomial count of successes)
    and the interval succeeds when any mode does. Waiting times are the gaps
    between consecutive successful intervals, which for independent intervals
    are geometric with the multiplexed success probability.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    p0 = elementary_p0(chain)
    p_multi = multiplexed_success(p0, chain.mode_count)
    if p_multi == 0.0:
        raise StalledChainError(0, "elementary link can never succeed: P0 = 0")
    rng = substream(seed, 0)
    hits = rng.binomial(chain.mode_count, p0, size=trials) > 0
    success_ticks = np.nonzero(hits)[0]
    waits = np.diff(np.concatenate(([-1], success_ticks))).astype(np.int64)
    return ElementaryLinkTrace(
        intervals=trials,
        successes=int(success_ticks.size),
        empirical_success=float(success_ticks.size) / trials,
        analytic_success=p_multi,
        waiting_times=waits,
    )


@dataclass(frozen=True)
class ChainTrace:
    """Outcome of `simulate_chain`."""

    config: SimConfig
    delivery_times: np.ndarray          # seconds, delivered trials only
    timeouts: int
    swap_attempts: np.ndarray           # per level 1..n
    swap_successes: np.ndarray
    readout_attempts: int
    readout_successes: int
    empirical_rate: float               # 1 / mean delivery time
    rate_stderr: float
    analytic_rate: float                # mean-time recursion, for comparison
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray         # seconds, len = counts + 1

    @property
    def delivered(self) -> int:
        return int(self.delivery_times.size)


def _blocks(draw, *args):
    """Endless stream of ``draw(*args, BLOCK)`` variates as Python scalars."""
    while True:
        yield from draw(*args, BLOCK).tolist()


def _trial(chain: ChainParams, p_gen: float, max_ticks: int, seed: int, index: int):
    """Run trial ``index`` on substream(seed, index).

    Returns (delivery tick, or None on timeout; swap attempts and successes
    per level; readout attempts). Only swaps and readouts at ticks <= max_ticks
    are counted.
    """
    rng = substream(seed, index)
    links, uniforms = _blocks(rng.geometric, p_gen), _blocks(rng.random)
    swap_scale = chain.swap_intrinsic_factor * chain.r0 * chain.eta_td
    t_cc, tau0 = chain.t_cc, chain.tau0
    attempts = [0] * chain.n_levels
    successes = [0] * chain.n_levels

    def built(level: int, start: int) -> int:
        # tick at which a level-`level` segment whose links are free from
        # `start` exists; past max_ticks it does not exist within the trial
        if level == 0:
            return start + next(links)
        while True:
            a, b = built(level - 1, start), built(level - 1, start)
            t = max(a, b)
            if t > max_ticks:
                return t
            attempts[level - 1] += 1
            if next(uniforms) < swap_scale * math.exp(-(t - min(a, b)) * t_cc / tau0):
                successes[level - 1] += 1
                return t
            start = t       # both children are consumed either way

    t = readouts = 0
    while True:
        t = built(chain.n_levels, t)
        if t > max_ticks:
            return None, attempts, successes, readouts
        readouts += 1
        # final readout decays with the elapsed trial time, the Monte Carlo
        # analogue of evaluating P_pr at t_n; a failure restarts the trial
        if next(uniforms) < chain.r0 * math.exp(-t * t_cc / tau0):
            return t, attempts, successes, readouts


def simulate_chain(config: SimConfig) -> ChainTrace:
    """Monte Carlo the full chain for config.trials deliveries.

    The trials run one after another in this process. Trial i owns
    substream(seed, i), so the trace is bitwise identical across reruns, and a
    run of k trials delivers the first k delivery times of any longer run.
    """
    chain = config.chain
    # a chain the recursion calls stalled raises here, before any trial
    report = swap_chain(chain)
    p_gen = report.p0_multiplexed
    max_ticks = int(config.max_sim_time / chain.t_cc)

    results = [_trial(chain, p_gen, max_ticks, config.seed, i) for i in range(config.trials)]
    ticks, attempts, successes, readouts = zip(*results)
    delivery_ticks = [t for t in ticks if t is not None]

    times = np.asarray(delivery_ticks, dtype=np.int64) * chain.t_cc
    if times.size:
        mean = float(times.mean())
        rate = 1.0 / mean
        stderr = (float(times.std(ddof=1)) / (mean ** 2 * math.sqrt(times.size))
                  if times.size > 1 else math.inf)
        counts, edges = np.histogram(times, bins=LATENCY_HISTOGRAM_BINS)
    else:
        rate, stderr = 0.0, math.inf
        counts, edges = np.histogram([], bins=LATENCY_HISTOGRAM_BINS, range=(0.0, config.max_sim_time))

    return ChainTrace(
        config=config,
        delivery_times=times,
        timeouts=config.trials - len(delivery_ticks),
        swap_attempts=np.sum(attempts, axis=0, dtype=np.int64),
        swap_successes=np.sum(successes, axis=0, dtype=np.int64),
        readout_attempts=sum(readouts),
        readout_successes=len(delivery_ticks),
        empirical_rate=rate,
        rate_stderr=stderr,
        analytic_rate=report.rate_hz,
        histogram_counts=counts,
        histogram_edges=edges,
    )
