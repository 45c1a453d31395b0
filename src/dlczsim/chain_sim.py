"""Discrete-event Monte Carlo of the multiplexed repeater chain.

Time advances in communication intervals T_cc. Every elementary link whose
segment is unconsumed attempts generation once per interval; a swap fires in
the interval in which both of its child segments exist, succeeds with the
retrieval probability evaluated at the *actual* age of the older child, and on
failure discards both children so their subtrees rebuild from scratch. A trial
ends when the end-to-end pair survives the final readout, or at max_sim_time.

This is deliberately more pessimistic than the mean-time recursion in `rate`:
waiting for the slower of two child segments and rebuilding after failed swaps
compound across levels, so the empirical rate sits well below the analytic one
except near deterministic parameters. ChainTrace carries both rates so the gap
is visible.

Trials are embarrassingly parallel: trial i draws its randomness from
substream(seed, i) regardless of which worker runs it, so results are
identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
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


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: chain constants, trial budget, seed, abort guard."""

    chain: ChainParams
    trials: int = 1000
    seed: int = 0
    max_sim_time: float = 3600.0

    def __post_init__(self):
        check_fields(self, (
            ("trials", int, ">= 1"),
            ("seed", int, ">= 0"),
            ("max_sim_time", float, "> 0"),
        ))
        # the guard counts ticks of T_cc: more than one, and finitely many
        if not 1.0 < self.max_sim_time / self.chain.t_cc < math.inf:
            raise ParameterError(f"max_sim_time ({self.max_sim_time}) must exceed T_cc "
                                 f"({self.chain.t_cc}) by a finite factor")


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

    def to_dict(self) -> dict:
        return {
            "trials": self.config.trials,
            "seed": self.config.seed,
            "delivered": self.delivered,
            "timeouts": self.timeouts,
            "swap_attempts": self.swap_attempts.tolist(),
            "swap_successes": self.swap_successes.tolist(),
            "readout_attempts": self.readout_attempts,
            "readout_successes": self.readout_successes,
            "empirical_rate_hz": self.empirical_rate,
            "rate_stderr_hz": (self.rate_stderr if math.isfinite(self.rate_stderr) else None),
            "analytic_rate_hz": self.analytic_rate,
            "mean_delivery_time_s": (float(self.delivery_times.mean())
                                     if self.delivered else None),
            "delivery_times_s": self.delivery_times.tolist(),
        }


def _simulate_one_trial(chain: ChainParams, max_ticks: int, rng: np.random.Generator):
    """Run one end-to-end delivery. Returns (ticks or None, per-level counters).

    Segment state is the tick at which it became entangled, -1 if absent.
    Level-0 segments are the elementary links; a link only attempts generation
    while no ancestor segment holds it.
    """
    n = chain.n_levels
    p_gen = multiplexed_success(elementary_p0(chain), chain.mode_count)
    t_cc = chain.t_cc
    swap_scale = chain.swap_intrinsic_factor * chain.r0 * chain.eta_td
    established = [np.full(2 ** (n - lev), -1, dtype=np.int64) for lev in range(n + 1)]
    attempts = np.zeros(n, dtype=np.int64)
    successes = np.zeros(n, dtype=np.int64)
    readout_attempts = 0
    readout_successes = 0

    tick = 0
    while tick < max_ticks:
        tick += 1
        # generation on free links
        for j in range(2 ** n):
            if established[0][j] >= 0:
                continue
            idx, held = j, False
            for lev in range(1, n + 1):
                idx //= 2
                if established[lev][idx] >= 0:
                    held = True
                    break
            if not held and rng.random() < p_gen:
                established[0][j] = tick
        # swaps, bottom-up so a success can cascade within the tick
        for lev in range(1, n + 1):
            row = established[lev]
            below = established[lev - 1]
            for s in range(row.size):
                if row[s] >= 0:
                    continue
                a, b = below[2 * s], below[2 * s + 1]
                if a < 0 or b < 0:
                    continue
                attempts[lev - 1] += 1
                age = (tick - min(a, b)) * t_cc
                below[2 * s] = below[2 * s + 1] = -1   # consumed either way
                if rng.random() < swap_scale * math.exp(-age / chain.tau0):
                    successes[lev - 1] += 1
                    row[s] = tick
                else:
                    for lower in range(lev - 1):
                        span = 2 ** (lev - lower)
                        established[lower][s * span:(s + 1) * span] = -1
        if established[n][0] >= 0:
            readout_attempts += 1
            # final readout decays with the elapsed trial time, the Monte Carlo
            # analogue of evaluating P_pr at t_n
            if rng.random() < chain.r0 * math.exp(-tick * t_cc / chain.tau0):
                readout_successes += 1
                return tick, attempts, successes, readout_attempts, readout_successes
            for lev in range(n + 1):
                established[lev][:] = -1
    return None, attempts, successes, readout_attempts, readout_successes


def _trial_batch(args):
    chain, max_ticks, seed, trial_indices = args
    out = []
    for i in trial_indices:
        out.append(_simulate_one_trial(chain, max_ticks, substream(seed, i)))
    return out


def simulate_chain(config: SimConfig, workers: int = 1) -> ChainTrace:
    """Monte Carlo the full chain for config.trials deliveries.

    ``workers`` > 1 distributes whole trials over processes; because each
    trial owns substream(seed, trial_index), the trace is bitwise identical
    for any worker count.
    """
    chain = config.chain
    p_gen = multiplexed_success(elementary_p0(chain), chain.mode_count)
    if p_gen == 0.0:
        raise StalledChainError(0, "chain can never start: P0 = 0")
    max_ticks = int(config.max_sim_time / chain.t_cc)

    indices = list(range(config.trials))
    if workers <= 1:
        results = _trial_batch((chain, max_ticks, config.seed, indices))
    else:
        batches = [(chain, max_ticks, config.seed, indices[b::workers]) for b in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_worker = list(pool.map(_trial_batch, batches))
        # round-robin partition above; stitch back into trial order
        results = [None] * config.trials
        for b, chunk in enumerate(per_worker):
            for offset, res in enumerate(chunk):
                results[b + offset * workers] = res

    delivery_ticks = []
    timeouts = 0
    attempts = np.zeros(chain.n_levels, dtype=np.int64)
    successes = attempts.copy()
    readout_attempts = 0
    readout_successes = 0
    for ticks, att, suc, ra, rs in results:
        attempts = attempts + att
        successes = successes + suc
        readout_attempts += ra
        readout_successes += rs
        if ticks is None:
            timeouts += 1
        else:
            delivery_ticks.append(ticks)

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
        timeouts=timeouts,
        swap_attempts=attempts,
        swap_successes=successes,
        readout_attempts=readout_attempts,
        readout_successes=readout_successes,
        empirical_rate=rate,
        rate_stderr=stderr,
        analytic_rate=swap_chain(chain).rate_hz,
        histogram_counts=counts,
        histogram_edges=edges,
    )
