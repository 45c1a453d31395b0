"""Pooled Monte Carlo of the multiplexed repeater chain.

Time is counted in communication intervals T_cc ("ticks"). An elementary link
that is free from tick s exists at s + G, with G geometric in the multiplexed
success probability. A segment one level up builds both of its children from
the same start and swaps at the later child's tick; the swap succeeds with the
retrieval probability evaluated at the *actual* age of the older child, and a
failure consumes both children, so the whole subtree rebuilds from that tick.
The end-to-end pair is read out with a probability that decays with the
elapsed trial time, and a failed readout restarts the trial. A trial ends when
the readout succeeds, or times out at max_sim_time.

Both samplers read the law of `rate.chain_law`, as the mean-time recursion in
`rate` does; `simulate_chain` takes it from the recursion's report. The Monte
Carlo is deliberately more pessimistic than the recursion: waiting for the
slower of two child segments and rebuilding after failed swaps compound
across levels, so the empirical rate sits well below the analytic one except
near deterministic parameters. ChainTrace carries both rates so the gap is
visible.

A segment's build time does not depend on its start tick, so each level's
build times are i.i.d. and are sampled as arrays from the level below; trials
take the top-level ones in order. Trials run in rounds of at most
MAX_ROUND_LINKS links, in this process. Round r draws stream j (links, each
level's swaps, readouts) from substream(seed, r, j), one variate per item in
order however many are drawn at once, and stops starting trials on what the
trials before used, so a run of k trials reproduces the first k trials of a
longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config_io import ChainParams, RunConfig
from .errors import ParameterError
from .rate import ChainLaw, chain_law, swap_chain
from .streams import substream

__all__ = [
    "ElementaryLinkTrace",
    "ChainTrace",
    "simulate_elementary_link",
    "simulate_chain",
]

LATENCY_HISTOGRAM_BINS = 32

# Both modes hold per-trial arrays in memory (elementary mode peaks near 10
# bytes a trial), so 1e9 trials would exhaust memory instead of failing.
MAX_SIM_TRIALS = 10**8

# Elementary links one round of trials may draw. A round holds about 80 bytes
# of arrays per link (~80 MB at the cap), so a trial that needs more exits
# instead of exhausting memory; it also bounds the depth to 20 levels.
MAX_ROUND_LINKS = 2**20

# start tick of a sample no trial uses; stays negative under any sum of offsets
_NEVER = -2**62


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
    if not 1 <= trials <= MAX_SIM_TRIALS:
        raise ParameterError(f"trials must be in [1, {MAX_SIM_TRIALS}] to simulate, got {trials}")
    law = chain_law(chain)
    hits = substream(seed, 0).binomial(chain.mode_count, law.p0, size=trials) > 0
    success_ticks = np.nonzero(hits)[0]
    waits = np.diff(np.concatenate(([-1], success_ticks))).astype(np.int64)
    return ElementaryLinkTrace(
        intervals=trials,
        successes=int(success_ticks.size),
        empirical_success=float(success_ticks.size) / trials,
        analytic_success=law.p_gen,
        waiting_times=waits,
    )


@dataclass(frozen=True)
class ChainTrace:
    """Outcome of `simulate_chain`."""

    config: RunConfig
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


def _level(children: np.ndarray, uniforms: np.ndarray, q: float, decay: float, width: int):
    """Build times of one level from consecutive pairs of the level below.

    A pair swaps at its later child's tick and succeeds w.p. q exp(-age decay)
    at the older child's age; a segment runs up to its first success. Returns
    the build times, clamped at width = max_ticks + 1, and per pair (later
    child's time, success, segment, offset in it), per segment its last pair.
    """
    a, b = children[0:2 * uniforms.size:2], children[1::2]
    longer = np.maximum(a, b)
    success = uniforms < q * np.exp(-np.abs(a - b) * decay)
    ends = np.cumsum(longer)
    # a segment over max_ticks long finishes inside no trial, so it may close
    # at any stopping time past that: at a pair over the horizon, or at its
    # second crossing of a grid line every `width` ticks
    cut = success | (longer >= width)
    crossing = ends // width > (ends - longer) // width
    crossed = np.cumsum(crossing)
    since_cut = crossed - np.concatenate(([0], crossed[cut]))[np.cumsum(cut) - cut]
    close = cut | (crossing & (since_cut % 2 == 0))
    last = np.flatnonzero(close)
    bounds = np.concatenate(([0], ends[last]))
    segment = np.cumsum(close) - close
    offset = ends - longer - bounds[segment]
    return np.minimum(bounds[1:] - bounds[:-1], width), (longer, success, segment, offset, last)


def _trials(lengths, uniforms, link_ends, trials: int, max_ticks: int, r0: float, decay: float):
    """Trials take the top-level samples in order and read out at their
    elapsed time; a failed readout restarts the trial. Trials start while
    fewer than ``trials`` ended and those used at most MAX_ROUND_LINKS / 2
    links. Returns (delivery ticks, None on timeout; start tick of each sample
    taken; readout attempts), or None if the samples run out first.
    """
    ticks, starts, t, readouts, used = [], [], 0, 0, 0
    samples = zip(lengths.tolist(), uniforms.tolist(), link_ends.tolist())
    while t or (len(ticks) < trials and used <= MAX_ROUND_LINKS // 2):
        length, u, end = next(samples, (0, 0, 0))
        if not length:
            return None
        starts.append(t)
        t += length
        readouts += t <= max_ticks
        if t > max_ticks or u < r0 * math.exp(-t * decay):
            ticks.append(t if t <= max_ticks else None)
            t, used = 0, end
    return ticks, starts, readouts


def _round(chain: ChainParams, law: ChainLaw, max_ticks: int, per_trial: float,
           seed: int, index: int, trials: int):
    """Run up to ``trials`` trials on round ``index``'s streams. Returns (per
    trial its delivery tick or None; swap attempts and successes per level;
    readout attempts), counting only swaps and readouts at ticks <= max_ticks.
    """
    n, width = chain.n_levels, max_ticks + 1
    # half again the estimate, so most rounds draw once; then double the draw.
    # Trials stop starting past half the budget, so draw at most 5/8 at first.
    size = min(MAX_ROUND_LINKS * 5 // 8, math.ceil(1.5 * trials * per_trial))
    while True:
        streams = [substream(seed, index, j) for j in range(n + 2)]
        samples, levels = np.minimum(streams[0].geometric(law.p_gen, size), width), []
        for level in range(1, n + 1):
            samples, record = _level(samples, streams[level].random(samples.size // 2),
                                     law.q, law.decay, width)
            levels.append(record)
        last = np.arange(samples.size)     # each top-level sample's last link
        for *_, level_last in reversed(levels):
            last = 2 * level_last[last] + 1
        run = _trials(samples, streams[n + 1].random(samples.size), last + 1, trials,
                      max_ticks, chain.r0, law.decay)
        if run:
            break
        if size == MAX_ROUND_LINKS:
            raise ParameterError(f"a trial needs more elementary links than are left of "
                                 f"the MAX_ROUND_LINKS = {MAX_ROUND_LINKS} one round may "
                                 f"draw (a trial gets at least half)")
        size = min(MAX_ROUND_LINKS, 2 * size)

    # back down from the trials' start ticks: every swap the used samples made
    # at a tick <= max_ticks counts, and unused samples start at -inf
    ticks, starts, readouts = run
    attempts, successes = [0] * n, [0] * n
    start = np.full(samples.size + 1, _NEVER)
    start[:len(starts)] = starts
    for level in reversed(range(n)):
        longer, success, segment, offset, _ = levels[level]
        begin = start[segment] + offset
        counted = (begin >= 0) & (begin + longer <= max_ticks)
        attempts[level] = np.count_nonzero(counted)
        successes[level] = np.count_nonzero(counted & success)
        start = np.concatenate((np.repeat(begin, 2), (_NEVER, _NEVER)))
    return ticks, attempts, successes, readouts


def simulate_chain(config: RunConfig) -> ChainTrace:
    """Monte Carlo ``config.chain`` for config.trials deliveries.

    The limits of the simulation itself, which `rate` and `sweep` do not
    share, are checked here before any draw. The trace is bitwise identical
    across reruns, and a run of k trials delivers the first k delivery times
    of any longer run.
    """
    chain = config.chain
    if chain is None:
        raise ParameterError("simulate_chain needs a config with a [chain] section")
    # the guard counts ticks of T_cc: more than one, and few enough that a
    # round's tick sums (at most MAX_ROUND_LINKS terms) stay exact in int64
    horizon = config.max_sim_time / chain.t_cc
    if not 1.0 < horizon < 2**62 / MAX_ROUND_LINKS:
        raise ParameterError(f"max_sim_time ({config.max_sim_time}) must exceed T_cc "
                             f"({chain.t_cc}) by a factor below {2**62 // MAX_ROUND_LINKS}")
    depth = MAX_ROUND_LINKS.bit_length() - 1
    if chain.n_levels > depth:
        raise ParameterError(f"n_levels ({chain.n_levels}) must be <= {depth} to simulate: "
                             f"one trial draws 2**n_levels of the MAX_ROUND_LINKS = "
                             f"{MAX_ROUND_LINKS} elementary links a round may draw")
    if config.trials > MAX_SIM_TRIALS:
        raise ParameterError(f"trials ({config.trials}) must be <= {MAX_SIM_TRIALS} to simulate")
    # a chain the recursion calls stalled raises here, before any trial
    report = swap_chain(chain)
    max_ticks = int(horizon)
    # links per trial: 2**n per top-level attempt times the recursion's swap
    # and readout restarts, but no more than 2**n leaves drawing links back to
    # back until the horizon
    odds = math.prod(report.level_success) * report.p_pr
    per_trial = 2 ** chain.n_levels * min(1 / max(odds, 1e-300),
                                          max_ticks * report.law.p_gen + 1)

    rounds, ticks = [], []
    while len(ticks) < config.trials:
        rounds.append(_round(chain, report.law, max_ticks, per_trial, config.seed,
                             len(rounds), config.trials - len(ticks)))
        ticks += rounds[-1][0]
    _, attempts, successes, readouts = zip(*rounds)
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
