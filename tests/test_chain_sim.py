import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from dlczsim import chain_sim
from dlczsim.chain_sim import _round, simulate_chain, simulate_elementary_link
from dlczsim.config_io import ChainParams, RunConfig
from dlczsim.errors import ParameterError, StalledChainError
from dlczsim.rate import elementary_p0, multiplexed_success

PROJECTION = ChainParams()  # defaults are the long-distance projection set


@pytest.fixture
def no_round(monkeypatch):
    """simulate_chain raises AssertionError where it would run its first round."""
    def first_round(*args):
        raise AssertionError("a round ran")
    monkeypatch.setattr(chain_sim, "_round", first_round)


def lossless_chain(**overrides) -> ChainParams:
    """Unit-efficiency chain whose elementary generation probability is chi."""
    fields = dict(l0=63.0, l_att=1e18, n_levels=4, fiber_speed=2e5,
                  eta_fc=1.0, eta_td=1.0, chi=1.0, mode_count=1,
                  r0=1.0, tau0=1e15, swap_intrinsic_factor=1.0)
    fields.update(overrides)
    return ChainParams(**fields)


class TestElementaryLink:
    def test_certain_success_every_interval(self):
        chain = lossless_chain(n_levels=0)
        trace = simulate_elementary_link(chain, 500, seed=1)
        assert trace.successes == 500
        assert (trace.waiting_times == 1).all()

    def test_reference_multiplexed_probability(self):
        # oracle: 1 - (1 - 9.9e-4)^100 = 0.094303 by hand
        chain = lossless_chain(chi=9.9e-4, mode_count=100)
        trace = simulate_elementary_link(chain, 100_000, seed=2)
        expected = 0.0943025
        assert trace.analytic_success == pytest.approx(expected, abs=1e-6)
        sigma = math.sqrt(expected * (1 - expected) / trace.intervals)
        assert abs(trace.empirical_success - expected) < 3 * sigma

    def test_mode_scaling_ratio_near_twelve(self):
        # small p0: the 12-mode interval success is ~12x the single-mode one
        p0 = 2.5e-4
        t12 = simulate_elementary_link(lossless_chain(chi=p0, mode_count=12), 400_000, seed=3)
        t1 = simulate_elementary_link(lossless_chain(chi=p0, mode_count=1), 4_000_000, seed=4)
        ratio = t12.empirical_success / t1.empirical_success
        rel_sigma = math.sqrt(1 / t12.successes + 1 / t1.successes)
        assert abs(ratio - 12.0) < 3 * ratio * rel_sigma + 12 * (11 * p0 / 2)

    def test_waiting_times_are_geometric(self):
        # chi-squared goodness of fit against Geometric(P0^(N)) at the 1% level
        chain = ChainParams()  # p_multi = 0.0942
        p = multiplexed_success(elementary_p0(chain), chain.mode_count)
        trace = simulate_elementary_link(chain, 200_000, seed=5)
        waits = trace.waiting_times
        max_bin = int(np.quantile(waits, 0.99))
        observed = np.bincount(np.minimum(waits, max_bin + 1), minlength=max_bin + 2)[1:]
        expected = np.array(
            [p * (1 - p) ** (k - 1) for k in range(1, max_bin + 1)] + [(1 - p) ** max_bin]
        ) * waits.size
        stat, pvalue = scipy.stats.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_zero_probability_stalls(self):
        with pytest.raises(StalledChainError):
            simulate_elementary_link(lossless_chain(chi=0.0), 100, seed=6)

    def test_deterministic_in_seed(self):
        chain = ChainParams()
        a = simulate_elementary_link(chain, 10_000, seed=7)
        b = simulate_elementary_link(chain, 10_000, seed=7)
        assert a.successes == b.successes
        assert np.array_equal(a.waiting_times, b.waiting_times)


class TestChain:
    def test_deterministic_cascade_delivers_immediately(self):
        # all probabilities 1: every link appears in the first interval and the
        # swap cascade plus readout completes within it
        config = RunConfig(chain=lossless_chain(), trials=50, seed=1)
        trace = simulate_chain(config)
        assert trace.delivered == 50
        assert np.allclose(trace.delivery_times, config.chain.t_cc)
        assert (trace.swap_attempts == trace.swap_successes).all()

    def test_swap_success_fraction_matches_r0_eta(self):
        # deterministic generation, no decay: each swap succeeds w.p. r0*eta_td
        chain = lossless_chain(r0=0.8, eta_td=1.0)
        trace = simulate_chain(RunConfig(chain=chain, trials=400, seed=2))
        for level in range(4):
            attempts = trace.swap_attempts[level]
            frac = trace.swap_successes[level] / attempts
            sigma = math.sqrt(0.8 * 0.2 / attempts)
            assert abs(frac - 0.8) < 4 * sigma

    def test_no_levels_matches_mean_field_exactly(self):
        # n = 0 has no max-of-two waiting, so the recursion is unbiased:
        # mean delivery = T_cc / (P0^(N) * P_pr)
        chain = lossless_chain(n_levels=0, chi=0.2, r0=0.7, tau0=1e15)
        config = RunConfig(chain=chain, trials=4000, seed=3)
        trace = simulate_chain(config)
        assert trace.delivered == 4000
        analytic = trace.analytic_rate
        rel_sigma = trace.rate_stderr / trace.empirical_rate
        assert abs(trace.empirical_rate - analytic) < 3 * analytic * rel_sigma

    def test_mean_field_regime_agreement(self):
        # near-deterministic corner of the t << tau0 regime: generation always
        # succeeds, swaps succeed 99.5% of the time; the max-of-two-children
        # penalty vanishes and the Monte Carlo matches the recursion within 20%
        chain = lossless_chain(r0=0.995, n_levels=4)
        trace = simulate_chain(RunConfig(chain=chain, trials=1500, seed=4))
        assert abs(trace.empirical_rate - trace.analytic_rate) < 0.2 * trace.analytic_rate

    def test_projection_rate_sits_below_mean_field(self):
        # with stochastic generation and 0.72 swaps the discard-on-failure
        # protocol pays the max-of-two-children cost at every level, so the
        # empirical rate lands well under the recursion's estimate
        trace = simulate_chain(RunConfig(chain=PROJECTION, trials=150, seed=5))
        assert trace.delivered == 150
        assert trace.empirical_rate < trace.analytic_rate

    def test_conservation_and_accounting(self):
        trace = simulate_chain(RunConfig(chain=PROJECTION, trials=80, seed=6))
        assert (trace.swap_successes <= trace.swap_attempts).all()
        assert trace.delivered + trace.timeouts == 80
        assert trace.readout_successes == trace.delivered
        assert (trace.delivery_times > 0).all()
        ticks = trace.delivery_times / PROJECTION.t_cc
        assert np.allclose(ticks, np.round(ticks))

    def test_timeouts_are_recorded_and_excluded(self):
        chain = dataclasses.replace(PROJECTION, chi=1e-5)
        config = RunConfig(chain=chain, trials=20, seed=7, max_sim_time=0.1)
        trace = simulate_chain(config)
        assert trace.timeouts > 0
        assert trace.delivered + trace.timeouts == 20

    def test_bitwise_determinism_and_worker_independence(self):
        config = RunConfig(chain=PROJECTION, trials=40, seed=8)
        a = simulate_chain(config)
        b = simulate_chain(config)
        assert np.array_equal(a.delivery_times, b.delivery_times)
        assert np.array_equal(a.swap_attempts, b.swap_attempts)
        assert np.array_equal(a.swap_successes, b.swap_successes)
        assert a.timeouts == b.timeouts
        # trial i owns substream(seed, i), so no split of the trials into
        # runs changes them: a shorter run is a prefix of a longer one
        prefix = simulate_chain(dataclasses.replace(config, trials=13))
        assert np.array_equal(prefix.delivery_times, a.delivery_times[:13])

    def test_stalled_chain_raises(self):
        with pytest.raises(StalledChainError):
            simulate_chain(RunConfig(chain=dataclasses.replace(PROJECTION, chi=0.0),
                                     trials=10, seed=9))

    def test_chain_the_recursion_calls_stalled_runs_no_trial(self, monkeypatch):
        # P_5 underflows to 0 in the recursion; a trial would rebuild its
        # 1024 links until max_sim_time
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(chain_sim, "_round", no_trial)
        chain = dataclasses.replace(PROJECTION, n_levels=10, swap_intrinsic_factor=0.05)
        with pytest.raises(StalledChainError) as exc:
            simulate_chain(RunConfig(chain=chain, trials=1000, seed=9))
        assert exc.value.level == 5

    def test_rounds_keep_the_prefix_property(self, monkeypatch):
        # a 4096-link budget stops starting trials after ~27 projection trials
        # a round, so these runs span several rounds and end mid-round
        monkeypatch.setattr(chain_sim, "MAX_ROUND_LINKS", 4096)
        config = RunConfig(chain=PROJECTION, trials=120, seed=8)
        a = simulate_chain(config)
        prefix = simulate_chain(dataclasses.replace(config, trials=50))
        assert a.delivered == 120
        assert np.array_equal(prefix.delivery_times, a.delivery_times[:50])
        monkeypatch.undo()
        assert not np.array_equal(simulate_chain(config).delivery_times, a.delivery_times)

    def test_trial_over_the_round_budget_raises(self, monkeypatch):
        # 6 levels of certain links and coin-flip swaps: a trial draws the 64
        # links the round holds only if all 63 swaps succeed at once
        monkeypatch.setattr(chain_sim, "MAX_ROUND_LINKS", 64)
        with pytest.raises(ParameterError, match="MAX_ROUND_LINKS = 64"):
            simulate_chain(RunConfig(chain=lossless_chain(n_levels=6, swap_intrinsic_factor=0.5),
                                     trials=1, seed=0))
        with pytest.raises(ParameterError, match="n_levels"):
            simulate_chain(RunConfig(chain=lossless_chain(n_levels=7), trials=1))
        monkeypatch.setattr(chain_sim, "MAX_ROUND_LINKS", 128)
        assert simulate_chain(RunConfig(chain=lossless_chain(n_levels=7), trials=3)).delivered == 3

    def test_config_validation(self, no_round):
        with pytest.raises(ParameterError):
            RunConfig(chain=PROJECTION, trials=0, seed=0)
        with pytest.raises(ParameterError, match="seed"):
            RunConfig(chain=PROJECTION, trials=10, seed=-1)
        for guard in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="max_sim_time"):
                RunConfig(chain=PROJECTION, trials=10, seed=0, max_sim_time=guard)
        # the guard must span more than one T_cc and fewer than 2**42 of them,
        # which only the simulation asks: `rate` reads no guard
        for guard in (1e-9, 1e308):
            with pytest.raises(ParameterError, match="max_sim_time"):
                simulate_chain(RunConfig(chain=PROJECTION, trials=10, seed=0,
                                         max_sim_time=guard))
        with pytest.raises(ParameterError, match="trials"):
            simulate_chain(RunConfig(chain=PROJECTION, trials=chain_sim.MAX_SIM_TRIALS + 1))
        with pytest.raises(ParameterError, match="chain"):
            simulate_chain(RunConfig(trials=10))

    def test_simulated_depth_is_bounded(self, no_round):
        with pytest.raises(AssertionError, match="a round ran"):
            simulate_chain(RunConfig(chain=lossless_chain(n_levels=20), trials=1))
        with pytest.raises(ParameterError, match="n_levels"):
            simulate_chain(RunConfig(chain=lossless_chain(n_levels=21), trials=1))


def mean_max_of_two_geometric(p: float) -> float:
    """E[max(G1, G2)] for independent G1, G2 ~ Geometric(p) on {1, 2, ...}."""
    return 2 / p - 1 / (1 - (1 - p) ** 2)


class TestExactChainCorners:
    """Closed forms of the simulated protocol at corners where its renewals
    are tractable, each checked within 4 standard errors."""

    @staticmethod
    def assert_mean_ticks(trace, expected):
        ticks = trace.delivery_times / trace.config.chain.t_cc
        stderr = ticks.std(ddof=1) / math.sqrt(ticks.size)
        assert abs(ticks.mean() - expected) < 4 * stderr

    def test_one_level_waits_for_the_slower_link(self):
        # both links draw Geometric(p); the swap at their max succeeds w.p. q
        # and a failure restarts both, so the mean is E[max] / q = 7.843. At
        # q = 0.02 a trial takes ~50 rounds, so a level-1 segment spans ~50
        # pairs of the pooled link array.
        for q, mean in ((0.6, 7.843), (0.02, 235.294)):
            chain = lossless_chain(n_levels=1, chi=0.3, swap_intrinsic_factor=q)
            p = multiplexed_success(elementary_p0(chain), chain.mode_count)
            assert p == pytest.approx(0.3)
            trace = simulate_chain(RunConfig(chain=chain, trials=10_000, seed=21))
            assert trace.delivered == 10_000
            expected = mean_max_of_two_geometric(p) / q
            assert expected == pytest.approx(mean, abs=1e-3)
            self.assert_mean_ticks(trace, expected)

    def test_two_levels_of_certain_links(self):
        # links exist after one tick, so a level-1 segment is Geometric(q) in
        # ticks; level 2 waits for the slower one: mean E[max] / q = 3.571
        chain = lossless_chain(n_levels=2, chi=1.0, swap_intrinsic_factor=0.6)
        trace = simulate_chain(RunConfig(chain=chain, trials=10_000, seed=22))
        assert trace.delivered == 10_000
        expected = mean_max_of_two_geometric(0.6) / 0.6
        assert expected == pytest.approx(3.571, abs=1e-3)
        self.assert_mean_ticks(trace, expected)

    def test_swap_age_is_measured_from_the_older_child(self):
        # every level-1 round is a fresh pair (G1, G2) and its swap succeeds
        # w.p. exp(-|G1 - G2| d), d = T_cc/tau0; over the pair that averages
        # p/(2 - p) * (1 + q e^-d)/(1 - q e^-d), q = 1 - p: 0.880 at p = 0.3,
        # d = 0.05. Failed readouts start fresh rounds, so every round counts.
        # The readout decays too, so ~2% of trials never deliver; the horizon
        # ends them, and only the one round each that crosses it goes uncounted.
        chain = lossless_chain(n_levels=1, chi=0.3)
        chain = dataclasses.replace(chain, tau0=chain.t_cc / 0.05)
        trace = simulate_chain(RunConfig(chain=chain, trials=4000, seed=24,
                                         max_sim_time=500.5 * chain.t_cc))
        p, q, decay = 0.3, 0.7, math.exp(-0.05)
        expected = p / (2 - p) * (1 + q * decay) / (1 - q * decay)
        attempts = trace.swap_attempts[0]
        frac = trace.swap_successes[0] / attempts
        assert abs(frac - expected) < 4 * math.sqrt(expected * (1 - expected) / attempts)

    def test_readout_decays_with_elapsed_trial_time(self):
        # certain links, no levels: the k-th readout happens at tick k and
        # succeeds w.p. e^(-d k), d = T_cc/tau0 = 0.3, so
        # P(T = k) = e^(-d k) prod_{j<k} (1 - e^(-d j)), and the trial times
        # out after tick 50 w.p. prod_{j<=50} (1 - e^(-d j))
        chain = lossless_chain(n_levels=0, chi=1.0)
        chain = dataclasses.replace(chain, tau0=chain.t_cc / 0.3)
        config = RunConfig(chain=chain, trials=10_000, seed=25,
                           max_sim_time=50.5 * chain.t_cc)
        trace = simulate_chain(config)
        ks = np.arange(1, 51)
        succeed = np.exp(-0.3 * ks)
        pmf = succeed * np.concatenate(([1.0], np.cumprod(1 - succeed)[:-1]))
        p_timeout = 1 - pmf.sum()
        assert abs(trace.timeouts - 10_000 * p_timeout) < 4 * math.sqrt(
            10_000 * p_timeout * (1 - p_timeout))
        self.assert_mean_ticks(trace, (ks * pmf).sum() / pmf.sum())

    def test_counters_stop_at_the_horizon(self):
        # every level-1 swap fails: both level-1 slots swap once per tick for
        # ticks 1..10, nothing reaches level 2 or the readout. The trials run
        # directly, since simulate_chain also evaluates the recursion, which
        # stalls at a zero swap factor.
        chain = lossless_chain(n_levels=2, chi=1.0, swap_intrinsic_factor=0.0)
        ticks, attempts, successes, readouts = _round(chain, 1.0, 10, 1.0, 23, 0, 3)
        assert ticks == [None] * 3
        assert attempts == [60, 0]
        assert successes == [0, 0]
        assert readouts == 0


def reference_trial(chain: ChainParams, max_ticks: int, links, uniforms):
    """One trial of the per-trial recursion the pooled sampler replaced, the
    oracle of the two-sample tests: link times and uniforms come one at a time
    from the iterators. Returns (delivery tick or None, swap attempts and
    successes per level, readout attempts), counting only swaps and readouts at
    ticks <= max_ticks."""
    q = chain.swap_intrinsic_factor * chain.r0 * chain.eta_td
    decay = chain.t_cc / chain.tau0
    attempts, successes = [0] * chain.n_levels, [0] * chain.n_levels

    def built(level: int, start: int) -> int:
        # tick at which a segment whose links are free from `start` exists
        if level == 0:
            return start + next(links)
        while True:
            a, b = built(level - 1, start), built(level - 1, start)
            t = max(a, b)
            if t > max_ticks:
                return t
            attempts[level - 1] += 1
            if next(uniforms) < q * math.exp(-(t - min(a, b)) * decay):
                successes[level - 1] += 1
                return t
            start = t       # both children are consumed either way

    t = readouts = 0
    while True:
        t = built(chain.n_levels, t)
        if t > max_ticks:
            return None, attempts, successes, readouts
        readouts += 1
        if next(uniforms) < chain.r0 * math.exp(-t * decay):
            return t, attempts, successes, readouts


def endless(draw):
    while True:
        yield from draw(4096).tolist()


class TestAgainstReferenceRecursion:
    """The pooled sampler and the per-trial recursion sample the same law: the
    delivery ticks pass a two-sample KS test at 1e-4 (0.2% over the 21
    configurations), and the per-trial means of every counter (swap attempts
    and successes per level, readouts, timeouts) agree within 5 standard
    errors. The pooled side runs in 10 independent batches, whose spread gives
    its standard error even when rare trials that never read out carry most of
    a counter."""

    TRIALS, BATCHES = 400, 10

    def compare(self, chain: ChainParams, max_ticks: int):
        max_sim_time = (max_ticks + 0.5) * chain.t_cc
        batches = [simulate_chain(RunConfig(chain=chain, trials=self.TRIALS // self.BATCHES,
                                            seed=40 + b, max_sim_time=max_sim_time))
                   for b in range(self.BATCHES)]
        rng = np.random.default_rng(41)
        p_gen = multiplexed_success(elementary_p0(chain), chain.mode_count)
        links, uniforms = endless(lambda k: rng.geometric(p_gen, k)), endless(rng.random)
        reference = [reference_trial(chain, max_ticks, links, uniforms)
                     for _ in range(self.TRIALS)]

        # ticks are integers: round away the T_cc scaling, or every tie splits
        pooled_ticks = np.rint(np.concatenate([t.delivery_times for t in batches]) / chain.t_cc)
        reference_ticks = [t for t, *_ in reference if t is not None]
        if min(len(pooled_ticks), len(reference_ticks)) > 1:
            assert scipy.stats.ks_2samp(pooled_ticks, reference_ticks).pvalue > 1e-4
        per_batch = np.array([[*t.swap_attempts, *t.swap_successes, t.readout_attempts,
                               t.timeouts] for t in batches]) * self.BATCHES / self.TRIALS
        per_trial = np.array([[*a, *s, r, t is None] for t, a, s, r in reference], dtype=float)
        diff = per_batch.mean(axis=0) - per_trial.mean(axis=0)
        stderr = np.sqrt(per_batch.var(axis=0, ddof=1) / self.BATCHES
                         + per_trial.var(axis=0, ddof=1) / self.TRIALS)
        assert np.all(np.abs(diff) <= 5 * stderr)

    @pytest.mark.parametrize("n_levels", range(5))
    @pytest.mark.parametrize("tau0", [0.05, 16.0])
    @pytest.mark.parametrize("swap_factor", [0.5, 1.0])
    def test_projection_grid(self, n_levels, tau0, swap_factor):
        # at tau0 = 0.05 s a readout decays by e per ~160 ticks, so some trials
        # never read out and time out at the horizon
        self.compare(dataclasses.replace(PROJECTION, n_levels=n_levels, tau0=tau0,
                                         swap_intrinsic_factor=swap_factor), 4000)

    def test_timeout_heavy(self):
        # most trials outlast a 100-tick horizon, so the counters hinge on
        # which swaps and readouts happen before it
        self.compare(dataclasses.replace(PROJECTION, n_levels=3), 100)
