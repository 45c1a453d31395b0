import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from dlczsim.chain_sim import SimConfig, simulate_chain, simulate_elementary_link
from dlczsim.errors import ParameterError, StalledChainError
from dlczsim.rate import ChainParams, elementary_p0, multiplexed_success, swap_chain

PROJECTION = ChainParams()  # defaults are the long-distance projection set


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
        config = SimConfig(chain=lossless_chain(), trials=50, seed=1)
        trace = simulate_chain(config)
        assert trace.delivered == 50
        assert np.allclose(trace.delivery_times, config.chain.t_cc)
        assert (trace.swap_attempts == trace.swap_successes).all()

    def test_swap_success_fraction_matches_r0_eta(self):
        # deterministic generation, no decay: each swap succeeds w.p. r0*eta_td
        chain = lossless_chain(r0=0.8, eta_td=1.0)
        trace = simulate_chain(SimConfig(chain=chain, trials=400, seed=2))
        for level in range(4):
            attempts = trace.swap_attempts[level]
            frac = trace.swap_successes[level] / attempts
            sigma = math.sqrt(0.8 * 0.2 / attempts)
            assert abs(frac - 0.8) < 4 * sigma

    def test_no_levels_matches_mean_field_exactly(self):
        # n = 0 has no max-of-two waiting, so the recursion is unbiased:
        # mean delivery = T_cc / (P0^(N) * P_pr)
        chain = lossless_chain(n_levels=0, chi=0.2, r0=0.7, tau0=1e15)
        config = SimConfig(chain=chain, trials=4000, seed=3)
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
        trace = simulate_chain(SimConfig(chain=chain, trials=1500, seed=4))
        assert abs(trace.empirical_rate - trace.analytic_rate) < 0.2 * trace.analytic_rate

    def test_projection_rate_sits_below_mean_field(self):
        # with stochastic generation and 0.72 swaps the discard-on-failure
        # protocol pays the max-of-two-children cost at every level, so the
        # empirical rate lands well under the recursion's estimate
        trace = simulate_chain(SimConfig(chain=PROJECTION, trials=150, seed=5))
        assert trace.delivered == 150
        assert trace.empirical_rate < trace.analytic_rate

    def test_conservation_and_accounting(self):
        trace = simulate_chain(SimConfig(chain=PROJECTION, trials=80, seed=6))
        assert (trace.swap_successes <= trace.swap_attempts).all()
        assert trace.delivered + trace.timeouts == 80
        assert trace.readout_successes == trace.delivered
        assert (trace.delivery_times > 0).all()
        ticks = trace.delivery_times / PROJECTION.t_cc
        assert np.allclose(ticks, np.round(ticks))

    def test_timeouts_are_recorded_and_excluded(self):
        chain = dataclasses.replace(PROJECTION, chi=1e-5)
        config = SimConfig(chain=chain, trials=20, seed=7, max_sim_time=0.1)
        trace = simulate_chain(config)
        assert trace.timeouts > 0
        assert trace.delivered + trace.timeouts == 20

    def test_bitwise_determinism_and_worker_independence(self):
        config = SimConfig(chain=PROJECTION, trials=40, seed=8)
        a = simulate_chain(config)
        b = simulate_chain(config)
        c = simulate_chain(config, workers=3)
        for other in (b, c):
            assert np.array_equal(a.delivery_times, other.delivery_times)
            assert np.array_equal(a.swap_attempts, other.swap_attempts)
            assert np.array_equal(a.swap_successes, other.swap_successes)
            assert a.timeouts == other.timeouts

    def test_stalled_chain_raises(self):
        with pytest.raises(StalledChainError):
            simulate_chain(SimConfig(chain=dataclasses.replace(PROJECTION, chi=0.0),
                                     trials=10, seed=9))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(chain=PROJECTION, trials=0, seed=0)
        with pytest.raises(ParameterError):
            SimConfig(chain=PROJECTION, trials=10, seed=0, max_sim_time=1e-9)
        with pytest.raises(ParameterError, match="seed"):
            SimConfig(chain=PROJECTION, trials=10, seed=-1)
        for guard in (math.inf, math.nan, 1e308):
            with pytest.raises(ParameterError, match="max_sim_time"):
                SimConfig(chain=PROJECTION, trials=10, seed=0, max_sim_time=guard)
