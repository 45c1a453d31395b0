import dataclasses
import math

import numpy as np
import pytest

from dlczsim.config_io import ChainParams
from dlczsim.errors import ParameterError, StalledChainError
from dlczsim.rate import chain_law, multiplexed_success, swap_chain

PROJECTION = ChainParams(
    l0=63.0, l_att=22.0, n_levels=4, fiber_speed=2.0e5,
    eta_fc=0.46, eta_td=0.9, chi=0.01, mode_count=100,
    r0=0.8, tau0=16.0, swap_intrinsic_factor=1.0,
)


class TestElementaryP0:
    def test_zero_chi(self):
        with pytest.raises(StalledChainError) as err:
            chain_law(dataclasses.replace(PROJECTION, chi=0.0))
        assert err.value.level == 0

    def test_no_fiber_loss_limit(self):
        params = dataclasses.replace(PROJECTION, l0=1e-12)
        assert chain_law(params).p0 == pytest.approx(0.01 * 0.46 * 0.9, rel=1e-12)

    def test_reference_point(self):
        # hand evaluation: 0.01 * e^(-63/44) * 0.46 * 0.9 = 9.88939e-4
        assert chain_law(PROJECTION).p0 == pytest.approx(9.889392e-4, rel=1e-6)

    def test_rejects_bad_domains(self):
        with pytest.raises(ParameterError):
            ChainParams(l0=-1.0)
        with pytest.raises(ParameterError):
            ChainParams(eta_td=1.2)
        with pytest.raises(ParameterError):
            ChainParams(n_levels=-1)


class TestChainParamsValidation:
    def test_nan_tau0_is_rejected(self):
        with pytest.raises(ParameterError, match="tau0"):
            ChainParams(tau0=math.nan)

    def test_nan_fiber_speed_is_rejected(self):
        with pytest.raises(ParameterError, match="fiber_speed"):
            ChainParams(fiber_speed=math.nan)

    def test_nan_l0_message_names_l0_not_p0(self):
        with pytest.raises(ParameterError, match=r"^l0 must be finite") as info:
            ChainParams(l0=math.nan)
        assert "p0" not in str(info.value)

    def test_infinite_values_are_rejected(self):
        for name in ("l0", "l_att", "fiber_speed", "tau0"):
            with pytest.raises(ParameterError, match=name):
                ChainParams(**{name: math.inf})

    def test_communication_interval_must_be_a_positive_finite_time(self):
        # l0 / fiber_speed underflows to 0 or overflows to inf
        with pytest.raises(ParameterError, match="T_cc"):
            ChainParams(l0=1e-320)
        with pytest.raises(ParameterError, match="T_cc"):
            ChainParams(fiber_speed=1e-320)


class TestMultiplexedSuccess:
    def test_single_mode_identity(self):
        for p in (0.0, 1e-4, 0.3, 1.0):
            assert multiplexed_success(p, 1) == pytest.approx(p, abs=1e-15)

    def test_hand_value(self):
        # 1 - 0.9^3 = 0.271 exactly
        assert multiplexed_success(0.1, 3) == pytest.approx(0.271, abs=1e-12)

    def test_linear_approximation_bound(self):
        # |1-(1-p)^N - Np| <= (Np)^2 / 2 whenever Np <= 1
        for p in np.logspace(-6, -1, 12):
            for n in (1, 2, 5, 12, 50, 100):
                if n * p > 1.0:
                    continue
                exact = multiplexed_success(float(p), n)
                assert abs(exact - n * p) <= (n * p) ** 2 / 2 + 1e-15

    def test_asymptotically_linear(self):
        assert multiplexed_success(1e-8, 100) == pytest.approx(1e-6, rel=1e-5)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            multiplexed_success(1.5, 3)
        with pytest.raises(ParameterError):
            multiplexed_success(0.1, 0)


def _oracle_recursion(params: ChainParams):
    """Mean-time recursion written out independently of rate.py."""
    p0 = params.chi * math.exp(-params.l0 / (2 * params.l_att)) * params.eta_fc * params.eta_td
    p_multi = 1.0 - (1.0 - p0) ** params.mode_count
    t_cc = params.l0 / params.fiber_speed
    t = t_cc / p_multi
    product = 1.0
    for _ in range(params.n_levels):
        p_i = params.swap_intrinsic_factor * params.r0 * math.exp(-t / params.tau0) * params.eta_td
        t = t / p_i
        product *= p_i
    p_pr = params.r0 * math.exp(-t / params.tau0)
    return p_multi * product * p_pr / t_cc


class TestSwapChain:
    def test_no_swap_levels_reduces_to_generation_and_readout(self):
        params = dataclasses.replace(PROJECTION, n_levels=0)
        report = swap_chain(params)
        p_multi = multiplexed_success(chain_law(params).p0, 100)
        t0 = params.t_cc / p_multi
        p_pr = 0.8 * math.exp(-t0 / 16.0)
        assert report.level_success == []
        assert report.rate_hz == pytest.approx(p_multi * p_pr / params.t_cc, rel=1e-12)

    def test_infinite_lifetime_makes_levels_uniform(self):
        params = dataclasses.replace(PROJECTION, tau0=1e15)
        report = swap_chain(params)
        for p_i in report.level_success:
            assert p_i == pytest.approx(0.8 * 0.9, rel=1e-12)

    def test_projection_rate_matches_independent_recursion(self):
        report = swap_chain(PROJECTION)
        assert report.rate_hz == pytest.approx(_oracle_recursion(PROJECTION), rel=1e-12)
        # frozen value of the hand evaluation, and the headline lower bound
        assert report.rate_hz == pytest.approx(64.152297, rel=1e-6)
        assert report.rate_hz >= 1.0

    def test_level_times_strictly_increase(self):
        report = swap_chain(PROJECTION)
        times = [report.t0] + report.level_time
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_multiplexing_consistency_at_one_mode(self):
        params = dataclasses.replace(PROJECTION, mode_count=1)
        report = swap_chain(params)
        assert report.law.p_gen == pytest.approx(report.law.p0, abs=1e-18)

    def test_stalls_with_zero_chi(self):
        with pytest.raises(StalledChainError) as err:
            swap_chain(dataclasses.replace(PROJECTION, chi=0.0))
        assert err.value.level == 0

    def test_stalls_with_zero_retrieval(self):
        with pytest.raises(StalledChainError) as err:
            swap_chain(dataclasses.replace(PROJECTION, r0=0.0))
        assert err.value.level == 1


class TestMonotonicity:
    """Finite-difference probes of the rate's parameter dependence."""

    def _rates(self, name, values):
        return [swap_chain(dataclasses.replace(PROJECTION, **{name: v})).rate_hz
                for v in values]

    def test_non_decreasing_in_mode_count(self):
        rates = self._rates("mode_count", [1, 2, 5, 10, 25, 50, 100, 200])
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_non_decreasing_in_r0(self):
        rates = self._rates("r0", np.linspace(0.05, 1.0, 12))
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_non_decreasing_in_eta_td(self):
        rates = self._rates("eta_td", np.linspace(0.05, 1.0, 12))
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_non_decreasing_in_eta_fc(self):
        rates = self._rates("eta_fc", np.linspace(0.05, 1.0, 12))
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_non_decreasing_in_tau0(self):
        rates = self._rates("tau0", np.logspace(-2, 2, 12))
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_fixed_total_distance_interior_maximum_with_bsm_factor(self):
        # with a 1/2 per-swap Bell-measurement factor the rate versus link
        # length at fixed total distance has an interior maximum; oracle is a
        # dense grid over the nesting depth
        total = 2 ** PROJECTION.n_levels * PROJECTION.l0
        rates = []
        for n in range(0, 9):
            params = dataclasses.replace(
                PROJECTION, n_levels=n, l0=total / 2 ** n, swap_intrinsic_factor=0.5)
            rates.append(swap_chain(params).rate_hz)
        peak = max(range(len(rates)), key=rates.__getitem__)
        assert 0 < peak < len(rates) - 1

    def test_non_increasing_in_l0_beyond_the_peak(self):
        # on the long-link side of the maximum the rate falls with l0
        total = 2 ** PROJECTION.n_levels * PROJECTION.l0
        rates = []
        for n in (5, 4, 3, 2, 1):  # l0 = total/2^n increasing
            params = dataclasses.replace(
                PROJECTION, n_levels=n, l0=total / 2 ** n, swap_intrinsic_factor=0.5)
            rates.append(swap_chain(params).rate_hz)
        assert all(b <= a for a, b in zip(rates, rates[1:]))
