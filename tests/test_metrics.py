import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim.errors import ParameterError
from dlczsim.link_physics import PmnTable, run_link_trials
from dlczsim.metrics import (
    bootstrap_concurrence_stderr,
    concurrence,
    intrinsic_efficiency,
    visibility,
)
from dlczsim.streams import substream


class TestConcurrence:
    def test_maximally_entangled_no_vacuum(self):
        assert concurrence(PmnTable(0.0, 0.5, 0.5, 0.0), 1.0) == 1.0

    def test_separable_vacuum(self):
        for vis in (0.0, 0.5, 1.0):
            assert concurrence(PmnTable(1.0, 0.0, 0.0, 0.0), vis) == 0.0

    def test_zero_table_is_undefined(self):
        with pytest.raises(ParameterError, match="all four Pmn cells are zero"):
            concurrence(PmnTable(0.0, 0.0, 0.0, 0.0), 1.0)

    def test_rejects_visibility_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            concurrence(PmnTable(0.5, 0.2, 0.2, 0.1), 1.2)

    def test_scaling_invariance(self):
        base = concurrence(PmnTable(0.6, 0.15, 0.15, 0.01), 0.8)
        scaled = concurrence(PmnTable(0.3, 0.075, 0.075, 0.005), 0.8)
        assert scaled == pytest.approx(base, abs=1e-15)

    @given(
        p=st.tuples(*[st.floats(0.0, 1.0) for _ in range(4)]),
        vis=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold_for_any_valid_table(self, p, vis):
        total = sum(p)
        if total == 0.0:
            return
        cells = [x / total for x in p]
        assert 0.0 <= concurrence(PmnTable(*cells), vis) <= 1.0

    def test_monotone_in_each_argument(self):
        table = PmnTable(0.6, 0.15, 0.15, 0.01)
        base = concurrence(table, 0.8)
        assert concurrence(table, 0.9) >= base
        worse_p11 = PmnTable(0.6, 0.15, 0.15, 0.02)
        assert concurrence(worse_p11, 0.8) <= base
        worse_p00 = PmnTable(0.69, 0.15, 0.15, 0.01)
        assert concurrence(worse_p00, 0.8) <= base


class TestBootstrap:
    def test_stderr_shrinks_with_counts(self):
        small = bootstrap_concurrence_stderr((600, 150, 150, 10), 0.8, substream(1, 0))
        large = bootstrap_concurrence_stderr((60000, 15000, 15000, 1000), 0.8, substream(1, 1))
        assert 0.0 < large < small

    def test_deterministic_in_seed(self):
        a = bootstrap_concurrence_stderr((600, 150, 150, 10), 0.8, substream(2, 0))
        b = bootstrap_concurrence_stderr((600, 150, 150, 10), 0.8, substream(2, 0))
        assert a == b

    def test_rejects_empty_counts(self):
        with pytest.raises(ParameterError, match="at least one heralded trial"):
            bootstrap_concurrence_stderr((0, 0, 0, 0), 0.8, substream(0, 0))

    def test_flat_fringe_gives_an_infinite_stderr_without_a_draw(self):
        # a fit of an all-zero fringe reports V = 0 with an infinite error;
        # jittering V by it would clip every replicate to 0 or 1
        rng = substream(3, 0)
        state = rng.bit_generator.state
        assert bootstrap_concurrence_stderr((600, 150, 150, 10), 0.0, rng,
                                            visibility_stderr=math.inf) == math.inf
        assert rng.bit_generator.state == state


class TestVisibility:
    def test_perfect_fringe(self):
        assert visibility(100.0, 0.0) == 1.0

    def test_hand_evaluations(self):
        # (898-102)/(898+102) and (85-15)/(85+15) by hand
        assert visibility(898.0, 102.0) == pytest.approx(0.796, abs=1e-12)
        assert visibility(85.0, 15.0) == pytest.approx(0.7, abs=1e-12)

    def test_zero_max_is_undefined(self):
        with pytest.raises(ParameterError, match="max_counts = 0"):
            visibility(0.0, 0.0)

    def test_inverted_extrema_violate_contract(self):
        with pytest.raises(ParameterError, match="must be >= min_counts"):
            visibility(10.0, 20.0)

    @given(mx=st.floats(1e-9, 1e9), frac=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_result_always_in_unit_interval(self, mx, frac):
        assert 0.0 <= visibility(mx, mx * frac) <= 1.0 + 1e-12


class TestIntrinsicEfficiency:
    def test_lossless_synthetic_data(self):
        # every heralded trial reads out exactly once: eta = 1
        pmn = PmnTable.from_counts(0, 500, 500, 0)
        assert intrinsic_efficiency(pmn, 1.0) == pytest.approx(1.0)

    def test_zero_denominator_is_undefined(self):
        # an all-zero table is zero heralded trials: no count to normalize by
        with pytest.raises(ParameterError, match="all four Pmn cells are zero"):
            intrinsic_efficiency(PmnTable(0.0, 0.0, 0.0, 0.0), 0.9)

    @pytest.mark.parametrize("eta_d", [0.0, -0.1, 1.5, math.nan])
    def test_rejects_detection_efficiency_outside_unit_interval(self, eta_d):
        with pytest.raises(ParameterError):
            intrinsic_efficiency(PmnTable.from_counts(0, 5, 5, 0), eta_d)

    def test_recovers_retrieval_efficiency_at_zero_delay(self, clean_link):
        tally = run_link_trials(clean_link, 1e-9, 700_000, substream(3, 0))
        eta = intrinsic_efficiency(tally.pmn(), clean_link.detection_eff)
        p = (tally.pmn().p01 + tally.pmn().p10)
        sigma = math.sqrt(p * (1 - p) / tally.heralded) / clean_link.detection_eff
        # double-excitation heralds push the estimate ~0.5% above R0
        assert abs(eta - 0.707) < 3 * sigma + 0.005

    def test_decays_by_one_over_e_at_one_lifetime(self, clean_link):
        tally = run_link_trials(clean_link, 0.3e-3, 700_000, substream(3, 1))
        eta = intrinsic_efficiency(tally.pmn(), clean_link.detection_eff)
        expected = 0.707 * math.exp(-1.0)
        p = (tally.pmn().p01 + tally.pmn().p10)
        sigma = math.sqrt(p * (1 - p) / tally.heralded) / clean_link.detection_eff
        assert abs(eta - expected) < 3 * sigma + 0.005
