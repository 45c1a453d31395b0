import math

import numpy as np
import pytest

from dlczsim import experiments
from dlczsim.config_io import ExperimentConfig, LinkParams, RunConfig
from dlczsim.errors import ParameterError
from dlczsim.experiments import (
    fringe_counts,
    mode_count_scan,
    storage_time_scan,
)
from dlczsim.fitters import fit_sinusoid
from dlczsim.link_physics import expected_window_detection, fringe_visibility
from dlczsim.streams import substream


class TestMeasureVisibility:
    """A scan point's visibility and its stderr come from a sinusoid fit of
    the sampled fringe."""

    def test_fitted_visibility_tracks_closed_form(self, calibrated):
        fit = fit_sinusoid(fringe_counts(calibrated, 1e-6, substream(1, 0),
                                         phases=12, shots_per_phase=40_000))
        assert fit.converged
        truth = fringe_visibility(calibrated, 1e-6)[1]
        assert abs(fit.params["visibility"] - truth) < 4 * fit.stderr["visibility"]

    def test_deterministic_per_seed(self, calibrated):
        a, b = (fit_sinusoid(fringe_counts(calibrated, 1e-6, substream(3, 0),
                                           phases=12, shots_per_phase=4000))
                for _ in range(2))
        assert a.params["visibility"] == b.params["visibility"]
        assert a.stderr["visibility"] == b.stderr["visibility"]


class TestFringeCounts:
    def test_counts_follow_expected_rate(self, calibrated):
        samples = fringe_counts(calibrated, 1e-6, substream(4, 0),
                                phases=12, shots_per_phase=100_000)
        from dlczsim.link_physics import fringe_expectation
        expected = 100_000 * fringe_expectation(samples.x, 1e-6, calibrated)
        z = (samples.y - expected) / np.sqrt(expected)
        assert np.abs(z).max() < 4.5


def scan_config(link, seed, **experiment):
    return RunConfig(link=link, seed=seed, experiment=ExperimentConfig(
        fringe_phases=12, fringe_shots=5_000, **experiment))


class TestScans:
    def test_storage_scan_emits_requested_points(self, calibrated):
        config = scan_config(calibrated, 7, storage_times_us=(1.0, 50.0), trains=150_000)
        points = storage_time_scan(config)
        assert [p.storage_time for p in points] == list(config.experiment.storage_times)
        assert points[0].efficiency > points[1].efficiency

    def test_mode_scan_detection_probability_grows_linearly(self, clean_link):
        points = mode_count_scan(scan_config(clean_link, 8, storage_times_us=(1.0,),
                                             mode_counts=(1, 6, 12), window_budget=1_200_000))
        p1, p6, p12 = [p.detection_probability for p in points]
        # clicks across windows are nearly independent Bernoullis at these rates
        s1, s6, s12 = [math.sqrt(n * expected_window_detection(clean_link) / (1_200_000 // n))
                       for n in (1, 6, 12)]
        assert abs(p6 - 6 * p1) < 3 * math.hypot(s6, 6 * s1)
        assert abs(p12 - 12 * p1) < 3 * math.hypot(s12, 12 * s1)


class TestScanBudget:
    """Each scan checks the slots of both scans against MAX_LINK_SLOTS before
    its first point is drawn."""

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a scan point was drawn")
        monkeypatch.setattr(experiments, "_point", no_draw)

    @staticmethod
    def config(trains, window_budget):
        # one mode a train and one mode point: 2 * trains + 2 * window_budget slots
        return scan_config(LinkParams(chi=0.01, mode_count=1), 7, storage_times_us=(1.0,),
                           mode_counts=(1,), trains=trains, window_budget=window_budget)

    @pytest.mark.parametrize("scan", [storage_time_scan, mode_count_scan])
    def test_over_budget_record_raises_before_any_draw(self, scan):
        half = experiments.MAX_LINK_SLOTS // 4
        # each scan alone fits; the two together are one train over the cap
        with pytest.raises(ParameterError, match=f"more than {experiments.MAX_LINK_SLOTS}"):
            scan(self.config(half + 1, half))
        with pytest.raises(AssertionError, match="a scan point was drawn"):
            scan(self.config(half, half))

    @pytest.mark.parametrize("scan", [storage_time_scan, mode_count_scan])
    def test_record_without_a_link_raises(self, scan):
        with pytest.raises(ParameterError, match=r"\[link\]"):
            scan(RunConfig())
