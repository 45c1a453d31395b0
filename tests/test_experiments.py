import math

import numpy as np
import pytest

from dlczsim import experiments
from dlczsim.config_io import MAX_STORAGE_TIMES
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


class TestScans:
    def test_storage_scan_emits_requested_points(self, calibrated):
        points = storage_time_scan(calibrated, [1e-6, 50e-6], trains=150_000,
                                   seed=7, phases=12, shots_per_phase=5_000)
        assert [p.storage_time for p in points] == [1e-6, 50e-6]
        assert points[0].efficiency > points[1].efficiency

    def test_mode_scan_detection_probability_grows_linearly(self, clean_link):
        points = mode_count_scan(clean_link, [1, 6, 12], 1e-6, 1_200_000, seed=8,
                                 phases=12, shots_per_phase=5_000)
        p1, p6, p12 = [p.detection_probability for p in points]
        # clicks across windows are nearly independent Bernoullis at these rates
        s1, s6, s12 = [math.sqrt(n * expected_window_detection(clean_link) / (1_200_000 // n))
                       for n in (1, 6, 12)]
        assert abs(p6 - 6 * p1) < 3 * math.hypot(s6, 6 * s1)
        assert abs(p12 - 12 * p1) < 3 * math.hypot(s12, 12 * s1)

    def test_storage_scan_past_the_cap_raises_before_any_draw(self, calibrated, monkeypatch):
        # point 1000 of a storage scan would draw on stream (seed, 1000), the
        # mode scan's first point's; a library caller is stopped before any
        # point is drawn, as ExperimentConfig stops a config (exit 2)
        def no_draw(*args, **kwargs):
            raise AssertionError("a scan point was drawn")

        monkeypatch.setattr(experiments, "_point", no_draw)
        with pytest.raises(ParameterError, match="MAX_STORAGE_TIMES = 1000"):
            storage_time_scan(calibrated, [1e-6] * (MAX_STORAGE_TIMES + 1), trains=10,
                              seed=7, phases=12, shots_per_phase=10)
        with pytest.raises(AssertionError, match="a scan point was drawn"):
            storage_time_scan(calibrated, [1e-6] * MAX_STORAGE_TIMES, trains=10,
                              seed=7, phases=12, shots_per_phase=10)
