import pytest

from dlczsim.calibration import (
    CALIBRATED,
    CALIBRATION_TARGETS,
    calibrated_link_params,
    solve_calibration,
)
from dlczsim.link_physics import expected_pmn, expected_window_detection, fringe_visibility
from dlczsim.metrics import concurrence


def test_solver_reproduces_frozen_values():
    solved = solve_calibration()
    for key, frozen in CALIBRATED.items():
        assert solved[key] == pytest.approx(frozen, rel=1e-9), key


def test_calibrated_model_hits_its_targets():
    params = calibrated_link_params()
    assert expected_window_detection(params) == pytest.approx(
        CALIBRATION_TARGETS["single_mode_detection"], rel=1e-9)
    v1 = fringe_visibility(params, 1e-6)[1]
    assert v1 == pytest.approx(CALIBRATION_TARGETS["visibility_1us"], abs=1e-9)
    c1 = concurrence(expected_pmn(params, 1e-6), v1)
    assert c1 == pytest.approx(CALIBRATION_TARGETS["concurrence_1us"], abs=1e-9)
    # the long-storage visibility is matched approximately, inside +/- 0.024
    v150 = fringe_visibility(params, 150e-6)[1]
    assert abs(v150 - CALIBRATION_TARGETS["visibility_150us"]) < 0.024


def test_overrides_replace_fields():
    params = calibrated_link_params(crosstalk_eps=0.0, mode_count=3)
    assert params.crosstalk_eps == 0.0
    assert params.mode_count == 3
    assert params.chi == CALIBRATION_TARGETS["chi"]
